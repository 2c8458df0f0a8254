//! Property-style corruption tests: save → mutilate → load.
//!
//! For a sweep of truncation points and deterministic single-bit flips,
//! loading must never panic: the strict loader reports a typed error, the
//! lenient loader recovers whatever still verifies. A second family
//! damages a record *and re-seals it* (fresh checksums, fresh trailer),
//! so only the decoder's own checks stand between the bytes and a panic.
//! The last tests hold the document check to a reference walk over
//! mutated TPoX records, and a loader fed a few bytes per read to one fed
//! the whole image.

use xia_fault::{FaultInjector, FaultSite};
use xia_storage::{
    load_database_from, load_database_lenient_faulted, load_database_lenient_from,
    save_database_to, sum64, Database, LoadReport, PersistError,
};

/// Deterministic pseudo-random stream (splitmix64) — no external crates,
/// fixed seed, reproducible failures.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const DOCS: usize = 24;
const TOTAL: usize = DOCS + 8;

fn sample_db() -> Database {
    let mut db = Database::new();
    let coll = db.create_collection("SDOC");
    for i in 0..DOCS {
        coll.insert_xml(&format!(
            "<Security><Symbol>S{i:03}</Symbol><Yield>{}.25</Yield>\
             <Sector>sector-{}</Sector></Security>",
            i % 9,
            i % 4
        ))
        .unwrap();
    }
    let coll = db.create_collection("ODOC");
    for i in 0..8 {
        coll.insert_xml(&format!("<Order><Id>{i}</Id><Qty>{}</Qty></Order>", i * 10))
            .unwrap();
    }
    db.runstats_all();
    db
}

fn dump(db: &Database) -> Vec<u8> {
    let mut bytes = Vec::new();
    save_database_to(db, &mut bytes).unwrap();
    bytes
}

fn strict(mut bytes: &[u8]) -> Result<Database, PersistError> {
    load_database_from(&mut bytes)
}

fn lenient(mut bytes: &[u8]) -> Result<(Database, LoadReport), PersistError> {
    load_database_lenient_from(&mut bytes)
}

/// Documents that actually come out of the database once it is read —
/// which decodes every collection, so a record that was counted as loaded
/// but cannot be decoded would panic here, inside the test that caused it.
fn doc_count(db: &Database) -> usize {
    db.collection_names()
        .iter()
        .map(|n| db.collection(n).unwrap().iter_docs().count())
        .sum()
}

/// A lenient load's report must describe the database it came with.
fn assert_report_is_final(db: &Database, report: &LoadReport) {
    let live: usize = db
        .collection_names()
        .iter()
        .map(|n| db.collection(n).unwrap().len())
        .sum();
    assert_eq!(report.docs_loaded as usize, live, "{report:?}");
    assert_eq!(doc_count(db), live, "{report:?}");
}

// The v3 framing, as `persist.rs` documents it.
const MAGIC: &[u8] = b"XIADB v3\n";
const HEADER: usize = 13;

/// Splits an image into `(tag, payload)` records, trailer included.
fn records(image: &[u8]) -> Vec<(u8, Vec<u8>)> {
    assert!(image.starts_with(MAGIC));
    let mut out = Vec::new();
    let mut pos = MAGIC.len();
    while pos < image.len() {
        let len = u32::from_le_bytes(image[pos + 1..pos + 5].try_into().unwrap()) as usize;
        let start = pos + HEADER;
        out.push((image[pos], image[start..start + len].to_vec()));
        pos = start + len;
    }
    out
}

/// Writes records back as a well-sealed image: every checksum and the
/// trailer recomputed over whatever the payloads now hold.
fn seal(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut image = MAGIC.to_vec();
    let mut frame = MAGIC.to_vec();
    let push = |image: &mut Vec<u8>, frame: Option<&mut Vec<u8>>, tag: u8, payload: &[u8]| {
        let mut header = vec![tag];
        header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        header.extend_from_slice(&sum64(payload).to_le_bytes());
        image.extend_from_slice(&header);
        image.extend_from_slice(payload);
        if let Some(frame) = frame {
            frame.extend_from_slice(&header);
        }
    };
    let body = &records[..records.len() - 1];
    for (tag, payload) in body {
        push(&mut image, Some(&mut frame), *tag, payload);
    }
    let mut trailer = (body.len() as u64).to_le_bytes().to_vec();
    trailer.extend_from_slice(&sum64(&frame).to_le_bytes());
    push(&mut image, None, b'E', &trailer);
    image
}

#[test]
fn clean_round_trip_is_identity() {
    let db = sample_db();
    let bytes = dump(&db);
    assert_eq!(seal(&records(&bytes)), bytes, "the test knows the framing");
    let restored = strict(&bytes).unwrap();
    assert_eq!(doc_count(&restored), TOTAL);
    let (restored, report) = lenient(&bytes).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.version, 3);
    assert_eq!(report.docs_loaded as usize, TOTAL);
    assert_report_is_final(&restored, &report);
    for name in ["SDOC", "ODOC"] {
        let (a, b) = (
            db.collection(name).unwrap(),
            restored.collection(name).unwrap(),
        );
        assert!(a.iter_docs().eq(b.iter_docs()));
    }
}

#[test]
fn every_truncation_point_loads_without_panicking() {
    let bytes = dump(&sample_db());
    // Every 7th byte, and every cut inside the trailer: no byte of a v3
    // image is optional, so no proper prefix is ever accepted.
    let trailer = bytes.len() - (HEADER + 16);
    for cut in (0..bytes.len()).step_by(7).chain(trailer..bytes.len()) {
        let prefix = &bytes[..cut];
        assert!(
            strict(prefix).is_err(),
            "strict load accepted a truncation at byte {cut}"
        );
        // Lenient: partial recovery or a typed error (header truncated
        // away entirely), never a panic, never a clean report, and never
        // more documents than were saved.
        if let Ok((db, report)) = lenient(prefix) {
            assert!(
                !report.is_clean() && !report.complete && !report.trailer_ok,
                "truncation at {cut} reported a clean load: {report:?}"
            );
            assert!(doc_count(&db) <= TOTAL);
            assert_report_is_final(&db, &report);
        }
    }
}

#[test]
fn every_sampled_bit_flip_is_detected() {
    let bytes = dump(&sample_db());
    let mut rng = Rng(0xFA0175);
    for _ in 0..300 {
        let pos = (rng.next() as usize) % bytes.len();
        let bit = 1u8 << (rng.next() % 8);
        let mut flipped = bytes.clone();
        flipped[pos] ^= bit;
        // Strict mode: every byte is under a checksum that sees every
        // bit, so no flip is ever accepted.
        let err = strict(&flipped)
            .err()
            .unwrap_or_else(|| panic!("strict load accepted bit {bit:#x} of byte {pos} flipped"));
        assert!(!err.to_string().is_empty());
        // Lenient mode: never panics, never clean, never conjures
        // documents. (An Err is a flip in the magic line.)
        if let Ok((db, report)) = lenient(&flipped) {
            assert!(!report.is_clean(), "flip at {pos}: {report:?}");
            assert!(doc_count(&db) <= TOTAL);
            assert_report_is_final(&db, &report);
        }
    }
}

#[test]
fn flipping_one_payload_byte_loses_exactly_that_document_leniently() {
    let db = sample_db();
    let bytes = dump(&db);
    // The fourth document record: flip a byte in the middle of its
    // payload.
    let mut pos = MAGIC.len();
    let mut seen = 0;
    let target = loop {
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        if bytes[pos] == b'D' {
            seen += 1;
            if seen == 4 {
                break pos + HEADER + len / 2;
            }
        }
        pos += HEADER + len;
    };
    let mut flipped = bytes.clone();
    flipped[target] ^= 0x01;

    match strict(&flipped) {
        Err(PersistError::Corrupt { .. }) => {}
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("strict load accepted a corrupt payload"),
    }
    let (loaded, report) = lenient(&flipped).unwrap();
    assert_eq!(report.docs_skipped, 1, "{report:?}");
    assert!(report.complete && report.trailer_ok && !report.is_clean());
    assert_eq!(doc_count(&loaded), TOTAL - 1);
    assert_report_is_final(&loaded, &report);
    // Exactly that document: the others are the saved ones, in order.
    let survivors: Vec<_> = db
        .collection("SDOC")
        .unwrap()
        .iter_docs()
        .enumerate()
        .filter(|(i, _)| *i != 3)
        .map(|(_, (_, d))| d)
        .collect();
    let loaded_docs: Vec<_> = loaded
        .collection("SDOC")
        .unwrap()
        .iter_docs()
        .map(|(_, d)| d)
        .collect();
    assert_eq!(loaded_docs, survivors);
    // The saved statistics described 24 documents; these describe 23.
    let stats = loaded.stats_cached("SDOC").unwrap();
    assert_eq!(stats.doc_count as usize, DOCS - 1);
    assert_eq!(loaded.stats_cached("ODOC"), db.stats_cached("ODOC"));
}

#[test]
fn an_injected_fault_is_rolled_once_per_document_record() {
    let dir = std::env::temp_dir().join(format!("xia_corruption_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.xiadb");
    std::fs::write(&path, dump(&sample_db())).unwrap();
    let faults = FaultInjector::seeded(3).with_rate(FaultSite::StorageIo, 0.25);
    let (db, report) = load_database_lenient_faulted(&path, &faults).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(faults.calls(FaultSite::StorageIo) as usize, TOTAL);
    assert!(report.docs_skipped > 0, "the schedule fires at this seed");
    assert_eq!(
        report.docs_skipped,
        faults.injected(FaultSite::StorageIo),
        "{report:?}"
    );
    assert_eq!((report.docs_loaded + report.docs_skipped) as usize, TOTAL);
    assert!(report.complete && report.trailer_ok && !report.is_clean());
    assert_report_is_final(&db, &report);
}

/// The first document record is `<Security>` with three valued children:
/// `[4] [path 0, parent 0, flags 0] [path 1, parent 1, flags 2, len 4, "S000"] ...`
const NODE_COUNT: usize = 0;
const CHILD_PATH: usize = 4;
const CHILD_PARENT: usize = 5;
const CHILD_FLAGS: usize = 6;
const CHILD_VALUE_LEN: usize = 7;
const CHILD_VALUE: usize = 8;

#[test]
fn a_resealed_hostile_record_is_diagnosed_not_trusted() {
    let clean = records(&dump(&sample_db()));
    let first_doc = clean.iter().position(|(tag, _)| *tag == b'D').unwrap();
    assert_eq!(
        &clean[first_doc].1[..CHILD_VALUE + 4],
        &[4, 0, 0, 0, 1, 1, 2, 4, b'S', b'0', b'0', b'0'],
        "the layout this test edits"
    );
    type Edit = fn(&mut Vec<u8>);
    let on_the_document: [(&str, Edit, &str); 12] = [
        (
            "node count past the record",
            |p| p[NODE_COUNT] = 0x7f,
            "count of 127",
        ),
        (
            "node count of u64::MAX",
            |p| {
                p.splice(
                    0..1,
                    [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
                );
            },
            "cannot fit",
        ),
        (
            "node count short",
            |p| p[NODE_COUNT] = 3,
            "after the record's end",
        ),
        (
            "value length past the record",
            |p| p[CHILD_VALUE_LEN] = 0x7f,
            "cannot fit",
        ),
        (
            "parent after child",
            |p| p[CHILD_PARENT] = 3,
            "does not precede",
        ),
        (
            "parent is itself",
            |p| p[CHILD_PARENT] = 2,
            "does not precede",
        ),
        ("second root", |p| p[CHILD_PARENT] = 0, "has no parent"),
        (
            "path id outside the dictionary",
            |p| p[CHILD_PATH] = 0x50,
            "not in the dictionary",
        ),
        (
            "path id of another level",
            |p| p[CHILD_PATH] = 0,
            "one label below",
        ),
        (
            "unknown flags",
            |p| p[CHILD_FLAGS] = 0x06,
            "unknown node flags",
        ),
        ("value is not UTF-8", |p| p[CHILD_VALUE] = 0xff, "UTF-8"),
        (
            "bytes after the last node",
            |p| p.push(0),
            "after the record's end",
        ),
    ];
    for (what, edit, expect) in on_the_document {
        let mut recs = clean.clone();
        edit(&mut recs[first_doc].1);
        let image = seal(&recs);
        match strict(&image) {
            Err(PersistError::Format(m)) => assert!(m.contains(expect), "{what}: {m}"),
            Err(other) => panic!("{what}: expected a format error, got {other}"),
            Ok(_) => panic!("{what}: accepted"),
        }
        let (db, report) = lenient(&image).unwrap();
        assert_eq!(report.docs_skipped, 1, "{what}: {report:?}");
        assert_eq!(report.diagnostics.len(), 1, "{what}: {report:?}");
        assert!(
            report.diagnostics[0].contains(expect) && report.diagnostics[0].contains("record"),
            "{what}: {report:?}"
        );
        assert!(report.complete && report.trailer_ok);
        assert_eq!(doc_count(&db), TOTAL - 1, "{what}");
        assert_report_is_final(&db, &report);
    }

    // The small records are decoded at once; the same bounds hold there.
    let on_the_rest: [(&str, u8, Edit); 5] = [
        // "SDOC" is 1 + 4 bytes; then the count of names.
        ("name count past the record", b'C', |p| p[5] = 0x7f),
        ("a repeated name", b'C', |p| {
            // `Security` (8 bytes) and `Symbol` (6) are names 0 and 1.
            assert_eq!(&p[16..22], b"Symbol");
            p.splice(15..22, *b"\x08Security");
        }),
        // 24 documents, 96 nodes, 384 value bytes (two varint bytes); then
        // the count of paths.
        ("path count past the record", b'S', |p| p[4] = 0x7f),
        ("statistics of fewer documents", b'S', |p| p[0] -= 1),
        ("histogram past the record", b'S', |p| {
            let last = p.len() - 1;
            p[last] = 0x7f;
        }),
    ];
    for (what, tag, edit) in on_the_rest {
        let mut recs = clean.clone();
        let at = recs.iter().position(|(t, _)| *t == tag).unwrap();
        edit(&mut recs[at].1);
        let image = seal(&recs);
        assert!(
            matches!(strict(&image), Err(PersistError::Format(_))),
            "{what}"
        );
        let (db, report) = lenient(&image).unwrap();
        assert!(!report.is_clean(), "{what}");
        assert_report_is_final(&db, &report);
        if tag == b'S' {
            // Statistics are recoverable: recomputed over the documents.
            assert_eq!(doc_count(&db), TOTAL, "{what}");
            assert_eq!(db.stats_cached("SDOC").unwrap().doc_count as usize, DOCS);
        } else {
            // A collection record is not: its documents have no
            // vocabulary to be read against, the next collection is fine.
            assert_eq!(db.collection_names(), vec!["ODOC"], "{what}");
            assert_eq!(report.docs_skipped as usize, DOCS, "{what}");
        }
    }
}

#[test]
fn older_and_foreign_headers_are_refused_by_name() {
    let v2 = b"XIADB v2\nCOLLECTION SDOC\nDOC 4 0\n<a/>\nEND 1 0\n";
    let cases: [(&[u8], &str); 5] = [
        (v2, "XIADB v2 images are no longer read"),
        (
            b"XIADB v1\nCOLLECTION X\nEND\n",
            "XIADB v1 images are no longer read",
        ),
        (b"XIADB v3", "missing XIADB v3 header"),
        (b"NOT A DB\n", "missing XIADB v3 header"),
        (b"", "missing XIADB v3 header"),
    ];
    for (image, expect) in cases {
        match strict(image) {
            Err(PersistError::Format(m)) => assert!(m.contains(expect), "{m}"),
            Err(other) => panic!("expected a format error, got {other}"),
            Ok(_) => panic!("accepted {image:?}"),
        }
        match lenient(image) {
            Err(PersistError::Format(m)) => assert!(m.contains(expect), "{m}"),
            Err(other) => panic!("expected a format error, got {other}"),
            Ok(_) => panic!("accepted {image:?}"),
        }
    }
}

/// The document check as it stood before the table-driven loop — a
/// cursor with `String` errors, a node iterator, and the preorder rules
/// applied with label-slice compares — kept as the reference the loader's
/// verdicts and diagnostics are held to.
mod reference {
    use xia_xml::{NodeId, NodeKind, PathId, Vocabulary, MAX_XML_DEPTH};

    /// A cursor that also notes the offset of every byte it reads that is
    /// not value text: where a mutation changes the record's structure.
    pub struct Reader<'a> {
        pub bytes: &'a [u8],
        pub offset: usize,
        pub structure: Vec<usize>,
    }

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            if n > self.bytes.len() {
                return Err(format!(
                    "a field of {n} bytes runs past the end of the record ({} left)",
                    self.bytes.len()
                ));
            }
            let (head, rest) = self.bytes.split_at(n);
            self.bytes = rest;
            self.offset += n;
            Ok(head)
        }

        fn u8(&mut self) -> Result<u8, String> {
            self.structure.push(self.offset);
            Ok(self.take(1)?[0])
        }

        fn varint(&mut self) -> Result<u64, String> {
            let mut v = 0u64;
            for shift in (0..64).step_by(7) {
                let b = self.u8()?;
                let bits = (b & 0x7f) as u64;
                if shift == 63 && bits > 1 {
                    break;
                }
                v |= bits << shift;
                if b & 0x80 == 0 {
                    return Ok(v);
                }
            }
            Err("a varint does not fit 64 bits".into())
        }

        fn varint_u32(&mut self) -> Result<u32, String> {
            let v = self.varint()?;
            u32::try_from(v).map_err(|_| format!("{v} does not fit an id"))
        }

        fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
            let n = self.varint()?;
            match usize::try_from(n) {
                Ok(n) if n <= self.bytes.len() / min_bytes => Ok(n),
                _ => Err(format!(
                    "a count of {n} items cannot fit the {} bytes left in the record",
                    self.bytes.len()
                )),
            }
        }

        fn str(&mut self) -> Result<&'a str, String> {
            let n = self.count(1)?;
            std::str::from_utf8(self.take(n)?).map_err(|e| format!("text is not valid UTF-8: {e}"))
        }

        fn finish(&self) -> Result<(), String> {
            if self.bytes.is_empty() {
                Ok(())
            } else {
                Err(format!("{} bytes after the record's end", self.bytes.len()))
            }
        }
    }

    pub struct NodeRecord {
        path: PathId,
        parent: Option<NodeId>,
        kind: NodeKind,
        has_value: bool,
    }

    pub struct DocNodes<'a> {
        pub r: Reader<'a>,
        left: usize,
    }

    impl<'a> DocNodes<'a> {
        fn open(payload: &'a [u8]) -> Result<Self, (String, Vec<usize>)> {
            let mut r = Reader {
                bytes: payload,
                offset: 0,
                structure: Vec::new(),
            };
            let left = match r.count(3) {
                Ok(left) if left > u32::MAX as usize => {
                    Err(format!("{left} nodes do not fit node ids"))
                }
                other => other,
            }
            .map_err(|e| (e, std::mem::take(&mut r.structure)))?;
            Ok(Self { r, left })
        }

        fn node(&mut self) -> Result<NodeRecord, String> {
            let path = PathId(self.r.varint_u32()?);
            let parent = self.r.varint_u32()?.checked_sub(1).map(NodeId);
            let flags = self.r.u8()?;
            if flags & !3 != 0 {
                return Err(format!("unknown node flags {flags:#04x}"));
            }
            let has_value = flags & 2 != 0;
            if has_value {
                self.r.str()?;
            }
            Ok(NodeRecord {
                path,
                parent,
                kind: if flags & 1 != 0 {
                    NodeKind::Attribute
                } else {
                    NodeKind::Element
                },
                has_value,
            })
        }
    }

    impl Iterator for DocNodes<'_> {
        type Item = Result<NodeRecord, String>;

        fn next(&mut self) -> Option<Self::Item> {
            self.left = self.left.checked_sub(1)?;
            Some(self.node())
        }
    }

    fn admit(
        seen: &mut Vec<(PathId, NodeKind)>,
        vocab: &Vocabulary,
        n: &NodeRecord,
    ) -> Result<(), String> {
        let (index, path) = (seen.len(), n.path);
        if path.index() >= vocab.paths.len() {
            return Err(format!(
                "node {index}: path id {} is not in the dictionary",
                path.0
            ));
        }
        let labels = vocab.paths.labels(path);
        let Some((&name, prefix)) = labels.split_last() else {
            return Err(format!("node {index}: path id {} has no labels", path.0));
        };
        if name.index() >= vocab.names.len() {
            return Err(format!("node {index}: name {name} is not interned"));
        }
        if labels.len() > MAX_XML_DEPTH {
            return Err(format!(
                "node {index}: nested deeper than {MAX_XML_DEPTH} levels"
            ));
        }
        match n.parent {
            None => {
                if index != 0 {
                    return Err(format!("node {index} has no parent"));
                }
                if !prefix.is_empty() || n.kind != NodeKind::Element {
                    return Err("the root is not an element at a one-label path".into());
                }
            }
            Some(p) => {
                if index == 0 {
                    return Err("the root has a parent".into());
                }
                let Some(&(parent_path, parent_kind)) = seen.get(p.index()) else {
                    return Err(format!("node {index}: parent {} does not precede it", p.0));
                };
                if parent_kind != NodeKind::Element {
                    return Err(format!("node {index}: parent {} is an attribute", p.0));
                }
                if vocab.paths.labels(parent_path) != prefix {
                    return Err(format!(
                        "node {index}: path id {} is not one label below its parent's",
                        path.0
                    ));
                }
            }
        }
        if n.kind == NodeKind::Attribute && !n.has_value {
            return Err(format!("node {index}: attribute without a value"));
        }
        seen.push((path, n.kind));
        Ok(())
    }

    /// The verdict on one document record — its node count or the first
    /// problem — and the offsets of the structural bytes read on the way.
    pub fn check(payload: &[u8], vocab: &Vocabulary) -> (Result<u64, String>, Vec<usize>) {
        let mut nodes = match DocNodes::open(payload) {
            Ok(nodes) => nodes,
            Err((e, structure)) => return (Err(e), structure),
        };
        let count = nodes.left as u64;
        let mut seen = Vec::new();
        let mut verdict = Ok(count);
        for node in nodes.by_ref() {
            if let Err(e) = node.and_then(|n| admit(&mut seen, vocab, &n)) {
                verdict = Err(e);
                break;
            }
        }
        if verdict.is_ok() {
            verdict = nodes.r.finish().map(|()| count);
        }
        (verdict, nodes.r.structure)
    }
}

/// A small TPoX database: the three collections, with attributes, deep
/// paths and long text values.
fn tpox_db() -> Database {
    let mut db = Database::new();
    xia_workloads::tpox::generate(
        &mut db,
        &xia_workloads::tpox::TpoxConfig {
            securities: 40,
            orders: 60,
            customers: 20,
            seed: 11,
        },
    );
    db.runstats_all();
    db
}

#[test]
fn the_document_check_matches_the_reference_on_every_mutated_record() {
    let db = tpox_db();
    let clean = records(&dump(&db));
    let trailer = clean.last().unwrap().clone();
    let mut rng = Rng(0x5EA1ED);
    let (mut cases, mut refused) = (0, 0);
    // Records come collection by collection, in the database's order.
    let mut names = db.collection_names().into_iter();
    let (mut name, mut collection) = ("", None);
    for (tag, payload) in &clean {
        if *tag == b'C' {
            name = names.next().unwrap();
            collection = Some((*tag, payload.clone()));
        }
        if *tag != b'D' {
            continue;
        }
        let c = collection.clone().unwrap();
        let vocab = db.collection(name).unwrap().vocab();
        let (verdict, structure) = reference::check(payload, vocab);
        assert!(verdict.is_ok(), "{name}: the saved record verifies");
        // Half the mutations hit a structural byte, half any byte.
        for k in 0..8 {
            let pos = if k % 2 == 0 {
                structure[rng.next() as usize % structure.len()]
            } else {
                rng.next() as usize % payload.len()
            };
            let mut mutated = payload.clone();
            let byte = rng.next() as u8;
            mutated[pos] = if byte == mutated[pos] { !byte } else { byte };
            // Collection, document, trailer: the only statistics are the
            // ones recomputed over what loads.
            let image = seal(&[c.clone(), (b'D', mutated.clone()), trailer.clone()]);
            let at = MAGIC.len() + HEADER + c.1.len();
            let (expected, _) = reference::check(&mutated, vocab);
            let expected =
                expected.map_err(|why| format!("record 2 (byte {at}): bad document: {why}"));
            cases += 1;
            match (&expected, strict(&image)) {
                (Ok(_), Ok(loaded)) => assert_eq!(doc_count(&loaded), 1),
                (Err(want), Err(PersistError::Format(got))) => assert_eq!(&got, want),
                (want, got) => panic!(
                    "{name}, byte {pos}: reference {want:?}, loader {:?}",
                    got.map(|_| ())
                ),
            }
            let (loaded, report) = lenient(&image).unwrap();
            assert_report_is_final(&loaded, &report);
            match &expected {
                Ok(nodes) => {
                    assert!(report.is_clean(), "{report:?}");
                    assert_eq!(loaded.collection(name).unwrap().total_nodes(), *nodes);
                }
                Err(want) => {
                    refused += 1;
                    assert_eq!(report.diagnostics, vec![want.clone()]);
                    assert_eq!((report.docs_loaded, report.docs_skipped), (0, 1));
                }
            }
        }
    }
    assert!(cases >= 8 * 120, "{cases} mutations");
    assert!(
        refused * 4 > cases,
        "{refused} of {cases} mutations refused"
    );
}

/// A reader that hands out 1 to 17 bytes per call, in a seeded pattern.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: Rng,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.rng.next() as usize % 17)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Everything a database holds, as comparable text.
fn describe(db: &Database) -> String {
    let mut out = format!("image bytes {}\n", db.image_bytes());
    for name in db.collection_names() {
        let coll = db.collection(name).unwrap();
        let vocab = coll.vocab();
        out += &format!(
            "{name}: {:?} {:?}\n{:?}\n{:?}\n",
            vocab.names.iter().collect::<Vec<_>>(),
            vocab.paths.iter().collect::<Vec<_>>(),
            db.stats_cached(name),
            db.catalog(name)
                .unwrap()
                .iter()
                .map(|d| format!("{} {:?} {:?}", d.pattern, d.kind, d.physical))
                .collect::<Vec<_>>()
        );
        for (id, doc) in coll.iter_docs() {
            out += &format!("{id:?} {doc:?}\n");
        }
    }
    out
}

#[test]
fn short_reads_load_what_an_in_memory_load_does() {
    let mut db = tpox_db();
    let (coll, cat, _) = db.parts_mut("SDOC").unwrap();
    let pattern = xia_xpath::parse_linear_path("/Security/Symbol").unwrap();
    cat.create_physical(coll, &pattern, xia_xpath::ValueKind::Str);
    let bytes = dump(&db);
    assert!(
        bytes.len() > 256 * 1024,
        "the image spans more than one refill"
    );
    let mut rng = Rng(0x7121C1E);
    let mut images = vec![bytes.clone()];
    for _ in 0..4 {
        images.push(bytes[..rng.next() as usize % bytes.len()].to_vec());
        let mut flipped = bytes.clone();
        flipped[rng.next() as usize % bytes.len()] ^= 1 << (rng.next() % 8);
        images.push(flipped);
    }
    for (i, image) in images.iter().enumerate() {
        let trickle = |seed| Trickle {
            bytes: image,
            rng: Rng(seed),
        };
        let outcome = |loaded: Result<(Database, LoadReport), PersistError>| {
            loaded.map(|(db, report)| format!("{report:?}\n{}", describe(&db)))
        };
        let strict_outcome = |loaded: Result<Database, PersistError>| {
            loaded.map(|db| describe(&db)).map_err(|e| e.to_string())
        };
        assert_eq!(
            outcome(load_database_lenient_from(&mut trickle(i as u64))).map_err(|e| e.to_string()),
            outcome(lenient(image)).map_err(|e| e.to_string()),
            "image {i}"
        );
        assert_eq!(
            strict_outcome(load_database_from(&mut trickle(!(i as u64)))),
            strict_outcome(strict(image)),
            "image {i}"
        );
    }
}
