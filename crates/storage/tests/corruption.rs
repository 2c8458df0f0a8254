//! Property-style corruption tests: save → mutilate → load.
//!
//! For a sweep of truncation points and deterministic single-bit flips,
//! loading must never panic: the strict loader reports a typed error, the
//! lenient loader recovers whatever still verifies. A second family
//! damages a record *and re-seals it* (fresh checksums, fresh trailer),
//! so only the decoder's own checks stand between the bytes and a panic.
//! The last test pins `XIADB v2` readability on a checked-in fixture.

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

/// `fixtures/v2.xiadb` was written by the last commit whose
/// `save_database_to` wrote `XIADB v2`: 6 + 3 documents with an
/// attribute, escaped text and an empty element, and one physical index.
#[test]
fn a_v2_image_still_loads_and_resaves_as_v3() {
    let v2 = include_bytes!("fixtures/v2.xiadb");
    assert!(v2.starts_with(b"XIADB v2\n"));
    let from_v2 = strict(v2).unwrap();
    let (lenient_v2, report) = lenient(v2).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        (report.version, report.docs_loaded, report.indexes_loaded),
        (2, 9, 1)
    );
    assert_eq!(doc_count(&lenient_v2), 9);

    let v3 = dump(&from_v2);
    assert!(v3.starts_with(MAGIC));
    let (from_v3, report) = lenient(&v3).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        (report.version, report.docs_loaded, report.indexes_loaded),
        (3, 9, 1)
    );
    assert_eq!(from_v3.collection_names(), from_v2.collection_names());
    for name in from_v2.collection_names() {
        let (a, b) = (
            from_v2.collection(name).unwrap(),
            from_v3.collection(name).unwrap(),
        );
        assert_eq!(a.vocab(), b.vocab(), "{name}");
        assert!(a.iter_docs().eq(b.iter_docs()), "{name}");
        assert_eq!(from_v2.stats_cached(name), from_v3.stats_cached(name));
        let defs = |db: &Database| -> Vec<String> {
            db.catalog(name)
                .unwrap()
                .iter()
                .map(|d| format!("{} {:?} {:?}", d.pattern, d.kind, d.physical))
                .collect()
        };
        assert_eq!(defs(&from_v2), defs(&from_v3), "{name}");
    }
    let sector = from_v3
        .collection("SDOC")
        .unwrap()
        .iter_docs()
        .flat_map(|(_, d)| d.nodes().filter_map(|(_, n)| n.value.clone()))
        .any(|v| v.as_str() == "sector & 2");
    assert!(
        sector,
        "escaped text was unescaped by the v2 parse and kept by v3"
    );

    // A v2 image damaged the v2 way still degrades the v2 way.
    let mut flipped = v2.to_vec();
    let at = flipped.windows(4).position(|w| w == b"<Sec").unwrap();
    flipped[at + 1] ^= 0x20;
    assert!(matches!(
        strict(&flipped),
        Err(PersistError::Corrupt { .. })
    ));
    let (db, report) = lenient(&flipped).unwrap();
    assert_eq!((report.docs_loaded, report.docs_skipped), (8, 1));
    assert_eq!(doc_count(&db), 8);
}
