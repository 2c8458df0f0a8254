//! Database persistence: the `XIADB v3` image.
//!
//! The stored form is the form the system reads. An image holds, per
//! collection, the vocabulary with its ids exactly as they were, the
//! RUNSTATS output, the physical index definitions and one record per
//! live document in pre-resolved form — so opening it parses no XML,
//! interns nothing and runs no statistics pass, and the advisor (which
//! reads statistics and the dictionary, never documents; paper Section
//! III) can start from a saved database as fast as the file can be read
//! and checked.
//!
//! ## Layout
//!
//! ```text
//! "XIADB v3\n"
//! record*                       record := tag u8 | len u32 | sum u64 | payload[len]
//!   'C'  name, names[], paths[]            a collection and its vocabulary
//!   'S'  CollectionStats                   its statistics (f64 as bits)
//!   'I'  kind, pattern                     one physical index definition
//!   'D'  n, n × (path, parent+1, flags, value?)   one live document
//! 'E'  record count u64 | frame sum u64    the trailer
//! ```
//!
//! Fixed-width integers are little-endian; inside payloads integers are
//! LEB128 varints and strings are length-prefixed bytes, so names and
//! values may hold anything. `S`, `I` and `D` records belong to the `C`
//! record before them. A document record is its arena in node order:
//! per node the rooted-path id, the parent's index plus one (0 for the
//! root), a flags byte (bit 0 attribute, bit 1 has a value) and the raw
//! value bytes. Names and child lists are not stored — the path's last
//! label and the order of the nodes give them back — and documents are
//! renumbered densely, as every earlier version did. Virtual indexes are
//! per-session advisor state and are not persisted; physical indexes are
//! persisted as definitions and rebuilt on load.
//!
//! ## Integrity: what is verified before a load returns
//!
//! `sum` is a word-wise 64-bit checksum ([`sum64`]) of the record's
//! payload. The trailer's frame sum covers the magic line and every
//! record's 13-byte header, checksums included, so every byte of the
//! file is under a checksum without the payloads being summed twice.
//! [`load_database`] and its siblings share one reader, which streams the
//! image in: the buffer is sized from the file's length (when there is a
//! file), filled in 256 KiB refills, and each record is verified as soon
//! as its bytes have arrived, while they are still in cache — its
//! checksum, then, for the small records (vocabulary, statistics, index
//! definitions), their decode, and for a document record one loop that
//! reads every node and holds it to the rules of [`xia_xml::PreorderCheck`]
//! (ids in range, parents before children, paths consistent, values
//! UTF-8) without building it. The check is a table built once per
//! collection, and a failure is a small code whose text is rendered only
//! when it is reported. The trailer is verified last. The strict loaders
//! fail on the first problem; the lenient loaders skip what does not
//! verify and say so in a [`LoadReport`], which is final when they
//! return: a skipped document never turns up later, and a document that
//! was counted as loaded cannot fail to decode. When a collection loses a
//! document (or its statistics record), its saved statistics are dropped
//! and RUNSTATS runs over the survivors.
//!
//! ## What is decoded lazily
//!
//! The DOM arenas and the [`crate::ColumnStore`] are not built by the
//! load. Each [`crate::Collection`] keeps the buffer and the spans of its
//! verified document records, and decodes them the first time a document
//! or a column is asked for; the last collection to do so releases the
//! buffer. `recommend`, `whatif`, `explain` and a server's start-up never
//! ask. A collection with a physical index is decoded by the load itself,
//! because the index is rebuilt from its columns.
//!
//! Documents stay one self-contained record each, rather than one section
//! per path column, because that is the unit of the recovery contract:
//! one damaged byte costs one document, whichever path its value is on.
//!
//! ## Older versions
//!
//! Only `XIADB v3` is read. An image of an earlier version (`XIADB v2`
//! was length-prefixed XML text, `XIADB v1` before it) is refused with a
//! format error that names the version.

use crate::collection::{Collection, DocId};
use crate::columnar::ColumnStore;
use crate::database::Database;
use crate::stats::{runstats, CollectionStats, PathStat};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::str::Utf8Error;
use std::sync::Arc;
use xia_fault::{FaultInjector, FaultSite};
use xia_xml::{
    Document, NodeId, NodeKind, PathId, PreorderCheck, PreorderFault, PreorderNode, Symbol, Value,
    Vocabulary,
};
use xia_xpath::{parse_linear_path, LinearPath, ValueKind};

/// Persistence error.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid XIADB image.
    Format(String),
    /// The file is framed correctly but a checksum does not verify —
    /// on-disk corruption rather than a foreign format.
    Corrupt {
        /// Where: the record and its byte offset.
        at: String,
        /// What failed to verify.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
            PersistError::Corrupt { at, detail } => {
                write!(f, "corruption detected at {at}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<xia_fault::InjectedFault> for PersistError {
    fn from(e: xia_fault::InjectedFault) -> Self {
        PersistError::Io(e.into())
    }
}

fn format_err(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

/// The v3 checksum: four independent lanes, each folding one 64-bit word
/// of every 32-byte block with a multiply–rotate–multiply round (the
/// XXH64 round), then folded together with the length. Every step is a
/// bijection of the lane given the word and of the word given the lane,
/// so changing any single word — any one flipped bit in particular —
/// always changes the sum; and the four lanes have no dependency on each
/// other, which is what lets it run at memory speed where byte-wise
/// FNV-1a manages well under a gigabyte a second.
pub fn sum64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    fn round(lane: u64, word: u64) -> u64 {
        lane.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn block(lanes: &mut [u64; 4], block: &[u8; 32]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunks of 8"));
            *lane = round(*lane, word);
        }
    }
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        block(&mut lanes, b.try_into().expect("chunks of 32"));
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        // Zero padding is unambiguous because the length is folded in.
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        block(&mut lanes, &padded);
    }
    lanes.iter().fold(bytes.len() as u64, |h, &lane| {
        let h = round(h, lane);
        h ^ (h >> 29)
    })
}

/// What a load found: per-record outcomes plus the diagnostics for
/// everything that failed to verify. Final when the loader returns.
#[derive(Debug, Default, Clone)]
pub struct LoadReport {
    /// Format version of the file (3, the only one read).
    pub version: u32,
    /// Documents loaded and verified.
    pub docs_loaded: u64,
    /// Documents skipped (checksum mismatch, malformed record, injected
    /// I/O, or a collection record that did not verify).
    pub docs_skipped: u64,
    /// Physical index definitions rebuilt.
    pub indexes_loaded: u64,
    /// Index definitions skipped (unreadable or on no known collection).
    pub indexes_skipped: u64,
    /// Whether the trailer was present and verified.
    pub trailer_ok: bool,
    /// False when loading stopped early (truncation or mis-framing);
    /// records after the stop point were never examined.
    pub complete: bool,
    /// One human-readable line per problem, with its position.
    pub diagnostics: Vec<String>,
}

impl LoadReport {
    /// True when every record verified and the trailer matched.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.trailer_ok && self.complete
    }

    /// The one strict/lenient policy of the reader: a strict load ends at
    /// the first problem, a lenient load notes it and goes on.
    fn problem(&mut self, strict: bool, err: PersistError) -> Result<(), PersistError> {
        if strict {
            return Err(err);
        }
        self.diagnostics.push(match err {
            PersistError::Corrupt { at, detail } => format!("{at}: {detail}"),
            PersistError::Format(m) => m,
            PersistError::Io(e) => e.to_string(),
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------

const MAGIC: &[u8] = b"XIADB v3\n";
/// `tag u8 | len u32 | sum u64`.
const HEADER: usize = 13;
const TAG_COLLECTION: u8 = b'C';
const TAG_STATS: u8 = b'S';
const TAG_INDEX: u8 = b'I';
const TAG_DOC: u8 = b'D';
const TAG_END: u8 = b'E';
const FLAG_ATTRIBUTE: u8 = 1;
const FLAG_VALUE: u8 = 2;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Why a payload does not read: a small code, rendered to the diagnostic
/// text only when a load reports it.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// A field of `want` bytes with `left` bytes before the record's end.
    PastEnd { want: usize, left: usize },
    /// A varint longer than 64 bits.
    LongVarint,
    /// A varint too large for an id.
    NotAnId(u64),
    /// A count of more items than the `left` bytes could hold.
    Count { n: u64, left: usize },
    /// Text that is not UTF-8.
    NotUtf8(Utf8Error),
    /// Bytes after the last field.
    Trailing(usize),
    /// A document of more nodes than there are node ids.
    TooManyNodes(usize),
    /// A node flags byte with unknown bits set.
    Flags(u8),
    /// A node that breaks a rule of [`PreorderCheck`].
    Rule(PreorderFault),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::PastEnd { want, left } => write!(
                f,
                "a field of {want} bytes runs past the end of the record ({left} left)"
            ),
            Fault::LongVarint => write!(f, "a varint does not fit 64 bits"),
            Fault::NotAnId(v) => write!(f, "{v} does not fit an id"),
            Fault::Count { n, left } => write!(
                f,
                "a count of {n} items cannot fit the {left} bytes left in the record"
            ),
            Fault::NotUtf8(e) => write!(f, "text is not valid UTF-8: {e}"),
            Fault::Trailing(n) => write!(f, "{n} bytes after the record's end"),
            Fault::TooManyNodes(n) => write!(f, "{n} nodes do not fit node ids"),
            Fault::Flags(flags) => write!(f, "unknown node flags {flags:#04x}"),
            Fault::Rule(rule) => rule.fmt(f),
        }
    }
}

impl From<PreorderFault> for Fault {
    fn from(rule: PreorderFault) -> Self {
        Fault::Rule(rule)
    }
}

impl From<Fault> for String {
    fn from(fault: Fault) -> Self {
        fault.to_string()
    }
}

/// A bounds-checked cursor over one payload. Every count read from it is
/// held against the bytes that remain before anything is allocated.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], Fault> {
        if n > self.bytes.len() {
            return Err(Fault::PastEnd {
                want: n,
                left: self.bytes.len(),
            });
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, Fault> {
        Ok(self.take(1)?[0])
    }

    fn u64_le(&mut self) -> Result<u64, Fault> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, Fault> {
        match self.bytes.split_first() {
            Some((&b, rest)) if b < 0x80 => {
                self.bytes = rest;
                Ok(b as u64)
            }
            _ => self.long_varint(),
        }
    }

    /// A varint of more than one byte (or none at all).
    fn long_varint(&mut self) -> Result<u64, Fault> {
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
        Err(Fault::LongVarint)
    }

    #[inline]
    fn varint_u32(&mut self) -> Result<u32, Fault> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| Fault::NotAnId(v))
    }

    /// A count of items that each take at least `min_bytes` more bytes.
    #[inline]
    fn count(&mut self, min_bytes: usize) -> Result<usize, Fault> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.bytes.len() / min_bytes => Ok(n),
            _ => Err(Fault::Count {
                n,
                left: self.bytes.len(),
            }),
        }
    }

    fn str(&mut self) -> Result<&'a str, Fault> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(Fault::NotUtf8)
    }

    /// Length-prefixed text, checked to be UTF-8 and returned as bytes.
    /// ASCII — all of a typical value — is told apart without the full
    /// UTF-8 decoder.
    #[inline]
    fn text(&mut self) -> Result<&'a [u8], Fault> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        if !bytes.is_ascii() {
            std::str::from_utf8(bytes).map_err(Fault::NotUtf8)?;
        }
        Ok(bytes)
    }

    fn finish(self) -> Result<(), Fault> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(Fault::Trailing(self.bytes.len()))
        }
    }
}

// ---------------------------------------------------------------------
// Record payloads
// ---------------------------------------------------------------------

fn encode_collection(name: &str, vocab: &Vocabulary, out: &mut Vec<u8>) {
    put_bytes(out, name.as_bytes());
    put_varint(out, vocab.names.len() as u64);
    for (_, s) in vocab.names.iter() {
        put_bytes(out, s.as_bytes());
    }
    put_varint(out, vocab.paths.len() as u64);
    for (_, labels) in vocab.paths.iter() {
        put_varint(out, labels.len() as u64);
        for label in labels {
            put_varint(out, label.0 as u64);
        }
    }
}

/// Rebuilds the vocabulary by interning in id order, so every id comes
/// out as it was saved; a repeated entry would shift them and is refused.
fn decode_collection(payload: &[u8]) -> Result<(String, Vocabulary), String> {
    let mut r = Reader { bytes: payload };
    let name = r.str()?.to_string();
    let mut vocab = Vocabulary::new();
    for i in 0..r.count(1)? {
        if vocab.names.intern(r.str()?).index() != i {
            return Err(format!("name {i} repeats an earlier name"));
        }
    }
    let mut labels: Vec<Symbol> = Vec::new();
    for i in 0..r.count(1)? {
        labels.clear();
        for _ in 0..r.count(1)? {
            let label = r.varint_u32()?;
            if label as usize >= vocab.names.len() {
                return Err(format!("path {i} uses name {label}, which is not interned"));
            }
            labels.push(Symbol(label));
        }
        if vocab.paths.intern(&labels).index() != i {
            return Err(format!("path {i} repeats an earlier path"));
        }
    }
    r.finish()?;
    Ok((name, vocab))
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        None => out.push(0),
    }
}

fn opt_f64(r: &mut Reader) -> Result<Option<f64>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(f64::from_bits(r.u64_le()?))),
        other => Err(format!("bad option marker {other}")),
    }
}

fn encode_stats(stats: &CollectionStats, out: &mut Vec<u8>) {
    for v in [stats.doc_count, stats.node_count, stats.value_bytes] {
        put_varint(out, v);
    }
    put_varint(out, stats.per_path.len() as u64);
    for p in &stats.per_path {
        for v in [
            p.node_count,
            p.doc_count,
            p.value_count,
            p.numeric_count,
            p.distinct_values,
            p.value_bytes,
        ] {
            put_varint(out, v);
        }
        put_opt_f64(out, p.min_num);
        put_opt_f64(out, p.max_num);
        put_varint(out, p.histogram.len() as u64);
        for b in &p.histogram {
            out.extend_from_slice(&b.to_bits().to_le_bytes());
        }
    }
}

fn decode_stats(payload: &[u8]) -> Result<CollectionStats, String> {
    let mut r = Reader { bytes: payload };
    let mut stats = CollectionStats {
        doc_count: r.varint()?,
        node_count: r.varint()?,
        value_bytes: r.varint()?,
        per_path: Vec::new(),
    };
    // A path's statistics are six counts, two markers and a length.
    let paths = r.count(9)?;
    stats.per_path.reserve_exact(paths);
    for _ in 0..paths {
        let mut p = PathStat {
            node_count: r.varint()?,
            doc_count: r.varint()?,
            value_count: r.varint()?,
            numeric_count: r.varint()?,
            distinct_values: r.varint()?,
            value_bytes: r.varint()?,
            min_num: opt_f64(&mut r)?,
            max_num: opt_f64(&mut r)?,
            histogram: Vec::new(),
        };
        let buckets = r.count(8)?;
        p.histogram.reserve_exact(buckets);
        for _ in 0..buckets {
            p.histogram.push(f64::from_bits(r.u64_le()?));
        }
        stats.per_path.push(p);
    }
    r.finish()?;
    Ok(stats)
}

fn encode_index(kind: ValueKind, pattern: &LinearPath, out: &mut Vec<u8>) {
    out.push(match kind {
        ValueKind::Str => 0,
        ValueKind::Num => 1,
    });
    put_bytes(out, pattern.to_string().as_bytes());
}

fn decode_index(payload: &[u8]) -> Result<(ValueKind, LinearPath), String> {
    let mut r = Reader { bytes: payload };
    let kind = match r.u8()? {
        0 => ValueKind::Str,
        1 => ValueKind::Num,
        other => return Err(format!("bad index kind {other}")),
    };
    let pattern = parse_linear_path(r.str()?).map_err(|e| format!("bad index pattern: {e}"))?;
    r.finish()?;
    Ok((kind, pattern))
}

fn encode_document(doc: &Document, out: &mut Vec<u8>) {
    put_varint(out, doc.len() as u64);
    for (_, node) in doc.nodes() {
        put_varint(out, node.path.0 as u64);
        put_varint(out, node.parent.map_or(0, |p| p.0 as u64 + 1));
        let attribute = match node.kind {
            NodeKind::Element => 0,
            NodeKind::Attribute => FLAG_ATTRIBUTE,
        };
        match &node.value {
            Some(v) => {
                out.push(attribute | FLAG_VALUE);
                put_bytes(out, v.as_str().as_bytes());
            }
            None => out.push(attribute),
        }
    }
}

/// One node of a document record, its value (checked UTF-8) still
/// borrowed from the image.
struct NodeRecord<'a> {
    path: PathId,
    parent: Option<NodeId>,
    kind: NodeKind,
    value: Option<&'a [u8]>,
}

impl<'a> Reader<'a> {
    /// The node count that opens a document record.
    fn node_count(&mut self) -> Result<usize, Fault> {
        // A node is at least a path, a parent and a flags byte.
        let n = self.count(3)?;
        if n > u32::MAX as usize {
            return Err(Fault::TooManyNodes(n));
        }
        Ok(n)
    }

    /// The next node of a document record.
    #[inline]
    fn node(&mut self) -> Result<NodeRecord<'a>, Fault> {
        let path = PathId(self.varint_u32()?);
        let parent = self.varint_u32()?.checked_sub(1).map(NodeId);
        let flags = self.u8()?;
        if flags & !(FLAG_ATTRIBUTE | FLAG_VALUE) != 0 {
            return Err(Fault::Flags(flags));
        }
        Ok(NodeRecord {
            path,
            parent,
            kind: if flags & FLAG_ATTRIBUTE != 0 {
                NodeKind::Attribute
            } else {
                NodeKind::Element
            },
            value: if flags & FLAG_VALUE != 0 {
                Some(self.text()?)
            } else {
                None
            },
        })
    }
}

/// Holds a document record to everything [`decode_document`] and
/// [`Document::from_preorder`] rely on, building nothing: one loop reads
/// each node's path, parent, flags and value and applies the preorder
/// rules to it. `seen` is the rules' scratch list. Returns the node count.
fn check_document(
    payload: &[u8],
    check: &PreorderCheck,
    seen: &mut Vec<Option<PathId>>,
) -> Result<u64, Fault> {
    let mut r = Reader { bytes: payload };
    let count = r.node_count()?;
    seen.clear();
    for _ in 0..count {
        let n = r.node()?;
        check.admit(seen, n.path, n.parent, n.kind, n.value.is_some())?;
    }
    r.finish()?;
    Ok(count as u64)
}

/// Holds one document record's payload to the rules of `check` exactly
/// as a load does (after its checksum), and returns its node count or
/// the load's diagnostic text. `seen` is scratch space for the rules,
/// reused from record to record.
pub fn check_document_record(
    payload: &[u8],
    check: &PreorderCheck,
    seen: &mut Vec<Option<PathId>>,
) -> Result<u64, String> {
    check_document(payload, check, seen).map_err(String::from)
}

/// Decodes a record that [`check_document`] passed against this check.
fn decode_document(payload: &[u8], check: &PreorderCheck) -> Document {
    const CHECKED: &str = "the record was checked when the image was loaded";
    let mut r = Reader { bytes: payload };
    let count = r.node_count().expect(CHECKED);
    let nodes = (0..count).map(|_| {
        let n = r.node().expect(CHECKED);
        PreorderNode {
            path: n.path,
            parent: n.parent,
            kind: n.kind,
            value: n
                .value
                .map(|v| Value::new(std::str::from_utf8(v).expect(CHECKED))),
        }
    });
    Document::from_preorder(check, nodes).expect(CHECKED)
}

/// The verified document records of one collection, still undecoded: the
/// loaded image (shared with the other collections of the database), the
/// payload span of each record and the check they passed.
pub(crate) struct ImageDocs {
    image: Arc<Vec<u8>>,
    records: Vec<Range<usize>>,
    check: PreorderCheck,
}

impl fmt::Debug for ImageDocs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ImageDocs({} records of a {}-byte image)",
            self.records.len(),
            self.image.len()
        )
    }
}

impl ImageDocs {
    /// Number of documents.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Decodes every document, densely numbered in record order, and the
    /// columnar projection of them all; releases this collection's hold
    /// on the image.
    pub(crate) fn decode(self) -> (Vec<Option<Document>>, ColumnStore) {
        let mut columns = ColumnStore::new();
        let docs = self
            .records
            .iter()
            .enumerate()
            .map(|(i, span)| {
                let doc = decode_document(&self.image[span.clone()], &self.check);
                columns.append_doc(DocId(i as u32), &doc);
                Some(doc)
            })
            .collect();
        (docs, columns)
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Writes records and keeps what the trailer needs.
struct RecordWriter<'w, W: Write> {
    out: &'w mut W,
    /// The magic line and every header so far: what the frame sum covers.
    frame: Vec<u8>,
    records: u64,
}

impl<W: Write> RecordWriter<'_, W> {
    fn record(&mut self, tag: u8, payload: &[u8]) -> Result<(), PersistError> {
        let len = u32::try_from(payload.len())
            .map_err(|_| format_err("a record larger than 4 GiB cannot be saved"))?;
        let at = self.frame.len();
        self.frame.push(tag);
        self.frame.extend_from_slice(&len.to_le_bytes());
        self.frame.extend_from_slice(&sum64(payload).to_le_bytes());
        self.out.write_all(&self.frame[at..])?;
        self.out.write_all(payload)?;
        self.records += 1;
        Ok(())
    }
}

/// Serializes the database (vocabularies, statistics, physical index
/// definitions and live documents) to a writer as an `XIADB v3` image.
pub fn save_database_to(db: &Database, out: &mut impl Write) -> Result<(), PersistError> {
    save_database_to_faulted(db, out, &FaultInjector::off())
}

/// [`save_database_to`] with a fault injector rolled once per
/// collection, index and document record (`storage-io` site) — an
/// injected fault surfaces as an I/O error.
pub fn save_database_to_faulted(
    db: &Database,
    out: &mut impl Write,
    faults: &FaultInjector,
) -> Result<(), PersistError> {
    out.write_all(MAGIC)?;
    let mut w = RecordWriter {
        out,
        frame: MAGIC.to_vec(),
        records: 0,
    };
    let mut payload = Vec::new();
    for name in db.collection_names() {
        let coll = db.collection(name).expect("name from collection_names");
        faults.roll(FaultSite::StorageIo)?;
        payload.clear();
        encode_collection(name, coll.vocab(), &mut payload);
        w.record(TAG_COLLECTION, &payload)?;

        payload.clear();
        match db.stats_cached(name) {
            Some(stats) => encode_stats(stats, &mut payload),
            None => encode_stats(&runstats(coll), &mut payload),
        }
        w.record(TAG_STATS, &payload)?;

        let catalog = db.catalog(name).expect("every collection has a catalog");
        for def in catalog.iter().filter(|d| !d.is_virtual()) {
            faults.roll(FaultSite::StorageIo)?;
            payload.clear();
            encode_index(def.kind, &def.pattern, &mut payload);
            w.record(TAG_INDEX, &payload)?;
        }
        for (_, doc) in coll.iter_docs() {
            faults.roll(FaultSite::StorageIo)?;
            payload.clear();
            encode_document(doc, &mut payload);
            w.record(TAG_DOC, &payload)?;
        }
    }
    payload.clear();
    payload.extend_from_slice(&w.records.to_le_bytes());
    payload.extend_from_slice(&sum64(&w.frame).to_le_bytes());
    w.record(TAG_END, &payload)
}

/// Saves the database to a file.
pub fn save_database(db: &Database, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_database_faulted(db, path, &FaultInjector::off())
}

/// [`save_database`] with a fault injector (see
/// [`save_database_to_faulted`]).
///
/// The image is written to a sibling temporary file, synced, and renamed
/// over `path` only when it is complete, so a failure part-way — a full
/// disk, an injected fault — leaves whatever was at `path` untouched.
pub fn save_database_faulted(
    db: &Database,
    path: impl AsRef<Path>,
    faults: &FaultInjector,
) -> Result<(), PersistError> {
    let path = path.as_ref();
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the database path names no file",
            )
        })?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = (|| {
        let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
        save_database_to_faulted(db, &mut w, faults)?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Strictly deserializes a database from a reader: the first corrupt or
/// malformed record is an error.
pub fn load_database_from(input: &mut impl Read) -> Result<Database, PersistError> {
    load(input, 0, true, &FaultInjector::off()).map(|(db, _)| db)
}

/// Strictly loads a database from a file.
pub fn load_database(path: impl AsRef<Path>) -> Result<Database, PersistError> {
    load_file(path.as_ref(), true, &FaultInjector::off()).map(|(db, _)| db)
}

/// Leniently deserializes: loads every record that verifies, skips (and
/// reports) what doesn't, and stops with a partial database only on
/// unrecoverable mis-framing. Errors only when nothing is loadable
/// (missing or foreign header, unreadable input).
pub fn load_database_lenient_from(
    input: &mut impl Read,
) -> Result<(Database, LoadReport), PersistError> {
    load(input, 0, false, &FaultInjector::off())
}

/// Leniently loads a database from a file.
pub fn load_database_lenient(
    path: impl AsRef<Path>,
) -> Result<(Database, LoadReport), PersistError> {
    load_database_lenient_faulted(path, &FaultInjector::off())
}

/// [`load_database_lenient`] with a fault injector rolled once per
/// document record (`storage-io` site); an injected fault skips that
/// document and is reported in the diagnostics, modelling an unreadable
/// page.
pub fn load_database_lenient_faulted(
    path: impl AsRef<Path>,
    faults: &FaultInjector,
) -> Result<(Database, LoadReport), PersistError> {
    load_file(path.as_ref(), false, faults)
}

/// Loads from a file, sizing the image buffer by the file's length.
fn load_file(
    path: &Path,
    strict: bool,
    faults: &FaultInjector,
) -> Result<(Database, LoadReport), PersistError> {
    let mut file = File::open(path)?;
    let capacity = file.metadata().map_or(0, |m| m.len() as usize);
    load(&mut file, capacity, strict, faults)
}

/// Bytes asked of the input per refill: few enough that the records they
/// complete are still in cache when they are summed and checked.
const REFILL: u64 = 256 * 1024;

/// The image as it streams in. `bytes` only grows, and is kept whole: the
/// loaded collections decode their documents from it later.
struct Incoming<'r> {
    input: &'r mut dyn Read,
    bytes: Vec<u8>,
    eof: bool,
}

impl Incoming<'_> {
    /// Refills until the first `len` bytes are in (true) or the input
    /// ends short of them (false).
    fn fill(&mut self, len: usize) -> std::io::Result<bool> {
        while self.bytes.len() < len && !self.eof {
            // `read_to_end` reads into the spare capacity without zeroing
            // it first, and stops short of the limit only at the end.
            let n = (&mut *self.input)
                .take(REFILL)
                .read_to_end(&mut self.bytes)?;
            self.eof = (n as u64) < REFILL;
        }
        Ok(self.bytes.len() >= len)
    }
}

/// The error for an input that does not open with the v3 magic line; it
/// names the version of an image of another version.
fn foreign_header(head: &[u8]) -> PersistError {
    let version = head
        .iter()
        .position(|&b| b == b'\n')
        .and_then(|eol| head[..eol].strip_prefix(b"XIADB v"))
        .filter(|v| !v.is_empty() && v.iter().all(u8::is_ascii_digit));
    match version {
        Some(v) => format_err(format!(
            "XIADB v{} images are no longer read; this build reads XIADB v3",
            String::from_utf8_lossy(v)
        )),
        None => format_err("missing XIADB v3 header"),
    }
}

/// A collection as the record pass gathers it.
struct Gathered {
    name: String,
    vocab: Vocabulary,
    /// The document rules over `vocab`.
    check: PreorderCheck,
    stats: Option<CollectionStats>,
    indexes: Vec<(ValueKind, LinearPath)>,
    /// Payload spans of the verified document records.
    docs: Vec<Range<usize>>,
    nodes: u64,
    /// A document record of this collection was skipped.
    lost_docs: bool,
}

/// The one reader: streams the image in from `input`, summing and
/// checking each record as soon as its bytes have arrived, and assembles
/// the database from what verified. `capacity` is the expected length.
fn load(
    input: &mut dyn Read,
    capacity: usize,
    strict: bool,
    faults: &FaultInjector,
) -> Result<(Database, LoadReport), PersistError> {
    let mut image = Incoming {
        input,
        bytes: Vec::new(),
        eof: false,
    };
    image
        .bytes
        .try_reserve_exact(capacity)
        .map_err(|_| std::io::Error::from(std::io::ErrorKind::OutOfMemory))?;
    if !image.fill(MAGIC.len())? || !image.bytes.starts_with(MAGIC) {
        return Err(foreign_header(&image.bytes));
    }
    let mut report = LoadReport {
        version: 3,
        complete: true,
        ..LoadReport::default()
    };
    let mut gathered: Vec<Gathered> = Vec::new();
    // The collection the next records belong to; `None` before the first
    // collection record and after one that did not verify, whose records
    // have no vocabulary to be read against.
    let mut current: Option<usize> = None;
    let mut seen = Vec::new();
    let mut frame = MAGIC.to_vec();
    let mut records = 0u64;
    let mut pos = MAGIC.len();
    loop {
        let at = move || format!("record {} (byte {pos})", records + 1);
        let truncated =
            |what: &str| format_err(format!("{}: unexpected end of file ({what})", at()));
        if !image.fill(pos + HEADER)? {
            report.complete = false;
            report.problem(strict, truncated("no trailer"))?;
            break;
        }
        let header = &image.bytes[pos..pos + HEADER];
        let tag = header[0];
        let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
        if !matches!(
            tag,
            TAG_COLLECTION | TAG_STATS | TAG_INDEX | TAG_DOC | TAG_END
        ) {
            // Mis-framing: going on would read payload bytes as headers.
            report.complete = false;
            report.problem(
                strict,
                format_err(format!("{}: unknown record tag {tag:#04x}", at())),
            )?;
            break;
        }
        let start = pos + HEADER;
        let end = start + len;
        if !image.fill(end)? {
            report.complete = false;
            report.docs_skipped += (tag == TAG_DOC) as u64;
            report.problem(strict, truncated("record cut short"))?;
            break;
        }
        let header = &image.bytes[pos..start];
        let payload = &image.bytes[start..end];
        let corrupt = |what: &str| PersistError::Corrupt {
            at: at(),
            detail: format!("{what} checksum mismatch"),
        };
        let malformed =
            |what: &str, why: String| format_err(format!("{}: bad {what}: {why}", at()));
        let sum_ok = sum64(payload) == sum;

        if tag == TAG_END {
            let expected = [records.to_le_bytes(), sum64(&frame).to_le_bytes()].concat();
            if sum_ok && payload == expected {
                report.trailer_ok = true;
            } else {
                report.problem(strict, corrupt("trailer record count or frame"))?;
            }
            image.fill(usize::MAX)?;
            if end != image.bytes.len() {
                report.problem(
                    strict,
                    format_err(format!(
                        "{} bytes after the trailer",
                        image.bytes.len() - end
                    )),
                )?;
            }
            break;
        }
        frame.extend_from_slice(header);
        records += 1;
        pos = end;

        match tag {
            TAG_COLLECTION => {
                current = None;
                let decoded = if sum_ok {
                    decode_collection(payload)
                        .and_then(|(name, vocab)| {
                            if gathered.iter().any(|g| g.name == name) {
                                Err(format!("a second collection named {name:?}"))
                            } else {
                                Ok((name, vocab))
                            }
                        })
                        .map_err(|why| malformed("collection", why))
                } else {
                    Err(corrupt("collection"))
                };
                match decoded {
                    Ok((name, vocab)) => {
                        current = Some(gathered.len());
                        gathered.push(Gathered {
                            name,
                            check: PreorderCheck::new(&vocab),
                            vocab,
                            stats: None,
                            indexes: Vec::new(),
                            docs: Vec::new(),
                            nodes: 0,
                            lost_docs: false,
                        });
                    }
                    Err(e) => report.problem(strict, e)?,
                }
            }
            TAG_STATS | TAG_INDEX => {
                let what = if tag == TAG_STATS {
                    "statistics"
                } else {
                    "index"
                };
                let decoded = match current {
                    None => Err(malformed(what, "no collection to belong to".into())),
                    Some(_) if !sum_ok => Err(corrupt(what)),
                    Some(i) if tag == TAG_STATS => decode_stats(payload)
                        .map(|stats| gathered[i].stats = Some(stats))
                        .map_err(|why| malformed(what, why)),
                    Some(i) => decode_index(payload)
                        .map(|index| gathered[i].indexes.push(index))
                        .map_err(|why| malformed(what, why)),
                };
                if let Err(e) = decoded {
                    report.indexes_skipped += (tag == TAG_INDEX) as u64;
                    report.problem(strict, e)?;
                }
            }
            TAG_DOC => {
                let checked = if let Err(e) = faults.roll(FaultSite::StorageIo) {
                    if strict {
                        return Err(e.into());
                    }
                    Err(format_err(format!("{}: document unreadable ({e})", at())))
                } else if !sum_ok {
                    Err(corrupt("document"))
                } else {
                    current
                        .ok_or_else(|| "no collection to hold it".to_string())
                        .and_then(|i| {
                            let nodes = check_document(payload, &gathered[i].check, &mut seen)?;
                            Ok((i, nodes))
                        })
                        .map_err(|why| malformed("document", why))
                };
                match checked {
                    Ok((i, nodes)) => {
                        gathered[i].docs.push(start..end);
                        gathered[i].nodes += nodes;
                        report.docs_loaded += 1;
                    }
                    Err(e) => {
                        if let Some(i) = current {
                            gathered[i].lost_docs = true;
                        }
                        report.docs_skipped += 1;
                        report.problem(strict, e)?;
                    }
                }
            }
            _ => unreachable!("tag checked above"),
        }
    }

    let bytes_read = image.bytes.len() as u64;
    let image = Arc::new(image.bytes);
    let mut db = Database::new();
    for g in gathered {
        let stats = match g.stats {
            // Saved statistics describe the saved documents, not a subset.
            Some(_) if g.lost_docs => None,
            Some(s) if s.doc_count == g.docs.len() as u64 && s.node_count == g.nodes => Some(s),
            Some(_) => {
                report.problem(
                    strict,
                    format_err(format!(
                        "collection {:?}: the statistics do not describe its documents",
                        g.name
                    )),
                )?;
                None
            }
            None => None,
        };
        let docs = ImageDocs {
            image: Arc::clone(&image),
            records: g.docs,
            check: g.check,
        };
        db.insert_loaded(
            Collection::from_image(g.name.clone(), g.vocab, docs, g.nodes),
            stats,
        );
        for (kind, pattern) in g.indexes {
            let (collection, catalog, _) = db.parts_mut(&g.name).expect("just inserted");
            catalog.create_physical(collection, &pattern, kind);
            report.indexes_loaded += 1;
        }
    }
    db.runstats_all();
    db.set_image_bytes(bytes_read);
    Ok((db, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let c = db.create_collection("SDOC");
        for i in 0..20 {
            c.build_doc("Security", |b| {
                b.leaf("Symbol", format!("S{i}").as_str());
                b.leaf("Yield", i as f64 / 2.0);
                b.attr("id", i as f64);
            });
        }
        let o = db.create_collection("ODOC");
        o.insert_xml("<Order><Total>10 &amp; 20</Total></Order>")
            .unwrap();
        let (coll, cat, _) = db.parts_mut("SDOC").unwrap();
        cat.create_physical(
            coll,
            &parse_linear_path("/Security/Symbol").unwrap(),
            ValueKind::Str,
        );
        db
    }

    fn dump(db: &Database) -> Vec<u8> {
        let mut buf = Vec::new();
        save_database_to(db, &mut buf).unwrap();
        buf
    }

    fn round_trip(db: &Database) -> Database {
        load_database_from(&mut dump(db).as_slice()).unwrap()
    }

    /// Byte offset of the first document record's payload.
    fn first_doc_payload(image: &[u8]) -> Range<usize> {
        let mut pos = MAGIC.len();
        loop {
            let len = u32::from_le_bytes(image[pos + 1..pos + 5].try_into().unwrap()) as usize;
            let start = pos + HEADER;
            if image[pos] == TAG_DOC {
                return start..start + len;
            }
            pos = start + len;
        }
    }

    #[test]
    fn sum64_sees_every_bit_and_the_length() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37) as u8).collect();
        let base = sum64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(sum64(&flipped), base, "byte {byte} bit {bit}");
            }
        }
        // Zero padding of the last block does not hide a length change.
        assert_ne!(sum64(&[1, 2, 3]), sum64(&[1, 2, 3, 0]));
        assert_ne!(sum64(&[]), sum64(&[0]));
        assert_ne!(sum64(&[0; 32]), sum64(&[0; 64]));
    }

    #[test]
    fn varints_round_trip_and_reject_overflow() {
        for v in [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader { bytes: &buf };
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
        assert!(Reader { bytes: &[0xff; 11] }.varint().is_err());
        assert!(Reader { bytes: &[0x80] }.varint().is_err());
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert!(Reader { bytes: &over }.varint().is_err());
    }

    #[test]
    fn round_trips_documents_and_collections() {
        let db = sample_db();
        let loaded = round_trip(&db);
        assert_eq!(loaded.collection_names(), vec!["SDOC", "ODOC"]);
        for name in ["SDOC", "ODOC"] {
            let (a, b) = (
                db.collection(name).unwrap(),
                loaded.collection(name).unwrap(),
            );
            assert_eq!(a.vocab(), b.vocab());
            assert_eq!(a.len(), b.len());
            assert_eq!(a.total_nodes(), b.total_nodes());
            // Arenas come back node for node: no attribute reordering, no
            // re-escaping, no re-trimming.
            assert!(a.iter_docs().eq(b.iter_docs()), "{name}");
            assert_eq!(a.columns(), b.columns());
        }
    }

    #[test]
    fn round_trips_physical_indexes() {
        let db = sample_db();
        let loaded = round_trip(&db);
        let cat = loaded.catalog("SDOC").unwrap();
        assert_eq!(cat.len(), 1);
        let def = cat.iter().next().unwrap();
        assert_eq!(def.pattern.to_string(), "/Security/Symbol");
        assert!(!def.is_virtual());
        let phys = def.physical.as_ref().unwrap();
        assert_eq!(phys.entries(), 20);
    }

    #[test]
    fn virtual_indexes_are_not_persisted() {
        let mut db = sample_db();
        {
            let (coll, cat, stats) = db.parts_mut("SDOC").unwrap();
            cat.create_virtual(
                coll,
                stats,
                &parse_linear_path("/Security/Yield").unwrap(),
                ValueKind::Num,
            );
        }
        let loaded = round_trip(&db);
        assert_eq!(loaded.catalog("SDOC").unwrap().len(), 1);
    }

    #[test]
    fn statistics_come_back_bit_for_bit_without_touching_documents() {
        let mut db = sample_db();
        db.runstats_all();
        let loaded = round_trip(&db);
        // ODOC has no index: nothing has decoded it.
        assert_eq!(loaded.dom_materializations(), 1);
        assert!(!loaded.collection("ODOC").unwrap().decoded_from_image());
        for name in ["SDOC", "ODOC"] {
            assert_eq!(
                format!("{:?}", loaded.stats_cached(name).unwrap()),
                format!("{:?}", db.stats_cached(name).unwrap())
            );
        }
        // Saving a database whose statistics are stale saves fresh ones.
        let stale = sample_db();
        assert!(stale.stats_cached("ODOC").is_none());
        let loaded = round_trip(&stale);
        assert_eq!(loaded.stats_cached("ODOC"), db.stats_cached("ODOC"));
    }

    #[test]
    fn names_with_spaces_newlines_and_non_ascii_round_trip() {
        let mut db = Database::new();
        let name = "my coll\nß 集";
        db.create_collection(name)
            .insert_xml("<a><b>1</b></a>")
            .unwrap();
        let (coll, cat, _) = db.parts_mut(name).unwrap();
        cat.create_physical(coll, &parse_linear_path("/a/b").unwrap(), ValueKind::Num);
        let loaded = round_trip(&db);
        assert_eq!(loaded.collection_names(), vec![name]);
        assert_eq!(loaded.collection(name).unwrap().len(), 1);
        let def = loaded.catalog(name).unwrap().iter().next().unwrap();
        assert_eq!(def.physical.as_ref().unwrap().entries(), 1);
    }

    #[test]
    fn rejects_foreign_headers_truncation_and_v1() {
        for bad in [&b"NOT A DB\n"[..], b"", b"XIADB v1\nCOLLECTION X\nEND\n"] {
            assert!(
                matches!(
                    load_database_from(&mut &bad[..]),
                    Err(PersistError::Format(_))
                ),
                "{bad:?}"
            );
            assert!(load_database_lenient_from(&mut &bad[..]).is_err());
        }
        assert!(load_database_from(&mut &MAGIC[..]).is_err());
        // An empty database is the magic line and a trailer.
        let empty = dump(&Database::new());
        assert_eq!(empty.len(), MAGIC.len() + HEADER + 16);
        assert!(round_trip(&Database::new()).collection_names().is_empty());
        // Nothing may follow the trailer.
        let mut trailing = empty.clone();
        trailing.push(b'\n');
        assert!(load_database_from(&mut trailing.as_slice()).is_err());
        let (_, report) = load_database_lenient_from(&mut trailing.as_slice()).unwrap();
        assert!(report.trailer_ok && !report.is_clean());
    }

    #[test]
    fn strict_load_detects_flipped_payload_byte() {
        let mut buf = dump(&sample_db());
        let payload = first_doc_payload(&buf);
        buf[payload.start + 5] ^= 0x20;
        match load_database_from(&mut buf.as_slice()) {
            Err(PersistError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}")
            }
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got Ok"),
        }
    }

    #[test]
    fn lenient_load_skips_corrupt_doc_and_reports() {
        let mut db = sample_db();
        db.runstats_all();
        let mut buf = dump(&db);
        let payload = first_doc_payload(&buf);
        buf[payload.start + 5] ^= 0x20;
        let (loaded, report) = load_database_lenient_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.collection("SDOC").unwrap().len(), 19);
        assert_eq!(report.docs_skipped, 1);
        assert_eq!(report.docs_loaded, 20); // 19 SDOC + 1 ODOC
        assert!(!report.is_clean());
        assert!(report.diagnostics[0].contains("checksum"));
        // The index is rebuilt, and the statistics recomputed, over the
        // surviving documents.
        assert_eq!(report.indexes_loaded, 1);
        let stats = loaded.stats_cached("SDOC").unwrap();
        assert_eq!(stats.doc_count, 19);
        assert_eq!(stats, &runstats(loaded.collection("SDOC").unwrap()));
    }

    #[test]
    fn lenient_load_survives_truncation_with_partial_db() {
        let mut buf = dump(&sample_db());
        buf.truncate(buf.len() * 2 / 3);
        let (loaded, report) = load_database_lenient_from(&mut buf.as_slice()).unwrap();
        assert!(!loaded.collection("SDOC").unwrap().is_empty());
        assert!(!report.complete);
        assert!(!report.is_clean());
    }

    #[test]
    fn a_lost_collection_record_loses_that_collection_only() {
        let mut buf = dump(&sample_db());
        // The first record is SDOC's collection record.
        buf[MAGIC.len() + HEADER] ^= 1;
        assert!(matches!(
            load_database_from(&mut buf.as_slice()),
            Err(PersistError::Corrupt { .. })
        ));
        let (loaded, report) = load_database_lenient_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.collection_names(), vec!["ODOC"]);
        assert_eq!(loaded.collection("ODOC").unwrap().len(), 1);
        assert_eq!((report.docs_loaded, report.docs_skipped), (1, 20));
        assert_eq!(report.indexes_skipped, 1);
        assert!(report.complete && report.trailer_ok && !report.is_clean());
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xia_persist_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn injected_io_fault_skips_docs_leniently_and_fails_strictly() {
        let db = sample_db();
        let dir = scratch_dir("fault");
        let path = dir.join("f.xiadb");
        save_database(&db, &path).unwrap();
        let faults = FaultInjector::seeded(5).with_rate(FaultSite::StorageIo, 0.3);
        let (loaded, report) = load_database_lenient_faulted(&path, &faults).unwrap();
        assert!(report.docs_skipped > 0);
        assert_eq!(report.docs_loaded + report.docs_skipped, 21);
        assert_eq!(
            faults.calls(FaultSite::StorageIo),
            21,
            "one roll per document"
        );
        assert_eq!(
            loaded.collection("SDOC").unwrap().len() + loaded.collection("ODOC").unwrap().len(),
            report.docs_loaded as usize
        );
        let faults = FaultInjector::seeded(5).with_rate(FaultSite::StorageIo, 0.3);
        assert!(matches!(
            load(
                &mut std::fs::read(&path).unwrap().as_slice(),
                0,
                true,
                &faults
            ),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_round_trip_reports_the_image_size() {
        let db = sample_db();
        let dir = scratch_dir("file");
        let path = dir.join("test.xiadb");
        save_database(&db, &path).unwrap();
        let loaded = load_database(&path).unwrap();
        assert_eq!(loaded.collection("SDOC").unwrap().len(), 20);
        assert_eq!(
            loaded.image_bytes(),
            std::fs::metadata(&path).unwrap().len()
        );
        assert_eq!(db.image_bytes(), 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no temp file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_leaves_the_existing_image_alone() {
        let db = sample_db();
        let dir = scratch_dir("inplace");
        let path = dir.join("live.xiadb");
        save_database(&db, &path).unwrap();
        let before = std::fs::read(&path).unwrap();

        let faults = FaultInjector::seeded(11).with_rate(FaultSite::StorageIo, 0.3);
        let err = save_database_faulted(&db, &path, &faults).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
        assert!(faults.calls(FaultSite::StorageIo) > 1, "failed part-way");

        assert_eq!(std::fs::read(&path).unwrap(), before);
        let (loaded, report) = load_database_lenient(&path).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(loaded.collection("SDOC").unwrap().len(), 20);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no temp file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_db_supports_advising_queries() {
        // Statistics come with the image, so the optimizer works at once.
        let loaded = round_trip(&sample_db());
        for name in ["SDOC", "ODOC"] {
            let (coll, _, stats) = loaded.parts(name).unwrap();
            assert_eq!(stats.doc_count, coll.len() as u64);
            assert!(coll
                .vocab()
                .paths
                .iter()
                .all(|(id, _)| stats.path_ref(id).is_some()));
        }
    }
}
