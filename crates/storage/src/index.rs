//! Physical partial XML value indexes.
//!
//! A physical index is a B-tree over the values of all nodes reachable by a
//! linear XPath *index pattern* (the paper's partial indexing: only the
//! matching paths are indexed). Keys are typed — string or double — matching
//! DB2 pureXML's `CREATE INDEX ... GENERATE KEY USING XMLPATTERN ... AS
//! SQL VARCHAR / DOUBLE`.

use crate::collection::{Collection, DocId};
use crate::columnar::{ColumnStore, PathColumn};
use std::collections::{BTreeMap, HashSet};
use xia_obs::Counter;
use xia_xml::{Document, NodeId, PathId, Vocabulary};
use xia_xpath::{CmpOp, LinearPath, Literal, PathMatcher, ValueKind};

/// Total-ordered f64 wrapper for B-tree keys. Only finite values are ever
/// inserted (non-finite text never parses into [`xia_xml::Value`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite index keys")
    }
}

/// One index entry: the indexed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    /// Document containing the node.
    pub doc: DocId,
    /// The node within the document.
    pub node: NodeId,
}

/// A physical partial value index. `PartialEq` compares the full
/// physical state (key maps, posting order, byte accounting) — the
/// datapath gate uses it to assert parallel and serial builds are
/// byte-identical.
#[derive(Debug, PartialEq)]
pub struct PhysicalIndex {
    pattern: LinearPath,
    kind: ValueKind,
    /// Path ids the pattern matched at build time; maintained incrementally
    /// as the vocabulary grows.
    matched_paths: HashSet<PathId>,
    known_paths: usize,
    str_map: BTreeMap<Box<str>, Vec<Posting>>,
    num_map: BTreeMap<OrdF64, Vec<Posting>>,
    /// Structural postings: for every matched path, the documents that
    /// contain at least one node at it (valued or not). DB2-style XML
    /// indexes can answer *existence* tests from the index alone; this is
    /// the equivalent access path.
    struct_map: BTreeMap<PathId, Vec<DocId>>,
    entries: u64,
    key_bytes: u64,
}

impl PhysicalIndex {
    /// Builds an index over all live documents of a collection. Worker
    /// count for the columnar path comes from `XIA_JOBS` (serial when
    /// unset); see [`PhysicalIndex::build_with_jobs`].
    pub fn build(collection: &Collection, pattern: &LinearPath, kind: ValueKind) -> Self {
        Self::build_with_jobs(collection, pattern, kind, build_jobs())
    }

    /// [`PhysicalIndex::build`] with an explicit worker count for the
    /// columnar row-collection phase. `jobs == 0` resolves to the
    /// machine's available parallelism; any value yields a byte-identical
    /// index (sharding is by document range with a deterministic
    /// concatenation — see [`PhysicalIndex::build_from_columns`]).
    pub fn build_with_jobs(
        collection: &Collection,
        pattern: &LinearPath,
        kind: ValueKind,
        jobs: usize,
    ) -> Self {
        let vocab = collection.vocab();
        let matcher = PathMatcher::new(pattern, vocab);
        let matched: HashSet<PathId> = matcher.matching_path_ids(vocab).into_iter().collect();
        let mut idx = Self {
            pattern: pattern.clone(),
            kind,
            matched_paths: matched,
            known_paths: vocab.paths.len(),
            str_map: BTreeMap::new(),
            num_map: BTreeMap::new(),
            struct_map: BTreeMap::new(),
            entries: 0,
            key_bytes: 0,
        };
        match collection.columns() {
            // Columnar build: iterate the contiguous per-path value
            // arrays instead of walking every node of every document.
            Some(cols) => idx.build_from_columns(collection, cols, jobs),
            None => {
                for (doc_id, doc) in collection.iter_docs() {
                    idx.insert_doc_inner(doc_id, doc);
                }
            }
        }
        idx
    }

    /// Builds the key maps from the columnar projection. Value rows of
    /// all matched paths are merged in `(doc, node)` order — the exact
    /// order the document scan inserts them — so the resulting maps and
    /// posting vectors are identical to [`PhysicalIndex::insert_doc_inner`]
    /// output.
    ///
    /// Row collection is sharded by *document range* across scoped worker
    /// threads when the index is large enough (`jobs` workers, serial by
    /// default): each worker slices every matched column to its doc range
    /// with binary searches, sorts its shard by `(doc, node)`, and the
    /// coordinator concatenates shards in range order. Ranges are
    /// contiguous and disjoint, so the concatenation *is* the globally
    /// sorted row stream — the merge is deterministic and the B-tree
    /// insertion (serial, on the coordinator) byte-identical for every
    /// worker count.
    fn build_from_columns(&mut self, collection: &Collection, cols: &ColumnStore, jobs: usize) {
        let mut rows_scanned = 0u64;
        let mut matched: Vec<&PathColumn> = Vec::new();
        for &path in &self.matched_paths {
            let Some(col) = cols.col(path) else { continue };
            if col.node_count() > 0 {
                self.struct_map.insert(path, col.struct_docs().to_vec());
            }
            rows_scanned += match self.kind {
                ValueKind::Str => col.rows(),
                ValueKind::Num => col.nums().len() as u64,
            };
            matched.push(col);
        }
        let ranges = doc_ranges(&matched, rows_scanned, jobs);
        match self.kind {
            ValueKind::Str => {
                let shards: Vec<Vec<(DocId, NodeId, &str)>> = if ranges.len() > 1 {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = ranges
                            .iter()
                            .map(|&(lo, hi)| {
                                let matched = &matched;
                                scope.spawn(move || collect_str_rows(matched, lo, hi))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("index-build worker panicked"))
                            .collect()
                    })
                } else {
                    vec![collect_str_rows(&matched, 0, u32::MAX)]
                };
                for (doc, node, v) in shards.into_iter().flatten() {
                    self.key_bytes += v.len() as u64;
                    self.str_map
                        .entry(v.into())
                        .or_default()
                        .push(Posting { doc, node });
                    self.entries += 1;
                }
            }
            ValueKind::Num => {
                let shards: Vec<Vec<(DocId, NodeId, f64)>> = if ranges.len() > 1 {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = ranges
                            .iter()
                            .map(|&(lo, hi)| {
                                let matched = &matched;
                                scope.spawn(move || collect_num_rows(matched, lo, hi))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("index-build worker panicked"))
                            .collect()
                    })
                } else {
                    vec![collect_num_rows(&matched, 0, u32::MAX)]
                };
                for (doc, node, n) in shards.into_iter().flatten() {
                    self.key_bytes += 8;
                    self.num_map
                        .entry(OrdF64(n))
                        .or_default()
                        .push(Posting { doc, node });
                    self.entries += 1;
                }
            }
        }
        collection
            .telemetry()
            .add(Counter::ColumnarScanRows, rows_scanned);
    }

    /// The index pattern.
    pub fn pattern(&self) -> &LinearPath {
        &self.pattern
    }

    /// The key type.
    pub fn kind(&self) -> ValueKind {
        self.kind
    }

    /// Number of entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> u64 {
        match self.kind {
            ValueKind::Str => self.str_map.len() as u64,
            ValueKind::Num => self.num_map.len() as u64,
        }
    }

    /// Average key width in bytes.
    pub fn avg_key_width(&self) -> f64 {
        if self.entries == 0 {
            match self.kind {
                ValueKind::Str => 16.0,
                ValueKind::Num => 8.0,
            }
        } else {
            self.key_bytes as f64 / self.entries as f64
        }
    }

    /// Refreshes the matched-path set if the vocabulary has grown since the
    /// index was built (new document shapes may introduce new paths that
    /// the pattern matches).
    fn refresh_paths(&mut self, vocab: &Vocabulary) {
        if vocab.paths.len() == self.known_paths {
            return;
        }
        let matcher = PathMatcher::new(&self.pattern, vocab);
        self.matched_paths = matcher.matching_path_ids(vocab).into_iter().collect();
        self.known_paths = vocab.paths.len();
    }

    fn insert_doc_inner(&mut self, doc_id: DocId, doc: &Document) {
        for (node_id, node) in doc.nodes() {
            if !self.matched_paths.contains(&node.path) {
                continue;
            }
            // Structural posting regardless of value presence.
            let postings = self.struct_map.entry(node.path).or_default();
            if postings.last() != Some(&doc_id) {
                postings.push(doc_id);
            }
            let Some(value) = &node.value else { continue };
            let posting = Posting {
                doc: doc_id,
                node: node_id,
            };
            match self.kind {
                ValueKind::Str => {
                    self.key_bytes += value.as_str().len() as u64;
                    self.str_map
                        .entry(value.as_str().into())
                        .or_default()
                        .push(posting);
                    self.entries += 1;
                }
                ValueKind::Num => {
                    if let Some(n) = value.as_num() {
                        self.key_bytes += 8;
                        self.num_map.entry(OrdF64(n)).or_default().push(posting);
                        self.entries += 1;
                    }
                }
            }
        }
    }

    /// Maintains the index for a newly inserted document.
    pub fn insert_doc(&mut self, doc_id: DocId, doc: &Document, vocab: &Vocabulary) {
        self.refresh_paths(vocab);
        self.insert_doc_inner(doc_id, doc);
    }

    /// Maintains the index for a deleted document. Returns the number of
    /// entries removed.
    pub fn remove_doc(&mut self, doc_id: DocId) -> u64 {
        let mut removed = 0;
        let len_of = |s: &str| s.len() as u64;
        self.str_map.retain(|key, postings| {
            let before = postings.len();
            postings.retain(|p| p.doc != doc_id);
            let gone = (before - postings.len()) as u64;
            if gone > 0 {
                removed += gone;
                self.key_bytes = self.key_bytes.saturating_sub(gone * len_of(key));
            }
            !postings.is_empty()
        });
        self.num_map.retain(|_, postings| {
            let before = postings.len();
            postings.retain(|p| p.doc != doc_id);
            let gone = (before - postings.len()) as u64;
            if gone > 0 {
                removed += gone;
                self.key_bytes = self.key_bytes.saturating_sub(gone * 8);
            }
            !postings.is_empty()
        });
        self.struct_map.retain(|_, docs| {
            docs.retain(|&d| d != doc_id);
            !docs.is_empty()
        });
        self.entries -= removed.min(self.entries);
        removed
    }

    /// Existence lookup: documents containing at least one node at any of
    /// the given paths (which must be a subset of the index's matched
    /// paths for the result to be complete). Deduplicated, sorted.
    pub fn lookup_exists(&self, paths: &[PathId]) -> Vec<DocId> {
        let mut out: Vec<DocId> = paths
            .iter()
            .filter_map(|p| self.struct_map.get(p))
            .flat_map(|docs| docs.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Equality lookup.
    pub fn lookup_eq(&self, lit: &Literal) -> Vec<Posting> {
        match (self.kind, lit) {
            (ValueKind::Str, Literal::Str(s)) => {
                self.str_map.get(&**s).cloned().unwrap_or_default()
            }
            (ValueKind::Num, Literal::Num(n)) => {
                self.num_map.get(&OrdF64(*n)).cloned().unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    /// Range / comparison lookup. `Ne` is answered by scanning both sides
    /// of the key (valid for an index probe, though the optimizer rarely
    /// picks an index for `!=`).
    pub fn lookup_cmp(&self, op: CmpOp, lit: &Literal) -> Vec<Posting> {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        if op == CmpOp::Eq {
            return self.lookup_eq(lit);
        }
        match (self.kind, lit) {
            (ValueKind::Num, Literal::Num(n)) => {
                let key = OrdF64(*n);
                let ranges: Vec<(std::ops::Bound<OrdF64>, std::ops::Bound<OrdF64>)> = match op {
                    CmpOp::Lt => vec![(Unbounded, Excluded(key))],
                    CmpOp::Le => vec![(Unbounded, Included(key))],
                    CmpOp::Gt => vec![(Excluded(key), Unbounded)],
                    CmpOp::Ge => vec![(Included(key), Unbounded)],
                    CmpOp::Ne => vec![(Unbounded, Excluded(key)), (Excluded(key), Unbounded)],
                    CmpOp::Eq => unreachable!("handled above"),
                };
                ranges
                    .into_iter()
                    .flat_map(|r| self.num_map.range(r))
                    .flat_map(|(_, v)| v.iter().copied())
                    .collect()
            }
            (ValueKind::Str, Literal::Str(s)) => {
                let key: Box<str> = (**s).into();
                let mut out = Vec::new();
                for (k, v) in self.str_map.iter() {
                    if op.eval_str(k, &key) {
                        out.extend(v.iter().copied());
                    }
                }
                out
            }
            _ => Vec::new(),
        }
    }
}

/// Below this many value rows the sharding overhead (thread spawn + per-
/// column binary searches) outweighs the sort it parallelizes.
const PARALLEL_BUILD_THRESHOLD: u64 = 4096;

/// Worker count for [`PhysicalIndex::build`]: `XIA_JOBS`, or serial when
/// unset/unparsable. `0` means "use every core", matching the ingestion
/// pool's convention.
fn build_jobs() -> usize {
    std::env::var("XIA_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(crate::ingest::resolve_jobs)
        .unwrap_or(1)
}

/// Splits the document-id space covered by `matched` into up to `jobs`
/// contiguous half-open ranges `[lo, hi)`. Returns a single all-covering
/// range when sharding is off (`jobs <= 1`) or not worth it
/// (`total_rows < PARALLEL_BUILD_THRESHOLD`). Ranges are ascending and
/// disjoint — the invariant the deterministic shard concatenation relies
/// on.
fn doc_ranges(matched: &[&PathColumn], total_rows: u64, jobs: usize) -> Vec<(u32, u32)> {
    let jobs = crate::ingest::resolve_jobs(jobs);
    if jobs <= 1 || total_rows < PARALLEL_BUILD_THRESHOLD {
        return vec![(0, u32::MAX)];
    }
    // Columns store rows in ascending document order, so the last row of
    // each column carries its maximum document id.
    let max_doc = matched
        .iter()
        .filter_map(|col| col.docs().last())
        .map(|d| d.0)
        .max();
    let Some(max_doc) = max_doc else {
        return vec![(0, u32::MAX)];
    };
    let span = max_doc as u64 + 1;
    let jobs = (jobs as u64).min(span);
    let chunk = span.div_ceil(jobs);
    (0..jobs)
        .map(|i| ((i * chunk) as u32, ((i + 1) * chunk).min(span) as u32))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Collects the string value rows of documents in `[lo, hi)` from every
/// matched column, sorted by `(doc, node)`. Each column's rows are sliced
/// with binary searches over its (ascending) document array, so a worker
/// touches only its own shard.
fn collect_str_rows<'c>(
    matched: &[&'c PathColumn],
    lo: u32,
    hi: u32,
) -> Vec<(DocId, NodeId, &'c str)> {
    let mut rows = Vec::new();
    for col in matched {
        let docs = col.docs();
        let start = docs.partition_point(|d| d.0 < lo);
        let end = docs.partition_point(|d| d.0 < hi);
        let nodes = &col.nodes()[start..end];
        let strs = &col.strs()[start..end];
        for ((&d, &n), s) in docs[start..end].iter().zip(nodes).zip(strs) {
            rows.push((d, n, s.as_ref()));
        }
    }
    rows.sort_unstable_by_key(|&(d, n, _)| (d, n));
    rows
}

/// Numeric twin of [`collect_str_rows`]. The sparse `(row, value)` pairs
/// are ascending in row — and therefore in document — so the same binary-
/// search slicing applies through the row → doc indirection.
fn collect_num_rows(matched: &[&PathColumn], lo: u32, hi: u32) -> Vec<(DocId, NodeId, f64)> {
    let mut rows = Vec::new();
    for col in matched {
        let docs = col.docs();
        let nums = col.nums();
        let start = nums.partition_point(|&(r, _)| docs[r as usize].0 < lo);
        let end = nums.partition_point(|&(r, _)| docs[r as usize].0 < hi);
        for &(row, n) in &nums[start..end] {
            let row = row as usize;
            rows.push((docs[row], col.nodes()[row], n));
        }
    }
    rows.sort_unstable_by_key(|&(d, n, _)| (d, n));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xpath::parse_linear_path;

    fn sample_collection() -> Collection {
        let mut c = Collection::new("SDOC");
        for (sym, yld, sector) in [
            ("IBM", 4.0, "Tech"),
            ("XOM", 5.5, "Energy"),
            ("GE", 3.0, "Industrial"),
            ("BP", 6.0, "Energy"),
        ] {
            c.build_doc("Security", |b| {
                b.leaf("Symbol", sym);
                b.leaf("Yield", yld);
                b.begin("SecInfo");
                b.begin("StockInfo");
                b.leaf("Sector", sector);
                b.end();
                b.end();
            });
        }
        c
    }

    #[test]
    fn builds_partial_index_on_specific_pattern() {
        let c = sample_collection();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let idx = PhysicalIndex::build(&c, &p, ValueKind::Str);
        assert_eq!(idx.entries(), 4);
        assert_eq!(idx.distinct_keys(), 4);
        let hits = idx.lookup_eq(&Literal::Str("IBM".into()));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(0));
    }

    #[test]
    fn wildcard_pattern_indexes_deeper_paths() {
        let c = sample_collection();
        let p = parse_linear_path("/Security/SecInfo/*/Sector").unwrap();
        let idx = PhysicalIndex::build(&c, &p, ValueKind::Str);
        assert_eq!(idx.entries(), 4);
        assert_eq!(idx.lookup_eq(&Literal::Str("Energy".into())).len(), 2);
    }

    #[test]
    fn numeric_range_lookup() {
        let c = sample_collection();
        let p = parse_linear_path("/Security/Yield").unwrap();
        let idx = PhysicalIndex::build(&c, &p, ValueKind::Num);
        assert_eq!(idx.entries(), 4);
        let hits = idx.lookup_cmp(CmpOp::Gt, &Literal::Num(4.5));
        assert_eq!(hits.len(), 2);
        let hits = idx.lookup_cmp(CmpOp::Le, &Literal::Num(4.0));
        assert_eq!(hits.len(), 2);
        let hits = idx.lookup_cmp(CmpOp::Ne, &Literal::Num(4.0));
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn numeric_index_skips_non_numeric_values() {
        let mut c = Collection::new("X");
        c.build_doc("a", |b| {
            b.leaf("v", "12");
            b.leaf("v", "hello");
        });
        let p = parse_linear_path("/a/v").unwrap();
        let num = PhysicalIndex::build(&c, &p, ValueKind::Num);
        assert_eq!(num.entries(), 1);
        let s = PhysicalIndex::build(&c, &p, ValueKind::Str);
        assert_eq!(s.entries(), 2);
    }

    #[test]
    fn maintenance_on_insert_and_delete() {
        let mut c = sample_collection();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let mut idx = PhysicalIndex::build(&c, &p, ValueKind::Str);
        let id = c.build_doc("Security", |b| {
            b.leaf("Symbol", "AAPL");
        });
        idx.insert_doc(id, c.doc(id).unwrap(), c.vocab());
        assert_eq!(idx.entries(), 5);
        assert_eq!(idx.lookup_eq(&Literal::Str("AAPL".into())).len(), 1);
        let removed = idx.remove_doc(id);
        assert_eq!(removed, 1);
        assert_eq!(idx.entries(), 4);
        assert!(idx.lookup_eq(&Literal::Str("AAPL".into())).is_empty());
    }

    #[test]
    fn insert_with_new_shape_refreshes_matched_paths() {
        let mut c = Collection::new("X");
        c.build_doc("a", |b| {
            b.leaf("x", "1");
        });
        let p = parse_linear_path("/a//*").unwrap();
        let mut idx = PhysicalIndex::build(&c, &p, ValueKind::Str);
        assert_eq!(idx.entries(), 1);
        // New path /a/b/y appears only in the second document.
        let id = c.build_doc("a", |b| {
            b.begin("b");
            b.leaf("y", "2");
            b.end();
        });
        idx.insert_doc(id, c.doc(id).unwrap(), c.vocab());
        assert_eq!(idx.entries(), 2);
        assert_eq!(idx.lookup_eq(&Literal::Str("2".into())).len(), 1);
    }

    #[test]
    fn kind_mismatch_lookups_return_empty() {
        let c = sample_collection();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let idx = PhysicalIndex::build(&c, &p, ValueKind::Str);
        assert!(idx.lookup_eq(&Literal::Num(1.0)).is_empty());
        assert!(idx.lookup_cmp(CmpOp::Gt, &Literal::Num(1.0)).is_empty());
    }

    #[test]
    fn columnar_build_matches_document_scan() {
        // Two identical collections; one has its columnar projection
        // dirtied so PhysicalIndex::build takes the document-scan
        // fallback. The resulting indexes must be bit-identical.
        let texts: Vec<String> = (0..25)
            .map(|i| {
                format!(
                    "<Security><Symbol>S{}</Symbol><Yield>{}</Yield><SecInfo s=\"T{}\"><Sector>E{}</Sector></SecInfo></Security>",
                    i % 9,
                    i as f64 / 2.0,
                    i % 4,
                    i % 3
                )
            })
            .collect();
        let mut cols = Collection::new("SDOC");
        let mut scan = Collection::new("SDOC");
        for t in &texts {
            cols.insert_xml(t).unwrap();
            scan.insert_xml(t).unwrap();
        }
        // Dirty the scan collection's columns without changing data.
        let _ = scan.doc_mut(DocId(0));
        assert!(cols.columns().is_some());
        assert!(scan.columns().is_none());
        for (pat, kind) in [
            ("/Security/Symbol", ValueKind::Str),
            ("/Security/Yield", ValueKind::Num),
            ("/Security//*", ValueKind::Str),
            ("/Security/SecInfo/s", ValueKind::Str),
            ("/Nothing/Here", ValueKind::Num),
        ] {
            let p = parse_linear_path(pat).unwrap();
            let a = PhysicalIndex::build(&cols, &p, kind);
            let b = PhysicalIndex::build(&scan, &p, kind);
            assert_eq!(a.str_map, b.str_map, "{pat}");
            assert_eq!(a.num_map, b.num_map, "{pat}");
            assert_eq!(a.struct_map, b.struct_map, "{pat}");
            assert_eq!(a.entries, b.entries, "{pat}");
            assert_eq!(a.key_bytes, b.key_bytes, "{pat}");
        }
    }

    #[test]
    fn parallel_build_matches_serial_for_every_worker_count() {
        // Enough value rows to clear PARALLEL_BUILD_THRESHOLD so the
        // sharded path actually runs, including a numeric column and
        // duplicate keys that make posting order observable.
        let mut c = Collection::new("SDOC");
        for i in 0..3000u32 {
            c.insert_xml(&format!(
                "<Security><Symbol>S{}</Symbol><Yield>{}</Yield></Security>",
                i % 17,
                (i % 11) as f64 / 2.0
            ))
            .unwrap();
        }
        assert!(c.columns().is_some());
        for (pat, kind) in [
            ("/Security//*", ValueKind::Str),
            ("/Security/Symbol", ValueKind::Str),
            ("/Security/Yield", ValueKind::Num),
        ] {
            let p = parse_linear_path(pat).unwrap();
            let serial = PhysicalIndex::build_with_jobs(&c, &p, kind, 1);
            // More workers than documents is also legal: ranges clamp.
            for jobs in [2, 3, 8, 5000] {
                let par = PhysicalIndex::build_with_jobs(&c, &p, kind, jobs);
                assert_eq!(serial.str_map, par.str_map, "{pat} jobs={jobs}");
                assert_eq!(serial.num_map, par.num_map, "{pat} jobs={jobs}");
                assert_eq!(serial.struct_map, par.struct_map, "{pat} jobs={jobs}");
                assert_eq!(serial.entries, par.entries, "{pat} jobs={jobs}");
                assert_eq!(serial.key_bytes, par.key_bytes, "{pat} jobs={jobs}");
            }
        }
    }

    #[test]
    fn doc_ranges_cover_the_space_without_overlap() {
        let mut c = Collection::new("X");
        for i in 0..40u32 {
            c.insert_xml(&format!("<a><v>{i}</v></a>")).unwrap();
        }
        let cols = c.columns().unwrap();
        let matched: Vec<&PathColumn> = c
            .vocab()
            .paths
            .iter()
            .enumerate()
            .filter_map(|(i, _)| cols.col(PathId(i as u32)))
            .collect();
        // Below the row threshold sharding is declined outright.
        assert_eq!(doc_ranges(&matched, 40, 8), vec![(0, u32::MAX)]);
        // Above it, ranges tile [0, max_doc+1) in ascending disjoint order.
        let ranges = doc_ranges(&matched, PARALLEL_BUILD_THRESHOLD, 8);
        assert!(ranges.len() > 1 && ranges.len() <= 8);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, 40);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
        }
    }

    #[test]
    fn string_range_lookup() {
        let c = sample_collection();
        let p = parse_linear_path("/Security/SecInfo/*/Sector").unwrap();
        let idx = PhysicalIndex::build(&c, &p, ValueKind::Str);
        let hits = idx.lookup_cmp(CmpOp::Lt, &Literal::Str("F".into()));
        assert_eq!(hits.len(), 2); // two "Energy"
    }
}
