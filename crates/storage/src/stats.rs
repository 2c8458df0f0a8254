//! RUNSTATS-equivalent data statistics.
//!
//! The paper's advisor runs the database's statistics-collection command
//! (RUNSTATS in DB2) and then *derives* virtual-index statistics from the
//! data statistics. This module is that statistics collection: per rooted
//! path we keep node/document/value counts, distinct-value counts, numeric
//! ranges, and an equi-depth histogram for selectivity estimation.

use crate::collection::Collection;
use crate::columnar::ColumnStore;
use std::collections::HashSet;
use xia_obs::Counter;
use xia_xml::PathId;
use xia_xpath::CmpOp;

/// Number of buckets in the equi-depth histograms.
pub const HISTOGRAM_BUCKETS: usize = 20;

/// Statistics for one rooted label path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathStat {
    /// Total nodes at this path.
    pub node_count: u64,
    /// Documents containing at least one node at this path.
    pub doc_count: u64,
    /// Nodes at this path carrying a text value.
    pub value_count: u64,
    /// Nodes whose value parses as a number.
    pub numeric_count: u64,
    /// Distinct values (exact, collected during the scan).
    pub distinct_values: u64,
    /// Minimum numeric value, if any numeric values exist.
    pub min_num: Option<f64>,
    /// Maximum numeric value, if any numeric values exist.
    pub max_num: Option<f64>,
    /// Equi-depth histogram bucket boundaries over numeric values
    /// (ascending; `boundaries[i]` is the upper bound of bucket `i`).
    pub histogram: Vec<f64>,
    /// Total bytes of value text at this path.
    pub value_bytes: u64,
}

impl PathStat {
    /// Average stored key width in bytes for string keys.
    pub fn avg_value_len(&self) -> f64 {
        if self.value_count == 0 {
            0.0
        } else {
            self.value_bytes as f64 / self.value_count as f64
        }
    }

    /// Estimated selectivity (fraction of *valued* nodes satisfied) of an
    /// equality predicate, from the distinct-value count (uniformity
    /// assumption, as in System R-style costing).
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct_values == 0 {
            0.0
        } else {
            1.0 / self.distinct_values as f64
        }
    }

    /// Estimated selectivity of a numeric range predicate using the
    /// equi-depth histogram (falls back to min/max interpolation, then to
    /// the 1/3 heuristic).
    pub fn range_selectivity(&self, op: CmpOp, v: f64) -> f64 {
        match op {
            CmpOp::Eq => return self.eq_selectivity(),
            CmpOp::Ne => return 1.0 - self.eq_selectivity(),
            _ => {}
        }
        let frac_below = self.fraction_below(v);
        let sel = match op {
            CmpOp::Lt | CmpOp::Le => frac_below,
            CmpOp::Gt | CmpOp::Ge => 1.0 - frac_below,
            CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
        };
        sel.clamp(0.0, 1.0)
    }

    /// Fraction of numeric values strictly below `v`, estimated from the
    /// histogram.
    fn fraction_below(&self, v: f64) -> f64 {
        if !self.histogram.is_empty() {
            let buckets = self.histogram.len() as f64;
            let mut below = 0.0;
            let mut lower = self.min_num.unwrap_or(self.histogram[0]);
            for (i, &upper) in self.histogram.iter().enumerate() {
                if v >= upper {
                    below = (i + 1) as f64;
                    lower = upper;
                } else {
                    // Linear interpolation inside the bucket.
                    if v > lower && upper > lower {
                        below = i as f64 + (v - lower) / (upper - lower);
                    }
                    break;
                }
            }
            return (below / buckets).clamp(0.0, 1.0);
        }
        match (self.min_num, self.max_num) {
            (Some(lo), Some(hi)) if hi > lo => ((v - lo) / (hi - lo)).clamp(0.0, 1.0),
            (Some(lo), Some(_)) => {
                if v > lo {
                    1.0
                } else {
                    0.0
                }
            }
            _ => 1.0 / 3.0,
        }
    }
}

/// Statistics for one collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectionStats {
    /// Live documents.
    pub doc_count: u64,
    /// Total nodes.
    pub node_count: u64,
    /// Total value-text bytes.
    pub value_bytes: u64,
    /// Per-path statistics, dense by [`PathId`].
    pub per_path: Vec<PathStat>,
}

impl CollectionStats {
    /// Statistics for one path (zeros if the path id is beyond what was
    /// collected — possible when documents were inserted after RUNSTATS).
    pub fn path(&self, id: PathId) -> &PathStat {
        static UNSEEN: PathStat = PathStat {
            node_count: 0,
            doc_count: 0,
            value_count: 0,
            numeric_count: 0,
            distinct_values: 0,
            min_num: None,
            max_num: None,
            histogram: Vec::new(),
            value_bytes: 0,
        };
        self.per_path.get(id.index()).unwrap_or(&UNSEEN)
    }

    /// Borrowing accessor; `None` when the path id is newer than the stats.
    pub fn path_ref(&self, id: PathId) -> Option<&PathStat> {
        self.per_path.get(id.index())
    }

    /// Average nodes per document.
    pub fn avg_doc_nodes(&self) -> f64 {
        if self.doc_count == 0 {
            0.0
        } else {
            self.node_count as f64 / self.doc_count as f64
        }
    }

    /// Average value-bytes per document.
    pub fn avg_doc_bytes(&self) -> f64 {
        if self.doc_count == 0 {
            0.0
        } else {
            self.value_bytes as f64 / self.doc_count as f64
        }
    }
}

/// Collects statistics over a collection — the RUNSTATS equivalent.
///
/// Dispatches to the columnar fast path when the collection's leaf
/// projection is fresh (contiguous typed slices per path), falling back
/// to the per-node document scan otherwise. Both produce identical
/// statistics; the property suite holds them equal.
pub fn runstats(collection: &Collection) -> CollectionStats {
    match collection.columns() {
        Some(cols) => runstats_columnar(collection, cols),
        None => runstats_scan(collection),
    }
}

/// Columnar RUNSTATS: every per-path figure comes straight off the
/// column arrays. Numeric samples are sorted before bucketing (exactly
/// as the scan path does), so histograms match regardless of row order.
fn runstats_columnar(collection: &Collection, cols: &ColumnStore) -> CollectionStats {
    let path_count = collection.vocab().paths.len();
    let mut per_path = vec![PathStat::default(); path_count];
    let mut value_bytes = 0u64;
    let mut rows_scanned = 0u64;
    for (pi, stat) in per_path.iter_mut().enumerate() {
        let Some(col) = cols.col(PathId(pi as u32)) else {
            continue;
        };
        stat.node_count = col.node_count();
        stat.doc_count = col.struct_docs().len() as u64;
        stat.value_count = col.rows();
        rows_scanned += col.rows();
        let mut distinct: HashSet<&str> = HashSet::with_capacity(col.strs().len());
        for v in col.strs() {
            stat.value_bytes += v.len() as u64;
            distinct.insert(v);
        }
        value_bytes += stat.value_bytes;
        stat.distinct_values = distinct.len() as u64;
        stat.numeric_count = col.nums().len() as u64;
        for &(_, n) in col.nums() {
            stat.min_num = Some(stat.min_num.map_or(n, |m| m.min(n)));
            stat.max_num = Some(stat.max_num.map_or(n, |m| m.max(n)));
        }
        if col.nums().len() >= HISTOGRAM_BUCKETS {
            let mut samples: Vec<f64> = col.nums().iter().map(|&(_, n)| n).collect();
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            stat.histogram = equi_depth_boundaries(&samples, HISTOGRAM_BUCKETS);
        }
    }
    collection
        .telemetry()
        .add(Counter::ColumnarScanRows, rows_scanned);
    CollectionStats {
        doc_count: collection.len() as u64,
        node_count: cols.total_nodes(),
        value_bytes,
        per_path,
    }
}

/// Per-node document-scan RUNSTATS (the original path; also the fallback
/// while the columnar projection is stale).
pub fn runstats_scan(collection: &Collection) -> CollectionStats {
    let path_count = collection.vocab().paths.len();
    let mut per_path = vec![PathStat::default(); path_count];
    // Exact distinct counting; data sizes in this reproduction are small
    // enough that a HashSet per path is fine.
    let mut distinct: Vec<HashSet<String>> = vec![HashSet::new(); path_count];
    let mut numeric_samples: Vec<Vec<f64>> = vec![Vec::new(); path_count];
    let mut seen_in_doc: Vec<u32> = vec![u32::MAX; path_count];

    let mut doc_count = 0u64;
    let mut node_count = 0u64;
    let mut value_bytes = 0u64;
    for (doc_id, doc) in collection.iter_docs() {
        doc_count += 1;
        node_count += doc.len() as u64;
        for (_, node) in doc.nodes() {
            let pi = node.path.index();
            let stat = &mut per_path[pi];
            stat.node_count += 1;
            if seen_in_doc[pi] != doc_id.0 {
                seen_in_doc[pi] = doc_id.0;
                stat.doc_count += 1;
            }
            if let Some(v) = &node.value {
                stat.value_count += 1;
                stat.value_bytes += v.as_str().len() as u64;
                value_bytes += v.as_str().len() as u64;
                distinct[pi].insert(v.as_str().to_string());
                if let Some(n) = v.as_num() {
                    stat.numeric_count += 1;
                    stat.min_num = Some(stat.min_num.map_or(n, |m| m.min(n)));
                    stat.max_num = Some(stat.max_num.map_or(n, |m| m.max(n)));
                    numeric_samples[pi].push(n);
                }
            }
        }
    }

    for (pi, stat) in per_path.iter_mut().enumerate() {
        stat.distinct_values = distinct[pi].len() as u64;
        let samples = &mut numeric_samples[pi];
        if samples.len() >= HISTOGRAM_BUCKETS {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            stat.histogram = equi_depth_boundaries(samples, HISTOGRAM_BUCKETS);
        }
    }

    CollectionStats {
        doc_count,
        node_count,
        value_bytes,
        per_path,
    }
}

/// Upper boundaries of `buckets` equi-depth buckets over sorted values.
fn equi_depth_boundaries(sorted: &[f64], buckets: usize) -> Vec<f64> {
    let n = sorted.len();
    (1..=buckets)
        .map(|i| sorted[(i * n / buckets).min(n) - 1])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;

    fn yield_collection(values: &[f64]) -> Collection {
        let mut c = Collection::new("SDOC");
        for &v in values {
            c.build_doc("Security", |b| {
                b.leaf("Yield", v);
            });
        }
        c
    }

    #[test]
    fn counts_are_exact() {
        let c = yield_collection(&[1.0, 2.0, 2.0, 3.0]);
        let s = runstats(&c);
        assert_eq!(s.doc_count, 4);
        assert_eq!(s.node_count, 8);
        let yield_path = xia_xml::PathId(1);
        let ps = s.path(yield_path);
        assert_eq!(ps.node_count, 4);
        assert_eq!(ps.doc_count, 4);
        assert_eq!(ps.value_count, 4);
        assert_eq!(ps.numeric_count, 4);
        assert_eq!(ps.distinct_values, 3);
        assert_eq!(ps.min_num, Some(1.0));
        assert_eq!(ps.max_num, Some(3.0));
    }

    #[test]
    fn doc_count_counts_each_doc_once() {
        let mut c = Collection::new("X");
        c.build_doc("a", |b| {
            b.leaf("x", "1");
            b.leaf("x", "2");
        });
        let s = runstats(&c);
        let xpath = xia_xml::PathId(1);
        assert_eq!(s.path(xpath).node_count, 2);
        assert_eq!(s.path(xpath).doc_count, 1);
    }

    #[test]
    fn eq_selectivity_uses_distinct() {
        let c = yield_collection(&[1.0, 2.0, 3.0, 4.0]);
        let s = runstats(&c);
        let ps = s.path(xia_xml::PathId(1));
        assert!((ps.eq_selectivity() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_from_histogram() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let c = yield_collection(&values);
        let s = runstats(&c);
        let ps = s.path(xia_xml::PathId(1));
        assert!(!ps.histogram.is_empty());
        let sel = ps.range_selectivity(CmpOp::Lt, 50.0);
        assert!((sel - 0.5).abs() < 0.08, "sel = {sel}");
        let sel = ps.range_selectivity(CmpOp::Gt, 90.0);
        assert!((sel - 0.1).abs() < 0.08, "sel = {sel}");
    }

    #[test]
    fn range_selectivity_minmax_fallback() {
        let c = yield_collection(&[0.0, 10.0]);
        let s = runstats(&c);
        let ps = s.path(xia_xml::PathId(1));
        assert!(ps.histogram.is_empty());
        let sel = ps.range_selectivity(CmpOp::Lt, 5.0);
        assert!((sel - 0.5).abs() < 1e-9);
    }

    #[test]
    fn selectivity_is_clamped() {
        let c = yield_collection(&[1.0, 2.0]);
        let s = runstats(&c);
        let ps = s.path(xia_xml::PathId(1));
        assert_eq!(ps.range_selectivity(CmpOp::Lt, -100.0), 0.0);
        assert_eq!(ps.range_selectivity(CmpOp::Lt, 100.0), 1.0);
    }

    #[test]
    fn stats_on_empty_collection() {
        let c = Collection::new("E");
        let s = runstats(&c);
        assert_eq!(s.doc_count, 0);
        assert_eq!(s.avg_doc_nodes(), 0.0);
    }

    #[test]
    fn columnar_and_scan_stats_agree() {
        let mut c = Collection::new("SDOC");
        for i in 0..40 {
            c.insert_xml(&format!(
                "<Security><Symbol>S{}</Symbol><Yield>{}</Yield><Info sector=\"T{}\" cap=\"{}\"/><Note/></Security>",
                i % 7,
                i as f64 / 3.0,
                i % 3,
                i * 10
            ))
            .unwrap();
        }
        // Streamed inserts keep the columns fresh: runstats takes the
        // columnar path and must reproduce the scan exactly, histograms
        // included.
        assert!(c.columns().is_some());
        assert_eq!(runstats(&c), runstats_scan(&c));

        // A delete invalidates the columns; runstats falls back to the
        // scan until they are rebuilt, then agrees again.
        c.delete(crate::collection::DocId(5));
        assert!(c.columns().is_none());
        assert_eq!(runstats(&c), runstats_scan(&c));
        c.ensure_columns();
        assert!(c.columns().is_some());
        assert_eq!(runstats(&c), runstats_scan(&c));
    }

    #[test]
    fn columnar_stats_count_scan_rows() {
        let t = xia_obs::Telemetry::new();
        let mut c = Collection::new("SDOC");
        c.set_telemetry(&t);
        c.insert_xml("<a><b>1</b><b>2</b><c/></a>").unwrap();
        let _ = runstats(&c);
        // Two valued nodes scanned from the columns.
        assert_eq!(t.get(xia_obs::Counter::ColumnarScanRows), 2);
    }

    #[test]
    fn unknown_path_id_yields_zero_stats() {
        let c = yield_collection(&[1.0]);
        let s = runstats(&c);
        let ghost = xia_xml::PathId(999);
        assert_eq!(s.path(ghost).node_count, 0);
        assert!(s.path_ref(ghost).is_none());
    }
}
