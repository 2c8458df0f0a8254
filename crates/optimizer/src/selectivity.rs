//! Selectivity estimation for access patterns.

use xia_storage::{Collection, CollectionStats};
use xia_xml::PathId;
use xia_xpath::{CmpOp, LinearPath, Literal, PathMatcher, PatternPred, ValueKind};

/// Aggregated statistics for the set of rooted paths an access pattern (or
/// an index pattern) targets.
#[derive(Debug, Clone, Default)]
pub struct PatternStats {
    /// Paths the pattern matches.
    pub paths: Vec<PathId>,
    /// Valued nodes at those paths (string view).
    pub valued_nodes: u64,
    /// Numeric-valued nodes at those paths.
    pub numeric_nodes: u64,
    /// Total nodes at those paths.
    pub nodes: u64,
    /// Documents containing at least one node at any of the paths (upper
    /// bound: sum capped by collection doc count).
    pub docs_upper: u64,
    /// Distinct values (summed over paths, capped by valued nodes).
    pub distinct: u64,
    /// Average value byte width.
    pub avg_value_len: f64,
    /// Expected postings for an equality probe with a key drawn from the
    /// pattern's domain, per kind: `Σ_p entries_p / distinct_p`. This is
    /// the per-path estimate — summing distincts across paths and dividing
    /// once would make *broader* patterns look more selective, inverting
    /// the specific-vs-general preference.
    eq_matches_str: f64,
    /// Numeric-kind equivalent of `eq_matches_str`.
    eq_matches_num: f64,
}

impl PatternStats {
    /// Collects aggregated statistics for a linear pattern.
    pub fn collect(
        pattern: &LinearPath,
        collection: &Collection,
        stats: &CollectionStats,
    ) -> PatternStats {
        let matcher = PathMatcher::new(pattern, collection.vocab());
        let paths = matcher.matching_path_ids(collection.vocab());
        Self::from_paths(paths, stats)
    }

    /// Aggregates statistics over an explicit path set.
    pub fn from_paths(paths: Vec<PathId>, stats: &CollectionStats) -> PatternStats {
        let mut out = PatternStats {
            paths,
            ..Default::default()
        };
        let mut value_bytes = 0u64;
        let mut docs = 0u64;
        for &pid in &out.paths {
            let ps = stats.path(pid);
            out.nodes += ps.node_count;
            out.valued_nodes += ps.value_count;
            out.numeric_nodes += ps.numeric_count;
            out.distinct += ps.distinct_values;
            value_bytes += ps.value_bytes;
            docs += ps.doc_count;
            if ps.distinct_values > 0 {
                out.eq_matches_str += ps.value_count as f64 / ps.distinct_values as f64;
                let num_distinct = ps.distinct_values.min(ps.numeric_count).max(1);
                out.eq_matches_num += ps.numeric_count as f64 / num_distinct as f64;
            }
        }
        out.docs_upper = docs.min(stats.doc_count);
        out.distinct = out.distinct.min(out.valued_nodes);
        out.avg_value_len = if out.valued_nodes == 0 {
            0.0
        } else {
            value_bytes as f64 / out.valued_nodes as f64
        };
        out
    }

    /// Number of index entries a pattern of the given kind would have.
    pub fn entries_for(&self, kind: ValueKind) -> u64 {
        match kind {
            ValueKind::Str => self.valued_nodes,
            ValueKind::Num => self.numeric_nodes,
        }
    }

    /// Estimated selectivity of a predicate over the pattern's valued
    /// nodes.
    pub fn predicate_selectivity(&self, pred: &PatternPred, stats: &CollectionStats) -> f64 {
        match pred {
            PatternPred::Exists => 1.0,
            PatternPred::Compare(op, lit) => self.compare_selectivity(*op, lit, stats),
        }
    }

    fn compare_selectivity(&self, op: CmpOp, lit: &Literal, stats: &CollectionStats) -> f64 {
        match lit {
            Literal::Str(_) => match op {
                CmpOp::Eq => self.eq_selectivity(ValueKind::Str),
                CmpOp::Ne => 1.0 - self.eq_selectivity(ValueKind::Str),
                // String ranges: no order statistics kept; use the classic
                // 1/3 heuristic.
                _ => 1.0 / 3.0,
            },
            Literal::Num(v) => {
                if matches!(op, CmpOp::Eq) {
                    return self.eq_selectivity(ValueKind::Num);
                }
                if matches!(op, CmpOp::Ne) {
                    return 1.0 - self.eq_selectivity(ValueKind::Num);
                }
                // Weighted average of the per-path histogram estimates.
                let mut weighted = 0.0;
                let mut weight = 0.0;
                for &pid in &self.paths {
                    let ps = stats.path(pid);
                    if ps.numeric_count > 0 {
                        weighted += ps.range_selectivity(op, *v) * ps.numeric_count as f64;
                        weight += ps.numeric_count as f64;
                    }
                }
                if weight == 0.0 {
                    1.0 / 3.0
                } else {
                    weighted / weight
                }
            }
        }
    }

    fn eq_selectivity(&self, kind: ValueKind) -> f64 {
        let entries = self.entries_for(kind) as f64;
        if entries == 0.0 {
            return 0.0;
        }
        let matches = match kind {
            ValueKind::Str => self.eq_matches_str,
            ValueKind::Num => self.eq_matches_num,
        };
        (matches / entries).clamp(0.0, 1.0)
    }

    /// Estimated matching nodes for a pattern+predicate, given kind.
    pub fn matching_nodes(
        &self,
        pred: &PatternPred,
        kind: ValueKind,
        stats: &CollectionStats,
    ) -> f64 {
        self.entries_for(kind) as f64 * self.predicate_selectivity(pred, stats)
    }

    /// Estimated documents containing a matching node: matching nodes
    /// discounted by per-document clustering, capped by the pattern's
    /// document count.
    pub fn matching_docs(&self, matching_nodes: f64) -> f64 {
        if self.docs_upper == 0 {
            return 0.0;
        }
        let nodes_per_doc = (self.nodes as f64 / self.docs_upper as f64).max(1.0);
        (matching_nodes / nodes_per_doc)
            .max(matching_nodes.min(1.0))
            .min(self.docs_upper as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_storage::runstats;
    use xia_xpath::parse_linear_path;

    fn collection() -> (Collection, CollectionStats) {
        let mut c = Collection::new("SDOC");
        for i in 0..100 {
            c.build_doc("Security", |b| {
                b.leaf("Symbol", format!("S{i}").as_str());
                b.leaf("Yield", (i % 10) as f64);
                b.begin("SecInfo");
                b.begin(if i % 2 == 0 { "StockInfo" } else { "FundInfo" });
                b.leaf("Sector", if i % 4 == 0 { "Energy" } else { "Tech" });
                b.end();
                b.end();
            });
        }
        let s = runstats(&c);
        (c, s)
    }

    #[test]
    fn collects_aggregate_over_wildcard_paths() {
        let (c, s) = collection();
        let p = parse_linear_path("/Security/SecInfo/*/Sector").unwrap();
        let ps = PatternStats::collect(&p, &c, &s);
        assert_eq!(ps.paths.len(), 2); // StockInfo and FundInfo variants
        assert_eq!(ps.valued_nodes, 100);
        assert_eq!(ps.docs_upper, 100);
    }

    #[test]
    fn eq_selectivity_via_distinct() {
        let (c, s) = collection();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let ps = PatternStats::collect(&p, &c, &s);
        let pred = PatternPred::Compare(CmpOp::Eq, Literal::Str("S5".into()));
        let sel = ps.predicate_selectivity(&pred, &s);
        assert!((sel - 0.01).abs() < 1e-9, "sel = {sel}");
        let m = ps.matching_nodes(&pred, ValueKind::Str, &s);
        assert!((m - 1.0).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_via_histogram() {
        let (c, s) = collection();
        let p = parse_linear_path("/Security/Yield").unwrap();
        let ps = PatternStats::collect(&p, &c, &s);
        let pred = PatternPred::Compare(CmpOp::Gt, Literal::Num(4.5));
        let sel = ps.predicate_selectivity(&pred, &s);
        assert!((sel - 0.5).abs() < 0.12, "sel = {sel}");
    }

    #[test]
    fn matching_docs_bounded_by_doc_count() {
        let (c, s) = collection();
        let p = parse_linear_path("/Security/Yield").unwrap();
        let ps = PatternStats::collect(&p, &c, &s);
        let docs = ps.matching_docs(1e9);
        assert_eq!(docs, 100.0);
        assert_eq!(ps.matching_docs(0.0), 0.0);
    }

    #[test]
    fn exists_has_selectivity_one() {
        let (c, s) = collection();
        let p = parse_linear_path("/Security/SecInfo").unwrap();
        let ps = PatternStats::collect(&p, &c, &s);
        assert_eq!(ps.predicate_selectivity(&PatternPred::Exists, &s), 1.0);
    }

    #[test]
    fn eq_matches_are_estimated_per_path_not_from_pooled_distincts() {
        // Two sibling paths share a key domain (both sectors). A probe
        // with an existing key matches in *both* paths; pooling distincts
        // across paths (1/Σdistinct) would claim broader patterns are MORE
        // selective, inverting the specific-vs-general index preference.
        let mut c = Collection::new("X");
        for i in 0..80 {
            c.build_doc("Security", |b| {
                b.begin("SecInfo");
                b.begin(if i % 2 == 0 { "StockInfo" } else { "FundInfo" });
                b.leaf("Sector", ["A", "B", "C", "D"][(i / 2) % 4]); // decorrelated from shape
                b.end();
                b.end();
            });
        }
        let s = runstats(&c);
        let ps = PatternStats::collect(
            &parse_linear_path("/Security/SecInfo/*/Sector").unwrap(),
            &c,
            &s,
        );
        let pred = PatternPred::Compare(CmpOp::Eq, Literal::Str("A".into()));
        let m = ps.matching_nodes(&pred, ValueKind::Str, &s);
        // 80 sector nodes over 2 paths × 4 distinct each → 10 per key per
        // path → 20 expected matches (not 80/8 = 10).
        assert!((m - 20.0).abs() < 1e-6, "matches = {m}");
    }

    #[test]
    fn numeric_kind_counts_only_numeric_nodes() {
        let mut c = Collection::new("X");
        c.build_doc("a", |b| {
            b.leaf("v", "1.5");
            b.leaf("v", "hello");
        });
        let s = runstats(&c);
        let ps = PatternStats::collect(&parse_linear_path("/a/v").unwrap(), &c, &s);
        assert_eq!(ps.entries_for(ValueKind::Num), 1);
        assert_eq!(ps.entries_for(ValueKind::Str), 2);
    }
}
