//! Index maintenance cost — the `mc(x, s)` term of the paper's benefit
//! formula.
//!
//! The DB2 optimizer's cost estimates for update/delete/insert statements
//! do *not* include the cost of updating indexes, so the advisor subtracts
//! an explicit maintenance cost for every index in a candidate
//! configuration (paper Section III; detailed model in tech report
//! CS-2007-22). We model it as: entries touched × per-entry update cost.

use crate::cost::CostModel;
use crate::modes::PreparedStatement;
use xia_storage::{CollectionStats, IndexStats};
use xia_xml::{parse_document, Vocabulary};
use xia_xpath::{contain, LinearPath, Statement, ValueKind};

/// One valued node of an insert payload, as index maintenance sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadValue {
    /// Labels from the document root to the node.
    pub labels: Vec<String>,
    /// Whether the value parses as a number (a numeric index keeps it).
    pub numeric: bool,
}

/// The valued nodes of an inserted XML payload (parses into a scratch
/// vocabulary; the payload may introduce paths the collection has never
/// seen). A payload that does not parse adds nothing to any index.
pub fn payload_values(xml: &str) -> Vec<PayloadValue> {
    let mut vocab = Vocabulary::new();
    let Ok(doc) = parse_document(xml, &mut vocab) else {
        return Vec::new();
    };
    doc.nodes()
        .filter_map(|(_, node)| {
            let value = node.value.as_ref()?;
            Some(PayloadValue {
                labels: vocab
                    .paths
                    .labels(node.path)
                    .iter()
                    .map(|&s| vocab.names.resolve(s).to_string())
                    .collect(),
                numeric: value.as_num().is_some(),
            })
        })
        .collect()
}

/// Counts the entries an index with `pattern`/`kind` would gain from a
/// payload's valued nodes.
pub fn matching_entries(values: &[PayloadValue], pattern: &LinearPath, kind: ValueKind) -> u64 {
    values
        .iter()
        .filter(|v| (kind == ValueKind::Str || v.numeric) && pattern.matches_labels(&v.labels))
        .count() as u64
}

/// Maintenance cost of one index for one prepared statement.
///
/// * queries: 0;
/// * insert: entries the payload adds to the index;
/// * delete: estimated victim docs × the index's entries-per-document;
/// * update: if the index covers the rewritten path, estimated victim docs
///   × 2 (delete + insert of the key).
///
/// Everything estimated from the statement — the parsed payload, the
/// victim estimate — was computed once when it was prepared, not per
/// index; `stmt` and `stats` are the statement and collection statistics
/// `prepared` was prepared from.
pub fn maintenance_cost(
    pattern: &LinearPath,
    kind: ValueKind,
    index_stats: &IndexStats,
    stmt: &Statement,
    stats: &CollectionStats,
    prepared: &PreparedStatement,
    cm: &CostModel,
) -> f64 {
    match stmt {
        Statement::Query(_) => 0.0,
        Statement::Insert { .. } => {
            prepared.payload_entries(pattern, kind) as f64 * cm.update_entry
        }
        Statement::Delete { .. } => {
            let doc_count = stats.doc_count;
            let per_doc = if doc_count == 0 {
                0.0
            } else {
                index_stats.entries as f64 / doc_count as f64
            };
            prepared.target_docs() * per_doc * cm.update_entry
        }
        Statement::Update { set, .. } => {
            if contain::covers(pattern, set) {
                prepared.target_docs() * 2.0 * cm.update_entry
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::Optimizer;
    use xia_storage::{runstats, Catalog, Collection};
    use xia_xpath::{parse_linear_path, parse_statement};

    fn payload_matching_entries(xml: &str, pattern: &LinearPath, kind: ValueKind) -> u64 {
        matching_entries(&payload_values(xml), pattern, kind)
    }

    #[test]
    fn payload_matching_counts_by_pattern_and_kind() {
        let xml = "<Security><Symbol>IBM</Symbol><Yield>4.5</Yield><Name>Intl</Name></Security>";
        let sym = parse_linear_path("/Security/Symbol").unwrap();
        assert_eq!(payload_matching_entries(xml, &sym, ValueKind::Str), 1);
        let all = parse_linear_path("/Security//*").unwrap();
        assert_eq!(payload_matching_entries(xml, &all, ValueKind::Str), 3);
        assert_eq!(payload_matching_entries(xml, &all, ValueKind::Num), 1);
        let other = parse_linear_path("/Order/Price").unwrap();
        assert_eq!(payload_matching_entries(xml, &other, ValueKind::Str), 0);
    }

    #[test]
    fn malformed_payload_counts_zero() {
        let p = parse_linear_path("/a").unwrap();
        assert_eq!(payload_matching_entries("<a><b>", &p, ValueKind::Str), 0);
    }

    fn setup() -> (Collection, xia_storage::CollectionStats, Catalog) {
        let mut c = Collection::new("SDOC");
        for i in 0..100u32 {
            c.build_doc("Security", |b| {
                b.leaf("Symbol", format!("S{i}").as_str());
                b.leaf("Yield", (i % 10) as f64);
            });
        }
        let s = runstats(&c);
        let mut cat = Catalog::new();
        cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Symbol").unwrap(),
            ValueKind::Str,
        );
        (c, s, cat)
    }

    /// `maintenance_cost` of `stmt`, prepared on the spot.
    fn cost(
        opt: &Optimizer<'_>,
        stats: &CollectionStats,
        pattern: &LinearPath,
        kind: ValueKind,
        index_stats: &IndexStats,
        stmt: &Statement,
    ) -> f64 {
        let prepared = opt.prepare(stmt);
        maintenance_cost(
            pattern,
            kind,
            index_stats,
            stmt,
            stats,
            &prepared,
            opt.cost_model(),
        )
    }

    #[test]
    fn queries_have_zero_maintenance() {
        let (c, s, cat) = setup();
        let opt = Optimizer::new(&c, &s, &cat);
        let q = parse_statement(
            r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "S1" return $s"#,
        )
        .unwrap();
        let def = cat.iter().next().unwrap();
        let mc = cost(&opt, &s, &def.pattern, def.kind, &def.stats, &q);
        assert_eq!(mc, 0.0);
    }

    #[test]
    fn insert_maintenance_charges_matching_entries() {
        let (c, s, cat) = setup();
        let opt = Optimizer::new(&c, &s, &cat);
        let ins =
            parse_statement("insert into SDOC <Security><Symbol>X</Symbol></Security>").unwrap();
        let def = cat.iter().next().unwrap();
        let mc = cost(&opt, &s, &def.pattern, def.kind, &def.stats, &ins);
        assert!((mc - opt.cost_model().update_entry).abs() < 1e-9);
    }

    #[test]
    fn delete_maintenance_scales_with_victims() {
        let (c, s, cat) = setup();
        let opt = Optimizer::new(&c, &s, &cat);
        let selective =
            parse_statement(r#"delete from SDOC where /Security[Symbol = "S3"]"#).unwrap();
        let broad = parse_statement(r#"delete from SDOC where /Security[Yield >= 0]"#).unwrap();
        let def = cat.iter().next().unwrap();
        let mc_sel = cost(&opt, &s, &def.pattern, def.kind, &def.stats, &selective);
        let mc_broad = cost(&opt, &s, &def.pattern, def.kind, &def.stats, &broad);
        assert!(mc_broad > mc_sel * 10.0, "sel={mc_sel} broad={mc_broad}");
    }

    #[test]
    fn update_charges_only_covering_indexes() {
        let (c, s, cat) = setup();
        let opt = Optimizer::new(&c, &s, &cat);
        let upd = parse_statement(
            r#"update SDOC set /Security/Yield = 9 where /Security[Symbol = "S3"]"#,
        )
        .unwrap();
        let sym = parse_linear_path("/Security/Symbol").unwrap();
        let yld = parse_linear_path("/Security/Yield").unwrap();
        let def = cat.iter().next().unwrap();
        let mc_sym = cost(&opt, &s, &sym, ValueKind::Str, &def.stats, &upd);
        let mc_yld = cost(&opt, &s, &yld, ValueKind::Num, &def.stats, &upd);
        assert_eq!(mc_sym, 0.0);
        assert!(mc_yld > 0.0);
    }
}
