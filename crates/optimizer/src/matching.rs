//! Index matching: which catalog indexes can answer which query patterns.
//!
//! An index with pattern `P` and kind `K` matches an access pattern `(Q,
//! pred)` iff `P` *covers* `Q` (language inclusion over rooted label paths)
//! and `K` equals the predicate's literal type. This is the optimizer-side
//! index-matching step the paper's candidate enumeration piggybacks on.

use xia_storage::{Catalog, CatalogView, IndexDef};
use xia_xpath::{
    contain, AccessPattern, CmpOp, LinearPath, PatternPred, Statement, StatementSignature,
    ValueKind,
};

/// A candidate index pattern enumerated by the optimizer for one statement
/// (the output of the Enumerate Indexes mode).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePattern {
    /// Collection the statement (and hence the index) targets.
    pub collection: String,
    /// The linear index pattern (the access pattern's path, verbatim — the
    /// paper's basic candidates keep the wildcard steps the query exposed,
    /// cf. C2 in Table I).
    pub pattern: LinearPath,
    /// Key type implied by the compared literal.
    pub kind: ValueKind,
}

/// Whether the access pattern can be answered by *some* index — the check
/// the `//*` universal virtual index performs in Enumerate mode. `!=`
/// predicates are not index-matched (a B-tree probe cannot narrow them);
/// existence tests are answered structurally (the index's per-path
/// document lists).
pub fn pattern_is_indexable(ap: &AccessPattern) -> bool {
    match &ap.pred {
        PatternPred::Compare(op, _) => *op != CmpOp::Ne,
        PatternPred::Exists => true,
    }
}

/// Whether index `def` matches access pattern `ap`. Value comparisons
/// additionally require the key types to agree; existence tests are
/// key-type independent.
pub fn index_matches(def: &IndexDef, ap: &AccessPattern) -> bool {
    if !pattern_is_indexable(ap) {
        return false;
    }
    match ap.pred.value_kind() {
        Some(kind) => kind == def.kind && contain::covers(&def.pattern, &ap.linear),
        // Existence: any kind works (structural postings are kept either
        // way).
        None => contain::covers(&def.pattern, &ap.linear),
    }
}

/// The statement's index-matching surface: every indexable access pattern
/// its plans could probe an index with, plus the collection. Plan costing
/// consults the catalog *only* through [`index_matches`] over these
/// patterns (inserts never consult it at all), so an index matching none
/// of them cannot influence the statement's plan or cost — this is what
/// the advisor's relevance pruning is derived from.
pub fn statement_signature(stmt: &Statement) -> StatementSignature {
    match xia_xpath::normalize_statement(stmt) {
        Some(nq) => {
            let targets = nq
                .patterns
                .iter()
                .chain(nq.or_groups.iter().flatten())
                .filter(|ap| pattern_is_indexable(ap))
                .map(|ap| (ap.linear.clone(), ap.pred.value_kind()))
                .collect();
            StatementSignature {
                collection: nq.collection,
                targets,
            }
        }
        // Inserts read nothing: their plans are catalog-independent.
        None => StatementSignature {
            collection: stmt.collection().to_string(),
            targets: Vec::new(),
        },
    }
}

/// All live catalog indexes matching an access pattern.
pub fn matching_indexes<'c>(catalog: &'c Catalog, ap: &AccessPattern) -> Vec<&'c IndexDef> {
    matching_indexes_view(catalog.view(), ap)
}

/// [`matching_indexes`] over a catalog view (base catalog plus an optional
/// what-if overlay) — the side-effect-free form Evaluate mode uses.
pub fn matching_indexes_view<'c>(view: CatalogView<'c>, ap: &AccessPattern) -> Vec<&'c IndexDef> {
    view.iter().filter(|d| index_matches(d, ap)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_storage::{runstats, Collection};
    use xia_xpath::{parse_linear_path, Literal};

    fn ap(path: &str, op: CmpOp, lit: Literal) -> AccessPattern {
        AccessPattern {
            linear: parse_linear_path(path).unwrap(),
            pred: PatternPred::Compare(op, lit),
        }
    }

    fn catalog_with(patterns: &[(&str, ValueKind)]) -> Catalog {
        let mut c = Collection::new("SDOC");
        c.build_doc("Security", |b| {
            b.leaf("Symbol", "IBM");
            b.leaf("Yield", 4.5);
        });
        let s = runstats(&c);
        let mut cat = Catalog::new();
        for (p, k) in patterns {
            cat.create_virtual(&c, &s, &parse_linear_path(p).unwrap(), *k);
        }
        cat
    }

    #[test]
    fn exact_pattern_matches() {
        let cat = catalog_with(&[("/Security/Symbol", ValueKind::Str)]);
        let a = ap("/Security/Symbol", CmpOp::Eq, Literal::Str("IBM".into()));
        assert_eq!(matching_indexes(&cat, &a).len(), 1);
    }

    #[test]
    fn general_index_matches_specific_pattern() {
        let cat = catalog_with(&[("/Security//*", ValueKind::Str)]);
        let a = ap("/Security/Symbol", CmpOp::Eq, Literal::Str("IBM".into()));
        assert_eq!(matching_indexes(&cat, &a).len(), 1);
    }

    #[test]
    fn specific_index_does_not_match_general_pattern() {
        let cat = catalog_with(&[("/Security/Symbol", ValueKind::Str)]);
        let a = ap("/Security//*", CmpOp::Eq, Literal::Str("IBM".into()));
        assert!(matching_indexes(&cat, &a).is_empty());
    }

    #[test]
    fn kind_must_match() {
        let cat = catalog_with(&[("/Security/Yield", ValueKind::Str)]);
        let a = ap("/Security/Yield", CmpOp::Gt, Literal::Num(4.0));
        assert!(matching_indexes(&cat, &a).is_empty());
    }

    #[test]
    fn ne_is_not_indexable() {
        let cat = catalog_with(&[("/Security/Symbol", ValueKind::Str)]);
        let a = ap("/Security/Symbol", CmpOp::Ne, Literal::Str("IBM".into()));
        assert!(matching_indexes(&cat, &a).is_empty());
    }

    #[test]
    fn exists_matches_indexes_of_any_kind() {
        let cat = catalog_with(&[
            ("/Security/Symbol", ValueKind::Str),
            ("/Security/Symbol", ValueKind::Num),
        ]);
        let e = AccessPattern {
            linear: parse_linear_path("/Security/Symbol").unwrap(),
            pred: PatternPred::Exists,
        };
        assert!(pattern_is_indexable(&e));
        assert_eq!(matching_indexes(&cat, &e).len(), 2);
    }

    #[test]
    fn statement_signature_exposes_indexable_targets() {
        let stmt = xia_xpath::parse_statement(
            r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "IBM" and $s/Yield > 4.0 return $s"#,
        )
        .unwrap();
        let sig = statement_signature(&stmt);
        assert_eq!(sig.collection, "SDOC");
        assert!(sig
            .targets
            .iter()
            .any(|(p, k)| p.to_string() == "/Security/Symbol" && *k == Some(ValueKind::Str)));
        assert!(sig
            .targets
            .iter()
            .any(|(p, k)| p.to_string() == "/Security/Yield" && *k == Some(ValueKind::Num)));
        // The signature admits exactly what index_matches would accept.
        assert!(sig.admits(
            "SDOC",
            &parse_linear_path("/Security//*").unwrap(),
            ValueKind::Str
        ));
        assert!(!sig.admits(
            "SDOC",
            &parse_linear_path("/Order/Price").unwrap(),
            ValueKind::Str
        ));
    }

    #[test]
    fn insert_signature_is_empty() {
        let stmt =
            xia_xpath::parse_statement("insert into SDOC <Security><Symbol>GE</Symbol></Security>")
                .unwrap();
        let sig = statement_signature(&stmt);
        assert_eq!(sig.collection, "SDOC");
        assert!(sig.targets.is_empty());
    }

    #[test]
    fn multiple_indexes_can_match_one_pattern() {
        let cat = catalog_with(&[
            ("/Security/Symbol", ValueKind::Str),
            ("/Security//*", ValueKind::Str),
            ("//Symbol", ValueKind::Str),
        ]);
        let a = ap("/Security/Symbol", CmpOp::Eq, Literal::Str("IBM".into()));
        assert_eq!(matching_indexes(&cat, &a).len(), 3);
    }
}
