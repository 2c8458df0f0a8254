//! Workload-template keys: the canonical cost identity of a statement.
//!
//! Two statements with the same template key are indistinguishable to the
//! cost model — same baseline cost, same what-if cost under every candidate
//! configuration, same maintenance charge — so the advisor may cost one
//! representative and multiply by the group's accumulated frequency
//! (CoPhy-style workload compression).
//!
//! The key deliberately collapses everything the cost model ignores and
//! keeps everything it consults:
//!
//! * Queries reduce to their access structure, exactly as
//!   [`normalize`](crate::normalize) exposes it: collection, iteration
//!   root, conjunctive patterns (step predicates in step order, then
//!   `where` conditions), disjunctive groups, and return paths (`order by`
//!   last). Comparison literals are collapsed to their
//!   [`ValueKind`](crate::ValueKind) — equality selectivity comes from
//!   aggregate distinct counts and string ranges use a constant heuristic,
//!   so the concrete value cannot change a cost — **except** numeric range
//!   comparisons (`<`, `<=`, `>`, `>=` on a number), whose selectivity is
//!   read from a per-path histogram at the literal's position; those keep
//!   the exact bit pattern of the value. Variable names, `let` aliases
//!   (expanded by the parser) and the surface language leave no trace.
//! * Modifications keep their full surface structure (via `Debug`):
//!   maintenance cost depends on the inserted payload, the set of matched
//!   target documents, and the updated path, so nothing is safe to
//!   collapse.
//!
//! # One walker, three sinks
//!
//! The key is produced by a single walk over the statement's AST,
//! [`write_template_key`], that emits the key's pieces to any
//! [`fmt::Write`] — no normalized copy of the statement, no intermediate
//! paths. What the sink is decides what the walk costs:
//!
//! * a fresh `String` is [`template_key`] (reports,
//!   `WorkloadTemplate.key`);
//! * an FNV-1a accumulator is [`template_fingerprint`]: a stable `u64`
//!   for content-addressed fault salts and drift histograms, making
//!   injected fault verdicts a function of *what* a statement is rather
//!   than *where* it sits in the workload — the property that keeps
//!   compression lossless under fault injection. It allocates nothing;
//! * a buffer the caller clears and reuses is the workload compressor's
//!   lookup key: statements that land in an existing template — nine in
//!   ten of a template-shaped stream — allocate nothing either.
//!
//! All three see the same bytes, so `template_fingerprint(s) ==
//! fnv1a(template_key(s))` by construction, and template identity is always
//! a comparison of whole keys, never of hashes. The bytes are those the
//! earlier `normalize` + `Display` rendering produced — that renderer is
//! kept, for tests only, as the oracle the walker is checked against — so
//! salts, journals and drift values are unchanged.

use crate::ast::{CmpOp, Literal, Predicate, Step};
use crate::linear::{Axis, LinearStep, NameTest};
use crate::statement::Statement;
use crate::xquery::{FlworQuery, ReturnExpr};
use std::fmt::{self, Write};

/// Writes the canonical template key of `stmt` to `out`, piece by piece.
/// Fails only if `out` does.
pub fn write_template_key<W: Write>(stmt: &Statement, out: &mut W) -> fmt::Result {
    match stmt {
        Statement::Query(q) => write_query_key(q, out),
        // Maintenance cost is content-dependent (inserted payload, matched
        // target documents, updated path): keep the whole statement.
        _ => write!(out, "m|{stmt:?}"),
    }
}

// The query walk writes string pieces directly instead of through
// `write!`: a hundred thousand statements pass here per compression, and
// the formatting machinery costs more than the bytes it moves.

fn write_query_key<W: Write>(q: &FlworQuery, out: &mut W) -> fmt::Result {
    let root = q.source.steps.as_slice();
    out.write_str("q|")?;
    out.write_str(&q.collection)?;
    out.write_char('|')?;
    write_path(out, root, &[])?;
    // Conjunctive patterns, each anchored at the prefix ending in the step
    // that carries the predicate; then the `where` conditions, anchored at
    // the root.
    for (i, step) in root.iter().enumerate() {
        for pred in &step.predicates {
            if !matches!(pred, Predicate::Or(_)) {
                out.write_char('|')?;
                write_step_pattern(out, &root[..=i], pred)?;
            }
        }
    }
    for cond in &q.conditions {
        out.write_char('|')?;
        write_path(out, root, &cond.rel)?;
        write_pred(out, cond.cmp.as_ref().map(|(op, value)| (*op, value)))?;
    }
    for (i, step) in root.iter().enumerate() {
        for pred in &step.predicates {
            if let Predicate::Or(branches) = pred {
                out.write_str("|or(")?;
                for (b, branch) in branches.iter().enumerate() {
                    if b > 0 {
                        out.write_char(',')?;
                    }
                    write_step_pattern(out, &root[..=i], branch)?;
                }
                out.write_char(')')?;
            }
        }
    }
    for r in &q.returns {
        out.write_str("|ret:")?;
        match r {
            ReturnExpr::Var => write_path(out, root, &[])?,
            ReturnExpr::Path(rel) => write_path(out, root, rel)?,
        }
    }
    // An `order by` key must be retrieved for every result.
    if let Some(rel) = &q.order_by {
        out.write_str("|ret:")?;
        write_path(out, root, rel)?;
    }
    Ok(())
}

/// The access pattern of a simple step predicate: the path to the tested
/// node, then the test.
fn write_step_pattern<W: Write>(out: &mut W, prefix: &[Step], pred: &Predicate) -> fmt::Result {
    match pred {
        Predicate::Compare { rel, op, value } => {
            write_path(out, prefix, rel)?;
            write_pred(out, Some((*op, value)))
        }
        Predicate::Exists { rel } => {
            write_path(out, prefix, rel)?;
            write_pred(out, None)
        }
        Predicate::Or(_) => unreachable!("nested Or is never produced by the parser"),
    }
}

/// `head` followed by `tail`, as the linear path they spell.
fn write_path<W: Write>(out: &mut W, head: &[Step], tail: &[LinearStep]) -> fmt::Result {
    if head.is_empty() && tail.is_empty() {
        return out.write_char('/');
    }
    let head = head.iter().map(|s| (s.axis, s.test));
    for (axis, test) in head.chain(tail.iter().map(|s| (s.axis, s.test))) {
        out.write_str(match axis {
            Axis::Child => "/",
            Axis::Descendant => "//",
        })?;
        match test {
            NameTest::Name(n) => out.write_str(n.as_str())?,
            NameTest::Wildcard => out.write_char('*')?,
        }
    }
    Ok(())
}

/// The test at a pattern's target: existence, or the operator and what
/// the cost model reads of the literal.
fn write_pred<W: Write>(out: &mut W, cmp: Option<(CmpOp, &Literal)>) -> fmt::Result {
    let Some((op, lit)) = cmp else {
        return out.write_str("?ex");
    };
    // The operator as its `Debug` name.
    out.write_str(match op {
        CmpOp::Eq => "?Eq",
        CmpOp::Ne => "?Ne",
        CmpOp::Lt => "?Lt",
        CmpOp::Le => "?Le",
        CmpOp::Gt => "?Gt",
        CmpOp::Ge => "?Ge",
    })?;
    match (op, lit) {
        // Numeric range selectivity is histogram-driven at the literal's
        // value: the exact bits are part of the identity, as sixteen hex
        // digits.
        (CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge, Literal::Num(v)) => {
            out.write_str(":n")?;
            let bits = v.to_bits();
            for shift in (0..16).rev() {
                let nibble = (bits >> (4 * shift)) & 0xf;
                out.write_char(char::from(b"0123456789abcdef"[nibble as usize]))?;
            }
            Ok(())
        }
        (_, Literal::Num(_)) => out.write_str(":n"),
        (_, Literal::Str(_)) => out.write_str(":s"),
    }
}

/// The canonical template key of a statement: equal keys ⇒ equal costs
/// under every configuration the advisor can propose.
pub fn template_key(stmt: &Statement) -> String {
    let mut key = String::new();
    write_template_key(stmt, &mut key).expect("writing to a String cannot fail");
    key
}

/// FNV-1a fingerprint of [`template_key`], computed as the key streams by
/// (no key is built): a stable content hash usable as a fault-stream salt
/// or compact template identity.
pub fn template_fingerprint(stmt: &Statement) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET);
    write_template_key(stmt, &mut hash).expect("hashing cannot fail");
    hash.0
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit state, fed by whatever is written to it.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_more(self.0, s.as_bytes());
        Ok(())
    }
}

fn fnv1a_more(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64-bit hash (std-only, stable across platforms and runs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_more(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, AccessPattern, PatternPred};
    use crate::xquery::parse_statement;

    /// The oracle: the key as it was rendered before the walker — normalize
    /// the statement into fresh `LinearPath`s, then `Display` them.
    fn oracle_key(stmt: &Statement) -> String {
        fn push_pattern(out: &mut String, p: &AccessPattern) {
            let _ = write!(out, "{}", p.linear);
            match &p.pred {
                PatternPred::Exists => out.push_str("?ex"),
                PatternPred::Compare(op, lit) => {
                    let _ = write!(out, "?{op:?}");
                    match (op, lit) {
                        (CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge, Literal::Num(v)) => {
                            let _ = write!(out, ":n{:016x}", v.to_bits());
                        }
                        (_, Literal::Num(_)) => out.push_str(":n"),
                        (_, Literal::Str(_)) => out.push_str(":s"),
                    }
                }
            }
        }
        if stmt.is_modification() {
            return format!("m|{stmt:?}");
        }
        let mut out = String::from("q|");
        let n = normalize(stmt).expect("queries normalize");
        let _ = write!(out, "{}|{}", n.collection, n.root);
        for p in &n.patterns {
            out.push('|');
            push_pattern(&mut out, p);
        }
        for g in &n.or_groups {
            out.push_str("|or(");
            for (i, p) in g.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_pattern(&mut out, p);
            }
            out.push(')');
        }
        for r in &n.returns {
            let _ = write!(out, "|ret:{r}");
        }
        out
    }

    /// SplitMix64, as `xia_workloads::prng` (which depends on this crate).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Small label alphabet (that of `tests/property_tests.rs`, plus names
    /// with the punctuation a name may carry) so that keys collide.
    const LABELS: [&str; 7] = ["a", "b", "c", "Security", "Sector", "x-y", "n.1"];

    fn name_test(rng: &mut Rng) -> &'static str {
        if rng.chance(20) {
            "*"
        } else {
            rng.pick(&LABELS)
        }
    }

    /// `/a//b/*`: one to `max` steps, each with its axis.
    fn abs_steps(rng: &mut Rng, max: usize) -> String {
        (0..1 + rng.below(max))
            .map(|_| format!("{}{}", rng.pick(&["/", "/", "//"]), name_test(rng)))
            .collect()
    }

    /// A predicate's relative path: `b/c`, `*//c`, `//c`, `./b`, `.//c`.
    fn rel_steps(rng: &mut Rng) -> String {
        let rest = abs_steps(rng, 3);
        match rng.below(4) {
            0 => format!(".{rest}"),
            1 if rest.starts_with("//") => rest,
            _ => rest.trim_start_matches('/').to_string(),
        }
    }

    fn literal(rng: &mut Rng) -> String {
        match rng.below(6) {
            0 => format!("\"{}\"", rng.pick(&["x", "Energy", "two words", ""])),
            1 => format!("'{}'", rng.pick(&["y", "it \"quotes\""])),
            2 => rng.pick(&["1", "2", "100", "-3"]).to_string(),
            3 => rng.pick(&["4.5", ".5", "-1.5e3", "+7", "1e21"]).to_string(),
            _ => rng.below(4).to_string(),
        }
    }

    fn comparison(rng: &mut Rng) -> String {
        let op = rng.pick(&["=", "!=", "<", "<=", ">", ">="]);
        format!("{op} {}", literal(rng))
    }

    fn simple_predicate(rng: &mut Rng) -> String {
        match rng.below(10) {
            0 => format!(". {}", comparison(rng)),
            1 => comparison(rng),
            2..=3 => rel_steps(rng),
            _ => format!("{} {}", rel_steps(rng), comparison(rng)),
        }
    }

    fn predicate(rng: &mut Rng) -> String {
        let branches = if rng.chance(25) { 2 + rng.below(2) } else { 1 };
        let body: Vec<String> = (0..branches).map(|_| simple_predicate(rng)).collect();
        format!("[{}]", body.join(rng.pick(&[" or ", " OR "])))
    }

    /// `/a[p]//b/c[q][r]`.
    fn path_expr(rng: &mut Rng) -> String {
        let mut out = String::new();
        for _ in 0..1 + rng.below(3) {
            out.push_str(&abs_steps(rng, 1));
            for _ in 0..[0, 0, 1, 1, 2][rng.below(5)] {
                out.push_str(&predicate(rng));
            }
        }
        out
    }

    fn collection(rng: &mut Rng) -> &'static str {
        rng.pick(&["C", "SDOC", "ODOC"])
    }

    fn flwor(rng: &mut Rng) -> String {
        let mut vars = vec!["$v".to_string()];
        let mut out = format!(
            "{} $v {} {}('{}'){}",
            rng.pick(&["for", "FOR"]),
            rng.pick(&["in", "IN"]),
            rng.pick(&["S", "collection", "FORECAST"]),
            collection(rng),
            path_expr(rng)
        );
        for i in 0..rng.below(3) {
            let from = vars[rng.below(vars.len())].clone();
            out.push_str(&format!(" let $l{i} := {from}{}", abs_steps(rng, 2)));
            vars.push(format!("$l{i}"));
        }
        let var_path = |rng: &mut Rng, min: usize| {
            let var = vars[rng.below(vars.len())].clone();
            if min == 0 && rng.chance(30) {
                var
            } else {
                format!("{var}{}", abs_steps(rng, 3))
            }
        };
        if rng.chance(60) {
            let conds: Vec<String> = (0..1 + rng.below(3))
                .map(|_| {
                    let path = var_path(rng, 1);
                    if rng.chance(25) {
                        path
                    } else {
                        format!("{path} {}", comparison(rng))
                    }
                })
                .collect();
            out.push_str(&format!(" where {}", conds.join(" and ")));
        }
        if rng.chance(30) {
            out.push_str(&format!(
                " order by {}{}",
                var_path(rng, 0),
                rng.pick(&["", " ascending", " descending"])
            ));
        }
        out.push_str(" return ");
        if rng.chance(30) {
            let items: Vec<String> = (0..1 + rng.below(3)).map(|_| var_path(rng, 0)).collect();
            out.push_str(&format!("<Out>{{{}}}</Out>", items.join(", ")));
        } else {
            out.push_str(&var_path(rng, 0));
        }
        out
    }

    fn sqlxml(rng: &mut Rng) -> String {
        // Every embedded path shares its first step; string literals inside
        // the single-quoted XPath use double quotes.
        let embedded = |rng: &mut Rng| loop {
            let path = format!("$d/Security{}", path_expr(rng));
            if !path.contains('\'') {
                return path;
            }
        };
        let select = if rng.chance(50) {
            "*".to_string()
        } else {
            let list: Vec<String> = (0..1 + rng.below(2))
                .map(|_| format!("XMLQUERY('$d/Security{}')", abs_steps(rng, 2)))
                .collect();
            list.join(", ")
        };
        let conds: Vec<String> = (0..1 + rng.below(3))
            .map(|_| format!("XMLEXISTS('{}')", embedded(rng)))
            .collect();
        format!(
            "SELECT {select} FROM {} WHERE {}",
            collection(rng),
            conds.join(" AND ")
        )
    }

    /// One random statement of a random kind.
    fn statement_text(rng: &mut Rng) -> String {
        match rng.below(10) {
            0..=2 => format!(
                "{}('{}'){}",
                rng.pick(&["collection", "updates", "SELECTION"]),
                collection(rng),
                path_expr(rng)
            ),
            3..=5 => flwor(rng),
            6 => sqlxml(rng),
            7 => format!("delete from {} where {}", collection(rng), path_expr(rng)),
            8 => format!(
                "update {} set {} = {} where {}",
                collection(rng),
                abs_steps(rng, 3),
                literal(rng),
                path_expr(rng)
            ),
            _ => format!(
                "insert into {} <a><b>{}</b></a>",
                collection(rng),
                rng.below(50)
            ),
        }
    }

    #[test]
    fn the_walker_writes_what_normalize_and_display_rendered() {
        let mut rng = Rng(0x7e3a);
        let mut reused = String::new();
        let mut kinds = [0usize; 2];
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..4000 {
            let text = statement_text(&mut rng);
            let stmt = parse_statement(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let key = template_key(&stmt);
            assert_eq!(key, oracle_key(&stmt), "{text}");
            assert_eq!(template_fingerprint(&stmt), fnv1a(key.as_bytes()), "{text}");
            // The compressor's sink: one buffer, cleared between statements.
            reused.clear();
            write_template_key(&stmt, &mut reused).unwrap();
            assert_eq!(reused, key, "{text}");
            kinds[usize::from(stmt.is_modification())] += 1;
            distinct.insert(key);
        }
        assert!(kinds[0] > 2000 && kinds[1] > 500, "{kinds:?}");
        // The alphabet is small enough for keys to repeat and large enough
        // for most not to.
        assert!(distinct.len() > 1000 && distinct.len() < 4000);
    }

    #[test]
    fn hand_built_statements_with_empty_paths_render_the_root_slash() {
        use crate::ast::PathExpr;
        use crate::xquery::WhereCond;
        let stmt = Statement::Query(FlworQuery {
            collection: "C".into(),
            var: None,
            source: PathExpr::default(),
            lets: Vec::new(),
            conditions: vec![WhereCond {
                rel: Vec::new(),
                cmp: None,
            }],
            order_by: Some(vec![LinearStep::child("k")]),
            returns: vec![ReturnExpr::Var],
        });
        assert_eq!(template_key(&stmt), "q|C|/|/?ex|ret:/|ret:/k");
        assert_eq!(template_key(&stmt), oracle_key(&stmt));
    }

    fn key(s: &str) -> String {
        template_key(&parse_statement(s).unwrap())
    }

    #[test]
    fn equality_literals_collapse() {
        let a = key(r#"for $s in S('C')/a where $s/b = "x" return $s"#);
        let b = key(r#"for $s in S('C')/a where $s/b = "y" return $s"#);
        assert_eq!(a, b);
        // ...but a different value *kind* does not collapse.
        let c = key(r#"for $s in S('C')/a where $s/b = 3 return $s"#);
        assert_ne!(a, c);
    }

    #[test]
    fn numeric_range_literals_are_kept() {
        let a = key("for $s in S('C')/a where $s/b > 1 return $s");
        let b = key("for $s in S('C')/a where $s/b > 2 return $s");
        assert_ne!(a, b);
        let a2 = key("for $s in S('C')/a where $s/b > 1 return $s");
        assert_eq!(a, a2);
    }

    #[test]
    fn numeric_equality_collapses_but_op_distinguishes() {
        let eq1 = key("for $s in S('C')/a where $s/b = 1 return $s");
        let eq2 = key("for $s in S('C')/a where $s/b = 2 return $s");
        assert_eq!(eq1, eq2);
        let ge1 = key("for $s in S('C')/a where $s/b >= 1 return $s");
        assert_ne!(eq1, ge1);
    }

    #[test]
    fn structure_distinguishes() {
        let a = key("for $s in S('C')/a return $s");
        let b = key("for $s in S('C')/a/b return $s");
        let c = key("for $s in S('D')/a return $s");
        assert_ne!(a, b);
        assert_ne!(a, c);
        let ex = key("for $s in S('C')/a where $s/b return $s");
        assert_ne!(a, ex);
    }

    #[test]
    fn returns_and_or_groups_matter() {
        let a = key("for $s in S('C')/a return $s");
        let b = key("for $s in S('C')/a return $s/b");
        assert_ne!(a, b);
        let o1 = key(r#"collection('C')/a[b = 1 or c = 2]"#);
        let o2 = key(r#"collection('C')/a[b = 1]"#);
        assert_ne!(o1, o2);
    }

    #[test]
    fn modifications_never_collapse_content() {
        let i1 = key("insert into C <a><b>1</b></a>");
        let i2 = key("insert into C <a><b>2</b></a>");
        assert_ne!(i1, i2);
        // Update values feed maintenance cost; keep them distinct.
        let u1 = key("update C set /a/x = 1 where /a");
        let u2 = key("update C set /a/x = 2 where /a");
        assert_ne!(u1, u2);
        let d1 = key("delete from C where /a[b = 1]");
        let d2 = key("delete from C where /a[b = 2]");
        assert_ne!(d1, d2);
        assert!(i1.starts_with("m|"));
    }

    #[test]
    fn identical_statements_share_fingerprint() {
        let s1 = parse_statement(r#"for $s in S('C')/a where $s/b = "x" return $s"#).unwrap();
        let s2 = parse_statement(r#"for $s in S('C')/a where $s/b = "z" return $s"#).unwrap();
        assert_eq!(template_fingerprint(&s1), template_fingerprint(&s2));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Known FNV-1a vectors: the empty string and "a".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
