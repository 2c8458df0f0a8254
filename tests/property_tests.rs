//! Property-based tests over the core path algebra and data structures.
//!
//! Cases are generated with the workspace's internal deterministic PRNG
//! (`xia_workloads::prng`) rather than `proptest` — the build environment
//! has no registry access. Each test fixes its seed, so failures are
//! reproducible; the printed case in the assertion message is the
//! counterexample.

use xia_advisor::{generalize_pair, StmtSet};
use xia_workloads::prng::Prng;
use xia_xml::{parse_document, write_document, Vocabulary};
use xia_xpath::{
    contain, parse_linear_path, parse_path_expr, Axis, CmpOp, LinearPath, LinearStep, Literal,
    NameTest, PathExpr, Predicate, Step,
};

/// Small label alphabet so containment relations actually occur.
const LABELS: [&str; 5] = ["a", "b", "c", "Security", "Sector"];

fn label(rng: &mut Prng) -> String {
    LABELS[rng.gen_range(0..LABELS.len())].to_string()
}

fn step(rng: &mut Prng) -> LinearStep {
    let axis = if rng.gen_bool(0.5) {
        Axis::Child
    } else {
        Axis::Descendant
    };
    let test = if rng.gen_bool(0.25) {
        NameTest::Wildcard
    } else {
        NameTest::name_of(&label(rng))
    };
    LinearStep { axis, test }
}

fn linear_path(rng: &mut Prng) -> LinearPath {
    let n = rng.gen_range(1..6);
    LinearPath::new((0..n).map(|_| step(rng)).collect())
}

fn label_seq(rng: &mut Prng) -> Vec<String> {
    let n = rng.gen_range(0..6);
    (0..n).map(|_| label(rng)).collect()
}

#[test]
fn containment_is_reflexive() {
    let mut rng = Prng::seed_from_u64(0x01);
    for _ in 0..256 {
        let p = linear_path(&mut rng);
        assert!(contain::covers(&p, &p), "{p} does not cover itself");
    }
}

#[test]
fn containment_is_transitive() {
    let mut rng = Prng::seed_from_u64(0x02);
    for _ in 0..2000 {
        let a = linear_path(&mut rng);
        let b = linear_path(&mut rng);
        let c = linear_path(&mut rng);
        if contain::covers(&a, &b) && contain::covers(&b, &c) {
            assert!(contain::covers(&a, &c), "{a} ⊇ {b} ⊇ {c} but not {a} ⊇ {c}");
        }
    }
}

#[test]
fn containment_agrees_with_matching() {
    // If g covers s, every word matched by s is matched by g.
    let mut rng = Prng::seed_from_u64(0x03);
    for _ in 0..2000 {
        let g = linear_path(&mut rng);
        let s = linear_path(&mut rng);
        let w = label_seq(&mut rng);
        if contain::covers(&g, &s) {
            let labels: Vec<&str> = w.iter().map(|x| x.as_str()).collect();
            if s.matches_labels(&labels) {
                assert!(
                    g.matches_labels(&labels),
                    "{g} covers {s} but misses {labels:?}"
                );
            }
        }
    }
}

#[test]
fn universal_covers_all() {
    let mut rng = Prng::seed_from_u64(0x04);
    for _ in 0..256 {
        let p = linear_path(&mut rng);
        assert!(contain::covers(&LinearPath::universal(), &p), "{p}");
    }
}

#[test]
fn display_parse_round_trip() {
    let mut rng = Prng::seed_from_u64(0x05);
    for _ in 0..256 {
        let p = linear_path(&mut rng);
        let s = p.to_string();
        let q = parse_linear_path(&s).expect("display must re-parse");
        assert_eq!(p, q, "round trip through `{s}`");
    }
}

fn simple_predicate(rng: &mut Prng) -> Predicate {
    // An empty relative path is the context node, printed `.`.
    let rel: Vec<LinearStep> = (0..rng.gen_range(0..4)).map(|_| step(rng)).collect();
    if !rel.is_empty() && rng.gen_bool(0.3) {
        return Predicate::Exists { rel };
    }
    let op = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][rng.gen_range(0..6)];
    let value = match rng.gen_range(0..4) {
        0 => Literal::Str(label(rng).into()),
        1 => Literal::Str(["", "two words", "it's"][rng.gen_range(0..3)].into()),
        2 => Literal::Num(rng.gen_range(-50i64..50) as f64),
        // Any finite double: `Display` prints the shortest decimal that
        // reads back as the same bits, never an exponent.
        _ => Literal::Num([4.5, -0.125, 1e21, 1e-7, f64::MAX, 5e-324][rng.gen_range(0..6)]),
    };
    Predicate::Compare { rel, op, value }
}

fn path_expr(rng: &mut Prng) -> PathExpr {
    let steps = (0..rng.gen_range(1..5))
        .map(|_| {
            let LinearStep { axis, test } = step(rng);
            let predicates = (0..rng.gen_range(0..3))
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        Predicate::Or(
                            (0..rng.gen_range(2..4))
                                .map(|_| simple_predicate(rng))
                                .collect(),
                        )
                    } else {
                        simple_predicate(rng)
                    }
                })
                .collect();
            Step {
                axis,
                test,
                predicates,
            }
        })
        .collect();
    PathExpr { steps }
}

/// What `Display` prints for a path expression — `or` groups, existence
/// tests, the context node `.`, `.//x`, numeric ranges — parses back to it.
#[test]
fn path_expr_display_parse_round_trip() {
    let mut rng = Prng::seed_from_u64(0x18);
    let (mut context_nodes, mut ors) = (0, 0);
    for _ in 0..1024 {
        let expr = path_expr(&mut rng);
        let printed = expr.to_string();
        assert_eq!(
            parse_path_expr(&printed),
            Ok(expr),
            "round trip through `{printed}`"
        );
        context_nodes += usize::from(printed.contains("[. ") || printed.contains(" or . "));
        ors += usize::from(printed.contains(" or "));
    }
    assert!(context_nodes > 50 && ors > 100, "{context_nodes} {ors}");
}

#[test]
fn rewrite_rule0_preserves_matching() {
    // Rule 0 only *widens* the language (/* middle steps become //), so
    // any match of the original is a match of the rewrite.
    let mut rng = Prng::seed_from_u64(0x06);
    for _ in 0..1000 {
        let p = linear_path(&mut rng);
        let w = label_seq(&mut rng);
        let r = p.rewrite_rule0();
        let labels: Vec<&str> = w.iter().map(|x| x.as_str()).collect();
        if p.matches_labels(&labels) {
            assert!(r.matches_labels(&labels), "{p} -> {r} lost {labels:?}");
        }
        // And the rewrite covers the original pattern as a language.
        assert!(contain::covers(&r, &p), "{r} !⊇ {p}");
    }
}

#[test]
fn generalization_covers_both_inputs() {
    let mut rng = Prng::seed_from_u64(0x07);
    for _ in 0..512 {
        let a = linear_path(&mut rng);
        let b = linear_path(&mut rng);
        for g in generalize_pair(&a, &b) {
            assert!(contain::covers(&g, &a), "{g} !⊇ {a}");
            assert!(contain::covers(&g, &b), "{g} !⊇ {b}");
        }
    }
}

#[test]
fn generalization_is_symmetric() {
    let mut rng = Prng::seed_from_u64(0x08);
    for _ in 0..512 {
        let a = linear_path(&mut rng);
        let b = linear_path(&mut rng);
        let mut ab = generalize_pair(&a, &b);
        let mut ba = generalize_pair(&b, &a);
        ab.sort();
        ba.sort();
        assert_eq!(ab, ba, "generalize({a}, {b}) not symmetric");
    }
}

#[test]
fn stmtset_behaves_like_btreeset() {
    let mut rng = Prng::seed_from_u64(0x09);
    for _ in 0..256 {
        let n = rng.gen_range(0..60);
        let mut set = StmtSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n {
            let idx = rng.gen_range(0..200usize);
            set.insert(idx);
            model.insert(idx);
        }
        assert_eq!(set.len(), model.len());
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>()
        );
        for i in 0..200 {
            assert_eq!(set.contains(i), model.contains(&i));
        }
    }
}

#[test]
fn stmtset_union_is_union() {
    let mut rng = Prng::seed_from_u64(0x0a);
    for _ in 0..256 {
        let xs: Vec<usize> = (0..rng.gen_range(0..30))
            .map(|_| rng.gen_range(0..128usize))
            .collect();
        let ys: Vec<usize> = (0..rng.gen_range(0..30))
            .map(|_| rng.gen_range(0..128usize))
            .collect();
        let mut a = StmtSet::new();
        for &x in &xs {
            a.insert(x);
        }
        let mut b = StmtSet::new();
        for &y in &ys {
            b.insert(y);
        }
        let mut u = a.clone();
        u.union_with(&b);
        let model: std::collections::BTreeSet<usize> =
            xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            model.into_iter().collect::<Vec<_>>()
        );
        assert!(u.is_superset(&a) && u.is_superset(&b));
    }
}

/// Generalization-DAG invariants: every parent pattern covers every child
/// pattern semantically, kinds and collections agree along edges, and
/// roots have no parents.
#[test]
fn generalization_dag_parents_cover_children() {
    use xia_advisor::candidate::CandOrigin;
    use xia_advisor::{generalize_set, CandidateSet};

    let mut rng = Prng::seed_from_u64(0x0b);
    for _ in 0..48 {
        let leaves: Vec<Vec<String>> = (0..rng.gen_range(2..6))
            .map(|_| (0..rng.gen_range(1..4)).map(|_| label(&mut rng)).collect())
            .collect();
        let mut set = CandidateSet::new();
        for path in &leaves {
            let mut steps = vec!["root".to_string()];
            steps.extend(path.iter().cloned());
            let text = format!("/{}", steps.join("/"));
            let pattern = parse_linear_path(&text).expect("constructed path parses");
            set.insert("C", &pattern, xia_xpath::ValueKind::Str, CandOrigin::Basic);
        }
        generalize_set(&mut set);
        for c in set.iter() {
            for &child in &c.children {
                let ch = set.get(child);
                assert_eq!(&c.collection, &ch.collection);
                assert_eq!(c.kind, ch.kind);
                assert!(
                    contain::covers(&c.pattern, &ch.pattern),
                    "{} does not cover child {}",
                    c.pattern,
                    ch.pattern
                );
                assert!(ch.parents.contains(&c.id));
            }
        }
        for root in set.roots() {
            assert!(set.get(root).parents.is_empty());
        }
    }
}

#[path = "support/naive_fixpoint.rs"]
mod naive_fixpoint;

/// Fast-path parity: the semi-naive generalization fixpoint produces the
/// same candidate set — patterns, origins, DAG edge vectors in stored
/// order — as the literal Algorithm 1 loop, on randomized
/// multi-collection, multi-kind workloads.
#[test]
fn semi_naive_fixpoint_matches_naive() {
    use naive_fixpoint::{dump, naive_fixpoint};
    use xia_advisor::candidate::CandOrigin;
    use xia_advisor::{generalize_set_fast, CandidateSet};
    use xia_obs::{EventJournal, Telemetry};

    let mut rng = Prng::seed_from_u64(0x0c);
    let colls = ["C1", "C2"];
    let kinds = [xia_xpath::ValueKind::Str, xia_xpath::ValueKind::Num];
    for _ in 0..48 {
        let mut seeds = Vec::new();
        for _ in 0..rng.gen_range(2..8) {
            let depth = rng.gen_range(1..4);
            let mut steps = vec!["root".to_string()];
            steps.extend((0..depth).map(|_| label(&mut rng)));
            seeds.push((
                colls[rng.gen_range(0..colls.len())],
                format!("/{}", steps.join("/")),
                kinds[rng.gen_range(0..kinds.len())],
            ));
        }
        let build = || {
            let mut set = CandidateSet::new();
            for (coll, text, kind) in &seeds {
                let pattern = parse_linear_path(text).expect("constructed path parses");
                set.insert(coll, &pattern, *kind, CandOrigin::Basic);
            }
            set
        };
        let mut naive = build();
        let mut fast = build();
        let (created_naive, _) = naive_fixpoint(&mut naive);
        let created_fast = generalize_set_fast(&mut fast, &Telemetry::off(), &EventJournal::off());
        assert_eq!(created_naive, created_fast, "created ids diverge");
        assert_eq!(dump(&naive), dump(&fast), "seeds {seeds:?}");
    }
}

/// The name-mask fast reject is sound: whenever the mask pre-check says
/// "cannot cover", the full NFA containment search agrees. (Completeness
/// is not required — a bloom collision may let a non-covering pair through
/// to the full search — but a true containment must never be rejected.)
#[test]
fn name_mask_never_rejects_true_containment() {
    let mut rng = Prng::seed_from_u64(0x0d);
    for _ in 0..4000 {
        let g = linear_path(&mut rng);
        let s = linear_path(&mut rng);
        if contain::covers(&g, &s) {
            assert_eq!(
                g.name_mask() & !s.name_mask(),
                0,
                "mask would reject true containment {g} ⊇ {s}"
            );
        }
    }
}

/// The interner round-trips every name that survives a parse: the symbol
/// resolved from a parsed step yields the original text, and re-interning
/// that text yields the same symbol.
#[test]
fn interner_round_trips_parsed_names() {
    let mut rng = Prng::seed_from_u64(0x0e);
    for i in 0..512 {
        // Mix the shared label alphabet with fresh unique names so both
        // the read-lock hit path and the insert path are exercised.
        let name = if rng.gen_bool(0.5) {
            label(&mut rng)
        } else {
            format!("uniq_pt_{i}")
        };
        let text = format!("/{name}//{name}");
        let p = parse_linear_path(&text).expect("constructed path parses");
        for step in &p.steps {
            let sym = step.test.sym().expect("named step");
            assert_eq!(sym.as_str(), name, "symbol text diverged");
            assert_eq!(xia_xpath::intern(&name), sym, "re-interning diverged");
        }
    }
}

/// Plan-equivalence: for random data and random queries over it, a forced
/// full scan and the optimizer's chosen (possibly index-ANDing) plan must
/// produce identical results.
#[test]
fn index_plans_agree_with_scan_plans() {
    use xia_advisor::{Advisor, AdvisorParams};
    use xia_optimizer::{execute_query, AccessChoice, Optimizer, Plan};
    use xia_storage::Database;
    use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
    use xia_workloads::tpox::{self, TpoxConfig};
    use xia_workloads::Workload;

    let mut case_rng = Prng::seed_from_u64(0x0c);
    for _ in 0..8 {
        let seed = case_rng.gen_range(0u64..1000);
        let wl_seed = case_rng.gen_range(0u64..1000);
        let mut db = Database::new();
        tpox::generate(
            &mut db,
            &TpoxConfig {
                securities: 40,
                orders: 60,
                customers: 30,
                seed,
            },
        );
        let queries = generate_queries(
            db.collection("SDOC").expect("generated"),
            &SyntheticConfig {
                queries: 6,
                seed: wl_seed,
                ..Default::default()
            },
        );
        let workload = Workload::from_texts(queries.iter().map(|s| s.as_str())).expect("parse");
        // Materialize every basic candidate physically.
        let set = Advisor::prepare(&mut db, &workload, &AdvisorParams::default());
        let basics = Advisor::all_index_config(&set);
        Advisor::materialize(&mut db, &set, &basics);
        db.runstats_all();

        for entry in workload.entries() {
            let coll = entry.statement.collection();
            let (collection, catalog, stats) = db.parts(coll).expect("collection exists");
            let optimizer = Optimizer::new(collection, stats, catalog);
            let plan = optimizer.optimize(entry.statement);
            let scan = Plan {
                access: AccessChoice::Scan,
                ..plan.clone()
            };
            let via_plan =
                execute_query(entry.statement, &plan, collection, catalog).expect("exec");
            let via_scan =
                execute_query(entry.statement, &scan, collection, catalog).expect("exec");
            assert_eq!(
                via_plan.docs_matched, via_scan.docs_matched,
                "plan {} disagrees with scan on `{}` (seed {seed}/{wl_seed})",
                plan, entry.text
            );
            assert_eq!(via_plan.items, via_scan.items);
        }
    }
}

/// Random well-formed text content, biased toward entity references and
/// numerics so value decoding and the numeric column both get exercised.
fn random_text(rng: &mut Prng) -> String {
    match rng.gen_range(0..6) {
        0 => "plain value".to_string(),
        1 => format!("{}", rng.gen_range(0..50)),
        2 => format!("{}.5", rng.gen_range(0..20)),
        3 => "a &amp; b &lt;ok&gt; &quot;q&quot;".to_string(),
        4 => "&#65;&#x42;c".to_string(),
        _ => "  spaced  ".to_string(),
    }
}

const CDATA_BLOCKS: [&str; 3] = [
    "<![CDATA[keep & raw &# and &foo; verbatim]]>",
    "<![CDATA[1 < 2 > 0]]>",
    "<![CDATA[x]]>",
];

/// Random well-formed XML element: attributes (with entities), text,
/// CDATA, self-closing tags, mixed children, stray whitespace.
fn random_xml_element(rng: &mut Prng, depth: usize, out: &mut String) {
    let name = label(rng);
    out.push('<');
    out.push_str(&name);
    for i in 0..rng.gen_range(0..3) {
        out.push_str(&format!(" at{i}=\"{}\"", random_text(rng).trim()));
    }
    if rng.gen_bool(0.15) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    if depth == 0 || rng.gen_bool(0.4) {
        match rng.gen_range(0..3) {
            0 => out.push_str(&random_text(rng)),
            1 => out.push_str(CDATA_BLOCKS[rng.gen_range(0..CDATA_BLOCKS.len())]),
            _ => {}
        }
    } else {
        for _ in 0..rng.gen_range(1..4) {
            if rng.gen_bool(0.3) {
                out.push_str("\n  ");
            }
            random_xml_element(rng, depth - 1, out);
        }
        if rng.gen_bool(0.3) {
            out.push('\n');
        }
    }
    out.push_str(&format!("</{name}>"));
}

/// Tentpole parity property: the streaming (SAX-style) parse path must
/// produce exactly the same document arena *and* the same vocabulary
/// (name/path intern order) as the DOM parser, over randomized documents
/// covering CDATA, entity references, attributes, mixed content, and
/// self-closing tags — plus nesting at the depth cap.
#[test]
fn streaming_parse_matches_dom() {
    use xia_xml::{parse_document_streaming, MAX_XML_DEPTH};

    let mut rng = Prng::seed_from_u64(0x12);
    for case in 0..256 {
        let mut text = String::new();
        random_xml_element(&mut rng, 4, &mut text);
        let mut v_dom = Vocabulary::new();
        let d_dom = parse_document(&text, &mut v_dom)
            .unwrap_or_else(|e| panic!("case {case}: generated XML must parse: {e}\n`{text}`"));
        let mut v_stream = Vocabulary::new();
        let d_stream = parse_document_streaming(&text, &mut v_stream)
            .unwrap_or_else(|e| panic!("case {case}: streaming rejected valid XML: {e}\n`{text}`"));
        assert_eq!(d_dom, d_stream, "case {case}: arenas diverge on `{text}`");
        assert_eq!(
            v_dom, v_stream,
            "case {case}: vocabularies diverge on `{text}`"
        );
    }

    // Nesting one level under the cap parses identically; one level past
    // it, both parsers reject.
    for depth in [MAX_XML_DEPTH - 1, MAX_XML_DEPTH + 1] {
        let text = format!("{}v{}", "<d>".repeat(depth), "</d>".repeat(depth));
        let mut v_dom = Vocabulary::new();
        let dom = parse_document(&text, &mut v_dom);
        let mut v_stream = Vocabulary::new();
        let stream = parse_document_streaming(&text, &mut v_stream);
        match (dom, stream) {
            (Ok(a), Ok(b)) => {
                assert!(depth < MAX_XML_DEPTH, "depth {depth} must be rejected");
                assert_eq!(a, b, "depth {depth}: arenas diverge");
                assert_eq!(v_dom, v_stream, "depth {depth}: vocabularies diverge");
            }
            (Err(_), Err(_)) => {
                assert!(depth >= MAX_XML_DEPTH, "depth {depth} must parse");
            }
            (dom, stream) => panic!(
                "depth {depth}: parsers disagree (dom ok: {}, streaming ok: {})",
                dom.is_ok(),
                stream.is_ok()
            ),
        }
    }
}

/// Columnar statistics parity property: RUNSTATS over the column store
/// must equal the document-scan fallback, for collections fed through the
/// streaming path and the DOM path alike.
#[test]
fn columnar_stats_match_scan() {
    use xia_storage::{runstats, runstats_scan, Collection};

    let mut rng = Prng::seed_from_u64(0x13);
    for case in 0..24 {
        let mut stream = Collection::new("P");
        let mut dom = Collection::new("P");
        for _ in 0..rng.gen_range(1..24) {
            let mut text = String::new();
            random_xml_element(&mut rng, 3, &mut text);
            stream.insert_xml(&text).expect("generated XML parses");
            dom.insert_xml_dom(&text).expect("generated XML parses");
        }
        assert!(
            stream.columns().is_some(),
            "case {case}: columns dirty after pure inserts"
        );
        let columnar = runstats(&stream);
        let scanned = runstats_scan(&stream);
        assert_eq!(columnar, scanned, "case {case}: columnar != scan");
        assert_eq!(
            columnar,
            runstats_scan(&dom),
            "case {case}: streaming != DOM collection stats"
        );
    }
}

fn random_fragment(rng: &mut Prng, max_len: usize) -> String {
    // Bytes biased toward XML metacharacters so structure-shaped inputs
    // actually occur.
    const POOL: &[u8] = b"<>/=\"'&;![]-?ab \t\n\x00";
    let n = rng.gen_range(0..max_len + 1);
    (0..n)
        .map(|_| POOL[rng.gen_range(0..POOL.len())] as char)
        .collect()
}

/// Robustness: the XML parser must never panic, whatever bytes arrive.
#[test]
fn xml_parser_never_panics() {
    let mut rng = Prng::seed_from_u64(0x0d);
    for _ in 0..512 {
        let input = random_fragment(&mut rng, 200);
        let mut vocab = Vocabulary::new();
        let _ = parse_document(&input, &mut vocab);
    }
}

/// Robustness on "almost XML": tag soup assembled from plausible parts.
#[test]
fn xml_parser_never_panics_on_tag_soup() {
    const PARTS: [&str; 13] = [
        "<a>",
        "</a>",
        "<b/>",
        "text",
        "<!--c-->",
        "&amp;",
        "&bogus;",
        "<a attr=\"v\">",
        "<![CDATA[x]]>",
        "<?pi?>",
        "<",
        ">",
        "\"",
    ];
    let mut rng = Prng::seed_from_u64(0x0e);
    for _ in 0..512 {
        let n = rng.gen_range(0..12);
        let input: String = (0..n)
            .map(|_| PARTS[rng.gen_range(0..PARTS.len())])
            .collect();
        let mut vocab = Vocabulary::new();
        let _ = parse_document(&input, &mut vocab);
    }
}

/// Robustness: statement parsing must never panic.
#[test]
fn statement_parser_never_panics() {
    let mut rng = Prng::seed_from_u64(0x0f);
    for _ in 0..512 {
        let input = random_fragment(&mut rng, 160);
        let _ = xia_xpath::parse_statement(&input);
        let _ = xia_xpath::parse_linear_path(&input);
        let _ = xia_xpath::parse_path_expr(&input);
    }
}

/// Robustness on statement-shaped soup.
#[test]
fn statement_parser_never_panics_on_query_soup() {
    const PARTS: [&str; 15] = [
        "for ",
        "$v",
        " in ",
        "C('X')",
        "/a",
        "//*",
        "[b = 1]",
        " where ",
        " return ",
        "let $x := ",
        "order by ",
        "\"lit",
        "4.5e",
        "insert into ",
        "delete from ",
    ];
    let mut rng = Prng::seed_from_u64(0x10);
    for _ in 0..512 {
        let n = rng.gen_range(0..10);
        let input: String = (0..n)
            .map(|_| PARTS[rng.gen_range(0..PARTS.len())])
            .collect();
        let _ = xia_xpath::parse_statement(&input);
    }
}

#[test]
fn document_write_parse_round_trip() {
    const VALUES: [&str; 4] = ["plain", "4.5", "a<b&c>d\"e", "  spaced  "];
    let mut rng = Prng::seed_from_u64(0x11);
    for _ in 0..64 {
        let leaves: Vec<(String, &str)> = (0..rng.gen_range(1..8))
            .map(|_| (label(&mut rng), VALUES[rng.gen_range(0..VALUES.len())]))
            .collect();
        let mut vocab = Vocabulary::new();
        let mut b = xia_xml::DocBuilder::new(&mut vocab, "root");
        for (name, value) in &leaves {
            b.leaf(name, value.trim());
        }
        let doc = b.finish();
        let text = write_document(&doc, &vocab);
        let reparsed = parse_document(&text, &mut vocab).expect("round trip parse");
        assert_eq!(reparsed.len(), doc.len());
        // Every leaf value survives.
        let originals: Vec<&str> = doc
            .nodes()
            .filter_map(|(_, n)| n.value.as_ref())
            .map(|v| v.as_str())
            .collect();
        let reparsed_vals: Vec<String> = reparsed
            .nodes()
            .filter_map(|(_, n)| n.value.as_ref())
            .map(|v| v.as_str().to_string())
            .collect();
        assert_eq!(originals.len(), reparsed_vals.len());
        for (o, r) in originals.iter().zip(reparsed_vals.iter()) {
            assert_eq!(*o, r.as_str());
        }
    }
}

/// Incremental-session parity: observing statements one at a time — the
/// serving path, which extends the prepared candidate set via basic
/// enumeration of just the new statements plus the semi-naive new×all
/// generalization fixpoint — must produce the same candidate *content*
/// (patterns, kinds, origins, DAG edges) and an
/// equivalent recommendation as observing everything up front and
/// preparing once. Checked clean and under injected optimizer faults, at
/// jobs 1 and 4. Candidate *ids* are allowed to differ (the two paths
/// interleave basics and generals differently), so the comparison is
/// over canonical keys, not insertion order.
#[test]
fn incremental_prepare_matches_full_preparation() {
    use std::collections::BTreeMap;
    use xia_advisor::{AdvisorParams, CandidateSet, SearchAlgorithm, TuningSession};
    use xia_fault::FaultInjector;
    use xia_storage::Database;
    use xia_workloads::tpox::{self, TpoxConfig};

    type Canon = BTreeMap<String, (String, Vec<String>)>;
    fn canon(set: &CandidateSet) -> Canon {
        let key = |c: &xia_advisor::candidate::Candidate| {
            format!("{}|{}|{:?}", c.collection, c.pattern, c.kind)
        };
        set.iter()
            .map(|c| {
                let mut children: Vec<String> =
                    c.children.iter().map(|&id| key(set.get(id))).collect();
                children.sort();
                (key(c), (format!("{:?}", c.origin), children))
            })
            .collect()
    }

    let cfg = TpoxConfig::tiny();
    let texts = tpox::queries(&cfg);
    let specs: [Option<&str>; 2] = [None, Some("optimizer-cost:0.2")];
    for spec in specs {
        for jobs in [1usize, 4] {
            let params = || {
                let faults = match spec {
                    // Same seed on both sides: prepare consumes no
                    // optimizer-cost rolls, so the recommend-phase
                    // streams line up call for call.
                    Some(s) => FaultInjector::seeded(0x5eed)
                        .with_spec(s)
                        .expect("valid spec"),
                    None => FaultInjector::off(),
                };
                AdvisorParams {
                    faults,
                    jobs,
                    ..Default::default()
                }
            };
            let case = format!("spec={spec:?} jobs={jobs}");

            let mut db = Database::new();
            tpox::generate(&mut db, &cfg);
            let mut incremental = TuningSession::new();
            incremental.set_params(params());
            for t in &texts {
                incremental.observe(t).expect("TPoX queries parse");
                // Force a prepare after every observation so each step
                // exercises the incremental extension.
                incremental.candidate_count(&db);
            }

            let mut db_full = Database::new();
            tpox::generate(&mut db_full, &cfg);
            let mut full = TuningSession::new();
            full.set_params(params());
            for t in &texts {
                full.observe(t).expect("TPoX queries parse");
            }

            let ci = canon(incremental.candidates(&db));
            let cf = canon(full.candidates(&db_full));
            assert_eq!(ci.len(), cf.len(), "{case}: candidate counts diverge");
            for (k, v) in &cf {
                assert_eq!(
                    ci.get(k),
                    Some(v),
                    "{case}: candidate {k} diverges between incremental and full preparation"
                );
            }

            let ri = incremental
                .recommend(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
                .expect("incremental recommend");
            let rf = full
                .recommend(&db_full, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
                .expect("full recommend");
            let pick = |r: &xia_advisor::Recommendation| {
                let mut v: Vec<String> = r
                    .indexes
                    .iter()
                    .map(|ix| format!("{}|{}|{:?}", ix.collection, ix.pattern, ix.kind))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(
                pick(&ri),
                pick(&rf),
                "{case}: chosen configurations diverge"
            );
            let rel = (ri.est_benefit - rf.est_benefit).abs() / rf.est_benefit.abs().max(1.0);
            assert!(
                rel < 1e-9,
                "{case}: benefits diverge: {} vs {}",
                ri.est_benefit,
                rf.est_benefit
            );
            assert_eq!(
                ri.quarantined.len(),
                rf.quarantined.len(),
                "{case}: quarantine diverges"
            );
        }
    }
}

/// A session is the one-shot advisor with a memory: over seeded random
/// interleavings of `observe` (fresh statements, duplicates, unparseable
/// lines, an unknown collection), `recommend` (all six algorithms × four
/// disk budgets), `apply` and `reset`, every `TuningSession::recommend`
/// — whatever its kept costing state already holds, however it was
/// extended — must return what a fresh `Advisor::recommend_prepared` over
/// the same compressed workload and candidate set returns: the same
/// configuration, the same cost bits, the same quarantine and degradation
/// verdicts. Clean, under injected optimizer faults (content-derived, so
/// retained costs cannot dodge them) and under statistics outages (the
/// state is only reused under the visibility mask it was built for), at
/// jobs 1 and 4.
#[test]
fn session_recommend_equals_one_shot_recommend() {
    use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm, TuningSession};
    use xia_fault::{FaultInjector, FaultSite};
    use xia_storage::Database;
    use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
    use xia_workloads::tpox::{self, TpoxConfig};

    let cfg = TpoxConfig::tiny();
    let mut pool = tpox::queries(&cfg);
    pool.extend(tpox::extended_queries(&cfg));
    pool.extend(tpox::update_mix(&cfg));
    {
        let mut db = Database::new();
        tpox::generate(&mut db, &cfg);
        for (i, coll) in [tpox::SECURITY_COLL, tpox::ORDER_COLL].iter().enumerate() {
            pool.extend(generate_queries(
                db.collection(coll).expect("generated"),
                &SyntheticConfig {
                    queries: 12,
                    seed: 21 + i as u64,
                    ..Default::default()
                },
            ));
        }
    }
    pool.push("collection('NOPE')/a[b = 1]".to_string());

    let specs: [Option<&str>; 3] = [
        None,
        Some("optimizer-cost:0.2"),
        Some("stats-unavailable:0.5"),
    ];
    let (mut compared, mut warm_hits, mut degraded_runs) = (0usize, 0u64, 0usize);
    for (case, spec) in specs.into_iter().enumerate() {
        for jobs in [1usize, 4] {
            let injector = || match spec {
                Some(s) => FaultInjector::seeded(0x21)
                    .with_spec(s)
                    .expect("valid spec"),
                None => FaultInjector::off(),
            };
            let params = |faults: FaultInjector| AdvisorParams {
                faults,
                jobs,
                ..Default::default()
            };
            let session_faults = injector();
            let mut db = Database::new();
            tpox::generate(&mut db, &cfg);
            Advisor::freshen(&mut db, &xia_obs::Telemetry::off());
            let mut session = TuningSession::new();
            session.set_params(params(session_faults.clone()));
            let mut rng = Prng::seed_from_u64(0x5E55 + case as u64);
            let mut recommends = 0usize;
            for step in 0..70 {
                let what = format!("spec={spec:?} jobs={jobs} step={step}");
                match rng.gen_range(0u32..20) {
                    0..=8 => {
                        for _ in 0..rng.gen_range(1usize..6) {
                            let text = &pool[rng.gen_range(0..pool.len())];
                            let freq = 0.5 * rng.gen_range(1u32..6) as f64;
                            session.observe_with_freq(text, freq).expect("pool parses");
                        }
                        assert!(session.observe("for $x in nonsense").is_err());
                        assert!(session.observe("???garbage(((").is_err());
                    }
                    9..=17 => {
                        let algorithm = SearchAlgorithm::ALL[recommends % 6];
                        recommends += 1;
                        // Bring the candidates up to date first, so the
                        // oracle's injector can be wound to where the
                        // session's stands when its evaluator rolls.
                        let set = session.candidates(&db).clone();
                        let all = set.config_size(&Advisor::all_index_config(&set));
                        let budget = [all / 8, all / 3, all, u64::MAX / 2][rng.gen_range(0..4)];
                        let rolled = session_faults.calls(FaultSite::StatsUnavailable);
                        let (_, hits_before) = session.costing().hit_counts();
                        let got = session.recommend(&db, budget, algorithm);
                        // (A run under another visibility mask starts the
                        // state, and its counts, afresh.)
                        let (_, hits) = session.costing().hit_counts();
                        warm_hits += hits.saturating_sub(hits_before);

                        let oracle_faults = injector();
                        for _ in 0..rolled {
                            let _ = oracle_faults.roll(FaultSite::StatsUnavailable);
                        }
                        let workload = session.workload().clone();
                        let want = Advisor::recommend_prepared(
                            &mut db,
                            &workload,
                            &set,
                            budget,
                            algorithm,
                            &params(oracle_faults),
                        );
                        match (got, want) {
                            (Ok(got), Ok(want)) => {
                                let bits = |r: &xia_advisor::Recommendation| {
                                    [r.est_benefit, r.baseline_cost, r.workload_cost]
                                        .map(f64::to_bits)
                                };
                                let quarantined = |r: &xia_advisor::Recommendation| {
                                    r.quarantined
                                        .iter()
                                        .map(|q| (q.index, q.detail.clone()))
                                        .collect::<Vec<_>>()
                                };
                                assert_eq!(got.config, want.config, "{what}: config");
                                assert_eq!(bits(&got), bits(&want), "{what}: cost bits");
                                assert_eq!(quarantined(&got), quarantined(&want), "{what}");
                                assert_eq!(got.degraded, want.degraded, "{what}: degraded");
                                assert_eq!(got.cost_fallbacks, want.cost_fallbacks, "{what}");
                                degraded_runs += usize::from(got.degraded);
                                compared += 1;
                            }
                            (Err(got), Err(want)) => {
                                assert_eq!(got.to_string(), want.to_string(), "{what}")
                            }
                            (got, want) => panic!(
                                "{what}: session {:?} vs one-shot {:?}",
                                got.map(|r| r.config),
                                want.map(|r| r.config)
                            ),
                        }
                    }
                    18 => {
                        if let Ok(rec) = session.recommend(&db, 1 << 16, SearchAlgorithm::Greedy) {
                            session.apply(&mut db, &rec);
                            assert_eq!(session.warm_costings(), 0, "{what}: apply");
                        }
                    }
                    _ => {
                        session.reset();
                        assert_eq!(session.observed(), 0, "{what}: reset");
                    }
                }
            }
        }
    }
    assert!(compared > 100, "only {compared} recommendations compared");
    assert!(
        warm_hits > 1000,
        "sessions barely reused anything: {warm_hits}"
    );
    assert!(degraded_runs > 10, "faults barely bit: {degraded_runs}");
}

/// Prepared what-if costing against the one-shot oracle: for random data,
/// random statements (queries with conjunctions and disjunctions, inserts,
/// deletes, updates) and random sub-configurations, planning one
/// `PreparedStatement` under an overlay of pre-derived definitions must
/// equal `Optimizer::new(..).optimize(..)` over the same indexes created
/// with `Catalog::create_virtual` — every cost bit for bit and the same
/// access choice. The same prepared statement is then costed under a
/// second configuration and the first again: reuse must leave no trace.
/// The what-if cost (`try_plan_cost`, no plan built) is the plan's cost,
/// and the signature read off the prepared statement is the one
/// normalizing the statement gives.
#[test]
fn prepared_plans_equal_one_shot_plans() {
    use std::sync::Arc;
    use xia_advisor::{Advisor, AdvisorParams};
    use xia_optimizer::{AccessChoice, Optimizer, Plan, PlanStep};
    use xia_storage::{CatalogView, Database};
    use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
    use xia_workloads::tpox::{self, TpoxConfig};
    use xia_workloads::Workload;

    /// A plan with index ids resolved to what they index, so plans over a
    /// catalog and over an overlay compare.
    fn shape(plan: &Plan, view: CatalogView<'_>) -> Vec<String> {
        let AccessChoice::IndexAnd(steps) = &plan.access else {
            return vec!["scan".to_string()];
        };
        let probe = |u: &xia_optimizer::IndexUse| {
            let def = view.get(u.index).expect("plans use visible indexes");
            format!(
                "{}:{:?}@p{} postings={:016x} docs={:016x} cost={:016x}",
                def.pattern,
                def.kind,
                u.pattern_idx,
                u.est_postings.to_bits(),
                u.est_docs.to_bits(),
                u.probe_cost.to_bits()
            )
        };
        steps
            .iter()
            .map(|s| match s {
                PlanStep::Probe(u) => probe(u),
                PlanStep::Union {
                    group,
                    branches,
                    est_docs,
                } => format!(
                    "or{group}[{}] docs={:016x}",
                    branches.iter().map(probe).collect::<Vec<_>>().join(" | "),
                    est_docs.to_bits()
                ),
            })
            .collect()
    }
    fn bits(plan: &Plan) -> [u64; 3] {
        [
            plan.total_cost.to_bits(),
            plan.scan_cost.to_bits(),
            plan.est_docs.to_bits(),
        ]
    }

    let mut rng = Prng::seed_from_u64(0x15);
    let mut indexed_plans = 0usize;
    for _ in 0..6 {
        let cfg = TpoxConfig {
            securities: 40,
            orders: 60,
            customers: 30,
            seed: rng.gen_range(0u64..1000),
        };
        let mut db = Database::new();
        tpox::generate(&mut db, &cfg);
        let mut texts = tpox::queries(&cfg);
        texts.extend(tpox::extended_queries(&cfg));
        texts.extend(generate_queries(
            db.collection("SDOC").expect("generated"),
            &SyntheticConfig {
                queries: 12,
                seed: rng.gen_range(0u64..1000),
                ..Default::default()
            },
        ));
        texts.extend(tpox::update_mix(&cfg));
        let workload = Workload::from_texts(texts.iter().map(|s| s.as_str())).expect("parse");
        let set = Advisor::prepare(&mut db, &workload, &AdvisorParams::default());

        for _ in 0..6 {
            // Two random sub-configurations; C1 is checked against the
            // oracle, C2 only sits between the two C1 costings.
            let draw =
                |rng: &mut Prng| -> Vec<_> { set.ids().filter(|_| rng.gen_bool(0.3)).collect() };
            let (c1, c2) = (draw(&mut rng), draw(&mut rng));

            // Oracle: C1 created in the catalogs, one-shot optimize.
            for &id in &c1 {
                let c = set.get(id);
                let (collection, catalog, stats) = db.parts_mut(&c.collection).expect("known");
                catalog.create_virtual(collection, stats, &c.pattern, c.kind);
            }
            let oracle: Vec<(Plan, Vec<String>)> = workload
                .entries()
                .iter()
                .map(|e| {
                    let (collection, catalog, stats) =
                        db.parts(e.statement.collection()).expect("known");
                    let plan = Optimizer::new(collection, stats, catalog).optimize(e.statement);
                    let shape = shape(&plan, catalog.view());
                    (plan, shape)
                })
                .collect();
            db.drop_all_virtual();

            for (e, (want, want_shape)) in workload.entries().iter().zip(&oracle) {
                let coll = e.statement.collection();
                let (collection, catalog, stats) = db.parts(coll).expect("known");
                let prepared = Optimizer::new(collection, stats, catalog).prepare(e.statement);
                assert_eq!(
                    prepared.signature(coll),
                    xia_optimizer::statement_signature(e.statement),
                    "signature read off the prepared `{}`",
                    e.text
                );
                let cost_under = |config: &[xia_advisor::CandId]| {
                    let mut overlay = catalog.overlay();
                    for &id in config {
                        let c = set.get(id);
                        if *c.collection == *coll {
                            overlay.add(Arc::new(catalog.derive_virtual(
                                collection,
                                stats,
                                &c.pattern,
                                c.kind,
                                id.index(),
                            )));
                        }
                    }
                    let optimizer = Optimizer::with_view(collection, stats, overlay.view());
                    let plan = optimizer.plan(&prepared);
                    let cost = optimizer
                        .try_plan_cost(&prepared)
                        .expect("no faults attached");
                    assert_eq!(cost.to_bits(), plan.total_cost.to_bits(), "what-if cost");
                    let shape = shape(&plan, overlay.view());
                    (plan, shape)
                };
                let (first, first_shape) = cost_under(&c1);
                let _ = cost_under(&c2);
                let (again, _) = cost_under(&c1);
                assert_eq!(
                    bits(&first),
                    bits(want),
                    "prepared and one-shot costs differ on `{}`",
                    e.text
                );
                assert_eq!(&first_shape, want_shape, "access choice on `{}`", e.text);
                assert_eq!(first, again, "reuse changed the plan of `{}`", e.text);
                assert_eq!(bits(&first), bits(&again));
                indexed_plans += usize::from(first.uses_indexes());
            }
        }
    }
    assert!(indexed_plans > 100, "only {indexed_plans} indexed plans");
}

/// Every number in a collection's statistics, floats as their bits.
fn stats_bits(stats: &xia_storage::CollectionStats) -> Vec<u64> {
    let mut bits = vec![stats.doc_count, stats.node_count, stats.value_bytes];
    for p in &stats.per_path {
        bits.extend([
            p.node_count,
            p.doc_count,
            p.value_count,
            p.numeric_count,
            p.distinct_values,
            p.value_bytes,
            p.histogram.len() as u64,
        ]);
        for v in [p.min_num, p.max_num] {
            bits.extend([v.is_some() as u64, v.map_or(0, f64::to_bits)]);
        }
        bits.extend(p.histogram.iter().map(|b| b.to_bits()));
    }
    bits
}

/// The identity a saved image owes the database it was saved from: over
/// random documents — some deleted again, one collection physically
/// indexed — ingest → save → load gives the same vocabulary (ids of the
/// deleted documents' names included), bit-equal statistics, and a
/// byte-identical `Advisor::recommend` reply for a random workload, all
/// *before* any document of the unindexed collection has been decoded;
/// and once decoded, the documents, the column store and the physical
/// indexes are those of a dense re-ingest (the ingested database
/// compacted: tombstones dropped, documents renumbered, columns and
/// indexes rebuilt).
#[test]
fn saved_image_is_the_ingested_database() {
    use xia_advisor::{Advisor, AdvisorParams, Recommendation, SearchAlgorithm};
    use xia_storage::{load_database_from, save_database_to, Database, DocId};
    use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
    use xia_workloads::Workload;
    use xia_xpath::ValueKind;

    fn reply(db: &mut Database, workload: &Workload, budget: u64) -> String {
        let rec = Advisor::recommend(
            db,
            workload,
            budget,
            SearchAlgorithm::GreedyHeuristics,
            &AdvisorParams::default(),
        )
        .expect("the workload can be advised");
        format!(
            "{:?}",
            Recommendation {
                advisor_time: std::time::Duration::ZERO,
                ..rec
            }
        )
    }

    let mut rng = Prng::seed_from_u64(0x16);
    for case in 0..12 {
        let mut db = Database::new();
        let mut texts = Vec::new();
        for name in ["P", "Q"] {
            let coll = db.create_collection(name);
            let docs = rng.gen_range(8..40);
            for _ in 0..docs {
                let mut text = String::new();
                random_xml_element(&mut rng, 3, &mut text);
                coll.insert_xml(&text).expect("generated XML parses");
            }
            // Queries over what was ingested, deleted documents included.
            texts.extend(generate_queries(
                coll,
                &SyntheticConfig {
                    queries: 6,
                    seed: rng.gen_range(0u64..1000),
                    ..Default::default()
                },
            ));
            // The first document interned the first names and paths.
            coll.delete(DocId(0));
            for _ in 0..rng.gen_range(0..4) {
                coll.delete(DocId(rng.gen_range(0..docs) as u32));
            }
        }
        let (coll, catalog, _) = db.parts_mut("Q").expect("created above");
        catalog.create_physical(coll, &linear_path(&mut rng), ValueKind::Str);
        db.runstats_all();
        let mut workload = Workload::new();
        for text in &texts {
            // A sampled value may hold a quote the statement syntax lacks.
            let _ = workload.try_push_with_freq(text, 1.0);
        }
        assert!(!workload.is_empty(), "case {case}: no statement parsed");
        let budget = 1 << rng.gen_range(8..16);
        let expected = reply(&mut db, &workload, budget);

        let mut image = Vec::new();
        save_database_to(&db, &mut image).expect("save");
        let mut loaded = load_database_from(&mut image.as_slice()).expect("load");

        for name in ["P", "Q"] {
            assert_eq!(
                loaded.collection(name).unwrap().vocab(),
                db.collection(name).unwrap().vocab(),
                "case {case}: {name} vocabulary"
            );
            assert_eq!(
                stats_bits(loaded.stats_cached(name).expect("fresh at load")),
                stats_bits(db.stats_cached(name).unwrap()),
                "case {case}: {name} statistics"
            );
        }
        assert_eq!(
            reply(&mut loaded, &workload, budget),
            expected,
            "case {case}"
        );
        assert!(
            !loaded.collection("P").unwrap().decoded_from_image()
                && loaded.dom_materializations() == 1,
            "case {case}: advising decoded documents"
        );

        db.compact_all();
        for name in ["P", "Q"] {
            let (a, b) = (
                loaded.collection(name).unwrap(),
                db.collection(name).unwrap(),
            );
            assert!(a.iter_docs().eq(b.iter_docs()), "case {case}: {name} docs");
            assert_eq!(a.columns(), b.columns(), "case {case}: {name} columns");
            let (a, b) = (loaded.catalog(name).unwrap(), db.catalog(name).unwrap());
            assert_eq!(a.len(), b.len(), "case {case}: {name} indexes");
            for (d, e) in a.iter().zip(b.iter()) {
                assert!(
                    d.pattern == e.pattern && d.kind == e.kind && d.physical == e.physical,
                    "case {case}: {name} index {}",
                    d.pattern
                );
            }
        }
        assert_eq!(loaded.dom_materializations(), 2);
    }
}
