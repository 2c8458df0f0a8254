//! The containment memo against the unmemoized search, on the patterns an
//! advisor actually asks about: the candidate patterns and the statements'
//! access patterns of the TPoX queries, the XMark queries and the mixed
//! workload (TPoX plus 200 synthetic queries). Every ordered pair is
//! decided through `covers` twice, then again after deciding enough fresh
//! pairs to clear this thread's memo, and each verdict is the unmemoized
//! search's. (Pairs forced onto one memo key are pinned by the `contain`
//! unit tests.)

use xia_advisor::{Advisor, AdvisorParams};
use xia_storage::Database;
use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::xmark::{self, XmarkConfig};
use xia_workloads::Workload;
use xia_xpath::contain::{covers_unmemoized, MEMO_ENTRIES};
use xia_xpath::{covers, normalize_statement, parse_linear_path, LinearPath};

/// The candidate patterns the advisor derives for `texts` over `db`, and
/// every access pattern of the statements.
fn patterns_of(db: &mut Database, texts: &[String]) -> Vec<LinearPath> {
    let workload =
        Workload::from_texts(texts.iter().map(String::as_str)).expect("generated texts parse");
    let set = Advisor::prepare(db, &workload, &AdvisorParams::default());
    let mut patterns: Vec<LinearPath> = set.iter().map(|c| c.pattern.clone()).collect();
    for entry in workload.entries() {
        if let Some(query) = normalize_statement(entry.statement) {
            let access = query
                .patterns
                .iter()
                .chain(query.or_groups.iter().flatten());
            patterns.extend(access.map(|ap| ap.linear.clone()));
        }
    }
    patterns
}

fn pool() -> Vec<LinearPath> {
    let cfg = TpoxConfig::tiny();
    let mut tpox_db = Database::new();
    tpox::generate(&mut tpox_db, &cfg);
    let tpox_queries = tpox::queries(&cfg);
    let mut pool = patterns_of(&mut tpox_db, &tpox_queries);
    let mut mixed = tpox_queries;
    mixed.extend(generate_queries(
        tpox_db
            .collection(tpox::SECURITY_COLL)
            .expect("TPoX has securities"),
        &SyntheticConfig {
            queries: 200,
            seed: 0xd1f7,
            ..SyntheticConfig::default()
        },
    ));
    pool.extend(patterns_of(&mut tpox_db, &mixed));

    let cfg = XmarkConfig::tiny();
    let mut xmark_db = Database::new();
    xmark::generate(&mut xmark_db, &cfg);
    let mut texts = xmark::queries(&cfg);
    texts.extend(xmark::extended_queries(&cfg));
    pool.extend(patterns_of(&mut xmark_db, &texts));

    pool.sort();
    pool.dedup();
    pool
}

/// Decides every ordered pair of `pool` with and without the memo and
/// returns how many are contained.
fn decide_all(pool: &[LinearPath]) -> usize {
    let mut held = 0;
    for general in pool {
        for specific in pool {
            let verdict = covers(general, specific);
            assert_eq!(
                verdict,
                covers_unmemoized(general, specific),
                "({general}, {specific})"
            );
            held += usize::from(verdict);
        }
    }
    held
}

#[test]
fn memoized_verdicts_are_the_searchs_on_advisor_patterns() {
    let pool = pool();
    assert!(
        pool.len() > 60,
        "{} patterns: the pool must be large enough to mean anything",
        pool.len()
    );
    let held = decide_all(&pool);
    let pairs = pool.len() * pool.len();
    assert!(
        held > pool.len() && held < pairs / 2,
        "{held} of {pairs} pairs contained: the pool must mix verdicts"
    );
    assert_eq!(decide_all(&pool), held, "the second pass, from the memo");

    // More fresh pairs than the memo holds: it clears at least once.
    let universal = LinearPath::universal();
    for i in 0..=MEMO_ENTRIES {
        let fresh = parse_linear_path(&format!("/memo_fill/step{i}")).expect("parses");
        assert!(covers(&universal, &fresh));
    }
    assert_eq!(decide_all(&pool), held, "after the memo cleared");
}
