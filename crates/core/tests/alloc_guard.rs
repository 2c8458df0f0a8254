//! Allocation-count guard for the statement front end.
//!
//! Counts, not timings: the numbers below repeat exactly on one toolchain,
//! so the guard is deterministic and costs CI a second. It pins what the
//! borrowed-token lexer, the streaming template key and the shared
//! statement bought on the benchmark's own statement generator (10,000
//! statements, 1,443 distinct texts, 756 templates):
//!
//! * `Workload::from_texts` makes at most 8.5 heap allocations per
//!   *distinct* text (8.2 measured: the parse, the shared allocation, the
//!   slot's text) and none for a text seen before: 11,833 in all (20,380
//!   while every entry owned a copy of its text, 76,110 when every
//!   statement was parsed, 198,000 with an owned `String` per token, cloned
//!   again by the cursor);
//! * dropping that workload frees at most 7.5 blocks per distinct text
//!   (7.2 measured) and none per repeat: 10,347 in all (18,903 while every
//!   entry owned a copy of its text);
//! * `compress_workload` writes one key per slot (distinct statement) and
//!   allocates per *template* — at most 3 each plus a constant (2.1
//!   measured; 7.1 when each representative was copied) — and nothing at
//!   all for a statement that joins an existing template (15.8 per
//!   *statement* when every key was built as a fresh `String` from a
//!   normalized copy of the statement).
//!
//! It also pins that containment is allocation-free: `xia_xpath::covers`
//! over every ordered pair of a TPoX + synthetic candidate pool makes no
//! heap allocation at all (the product search it replaced made at least
//! eight per call).
//!
//! And it pins the advisor core's counts on the same pool's workload (415
//! statements, 66 candidates): preparing the candidate set, building a
//! benefit evaluator, and one recommendation per algorithm at half the
//! All-Index size. The core allocates per statement and per new costing,
//! not per path step, generalization pair or probe; the counts it made
//! when it did are kept beside the pins.
//!
//! The counters are per thread, so each test counts only its own
//! allocations while the harness runs the tests side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xia_advisor::{compress_workload, Advisor, AdvisorParams, BenefitEvaluator, SearchAlgorithm};
use xia_obs::{EventJournal, Telemetry};
use xia_optimizer::statement_signature;
use xia_storage::Database;
use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;
use xia_xpath::LinearPath;

/// The system allocator, counting every block it hands out.
struct Counting;

thread_local! {
    /// Blocks handed out to this thread. Constant-initialized and without
    /// a destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread handed back, the same way.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is torn down, when nothing
    // counted is running any more.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_free() {
    let _ = FREES.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are thread-local cells
// that publish no other data and cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A `Vec` that grows is a block the old design did not need either.
        count_one();
        // SAFETY: `ptr` came from this allocator, that is, from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free();
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The blocks dropping `value` frees on this thread.
fn freed<T>(value: T) -> u64 {
    let before = FREES.with(Cell::get);
    drop(value);
    FREES.with(Cell::get) - before
}

const STATEMENTS: usize = 10_000;

#[test]
fn the_front_end_allocates_per_template_not_per_token() {
    let mut db = Database::new();
    tpox::generate(&mut db, &TpoxConfig::tiny());
    let texts = generate_queries(
        db.collection(tpox::SECURITY_COLL)
            .expect("TPoX has securities"),
        &SyntheticConfig {
            queries: STATEMENTS,
            seed: 42,
            ..SyntheticConfig::default()
        },
    );
    assert_eq!(texts.len(), STATEMENTS);

    let parse = |texts: &[String]| {
        counted(|| {
            Workload::from_texts(texts.iter().map(String::as_str))
                .expect("generated statements parse")
        })
    };
    let (workload, parsing) = parse(&texts);
    let distinct = {
        let mut distinct: Vec<&str> = texts.iter().map(String::as_str).collect();
        distinct.sort_unstable();
        distinct.dedup();
        distinct.len() as u64
    };
    let repeats = STATEMENTS as u64 - distinct;
    assert!(
        repeats > distinct / 4,
        "{distinct} distinct texts: the stream must repeat itself for the guard to mean anything"
    );
    assert!(
        2 * parsing <= 17 * distinct,
        "from_texts made {parsing} allocations for {distinct} distinct texts and {repeats} repeats"
    );
    // A text seen before costs nothing: no allocation, and nothing to free
    // later. (`from_texts` sizes the entry vector from the iterator, so
    // twice the entries do not make it grow.)
    let twice: Vec<String> = texts.iter().chain(&texts).cloned().collect();
    let (read_twice, parsing_twice) = parse(&twice);
    assert!(
        parsing_twice <= parsing,
        "{} allocations for {STATEMENTS} texts seen before",
        parsing_twice - parsing
    );
    let freeing_twice = freed(read_twice);

    let off = (Telemetry::off(), EventJournal::off());
    let (compressed, compressing) = counted(|| compress_workload(&workload, &off.0, &off.1));
    let templates = compressed.templates.len() as u64;
    assert!(
        templates > 50 && templates < distinct * 3 / 4,
        "{templates} templates: the stream must be template-shaped for the guard to mean anything"
    );
    assert!(
        compressing <= 3 * templates + 64,
        "compress_workload made {compressing} allocations for {templates} templates"
    );
    assert_eq!(
        compressed.keys_written as u64, distinct,
        "one key per distinct statement"
    );

    // Twice the statements, the same templates: not one allocation more,
    // not one key more.
    let doubled = workload.concat(&workload);
    let (again, compressing_doubled) = counted(|| compress_workload(&doubled, &off.0, &off.1));
    assert_eq!(again.templates.len() as u64, templates);
    assert_eq!(again.keys_written as u64, distinct);
    assert_eq!(
        compressing_doubled, compressing,
        "a statement that joins an existing template must not allocate"
    );

    // Dropping a workload frees per distinct text, not per entry: the
    // workload read twice frees what the one read once does. (The other
    // workloads share its statements; they go first.)
    drop((again, doubled, compressed));
    let freeing = freed(workload);
    assert_eq!(
        freeing_twice, freeing,
        "dropping {STATEMENTS} repeats must free nothing"
    );
    assert!(
        2 * freeing <= 15 * distinct,
        "dropping the workload freed {freeing} blocks for {distinct} distinct texts"
    );
}

/// The search-sweep workload's shape at a small scale: the TPoX queries,
/// synthetic path queries over the securities, the update mix (415
/// statements, 66 candidates).
fn advisor_workload() -> (Database, Workload) {
    let cfg = TpoxConfig::tiny();
    let mut db = Database::new();
    tpox::generate(&mut db, &cfg);
    let mut texts = tpox::queries(&cfg);
    texts.extend(generate_queries(
        db.collection(tpox::SECURITY_COLL)
            .expect("TPoX has securities"),
        &SyntheticConfig {
            queries: 400,
            seed: 42,
            ..SyntheticConfig::default()
        },
    ));
    texts.extend(tpox::update_mix(&cfg));
    let workload =
        Workload::from_texts(texts.iter().map(String::as_str)).expect("generated statements parse");
    (db, workload)
}

/// One worker: the counter is per thread, so costing fanned out to
/// workers would go uncounted.
fn one_job() -> AdvisorParams {
    AdvisorParams {
        jobs: 1,
        ..AdvisorParams::default()
    }
}

#[test]
fn covers_allocates_nothing() {
    let (mut db, workload) = advisor_workload();
    let set = Advisor::prepare(&mut db, &workload, &one_job());
    // The candidates' patterns and the statements' access patterns: the
    // pairs generalization, relevance and index matching ask about.
    let mut patterns: Vec<LinearPath> = set.iter().map(|c| c.pattern.clone()).collect();
    for entry in workload.entries() {
        let targets = statement_signature(entry.statement).targets;
        patterns.extend(targets.into_iter().map(|(pattern, _)| pattern));
    }
    patterns.sort();
    patterns.dedup();
    assert!(
        patterns.len() > 50,
        "{} patterns: the pool must be large enough to mean anything",
        patterns.len()
    );

    let (held, allocations) = counted(|| {
        let mut held = 0u64;
        for general in &patterns {
            for specific in &patterns {
                held += u64::from(xia_xpath::covers(general, specific));
            }
        }
        held
    });
    let pairs = (patterns.len() * patterns.len()) as u64;
    assert!(
        held > patterns.len() as u64 && held < pairs,
        "{held} of {pairs} pairs contained: the pool must mix verdicts"
    );
    assert_eq!(
        allocations, 0,
        "covers made {allocations} allocations over {pairs} pairs"
    );
}

/// Allocations of each advisor stage on [`advisor_workload`]: this
/// build's, and what the core made while it cloned keys per probe and
/// normalized each statement three times.
const ADVISOR_STAGES: [(&str, u64, u64); 8] = [
    ("prepare", 5_056, 21_997),
    ("evaluator", 5_212, 12_934),
    ("greedy", 14_091, 49_106),
    ("heuristics", 16_262, 52_383),
    ("topdown-lite", 14_310, 48_749),
    ("topdown-full", 23_053, 80_585),
    ("dp", 14_164, 49_179),
    ("cophy", 6_915, 30_455),
];

#[test]
fn the_advisor_allocates_per_statement_not_per_probe() {
    let (mut db, workload) = advisor_workload();
    let params = one_job();
    let (set, preparing) = counted(|| Advisor::prepare(&mut db, &workload, &params));
    assert_eq!(
        (workload.len(), set.len()),
        (415, 66),
        "the guard's workload"
    );
    let (_, building) =
        counted(|| BenefitEvaluator::configured(&db, &workload, &set, &params).baseline_cost());
    let mut counts = vec![("prepare", preparing), ("evaluator", building)];
    let budget = set.config_size(&Advisor::all_index_config(&set)) / 2;
    for algorithm in SearchAlgorithm::ALL {
        // Fresh parameters per run: a telemetry sink allocates for each
        // span name it sees first.
        let params = one_job();
        let (_, recommending) = counted(|| {
            Advisor::recommend(&mut db, &workload, budget, algorithm, &params)
                .expect("the workload is advisable")
        });
        counts.push((algorithm.name(), recommending));
    }
    for ((stage, count), (pinned_stage, pinned, before)) in counts.into_iter().zip(ADVISOR_STAGES) {
        assert_eq!(stage, pinned_stage);
        assert!(
            2 * count <= before,
            "{stage}: {count} allocations, not half of the {before} before"
        );
        assert_eq!(
            count, pinned,
            "{stage}: {count} allocations, pinned at {pinned}; re-pin if the change is meant"
        );
    }
}
