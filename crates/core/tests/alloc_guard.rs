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
//!   entry's text) and one — its entry's text — for a text seen before:
//!   20,380 in all (76,110 when every statement was parsed, 198,000 with
//!   an owned `String` per token, cloned again by the cursor);
//! * `compress_workload` writes one key per distinct statement and
//!   allocates per *template* — at most 3 each plus a constant (2.1
//!   measured; 7.1 when each representative was copied) — and nothing at
//!   all for a statement that joins an existing template (15.8 per
//!   *statement* when every key was built as a fresh `String` from a
//!   normalized copy of the statement).
//!
//! This binary holds one test on purpose: the counter is process-wide, and
//! a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xia_advisor::compress_workload;
use xia_obs::{EventJournal, Telemetry};
use xia_storage::Database;
use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;

/// The system allocator, counting every block it hands out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic that
// publishes no other data and cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A `Vec` that grows is a block the old design did not need either.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is, from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
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
        2 * (parsing - repeats) <= 17 * distinct,
        "from_texts made {parsing} allocations for {distinct} distinct texts and {repeats} repeats"
    );
    // A text seen before costs its entry's own copy of the text, no more.
    let twice: Vec<String> = texts.iter().chain(&texts).cloned().collect();
    let (_, parsing_twice) = parse(&twice);
    assert!(
        parsing_twice <= parsing + STATEMENTS as u64,
        "{} allocations for {STATEMENTS} texts seen before",
        parsing_twice - parsing
    );

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
}
