//! Benefit evaluation with efficient optimizer-call management.
//!
//! Implements the paper's benefit formula (Section III)
//!
//! ```text
//! Benefit(x1..xn; W) = Σ_{s∈W} ( freq_s · (s_old − s_new) − Σ_i freq_s · mc(x_i, s) )
//! ```
//!
//! and the paper's Section VI-C machinery to keep the number of *Evaluate
//! Indexes* optimizer calls small:
//!
//! * **affected sets** — only statements whose basic patterns a candidate
//!   covers can change cost, so only the union of the configuration's
//!   affected sets is re-optimized;
//! * **sub-configurations** — the configuration is split into groups of
//!   candidates with overlapping affected sets (indexes in different
//!   groups cannot interact) and each group is evaluated independently;
//! * **cache** — evaluated sub-configurations are memoized.
//!
//! All three mechanisms can be disabled independently for the ablation
//! experiment (E9 in DESIGN.md).
//!
//! On top of these sits **statement-relevance pruning** (DESIGN.md §11): a
//! relevance matrix derived from the statements' index-matching signatures
//! tells, for each candidate, exactly which statements' plans could consult
//! it. Each per-statement costing is keyed on the canonical *projection* of
//! the sub-configuration onto the statement's relevant candidates and
//! memoized in a statement-level cost cache — adding an irrelevant index or
//! permuting the configuration is a guaranteed hit, so an incremental
//! `benefit(config ∪ {x})` probe re-costs only statements in
//! `relevant(x)`. The optimizer consults the catalog only through index
//! matching (the same covers/kind test the signature encodes), so serving a
//! projection hit is bitwise identical to re-running the optimizer; the
//! pruned and unpruned paths produce byte-identical recommendations (pinned
//! by `tests/determinism.rs`). `prune` toggles the layer for ablation.
//!
//! What is left — an optimizer call per (statement, projection) — is made
//! cheap by doing its configuration-invariant half once (DESIGN.md §18):
//! every costable statement is prepared once
//! ([`xia_optimizer::Optimizer::prepare_shared`], one statistics pass per
//! distinct path of a collection) and each candidate's virtual index
//! definition is derived at first use; a what-if task is then index
//! matching and arithmetic over those ([`xia_optimizer::Optimizer::plan`]
//! under a [`CatalogOverlay`] of shared definitions).
//!
//! The evaluator itself is the thin *per-run* half of that machinery: the
//! budget account and its clock, the counters, the fallback and quarantine
//! bookkeeping, the frequency-weighted memos, the run controller.
//! Everything that depends only on (statistics snapshot, statement,
//! candidate) lives in a [`CostingState`] (DESIGN.md §17) the evaluator
//! reads and extends: owned and dropped with it on the one-shot paths,
//! borrowed from a [`crate::TuningSession`] that keeps it across calls.

use crate::candidate::{CandId, CandidateSet, StmtSet};
use crate::costing::CostingState;
use crate::error::{IssueStage, StatementIssue};
use crate::runctl::{GovernorRung, RunController, WarmEntry, WarmKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use xia_fault::FaultInjector;
use xia_obs::{Counter, Event, EventJournal, Hist, Telemetry};
use xia_optimizer::{maintenance, CostModel, Optimizer, PathStatsMemo, PreparedStatement};
use xia_storage::{
    Catalog, CatalogOverlay, CatalogView, Collection, CollectionStats, Database, IndexDef,
    StatsView,
};
use xia_workloads::Workload;
use xia_xpath::{CoverCacheStats, LinearPath};

/// Counters exposed for the efficiency experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Evaluate-mode optimizer invocations (one per statement costed).
    pub optimizer_calls: u64,
    /// Sub-configuration cache hits.
    pub cache_hits: u64,
    /// Sub-configuration cache misses (evaluations performed).
    pub cache_misses: u64,
    /// `benefit()` invocations.
    pub benefit_calls: u64,
    /// Per-statement costings answered from the projection-keyed statement
    /// cost cache.
    pub stmt_cache_hits: u64,
    /// Per-statement costings the pruning layer served without an
    /// optimizer call.
    pub statements_pruned: u64,
    /// Incremental `benefit_delta` probes issued by the searches.
    pub delta_probes: u64,
}

/// A what-if evaluation budget. When either limit is reached, further
/// benefit evaluations fall back to cached sub-configuration values and,
/// failing that, heuristic costs (the degradation ladder: budget → cached
/// → heuristic). Zero means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WhatIfBudget {
    /// Maximum Evaluate-mode optimizer calls (0 = unlimited).
    pub max_calls: u64,
    /// Maximum wall-clock milliseconds spent evaluating (0 = unlimited).
    pub max_millis: u64,
}

impl WhatIfBudget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A call-count budget.
    pub fn calls(max_calls: u64) -> Self {
        Self {
            max_calls,
            max_millis: 0,
        }
    }

    fn exhausted(&self, calls: u64, elapsed: Duration) -> bool {
        (self.max_calls > 0 && calls >= self.max_calls)
            || (self.max_millis > 0 && elapsed.as_millis() as u64 >= self.max_millis)
    }
}

/// Canonicalizes a sub-configuration cache key: sorted, deduplicated. The
/// same sub-configuration reached in any order maps to one key.
fn canonical_key(mut key: Vec<CandId>) -> Vec<CandId> {
    key.sort_unstable();
    key.dedup();
    key
}

/// Number of memo-cache shards (a power of two; keys spread by FNV hash).
const CACHE_SHARDS: usize = 16;

/// FNV-1a over a canonical key (also used to salt per-task fault streams).
fn key_hash(seed: u64, key: &[CandId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &CandId(id) in key {
        h = (h ^ u64::from(id)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sub-configuration memo cache: canonical-key entries sharded by key
/// hash, each shard behind its own `RwLock`. Reads take a shard read lock
/// only, so concurrent readers on different shards (or the same shard)
/// never serialize behind one another; writes touch a single shard.
#[derive(Debug)]
struct ShardedCache {
    shards: Vec<RwLock<HashMap<Vec<CandId>, f64>>>,
}

impl ShardedCache {
    fn new() -> Self {
        Self {
            shards: (0..CACHE_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    fn shard(&self, key: &[CandId]) -> &RwLock<HashMap<Vec<CandId>, f64>> {
        &self.shards[(key_hash(0, key) % CACHE_SHARDS as u64) as usize]
    }

    fn get(&self, key: &[CandId]) -> Option<f64> {
        self.shard(key)
            .read()
            .ok()
            .and_then(|m| m.get(key).copied())
    }

    fn insert(&self, key: Vec<CandId>, value: f64) {
        if let Ok(mut m) = self.shard(&key).write() {
            m.insert(key, value);
        }
    }
}

/// Minimum task count before `run_indexed` spawns workers: a fanned-out
/// batch must carry at least one pool spawn's worth of work, or the
/// fan-out is a guaranteed slowdown. Measured with `cargo bench -p
/// xia-bench` on the 2-core reference box: planning one prepared
/// statement under a two-index overlay takes 0.70–0.82 µs
/// (`optimizer/whatif_task_prepared`); a scoped spawn+join costs 98–107 µs
/// for 2 workers and 163 µs for 4 (`par/scoped_pool_spawn_join_*`). 256
/// tasks ≈ 190 µs of costing: one 4-worker spawn, and the two 2-worker
/// spawns at which `--jobs 2` breaks even. Small batches (the greedy
/// search's incremental `benefit()` probes) stay serial; large ones
/// (`benefit_batch` over all candidates, baseline costing of a few hundred
/// statements) parallelize. Results are identical either way.
const PAR_MIN_TASKS: usize = 256;

/// Runs `f(0..n)` across `jobs` scoped worker threads (work-stealing via a
/// shared atomic cursor) and returns the results in index order. With one
/// job — or fewer than [`PAR_MIN_TASKS`] tasks — it degenerates to a plain
/// serial loop, so the results are identical either way; `f` must be a
/// pure function of its index apart from counting into the telemetry
/// handle it is given.
///
/// Each worker thread counts into its own scratch [`Telemetry`], merged
/// into `telemetry` after the join: counter totals are exact and
/// jobs-invariant (addition commutes), but the hot costing loop never
/// touches a shared cache line — contended `fetch_add`s on one counter
/// array would otherwise eat the entire fan-out win.
fn run_indexed<T, F>(n: usize, jobs: usize, telemetry: &Telemetry, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &Telemetry) -> T + Sync,
{
    if jobs <= 1 || n < PAR_MIN_TASKS {
        return (0..n).map(|i| f(i, telemetry)).collect();
    }
    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let scratch = Telemetry::new();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &scratch)));
                    }
                    (local, scratch)
                })
            })
            .collect();
        for handle in handles {
            let (local, scratch) = handle.join().expect("what-if worker panicked");
            for (i, v) in local {
                out[i] = Some(v);
            }
            for c in Counter::ALL {
                let count = scratch.get(c);
                if count > 0 {
                    telemetry.add(c, count);
                }
            }
            telemetry.merge_hists_from(&scratch);
        }
    });
    out.into_iter()
        .map(|v| v.expect("every task index was claimed"))
        .collect()
}

/// How one planned statement costing resolves. All nondeterministic
/// decisions (budget, statistics availability) are made by the coordinator
/// at planning time; workers only execute `Optimize` tasks.
#[derive(Debug, Clone, Copy)]
enum TaskKind {
    /// Cost through the optimizer, rolling a fault stream derived from
    /// `salt` (a pure function of the statement and the sub-configuration's
    /// *projection* onto its relevant candidates, so the schedule is
    /// independent of worker interleaving — and of whether an equal
    /// projection was previously served from the statement cache).
    Optimize { salt: u64 },
    /// Answered from the statement cost cache at planning time (projection
    /// hit, or post-exhaustion cached serve); workers skip it.
    Served { cost: f64 },
    /// The what-if budget was exhausted when this task was planned.
    BudgetFallback,
    /// Collection statistics were unavailable when this task was planned.
    StatsFallback,
    /// The resource governor's `heuristic_only` rung was in effect when
    /// this task was planned: no optimizer fan-out for uncached work.
    GovernorFallback,
}

/// Scratch-counter snapshot taken around one worker task while
/// checkpointing is armed, so the task's exact counter footprint can be
/// replayed when a warm-store entry serves it on `--resume`.
fn counter_snapshot(tel: &Telemetry) -> Vec<u64> {
    Counter::ALL.iter().map(|&c| tel.get(c)).collect()
}

/// `(Counter::ALL index, delta)` pairs the task added over `before`.
fn counter_deltas(before: &[u64], tel: &Telemetry) -> Vec<(usize, u64)> {
    Counter::ALL
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| {
            let d = tel.get(c).saturating_sub(before[i]);
            (d > 0).then_some((i, d))
        })
        .collect()
}

/// One planned statement costing against one missed sub-configuration.
#[derive(Debug, Clone)]
struct CostTask {
    /// Index into the batch's missed-group list.
    group: usize,
    /// Statement index in the workload.
    si: usize,
    kind: TaskKind,
    /// Canonical projection of the group onto the statement's relevant
    /// candidates — the statement-cache key an `Optimize` result is
    /// memoized under (`None` for fallback and served tasks).
    proj: Option<Vec<CandId>>,
}

/// The collection parts a what-if call's optimizer binds to, as this run's
/// view of the database hands them out.
type Parts<'a> = (&'a Collection, &'a Catalog, &'a CollectionStats);

/// The costing state an evaluator works over: its own on the one-shot
/// paths, a session's on the serving path. One code path either way — the
/// only difference is who drops it.
enum StateSlot<'a> {
    Owned(Box<CostingState>),
    Retained(&'a mut CostingState),
}

impl std::ops::Deref for StateSlot<'_> {
    type Target = CostingState;
    fn deref(&self) -> &CostingState {
        match self {
            StateSlot::Owned(state) => state,
            StateSlot::Retained(state) => state,
        }
    }
}

impl std::ops::DerefMut for StateSlot<'_> {
    fn deref_mut(&mut self) -> &mut CostingState {
        match self {
            StateSlot::Owned(state) => state,
            StateSlot::Retained(state) => state,
        }
    }
}

/// The view a statement over `coll` is costed under for one
/// sub-configuration: its collection's overlay if the group has members
/// there, the bare catalog otherwise.
fn overlay_view<'v>(
    overlays: &'v [(&str, CatalogOverlay<'_>)],
    coll: &str,
    catalog: &'v Catalog,
) -> CatalogView<'v> {
    overlays
        .iter()
        .find(|(name, _)| *name == coll)
        .map(|(_, ov)| ov.view())
        .unwrap_or_else(|| catalog.view())
}

/// One worker-side what-if call: roll the task's fault stream, then plan
/// the prepared statement under `view`. Returns the cost (`None` on an
/// injected fault) and, while a checkpoint file is armed, the call's
/// counter footprint.
fn what_if(
    (collection, _, stats): Parts<'_>,
    prepared: &PreparedStatement,
    view: CatalogView<'_>,
    faults: &FaultInjector,
    capture: bool,
    tel: &Telemetry,
) -> (Option<f64>, Vec<(usize, u64)>) {
    let before = capture.then(|| counter_snapshot(tel));
    let mut optimizer = Optimizer::with_view(collection, stats, view);
    optimizer.set_telemetry(tel);
    optimizer.set_faults(faults);
    let t0 = tel.is_enabled().then(Instant::now);
    let cost = optimizer.try_plan(prepared).ok().map(|p| p.total_cost);
    if let Some(t0) = t0 {
        tel.record(Hist::WhatIfCall, t0.elapsed());
    }
    let deltas = before.map(|b| counter_deltas(&b, tel)).unwrap_or_default();
    (cost, deltas)
}

/// Fault-stream phase tags (keep baseline and evaluation schedules apart).
const SALT_BASELINE: u64 = 0xBA5E;
const SALT_EVALUATE: u64 = 0xE7A1;

/// Evaluates candidate-configuration benefits through the optimizer.
///
/// Costing is side-effect-free: candidate configurations are materialized
/// as [`CatalogOverlay`]s over the immutable database instead of being
/// created and dropped in the shared catalogs, so per-statement what-if
/// calls fan out across `jobs` scoped worker threads. The coordinator
/// thread plans every task (cache lookups, budget charging, fault-stream
/// salts) serially and merges results in task order, which keeps
/// recommendations and counter totals byte-identical for any `jobs`.
pub struct BenefitEvaluator<'a> {
    /// The database as this run sees it: statistics hidden by a
    /// stats-unavailable fault stay hidden for the whole evaluation.
    db: StatsView<'a>,
    workload: &'a Workload,
    set: &'a CandidateSet,
    /// Everything that depends only on (statistics, statement, candidate):
    /// prepared statements, relevance rows, derived definitions, clean
    /// baselines, per-statement costs. Extended at construction to cover
    /// `workload` and `set`; read (and grown) by every evaluation.
    state: StateSlot<'a>,
    /// Per collection of the state: the parts this run's view hands out
    /// (`None`: missing, or statistics hidden).
    parts: Vec<Option<Parts<'a>>>,
    /// Baseline (no-candidate) cost per statement as this run prices it:
    /// the retained clean cost, or this run's heuristic fallback.
    baseline: Vec<f64>,
    /// Total (frequency-weighted) maintenance cost per candidate.
    mc_totals: HashMap<CandId, f64>,
    /// Memoized sub-configuration benefits (query side, before mc).
    /// Frequency-weighted, so it lives and dies with the run.
    cache: ShardedCache,
    /// What-if budget account: optimizer calls actually made in this run
    /// (statement-cache misses), charged identically with pruning on or
    /// off. A costing the state already held is free.
    charged: u64,
    /// Relevance-pruning switch: serve projection hits from the statement
    /// cache instead of re-running the optimizer. Off re-executes every
    /// hit (uncharged) for the ablation; results are byte-identical.
    pub prune: bool,
    /// Fast-path switch (`--no-fastpath` turns it off): route containment
    /// verdicts through the state's shared [`xia_xpath::CoverCache`]. Verdicts are identical
    /// either way; off exists for the A/B parity check.
    fastpath: bool,
    /// The cover cache's counters when this run began, so the run reports
    /// its own containment work and not the state's lifetime total.
    cover_base: CoverCacheStats,
    /// Ablation switch: restrict evaluation to affected statements.
    pub use_affected_sets: bool,
    /// Ablation switch: decompose configurations into sub-configurations.
    pub use_subconfigs: bool,
    /// Ablation switch: memoize sub-configuration evaluations.
    pub use_cache: bool,
    stats: EvalStats,
    /// Telemetry sink for what-if accounting (off unless attached).
    telemetry: Telemetry,
    /// Fault injector that per-task streams are derived from.
    faults: FaultInjector,
    /// What-if call/time budget; exhausted → heuristic fallbacks.
    budget: WhatIfBudget,
    /// When the first `benefit()` call arrived (anchor for the time
    /// budget; `None` until evaluation starts, so a long prepare phase
    /// cannot eat the budget).
    started: Option<Instant>,
    /// Worker threads for what-if fan-out (1 = serial).
    jobs: usize,
    /// Per-statement liveness: quarantined statements are masked out of
    /// every evaluation loop.
    active: Vec<bool>,
    /// Diagnostics for quarantined statements.
    quarantined: Vec<StatementIssue>,
    /// Benefit evaluations answered heuristically (fault or budget).
    fallbacks: u64,
    /// Decision-provenance journal. All emissions happen coordinator-side
    /// (planning and merge phases), so the event stream is jobs-invariant.
    journal: EventJournal,
    /// `BudgetExhausted` is emitted once, at the first fallback planning.
    budget_event_emitted: bool,
    /// Run-lifecycle controller: deadline/cancel polls, the checkpoint
    /// warm store and log, and the governor's memory budget. All
    /// interactions are coordinator-side, so lifecycle decisions are
    /// jobs-invariant.
    ctl: RunController,
    /// Candidate-set digest binding checkpoint files to this run.
    digest: u64,
    /// Resource-governor rung currently in effect (demotions are
    /// one-way).
    rung: GovernorRung,
    /// Approximate live bytes of the sharded memo cache.
    memo_bytes: u64,
    /// Lifecycle warnings to surface to the caller (abandoned checkpoint
    /// writes).
    warnings: Vec<String>,
}

impl<'a> BenefitEvaluator<'a> {
    /// Creates an evaluator, computing per-statement baseline costs with
    /// no candidate indexes in place.
    pub fn new(db: &'a mut Database, workload: &'a Workload, set: &'a CandidateSet) -> Self {
        Self::with_faults(
            db,
            workload,
            set,
            &FaultInjector::off(),
            WhatIfBudget::unlimited(),
        )
    }

    /// Creates an evaluator configured from [`crate::advisor::AdvisorParams`]
    /// over a costing state of its own: telemetry, fault injector, and
    /// what-if budget are all in effect from baseline costing onwards. The
    /// database is only read, so its statistics must already be fresh and
    /// its catalogs free of virtual indexes (see [`crate::Advisor::freshen`]).
    pub fn configured(
        db: &'a Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        params: &crate::advisor::AdvisorParams,
    ) -> Self {
        Self::from_params(db, workload, set, params, StateSlot::Owned(Box::default()))
    }

    /// [`BenefitEvaluator::configured`] over a state the caller keeps: what
    /// `state` already holds for `workload` and `set` (both may only have
    /// grown since) is reused, the rest is computed into it. The caller
    /// answers for the database being the one the state was built over.
    pub fn retained(
        db: &'a Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        params: &crate::advisor::AdvisorParams,
        state: &'a mut CostingState,
    ) -> Self {
        Self::from_params(db, workload, set, params, StateSlot::Retained(state))
    }

    fn from_params(
        db: &'a Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        params: &crate::advisor::AdvisorParams,
        state: StateSlot<'a>,
    ) -> Self {
        let mut ev = Self::build(
            db,
            workload,
            set,
            &params.faults,
            params.what_if_budget,
            &params.telemetry,
            params.effective_jobs(),
            params.fastpath,
            &params.journal,
            &params.ctl,
            state,
        );
        ev.prune = params.prune;
        ev
    }

    /// Creates an evaluator with a fault injector and what-if budget in
    /// effect from baseline costing onwards, after refreshing the
    /// database's statistics and clearing stale virtual indexes.
    /// Statements whose collection is missing are quarantined here;
    /// statements whose costing fails (stats unavailable, injected
    /// optimizer fault) get a heuristic baseline and the run is marked
    /// degraded.
    pub fn with_faults(
        db: &'a mut Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        faults: &FaultInjector,
        budget: WhatIfBudget,
    ) -> Self {
        crate::Advisor::freshen(db, &Telemetry::off());
        Self::build(
            db,
            workload,
            set,
            faults,
            budget,
            &Telemetry::off(),
            1,
            true,
            &EventJournal::off(),
            &RunController::off(),
            StateSlot::Owned(Box::default()),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        db: &'a Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        faults: &FaultInjector,
        budget: WhatIfBudget,
        telemetry: &Telemetry,
        jobs: usize,
        fastpath: bool,
        journal: &EventJournal,
        ctl: &RunController,
        mut state: StateSlot<'a>,
    ) -> Self {
        // The evaluator only ever reads the database — what-if
        // configurations live in catalog overlays, never in the catalogs.
        // One stats-unavailable roll per collection fixes which statistics
        // this run can see; a state built under another mask is of no use
        // to it and starts over.
        let db = StatsView::roll(db, faults);
        if state.mask != db.mask() {
            *state = CostingState::under(db.mask());
        }
        let cover_base = state.cover_cache.stats();
        let mut ev = Self {
            db,
            workload,
            set,
            state,
            parts: Vec::new(),
            baseline: Vec::new(),
            mc_totals: HashMap::new(),
            cache: ShardedCache::new(),
            charged: 0,
            prune: true,
            fastpath,
            cover_base,
            use_affected_sets: true,
            use_subconfigs: true,
            use_cache: true,
            stats: EvalStats::default(),
            telemetry: telemetry.clone(),
            faults: faults.clone(),
            budget,
            started: None,
            jobs: jobs.max(1),
            active: vec![true; workload.len()],
            quarantined: Vec::new(),
            fallbacks: 0,
            journal: journal.clone(),
            budget_event_emitted: false,
            ctl: ctl.clone(),
            // The digest only matters for checkpoint binding; skip the
            // render when no controller is armed.
            digest: if ctl.is_enabled() {
                crate::runctl::candidate_digest(set)
            } else {
                0
            },
            rung: GovernorRung::Full,
            memo_bytes: 0,
            warnings: Vec::new(),
        };
        ev.extend_state();
        ev.compute_baselines();
        ev
    }

    /// Brings the costing state up to date with the workload and the
    /// candidate set, both of which only ever grow: signatures, fault
    /// salts and prepared forms for the statements it has not seen,
    /// relevance rows for new candidates, and existing rows grown by the
    /// new statements. Pure containment and statistics work — no
    /// optimizer calls. On a fresh state this is the whole of it.
    fn extend_state(&mut self) {
        let state = &mut *self.state;
        let entries = self.workload.entries();
        let (from, known) = (state.statements(), state.candidates());
        assert!(
            from <= entries.len() && known <= self.set.len(),
            "a costing state only grows with its workload and candidate set"
        );
        for entry in &entries[from..] {
            state
                .matrix
                .push(xia_optimizer::statement_signature(&entry.statement));
            state
                .stmt_salts
                .push(xia_xpath::template_fingerprint(&entry.statement));
        }
        // Relevance rows: one signature per statement, one bitset per
        // candidate.
        if from < entries.len() || known < self.set.len() {
            let cache = self.fastpath.then_some(&state.cover_cache);
            for id in self.set.ids() {
                let c = self.set.get(id);
                let new = id.index() >= known;
                if new {
                    state.relevance.push(StmtSet::new());
                }
                let row_from = if new { 0 } else { from };
                for si in
                    state
                        .matrix
                        .relevant_from(row_from, &c.collection, &c.pattern, c.kind, cache)
                {
                    state.relevance[id.index()].insert(si);
                }
            }
            state.defs.resize(self.set.len(), None);
        }
        // Prepared here, once per statement, through one path-statistics
        // memo per collection: statements (and CoPhy templates in their
        // thousands) share a few hundred distinct paths.
        self.parts = state.colls.iter().map(|c| self.db.parts(c)).collect();
        let mut preparers: Vec<Option<Optimizer<'a>>> = self.parts.iter().map(|_| None).collect();
        for entry in &entries[from..] {
            let coll = entry.statement.collection();
            let slot = state
                .colls
                .iter()
                .position(|name| name == coll)
                .unwrap_or_else(|| {
                    state.colls.push(coll.to_string());
                    state.memos.push(PathStatsMemo::default());
                    self.parts.push(self.db.parts(coll));
                    preparers.push(None);
                    state.colls.len() - 1
                });
            let prepared = self.parts[slot].map(|(collection, catalog, stats)| {
                preparers[slot]
                    .get_or_insert_with(|| {
                        let mut optimizer = Optimizer::new(collection, stats, catalog);
                        optimizer.set_telemetry(&self.telemetry);
                        optimizer
                    })
                    .prepare_shared(&entry.statement, &mut state.memos[slot])
            });
            state.stmt_coll.push(slot);
            state.prepared.push(prepared);
            state.baseline.push(None);
            state.stmt_cache.push(HashMap::new());
        }
    }

    /// Prices every statement's baseline for this run: the clean cost the
    /// state holds, or an optimizer call for the statements it has no
    /// clean cost for yet (new ones, and ones whose earlier call faulted —
    /// the fault stream is content-derived, so it faults again). What a
    /// run does *about* a statement — quarantine it, count a fallback,
    /// journal a fault — is this run's own and repeated by every run.
    fn compute_baselines(&mut self) {
        let n = self.workload.len();
        self.baseline = vec![0.0; n];
        // Plan serially: quarantine missing collections, resolve stats
        // availability, and assign fault-stream salts.
        #[derive(Clone, Copy)]
        enum BasePlan {
            Quarantined,
            StatsFallback,
            Retained(f64),
            Cost { salt: u64 },
        }
        let workload = self.workload;
        let missing: Vec<bool> = (self.state.colls.iter())
            .map(|coll| self.db.collection(coll).is_none())
            .collect();
        let mut plans = Vec::with_capacity(n);
        for (si, entry) in workload.entries().iter().enumerate() {
            plans.push(if missing[self.state.stmt_coll[si]] {
                self.active[si] = false;
                self.telemetry.incr(Counter::StatementsQuarantined);
                self.quarantined.push(StatementIssue {
                    index: si,
                    text: entry.text.clone(),
                    stage: IssueStage::Cost,
                    detail: format!("unknown collection `{}`", entry.statement.collection()),
                });
                BasePlan::Quarantined
            } else if self.state.prepared[si].is_none() {
                // The collection exists but statistics are unavailable.
                BasePlan::StatsFallback
            } else if let Some(cost) = self.state.baseline[si] {
                BasePlan::Retained(cost)
            } else {
                BasePlan::Cost {
                    salt: key_hash(SALT_BASELINE, &[]) ^ self.state.stmt_salts[si],
                }
            });
        }
        // Warm-store consult (coordinator-side): a resumed run serves any
        // baseline costing the interrupted run already executed.
        let capture = self.ctl.checkpointing();
        let resumed = self.ctl.resumed();
        let mut warm: Vec<Option<WarmEntry>> = vec![None; n];
        let mut todo: Vec<(usize, u64)> = Vec::new();
        for (si, plan) in plans.iter().enumerate() {
            let BasePlan::Cost { salt } = *plan else {
                continue;
            };
            if resumed {
                warm[si] = self.ctl.warm_lookup(&WarmKey {
                    salt,
                    si,
                    proj: Vec::new(),
                });
            }
            if warm[si].is_none() {
                todo.push((si, salt));
            }
        }
        let (stmt_coll, prepared) = (&self.state.stmt_coll, &self.state.prepared);
        let (parts, faults) = (&self.parts, &self.faults);
        let costed = run_indexed(todo.len(), self.jobs, &self.telemetry.clone(), |i, tel| {
            let (si, salt) = todo[i];
            let (Some(at), Some(prepared)) = (parts[stmt_coll[si]], &prepared[si]) else {
                return (None, Vec::new());
            };
            what_if(
                at,
                prepared,
                at.1.view(),
                &faults.derive_stream(salt),
                capture,
                tel,
            )
        });
        let mut costed = costed.into_iter();
        for (si, plan) in plans.into_iter().enumerate() {
            let served = warm[si].take();
            let result = match (plan, &served) {
                (BasePlan::Cost { .. }, None) => costed.next(),
                _ => None,
            };
            if !matches!(plan, BasePlan::Quarantined) {
                self.state.asked += 1;
            }
            self.baseline[si] = match (plan, served, result) {
                (BasePlan::Quarantined, _, _) => 0.0,
                (BasePlan::Retained(cost), _, _) => {
                    self.state.served += 1;
                    cost
                }
                (BasePlan::Cost { salt }, Some(entry), _) => {
                    // Warm-served replay: reuse the exact cost and reapply
                    // the original execution's counter footprint, then log
                    // the entry again so the next checkpoint carries it.
                    self.stats.optimizer_calls += 1;
                    self.charged += 1;
                    self.apply_deltas(&entry.deltas);
                    let cost = f64::from_bits(entry.cost_bits);
                    self.ctl.record_costing(
                        WarmKey {
                            salt,
                            si,
                            proj: Vec::new(),
                        },
                        entry,
                    );
                    self.retain_baseline(si, cost)
                }
                (BasePlan::Cost { salt }, None, Some((Some(cost), deltas))) => {
                    self.stats.optimizer_calls += 1;
                    self.charged += 1;
                    self.ctl.record_costing(
                        WarmKey {
                            salt,
                            si,
                            proj: Vec::new(),
                        },
                        WarmEntry {
                            cost_bits: cost.to_bits(),
                            deltas,
                        },
                    );
                    self.retain_baseline(si, cost)
                }
                (kind, _, _) => {
                    // An optimizer failure here is an injected fault — the
                    // collection and its statistics were resolvable at
                    // planning time.
                    if matches!(kind, BasePlan::Cost { .. }) {
                        self.journal.emit(|| Event::FaultInjected { statement: si });
                    }
                    // The statement is costable in principle (the data is
                    // there); fall back to a heuristic scan estimate so the
                    // run can continue degraded.
                    if matches!(kind, BasePlan::Cost { .. }) {
                        self.stats.optimizer_calls += 1;
                        self.charged += 1;
                    }
                    self.fallbacks += 1;
                    self.telemetry.incr(Counter::CostFallbacks);
                    let coll = self.workload.entries()[si].statement.collection();
                    self.heuristic_statement_cost(coll)
                }
            };
        }
    }

    /// Keeps a statement's clean baseline for later runs; returns it.
    fn retain_baseline(&mut self, si: usize, cost: f64) -> f64 {
        self.state.baseline[si] = Some(cost);
        self.state.costings += 1;
        cost
    }

    /// A crude scan-cost proxy used when the optimizer cannot answer:
    /// touch every node of the statement's collection once.
    fn heuristic_statement_cost(&self, coll: &str) -> f64 {
        self.db
            .collection(coll)
            .map(|c| c.total_nodes() as f64)
            .unwrap_or(0.0)
            .max(1.0)
    }

    /// Evaluation counters so far.
    pub fn eval_stats(&self) -> EvalStats {
        self.stats
    }

    /// Diagnostics for statements quarantined during baseline costing.
    pub fn quarantined(&self) -> &[StatementIssue] {
        &self.quarantined
    }

    /// Number of statements still participating in evaluation.
    pub fn active_statements(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Benefit evaluations answered heuristically so far (injected faults,
    /// unavailable statistics, or budget exhaustion).
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks
    }

    /// Optimizer calls charged against the what-if budget so far. Only
    /// statements actually re-costed charge; costings served from the
    /// statement cache are free, with pruning on or off.
    pub fn budget_charged(&self) -> u64 {
        self.charged
    }

    /// Whether any quarantine or fallback degraded this run.
    pub fn is_degraded(&self) -> bool {
        self.fallbacks > 0 || !self.quarantined.is_empty()
    }

    /// The run-lifecycle controller threaded through this evaluator (the
    /// searches poll it at their loop boundaries).
    pub fn ctl(&self) -> &RunController {
        &self.ctl
    }

    /// The resource-governor rung currently in effect.
    pub fn governor_rung(&self) -> GovernorRung {
        self.rung
    }

    /// Lifecycle warnings accumulated so far (abandoned checkpoint
    /// writes), in emission order.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Writes a final checkpoint unconditionally (the advisor calls this
    /// when a run stops early, so `--resume` sees all completed work).
    pub fn final_checkpoint(&mut self) {
        if let Some(w) = self
            .ctl
            .final_checkpoint(self.digest, &self.faults, &self.telemetry)
        {
            self.warnings.push(w);
        }
    }

    /// Replays a warm-store entry's counter footprint into the attached
    /// telemetry (coordinator-side, so totals merge identically to the
    /// original worker execution).
    fn apply_deltas(&self, deltas: &[(usize, u64)]) {
        for &(i, v) in deltas {
            // Out-of-range indexes can only come from a checkpoint written
            // by a different build; ignore them rather than panic.
            if let Some(&c) = Counter::ALL.get(i) {
                self.telemetry.add(c, v);
            }
        }
    }

    /// Inserts one statement costing into the projection-keyed cache
    /// unless the governor demoted past `no_stmt_cache` (the state tracks
    /// the approximate live bytes the governor budgets against).
    fn insert_stmt_cost(&mut self, si: usize, proj: Vec<CandId>, cost: f64) {
        if self.rung < GovernorRung::NoStmtCache {
            self.state.insert_cost(si, proj, cost);
        }
    }

    /// Batch epilogue: walk the governor's degradation ladder one rung if
    /// the cache tally exceeds the memory budget, then let the controller
    /// write a cadence checkpoint. Entirely coordinator-side, so both
    /// decisions are jobs-invariant and replay-invariant.
    fn end_batch(&mut self) {
        if let Some(budget) = self.ctl.mem_budget() {
            if self.memo_bytes + self.state.stmt_bytes > budget {
                if let Some(next) = self.rung.next() {
                    self.rung = next;
                    match next {
                        GovernorRung::ShrinkMemo => {
                            // Reclaim the memo now; it may regrow, and
                            // renewed pressure demotes further.
                            self.cache = ShardedCache::new();
                            self.memo_bytes = 0;
                        }
                        GovernorRung::NoStmtCache | GovernorRung::HeuristicOnly => {
                            // The statement costs go too, retained ones
                            // included: they are what the bytes count.
                            self.cache = ShardedCache::new();
                            self.memo_bytes = 0;
                            self.state.clear_costs();
                        }
                        GovernorRung::Full => {}
                    }
                    let approx_bytes = self.memo_bytes + self.state.stmt_bytes;
                    self.telemetry.incr(Counter::GovernorDemotions);
                    self.journal.emit(|| Event::GovernorDemoted {
                        rung: next.name().to_string(),
                        approx_bytes,
                    });
                }
            }
        }
        if let Some(w) = self
            .ctl
            .after_batch(self.digest, &self.faults, &self.telemetry)
        {
            self.warnings.push(w);
        }
    }

    /// Attaches a telemetry sink: subsequent optimizer calls, cache
    /// activity, and virtual-index churn (via what-if catalog overlays)
    /// count against it. Baseline costing in [`BenefitEvaluator::new`]
    /// happens before any sink can be attached and is deliberately
    /// uncounted.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Sets the number of what-if worker threads (clamped to at least 1).
    /// Results are identical for any value; only wall-clock time changes.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// The number of what-if worker threads in use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached telemetry sink (disabled unless
    /// [`BenefitEvaluator::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The attached decision-provenance journal (disabled unless one was
    /// passed through [`crate::advisor::AdvisorParams::journal`]).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Containment work this run has done through the cover cache so far
    /// (feeds the `contain_cache_hits` / `contain_fast_rejects`
    /// telemetry): the cache's counters less what they read when the run
    /// began, so a run over a retained state reports its own share.
    pub fn cover_stats(&self) -> CoverCacheStats {
        let now = self.state.cover_cache.stats();
        CoverCacheStats {
            hits: now.hits - self.cover_base.hits,
            fast_rejects: now.fast_rejects - self.cover_base.fast_rejects,
            entries: now.entries - self.cover_base.entries,
        }
    }

    /// Containment check routed through the shared cover cache when the
    /// fast path is on, the plain NFA search when it is off. The verdict
    /// is identical either way (pinned by the parity suite).
    pub fn covers(&self, general: &LinearPath, specific: &LinearPath) -> bool {
        let t0 = self.telemetry.is_enabled().then(Instant::now);
        let verdict = if self.fastpath {
            self.state.cover_cache.covers(general, specific)
        } else {
            xia_xpath::contain::covers(general, specific)
        };
        if let Some(t0) = t0 {
            self.telemetry.record(Hist::ContainCheck, t0.elapsed());
        }
        verdict
    }

    /// Total baseline (no-index) workload cost.
    pub fn baseline_cost(&self) -> f64 {
        self.baseline
            .iter()
            .zip(self.workload.entries())
            .map(|(c, e)| c * e.freq)
            .sum()
    }

    /// The candidate set being evaluated.
    pub fn candidates(&self) -> &CandidateSet {
        self.set
    }

    /// The workload being evaluated.
    pub fn workload(&self) -> &Workload {
        self.workload
    }

    /// Builds one what-if overlay per collection touched by `key`, holding
    /// exactly the sub-configuration's members as virtual indexes. The
    /// shared catalogs are never mutated; candidates whose collection has
    /// no statistics are skipped (mirroring the old install path, which
    /// could not create their virtual indexes either).
    fn build_overlays(&mut self, key: &[CandId]) -> Vec<(&'a str, CatalogOverlay<'a>)> {
        let set = self.set;
        let mut per: Vec<(&'a str, CatalogOverlay<'a>)> = Vec::new();
        for &id in key {
            let Some(def) = self.derived_def(id) else {
                continue;
            };
            let coll = set.get(id).collection.as_str();
            let at = per
                .iter()
                .position(|(name, _)| *name == coll)
                .unwrap_or_else(|| {
                    let catalog = self.db.parts(coll).expect("a definition was derived").1;
                    per.push((
                        coll,
                        CatalogOverlay::with_telemetry(catalog, &self.telemetry),
                    ));
                    per.len() - 1
                });
            per[at].1.add(def);
        }
        per
    }

    /// Canonical projection of a (sorted, deduplicated) sub-configuration
    /// key onto one statement's relevant candidates. Filtering preserves
    /// order, so the projection is itself canonical.
    fn projection(&self, key: &[CandId], si: usize) -> Vec<CandId> {
        key.iter()
            .copied()
            .filter(|&id| self.state.relevance[id.index()].contains(si))
            .collect()
    }

    /// Affected statements of a sub-configuration: the union of member
    /// affected sets (or every statement when the optimization is off).
    fn affected_statements(&self, key: &[CandId]) -> Vec<usize> {
        if self.use_affected_sets {
            let mut u = StmtSet::new();
            for &id in key {
                u.union_with(&self.set.get(id).affected);
            }
            u.iter().collect()
        } else {
            (0..self.workload.len()).collect()
        }
    }

    /// Evaluates a batch of canonical sub-configuration keys and returns
    /// each key's query-side benefit `Σ freq·(old − new)`, in order.
    ///
    /// The coordinator thread does everything order-sensitive serially —
    /// cache lookups (and their hit/miss counters), budget charging,
    /// fault-stream salting, overlay construction — then fans the planned
    /// optimizer calls out across workers and merges their results back in
    /// task order. Costs are pure functions of the plan, so the returned
    /// values, the memo cache, and every counter total are identical for
    /// any `jobs` value.
    fn eval_groups(&mut self, keys: Vec<Vec<CandId>>) -> Vec<f64> {
        // The time budget is anchored at the first evaluation, not at
        // evaluator construction: a long prepare phase must not eat it.
        let started = *self.started.get_or_insert_with(Instant::now);
        // Coordinator-side stop check: latches a deadline crossing or a
        // cancellation. The current batch still evaluates — the searches
        // observe the latch at their next loop boundary and unwind.
        self.ctl.poll();

        // Phase 1 (coordinator): cache lookups and miss collection.
        enum Slot {
            Done(f64),
            Miss(usize),
        }
        // Journal bookkeeping mirrors the slot list: each input key's
        // member patterns plus whether it was served without a fresh
        // costing (memo hit or in-batch duplicate).
        let journal_on = self.journal.is_enabled();
        let mut journal_slots: Vec<(Vec<String>, bool)> = Vec::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(keys.len());
        let mut misses: Vec<Vec<CandId>> = Vec::new();
        for key in keys {
            debug_assert!(key.windows(2).all(|w| w[0] < w[1]), "canonical keys");
            let patterns: Vec<String> = if journal_on {
                key.iter()
                    .map(|&id| self.set.get(id).pattern.to_string())
                    .collect()
            } else {
                Vec::new()
            };
            if self.use_cache {
                if let Some(v) = self.cache.get(&key) {
                    self.stats.cache_hits += 1;
                    self.telemetry.incr(Counter::BenefitCacheHits);
                    slots.push(Slot::Done(v));
                    journal_slots.push((patterns, true));
                    continue;
                }
            }
            if let Some(i) = misses.iter().position(|k| k == &key) {
                // A duplicate within this batch: evaluate once, fan out
                // once, charge the budget once — even with the memo cache
                // disabled, identical configs in one batch must not cost
                // the workload twice. (With the cache on, a serial
                // evaluation would have found the first occurrence
                // memoized, so it counts as a hit.)
                if self.use_cache {
                    self.stats.cache_hits += 1;
                    self.telemetry.incr(Counter::BenefitCacheHits);
                }
                slots.push(Slot::Miss(i));
                journal_slots.push((patterns, true));
                continue;
            }
            if self.use_cache {
                self.stats.cache_misses += 1;
                self.telemetry.incr(Counter::BenefitCacheMisses);
            }
            slots.push(Slot::Miss(misses.len()));
            journal_slots.push((patterns, false));
            misses.push(key);
        }
        if misses.is_empty() {
            let out: Vec<f64> = slots
                .into_iter()
                .map(|s| match s {
                    Slot::Done(v) => v,
                    Slot::Miss(_) => 0.0,
                })
                .collect();
            self.emit_what_if_events(&journal_slots, &out);
            return out;
        }

        // Phase 2 (coordinator): plan per-statement tasks. Statement-cache
        // lookups, budget charging, and fault-stream salts all happen
        // here, in deterministic order — workers never touch them. Each
        // costing is keyed on the projection of the group onto the
        // statement's relevant candidates: a plan can only consult
        // matching indexes, so equal projections have bitwise-equal
        // costs. A projection hit is served without an optimizer call
        // when pruning is on, and replayed — uncharged, under the same
        // projection-derived fault salt, hence bitwise identically — when
        // it is off; the budget and the cache evolve identically either
        // way.
        let mut tasks: Vec<CostTask> = Vec::new();
        for (group, key) in misses.iter().enumerate() {
            for si in self.affected_statements(key) {
                if !self.active[si] {
                    continue;
                }
                let proj = self.projection(key, si);
                let cached = self.state.stmt_cache[si].get(&proj).copied();
                self.state.asked += 1;
                let exhausted = self.budget.exhausted(self.charged, started.elapsed());
                let (kind, proj) = match cached {
                    // Pruning serves every projection hit; with pruning
                    // off, hits are still served once the budget is gone
                    // (the PR2 ladder: budget → cached → heuristic).
                    Some(cost) if self.prune || exhausted => {
                        self.state.served += 1;
                        self.stats.stmt_cache_hits += 1;
                        self.telemetry.incr(Counter::StmtCacheHits);
                        if self.prune {
                            self.stats.statements_pruned += 1;
                            self.telemetry.incr(Counter::StatementsPruned);
                        }
                        (TaskKind::Served { cost }, None)
                    }
                    // Ablation replay: the cached value exists, so the
                    // statement's collection is known costable and the
                    // call is not charged against the budget.
                    Some(_) => (
                        TaskKind::Optimize {
                            salt: key_hash(SALT_EVALUATE, &proj) ^ self.state.stmt_salts[si],
                        },
                        Some(proj),
                    ),
                    None if exhausted => {
                        if !self.budget_event_emitted {
                            self.budget_event_emitted = true;
                            let charged = self.charged;
                            self.journal.emit(|| Event::BudgetExhausted { charged });
                        }
                        (TaskKind::BudgetFallback, None)
                    }
                    None => {
                        // Prepared iff the collection's statistics are
                        // visible to this run.
                        if self.state.prepared[si].is_none() {
                            (TaskKind::StatsFallback, None)
                        } else if self.rung >= GovernorRung::HeuristicOnly {
                            // Bottom governor rung: uncached costings stop
                            // fanning out to the optimizer entirely.
                            (TaskKind::GovernorFallback, None)
                        } else {
                            self.charged += 1;
                            (
                                TaskKind::Optimize {
                                    salt: key_hash(SALT_EVALUATE, &proj)
                                        ^ self.state.stmt_salts[si],
                                },
                                Some(proj),
                            )
                        }
                    }
                };
                tasks.push(CostTask {
                    group,
                    si,
                    kind,
                    proj,
                });
            }
        }

        // Phase 3 (coordinator): one overlay set per missed group that
        // still needs real optimizer work, built serially so virtual-index
        // churn counters stay deterministic. Fully-served groups skip the
        // overlay — their virtual indexes would never be probed.
        let mut needs_overlay = vec![false; misses.len()];
        for task in &tasks {
            if matches!(task.kind, TaskKind::Optimize { .. }) {
                needs_overlay[task.group] = true;
            }
        }
        let mut overlays: Vec<Vec<(&'a str, CatalogOverlay<'a>)>> =
            Vec::with_capacity(misses.len());
        for (key, &needed) in misses.iter().zip(&needs_overlay) {
            overlays.push(if needed {
                self.build_overlays(key)
            } else {
                Vec::new()
            });
        }

        // Warm-store consult (coordinator-side): a resumed run serves any
        // optimizer task the interrupted run already executed. The
        // overlays above are still built — their virtual-index churn
        // counters are part of the uninterrupted run's footprint.
        let capture = self.ctl.checkpointing();
        let mut warm: Vec<Option<WarmEntry>> = if self.ctl.resumed() {
            tasks
                .iter()
                .map(|t| match t.kind {
                    TaskKind::Optimize { salt } => self.ctl.warm_lookup(&WarmKey {
                        salt,
                        si: t.si,
                        proj: t.proj.clone().unwrap_or_default(),
                    }),
                    _ => None,
                })
                .collect()
        } else {
            vec![None; tasks.len()]
        };

        // Phase 4 (workers): pure costing, fanned out over `jobs` threads.
        let state = &*self.state;
        let (parts, faults) = (&self.parts, &self.faults);
        let warm_ref = &warm;
        let results = run_indexed(tasks.len(), self.jobs, &self.telemetry.clone(), |i, tel| {
            let task = &tasks[i];
            let TaskKind::Optimize { salt } = task.kind else {
                return (None, Vec::new());
            };
            if warm_ref[i].is_some() {
                // Served from the warm store at merge time.
                return (None, Vec::new());
            }
            let slot = state.stmt_coll[task.si];
            let (Some(at), Some(prepared)) = (parts[slot], &state.prepared[task.si]) else {
                return (None, Vec::new());
            };
            let view = overlay_view(&overlays[task.group], &state.colls[slot], at.1);
            let stream = faults.derive_stream(salt);
            what_if(at, prepared, view, &stream, capture, tel)
        });

        // Phase 5 (coordinator): merge in task order — the floating-point
        // summation order is fixed regardless of worker interleaving.
        let mut totals = vec![0.0f64; misses.len()];
        let mut tainted = vec![false; misses.len()];
        for (i, (task, (result, deltas))) in tasks.iter().zip(results).enumerate() {
            let served = warm[i].take();
            let new_cost = match (task.kind, served, result) {
                (TaskKind::Served { cost }, _, _) => cost,
                (TaskKind::Optimize { salt }, Some(entry), _) => {
                    // Warm-served replay: reuse the exact cost, reapply the
                    // original counter footprint, and re-log the entry so
                    // the next checkpoint carries it.
                    self.stats.optimizer_calls += 1;
                    self.apply_deltas(&entry.deltas);
                    let cost = f64::from_bits(entry.cost_bits);
                    if let Some(proj) = &task.proj {
                        self.insert_stmt_cost(task.si, proj.clone(), cost);
                        self.ctl.record_costing(
                            WarmKey {
                                salt,
                                si: task.si,
                                proj: proj.clone(),
                            },
                            entry,
                        );
                    }
                    cost
                }
                (TaskKind::Optimize { salt }, None, Some(cost)) => {
                    self.stats.optimizer_calls += 1;
                    // Memoize under the projection key: any configuration
                    // with the same projection onto this statement has
                    // bitwise the same cost.
                    if let Some(proj) = &task.proj {
                        self.insert_stmt_cost(task.si, proj.clone(), cost);
                        self.ctl.record_costing(
                            WarmKey {
                                salt,
                                si: task.si,
                                proj: proj.clone(),
                            },
                            WarmEntry {
                                cost_bits: cost.to_bits(),
                                deltas,
                            },
                        );
                    }
                    cost
                }
                (kind, _, _) => {
                    // The degradation ladder's heuristic indexed-cost
                    // estimate: half the baseline — optimistic enough that
                    // candidates still rank by affected baseline mass.
                    if matches!(kind, TaskKind::Optimize { .. }) {
                        self.stats.optimizer_calls += 1;
                        // A planned optimizer call that came back empty is
                        // an injected (or real) optimizer failure.
                        let si = task.si;
                        self.journal.emit(|| Event::FaultInjected { statement: si });
                    }
                    if matches!(kind, TaskKind::BudgetFallback) {
                        self.telemetry.incr(Counter::WhatIfBudgetExhausted);
                    }
                    self.fallbacks += 1;
                    self.telemetry.incr(Counter::CostFallbacks);
                    tainted[task.group] = true;
                    0.5 * self.baseline[task.si]
                }
            };
            let entry = &self.workload.entries()[task.si];
            totals[task.group] += entry.freq * (self.baseline[task.si] - new_cost);
        }
        // Discarding the overlays here (not in a worker) keeps the
        // virtual-indexes-dropped counter deterministic too.
        drop(overlays);

        // Heuristic answers are not memoized: a later evaluation inside
        // budget (or past the fault) should get the real number. The
        // bottom governor rung stops memo inserts too.
        if self.use_cache && self.rung < GovernorRung::HeuristicOnly {
            for ((key, &value), &bad) in misses.iter().zip(&totals).zip(&tainted) {
                if !bad {
                    self.memo_bytes += (32 + 8 * key.len()) as u64;
                    self.cache.insert(key.clone(), value);
                }
            }
        }
        let out: Vec<f64> = slots
            .into_iter()
            .map(|s| match s {
                Slot::Done(v) => v,
                Slot::Miss(i) => totals[i],
            })
            .collect();
        self.emit_what_if_events(&journal_slots, &out);
        // Governor ladder + cadence checkpoint: only batches that actually
        // costed something count (fully-served batches change no state
        // worth persisting).
        self.end_batch();
        out
    }

    /// Emits one `WhatIfEvaluated` event per input slot, in slot order,
    /// pairing each configuration with its final query-side benefit. Runs
    /// on the coordinator after the merge, so the journal stream is
    /// identical regardless of worker count.
    fn emit_what_if_events(&self, journal_slots: &[(Vec<String>, bool)], values: &[f64]) {
        if !self.journal.is_enabled() {
            return;
        }
        for ((config, cache_hit), &cost) in journal_slots.iter().zip(values) {
            self.journal.emit(|| Event::WhatIfEvaluated {
                config: config.clone(),
                cost,
                cache_hit: *cache_hit,
            });
        }
    }

    /// Benefit of a configuration per the paper's formula. The
    /// configuration is canonicalized first: duplicate members describe
    /// one index, so they are evaluated — and charged maintenance cost —
    /// once.
    pub fn benefit(&mut self, config: &[CandId]) -> f64 {
        self.stats.benefit_calls += 1;
        self.telemetry.incr(Counter::BenefitEvaluations);
        let _evaluate = self.telemetry.span("evaluate");
        if config.is_empty() {
            return 0.0;
        }
        let config = canonical_key(config.to_vec());
        let groups = if self.use_subconfigs {
            self.decompose(&config)
        } else {
            vec![config.clone()]
        };
        let values = self.eval_groups(groups.into_iter().map(canonical_key).collect());
        let mut total: f64 = values.iter().sum();
        for &id in &config {
            total -= self.mc_total(id);
        }
        total
    }

    /// Benefit of `base ∪ {add}` — the incremental probe the greedy and
    /// top-down searches issue each round. The value (and every counter a
    /// plain [`BenefitEvaluator::benefit`] call would bump) is identical
    /// to evaluating the union directly; the saving comes from the
    /// relevance-pruning layer, which re-costs only statements relevant to
    /// `add` (or whose projection the addition changed) and serves the
    /// rest from the group and statement caches.
    pub fn benefit_delta(&mut self, base: &[CandId], add: CandId) -> f64 {
        self.stats.delta_probes += 1;
        self.telemetry.incr(Counter::DeltaProbes);
        let mut config = base.to_vec();
        config.push(add);
        self.benefit(&config)
    }

    /// Benefits of many configurations, planned and costed as one batch:
    /// every sub-configuration group of every input fans out into the same
    /// worker pool, which is where parallel evaluation pays off most (the
    /// per-candidate scoring pass evaluates dozens of independent
    /// singletons). Equivalent to mapping [`BenefitEvaluator::benefit`]
    /// over `configs`, including all counter totals.
    pub fn benefit_batch(&mut self, configs: &[Vec<CandId>]) -> Vec<f64> {
        let _evaluate = self.telemetry.span("evaluate");
        // Canonicalize every config up front: identical configurations in
        // one batch (after sorting and deduplication) share their group
        // keys, which the in-batch duplicate check in `eval_groups`
        // collapses to a single fan-out — and a single budget charge.
        let canon: Vec<Vec<CandId>> = configs.iter().map(|c| canonical_key(c.clone())).collect();
        let mut keys: Vec<Vec<CandId>> = Vec::new();
        let mut ranges = Vec::with_capacity(canon.len());
        for config in &canon {
            self.stats.benefit_calls += 1;
            self.telemetry.incr(Counter::BenefitEvaluations);
            let start = keys.len();
            if !config.is_empty() {
                let groups = if self.use_subconfigs {
                    self.decompose(config)
                } else {
                    vec![config.clone()]
                };
                keys.extend(groups.into_iter().map(canonical_key));
            }
            ranges.push(start..keys.len());
        }
        let values = self.eval_groups(keys);
        canon
            .iter()
            .zip(ranges)
            .map(|(config, range)| {
                let mut total: f64 = values[range].iter().sum();
                for &id in config {
                    total -= self.mc_total(id);
                }
                total
            })
            .collect()
    }

    /// Estimated workload cost under a configuration
    /// (`baseline − benefit`). Fully reuses the group and statement
    /// caches: pricing a configuration the search already probed costs no
    /// optimizer calls.
    pub fn workload_cost(&mut self, config: &[CandId]) -> f64 {
        self.baseline_cost() - self.benefit(config)
    }

    /// Estimated speedup: baseline cost over configured cost.
    pub fn speedup(&mut self, config: &[CandId]) -> f64 {
        let base = self.baseline_cost();
        let cost = self.workload_cost(config);
        if cost <= 0.0 {
            f64::INFINITY
        } else {
            base / cost
        }
    }

    /// Splits a configuration into sub-configurations of candidates with
    /// transitively overlapping affected sets.
    pub fn decompose(&self, config: &[CandId]) -> Vec<Vec<CandId>> {
        let n = config.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (self.set.get(config[i]), self.set.get(config[j]));
                if a.affected.overlaps(&b.affected) {
                    let (ra, rb) = (find(&mut parent, i), find(&mut parent, j));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        let mut groups: HashMap<usize, Vec<CandId>> = HashMap::new();
        for (i, &cand) in config.iter().enumerate().take(n) {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(cand);
        }
        let mut out: Vec<Vec<CandId>> = groups.into_values().collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort();
        out
    }

    /// Which members of `config` are actually used in some statement's
    /// best plan when the whole configuration is installed — the paper's
    /// "compile all workload queries ... and eliminate indexes that are
    /// never used" check, used by greedy-with-heuristics as a final
    /// redundancy pass. The configuration is materialized as catalog
    /// overlays and statements are compiled across the worker pool; the
    /// result is order-insensitive (sorted), so the fan-out cannot change
    /// it.
    pub fn used_candidates(&mut self, config: &[CandId]) -> Vec<CandId> {
        if config.is_empty() {
            return Vec::new();
        }
        let overlays = self.build_overlays(config);
        let stmts: Vec<usize> = self
            .affected_statements(config)
            .into_iter()
            .filter(|&si| self.active[si])
            .collect();
        // Compiling (Evaluate mode without fault rolls) consumes one
        // optimizer call per statement with statistics available — counted
        // at planning time so the total is deterministic.
        let planned = stmts
            .iter()
            .filter(|&&si| self.state.prepared[si].is_some())
            .count() as u64;
        let (state, parts) = (&*self.state, &self.parts);
        let overlays = &overlays;
        let results = run_indexed(stmts.len(), self.jobs, &self.telemetry.clone(), |i, tel| {
            let slot = state.stmt_coll[stmts[i]];
            let (Some((collection, catalog, stats)), Some(prepared)) =
                (parts[slot], &state.prepared[stmts[i]])
            else {
                return Vec::new();
            };
            let view = overlay_view(overlays, &state.colls[slot], catalog);
            let mut optimizer = Optimizer::with_view(collection, stats, view);
            optimizer.set_telemetry(tel);
            // A definition's overlay id is its candidate's slot past the
            // catalog's own ids (see `derived_def`).
            let first_slot = catalog.slot_capacity();
            optimizer
                .plan(prepared)
                .used_indexes()
                .into_iter()
                .filter_map(|ix| ix.index().checked_sub(first_slot))
                .map(|slot| CandId(slot as u32))
                .collect::<Vec<CandId>>()
        });
        self.stats.optimizer_calls += planned;
        self.charged += planned;
        let mut used: Vec<CandId> = Vec::new();
        for cid in results.into_iter().flatten() {
            if !used.contains(&cid) {
                used.push(cid);
            }
        }
        used.sort_unstable();
        used
    }

    /// The candidate's virtual-index definition under this run's visible
    /// statistics, derived at first use — the one place the evaluator
    /// turns data statistics into index statistics. Its overlay id is the
    /// candidate id past the catalog's own ids, so plans map back to
    /// candidates by subtraction.
    fn derived_def(&mut self, id: CandId) -> Option<Arc<IndexDef>> {
        if let Some(def) = &self.state.defs[id.index()] {
            return def.clone();
        }
        let c = self.set.get(id);
        let def = self
            .db
            .parts(&c.collection)
            .map(|(collection, catalog, stats)| {
                self.telemetry.incr(Counter::StatsDerivations);
                Arc::new(catalog.derive_virtual(collection, stats, &c.pattern, c.kind, id.index()))
            });
        self.state.defs[id.index()] = Some(def.clone());
        def
    }

    /// Total frequency-weighted maintenance cost of one candidate over the
    /// workload's modification statements.
    pub fn mc_total(&mut self, id: CandId) -> f64 {
        if let Some(&v) = self.mc_totals.get(&id) {
            return v;
        }
        let mut total = 0.0;
        if let Some(def) = self.derived_def(id) {
            let coll = self.set.get(id).collection.as_str();
            let cm = CostModel::default();
            for (si, entry) in self.workload.entries().iter().enumerate() {
                if !entry.statement.is_modification() || entry.statement.collection() != coll {
                    continue;
                }
                let (Some((_, _, stats)), Some(prepared)) = (
                    self.parts[self.state.stmt_coll[si]],
                    &self.state.prepared[si],
                ) else {
                    continue;
                };
                let mc = maintenance::maintenance_cost(
                    &def.pattern,
                    def.kind,
                    &def.stats,
                    &entry.statement,
                    stats,
                    prepared,
                    &cm,
                );
                total += entry.freq * mc;
            }
        }
        self.mc_totals.insert(id, total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_candidates, size_candidates};
    use crate::generalize::generalize_set;
    use xia_workloads::tpox::{self, TpoxConfig};

    fn setup() -> (Database, Workload) {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
        (db, w)
    }

    fn candidates(db: &mut Database, w: &Workload) -> CandidateSet {
        let mut set = enumerate_candidates(db, w);
        generalize_set(&mut set);
        size_candidates(db, &mut set);
        set
    }

    #[test]
    fn empty_config_has_zero_benefit() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        assert_eq!(ev.benefit(&[]), 0.0);
        assert!(ev.baseline_cost() > 0.0);
    }

    #[test]
    fn single_selective_index_has_positive_benefit() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let sym = set
            .lookup(
                "SDOC",
                &xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
                xia_xpath::ValueKind::Str,
            )
            .expect("symbol candidate enumerated");
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let b = ev.benefit(&[sym]);
        assert!(b > 0.0, "benefit = {b}");
        assert!(ev.speedup(&[sym]) > 1.0);
    }

    #[test]
    fn benefit_is_monotone_enough_for_all_vs_one() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let one = vec![all[0]];
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let b_all = ev.benefit(&all);
        let b_one = ev.benefit(&one);
        assert!(b_all >= b_one, "all={b_all} one={b_one}");
    }

    #[test]
    fn decompose_groups_by_affected_overlap() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let all = set.basic_ids();
        let groups = ev.decompose(&all);
        // There is more than one group (queries over three collections),
        // and groups partition the config.
        assert!(groups.len() > 1);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, all.len());
        // Candidates from different collections never share a group.
        for g in &groups {
            let coll = &set.get(g[0]).collection;
            assert!(g.iter().all(|&id| &set.get(id).collection == coll));
        }
        let _ = ev.benefit(&all);
    }

    #[test]
    fn cache_reduces_optimizer_calls() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let calls0 = ev.eval_stats().optimizer_calls;
        let b1 = ev.benefit(&all);
        let calls1 = ev.eval_stats().optimizer_calls;
        let b2 = ev.benefit(&all);
        let calls2 = ev.eval_stats().optimizer_calls;
        assert_eq!(b1, b2);
        assert!(calls1 > calls0);
        assert_eq!(calls2, calls1, "second evaluation must be fully cached");
        assert!(ev.eval_stats().cache_hits > 0);
    }

    #[test]
    fn affected_sets_limit_work() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let one = vec![set.basic_ids()[0]];
        // With affected sets on.
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let base_calls = ev.eval_stats().optimizer_calls;
        ev.benefit(&one);
        let with = ev.eval_stats().optimizer_calls - base_calls;
        // With affected sets off (must re-cost every statement).
        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        ev2.use_affected_sets = false;
        ev2.use_cache = false;
        let base_calls2 = ev2.eval_stats().optimizer_calls;
        ev2.benefit(&one);
        let without = ev2.eval_stats().optimizer_calls - base_calls2;
        assert!(with < without, "with={with} without={without}");
    }

    #[test]
    fn maintenance_cost_reduces_benefit_for_update_workloads() {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let mut texts = tpox::queries(&cfg);
        let n_queries = texts.len();
        texts.extend(tpox::update_mix(&cfg));
        let w = Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap();
        let set = candidates(&mut db, &w);
        let sym = set
            .lookup(
                "SDOC",
                &xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
                xia_xpath::ValueKind::Str,
            )
            .unwrap();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let mc = ev.mc_total(sym);
        assert!(
            mc > 0.0,
            "insert of a Security must charge the symbol index"
        );
        let _ = n_queries;
    }

    #[test]
    fn mc_total_matches_the_per_candidate_formula_bit_for_bit() {
        // The prepared statements carry each insert's parsed payload and
        // each delete/update's victim estimate; `mc_total` must still be
        // the sum the per-(candidate, statement) formula gives when it
        // parses the payload and re-estimates the victims every time.
        use xia_xpath::{contain, Statement, ValueKind};
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let mut texts = tpox::queries(&cfg);
        texts.extend(tpox::update_mix(&cfg));
        let w = Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap();
        let set = candidates(&mut db, &w);
        let got: Vec<u64> = {
            let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
            set.ids().map(|id| ev.mc_total(id).to_bits()).collect()
        };

        let payload_entries = |xml: &str, pattern: &LinearPath, kind: ValueKind| -> u64 {
            let mut vocab = xia_xml::Vocabulary::new();
            let doc = xia_xml::parse_document(xml, &mut vocab).expect("the mix is well-formed");
            doc.nodes()
                .filter(|(_, node)| {
                    let Some(value) = &node.value else {
                        return false;
                    };
                    let labels: Vec<&str> = vocab
                        .paths
                        .labels(node.path)
                        .iter()
                        .map(|&s| vocab.names.resolve(s))
                        .collect();
                    (kind == ValueKind::Str || value.as_num().is_some())
                        && pattern.matches_labels(&labels)
                })
                .count() as u64
        };
        let cm = CostModel::default();
        let mut charged = 0;
        for (id, got) in set.ids().zip(got) {
            let c = set.get(id);
            let (collection, catalog, stats) = db.parts(&c.collection).unwrap();
            let istats = Catalog::derive_stats(collection, stats, &c.pattern, c.kind).1;
            let mut want = 0.0;
            for entry in w.entries() {
                let stmt = &*entry.statement;
                if !stmt.is_modification() || stmt.collection() != c.collection {
                    continue;
                }
                // No index is in place, so the one-shot plan is the scan
                // and its document estimate is the victim estimate.
                let victims = || {
                    Optimizer::new(collection, stats, catalog)
                        .optimize(stmt)
                        .est_docs
                };
                let mc = match stmt {
                    Statement::Query(_) => unreachable!("queries are not modifications"),
                    Statement::Insert { xml, .. } => {
                        payload_entries(xml, &c.pattern, c.kind) as f64 * cm.update_entry
                    }
                    Statement::Delete { .. } => {
                        let per_doc = istats.entries as f64 / stats.doc_count as f64;
                        victims() * per_doc * cm.update_entry
                    }
                    Statement::Update { set: path, .. } => {
                        if contain::covers(&c.pattern, path) {
                            victims() * 2.0 * cm.update_entry
                        } else {
                            0.0
                        }
                    }
                };
                want += entry.freq * mc;
            }
            assert_eq!(got, want.to_bits(), "candidate {c}");
            charged += usize::from(want > 0.0);
        }
        assert!(charged > 3, "the update mix must charge several candidates");
    }

    #[test]
    fn fanned_out_batches_keep_order_and_merge_counters() {
        // Above the threshold `run_indexed` really spawns; results must
        // come back in index order and every worker's scratch counters
        // must land in the caller's sink.
        let n = PAR_MIN_TASKS + 17;
        let tel = Telemetry::new();
        for jobs in [1, 4] {
            let before = tel.get(Counter::OptimizerEvaluateCalls);
            let out = run_indexed(n, jobs, &tel, |i, t| {
                t.incr(Counter::OptimizerEvaluateCalls);
                i * i
            });
            assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(tel.get(Counter::OptimizerEvaluateCalls) - before, n as u64);
        }
    }

    #[test]
    fn subconfig_results_compose() {
        // benefit(config) must equal the sum over its decomposition when
        // evaluated without subconfig decomposition (no cross-group
        // interaction by construction).
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let with_sub = ev.benefit(&all);
        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        ev2.use_subconfigs = false;
        let without_sub = ev2.benefit(&all);
        let rel = (with_sub - without_sub).abs() / without_sub.abs().max(1.0);
        assert!(rel < 1e-9, "with={with_sub} without={without_sub}");
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        // The memo cache keys on the canonical (sorted) sub-configuration:
        // re-evaluating a permutation of an already-costed configuration
        // must be served entirely from cache.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let fwd = set.basic_ids();
        assert!(fwd.len() >= 2);
        let mut rev = fwd.clone();
        rev.reverse();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let b1 = ev.benefit(&fwd);
        let stats1 = ev.eval_stats();
        let b2 = ev.benefit(&rev);
        let stats2 = ev.eval_stats();
        assert_eq!(b1.to_bits(), b2.to_bits());
        assert_eq!(
            stats2.optimizer_calls, stats1.optimizer_calls,
            "permuted configuration re-costed instead of cache-served"
        );
        assert_eq!(stats2.cache_misses, stats1.cache_misses);
        assert!(stats2.cache_hits > stats1.cache_hits);
    }

    #[test]
    fn duplicate_configs_in_batch_cost_once_without_cache() {
        // Identical configurations inside one batch must collapse to a
        // single fan-out and a single budget charge even with the memo
        // cache disabled — double costing was the PR 4 bugfix target.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let one = vec![set.basic_ids()[0]];
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        ev.use_cache = false;
        let calls0 = ev.eval_stats().optimizer_calls;
        let charged0 = ev.budget_charged();
        let dup = ev.benefit_batch(&[one.clone(), one.clone(), one.clone()]);
        let dup_calls = ev.eval_stats().optimizer_calls - calls0;
        let dup_charged = ev.budget_charged() - charged0;
        assert_eq!(dup[0].to_bits(), dup[1].to_bits());
        assert_eq!(dup[0].to_bits(), dup[2].to_bits());

        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        ev2.use_cache = false;
        let calls1 = ev2.eval_stats().optimizer_calls;
        let charged1 = ev2.budget_charged();
        let single = ev2.benefit_batch(std::slice::from_ref(&one));
        assert_eq!(single[0].to_bits(), dup[0].to_bits());
        assert_eq!(
            ev2.eval_stats().optimizer_calls - calls1,
            dup_calls,
            "duplicates in a batch were costed more than once"
        );
        assert_eq!(
            ev2.budget_charged() - charged1,
            dup_charged,
            "duplicates in a batch were charged more than once"
        );
    }

    #[test]
    fn duplicate_members_in_config_collapse() {
        // A configuration is a set: listing a member twice must evaluate
        // (and charge maintenance for) one index.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let a = set.basic_ids()[0];
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let once = ev.benefit(&[a]);
        let twice = ev.benefit(&[a, a]);
        assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn pruned_and_unpruned_benefits_match_bitwise() {
        // The relevance-pruning layer is a pure evaluation shortcut: with
        // the memo cache disabled (so the statement cache carries the whole
        // load), every benefit value must stay bitwise identical to the
        // unpruned path, at strictly fewer optimizer calls.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let probe = |prune: bool, db: &mut Database| -> (Vec<u64>, u64, u64, EvalStats) {
            let mut ev = BenefitEvaluator::new(db, &w, &set);
            ev.prune = prune;
            ev.use_cache = false;
            let mut bits = Vec::new();
            let mut base: Vec<CandId> = Vec::new();
            for &id in all.iter().take(4) {
                bits.push(ev.benefit_delta(&base, id).to_bits());
                base.push(id);
            }
            bits.push(ev.benefit(&all).to_bits());
            bits.push(ev.benefit(&all).to_bits());
            (
                bits,
                ev.eval_stats().optimizer_calls,
                ev.budget_charged(),
                ev.eval_stats(),
            )
        };
        let (bits_on, calls_on, charged_on, stats_on) = probe(true, &mut db);
        let (bits_off, calls_off, charged_off, stats_off) = probe(false, &mut db);
        assert_eq!(bits_on, bits_off, "pruning changed a benefit value");
        assert_eq!(
            charged_on, charged_off,
            "pruning changed the budget trajectory"
        );
        assert!(
            calls_on < calls_off,
            "pruning saved no optimizer calls: on={calls_on} off={calls_off}"
        );
        assert!(stats_on.statements_pruned > 0);
        assert!(stats_on.stmt_cache_hits > 0);
        assert_eq!(stats_off.statements_pruned, 0);
        assert_eq!(stats_on.delta_probes, 4);
        assert_eq!(stats_off.delta_probes, 4);
    }

    #[test]
    fn delta_probe_matches_fresh_union_evaluation() {
        // benefit_delta(base, x) must return bitwise the same value a
        // fresh evaluator computes for base ∪ {x}, while re-costing only
        // what the addition touched.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        assert!(all.len() >= 3);
        let base = vec![all[0], all[1]];
        let add = all[2];

        let (delta, delta_calls, probes) = {
            let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
            let _ = ev.benefit(&base);
            let calls_before = ev.eval_stats().optimizer_calls;
            let delta = ev.benefit_delta(&base, add);
            (
                delta,
                ev.eval_stats().optimizer_calls - calls_before,
                ev.eval_stats().delta_probes,
            )
        };
        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        let union = vec![all[0], all[1], all[2]];
        let fresh = ev2.benefit(&union);
        let fresh_calls = ev2.eval_stats().optimizer_calls;
        assert_eq!(delta.to_bits(), fresh.to_bits());
        assert!(
            delta_calls < fresh_calls,
            "delta probe re-costed as much as a fresh evaluation: \
             delta={delta_calls} fresh={fresh_calls}"
        );
        assert_eq!(probes, 1);
    }

    #[test]
    fn repeated_evaluation_charges_no_further_budget() {
        // Only statements actually re-costed charge the what-if budget:
        // re-evaluating a configuration (in any member order) is free.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let fwd = set.basic_ids();
        let mut rev = fwd.clone();
        rev.reverse();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let _ = ev.benefit(&fwd);
        let charged = ev.budget_charged();
        let _ = ev.benefit(&fwd);
        let _ = ev.benefit(&rev);
        assert_eq!(
            ev.budget_charged(),
            charged,
            "a cache-served evaluation charged the budget"
        );
    }

    #[test]
    fn a_retained_state_answers_the_next_run_and_extends_with_it() {
        // Two evaluators over one state: the second asks what the first
        // asked and makes no optimizer call; a grown workload and a grown
        // candidate set cost only what is new, at the same bits a fresh
        // evaluator computes.
        use crate::advisor::AdvisorParams;
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let params = AdvisorParams::default();
        let probe = |ev: &mut BenefitEvaluator<'_>, ids: &[CandId]| -> Vec<u64> {
            let mut bits = vec![ev.baseline_cost().to_bits(), ev.benefit(ids).to_bits()];
            bits.extend(ids.iter().map(|&id| ev.benefit(&[id]).to_bits()));
            bits
        };
        let mut state = CostingState::default();
        let first = {
            let mut ev = BenefitEvaluator::retained(&db, &w, &set, &params, &mut state);
            assert!(ev.eval_stats().optimizer_calls >= w.len() as u64);
            probe(&mut ev, &all)
        };
        let kept = state.costings();
        assert!(kept > w.len());
        {
            let mut ev = BenefitEvaluator::retained(&db, &w, &set, &params, &mut state);
            assert_eq!(probe(&mut ev, &all), first);
            assert_eq!(ev.eval_stats().optimizer_calls, 0);
            assert_eq!(ev.budget_charged(), 0, "a kept costing is free");
            assert_eq!(ev.cover_stats(), CoverCacheStats::default());
        }
        assert_eq!(state.costings(), kept);

        // Half the workload first, then all of it over the candidate set
        // extended the way a session extends it (ids append-only).
        let half = w.prefix(w.len() / 2);
        let mut grown = CandidateSet::new();
        let p = AdvisorParams::default();
        crate::Advisor::extend_prepared(&db, &half, 0, &mut grown, &p);
        let mut state = CostingState::default();
        {
            let ids = grown.basic_ids();
            let mut ev = BenefitEvaluator::retained(&db, &half, &grown, &params, &mut state);
            probe(&mut ev, &ids);
        }
        crate::Advisor::extend_prepared(&db, &w, half.len(), &mut grown, &p);
        let ids = grown.basic_ids();
        let (extended, calls) = {
            let mut ev = BenefitEvaluator::retained(&db, &w, &grown, &params, &mut state);
            (probe(&mut ev, &ids), ev.eval_stats().optimizer_calls)
        };
        let mut fresh = BenefitEvaluator::configured(&db, &w, &grown, &params);
        assert_eq!(extended, probe(&mut fresh, &ids));
        assert!(calls > 0 && calls < fresh.eval_stats().optimizer_calls);
        assert_eq!(state.statements(), w.len());
        assert_eq!(state.candidates(), grown.len());
    }

    #[test]
    fn retained_costs_count_against_the_governor_and_are_dropped_by_it() {
        use crate::advisor::AdvisorParams;
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let mut state = CostingState::default();
        {
            let params = AdvisorParams::default();
            let mut ev = BenefitEvaluator::retained(&db, &w, &set, &params, &mut state);
            ev.benefit(&all);
        }
        let kept = state.bytes();
        assert!(kept > 0 && state.costings() > w.len());
        // The next run's whole budget is less than what is already kept:
        // its first batch — served entirely from the state — tips the
        // ladder, the second reclaims the statement costs, kept ones too.
        let governed = AdvisorParams {
            ctl: RunController::new().with_mem_budget(kept / 2),
            ..AdvisorParams::default()
        };
        {
            let mut ev = BenefitEvaluator::retained(&db, &w, &set, &governed, &mut state);
            ev.benefit(&all);
            assert_eq!(ev.eval_stats().optimizer_calls, 0);
            assert_eq!(ev.governor_rung(), GovernorRung::ShrinkMemo);
            ev.benefit(&all[..1]);
            assert_eq!(ev.governor_rung(), GovernorRung::NoStmtCache);
        }
        assert_eq!(state.bytes(), 0);
        assert_eq!(state.costings(), w.len(), "the clean baselines stay");
    }

    #[test]
    fn time_budget_clock_starts_at_first_benefit_call() {
        // The wall-clock budget must account evaluation time, not the time
        // since evaluator construction — expensive setup (or an idle
        // advisor session) between construction and the first benefit()
        // call must not burn the budget.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let budget = WhatIfBudget {
            max_calls: 0,
            max_millis: 500,
        };
        let mut ev =
            BenefitEvaluator::with_faults(&mut db, &w, &set, &FaultInjector::off(), budget);
        std::thread::sleep(Duration::from_millis(600));
        let b = ev.benefit(&set.basic_ids());
        assert_eq!(
            ev.fallback_count(),
            0,
            "budget clock counted pre-evaluation time"
        );
        assert!(b > 0.0);
    }
}
