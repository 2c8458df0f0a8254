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
//! * **affected sets** — only statements whose plans could consult a
//!   member can change cost, so only the union of the members' relevance
//!   rows (see below) is re-optimized;
//! * **sub-configurations** — the configuration is split into groups of
//!   candidates with transitively overlapping relevance rows (indexes in
//!   different groups cannot interact) and each group is evaluated
//!   independently. Which candidates can interact depends only on the
//!   workload and the candidate set, so it is worked out once per
//!   evaluator: a class × candidate bitset table (the candidates relevant
//!   to each costing class), from which each candidate's interaction row
//!   is derived at first use. A split is then connected components over
//!   those rows, a word of candidates at a time, and a statement's
//!   projection of a group is the group AND its class's row;
//! * **cache** — evaluated sub-configurations are memoized.
//!
//! All three mechanisms can be disabled independently for the ablation
//! experiment (E9 in DESIGN.md). None of them changes a value: a
//! statement outside every member's row has its baseline cost under the
//! configuration, so the benefit is the optimizer's own cost difference
//! with or without them.
//!
//! The one notion of relevance (DESIGN.md §11) is a relevance matrix
//! derived from the statements' index-matching signatures: it tells, for
//! each candidate, exactly which statements' plans could consult it — the
//! candidate's relevance row. Each per-statement costing is keyed on the
//! canonical *projection* of the sub-configuration onto the statement's
//! relevant candidates and memoized in a statement-level cost cache —
//! adding an irrelevant index or permuting the configuration is a
//! guaranteed hit, so an incremental
//! `benefit(config ∪ {x})` probe re-costs only statements in
//! `relevant(x)`. The optimizer consults the catalog only through index
//! matching (the same covers/kind test the signature encodes), so serving a
//! projection hit is bitwise identical to re-running the optimizer. The
//! cache is kept per *costing class* — the statement's cost-identity
//! template (DESIGN.md §11) — so statements of one template share their
//! costings: one optimizer call per (template, projection), however often
//! the template repeats, while every benefit still sums per statement in
//! statement order. The reference is an evaluator with `use_cache = false`,
//! which sends every per-statement costing to the optimizer (pinned by the
//! unit tests below).
//!
//! What is left — an optimizer call per (template, projection) — is made
//! cheap by doing its configuration-invariant half once (DESIGN.md §18):
//! every costable template is prepared once
//! ([`xia_optimizer::Optimizer::prepare_shared`], one statistics pass per
//! distinct path of a collection) and each candidate's virtual index
//! definition is derived at first use; a what-if task is then index
//! matching and arithmetic over those ([`xia_optimizer::Optimizer::plan`]
//! under a [`CatalogOverlay`] of shared definitions).
//!
//! The evaluator itself is the thin *per-run* half of that machinery: the
//! budget account, the counters, the fallback and quarantine bookkeeping,
//! the frequency-weighted memos, the run controller.
//! Everything that depends only on (statistics snapshot, statement,
//! candidate) lives in a [`CostingState`] (DESIGN.md §17) the evaluator
//! reads and extends: owned and dropped with it on the one-shot paths,
//! borrowed from a [`crate::TuningSession`] that keeps it across calls.

use crate::candidate::{ones, CandId, CandidateSet, StmtSet};
use crate::compress::WorkloadTemplate;
use crate::costing::{ByProjection, CostingState, KeyHasher};
use crate::error::{IssueStage, StatementIssue};
use crate::runctl::RunController;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xia_fault::FaultInjector;
use xia_obs::{Counter, Event, EventJournal, Hist, Telemetry};
use xia_optimizer::{maintenance, CostModel, Optimizer, PathStatsMemo, PreparedStatement};
use xia_storage::{
    Catalog, CatalogOverlay, CatalogView, Collection, CollectionStats, Database, IndexDef,
    StatsView,
};
use xia_workloads::Workload;

/// Counters exposed for the efficiency experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Evaluate-mode optimizer invocations (one per template and
    /// projection costed; one per statement with the cache off).
    pub optimizer_calls: u64,
    /// Sub-configuration cache hits.
    pub cache_hits: u64,
    /// Sub-configuration cache misses (evaluations performed).
    pub cache_misses: u64,
    /// `benefit()` invocations.
    pub benefit_calls: u64,
    /// Per-statement costings answered without an optimizer call: from the
    /// `(template, projection)`-keyed cost cache, or from the costing a
    /// statement of the same template makes in the same batch.
    pub stmt_cache_hits: u64,
    /// Per-statement costings the pruning layer served without an
    /// optimizer call. Every statement-cache hit is one, so this always
    /// equals `stmt_cache_hits`.
    pub statements_pruned: u64,
    /// Incremental `benefit_delta` probes issued by the searches.
    pub delta_probes: u64,
}

/// A what-if evaluation budget. When it is reached, further benefit
/// evaluations fall back to cached sub-configuration values and, failing
/// that, heuristic costs (the degradation ladder: budget → cached →
/// heuristic). Zero means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WhatIfBudget {
    /// Maximum Evaluate-mode optimizer calls (0 = unlimited).
    pub max_calls: u64,
}

impl WhatIfBudget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A call-count budget.
    pub fn calls(max_calls: u64) -> Self {
        Self { max_calls }
    }

    fn exhausted(&self, calls: u64) -> bool {
        self.max_calls > 0 && calls >= self.max_calls
    }
}

/// FNV-1a over a canonical key: salts the per-task fault streams.
fn key_hash(seed: u64, key: &[CandId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &CandId(id) in key {
        h = (h ^ u64::from(id)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    /// Answered from the class's cost cache at planning time (projection
    /// hit); workers skip it.
    Served { cost: f64 },
    /// Answered by task `task` of the same batch, which costs a statement
    /// of the same class under the same projection; workers skip it.
    Shared { task: usize },
    /// The what-if budget was exhausted when this task was planned.
    BudgetFallback,
    /// Collection statistics were unavailable when this task was planned.
    StatsFallback,
}

/// One planned statement costing against one missed sub-configuration.
#[derive(Debug, Clone)]
struct CostTask {
    /// Index into the batch's missed-group list.
    group: usize,
    /// Statement index in the workload.
    si: usize,
    kind: TaskKind,
    /// For an `Optimize` task: the canonical projection of the group onto
    /// the statement's relevant candidates — the key its result is held
    /// under — as its hash and its range in the batch's projection arena
    /// (`scratch_projs`). Empty for every other kind.
    proj: Projection,
}

/// A projection planned in a batch: its FNV hash and where it sits in the
/// batch's projection arena.
#[derive(Debug, Clone, Copy, Default)]
struct Projection {
    hash: u64,
    at: u32,
    len: u32,
}

impl Projection {
    fn of(self, arena: &[CandId]) -> &[CandId] {
        &arena[self.at as usize..(self.at + self.len) as usize]
    }
}

/// Which candidates can interact, worked out once per evaluator. A plan
/// consults only candidates relevant to its statement, and the statements
/// of one costing class share their relevance (their signatures are the
/// template's), so two candidates interact exactly when some class is
/// relevant to both. The class rows are that relation as a class ×
/// candidate bitset table; a candidate's interaction row — the candidates
/// that share a statement with it — is the OR of the class rows it is in.
#[derive(Default)]
struct Interactions {
    /// Words per candidate bitset.
    words: usize,
    /// Per costing class, `words` each: the candidates relevant to its
    /// statements.
    class_rows: Vec<u64>,
    /// Per candidate, `words` each: its interaction row, derived at first
    /// use. A derived row holds its own candidate, unless the candidate is
    /// relevant to no statement — it interacts with nothing, and its row
    /// stays empty.
    rows: RefCell<Vec<u64>>,
}

impl Interactions {
    /// The table over `state`'s classes and relevance rows, filled in
    /// Σ|row| work.
    fn new(state: &CostingState) -> Self {
        let candidates = state.relevance.len();
        let words = candidates.div_ceil(64);
        let mut class_rows = vec![0u64; state.classes.len() * words];
        for (c, row) in state.relevance.iter().enumerate() {
            for si in row.iter() {
                class_rows[state.class[si] as usize * words + c / 64] |= 1 << (c % 64);
            }
        }
        Self {
            words,
            class_rows,
            rows: RefCell::new(vec![0; candidates * words]),
        }
    }

    /// The candidates relevant to class `class`'s statements.
    fn class_row(&self, class: u32) -> &[u64] {
        let at = class as usize * self.words;
        &self.class_rows[at..at + self.words]
    }

    /// Candidate `c`'s interaction row in `rows` (this table's, built
    /// over `state`), derived from the class rows of the statements
    /// relevant to it unless it already is.
    fn row<'r>(&self, rows: &'r mut [u64], c: usize, state: &CostingState) -> &'r [u64] {
        let row = &mut rows[c * self.words..(c + 1) * self.words];
        if row[c / 64] & (1 << (c % 64)) == 0 {
            let mut last = None;
            for si in state.relevance[c].iter() {
                // A class's statements are often adjacent: OR its row once.
                let class = state.class[si];
                if last.replace(class) != Some(class) {
                    for (a, b) in row.iter_mut().zip(self.class_row(class)) {
                        *a |= b;
                    }
                }
            }
        }
        row
    }
}

/// Sub-configuration groups, end to end: group `i` is
/// `keys[ends[i - 1]..ends[i]]`, members ascending. Reused by every
/// evaluation, so splitting a configuration allocates nothing once it has
/// grown; only a memo miss copies its key out.
#[derive(Default)]
struct Groups {
    keys: Vec<CandId>,
    ends: Vec<u32>,
}

impl Groups {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &[CandId] {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.keys[start..self.ends[i] as usize]
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.ends.clear();
    }

    /// Appends a group: the set bits of a candidate bitset.
    fn push(&mut self, bits: &[u64]) {
        (self.keys).extend(ones(bits.iter().copied()).map(|id| CandId(id as u32)));
        let end = u32::try_from(self.keys.len()).expect("a batch's groups fit 2^32 members");
        self.ends.push(end);
    }
}

/// The candidate bitsets a configuration is split in, reused by every
/// evaluation.
#[derive(Default)]
struct SplitScratch {
    /// The configuration, canonical: a set.
    config: Vec<u64>,
    /// Its members no group has taken yet.
    left: Vec<u64>,
    /// The group being grown (and, while a batch is planned, the missed
    /// group being planned).
    group: Vec<u64>,
    /// Members taken into the group whose interaction rows are unread.
    stack: Vec<usize>,
}

/// A sub-configuration as the journal names it: its members' patterns, in
/// key order, shared by every event that evaluates it.
type JournalConfig = Arc<[Arc<str>]>;

/// A memoized sub-configuration benefit, with the configuration's journal
/// rendering when the journal is armed (so a memo hit journals without
/// allocating).
struct Memoized {
    value: f64,
    config: Option<JournalConfig>,
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
/// the prepared statement under `view`. `None` on an injected fault.
fn what_if(
    (collection, _, stats): Parts<'_>,
    prepared: &PreparedStatement,
    view: CatalogView<'_>,
    faults: &FaultInjector,
    tel: &Telemetry,
) -> Option<f64> {
    let mut optimizer = Optimizer::with_view(collection, stats, view);
    optimizer.set_telemetry(tel);
    optimizer.set_faults(faults);
    let t0 = tel.is_enabled().then(Instant::now);
    let cost = optimizer.try_plan_cost(prepared).ok();
    if let Some(t0) = t0 {
        tel.record(Hist::WhatIfCall, t0.elapsed());
    }
    cost
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
    mc_totals: Vec<Option<f64>>,
    /// Memoized sub-configuration benefits (query side, before mc), keyed
    /// on the canonical sub-configuration. Frequency-weighted, so it lives
    /// and dies with the run. Read and written only by the coordinator.
    cache: HashMap<Vec<CandId>, Memoized, BuildHasherDefault<KeyHasher>>,
    /// What-if budget account: optimizer calls actually made in this run
    /// (statement-cache misses). A costing the state already held, or one
    /// a statement of the same template already paid for, is free.
    charged: u64,
    /// Ablation switch: restrict evaluation to the statements in the
    /// members' relevance rows.
    pub use_affected_sets: bool,
    /// Ablation switch: decompose configurations into sub-configurations.
    pub use_subconfigs: bool,
    /// Ablation switch: memoize sub-configuration evaluations and serve
    /// per-statement costings from the statement cache. Off, every
    /// costing is a miss that goes to the optimizer — the reference the
    /// cached path is checked against.
    pub use_cache: bool,
    stats: EvalStats,
    /// Telemetry sink for what-if accounting (off unless attached).
    telemetry: Telemetry,
    /// Fault injector that per-task streams are derived from.
    faults: FaultInjector,
    /// What-if call budget; exhausted → heuristic fallbacks.
    budget: WhatIfBudget,
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
    /// Run-lifecycle controller: deadline and cancel polls. All
    /// interactions are coordinator-side, so lifecycle decisions are
    /// jobs-invariant.
    ctl: RunController,
    /// Which candidates can interact (see [`Interactions`]).
    interactions: Interactions,
    /// Reused by each evaluation: the configuration's bitsets …
    scratch_split: SplitScratch,
    /// … and its groups.
    scratch_groups: Groups,
    /// Reused by each evaluation for a group's affected statements (the
    /// union of its members' relevance rows).
    scratch_affected: StmtSet,
    /// Per class: the last group that planned a task for it (numbered
    /// across batches by `group_seq`) and that task. Another member of the
    /// class in the same group reuses the task without a lookup.
    class_stamp: Vec<(u64, usize)>,
    /// Groups planned so far over the evaluator's life.
    group_seq: u64,
    /// Per batch: `(class, projection hash)` → the task costing that class
    /// under that projection, for classes with more than one member. A hit
    /// is confirmed by comparing projections. Cleared, not dropped.
    scratch_shared: ByProjection<usize>,
    /// Per batch: the projections of its `Optimize` tasks, end to end
    /// ([`CostTask::proj`]). Cleared, not dropped.
    scratch_projs: Vec<CandId>,
    /// Per batch, with the journal armed: each input key's configuration
    /// and whether it was served without a fresh costing, in input order
    /// (drained into the journal) …
    scratch_journal: Vec<(JournalConfig, bool)>,
    /// … and each missed group's configuration (drained into the memo).
    /// Both are cleared, not dropped.
    scratch_configs: Vec<JournalConfig>,
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
        Self::from_params(
            db,
            workload,
            set,
            &[],
            params,
            StateSlot::Owned(Box::default()),
        )
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
        Self::from_params(db, workload, set, &[], params, StateSlot::Retained(state))
    }

    /// [`BenefitEvaluator::retained`] over a compressed workload, whose
    /// statements are `templates`' representatives in order: each
    /// statement's template fingerprint is taken from its template, not
    /// walked again.
    pub(crate) fn over_templates(
        db: &'a Database,
        workload: &'a Workload,
        templates: &[WorkloadTemplate],
        set: &'a CandidateSet,
        params: &crate::advisor::AdvisorParams,
        state: &'a mut CostingState,
    ) -> Self {
        Self::from_params(
            db,
            workload,
            set,
            templates,
            params,
            StateSlot::Retained(state),
        )
    }

    fn from_params(
        db: &'a Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        templates: &[WorkloadTemplate],
        params: &crate::advisor::AdvisorParams,
        state: StateSlot<'a>,
    ) -> Self {
        Self::build(
            db,
            workload,
            set,
            templates,
            &params.faults,
            params.what_if_budget,
            &params.telemetry,
            params.effective_jobs(),
            &params.journal,
            &params.ctl,
            state,
        )
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
            &[],
            faults,
            budget,
            &Telemetry::off(),
            1,
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
        templates: &[WorkloadTemplate],
        faults: &FaultInjector,
        budget: WhatIfBudget,
        telemetry: &Telemetry,
        jobs: usize,
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
        let mut ev = Self {
            db,
            workload,
            set,
            state,
            parts: Vec::new(),
            baseline: Vec::new(),
            mc_totals: vec![None; set.len()],
            cache: HashMap::default(),
            charged: 0,
            use_affected_sets: true,
            use_subconfigs: true,
            use_cache: true,
            stats: EvalStats::default(),
            telemetry: telemetry.clone(),
            faults: faults.clone(),
            budget,
            jobs: jobs.max(1),
            active: vec![true; workload.len()],
            quarantined: Vec::new(),
            fallbacks: 0,
            journal: journal.clone(),
            budget_event_emitted: false,
            ctl: ctl.clone(),
            interactions: Interactions::default(),
            scratch_split: SplitScratch::default(),
            scratch_groups: Groups::default(),
            scratch_affected: StmtSet::new(),
            class_stamp: Vec::new(),
            group_seq: 0,
            scratch_shared: ByProjection::default(),
            scratch_projs: Vec::new(),
            scratch_journal: Vec::new(),
            scratch_configs: Vec::new(),
        };
        ev.extend_state(templates);
        ev.interactions = Interactions::new(&ev.state);
        ev.class_stamp = vec![(0, 0); ev.state.classes.len()];
        ev.compute_baselines();
        ev
    }

    /// Brings the costing state up to date with the workload and the
    /// candidate set, both of which only ever grow: classes, signatures,
    /// fault salts and prepared forms for the statements it has not seen,
    /// relevance rows for new candidates, and existing rows grown by the
    /// new statements. Pure containment and statistics work — no
    /// optimizer calls. On a fresh state this is the whole of it.
    /// `templates`, when not empty, are the workload's templates (it is a
    /// compressed workload), whose fingerprints the classes are found by.
    fn extend_state(&mut self, templates: &[WorkloadTemplate]) {
        let state = &mut *self.state;
        let workload = self.workload;
        let entries = workload.entries();
        let (from, known) = (state.statements(), state.candidates());
        assert!(
            from <= entries.len() && known <= self.set.len(),
            "a costing state only grows with its workload and candidate set"
        );
        // Prepared here, once per class, through one path-statistics memo
        // per collection: statements (and CoPhy templates in their
        // thousands) share a few hundred distinct paths.
        self.parts = state.colls.iter().map(|c| self.db.parts(c)).collect();
        let mut preparers: Vec<Option<Optimizer<'a>>> = self.parts.iter().map(|_| None).collect();
        let new = entries.len() - from;
        state.class.reserve(new);
        state.stmt_salts.reserve(new);
        state.stmt_coll.reserve(new);
        // At most one class per new statement, and per slot.
        state.classes.reserve(new.min(workload.slots()));
        (state.class_of_fingerprint).reserve(new.min(workload.slots()));
        let mut keys = [String::new(), String::new()];
        // `skip` is O(1): extending costs the new statements only.
        for (si, entry) in entries.iter().enumerate().skip(from) {
            let fingerprint = templates.get(si).map(|t| t.fingerprint);
            let (found, salt) = state.class_for(workload, si, fingerprint, &mut keys);
            let (class, slot) = match found {
                Some(class) => (
                    class,
                    state.stmt_coll[state.classes[class as usize].opener as usize],
                ),
                None => {
                    let coll = entry.statement.collection();
                    let slot =
                        (state.colls.iter().position(|name| name == coll)).unwrap_or_else(|| {
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
                            .prepare_shared(entry.statement, &mut state.memos[slot])
                    });
                    (state.open_class(si, salt, prepared), slot)
                }
            };
            let class_of = &mut state.classes[class as usize];
            class_of.members += 1;
            // The signature is read off the prepared patterns, which are
            // the class's; a statement without visible statistics is
            // normalized for it. A template's statements share it, so one
            // joining a class takes its opener's.
            if class_of.members == 1 {
                state.matrix.push(match &class_of.prepared {
                    Some(prepared) => prepared.signature(&state.colls[slot]),
                    None => xia_optimizer::statement_signature(entry.statement),
                });
            } else {
                let opener = class_of.opener as usize;
                debug_assert!(
                    class_of.prepared.is_some()
                        || xia_optimizer::statement_signature(entry.statement)
                            == xia_optimizer::statement_signature(workload.entry(opener).statement),
                    "a template's statements share their signature"
                );
                state.matrix.push_like(opener);
            }
            state.stmt_salts.push(salt);
            state.stmt_coll.push(slot);
            state.class.push(class);
        }
        // Relevance rows: one signature per statement, one bitset per
        // candidate.
        if from < entries.len() || known < self.set.len() {
            for id in self.set.ids() {
                let c = self.set.get(id);
                let new = id.index() >= known;
                if new {
                    state.relevance.push(StmtSet::new());
                }
                let row_from = if new { 0 } else { from };
                for si in state
                    .matrix
                    .relevant_from(row_from, &c.collection, &c.pattern, c.kind)
                {
                    state.relevance[id.index()].insert(si);
                }
            }
            state.defs.resize(self.set.len(), None);
        }
    }

    /// Prices every statement's baseline for this run: the clean cost the
    /// state holds for its class, or one optimizer call per class it has
    /// no clean cost for yet (new ones, and ones whose earlier call
    /// faulted — the fault stream is content-derived, so it faults again),
    /// whose answer every member of the class takes. What a run does
    /// *about* a statement — quarantine it, count a fallback, journal a
    /// fault — is this run's own, per statement, and repeated by every run.
    fn compute_baselines(&mut self) {
        let n = self.workload.len();
        self.baseline = vec![0.0; n];
        // Plan serially: quarantine missing collections, resolve stats
        // availability, and give each class to cost one task.
        #[derive(Clone, Copy, PartialEq)]
        enum BasePlan {
            Quarantined,
            StatsFallback,
            Retained(f64),
            /// Makes task `task`'s optimizer call …
            Cost {
                task: usize,
            },
            /// … or takes its answer, as another member of its class.
            Shared {
                task: usize,
            },
        }
        let workload = self.workload;
        let missing: Vec<bool> = (self.state.colls.iter())
            .map(|coll| self.db.collection(coll).is_none())
            .collect();
        let mut task_of: Vec<Option<usize>> = vec![None; self.state.classes.len()];
        let mut todo: Vec<(usize, u64)> = Vec::new();
        let mut plans = Vec::with_capacity(n);
        for (si, entry) in workload.entries().iter().enumerate() {
            let class = self.state.class[si] as usize;
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
            } else if self.state.classes[class].prepared.is_none() {
                // The collection exists but statistics are unavailable.
                BasePlan::StatsFallback
            } else if let Some(cost) = self.state.classes[class].baseline {
                BasePlan::Retained(cost)
            } else if let Some(task) = task_of[class] {
                BasePlan::Shared { task }
            } else {
                task_of[class] = Some(todo.len());
                todo.push((
                    class,
                    key_hash(SALT_BASELINE, &[]) ^ self.state.stmt_salts[si],
                ));
                BasePlan::Cost {
                    task: todo.len() - 1,
                }
            });
        }
        let (coll_of, classes) = (&self.state.stmt_coll, &self.state.classes);
        let (parts, faults) = (&self.parts, &self.faults);
        let costed = run_indexed(todo.len(), self.jobs, &self.telemetry.clone(), |i, tel| {
            let (class, salt) = todo[i];
            let class = &classes[class];
            let at = parts[coll_of[class.opener as usize]];
            let (Some(at), Some(prepared)) = (at, &class.prepared) else {
                return None;
            };
            what_if(at, prepared, at.1.view(), &faults.derive_stream(salt), tel)
        });
        for (si, plan) in plans.into_iter().enumerate() {
            let result = match plan {
                BasePlan::Cost { task } | BasePlan::Shared { task } => costed[task],
                _ => None,
            };
            if plan != BasePlan::Quarantined {
                self.state.asked += 1;
            }
            if let BasePlan::Cost { .. } = plan {
                self.stats.optimizer_calls += 1;
                self.charged += 1;
            }
            self.baseline[si] = match (plan, result) {
                (BasePlan::Quarantined, _) => 0.0,
                (BasePlan::Retained(cost), _) | (BasePlan::Shared { .. }, Some(cost)) => {
                    self.state.served += 1;
                    cost
                }
                (BasePlan::Cost { .. }, Some(cost)) => {
                    let class = self.state.class[si] as usize;
                    self.state.classes[class].baseline = Some(cost);
                    self.state.costings += 1;
                    cost
                }
                (kind, _) => {
                    // An optimizer failure here is an injected fault — the
                    // collection and its statistics were resolvable at
                    // planning time. Every member of the class has the
                    // verdict its own call would have rolled.
                    if matches!(kind, BasePlan::Cost { .. } | BasePlan::Shared { .. }) {
                        self.journal.emit(|| Event::FaultInjected { statement: si });
                    }
                    // The statement is costable in principle (the data is
                    // there); fall back to a heuristic scan estimate so the
                    // run can continue degraded.
                    self.fallbacks += 1;
                    self.telemetry.incr(Counter::CostFallbacks);
                    let coll = self.workload.entry(si).statement.collection();
                    self.heuristic_statement_cost(coll)
                }
            };
        }
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
    /// statement cache are free.
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
            let coll = &*set.get(id).collection;
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

    /// Canonical projection of a sub-configuration (a candidate bitset)
    /// onto one statement's relevant candidates, written over `out`: the
    /// group AND the statement's class row, read out in ascending order.
    fn projection_into(&self, group: &[u64], si: usize, out: &mut Vec<CandId>) {
        let row = self.interactions.class_row(self.state.class[si]);
        let both = group.iter().zip(row).map(|(a, b)| a & b);
        out.clear();
        out.extend(ones(both).map(|id| CandId(id as u32)));
    }

    /// Affected statements of a sub-configuration, written over `out`:
    /// the union of its members' relevance rows (or every statement when
    /// the optimization is off).
    fn affected_into(&self, key: &[CandId], out: &mut StmtSet) {
        out.clear();
        if self.use_affected_sets {
            for &id in key {
                out.union_with(&self.state.relevance[id.index()]);
            }
        } else {
            (0..self.workload.len()).for_each(|si| out.insert(si));
        }
    }

    /// Plans the costing of statement `si` under group `group` (a
    /// candidate bitset) when no earlier member of its class in the group
    /// has: served from the
    /// state's cost table, shared with a task of this batch (`tasks`,
    /// through `shared`), a fallback, or an optimizer call — which only a
    /// task of a class with other members files in `shared`. Returns the
    /// task's kind and, for an optimizer call, the projection it is kept
    /// under, appended to `projs`.
    fn plan_costing(
        &mut self,
        group: &[u64],
        si: usize,
        proj: &mut Vec<CandId>,
        tasks: &[CostTask],
        shared: &mut ByProjection<usize>,
        projs: &mut Vec<CandId>,
    ) -> (TaskKind, Projection) {
        self.projection_into(group, si, proj);
        let class = self.state.class[si];
        let hash = key_hash(SALT_EVALUATE, proj);
        if self.use_cache {
            if let Some(cost) = self.state.costs.get(class, hash, proj) {
                self.count_served();
                return (TaskKind::Served { cost }, Projection::default());
            }
        }
        let shares = self.use_cache && self.state.classes[class as usize].members > 1;
        if shares {
            if let Some(&task) = shared.get(&(class, hash)) {
                if tasks[task].proj.of(projs) == proj.as_slice() {
                    return (TaskKind::Shared { task }, Projection::default());
                }
            }
        }
        if self.budget.exhausted(self.charged) {
            if !self.budget_event_emitted {
                self.budget_event_emitted = true;
                let charged = self.charged;
                self.journal.emit(|| Event::BudgetExhausted { charged });
            }
            return (TaskKind::BudgetFallback, Projection::default());
        }
        // Prepared iff the collection's statistics are visible to this run.
        if self.state.classes[class as usize].prepared.is_none() {
            return (TaskKind::StatsFallback, Projection::default());
        }
        self.charged += 1;
        if shares {
            shared.entry((class, hash)).or_insert(tasks.len());
        }
        let salt = hash ^ self.state.stmt_salts[si];
        let at = u32::try_from(projs.len()).expect("a batch's projections fit 2^32 members");
        projs.extend_from_slice(proj);
        let kept = Projection {
            hash,
            at,
            len: proj.len() as u32,
        };
        (TaskKind::Optimize { salt }, kept)
    }

    /// Counts one per-statement costing answered without an optimizer call.
    fn count_served(&mut self) {
        self.state.served += 1;
        self.stats.stmt_cache_hits += 1;
        self.stats.statements_pruned += 1;
        self.telemetry.incr(Counter::StmtCacheHits);
        self.telemetry.incr(Counter::StatementsPruned);
    }

    /// Evaluates a batch of sub-configuration groups and returns each
    /// group's query-side benefit `Σ freq·(old − new)`, in order. `bits` is
    /// scratch for a group's candidate bitset.
    ///
    /// The coordinator thread does everything order-sensitive serially —
    /// cache lookups (and their hit/miss counters), budget charging,
    /// fault-stream salting, overlay construction — then fans the planned
    /// optimizer calls out across workers and merges their results back in
    /// task order. Costs are pure functions of the plan, so the returned
    /// values, the memo cache, and every counter total are identical for
    /// any `jobs` value.
    fn eval_groups(&mut self, groups: &Groups, bits: &mut Vec<u64>) -> Vec<f64> {
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
        // configuration plus whether it was served without a fresh costing
        // (memo hit or in-batch duplicate). A configuration is rendered
        // once per miss and shared from there: by the batch's duplicates of
        // it, and through the memo by every later hit.
        let journal_on = self.journal.is_enabled();
        let mut journal_slots = std::mem::take(&mut self.scratch_journal);
        let mut miss_configs = std::mem::take(&mut self.scratch_configs);
        let mut slots: Vec<Slot> = Vec::with_capacity(groups.len());
        // Each miss as its group's index in `groups`.
        let mut misses: Vec<usize> = Vec::new();
        for g in 0..groups.len() {
            let key = groups.get(g);
            debug_assert!(key.windows(2).all(|w| w[0] < w[1]), "canonical keys");
            if self.use_cache {
                if let Some(memo) = self.cache.get(key) {
                    let (value, config) = (memo.value, memo.config.clone());
                    self.stats.cache_hits += 1;
                    self.telemetry.incr(Counter::BenefitCacheHits);
                    slots.push(Slot::Done(value));
                    if journal_on {
                        let config = config.unwrap_or_else(|| self.journal_config(key));
                        journal_slots.push((config, true));
                    }
                    continue;
                }
            }
            if let Some(i) = misses.iter().position(|&m| groups.get(m) == key) {
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
                if journal_on {
                    journal_slots.push((Arc::clone(&miss_configs[i]), true));
                }
                continue;
            }
            if self.use_cache {
                self.stats.cache_misses += 1;
                self.telemetry.incr(Counter::BenefitCacheMisses);
            }
            slots.push(Slot::Miss(misses.len()));
            if journal_on {
                let config = self.journal_config(key);
                miss_configs.push(Arc::clone(&config));
                journal_slots.push((config, false));
            }
            misses.push(g);
        }
        if misses.is_empty() {
            let out: Vec<f64> = slots
                .into_iter()
                .map(|s| match s {
                    Slot::Done(v) => v,
                    Slot::Miss(_) => 0.0,
                })
                .collect();
            self.emit_what_if_events(&mut journal_slots, &out);
            self.scratch_journal = journal_slots;
            self.scratch_configs = miss_configs;
            return out;
        }

        // Phase 2 (coordinator): plan per-statement tasks. Statement-cache
        // lookups, budget charging, and fault-stream salts all happen
        // here, in deterministic order — workers never touch them. Each
        // costing is keyed on its class and the projection of the group
        // onto the statement's relevant candidates: a plan can only
        // consult matching indexes, and statements of one class cost
        // bitwise the same, so a `(class, projection)` costing the state
        // holds is served without an optimizer call, and one an earlier
        // task of this batch makes is shared. Within a group, a class's
        // members have one projection (their signatures are the
        // template's), so the first member's task stands for the rest.
        // With the cache off every costing is a miss.
        // The projection is looked up borrowed; only a costing that goes to
        // the optimizer keeps it, appended to the batch's projection arena,
        // from which the cost table copies it at merge.
        let mut tasks: Vec<CostTask> = Vec::new();
        let mut affected = std::mem::take(&mut self.scratch_affected);
        let mut shared = std::mem::take(&mut self.scratch_shared);
        shared.clear();
        let mut projs = std::mem::take(&mut self.scratch_projs);
        projs.clear();
        let mut proj = Vec::new();
        for (group, &g) in misses.iter().enumerate() {
            let key = groups.get(g);
            self.affected_into(key, &mut affected);
            self.load(key.iter().copied(), bits);
            self.group_seq += 1;
            for si in affected.iter() {
                if !self.active[si] {
                    continue;
                }
                self.state.asked += 1;
                let class = self.state.class[si] as usize;
                let (stamped, task) = self.class_stamp[class];
                let (kind, proj) = if self.use_cache && stamped == self.group_seq {
                    debug_assert!(
                        (key.iter()).all(|&id| {
                            let row = &self.state.relevance[id.index()];
                            row.contains(si) == row.contains(tasks[task].si)
                        }),
                        "a class's statements have one projection"
                    );
                    let kind = match tasks[task].kind {
                        TaskKind::Optimize { .. } => TaskKind::Shared { task },
                        kind => kind,
                    };
                    if let TaskKind::Served { .. } = kind {
                        self.count_served();
                    }
                    (kind, Projection::default())
                } else {
                    if self.use_cache {
                        self.class_stamp[class] = (self.group_seq, tasks.len());
                    }
                    self.plan_costing(bits, si, &mut proj, &tasks, &mut shared, &mut projs)
                };
                tasks.push(CostTask {
                    group,
                    si,
                    kind,
                    proj,
                });
            }
        }
        self.scratch_affected = affected;
        self.scratch_shared = shared;

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
        for (&g, &needed) in misses.iter().zip(&needs_overlay) {
            overlays.push(if needed {
                self.build_overlays(groups.get(g))
            } else {
                Vec::new()
            });
        }

        // Phase 4 (workers): pure costing, fanned out over `jobs` threads.
        let state = &*self.state;
        let (parts, faults) = (&self.parts, &self.faults);
        let results = run_indexed(tasks.len(), self.jobs, &self.telemetry.clone(), |i, tel| {
            let task = &tasks[i];
            let TaskKind::Optimize { salt } = task.kind else {
                return None;
            };
            let slot = state.stmt_coll[task.si];
            let prepared = &state.classes[state.class[task.si] as usize].prepared;
            let (Some(at), Some(prepared)) = (parts[slot], prepared) else {
                return None;
            };
            let view = overlay_view(&overlays[task.group], &state.colls[slot], at.1);
            let stream = faults.derive_stream(salt);
            what_if(at, prepared, view, &stream, tel)
        });

        // Phase 5 (coordinator): merge in task order — the floating-point
        // summation order is fixed regardless of worker interleaving.
        let mut totals = vec![0.0f64; misses.len()];
        let mut tainted = vec![false; misses.len()];
        for (task, &own) in tasks.into_iter().zip(&results) {
            let result = match task.kind {
                TaskKind::Shared { task } => results[task],
                _ => own,
            };
            let new_cost = match (task.kind, result) {
                (TaskKind::Served { cost }, _) => cost,
                (TaskKind::Shared { .. }, Some(cost)) => {
                    self.count_served();
                    cost
                }
                (TaskKind::Optimize { .. }, Some(cost)) => {
                    self.stats.optimizer_calls += 1;
                    // Hold it under the class and projection: any
                    // configuration with the same projection onto any
                    // statement of the class has bitwise the same cost.
                    let class = self.state.class[task.si];
                    let proj = task.proj;
                    (self.state).insert_cost(class, proj.hash, proj.of(&projs), cost);
                    cost
                }
                (kind, _) => {
                    // The degradation ladder's heuristic indexed-cost
                    // estimate: half the baseline — optimistic enough that
                    // candidates still rank by affected baseline mass.
                    if matches!(kind, TaskKind::Optimize { .. }) {
                        self.stats.optimizer_calls += 1;
                    }
                    if matches!(kind, TaskKind::Optimize { .. } | TaskKind::Shared { .. }) {
                        // A planned optimizer call that came back empty is
                        // an injected (or real) optimizer failure: the
                        // verdict of every statement of the class.
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
            totals[task.group] += self.workload.freq(task.si) * (self.baseline[task.si] - new_cost);
        }
        // Discarding the overlays here (not in a worker) keeps the
        // virtual-indexes-dropped counter deterministic too.
        drop(overlays);
        self.scratch_projs = projs;

        // Heuristic answers are not memoized: a later evaluation inside
        // budget (or past the fault) should get the real number.
        if self.use_cache {
            let mut configs = miss_configs.drain(..);
            for ((&g, &value), &bad) in misses.iter().zip(&totals).zip(&tainted) {
                let config = configs.next();
                if !bad {
                    (self.cache).insert(groups.get(g).to_vec(), Memoized { value, config });
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
        self.emit_what_if_events(&mut journal_slots, &out);
        self.scratch_journal = journal_slots;
        miss_configs.clear();
        self.scratch_configs = miss_configs;
        out
    }

    /// The journal's rendering of a sub-configuration: its members'
    /// patterns, in key order.
    fn journal_config(&self, key: &[CandId]) -> JournalConfig {
        key.iter()
            .map(|&id| self.set.get(id).pattern_text())
            .collect()
    }

    /// Emits one `WhatIfEvaluated` event per input slot, in slot order and
    /// under one journal lock, pairing each configuration with its final
    /// query-side benefit. Runs on the coordinator after the merge, so the
    /// journal stream is identical regardless of worker count.
    fn emit_what_if_events(&self, journal_slots: &mut Vec<(JournalConfig, bool)>, values: &[f64]) {
        self.journal.emit_batch(|| {
            (journal_slots.drain(..).zip(values)).map(|((config, cache_hit), &cost)| {
                Event::WhatIfEvaluated {
                    config,
                    cost,
                    cache_hit,
                }
            })
        });
    }

    /// Benefit of a configuration per the paper's formula. The
    /// configuration is canonicalized first: duplicate members describe
    /// one index, so they are evaluated — and charged maintenance cost —
    /// once.
    pub fn benefit(&mut self, config: &[CandId]) -> f64 {
        self.benefit_of(config.iter().copied())
    }

    /// [`BenefitEvaluator::benefit`] of a configuration given member by
    /// member.
    fn benefit_of(&mut self, config: impl IntoIterator<Item = CandId>) -> f64 {
        self.stats.benefit_calls += 1;
        self.telemetry.incr(Counter::BenefitEvaluations);
        let _evaluate = self.telemetry.span("evaluate");
        let mut split = std::mem::take(&mut self.scratch_split);
        let mut groups = std::mem::take(&mut self.scratch_groups);
        groups.clear();
        let mut total = 0.0;
        if self.load(config, &mut split.config) {
            self.push_groups(&mut split, &mut groups);
            let values = self.eval_groups(&groups, &mut split.group);
            total = self.less_mc(values.iter().sum(), &split.config);
        }
        self.scratch_split = split;
        self.scratch_groups = groups;
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
        self.benefit_of(base.iter().copied().chain([add]))
    }

    /// Benefits of many configurations, planned and costed as one batch:
    /// every sub-configuration group of every input fans out into the same
    /// worker pool, which is where parallel evaluation pays off most (the
    /// per-candidate scoring pass evaluates dozens of independent
    /// singletons). Equivalent to mapping [`BenefitEvaluator::benefit`]
    /// over `configs`, including all counter totals.
    pub fn benefit_batch(&mut self, configs: &[Vec<CandId>]) -> Vec<f64> {
        let _evaluate = self.telemetry.span("evaluate");
        // Every config is canonicalized as it is split: identical
        // configurations in one batch (up to order and repeats) share
        // their groups, which the in-batch duplicate check in
        // `eval_groups` collapses to a single fan-out — and a single
        // budget charge.
        let mut split = std::mem::take(&mut self.scratch_split);
        let mut groups = std::mem::take(&mut self.scratch_groups);
        groups.clear();
        let mut spans = Vec::with_capacity(configs.len());
        for config in configs {
            self.stats.benefit_calls += 1;
            self.telemetry.incr(Counter::BenefitEvaluations);
            let start = groups.len();
            if self.load(config.iter().copied(), &mut split.config) {
                self.push_groups(&mut split, &mut groups);
            }
            spans.push(start..groups.len());
        }
        let values = self.eval_groups(&groups, &mut split.group);
        let mut out = Vec::with_capacity(configs.len());
        for (config, span) in configs.iter().zip(spans) {
            self.load(config.iter().copied(), &mut split.config);
            out.push(self.less_mc(values[span].iter().sum(), &split.config));
        }
        self.scratch_split = split;
        self.scratch_groups = groups;
        out
    }

    /// Writes `config` over `bits` as a candidate bitset, which
    /// canonicalizes it: member order and repeats are gone. `false` when
    /// it is empty.
    fn load(&self, config: impl IntoIterator<Item = CandId>, bits: &mut Vec<u64>) -> bool {
        bits.clear();
        bits.resize(self.interactions.words, 0);
        for CandId(id) in config {
            bits[id as usize / 64] |= 1 << (id % 64);
        }
        bits.iter().any(|&w| w != 0)
    }

    /// `total` less the maintenance cost of each member of `config` (a
    /// candidate bitset), subtracted one by one in ascending id order.
    fn less_mc(&mut self, mut total: f64, config: &[u64]) -> f64 {
        for id in ones(config.iter().copied()) {
            total -= self.mc_total(CandId(id as u32));
        }
        total
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
    /// transitively overlapping relevance rows. The configuration is
    /// canonicalized first: members may come in any order and repeat. The
    /// groups come back canonical too: each ascending, ordered by least
    /// member.
    pub fn decompose(&self, config: &[CandId]) -> Vec<Vec<CandId>> {
        let mut split = SplitScratch::default();
        let mut groups = Groups::default();
        if self.load(config.iter().copied(), &mut split.config) {
            self.components_into(&mut split, &mut groups);
        }
        (0..groups.len()).map(|g| groups.get(g).to_vec()).collect()
    }

    /// Appends the groups of the (non-empty) configuration in
    /// `split.config` to `out`: its sub-configurations, or the whole of it
    /// when they are off.
    fn push_groups(&self, split: &mut SplitScratch, out: &mut Groups) {
        if self.use_subconfigs {
            self.components_into(split, out);
        } else {
            out.push(&split.config);
        }
    }

    /// Appends the connected components of the configuration in
    /// `split.config` under the interaction rows to `out`, in order of
    /// their least members. Each member's row is read once, a word at a
    /// time: members × words of candidate bits.
    fn components_into(&self, split: &mut SplitScratch, out: &mut Groups) {
        let SplitScratch {
            config,
            left,
            group,
            stack,
        } = split;
        let mut rows = self.interactions.rows.borrow_mut();
        left.clone_from(config);
        let mut word = 0;
        loop {
            while left.get(word) == Some(&0) {
                word += 1;
            }
            let Some(&bits) = left.get(word) else {
                break;
            };
            // The least member left seeds the next group.
            let seed = word * 64 + bits.trailing_zeros() as usize;
            left[word] &= bits - 1;
            group.clear();
            group.resize(config.len(), 0);
            group[word] = 1 << (seed % 64);
            stack.push(seed);
            while let Some(m) = stack.pop() {
                if left.iter().all(|&w| w == 0) {
                    stack.clear();
                    break;
                }
                let row = (self.interactions).row(&mut rows, m, &self.state);
                for (wi, ((l, g), &r)) in left.iter_mut().zip(group.iter_mut()).zip(row).enumerate()
                {
                    let taken = *l & r;
                    if taken != 0 {
                        *l ^= taken;
                        *g |= taken;
                        stack.extend(ones(std::iter::once(taken)).map(|b| wi * 64 + b));
                    }
                }
            }
            out.push(group);
        }
    }

    /// Which members of `config` are actually used in some statement's
    /// best plan when the whole configuration is installed — the paper's
    /// "compile all workload queries ... and eliminate indexes that are
    /// never used" check, used by greedy-with-heuristics as a final
    /// redundancy pass. The configuration is materialized as catalog
    /// overlays and statements are compiled across the worker pool; the
    /// result is order-insensitive (sorted), so the fan-out cannot change
    /// it. A class's statements share one plan, so one member of each is
    /// compiled (every member, with the cache off).
    pub fn used_candidates(&mut self, config: &[CandId]) -> Vec<CandId> {
        if config.is_empty() {
            return Vec::new();
        }
        let overlays = self.build_overlays(config);
        let mut affected = StmtSet::new();
        self.affected_into(config, &mut affected);
        self.group_seq += 1;
        let mut stmts: Vec<usize> = Vec::new();
        for si in affected.iter().filter(|&si| self.active[si]) {
            let stamp = &mut self.class_stamp[self.state.class[si] as usize];
            if self.use_cache && stamp.0 == self.group_seq {
                continue;
            }
            stamp.0 = self.group_seq;
            stmts.push(si);
        }
        // Compiling (Evaluate mode without fault rolls) consumes one
        // optimizer call per statement with statistics available — counted
        // at planning time so the total is deterministic.
        let prepared_of = |si: usize| &self.state.classes[self.state.class[si] as usize].prepared;
        let planned = stmts
            .iter()
            .filter(|&&si| prepared_of(si).is_some())
            .count() as u64;
        let (state, parts) = (&*self.state, &self.parts);
        let overlays = &overlays;
        let results = run_indexed(stmts.len(), self.jobs, &self.telemetry.clone(), |i, tel| {
            let slot = state.stmt_coll[stmts[i]];
            let (Some((collection, catalog, stats)), Some(prepared)) =
                (parts[slot], prepared_of(stmts[i]))
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
                .uses()
                .filter_map(|u| u.index.index().checked_sub(first_slot))
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
        if let Some(v) = self.mc_totals[id.index()] {
            return v;
        }
        let mut total = 0.0;
        if let Some(def) = self.derived_def(id) {
            let coll = &*self.set.get(id).collection;
            let cm = CostModel::default();
            for (si, entry) in self.workload.entries().iter().enumerate() {
                if !entry.statement.is_modification() || entry.statement.collection() != coll {
                    continue;
                }
                let (Some((_, _, stats)), Some(prepared)) = (
                    self.parts[self.state.stmt_coll[si]],
                    &self.state.classes[self.state.class[si] as usize].prepared,
                ) else {
                    continue;
                };
                let mc = maintenance::maintenance_cost(
                    &def.pattern,
                    def.kind,
                    &def.stats,
                    entry.statement,
                    stats,
                    prepared,
                    &cm,
                );
                total += entry.freq * mc;
            }
        }
        self.mc_totals[id.index()] = Some(total);
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

        // On every prefix of every candidate ordering tried, the groups are
        // exactly the connected components of the overlap graph: sorted,
        // disjoint, covering, no edge between two groups, and each group
        // connected.
        let row = |id: CandId| &ev.state.relevance[id.index()];
        let overlap = |a: CandId, b: CandId| row(a).overlaps(row(b));
        let ids: Vec<CandId> = set.ids().collect();
        for stride in [1, 3, 7] {
            let order: Vec<CandId> = (0..ids.len())
                .map(|i| ids[(i * stride) % ids.len()])
                .collect();
            for len in 0..=order.len() {
                let mut config = order[..len].to_vec();
                config.sort_unstable();
                let groups = ev.decompose(&config);
                assert!(groups.windows(2).all(|w| w[0] < w[1]));
                let mut members: Vec<CandId> = groups.concat();
                members.sort_unstable();
                assert_eq!(members, config);
                for (gi, g) in groups.iter().enumerate() {
                    assert!(g.windows(2).all(|w| w[0] < w[1]));
                    for other in &groups[gi + 1..] {
                        assert!(g.iter().all(|&a| other.iter().all(|&b| !overlap(a, b))));
                    }
                    let mut reached = vec![g[0]];
                    let mut i = 0;
                    while i < reached.len() {
                        let a = reached[i];
                        for &b in g {
                            if !reached.contains(&b) && overlap(a, b) {
                                reached.push(b);
                            }
                        }
                        i += 1;
                    }
                    assert_eq!(reached.len(), g.len(), "group {g:?} is not connected");
                }
            }
        }
    }

    /// The union-bitmap decomposition the interaction rows replaced, kept
    /// as the reference they are checked against: each member of a
    /// canonical `config` scans every group's union of relevance rows,
    /// joins (and merges) the ones it overlaps, and the groups come back
    /// sorted.
    fn union_decompose(relevance: &[StmtSet], config: &[CandId]) -> Vec<Vec<CandId>> {
        let words = |i: usize| relevance[config[i].index()].words();
        let stride = (0..config.len())
            .map(|i| words(i).len())
            .max()
            .unwrap_or(0)
            .max(1);
        // Each member's group, numbered densely. Row `g` of `unions` is the
        // union of group g's relevance rows; a member overlapping several
        // groups merges them into the first, and the last group takes the
        // merged one's number.
        let mut group_of = vec![0usize; config.len()];
        let mut unions: Vec<u64> = Vec::with_capacity(stride * config.len());
        for i in 0..config.len() {
            let mut joined: Option<usize> = None;
            let mut g = 0;
            while g * stride < unions.len() {
                let row = &unions[g * stride..(g + 1) * stride];
                if !row.iter().zip(words(i)).any(|(a, b)| a & b != 0) {
                    g += 1;
                    continue;
                }
                let Some(into) = joined else {
                    joined = Some(g);
                    g += 1;
                    continue;
                };
                let last = unions.len() / stride - 1;
                for k in 0..stride {
                    unions[into * stride + k] |= unions[g * stride + k];
                }
                unions.copy_within(last * stride..(last + 1) * stride, g * stride);
                unions.truncate(last * stride);
                for label in &mut group_of[..i] {
                    if *label == g {
                        *label = into;
                    } else if *label == last {
                        *label = g;
                    }
                }
            }
            let into = joined.unwrap_or_else(|| {
                unions.resize(unions.len() + stride, 0);
                unions.len() / stride - 1
            });
            for (a, b) in unions[into * stride..].iter_mut().zip(words(i)) {
                *a |= b;
            }
            group_of[i] = into;
        }
        let mut out: Vec<Vec<CandId>> = vec![Vec::new(); unions.len() / stride];
        for (&g, &cand) in group_of.iter().zip(config) {
            out[g].push(cand);
        }
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort();
        out
    }

    /// The interaction rows and class rows answer what the relevance rows
    /// answer. On the Fig. 4/5 shape (TPoX queries, 200 or 400 synthetic
    /// ones and the update mix) and the E16 shape (1,000 synthetic ones),
    /// `decompose` of random configurations — shuffled, with repeated
    /// members — equals the union-bitmap reference over the canonical
    /// configuration; and over every group a topdown-full run plans, the
    /// class-row projection onto each statement equals the group filtered
    /// by the statement's relevance.
    #[test]
    fn bitset_groups_and_projections_equal_the_relevance_reference() {
        use crate::advisor::{Advisor, AdvisorParams};
        use xia_workloads::prng::Prng;
        use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
        let cfg = TpoxConfig::tiny();
        let mut db = Database::new();
        tpox::generate(&mut db, &cfg);
        let synthetic = |db: &Database, queries: usize, seed: u64| {
            let coll = db.collection(tpox::SECURITY_COLL).expect("TPoX has SDOC");
            let config = SyntheticConfig {
                queries,
                seed,
                ..SyntheticConfig::default()
            };
            generate_queries(coll, &config)
        };
        // The 200-query mix has 64 candidates, the 400-query one 66, so
        // one candidate bitset fills a word and the other spans two.
        let mixed = |db: &Database, queries: usize| {
            let mut texts = tpox::queries(&cfg);
            texts.extend(synthetic(db, queries, 0xd1f7));
            texts.extend(tpox::update_mix(&cfg));
            texts
        };
        let workloads = [
            mixed(&db, 200),
            mixed(&db, 400),
            synthetic(&db, 1000, 0xE16 ^ 1000),
        ];
        let params = AdvisorParams {
            jobs: 1,
            ..AdvisorParams::default()
        };
        let mut rng = Prng::seed_from_u64(0xB175);
        let mut widest = 0;
        for texts in workloads {
            let w = Workload::from_texts(texts.iter().map(String::as_str)).unwrap();
            let set = Advisor::prepare(&mut db, &w, &params);
            let ids: Vec<CandId> = set.ids().collect();
            widest = widest.max(ids.len());
            let ev = BenefitEvaluator::configured(&db, &w, &set, &params);
            let relevance = &ev.state.relevance;
            let mut multi = 0;
            for p in [0.02, 0.1, 0.3, 0.6, 1.0] {
                for _ in 0..40 {
                    let mut config: Vec<CandId> =
                        ids.iter().copied().filter(|_| rng.gen_bool(p)).collect();
                    let canonical = config.clone();
                    // Unsorted, with repeats.
                    for i in (1..config.len()).rev() {
                        config.swap(i, rng.gen_range(0..i + 1));
                    }
                    let repeats: Vec<CandId> = config.iter().copied().step_by(3).collect();
                    config.extend(repeats);
                    let groups = ev.decompose(&config);
                    assert_eq!(groups, union_decompose(relevance, &canonical), "p = {p}");
                    multi += usize::from(groups.len() > 1);
                }
            }
            assert!(multi > 20, "{multi} configurations split: too few to tell");
            assert_eq!(ev.decompose(&[]), Vec::<Vec<CandId>>::new());

            let mut ev = BenefitEvaluator::configured(&db, &w, &set, &params);
            let budget = set.config_size(&Advisor::all_index_config(&set)) / 4;
            crate::search::top_down(&mut ev, &Advisor::all_index_config(&set), budget, true);
            let planned: Vec<Vec<CandId>> = ev.cache.keys().cloned().collect();
            assert!(
                planned.iter().any(|g| g.len() > 1),
                "topdown-full plans groups"
            );
            let (mut bits, mut proj) = (Vec::new(), Vec::new());
            for group in &planned {
                ev.load(group.iter().copied(), &mut bits);
                for si in 0..w.len() {
                    ev.projection_into(&bits, si, &mut proj);
                    let relevant = group
                        .iter()
                        .copied()
                        .filter(|id| ev.state.relevance[id.index()].contains(si));
                    assert!(
                        proj.iter().copied().eq(relevant),
                        "group {group:?}, statement {si}"
                    );
                }
            }
        }
        assert!(widest > 64, "candidate bitsets must span words");
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
        use xia_xpath::{contain, LinearPath, Statement, ValueKind};
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
                let stmt = &**entry.statement;
                if !stmt.is_modification() || stmt.collection() != &*c.collection {
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
        // The relevance-pruning layer is a pure evaluation shortcut. The
        // reference is an evaluator with the caches off, which sends every
        // costing to the optimizer: every benefit and delta probe must be
        // bitwise identical to it — clean and under both fault kinds — at
        // strictly fewer optimizer calls.
        use xia_fault::FaultSite;
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let mixes: [fn() -> FaultInjector; 3] = [
            FaultInjector::off,
            || FaultInjector::seeded(7).with_rate(FaultSite::OptimizerCost, 0.3),
            || FaultInjector::seeded(7).with_rate(FaultSite::StatsUnavailable, 0.5),
        ];
        for (m, faults) in mixes.into_iter().enumerate() {
            let mut probe = |use_cache: bool| -> (Vec<u64>, EvalStats) {
                let budget = WhatIfBudget::unlimited();
                let mut ev = BenefitEvaluator::with_faults(&mut db, &w, &set, &faults(), budget);
                ev.use_cache = use_cache;
                let mut bits = Vec::new();
                let mut base: Vec<CandId> = Vec::new();
                for &id in &all {
                    bits.push(ev.benefit_delta(&base, id).to_bits());
                    base.push(id);
                }
                bits.push(ev.benefit(&all).to_bits());
                bits.push(ev.benefit(&all).to_bits());
                (bits, ev.eval_stats())
            };
            let (bits, cached) = probe(true);
            let (reference_bits, reference) = probe(false);
            assert_eq!(bits, reference_bits, "mix {m}: a benefit value moved");
            assert!(
                cached.optimizer_calls < reference.optimizer_calls,
                "mix {m}: no optimizer call saved: cached={} reference={}",
                cached.optimizer_calls,
                reference.optimizer_calls
            );
            assert!(cached.stmt_cache_hits > 0, "mix {m}");
            assert_eq!(cached.statements_pruned, cached.stmt_cache_hits);
            assert_eq!(reference.stmt_cache_hits, 0);
            assert_eq!(cached.delta_probes, all.len() as u64);
            assert_eq!(reference.delta_probes, all.len() as u64);
        }
    }

    #[test]
    fn a_template_is_costed_once_at_the_per_statement_bits() {
        // Every template three times, its literals drawn from three seeds.
        // The cached evaluator costs each (template, projection) once —
        // as many optimizer calls as one statement per template takes —
        // and every benefit is bitwise the one the uncached reference
        // computes statement by statement.
        use xia_workloads::prng::Prng;
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let texts: Vec<String> = (0..3)
            .flat_map(|k| {
                tpox::queries(&TpoxConfig {
                    seed: cfg.seed + k,
                    ..cfg.clone()
                })
            })
            .collect();
        let repeated = Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap();
        let once = Workload::from_texts(texts[..11].iter().map(|s| s.as_str())).unwrap();
        assert!(repeated.slots() > once.len(), "literals must differ");
        let set = candidates(&mut db, &repeated);
        let once_set = candidates(&mut db, &once);
        assert_eq!(set.len(), once_set.len());
        let mut rng = Prng::seed_from_u64(0xC1A5);
        let configs: Vec<Vec<CandId>> = (0..40)
            .map(|_| set.ids().filter(|_| rng.gen_bool(1.0 / 3.0)).collect())
            .collect();
        let mut evaluate = |use_cache: bool| {
            let mut ev = BenefitEvaluator::new(&mut db, &repeated, &set);
            ev.use_cache = use_cache;
            let bits: Vec<u64> = configs.iter().map(|c| ev.benefit(c).to_bits()).collect();
            (bits, ev.eval_stats())
        };
        let (on_bits, on) = evaluate(true);
        let (off_bits, off) = evaluate(false);
        assert_eq!(on_bits, off_bits);
        let mut single = BenefitEvaluator::new(&mut db, &once, &once_set);
        for config in &configs {
            let same: Vec<CandId> = (config.iter())
                .map(|&id| {
                    let c = set.get(id);
                    once_set.lookup(&c.collection, &c.pattern, c.kind).unwrap()
                })
                .collect();
            single.benefit(&same);
        }
        assert_eq!(on.optimizer_calls, single.eval_stats().optimizer_calls);
        assert!(on.optimizer_calls < off.optimizer_calls);
        assert_eq!(on.statements_pruned, on.stmt_cache_hits);
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
}
