//! # xia-fault
//!
//! Deterministic, seedable fault injection for the XML Index Advisor —
//! the robustness counterpart of `xia-obs`. Where the telemetry crate
//! *observes* the advisor's round trips to the optimizer and storage,
//! this crate *perturbs* them: the same call sites that the paper's
//! what-if interface exercises (Evaluate-mode optimizer calls, statistics
//! access, catalog I/O) are also the places a production advisor must
//! survive failing.
//!
//! Three pieces, mirroring the `Telemetry` pattern exactly:
//!
//! * [`FaultSite`] — the named injection points threaded through storage
//!   and the optimizer.
//! * [`InjectedFault`] — the error value a firing site produces; it
//!   records the site and the (deterministic) call number, so a failure
//!   can be replayed exactly from its seed.
//! * [`FaultInjector`] — a cheap, cloneable handle. Cloning shares the
//!   underlying state; [`FaultInjector::off`] yields a no-op handle whose
//!   every operation is a branch on `None` — zero cost when disabled.
//!
//! Determinism: whether call *n* at site *s* fails is a pure function of
//! `(seed, s, n)` via a splitmix64 hash, independent of timing, thread
//! interleaving of other sites, or how many other sites fired. A chaos
//! test that fixes the seed sees the same faults on every run.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named fault-injection point. Each site corresponds to one failure
/// class of the advisor's round trips (see DESIGN.md §9 for the mapping
/// to the paper's what-if interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// Storage-layer I/O (persisted-database reads and writes).
    StorageIo,
    /// Evaluate-mode optimizer costing (`Optimizer::try_optimize` / `try_plan_cost`).
    OptimizerCost,
    /// Statistics (RUNSTATS output) unavailable for a collection, for one
    /// advisor phase (`xia_storage::StatsView::roll`).
    StatsUnavailable,
}

impl FaultSite {
    /// All sites, in declaration order.
    pub const ALL: [FaultSite; 3] = [
        FaultSite::StorageIo,
        FaultSite::OptimizerCost,
        FaultSite::StatsUnavailable,
    ];

    /// Number of sites.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable kebab-case name (used by `xia recommend --inject`).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::StorageIo => "storage-io",
            FaultSite::OptimizerCost => "optimizer-cost",
            FaultSite::StatsUnavailable => "stats-unavailable",
        }
    }

    /// Parses a site name produced by [`FaultSite::name`].
    pub fn from_name(s: &str) -> Option<FaultSite> {
        Self::ALL.into_iter().find(|site| site.name() == s)
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The error a firing fault site produces. Carries enough to replay the
/// exact failure: the site and its deterministic call number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: FaultSite,
    /// 1-based call number at that site when it fired.
    pub call: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (call #{})", self.site, self.call)
    }
}

impl std::error::Error for InjectedFault {}

impl From<InjectedFault> for std::io::Error {
    fn from(f: InjectedFault) -> Self {
        std::io::Error::other(f)
    }
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    /// Per-site firing probability as a u64 threshold: a call fires when
    /// `hash(seed, site, n) < threshold`. `0` = never, `u64::MAX` = always.
    thresholds: [u64; FaultSite::COUNT],
    /// Calls rolled per site (fired or not).
    calls: [AtomicU64; FaultSite::COUNT],
    /// Faults injected per site.
    injected: [AtomicU64; FaultSite::COUNT],
}

/// A derived fault stream: its own hash seed and per-site call numbering,
/// layered over the parent injector's shared thresholds and counters.
#[derive(Debug)]
struct Stream {
    seed: u64,
    /// Per-site call numbers local to this stream.
    calls: [AtomicU64; FaultSite::COUNT],
}

/// Cheap handle to shared fault-injection state. See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
    /// When present, rolls hash against this stream's seed and call
    /// numbering instead of the shared ones (see
    /// [`FaultInjector::derive_stream`]).
    stream: Option<Arc<Stream>>,
}

/// splitmix64 — the standard 64-bit finalizer; good avalanche, no state.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// A disabled handle: every roll succeeds, at the cost of one branch.
    pub fn off() -> Self {
        Self {
            inner: None,
            stream: None,
        }
    }

    /// A seeded injector with all sites initially at probability 0. Use
    /// [`FaultInjector::with_rate`] / [`FaultInjector::with_always`] to arm
    /// sites before sharing the handle.
    pub fn seeded(seed: u64) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                seed,
                thresholds: [0; FaultSite::COUNT],
                calls: std::array::from_fn(|_| AtomicU64::new(0)),
                injected: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
            stream: None,
        }
    }

    /// Derives a fault stream for one unit of parallel work, identified by
    /// a caller-chosen `salt` (e.g. a hash of the task being costed).
    ///
    /// The derived handle shares the parent's thresholds and aggregate
    /// `calls`/`injected` counters, but rolls against its own seed
    /// (`splitmix64(parent_seed ^ salt)`) and its own per-site call
    /// numbering. Whether a roll fires is therefore a pure function of
    /// `(seed, salt, local call number)` — independent of how concurrent
    /// workers interleave — which is what keeps chaos runs deterministic
    /// under `--jobs N`. Deriving from a disabled handle yields a disabled
    /// handle; deriving from a derived handle chains the seeds.
    pub fn derive_stream(&self, salt: u64) -> FaultInjector {
        let Some(inner) = &self.inner else {
            return FaultInjector::off();
        };
        let parent_seed = self.stream.as_ref().map_or(inner.seed, |s| s.seed);
        let seed = splitmix64(parent_seed ^ salt.wrapping_mul(0xa24b_aed4_963e_e407));
        FaultInjector {
            inner: Some(Arc::clone(inner)),
            stream: Some(Arc::new(Stream {
                seed,
                calls: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
        }
    }

    /// Arms `site` to fire with probability `rate` (clamped to `[0, 1]`).
    /// Builder-style; must be called before the handle is cloned.
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else if rate <= 0.0 {
            0
        } else {
            (rate * u64::MAX as f64) as u64
        };
        if let Some(inner) = self.inner.as_mut().and_then(Arc::get_mut) {
            inner.thresholds[site.index()] = threshold;
        }
        self
    }

    /// Arms `site` to fire on every roll.
    pub fn with_always(self, site: FaultSite) -> Self {
        self.with_rate(site, 1.0)
    }

    /// Whether this handle can inject anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `site` is armed (non-zero probability).
    pub fn is_armed(&self, site: FaultSite) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.thresholds[site.index()] > 0)
    }

    /// Rolls the dice at `site`: returns `Err(InjectedFault)` when the
    /// deterministic schedule says call *n* fails, `Ok(())` otherwise.
    /// On a disabled handle this is a single branch on `None`.
    #[inline]
    pub fn roll(&self, site: FaultSite) -> Result<(), InjectedFault> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        self.roll_armed(inner, site)
    }

    /// Cold path of [`FaultInjector::roll`], separated so the disabled
    /// handle inlines to a branch.
    fn roll_armed(&self, inner: &Inner, site: FaultSite) -> Result<(), InjectedFault> {
        let i = site.index();
        // The shared counter always tracks total rolls across all streams.
        let shared_call = inner.calls[i].fetch_add(1, Ordering::Relaxed) + 1;
        // A derived stream hashes against its own seed and call numbering,
        // so its schedule is independent of concurrent rolls elsewhere.
        let (seed, call) = match &self.stream {
            Some(stream) => (
                stream.seed,
                stream.calls[i].fetch_add(1, Ordering::Relaxed) + 1,
            ),
            None => (inner.seed, shared_call),
        };
        let threshold = inner.thresholds[i];
        if threshold == 0 {
            return Ok(());
        }
        let h = splitmix64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((i as u64) << 56)
                .wrapping_add(call),
        );
        if threshold == u64::MAX || h < threshold {
            inner.injected[i].fetch_add(1, Ordering::Relaxed);
            return Err(InjectedFault { site, call });
        }
        Ok(())
    }

    /// Calls rolled at `site` so far (0 on a disabled handle).
    pub fn calls(&self, site: FaultSite) -> u64 {
        match &self.inner {
            Some(inner) => inner.calls[site.index()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        match &self.inner {
            Some(inner) => inner.injected[site.index()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.injected(s)).sum()
    }

    /// Parses a `site:rate` spec (e.g. `optimizer-cost:0.3`) onto this
    /// handle, arming the site. Used by `xia recommend --inject`.
    pub fn with_spec(self, spec: &str) -> Result<Self, String> {
        let (site, rate) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad fault spec `{spec}` (expected site:rate)"))?;
        let site = FaultSite::from_name(site).ok_or_else(|| {
            format!(
                "unknown fault site `{site}` (expected one of: {})",
                FaultSite::ALL.map(|s| s.name()).join(", ")
            )
        })?;
        let rate: f64 = rate
            .parse()
            .map_err(|_| format!("bad fault rate `{rate}` (expected a number in [0,1])"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} out of range [0,1]"));
        }
        Ok(self.with_rate(site, rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_fires() {
        let f = FaultInjector::off();
        assert!(!f.is_enabled());
        for _ in 0..1000 {
            assert!(f.roll(FaultSite::OptimizerCost).is_ok());
        }
        assert_eq!(f.calls(FaultSite::OptimizerCost), 0);
        assert_eq!(f.injected_total(), 0);
    }

    #[test]
    fn unarmed_sites_never_fire_but_count_calls() {
        let f = FaultInjector::seeded(1).with_rate(FaultSite::StorageIo, 1.0);
        for _ in 0..100 {
            assert!(f.roll(FaultSite::OptimizerCost).is_ok());
        }
        assert_eq!(f.calls(FaultSite::OptimizerCost), 100);
        assert_eq!(f.injected(FaultSite::OptimizerCost), 0);
    }

    #[test]
    fn always_fires_every_call_with_call_numbers() {
        let f = FaultInjector::seeded(7).with_always(FaultSite::StorageIo);
        for n in 1..=5u64 {
            let e = f.roll(FaultSite::StorageIo).unwrap_err();
            assert_eq!(e.site, FaultSite::StorageIo);
            assert_eq!(e.call, n);
        }
        assert_eq!(f.injected(FaultSite::StorageIo), 5);
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let f = FaultInjector::seeded(42).with_rate(FaultSite::OptimizerCost, 0.3);
                (0..200)
                    .map(|_| f.roll(FaultSite::OptimizerCost).is_err())
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        let fired = runs[0].iter().filter(|&&b| b).count();
        assert!((20..=120).contains(&fired), "rate 0.3 fired {fired}/200");
        // A different seed yields a different schedule.
        let f = FaultInjector::seeded(43).with_rate(FaultSite::OptimizerCost, 0.3);
        let other: Vec<bool> = (0..200)
            .map(|_| f.roll(FaultSite::OptimizerCost).is_err())
            .collect();
        assert_ne!(runs[0], other);
    }

    #[test]
    fn sites_are_independent_streams() {
        // Interleaving rolls at another site must not shift a site's
        // schedule (each site numbers its own calls).
        let solo = FaultInjector::seeded(9).with_rate(FaultSite::StorageIo, 0.5);
        let solo_sched: Vec<bool> = (0..50)
            .map(|_| solo.roll(FaultSite::StorageIo).is_err())
            .collect();
        let mixed = FaultInjector::seeded(9)
            .with_rate(FaultSite::StorageIo, 0.5)
            .with_rate(FaultSite::OptimizerCost, 0.5);
        let mixed_sched: Vec<bool> = (0..50)
            .map(|_| {
                let _ = mixed.roll(FaultSite::OptimizerCost);
                mixed.roll(FaultSite::StorageIo).is_err()
            })
            .collect();
        assert_eq!(solo_sched, mixed_sched);
    }

    #[test]
    fn clones_share_state() {
        let f = FaultInjector::seeded(3).with_always(FaultSite::StatsUnavailable);
        let g = f.clone();
        assert!(g.roll(FaultSite::StatsUnavailable).is_err());
        assert_eq!(f.injected(FaultSite::StatsUnavailable), 1);
    }

    #[test]
    fn derived_streams_are_interleaving_independent() {
        // The schedule of a derived stream must depend only on
        // (seed, salt, local call number) — not on rolls made through the
        // parent or through sibling streams in between.
        let schedule = |noise: bool| -> Vec<bool> {
            let parent = FaultInjector::seeded(77).with_rate(FaultSite::OptimizerCost, 0.4);
            let stream = parent.derive_stream(0xBEEF);
            let sibling = parent.derive_stream(0xCAFE);
            (0..60)
                .map(|_| {
                    if noise {
                        let _ = parent.roll(FaultSite::OptimizerCost);
                        let _ = sibling.roll(FaultSite::OptimizerCost);
                    }
                    stream.roll(FaultSite::OptimizerCost).is_err()
                })
                .collect()
        };
        assert_eq!(schedule(false), schedule(true));
        // Different salts yield different schedules.
        let parent = FaultInjector::seeded(77).with_rate(FaultSite::OptimizerCost, 0.4);
        let roll_out = |salt: u64| -> Vec<bool> {
            let stream = parent.derive_stream(salt);
            (0..60)
                .map(|_| stream.roll(FaultSite::OptimizerCost).is_err())
                .collect()
        };
        assert_ne!(roll_out(1), roll_out(2));
    }

    #[test]
    fn derived_streams_report_into_parent_counters() {
        let parent = FaultInjector::seeded(5).with_always(FaultSite::OptimizerCost);
        let stream = parent.derive_stream(42);
        assert!(stream.roll(FaultSite::OptimizerCost).is_err());
        assert!(stream.roll(FaultSite::OptimizerCost).is_err());
        let _ = parent.roll(FaultSite::OptimizerCost);
        assert_eq!(parent.calls(FaultSite::OptimizerCost), 3);
        assert_eq!(parent.injected(FaultSite::OptimizerCost), 3);
    }

    #[test]
    fn deriving_from_off_stays_off() {
        let stream = FaultInjector::off().derive_stream(9);
        assert!(!stream.is_enabled());
        assert!(stream.roll(FaultSite::StorageIo).is_ok());
    }

    #[test]
    fn spec_parsing() {
        let f = FaultInjector::seeded(0)
            .with_spec("optimizer-cost:1.0")
            .unwrap();
        assert!(f.is_armed(FaultSite::OptimizerCost));
        assert!(!f.is_armed(FaultSite::StorageIo));
        assert!(FaultInjector::seeded(0).with_spec("nope:0.5").is_err());
        assert!(FaultInjector::seeded(0)
            .with_spec("checkpoint-io:1")
            .is_err());
        assert!(FaultInjector::seeded(0).with_spec("storage-io").is_err());
        assert!(FaultInjector::seeded(0)
            .with_spec("storage-io:2.0")
            .is_err());
        assert!(FaultInjector::seeded(0).with_spec("storage-io:x").is_err());
    }

    #[test]
    fn site_names_round_trip() {
        for s in FaultSite::ALL {
            assert_eq!(FaultSite::from_name(s.name()), Some(s));
        }
        assert_eq!(FaultSite::from_name("bogus"), None);
    }

    #[test]
    fn injected_fault_displays_and_converts_to_io() {
        let f = FaultInjector::seeded(1).with_always(FaultSite::StorageIo);
        let e = f.roll(FaultSite::StorageIo).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("storage-io"), "{msg}");
        let io: std::io::Error = e.into();
        assert!(io.to_string().contains("injected fault"), "{io}");
    }
}
