//! The decision-provenance event journal.
//!
//! [`EventJournal`] mirrors the [`crate::Telemetry`] handle design: a
//! cheap, cloneable handle whose disabled form ([`EventJournal::off`])
//! turns every operation into a branch on `None` — the journal-off path
//! costs the same as the telemetry-off path. The enabled form is a
//! ring-buffered, seq-numbered store of [`Event`]s behind one mutex.
//!
//! `emit` takes a *closure* so payload construction (shared pattern
//! strings, configuration vectors) is skipped entirely on a disabled
//! handle; `emit_batch` appends a whole batch under one lock.
//!
//! ## Determinism
//!
//! Every advisor emission site runs on the coordinator thread in
//! deterministic order (the same discipline that keeps recommendations
//! and counters `--jobs`-invariant), so a run's JSONL rendering is
//! byte-identical for any worker count. Worker-side sinks, if ever
//! needed, fold in through [`EventJournal::merge_from`], which
//! re-sequences the source's events in their per-worker seq order after
//! the destination's — the same stable-merge guarantee the telemetry
//! counter merge provides.

use crate::event::Event;
use crate::json::Json;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default ring capacity: large enough to hold every event of the paper's
/// Table III workloads with room to spare, small enough to bound memory.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct Ring {
    events: VecDeque<(u64, Event)>,
    next_seq: u64,
    dropped: u64,
    capacity: usize,
}

impl Ring {
    /// Appends one event under the next seq number, dropping the oldest
    /// at capacity.
    fn push(&mut self, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((seq, event));
    }
}

#[derive(Debug)]
struct JournalInner {
    ring: Mutex<Ring>,
}

/// Cheap handle to a shared event journal. See the module docs.
#[derive(Debug, Clone)]
pub struct EventJournal {
    inner: Option<Arc<JournalInner>>,
}

impl Default for EventJournal {
    /// Defaults to a *disabled* handle: journaling is opt-in
    /// (`--journal`, `explain --why`), unlike telemetry.
    fn default() -> Self {
        Self::off()
    }
}

impl EventJournal {
    /// A fresh, enabled journal with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A fresh, enabled journal holding at most `capacity` events
    /// (oldest dropped first; drops are counted).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(JournalInner {
                ring: Mutex::new(Ring {
                    events: VecDeque::new(),
                    next_seq: 0,
                    dropped: 0,
                    capacity: capacity.max(1),
                }),
            })),
        }
    }

    /// A disabled handle: every operation is a no-op.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. The closure runs only on an enabled handle, so
    /// payload construction is free on the off path.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.ring.lock().expect("journal poisoned").push(make());
        }
    }

    /// Records a batch of events in order under one lock, as the same
    /// number of [`EventJournal::emit`] calls would. Like `emit`, the
    /// closure runs only on an enabled handle. The batch is drawn while
    /// the lock is held, so building it must not emit to this journal.
    pub fn emit_batch<I: IntoIterator<Item = Event>>(&self, make: impl FnOnce() -> I) {
        if let Some(inner) = &self.inner {
            let events = make();
            let mut ring = inner.ring.lock().expect("journal poisoned");
            for event in events {
                ring.push(event);
            }
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.ring.lock().expect("journal poisoned").events.len(),
            None => 0,
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark: the next sequence number to be assigned (equals
    /// the total number of events ever emitted).
    pub fn high_water(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.ring.lock().expect("journal poisoned").next_seq,
            None => 0,
        }
    }

    /// Events dropped by the ring (emitted beyond capacity).
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.ring.lock().expect("journal poisoned").dropped,
            None => 0,
        }
    }

    /// Snapshot of the buffered `(seq, event)` pairs, oldest first.
    pub fn events(&self) -> Vec<(u64, Event)> {
        match &self.inner {
            Some(inner) => inner
                .ring
                .lock()
                .expect("journal poisoned")
                .events
                .iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Drops all buffered events and resets the sequence counter.
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            let mut ring = inner.ring.lock().expect("journal poisoned");
            ring.events.clear();
            ring.next_seq = 0;
            ring.dropped = 0;
        }
    }

    /// Folds another journal's buffered events into this one, preserving
    /// the source's per-journal seq order (a stable merge: destination
    /// events first, then the source's in their original order, all
    /// re-sequenced). No-op if either handle is disabled.
    pub fn merge_from(&self, other: &EventJournal) {
        if !self.is_enabled() {
            return;
        }
        let events = other.events();
        self.emit_batch(|| events.into_iter().map(|(_, event)| event));
    }

    /// Renders the buffered events as JSONL: one
    /// `{"seq":N,"event":"...",...}` object per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, event) in self.events() {
            let mut fields = vec![
                ("seq".to_string(), Json::Num(seq as f64)),
                ("event".to_string(), Json::Str(event.name().to_string())),
            ];
            fields.extend(event.fields());
            out.push_str(&Json::Obj(fields).render());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL journal back into `(seq, event)` pairs (blank
    /// lines skipped). The inverse of [`EventJournal::to_jsonl`].
    pub fn parse_jsonl(text: &str) -> Result<Vec<(u64, Event)>, String> {
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let seq = v
                .get("seq")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("line {}: missing `seq`", lineno + 1))?
                as u64;
            let event = Event::from_json(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            out.push((seq, event));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PruneReason;

    fn pruned(pattern: &str) -> Event {
        Event::CandidatePruned {
            pattern: pattern.into(),
            reason: PruneReason::SizeRule,
        }
    }

    #[test]
    fn off_handle_is_inert_and_skips_payload_construction() {
        let j = EventJournal::off();
        assert!(!j.is_enabled());
        j.emit(|| unreachable!("closure must not run on a disabled handle"));
        assert_eq!(j.len(), 0);
        assert_eq!(j.high_water(), 0);
        assert_eq!(j.to_jsonl(), "");
    }

    #[test]
    fn seq_numbers_are_dense_and_clones_share_the_ring() {
        let j = EventJournal::new();
        let k = j.clone();
        j.emit(|| pruned("/a"));
        k.emit(|| pruned("/b"));
        j.emit(|| pruned("/c"));
        let events = j.events();
        assert_eq!(events.len(), 3);
        for (i, (seq, _)) in events.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        assert_eq!(j.high_water(), 3);
    }

    #[test]
    fn a_batch_journals_as_its_events_one_by_one() {
        let one_by_one = EventJournal::with_capacity(3);
        let batched = EventJournal::with_capacity(3);
        one_by_one.emit(|| pruned("/a"));
        batched.emit(|| pruned("/a"));
        for p in ["/b", "/c", "/d"] {
            one_by_one.emit(|| pruned(p));
        }
        batched.emit_batch(|| ["/b", "/c", "/d"].map(pruned));
        assert_eq!(batched.events(), one_by_one.events());
        assert_eq!(batched.to_jsonl(), one_by_one.to_jsonl());
        assert_eq!((batched.high_water(), batched.dropped()), (4, 1));
        EventJournal::off().emit_batch(|| -> Vec<Event> { unreachable!("off handle") });
    }

    #[test]
    fn ring_drops_oldest_and_counts_drops() {
        let j = EventJournal::with_capacity(2);
        for p in ["/a", "/b", "/c", "/d"] {
            j.emit(|| pruned(p));
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.high_water(), 4);
        let seqs: Vec<u64> = j.events().iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 3], "oldest events dropped first");
    }

    #[test]
    fn merge_preserves_source_order_and_is_stable() {
        let a = EventJournal::new();
        let b = EventJournal::new();
        a.emit(|| pruned("/a1"));
        b.emit(|| pruned("/b1"));
        b.emit(|| pruned("/b2"));
        a.merge_from(&b);
        let patterns: Vec<String> = a
            .events()
            .iter()
            .map(|(_, e)| match e {
                Event::CandidatePruned { pattern, .. } => pattern.to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(patterns, vec!["/a1", "/b1", "/b2"]);
        // Re-sequenced densely on the destination.
        let seqs: Vec<u64> = a.events().iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn reset_clears_everything() {
        let j = EventJournal::new();
        j.emit(|| pruned("/a"));
        j.reset();
        assert!(j.is_empty());
        assert_eq!(j.high_water(), 0);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn parse_rejects_garbage_lines() {
        assert!(EventJournal::parse_jsonl("not json\n").is_err());
        assert!(EventJournal::parse_jsonl("{\"seq\":0}\n").is_err());
        assert!(EventJournal::parse_jsonl("{\"event\":\"candidate_pruned\"}\n").is_err());
        assert!(EventJournal::parse_jsonl("").unwrap().is_empty());
    }
}
