//! Workloads: statements with frequencies.
//!
//! A workload is its distinct statements. Each distinct (trimmed) text is
//! parsed once and stored once, in a *slot*; an entry is a slot and a
//! frequency. A captured workload repeats itself, and a repeat costs one
//! hash, one text comparison and a 16-byte push — no allocation, no
//! reference count, nothing to free. Identity is the slot: entries of one
//! slot share its statement, and what a slot holds is what its text parses
//! to.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;
use xia_xpath::{parse_statement, ParseError, Statement};

/// One distinct statement and the text it was parsed from.
#[derive(Debug, Clone)]
struct Distinct {
    statement: Arc<Statement>,
    text: String,
}

/// One workload entry: a statement and its frequency of occurrence
/// (`freq_s` in the paper's benefit formula), borrowed from the workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadEntry<'a> {
    /// The statement, shared with every entry of the same slot.
    pub statement: &'a Arc<Statement>,
    /// Frequency weight.
    pub freq: f64,
    /// The original statement text (for reports).
    pub text: &'a String,
}

/// A query/update workload — the advisor's training input.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// The slots, numbered in order of their first entry.
    distinct: Vec<Distinct>,
    /// `(slot, freq)` per entry, in order.
    entries: Vec<(u32, f64)>,
    /// Hash of a text (by this map's own hasher) → the first slot whose
    /// text has that hash. A hit is confirmed by comparing the texts: two
    /// texts with one hash cost a parse, never a wrong statement.
    first_with: HashMap<u64, u32>,
}

impl Workload {
    /// Creates an empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty workload with room for `statements` entries.
    pub fn with_capacity(statements: usize) -> Self {
        Self {
            entries: Vec::with_capacity(statements),
            ..Self::default()
        }
    }

    /// Parses and appends a statement with frequency 1.
    pub fn push(&mut self, text: &str) -> Result<(), ParseError> {
        self.push_with_freq(text, 1.0)
    }

    /// Appends a statement with an explicit frequency, parsing it unless a
    /// slot of the same trimmed text already holds its statement.
    pub fn push_with_freq(&mut self, text: &str, freq: f64) -> Result<(), ParseError> {
        let trimmed = text.trim();
        let hash = self.text_hash(trimmed);
        let slot = match self.first_with.get(&hash) {
            Some(&slot) if self.distinct[slot as usize].text == trimmed => slot,
            _ => {
                let statement = Arc::new(parse_statement(text)?);
                self.open_slot(hash, statement, trimmed.to_string())
            }
        };
        self.entries.push((slot, freq));
        Ok(())
    }

    /// Appends an already-parsed statement; `text` is what it was parsed
    /// from (a later push of that text shares this statement). It joins
    /// the slot filed for `text` if that slot holds this very allocation,
    /// and opens its own otherwise.
    pub fn push_statement(&mut self, statement: Arc<Statement>, freq: f64, text: &str) {
        let slot = self.slot_for(statement, text);
        self.entries.push((slot, freq));
    }

    fn text_hash(&self, text: &str) -> u64 {
        self.first_with.hasher().hash_one(text)
    }

    /// The slot filed for `text` if it holds `statement`, else a new one.
    fn slot_for(&mut self, statement: Arc<Statement>, text: &str) -> u32 {
        let hash = self.text_hash(text);
        match self
            .first_with
            .get(&hash)
            .map(|&slot| (slot, &self.distinct[slot as usize]))
        {
            Some((slot, d)) if Arc::ptr_eq(&d.statement, &statement) && d.text == text => slot,
            _ => self.open_slot(hash, statement, text.to_string()),
        }
    }

    /// Opens a slot for `statement`, parsed from `text` (which hashes to
    /// `hash`), and files it unless a slot of that hash is filed already.
    fn open_slot(&mut self, hash: u64, statement: Arc<Statement>, text: String) -> u32 {
        let slot =
            u32::try_from(self.distinct.len()).expect("at most 2^32 - 1 distinct statements");
        self.first_with.entry(hash).or_insert(slot);
        self.distinct.push(Distinct { statement, text });
        slot
    }

    /// Adds `freq` to entry `index`'s frequency: how a caller that merges
    /// duplicate statements as they arrive (a tuning session) folds one
    /// into the entry that already stands for it.
    pub fn add_freq(&mut self, index: usize, freq: f64) {
        self.entries[index].1 += freq;
    }

    /// Builds a workload from statement texts, all with frequency 1.
    pub fn from_texts<'a>(texts: impl IntoIterator<Item = &'a str>) -> Result<Self, ParseError> {
        let texts = texts.into_iter();
        let mut w = Self::with_capacity(texts.size_hint().0);
        for t in texts {
            w.push(t)?;
        }
        Ok(w)
    }

    /// Lenient variant of [`Workload::from_texts`]: statements that fail to
    /// parse are collected instead of aborting the whole workload, so one
    /// malformed statement in a captured trace does not block tuning.
    /// Returns the workload over the parseable statements plus the rejected
    /// `(text, error)` pairs in input order.
    pub fn from_texts_lenient<'a>(
        texts: impl IntoIterator<Item = &'a str>,
    ) -> (Self, Vec<(String, ParseError)>) {
        let mut w = Self::new();
        let mut rejected = Vec::new();
        for t in texts {
            if let Err(e) = w.push(t) {
                rejected.push((t.trim().to_string(), e));
            }
        }
        (w, rejected)
    }

    /// Lenient variant of [`Workload::push_with_freq`]: on a parse failure
    /// the workload is left unchanged and the error is returned by value
    /// (never panics, never aborts a batch).
    pub fn try_push_with_freq(&mut self, text: &str, freq: f64) -> Option<ParseError> {
        self.push_with_freq(text, freq).err()
    }

    /// The entries in order.
    pub fn entries(&self) -> Entries<'_> {
        Entries {
            entries: &self.entries,
            distinct: &self.distinct,
        }
    }

    /// Entry `index`. Panics if there is none.
    pub fn entry(&self, index: usize) -> WorkloadEntry<'_> {
        let (slot, freq) = self.entries[index];
        entry_at(&self.distinct, slot, freq)
    }

    /// Entry `index`'s frequency. Panics if there is none.
    pub fn freq(&self, index: usize) -> f64 {
        self.entries[index].1
    }

    /// Entry `index`'s slot: entries of one slot share one statement.
    /// Panics if there is none.
    pub fn slot(&self, index: usize) -> usize {
        self.entries[index].0 as usize
    }

    /// Number of slots (distinct statements). Every slot has an entry.
    pub fn slots(&self) -> usize {
        self.distinct.len()
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A new workload containing only the first `n` statements (the
    /// training-prefix construction of the paper's Figs. 4–5).
    pub fn prefix(&self, n: usize) -> Workload {
        let entries = self.entries[..n.min(self.len())].to_vec();
        // Slots are numbered in first-occurrence order: the ones in use
        // are the ones below the highest.
        let slots = (entries.iter().map(|&(slot, _)| slot as usize + 1))
            .max()
            .unwrap_or(0);
        let mut first_with = HashMap::with_hasher(self.first_with.hasher().clone());
        first_with.extend((self.first_with.iter()).filter(|(_, &slot)| (slot as usize) < slots));
        Workload {
            distinct: self.distinct[..slots].to_vec(),
            entries,
            first_with,
        }
    }

    /// Concatenates two workloads. `other`'s slots are remapped once
    /// each, into this workload's slot of the same allocation or a new one.
    pub fn concat(&self, other: &Workload) -> Workload {
        let mut out = self.clone();
        out.distinct.reserve(other.distinct.len());
        let remap: Vec<u32> = (other.distinct.iter())
            .map(|d| out.slot_for(Arc::clone(&d.statement), &d.text))
            .collect();
        (out.entries).extend(
            other
                .entries
                .iter()
                .map(|&(slot, freq)| (remap[slot as usize], freq)),
        );
        out
    }

    /// Names of the collections the workload touches, deduplicated.
    pub fn collections(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for d in &self.distinct {
            let c = d.statement.collection();
            if !out.iter().any(|o| o == c) {
                out.push(c.to_string());
            }
        }
        out
    }
}

fn entry_at(distinct: &[Distinct], slot: u32, freq: f64) -> WorkloadEntry<'_> {
    let d = &distinct[slot as usize];
    WorkloadEntry {
        statement: &d.statement,
        freq,
        text: &d.text,
    }
}

/// A workload's entries, borrowed: see [`Workload::entries`].
#[derive(Debug, Clone, Copy)]
pub struct Entries<'a> {
    entries: &'a [(u32, f64)],
    distinct: &'a [Distinct],
}

impl<'a> Entries<'a> {
    /// The entries in order.
    pub fn iter(&self) -> EntryIter<'a> {
        EntryIter {
            entries: self.entries.iter(),
            distinct: self.distinct,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<'a> IntoIterator for Entries<'a> {
    type Item = WorkloadEntry<'a>;
    type IntoIter = EntryIter<'a>;

    fn into_iter(self) -> EntryIter<'a> {
        self.iter()
    }
}

/// Iterator over a workload's entries. `skip(n)` is O(1), so a caller
/// that extends state from entry `n` on pays for the new entries only.
#[derive(Debug, Clone)]
pub struct EntryIter<'a> {
    entries: std::slice::Iter<'a, (u32, f64)>,
    distinct: &'a [Distinct],
}

impl<'a> Iterator for EntryIter<'a> {
    type Item = WorkloadEntry<'a>;

    fn next(&mut self) -> Option<WorkloadEntry<'a>> {
        let &(slot, freq) = self.entries.next()?;
        Some(entry_at(self.distinct, slot, freq))
    }

    fn nth(&mut self, n: usize) -> Option<WorkloadEntry<'a>> {
        let &(slot, freq) = self.entries.nth(n)?;
        Some(entry_at(self.distinct, slot, freq))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for EntryIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_texts() {
        let w = Workload::from_texts([
            r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "A" return $s"#,
            r#"delete from ODOC where /Order[Id = 1]"#,
        ])
        .unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(
            w.collections(),
            vec!["SDOC".to_string(), "ODOC".to_string()]
        );
    }

    #[test]
    fn prefix_takes_first_n() {
        let w = Workload::from_texts([
            r#"collection('C')/a[b = 1]"#,
            r#"collection('C')/a[c = 2]"#,
            r#"collection('C')/a[d = 3]"#,
        ])
        .unwrap();
        assert_eq!(w.prefix(2).len(), 2);
        assert_eq!(w.prefix(10).len(), 3);
        assert_eq!(w.prefix(0).len(), 0);
    }

    #[test]
    fn frequencies_are_kept() {
        let mut w = Workload::new();
        w.push_with_freq(r#"collection('C')/a[b = 1]"#, 7.5)
            .unwrap();
        assert_eq!(w.entry(0).freq, 7.5);
        assert_eq!(w.freq(0), 7.5);
    }

    #[test]
    fn concat_appends() {
        let a = Workload::from_texts([r#"collection('C')/a[b = 1]"#]).unwrap();
        let b = Workload::from_texts([r#"collection('C')/a[c = 2]"#]).unwrap();
        assert_eq!(a.concat(&b).len(), 2);
    }

    /// Slots are numbered in first-occurrence order and every one is used;
    /// the table names, for every text, the slot of the first entry holding
    /// it (no two texts of these tests share a hash), and nothing else.
    fn assert_table_files_first_slots(w: &Workload) {
        let (mut texts, mut next) = (0, 0);
        for (i, e) in w.entries().iter().enumerate() {
            assert!(w.slot(i) <= next, "entry {i} skips a slot");
            next += usize::from(w.slot(i) == next);
            let first = w.entries().iter().position(|f| f.text == e.text).unwrap();
            texts += usize::from(first == i);
            let filed = w.first_with.get(&w.text_hash(e.text));
            assert_eq!(filed.map(|&slot| slot as usize), Some(w.slot(first)));
        }
        assert_eq!(next, w.slots(), "a slot without an entry");
        assert_eq!(w.first_with.len(), texts);
    }

    /// Entries of one text share one slot and its allocation; no others do.
    fn assert_shared_by_text_only(w: &Workload) {
        for (i, a) in w.entries().iter().enumerate() {
            for (j, b) in w.entries().iter().take(i).enumerate() {
                let same_text = a.text == b.text;
                assert_eq!(
                    w.slot(i) == w.slot(j),
                    same_text,
                    "`{}` / `{}`",
                    a.text,
                    b.text
                );
                assert_eq!(Arc::ptr_eq(a.statement, b.statement), same_text);
            }
        }
    }

    #[test]
    fn sharing_equals_parsing_every_text_on_its_own() {
        use crate::prng::Prng;
        const BAD: [&str; 3] = [
            "for $x in nonsense",
            "  ???",
            "collection('C')/a[b = \"open",
        ];
        let mut pool: Vec<String> = Vec::new();
        for name in ["a", "b", "Yield"] {
            for value in ["1", "2.5", "\"x\""] {
                pool.push(format!("collection('C')/{name}[k = {value}]"));
                // The same statement under another text.
                pool.push(format!("collection('C')/{name}[k   =   {value}]"));
                pool.push(format!(
                    "for $v in S('D')/{name} where $v/k >= {value} return $v/r"
                ));
                pool.push(format!("update C set /{name}/k = {value} where /{name}[r]"));
            }
            pool.push(format!("delete from C where /{name}[k = 1]"));
            pool.push(format!("insert into C <{name}><k>1</k></{name}>"));
        }
        let mut rng = Prng::seed_from_u64(0x5a4e);
        let stream: Vec<(String, f64)> = (0..600)
            .map(|_| {
                let text = match rng.gen_range(0..12) {
                    0 => BAD[rng.gen_range(0..BAD.len())].to_string(),
                    n => {
                        let text = &pool[rng.gen_range(0..pool.len())];
                        // One text under surrounding whitespace is one text.
                        ["", " ", "\n\t"][n % 3].to_string() + text + ["", "  \n"][n % 2]
                    }
                };
                (text, [1.0, 0.1, 2.5, 1e-3][rng.gen_range(0..4)])
            })
            .collect();

        let mut w = Workload::new();
        let mut rejected = Vec::new();
        let mut want = Vec::new();
        let mut want_rejected = Vec::new();
        for (text, freq) in &stream {
            if let Some(e) = w.try_push_with_freq(text, *freq) {
                rejected.push((text.trim().to_string(), e));
            }
            match parse_statement(text) {
                Ok(statement) => want.push((statement, text.trim(), freq)),
                Err(e) => want_rejected.push((text.trim().to_string(), e)),
            }
        }
        assert_eq!(rejected, want_rejected);
        assert!(rejected.len() > 20 && want.len() > 500);
        assert_eq!(w.len(), want.len());
        for (e, (statement, text, freq)) in w.entries().iter().zip(&want) {
            assert_eq!(**e.statement, *statement);
            assert_eq!(e.text, *text);
            assert_eq!(e.freq.to_bits(), freq.to_bits());
        }
        assert_shared_by_text_only(&w);
        assert_table_files_first_slots(&w);
        let allocations = |w: &Workload| {
            let mut seen: Vec<*const Statement> = w
                .entries()
                .iter()
                .map(|e| Arc::as_ptr(e.statement))
                .collect();
            seen.sort();
            seen.dedup();
            seen.len()
        };
        assert_eq!(allocations(&w), w.first_with.len());
        assert_eq!(allocations(&w), w.slots());
        assert!(allocations(&w) <= pool.len() && pool.len() < w.len() / 4);

        // The lenient and the strict constructors are the same loop.
        let texts = || stream.iter().map(|(text, _)| text.as_str());
        let (lenient, lenient_rejected) = Workload::from_texts_lenient(texts());
        assert_eq!(lenient_rejected, want_rejected);
        let strict =
            Workload::from_texts(texts().filter(|t| !BAD.contains(t))).expect("the rest parse");
        for built in [&lenient, &strict] {
            assert_eq!(built.len(), w.len());
            for (b, e) in built.entries().iter().zip(w.entries()) {
                assert_eq!(
                    (&**b.statement, b.text, b.freq),
                    (&**e.statement, e.text, 1.0)
                );
            }
            assert_shared_by_text_only(built);
            assert_table_files_first_slots(built);
        }
        assert!(Workload::from_texts(texts()).is_err());

        // Derived workloads keep sharing, and keep a table that serves the
        // next push: a text they hold is shared, any other is parsed.
        let half = w.len() / 2;
        let (head, copy) = (w.prefix(half), w.clone());
        let joined = head.concat(&strict);
        assert_eq!(joined.len(), half + strict.len());
        let heads = [0, 1, 2, 5, w.len() + 1].map(|n| w.prefix(n));
        for derived in heads.iter().chain([&head, &copy, &joined]) {
            assert_table_files_first_slots(derived);
            let mut grown = derived.clone();
            for text in &pool {
                grown.push(text).unwrap();
                let last = grown.len() - 1;
                let pushed = grown.entry(last);
                assert_eq!(**pushed.statement, parse_statement(text).unwrap());
                let first = derived.entries().iter().position(|e| e.text == text);
                assert_eq!(
                    first.map(|i| derived.slot(i)),
                    first.map(|_| grown.slot(last))
                );
                assert_eq!(
                    first.map(|i| Arc::as_ptr(derived.entry(i).statement)),
                    first.map(|_| Arc::as_ptr(pushed.statement)),
                    "{text}"
                );
                let held_before = derived
                    .entries()
                    .iter()
                    .any(|e| Arc::ptr_eq(e.statement, pushed.statement));
                assert_eq!(held_before, first.is_some(), "{text}");
            }
            assert_table_files_first_slots(&grown);
        }
        // `prefix` and `clone` share with their source; `concat` keeps both
        // sides' allocations as they were.
        assert_shared_by_text_only(&head);
        assert!(Arc::ptr_eq(copy.entry(3).statement, w.entry(3).statement));
        assert!(Arc::ptr_eq(
            joined.entry(half).statement,
            strict.entry(0).statement
        ));
    }

    #[test]
    fn a_prefix_keeps_exactly_the_slots_its_entries_use() {
        let w = Workload::from_texts([
            "collection('C')/a[b = 1]",
            "collection('C')/a[b = 1]",
            "collection('C')/a[c = 2]",
            "collection('C')/a[b = 1]",
            "collection('C')/a[d = 3]",
            "collection('C')/a[c = 2]",
        ])
        .unwrap();
        assert_eq!(w.slots(), 3);
        for n in 0..=w.len() + 1 {
            // Skipping `n` entries lands where indexing does.
            let rest = w.entries().iter().skip(n);
            assert_eq!(rest.len(), w.len().saturating_sub(n));
            for (i, e) in (n..).zip(rest) {
                assert_eq!((e.text, e.freq), (w.entry(i).text, w.freq(i)));
            }
            let p = w.prefix(n);
            let mut used: Vec<usize> = (0..p.len()).map(|i| w.slot(i)).collect();
            used.sort_unstable();
            used.dedup();
            assert_eq!(p.slots(), used.len(), "prefix({n})");
            for i in 0..p.len() {
                assert_eq!(p.slot(i), w.slot(i));
                assert_eq!(p.freq(i).to_bits(), w.freq(i).to_bits());
                assert!(Arc::ptr_eq(p.entry(i).statement, w.entry(i).statement));
            }
            assert_table_files_first_slots(&p);
        }
    }

    #[test]
    fn concat_shares_within_each_side_and_remaps_the_right_slots() {
        let (x, y, z) = (
            "collection('C')/a[b = 1]",
            "collection('C')/a[c = 2]",
            "collection('C')/a[d = 3]",
        );
        let a = Workload::from_texts([x, y, x]).unwrap();
        let b = Workload::from_texts([y, z, y]).unwrap();
        let joined = a.concat(&b);
        // `b`'s `y` is its own allocation, so it keeps its own slot; the
        // table still files `y` under `a`'s slot.
        assert_eq!(joined.slots(), 4);
        let slots: Vec<usize> = (0..joined.len()).map(|i| joined.slot(i)).collect();
        assert_eq!(slots, [0, 1, 0, 2, 3, 2]);
        assert!(Arc::ptr_eq(joined.entry(3).statement, b.entry(0).statement));
        assert!(Arc::ptr_eq(joined.entry(1).statement, a.entry(1).statement));
        assert_table_files_first_slots(&joined);
        let mut grown = joined.clone();
        grown.push(y).unwrap();
        assert_eq!(grown.slot(joined.len()), 1);

        // One allocation on both sides is one slot.
        let twice = a.concat(&a);
        assert_eq!(twice.slots(), a.slots());
        let slots: Vec<usize> = (0..twice.len()).map(|i| twice.slot(i)).collect();
        assert_eq!(slots, [0, 1, 0, 0, 1, 0]);
        assert_shared_by_text_only(&twice);
    }

    #[test]
    fn a_fresh_allocation_of_a_known_text_opens_its_own_slot() {
        let text = "collection('C')/a[b = 1]";
        let mut w = Workload::new();
        w.push(text).unwrap();
        w.push_statement(Arc::new(parse_statement(text).unwrap()), 2.0, text);
        assert_eq!((w.slot(1), w.slots()), (1, 2));
        assert!(!Arc::ptr_eq(w.entry(0).statement, w.entry(1).statement));
        // The text stays filed under its first slot, and that slot's own
        // allocation joins it.
        w.push(text).unwrap();
        let first = Arc::clone(w.entry(0).statement);
        w.push_statement(first, 3.0, text);
        assert_eq!((w.slot(2), w.slot(3), w.slots()), (0, 0, 2));
        assert_eq!(w.first_with.len(), 1);
    }

    #[test]
    fn two_texts_with_one_hash_cost_a_parse_never_a_wrong_statement() {
        let (a, b) = ("collection('C')/a[b = 1]", "collection('C')/a[c = 2]");
        let mut w = Workload::new();
        w.push(a).unwrap();
        // As if `b` hashed to where `a`'s slot is filed.
        w.first_with.insert(w.text_hash(b), 0);
        for text in [b, b, a] {
            w.push(text).unwrap();
        }
        let e = |i| w.entry(i);
        for i in [1, 2] {
            assert_eq!(e(i).text, b);
            assert_eq!(**e(i).statement, parse_statement(b).unwrap());
            assert!(!Arc::ptr_eq(e(i).statement, e(0).statement));
        }
        assert!(
            !Arc::ptr_eq(e(1).statement, e(2).statement),
            "parsed each time"
        );
        assert_eq!((w.slot(1), w.slot(2)), (1, 2));
        assert!(Arc::ptr_eq(e(3).statement, e(0).statement));
        assert_eq!(w.slot(3), 0);
        assert_eq!(w.first_with.len(), 2);
    }

    #[test]
    fn parse_errors_propagate() {
        let mut w = Workload::new();
        assert!(w.push("for $x in nonsense").is_err());
        assert!(w.is_empty());
        assert_eq!(w.slots(), 0);
    }

    #[test]
    fn lenient_from_texts_keeps_good_statements() {
        let (w, rejected) = Workload::from_texts_lenient([
            r#"collection('C')/a[b = 1]"#,
            "for $x in nonsense",
            r#"collection('C')/a[c = 2]"#,
        ]);
        assert_eq!(w.len(), 2);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, "for $x in nonsense");
    }

    #[test]
    fn lenient_from_texts_of_all_bad_input_is_empty() {
        let (w, rejected) = Workload::from_texts_lenient(["???", "also bad ["]);
        assert!(w.is_empty());
        assert_eq!(rejected.len(), 2);
    }
}
