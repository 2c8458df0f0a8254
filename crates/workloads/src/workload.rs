//! Workloads: statements with frequencies.
//!
//! Entries of one (trimmed) text share one parsed statement: a captured
//! workload repeats itself, and a repeat costs a reference, not a parse.
//! Identity is the text, so what an entry holds is what its text parses to.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;
use xia_xpath::{parse_statement, ParseError, Statement};

/// One workload entry: a statement and its frequency of occurrence
/// (`freq_s` in the paper's benefit formula).
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// The statement, shared with every entry of the same text.
    pub statement: Arc<Statement>,
    /// Frequency weight.
    pub freq: f64,
    /// The original statement text (for reports).
    pub text: String,
}

/// A query/update workload — the advisor's training input.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    entries: Vec<WorkloadEntry>,
    /// Hash of a text (by this map's own hasher) → the first entry whose
    /// text has that hash. A hit is confirmed by comparing the texts: two
    /// texts with one hash cost a parse, never a wrong statement.
    first_with: HashMap<u64, usize>,
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

    /// Appends a statement with an explicit frequency, parsing it unless an
    /// entry of the same trimmed text already holds its statement.
    pub fn push_with_freq(&mut self, text: &str, freq: f64) -> Result<(), ParseError> {
        let trimmed = text.trim();
        let hash = self.text_hash(trimmed);
        let statement = match self.first_with.get(&hash).map(|&i| &self.entries[i]) {
            Some(first) if first.text == trimmed => Arc::clone(&first.statement),
            _ => Arc::new(parse_statement(text)?),
        };
        self.push_entry(hash, statement, freq, trimmed.to_string());
        Ok(())
    }

    /// Appends an already-parsed statement; `text` is what it was parsed
    /// from (a later push of that text shares this statement).
    pub fn push_statement(&mut self, statement: Arc<Statement>, freq: f64, text: &str) {
        self.push_entry(self.text_hash(text), statement, freq, text.to_string());
    }

    fn text_hash(&self, text: &str) -> u64 {
        self.first_with.hasher().hash_one(text)
    }

    /// Appends an entry whose `text` hashes to `hash`.
    fn push_entry(&mut self, hash: u64, statement: Arc<Statement>, freq: f64, text: String) {
        self.first_with.entry(hash).or_insert(self.entries.len());
        self.entries.push(WorkloadEntry {
            statement,
            freq,
            text,
        });
    }

    /// Adds `freq` to entry `index`'s frequency: how a caller that merges
    /// duplicate statements as they arrive (a tuning session) folds one
    /// into the entry that already stands for it.
    pub fn add_freq(&mut self, index: usize, freq: f64) {
        self.entries[index].freq += freq;
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
    pub fn entries(&self) -> &[WorkloadEntry] {
        &self.entries
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
        let mut first_with = HashMap::with_hasher(self.first_with.hasher().clone());
        first_with.extend(self.first_with.iter().filter(|(_, &first)| first < n));
        Workload {
            entries: self.entries.iter().take(n).cloned().collect(),
            first_with,
        }
    }

    /// Concatenates two workloads.
    pub fn concat(&self, other: &Workload) -> Workload {
        let mut out = self.clone();
        out.entries.reserve(other.len());
        for e in &other.entries {
            out.push_entry(
                out.text_hash(&e.text),
                e.statement.clone(),
                e.freq,
                e.text.clone(),
            );
        }
        out
    }

    /// Names of the collections the workload touches, deduplicated.
    pub fn collections(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in &self.entries {
            let c = e.statement.collection().to_string();
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

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
        assert_eq!(w.entries()[0].freq, 7.5);
    }

    #[test]
    fn concat_appends() {
        let a = Workload::from_texts([r#"collection('C')/a[b = 1]"#]).unwrap();
        let b = Workload::from_texts([r#"collection('C')/a[c = 2]"#]).unwrap();
        assert_eq!(a.concat(&b).len(), 2);
    }

    /// The table names, for every text, the first entry holding it (no two
    /// texts of these tests share a hash), and nothing else.
    fn assert_table_names_first_entries(w: &Workload) {
        let mut distinct = 0;
        for (i, e) in w.entries().iter().enumerate() {
            let first = w.entries().iter().position(|f| f.text == e.text).unwrap();
            distinct += usize::from(first == i);
            assert_eq!(w.first_with.get(&w.text_hash(&e.text)), Some(&first));
        }
        assert_eq!(w.first_with.len(), distinct);
    }

    /// Entries of one text share one allocation; no others do.
    fn assert_shared_by_text_only(w: &Workload) {
        for (i, a) in w.entries().iter().enumerate() {
            for b in &w.entries()[..i] {
                assert_eq!(
                    Arc::ptr_eq(&a.statement, &b.statement),
                    a.text == b.text,
                    "`{}` / `{}`",
                    a.text,
                    b.text
                );
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
            assert_eq!(*e.statement, *statement);
            assert_eq!(e.text, *text);
            assert_eq!(e.freq.to_bits(), freq.to_bits());
        }
        assert_shared_by_text_only(&w);
        assert_table_names_first_entries(&w);
        let allocations = |w: &Workload| {
            let mut seen: Vec<*const Statement> = w
                .entries()
                .iter()
                .map(|e| Arc::as_ptr(&e.statement))
                .collect();
            seen.sort();
            seen.dedup();
            seen.len()
        };
        assert_eq!(allocations(&w), w.first_with.len());
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
                    (&*b.statement, &b.text, b.freq),
                    (&*e.statement, &e.text, 1.0)
                );
            }
            assert_shared_by_text_only(built);
            assert_table_names_first_entries(built);
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
            assert_table_names_first_entries(derived);
            let mut grown = derived.clone();
            for text in &pool {
                grown.push(text).unwrap();
                let pushed = grown.entries().last().unwrap();
                assert_eq!(*pushed.statement, parse_statement(text).unwrap());
                let first = derived.entries().iter().find(|e| e.text == *text);
                assert_eq!(
                    first.map(|e| Arc::as_ptr(&e.statement)),
                    first.map(|_| Arc::as_ptr(&pushed.statement)),
                    "{text}"
                );
                let held_before = derived
                    .entries()
                    .iter()
                    .any(|e| Arc::ptr_eq(&e.statement, &pushed.statement));
                assert_eq!(held_before, first.is_some(), "{text}");
            }
            assert_table_names_first_entries(&grown);
        }
        // `prefix` and `clone` share with their source; `concat` keeps both
        // sides' allocations as they were.
        assert_shared_by_text_only(&head);
        assert!(Arc::ptr_eq(
            &copy.entries()[3].statement,
            &w.entries()[3].statement
        ));
        assert!(Arc::ptr_eq(
            &joined.entries()[half].statement,
            &strict.entries()[0].statement
        ));
    }

    #[test]
    fn two_texts_with_one_hash_cost_a_parse_never_a_wrong_statement() {
        let (a, b) = ("collection('C')/a[b = 1]", "collection('C')/a[c = 2]");
        let mut w = Workload::new();
        w.push(a).unwrap();
        // As if `b` hashed to where `a`'s entry is filed.
        w.first_with.insert(w.text_hash(b), 0);
        for text in [b, b, a] {
            w.push(text).unwrap();
        }
        let e = w.entries();
        for i in [1, 2] {
            assert_eq!(e[i].text, b);
            assert_eq!(*e[i].statement, parse_statement(b).unwrap());
            assert!(!Arc::ptr_eq(&e[i].statement, &e[0].statement));
        }
        assert!(
            !Arc::ptr_eq(&e[1].statement, &e[2].statement),
            "parsed each time"
        );
        assert!(Arc::ptr_eq(&e[3].statement, &e[0].statement));
        assert_eq!(w.first_with.len(), 2);
    }

    #[test]
    fn parse_errors_propagate() {
        let mut w = Workload::new();
        assert!(w.push("for $x in nonsense").is_err());
        assert!(w.is_empty());
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
