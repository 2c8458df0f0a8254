//! Workloads: statements with frequencies.

use xia_xpath::{parse_statement, ParseError, Statement};

/// One workload entry: a statement and its frequency of occurrence
/// (`freq_s` in the paper's benefit formula).
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// The statement.
    pub statement: Statement,
    /// Frequency weight.
    pub freq: f64,
    /// The original statement text (for reports).
    pub text: String,
}

/// A query/update workload — the advisor's training input.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    entries: Vec<WorkloadEntry>,
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
        }
    }

    /// Parses and appends a statement with frequency 1.
    pub fn push(&mut self, text: &str) -> Result<(), ParseError> {
        self.push_with_freq(text, 1.0)
    }

    /// Parses and appends a statement with an explicit frequency.
    pub fn push_with_freq(&mut self, text: &str, freq: f64) -> Result<(), ParseError> {
        let statement = parse_statement(text)?;
        self.entries.push(WorkloadEntry {
            statement,
            freq,
            text: text.trim().to_string(),
        });
        Ok(())
    }

    /// Appends an already-parsed statement.
    pub fn push_statement(&mut self, statement: Statement, freq: f64, text: impl Into<String>) {
        self.entries.push(WorkloadEntry {
            statement,
            freq,
            text: text.into(),
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
        Workload {
            entries: self.entries.iter().take(n).cloned().collect(),
        }
    }

    /// Concatenates two workloads.
    pub fn concat(&self, other: &Workload) -> Workload {
        let mut entries = self.entries.clone();
        entries.extend(other.entries.iter().cloned());
        Workload { entries }
    }

    /// Workload compression: merges duplicate statements, summing their
    /// frequencies. Relational advisors do this before tuning; it bounds
    /// the number of Evaluate-mode optimizer calls by the number of
    /// *distinct* statements.
    pub fn compress(&self) -> Workload {
        let mut out: Vec<WorkloadEntry> = Vec::new();
        let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        for e in &self.entries {
            // Key on the parsed statement (whitespace-insensitive).
            let key = format!("{:?}", e.statement);
            match index.get(&key) {
                Some(&i) => out[i].freq += e.freq,
                None => {
                    index.insert(key, out.len());
                    out.push(e.clone());
                }
            }
        }
        Workload { entries: out }
    }

    /// Total frequency mass of the workload.
    pub fn total_freq(&self) -> f64 {
        self.entries.iter().map(|e| e.freq).sum()
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

    #[test]
    fn compress_merges_duplicates_preserving_mass() {
        let mut w = Workload::new();
        w.push_with_freq(r#"collection('C')/a[b = 1]"#, 2.0)
            .unwrap();
        w.push_with_freq(r#"collection('C')/a[b   =   1]"#, 3.0)
            .unwrap();
        w.push_with_freq(r#"collection('C')/a[c = 2]"#, 1.0)
            .unwrap();
        let c = w.compress();
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_freq(), w.total_freq());
        assert_eq!(c.entries()[0].freq, 5.0);
    }

    #[test]
    fn compress_of_distinct_workload_is_identity() {
        let w =
            Workload::from_texts([r#"collection('C')/a[b = 1]"#, r#"collection('C')/a[c = 2]"#])
                .unwrap();
        assert_eq!(w.compress().len(), 2);
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
