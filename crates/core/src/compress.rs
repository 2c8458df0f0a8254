//! CoPhy-style workload compression: cluster statements into weighted
//! cost-identity templates.
//!
//! The advisor's what-if loop is (statements × configurations) optimizer
//! calls; on 100k-statement workloads that product is the binding
//! constraint. CoPhy's observation is that production workloads are
//! template-shaped: most statements are parameter variations of a few
//! hundred shapes, and the cost model cannot tell those variations apart
//! (see [`xia_xpath::template_key`] for exactly what it can and cannot
//! distinguish). Compression costs one representative per template and
//! multiplies by the template's accumulated frequency — exact weight
//! bookkeeping, not sampling, so the total benefit of every configuration
//! is preserved and the recommendation is unchanged.
//!
//! Compression runs on the coordinator thread before candidate
//! enumeration; it is deterministic in the workload alone (first-occurrence
//! template order), so compressed runs stay byte-identical across
//! `--jobs` values.

use std::collections::HashMap;
use std::sync::Arc;
use xia_obs::{Counter, Event, EventJournal, Telemetry};
use xia_workloads::Workload;
use xia_xpath::{fnv1a, write_template_key};

/// One cluster of cost-identical statements.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTemplate {
    /// Canonical template key (see [`xia_xpath::template_key`]).
    pub key: String,
    /// FNV-1a fingerprint of the key (content-addressed identity; also
    /// the fault-stream salt of every member statement).
    pub fingerprint: u64,
    /// Index of the representative statement in the *original* workload.
    pub representative: usize,
    /// How many original statements folded into this template.
    pub members: u64,
    /// Accumulated frequency weight (`Σ freq` over members, in
    /// first-occurrence member order).
    pub weight: f64,
}

/// A workload compressed into weighted templates.
#[derive(Debug, Clone)]
pub struct CompressedWorkload {
    /// One entry per template: the representative statement with the
    /// template's accumulated weight as its frequency. Feed this to the
    /// advisor in place of the original workload.
    pub workload: Workload,
    /// Per-template bookkeeping, in first-occurrence order (matching
    /// `workload`'s entry order).
    pub templates: Vec<WorkloadTemplate>,
    /// Statement count of the original workload.
    pub original_statements: usize,
    /// Template keys written: one per slot (distinct statement) the
    /// original holds.
    pub keys_written: usize,
}

impl CompressedWorkload {
    /// `original_statements / templates` — how much costing work
    /// compression saved.
    pub fn ratio(&self) -> f64 {
        if self.templates.is_empty() {
            1.0
        } else {
            self.original_statements as f64 / self.templates.len() as f64
        }
    }
}

/// Sums per-template member counts and weights into workload totals.
/// Member counts use saturating `u64` math (like the knapsack size
/// guards): a hostile or synthetic workload whose counts sum past
/// `u64::MAX` must clamp, not wrap — a wrapped total would silently
/// mis-weight every template downstream.
pub fn compute_weights(templates: &[WorkloadTemplate]) -> (u64, f64) {
    let mut members: u64 = 0;
    let mut weight = 0.0_f64;
    for t in templates {
        members = members.saturating_add(t.members);
        weight += t.weight;
    }
    (members, weight)
}

/// Compresses a workload into weighted cost-identity templates.
///
/// Statements are clustered by [`xia_xpath::template_key`]; each cluster
/// keeps its first member as the representative and accumulates the
/// members' frequencies (exact bookkeeping — weights are added in member
/// order, so the result is a pure function of the workload). Emits the
/// `templates_built` / `stmts_compressed` counters and a
/// [`Event::WorkloadCompressed`] journal line.
///
/// Entries of one slot share one parsed statement ([`Workload`]): the
/// template of a slot that has been placed is read from a vector indexed
/// by slot, and its key is not written again. Any other key goes into one
/// reused buffer and is looked up borrowed, so only a statement that opens
/// a new template allocates (its key, once); identity is the comparison of
/// whole keys by the map. Representatives are shared into the compressed
/// workload.
pub fn compress_workload(
    w: &Workload,
    telemetry: &Telemetry,
    journal: &EventJournal,
) -> CompressedWorkload {
    /// A slot not placed yet.
    const UNPLACED: u32 = u32::MAX;
    let mut by_key: HashMap<String, usize> = HashMap::new();
    let mut template_of = vec![UNPLACED; w.slots()];
    let mut keys_written = 0;
    let mut templates: Vec<WorkloadTemplate> = Vec::new();
    let mut key = String::new();
    for (si, entry) in w.entries().iter().enumerate() {
        // The statement's template; `templates.len()` if it opens one.
        let placed = &mut template_of[w.slot(si)];
        if *placed == UNPLACED {
            key.clear();
            write_template_key(entry.statement, &mut key).expect("writing to a String cannot fail");
            keys_written += 1;
            let ti = by_key.get(key.as_str()).map_or(templates.len(), |&ti| ti);
            *placed = u32::try_from(ti).expect("fewer templates than slots");
        }
        let ti = *placed as usize;
        match templates.get_mut(ti) {
            Some(t) => {
                // Saturating, not wrapping: see `compute_weights`.
                t.members = t.members.saturating_add(1);
                t.weight += entry.freq;
            }
            None => {
                by_key.insert(key.clone(), ti);
                templates.push(WorkloadTemplate {
                    // Moved in from the map once every statement is placed.
                    key: String::new(),
                    fingerprint: fnv1a(key.as_bytes()),
                    representative: si,
                    members: 1,
                    weight: entry.freq,
                });
            }
        }
    }
    for (key, ti) in by_key {
        templates[ti].key = key;
    }
    let mut compressed = Workload::with_capacity(templates.len());
    for t in &templates {
        let rep = w.entry(t.representative);
        compressed.push_statement(Arc::clone(rep.statement), t.weight, rep.text);
    }
    let folded = w.len().saturating_sub(templates.len()) as u64;
    telemetry.add(Counter::TemplatesBuilt, templates.len() as u64);
    telemetry.add(Counter::StmtsCompressed, folded);
    journal.emit(|| Event::WorkloadCompressed {
        statements: w.len() as u64,
        templates: templates.len() as u64,
    });
    CompressedWorkload {
        workload: compressed,
        templates,
        original_statements: w.len(),
        keys_written,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xpath::Statement;

    fn workload(texts: &[&str]) -> Workload {
        Workload::from_texts(texts.iter().copied()).unwrap()
    }

    #[test]
    fn parameter_variations_fold_into_one_template() {
        let w = workload(&[
            r#"for $s in S('C')/a where $s/b = "x" return $s"#,
            r#"for $s in S('C')/a where $s/b = "y" return $s"#,
            r#"for $s in S('C')/a where $s/b = "z" return $s"#,
            r#"for $s in S('C')/a where $s/c = 1 return $s"#,
        ]);
        let t = Telemetry::new();
        let c = compress_workload(&w, &t, &EventJournal::off());
        assert_eq!(c.templates.len(), 2);
        assert_eq!(c.workload.len(), 2);
        assert_eq!(c.original_statements, 4);
        assert_eq!(c.templates[0].members, 3);
        assert_eq!(c.templates[0].weight, 3.0);
        assert_eq!(c.templates[0].representative, 0);
        assert_eq!(c.workload.freq(0), 3.0);
        assert_eq!(t.get(Counter::TemplatesBuilt), 2);
        assert_eq!(t.get(Counter::StmtsCompressed), 2);
        assert!((c.ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weights_accumulate_frequencies_exactly() {
        let mut w = Workload::new();
        w.push_with_freq(r#"for $s in S('C')/a where $s/b = "x" return $s"#, 2.5)
            .unwrap();
        w.push_with_freq(r#"for $s in S('C')/a where $s/b = "y" return $s"#, 4.0)
            .unwrap();
        let c = compress_workload(&w, &Telemetry::off(), &EventJournal::off());
        assert_eq!(c.templates.len(), 1);
        assert_eq!(c.templates[0].weight, 6.5);
        let (members, weight) = compute_weights(&c.templates);
        assert_eq!(members, 2);
        assert_eq!(weight, 6.5);
    }

    #[test]
    fn compression_is_first_occurrence_ordered_and_deterministic() {
        let w = workload(&[
            r#"for $s in S('C')/z where $s/b = 1 return $s"#,
            r#"for $s in S('C')/a where $s/b = "x" return $s"#,
            r#"for $s in S('C')/z where $s/b = 2 return $s"#,
        ]);
        let a = compress_workload(&w, &Telemetry::off(), &EventJournal::off());
        let b = compress_workload(&w, &Telemetry::off(), &EventJournal::off());
        assert_eq!(a.templates, b.templates);
        // /z first (numeric *equality* collapses), then /a.
        assert_eq!(a.templates[0].representative, 0);
        assert_eq!(a.templates[0].members, 2);
        assert_eq!(a.templates[1].representative, 1);
    }

    /// The compressor is the obvious fold — one `template_key` per
    /// statement into a map — with the per-statement allocations taken out.
    #[test]
    fn compression_equals_a_per_statement_key_fold() {
        use xia_workloads::prng::Prng;
        use xia_xpath::template_key;
        const NAMES: [&str; 4] = ["a", "b", "Sector", "Yield"];
        let mut rng = Prng::seed_from_u64(0xc0de);
        let name = |rng: &mut Prng| NAMES[rng.gen_range(0..NAMES.len())];
        let mut w = Workload::new();
        for _ in 0..3000 {
            let (root, leaf, other) = (name(&mut rng), name(&mut rng), name(&mut rng));
            let op = ["=", "=", ">=", "<", "!="][rng.gen_range(0..5)];
            let value = match rng.gen_range(0..3) {
                0 => format!("\"v{}\"", rng.gen_range(0..50)),
                1 => rng.gen_range(0..4).to_string(),
                _ => format!("{}.5", rng.gen_range(0..3)),
            };
            let text = match rng.gen_range(0..8) {
                0..=3 => format!("collection('C')/{root}[{leaf} {op} {value}]"),
                4 => format!("collection('C')/{root}[{leaf} {op} {value} or {other}]/{other}"),
                5 => format!(
                    "for $v in S('D')/{root} where $v/{leaf} {op} {value} \
                     order by $v/{other} return $v/{other}"
                ),
                6 => format!(
                    "delete from C where /{root}[{leaf} = {}]",
                    rng.gen_range(0..3)
                ),
                _ => format!("update C set /{root}/{leaf} = {value} where /{root}[{other}]"),
            };
            let freq = [1.0, 0.1, 2.5, 1e-3][rng.gen_range(0..4)];
            w.push_with_freq(&text, freq).unwrap();
        }

        let mut by_key: HashMap<String, usize> = HashMap::new();
        let mut want: Vec<WorkloadTemplate> = Vec::new();
        for (si, entry) in w.entries().iter().enumerate() {
            let key = template_key(entry.statement);
            if let Some(&ti) = by_key.get(&key) {
                want[ti].members += 1;
                want[ti].weight += entry.freq;
            } else {
                by_key.insert(key.clone(), want.len());
                want.push(WorkloadTemplate {
                    fingerprint: fnv1a(key.as_bytes()),
                    key,
                    representative: si,
                    members: 1,
                    weight: entry.freq,
                });
            }
        }
        assert!(
            want.len() > 100 && want.len() < w.len() / 2,
            "{} templates of {} statements",
            want.len(),
            w.len()
        );

        let got = compress_workload(&w, &Telemetry::off(), &EventJournal::off());
        assert_eq!(got.templates, want);
        assert_eq!(got.original_statements, w.len());
        assert_eq!(got.workload.len(), want.len());
        for ((t, g), entry) in want.iter().zip(&got.templates).zip(got.workload.entries()) {
            assert_eq!(g.weight.to_bits(), t.weight.to_bits(), "{}", t.key);
            let rep = w.entry(t.representative);
            assert_eq!(entry.text, rep.text);
            assert_eq!(entry.statement, rep.statement);
            assert_eq!(entry.freq.to_bits(), t.weight.to_bits());
        }

        // Sharing is an economy, not an identity: the same entries, every
        // statement its own allocation, compress to the same templates —
        // it only takes a key per entry instead of one per distinct text.
        let mut unshared = Workload::new();
        for e in w.entries() {
            unshared.push_statement(Arc::new(Statement::clone(e.statement)), e.freq, e.text);
        }
        let lone = compress_workload(&unshared, &Telemetry::off(), &EventJournal::off());
        assert_eq!(lone.templates, got.templates);
        for (l, g) in lone.templates.iter().zip(&got.templates) {
            assert_eq!(l.weight.to_bits(), g.weight.to_bits(), "{}", g.key);
        }
        assert_eq!(lone.keys_written, w.len());
        let mut texts: Vec<&str> = w.entries().iter().map(|e| e.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(got.keys_written, texts.len());
        assert!(
            want.len() < texts.len() && texts.len() < w.len() * 3 / 4,
            "{} templates, {} texts",
            want.len(),
            texts.len()
        );
    }

    #[test]
    fn numeric_range_templates_stay_distinct() {
        let w = workload(&[
            "for $s in S('C')/a where $s/b > 1 return $s",
            "for $s in S('C')/a where $s/b > 2 return $s",
        ]);
        let c = compress_workload(&w, &Telemetry::off(), &EventJournal::off());
        assert_eq!(
            c.templates.len(),
            2,
            "histogram-driven literals must not collapse"
        );
    }

    #[test]
    fn compute_weights_saturates_at_u64_extremes() {
        let t = |members: u64| WorkloadTemplate {
            key: String::new(),
            fingerprint: 0,
            representative: 0,
            members,
            weight: 1.0,
        };
        let (members, weight) = compute_weights(&[t(u64::MAX), t(u64::MAX), t(7)]);
        assert_eq!(members, u64::MAX, "must clamp, not wrap");
        assert_eq!(weight, 3.0);
        let (zero, _) = compute_weights(&[]);
        assert_eq!(zero, 0);
    }

    #[test]
    fn journal_records_compression() {
        let w = workload(&[
            r#"for $s in S('C')/a where $s/b = "x" return $s"#,
            r#"for $s in S('C')/a where $s/b = "y" return $s"#,
        ]);
        let j = EventJournal::new();
        compress_workload(&w, &Telemetry::off(), &j);
        let text = j.to_jsonl();
        assert!(text.contains("workload_compressed"), "{text}");
        assert!(text.contains("\"statements\":2"), "{text}");
        assert!(text.contains("\"templates\":1"), "{text}");
    }
}
