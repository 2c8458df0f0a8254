//! Synthetic random-XPath workloads.
//!
//! Paper Section VII-C: "we generated synthetic workloads consisting of
//! random XPath path expressions that occur in the data". Each generated
//! query picks a valued node from a random document, takes its rooted
//! path, optionally blurs one middle step into a wildcard or descendant
//! axis (so that generalization has structure to find), and attaches a
//! predicate drawn from the node's actual value (so queries select real
//! data).

use crate::prng::Prng;
use xia_storage::Collection;
use xia_xml::Value;

/// Configuration for the synthetic workload generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of queries to generate.
    pub queries: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability of blurring one middle step into `*`.
    pub wildcard_prob: f64,
    /// Probability of turning an equality predicate into a numeric range
    /// (when the sampled value is numeric).
    pub range_prob: f64,
    /// Probability of prepending a shared *anchor* predicate — a fixed
    /// shallow equality that many statements have in common — turning
    /// the query into a two-predicate conjunction. Anchored workloads
    /// have heavily overlapping candidate relevance (the CoPhy "sparse"
    /// setting), which is what statement-relevance pruning exploits.
    /// `0.0` (the default) reproduces the single-predicate generator
    /// byte-for-byte.
    pub anchor_prob: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            queries: 10,
            seed: 99,
            wildcard_prob: 0.3,
            range_prob: 0.4,
            anchor_prob: 0.0,
        }
    }
}

/// Generates random path-query texts over a collection's actual data.
/// Returns fewer than `cfg.queries` only if the collection has no valued
/// nodes.
pub fn generate_queries(collection: &Collection, cfg: &SyntheticConfig) -> Vec<String> {
    let mut rng = Prng::seed_from_u64(cfg.seed);
    let docs: Vec<_> = collection.iter_docs().collect();
    if docs.is_empty() {
        return Vec::new();
    }
    let vocab = collection.vocab();
    let anchor = if cfg.anchor_prob > 0.0 {
        find_anchor(collection)
    } else {
        None
    };
    let mut out = Vec::with_capacity(cfg.queries);
    let mut attempts = 0;
    while out.len() < cfg.queries && attempts < cfg.queries * 20 {
        attempts += 1;
        let (_, doc) = docs[rng.gen_range(0..docs.len())];
        // Sample a valued node.
        // Long text values (description filler) make useless predicates;
        // sample only short, key-like values.
        let valued: Vec<_> = doc
            .nodes()
            .filter(|(_, n)| n.value.as_ref().is_some_and(|v| v.as_str().len() <= 48))
            .collect();
        if valued.is_empty() {
            continue;
        }
        let (_, node) = valued[rng.gen_range(0..valued.len())];
        let labels: Vec<String> = vocab
            .paths
            .labels(node.path)
            .iter()
            .map(|&s| vocab.names.resolve(s).to_string())
            .collect();
        if labels.len() < 2 {
            continue;
        }
        // The last label is the predicate target; the rest is the root
        // path of the query.
        let mut steps: Vec<String> = labels[..labels.len() - 1].to_vec();
        let leaf = labels[labels.len() - 1].clone();
        if steps.len() >= 2 && rng.gen_bool(cfg.wildcard_prob) {
            let mid = rng.gen_range(1..steps.len());
            steps[mid] = "*".to_string();
        }
        let value = node.value.as_ref().expect("sampled from valued nodes");

        // Optionally prepend the shared anchor predicate (never when the
        // sampled predicate *is* the anchor path — a self-conjunction
        // teaches the advisor nothing).
        let anchored = anchor.as_ref().and_then(|(aroot, aleaf)| {
            if steps[0] != *aroot || (steps.len() == 1 && leaf == *aleaf) {
                return None;
            }
            if !rng.gen_bool(cfg.anchor_prob) {
                return None;
            }
            doc.nodes()
                .find_map(|(_, n)| {
                    let ls = vocab.paths.labels(n.path);
                    (ls.len() == 2
                        && vocab.names.resolve(ls[0]) == aroot
                        && vocab.names.resolve(ls[1]) == aleaf)
                        .then(|| n.value.clone())
                        .flatten()
                })
                .map(|v| (aleaf.clone(), v))
        });

        match anchored {
            Some((aleaf, aval)) => {
                let rel = steps[1..]
                    .iter()
                    .map(|s| s.as_str())
                    .chain([leaf.as_str()])
                    .collect::<Vec<_>>()
                    .join("/");
                let apred = render_eq(&aleaf, &aval);
                let pred = render_predicate(&rel, value, &mut rng, cfg.range_prob);
                out.push(format!(
                    "collection('{}')/{}[{apred}][{pred}]",
                    collection.name(),
                    steps[0]
                ));
            }
            None => {
                let pred = render_predicate(&leaf, value, &mut rng, cfg.range_prob);
                let root = steps.join("/");
                out.push(format!(
                    "collection('{}')/{root}[{pred}]",
                    collection.name()
                ));
            }
        }
    }
    out
}

/// Picks the anchor predicate path: the alphabetically first short-valued
/// element directly under the document root. Deterministic in the data,
/// independent of the RNG.
fn find_anchor(collection: &Collection) -> Option<(String, String)> {
    let vocab = collection.vocab();
    let mut best: Option<(String, String)> = None;
    for (_, doc) in collection.iter_docs() {
        for (_, node) in doc.nodes() {
            let Some(v) = node.value.as_ref() else {
                continue;
            };
            if v.as_str().len() > 48 {
                continue;
            }
            let labels = vocab.paths.labels(node.path);
            if labels.len() != 2 {
                continue;
            }
            let root = vocab.names.resolve(labels[0]).to_string();
            let leaf = vocab.names.resolve(labels[1]).to_string();
            if best.as_ref().is_none_or(|(_, b)| leaf < *b) {
                best = Some((root, leaf));
            }
        }
        if best.is_some() {
            break;
        }
    }
    best
}

fn render_eq(leaf: &str, value: &Value) -> String {
    match value.as_num() {
        Some(n) => format!("{leaf} = {}", trim_num(n)),
        None => format!("{leaf} = \"{}\"", value.as_str().replace('"', "")),
    }
}

fn render_predicate(leaf: &str, value: &Value, rng: &mut Prng, range_prob: f64) -> String {
    match value.as_num() {
        Some(n) if rng.gen_bool(range_prob) => {
            if rng.gen_bool(0.5) {
                format!("{leaf} >= {}", trim_num(n))
            } else {
                format!("{leaf} <= {}", trim_num(n))
            }
        }
        Some(n) => format!("{leaf} = {}", trim_num(n)),
        None => format!("{leaf} = \"{}\"", value.as_str().replace('"', "")),
    }
}

fn trim_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpox::{self, TpoxConfig};
    use crate::workload::Workload;
    use xia_storage::Database;
    use xia_xpath::{normalize_statement, Statement};

    fn sdoc() -> Database {
        let mut db = Database::new();
        tpox::generate(&mut db, &TpoxConfig::tiny());
        db
    }

    #[test]
    fn generates_requested_number_of_parseable_queries() {
        let db = sdoc();
        let c = db.collection("SDOC").unwrap();
        let qs = generate_queries(c, &SyntheticConfig::default());
        assert_eq!(qs.len(), 10);
        let w = Workload::from_texts(qs.iter().map(|s| s.as_str())).unwrap();
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn queries_are_deterministic_in_seed() {
        let db = sdoc();
        let c = db.collection("SDOC").unwrap();
        let a = generate_queries(c, &SyntheticConfig::default());
        let b = generate_queries(c, &SyntheticConfig::default());
        assert_eq!(a, b);
        let other = generate_queries(
            c,
            &SyntheticConfig {
                seed: 123,
                ..Default::default()
            },
        );
        assert_ne!(a, other);
    }

    #[test]
    fn queries_expose_indexable_patterns() {
        let db = sdoc();
        let c = db.collection("SDOC").unwrap();
        let qs = generate_queries(c, &SyntheticConfig::default());
        for q in &qs {
            let w = Workload::from_texts([q.as_str()]).unwrap();
            let Statement::Query(_) = &**w.entry(0).statement else {
                panic!("expected query: {q}");
            };
            let n = normalize_statement(w.entry(0).statement).unwrap();
            assert_eq!(n.patterns.len(), 1, "{q}");
        }
    }

    #[test]
    fn wildcards_appear_with_high_probability_setting() {
        let db = sdoc();
        let c = db.collection("SDOC").unwrap();
        let qs = generate_queries(
            c,
            &SyntheticConfig {
                queries: 30,
                wildcard_prob: 1.0,
                ..Default::default()
            },
        );
        // Every query with a deep-enough path must contain a wildcard.
        assert!(qs.iter().any(|q| q.contains("/*")), "{qs:?}");
    }

    #[test]
    fn anchored_queries_share_a_conjunctive_pattern() {
        let db = sdoc();
        let c = db.collection("SDOC").unwrap();
        let qs = generate_queries(
            c,
            &SyntheticConfig {
                queries: 20,
                anchor_prob: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(qs.len(), 20);
        let w = Workload::from_texts(qs.iter().map(|s| s.as_str())).unwrap();
        // Count statements carrying the shared anchor pattern: two
        // conjunctive patterns, one of them on the common anchor path.
        let mut anchored = 0;
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for e in w.entries() {
            let n = normalize_statement(e.statement).unwrap();
            if n.patterns.len() == 2 {
                anchored += 1;
                for p in &n.patterns {
                    *counts.entry(format!("{}", p.linear)).or_default() += 1;
                }
            }
        }
        // Nearly every query is anchored (the sampled predicate sometimes
        // *is* the anchor, which suppresses the conjunction), and one
        // shared path — the anchor — shows up in every conjunction.
        assert!(anchored >= 15, "only {anchored}/20 anchored: {qs:?}");
        let max = counts.values().copied().max().unwrap_or(0);
        assert!(max >= anchored, "no shared anchor path: {counts:?}");
    }

    #[test]
    fn zero_anchor_prob_reproduces_the_single_predicate_stream() {
        let db = sdoc();
        let c = db.collection("SDOC").unwrap();
        let base = generate_queries(c, &SyntheticConfig::default());
        let explicit = generate_queries(
            c,
            &SyntheticConfig {
                anchor_prob: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(base, explicit);
        for q in &base {
            assert!(!q.contains("]["), "unexpected conjunction: {q}");
        }
    }

    #[test]
    fn empty_collection_yields_no_queries() {
        let c = Collection::new("E");
        assert!(generate_queries(&c, &SyntheticConfig::default()).is_empty());
    }
}
