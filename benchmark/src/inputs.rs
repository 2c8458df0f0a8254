//! Seeded inputs: the XML feed, the database built from it, and the
//! statement texts of every workload.
//!
//! Everything here is a pure function of `--seed`. The program under test
//! only ever sees what these functions return.

use xia_storage::{ingest_batch, Database, IngestOptions};
use xia_workloads::synthetic::{self, SyntheticConfig};
use xia_workloads::tpox::{self, TpoxConfig};

/// TPoX scale of every workload: 1,600 + 4,800 + 1,600 documents, about
/// 27 MB of XML. Large enough that set-up does over a second of real
/// work, which is what keeps `setup_s` steady between runs.
pub const SCALE: usize = 4;

/// The data generator's configuration for a seed.
pub fn tpox_config(seed: u64) -> TpoxConfig {
    TpoxConfig {
        seed,
        ..TpoxConfig::scaled(SCALE)
    }
}

/// The XML feed: per-document texts of the three TPoX collections.
pub struct Feed {
    /// `(collection name, document texts)` in ingest order.
    pub collections: [(&'static str, Vec<String>); 3],
}

impl Feed {
    /// Generates the feed for a seed.
    pub fn generate(seed: u64) -> Self {
        let (securities, orders, customers) = tpox::docs_xml(&tpox_config(seed));
        Self {
            collections: [
                (tpox::SECURITY_COLL, securities),
                (tpox::ORDER_COLL, orders),
                (tpox::CUSTACC_COLL, customers),
            ],
        }
    }

    /// Total bytes of XML text.
    pub fn bytes(&self) -> u64 {
        self.texts().map(|t| t.len() as u64).sum()
    }

    /// Every document text, in ingest order.
    pub fn texts(&self) -> impl Iterator<Item = &String> {
        self.collections.iter().flat_map(|(_, texts)| texts.iter())
    }
}

/// Ingests the feed with one worker. Statistics are left stale. Returns
/// the database and the number of nodes ingested.
pub fn ingest(feed: &Feed) -> (Database, u64) {
    let mut db = Database::new();
    let mut nodes = 0;
    for (name, texts) in &feed.collections {
        let report = ingest_batch(
            db.create_collection(name),
            texts,
            IngestOptions {
                jobs: 1,
                use_dom: false,
            },
        )
        .expect("the generated feed is well-formed");
        nodes += report.nodes;
    }
    (db, nodes)
}

/// Feed → ingest → RUNSTATS: the database every workload starts from.
pub fn build_db(seed: u64) -> Database {
    let (mut db, _) = ingest(&Feed::generate(seed));
    db.runstats_all();
    db
}

/// `n` synthetic path queries over the security collection. `stream`
/// separates the independent statement streams drawn from one seed.
pub fn synthetic_queries(db: &Database, n: usize, seed: u64, stream: u64) -> Vec<String> {
    let coll = db
        .collection(tpox::SECURITY_COLL)
        .expect("the feed has a security collection");
    let texts = synthetic::generate_queries(
        coll,
        &SyntheticConfig {
            queries: n,
            seed: seed ^ (stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ..SyntheticConfig::default()
        },
    );
    assert_eq!(texts.len(), n, "the security collection has valued nodes");
    texts
}

/// The 11 TPoX queries, `n_synthetic` synthetic queries, then (when
/// `updates`) the 4-statement update mix.
pub fn mixed_statements(
    db: &Database,
    seed: u64,
    stream: u64,
    n_synthetic: usize,
    updates: bool,
) -> Vec<String> {
    let cfg = tpox_config(seed);
    let mut texts = tpox::queries(&cfg);
    texts.extend(synthetic_queries(db, n_synthetic, seed, stream));
    if updates {
        texts.extend(tpox::update_mix(&cfg));
    }
    texts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_and_nothing_else_decides_the_inputs() {
        let feed = Feed::generate(7);
        let again = Feed::generate(7);
        assert!(feed.texts().eq(again.texts()), "same seed, same feed");
        assert_eq!(feed.collections[0].1.len(), 400 * SCALE);
        assert_eq!(feed.collections[1].1.len(), 1200 * SCALE);
        assert_eq!(feed.collections[2].1.len(), 400 * SCALE);
        let other = Feed::generate(8);
        assert!(
            !feed.texts().eq(other.texts()),
            "another seed, another feed"
        );

        let (mut db, nodes) = ingest(&feed);
        assert_eq!(nodes, ingest(&again).1);
        db.runstats_all();
        let statements = mixed_statements(&db, 7, 0, 40, true);
        assert_eq!(statements.len(), 11 + 40 + 4);
        assert_eq!(statements, mixed_statements(&build_db(7), 7, 0, 40, true));
        assert_ne!(
            statements,
            mixed_statements(&db, 7, 1, 40, true),
            "streams differ"
        );
        assert_ne!(
            statements,
            mixed_statements(&build_db(8), 8, 0, 40, true),
            "seeds differ"
        );
        assert_eq!(mixed_statements(&db, 7, 0, 40, false).len(), 11 + 40);
    }
}
