//! Named collections with catalogs and cached statistics.

use crate::catalog::Catalog;
use crate::collection::Collection;
use crate::stats::{runstats, CollectionStats};
use std::collections::HashMap;
use xia_fault::{FaultInjector, FaultSite};

struct Entry {
    collection: Collection,
    catalog: Catalog,
    stats: Option<CollectionStats>,
}

/// A database: a set of named collections, each with its index catalog and
/// (optionally stale) statistics.
#[derive(Default)]
pub struct Database {
    entries: Vec<Entry>,
    by_name: HashMap<String, usize>,
    /// Size of the saved image this database was opened from.
    image_bytes: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collection (or returns the existing one) and borrows it
    /// mutably.
    pub fn create_collection(&mut self, name: &str) -> &mut Collection {
        let idx = match self.by_name.get(name) {
            Some(&i) => i,
            None => {
                let i = self.entries.len();
                self.entries.push(Entry {
                    collection: Collection::new(name),
                    catalog: Catalog::new(),
                    stats: None,
                });
                self.by_name.insert(name.to_string(), i);
                i
            }
        };
        // Any data change invalidates cached statistics.
        self.entries[idx].stats = None;
        &mut self.entries[idx].collection
    }

    /// Adds a collection as a loader decoded it, with the statistics
    /// saved beside it (`None` leaves them stale). The name must be new.
    pub(crate) fn insert_loaded(&mut self, collection: Collection, stats: Option<CollectionStats>) {
        let name = collection.name().to_string();
        debug_assert!(!self.by_name.contains_key(&name), "loaded twice: {name}");
        self.by_name.insert(name, self.entries.len());
        self.entries.push(Entry {
            collection,
            catalog: Catalog::new(),
            stats,
        });
    }

    pub(crate) fn set_image_bytes(&mut self, bytes: u64) {
        self.image_bytes = bytes;
    }

    /// Bytes of the saved image this database was opened from (0 for one
    /// built in memory) — the `image_bytes_read` counter.
    pub fn image_bytes(&self) -> u64 {
        self.image_bytes
    }

    /// Collections whose documents have been decoded from that image so
    /// far — the `dom_materializations` counter. Opening decodes none
    /// unless it has to rebuild a physical index or recompute statistics
    /// over a partly recovered collection.
    pub fn dom_materializations(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.collection.decoded_from_image())
            .count() as u64
    }

    fn entry(&self, name: &str) -> Option<&Entry> {
        self.by_name.get(name).map(|&i| &self.entries[i])
    }

    fn entry_mut(&mut self, name: &str) -> Option<&mut Entry> {
        let i = *self.by_name.get(name)?;
        Some(&mut self.entries[i])
    }

    /// Borrows a collection.
    pub fn collection(&self, name: &str) -> Option<&Collection> {
        self.entry(name).map(|e| &e.collection)
    }

    /// Borrows a collection mutably, invalidating its statistics.
    pub fn collection_mut(&mut self, name: &str) -> Option<&mut Collection> {
        let e = self.entry_mut(name)?;
        e.stats = None;
        Some(&mut e.collection)
    }

    /// Borrows a collection's catalog.
    pub fn catalog(&self, name: &str) -> Option<&Catalog> {
        self.entry(name).map(|e| &e.catalog)
    }

    /// Borrows a collection's catalog mutably.
    pub fn catalog_mut(&mut self, name: &str) -> Option<&mut Catalog> {
        self.entry_mut(name).map(|e| &mut e.catalog)
    }

    /// Borrows collection, catalog (mutably), and stats together — needed
    /// when creating virtual indexes, which reads the collection and stats
    /// while writing the catalog.
    pub fn parts_mut(
        &mut self,
        name: &str,
    ) -> Option<(&Collection, &mut Catalog, &CollectionStats)> {
        let i = *self.by_name.get(name)?;
        let e = &mut self.entries[i];
        if e.stats.is_none() {
            e.collection.ensure_columns();
            e.stats = Some(runstats(&e.collection));
        }
        let Entry {
            collection,
            catalog,
            stats,
        } = e;
        Some((&*collection, catalog, stats.as_ref().expect("just filled")))
    }

    /// Borrows collection and catalog both mutably (for statement
    /// execution with index maintenance). Invalidates statistics.
    pub fn collection_and_catalog_mut(
        &mut self,
        name: &str,
    ) -> Option<(&mut Collection, &mut Catalog)> {
        let e = self.entry_mut(name)?;
        e.stats = None;
        Some((&mut e.collection, &mut e.catalog))
    }

    /// Borrows collection, catalog, and statistics immutably. Returns
    /// `None` if the collection is missing or its statistics are stale —
    /// call [`Database::runstats_all`] (or [`Database::stats`]) first.
    pub fn parts(&self, name: &str) -> Option<(&Collection, &Catalog, &CollectionStats)> {
        self.view().parts(name)
    }

    /// Compacts every collection (drops tombstones, renumbers documents)
    /// and rebuilds its physical indexes against the new document ids.
    /// Returns the number of documents reclaimed.
    pub fn compact_all(&mut self) -> usize {
        let mut reclaimed = 0usize;
        for e in &mut self.entries {
            let slots_before = e.collection.slot_count();
            let mapping = e.collection.compact();
            reclaimed += slots_before - mapping.len();
            // Rebuild physical indexes (their postings hold stale doc ids).
            let defs: Vec<(
                crate::catalog::IndexId,
                xia_xpath::LinearPath,
                xia_xpath::ValueKind,
            )> = e
                .catalog
                .iter()
                .filter(|d| !d.is_virtual())
                .map(|d| (d.id, d.pattern.clone(), d.kind))
                .collect();
            for (id, pattern, kind) in defs {
                e.catalog.drop_index(id);
                e.catalog.create_physical(&e.collection, &pattern, kind);
            }
            e.stats = Some(runstats(&e.collection));
        }
        reclaimed
    }

    /// Runs statistics collection on every collection (RUNSTATS). Fresh
    /// statistics stay as they are — every mutation path clears `stats`,
    /// so `Some` means nothing changed since the last RUNSTATS and
    /// recomputing would produce the same values. This also materializes
    /// each stale collection's columnar leaf store, so a server calls it
    /// once before publishing the database as a shared snapshot.
    pub fn runstats_all(&mut self) {
        for e in &mut self.entries {
            if e.stats.is_none() {
                e.collection.ensure_columns();
                e.stats = Some(runstats(&e.collection));
            }
        }
    }

    /// Drops every virtual index in every catalog (what-if configurations
    /// live in [`crate::CatalogOverlay`]s; anything virtual left in a
    /// catalog is stale).
    pub fn drop_all_virtual(&mut self) {
        for e in &mut self.entries {
            e.catalog.drop_all_virtual();
        }
    }

    /// Borrows statistics, computing them if stale.
    pub fn stats(&mut self, name: &str) -> Option<&CollectionStats> {
        let e = self.entry_mut(name)?;
        if e.stats.is_none() {
            e.collection.ensure_columns();
            e.stats = Some(runstats(&e.collection));
        }
        e.stats.as_ref()
    }

    /// Borrows statistics without recomputing (`None` if stale or absent).
    pub fn stats_cached(&self, name: &str) -> Option<&CollectionStats> {
        self.entry(name).and_then(|e| e.stats.as_ref())
    }

    /// Names of all collections.
    pub fn collection_names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.collection.name()).collect()
    }

    /// Attaches a telemetry sink to every collection's catalog (see
    /// [`Catalog::set_telemetry`]) and to every collection's ingestion /
    /// columnar-scan counters. Collections created afterwards start with
    /// a disabled sink.
    pub fn set_telemetry(&mut self, telemetry: &xia_obs::Telemetry) {
        for e in &mut self.entries {
            e.catalog.set_telemetry(telemetry);
            e.collection.set_telemetry(telemetry);
        }
    }

    /// This database with every collection's statistics visible.
    pub fn view(&self) -> StatsView<'_> {
        StatsView {
            db: self,
            hidden: Vec::new(),
        }
    }
}

/// A read-only view of a [`Database`] for one advisor phase: the database
/// plus a mask of collections whose statistics are hidden.
///
/// This is how the `stats-unavailable` fault reaches the advisor without
/// touching the database, which many sessions may be reading at once:
/// [`StatsView::roll`] draws one verdict per collection and a hidden
/// collection answers [`StatsView::parts`] with `None` while
/// [`StatsView::collection`] still works — the same "no stats" versus "no
/// collection" distinction a stale [`Database`] gives. The mask lives and
/// dies with the view; the database is never written.
pub struct StatsView<'a> {
    db: &'a Database,
    /// `hidden[i]` hides entry `i`'s statistics; empty hides nothing.
    hidden: Vec<bool>,
}

impl<'a> StatsView<'a> {
    /// Rolls the injector's `stats-unavailable` site once per collection,
    /// in creation order, hiding the collections whose roll fires. An
    /// injector with the site unarmed rolls nothing and hides nothing.
    pub fn roll(db: &'a Database, faults: &FaultInjector) -> Self {
        let hidden = if faults.is_armed(FaultSite::StatsUnavailable) {
            db.entries
                .iter()
                .map(|_| faults.roll(FaultSite::StatsUnavailable).is_err())
                .collect()
        } else {
            Vec::new()
        };
        Self { db, hidden }
    }

    /// The mask this view hides statistics by (`mask[i]` hides the `i`-th
    /// collection in creation order; empty hides nothing). State computed
    /// through a view is valid under exactly this mask.
    pub fn mask(&self) -> &[bool] {
        &self.hidden
    }

    /// Borrows a collection (hidden statistics do not hide the data).
    pub fn collection(&self, name: &str) -> Option<&'a Collection> {
        self.db.collection(name)
    }

    /// Borrows collection, catalog, and statistics; `None` if the
    /// collection is missing, its statistics are stale, or this view
    /// hides them.
    pub fn parts(&self, name: &str) -> Option<(&'a Collection, &'a Catalog, &'a CollectionStats)> {
        let i = *self.db.by_name.get(name)?;
        if self.hidden.get(i).copied().unwrap_or(false) {
            return None;
        }
        let e = &self.db.entries[i];
        Some((&e.collection, &e.catalog, e.stats.as_ref()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_collection("SDOC")
            .insert_xml("<Security><Yield>4.5</Yield></Security>")
            .unwrap();
        assert!(db.collection("SDOC").is_some());
        assert!(db.collection("NOPE").is_none());
        assert_eq!(db.collection_names(), vec!["SDOC"]);
    }

    #[test]
    fn stats_are_cached_and_invalidated() {
        let mut db = Database::new();
        db.create_collection("C")
            .insert_xml("<a><b>1</b></a>")
            .unwrap();
        let n1 = db.stats("C").unwrap().node_count;
        assert_eq!(n1, 2);
        assert!(db.stats_cached("C").is_some());
        db.collection_mut("C")
            .unwrap()
            .insert_xml("<a><b>2</b></a>")
            .unwrap();
        assert!(db.stats_cached("C").is_none());
        let n2 = db.stats("C").unwrap().node_count;
        assert_eq!(n2, 4);
    }

    fn two_collections() -> Database {
        let mut db = Database::new();
        db.create_collection("A")
            .insert_xml("<a><b>1</b></a>")
            .unwrap();
        db.create_collection("B")
            .insert_xml("<x><y>2</y></x>")
            .unwrap();
        db
    }

    #[test]
    fn runstats_all_freshens_every_collection() {
        let mut db = two_collections();
        assert!(db.stats_cached("A").is_none());
        db.runstats_all();
        assert!(db.stats_cached("A").is_some());
        assert!(db.stats_cached("B").is_some());
    }

    /// Sessions on separate threads share one `&Database`.
    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
    }

    #[test]
    fn a_stats_fault_hides_statistics_in_its_view_only() {
        let mut db = two_collections();
        db.runstats_all();
        let stats_before = db.stats_cached("A").cloned();

        let always = FaultInjector::seeded(7).with_always(FaultSite::StatsUnavailable);
        let hidden = StatsView::roll(&db, &always);
        assert_eq!(
            always.calls(FaultSite::StatsUnavailable),
            2,
            "one roll per collection"
        );
        assert!(hidden.parts("A").is_none() && hidden.parts("B").is_none());
        assert!(hidden.collection("A").is_some(), "the data stays reachable");

        // A mixed schedule hides exactly the collections whose roll fired,
        // in creation order, and the next phase's view rolls afresh.
        let half = FaultInjector::seeded(7).with_rate(FaultSite::StatsUnavailable, 0.5);
        let replay = FaultInjector::seeded(7).with_rate(FaultSite::StatsUnavailable, 0.5);
        for _phase in 0..8 {
            let view = StatsView::roll(&db, &half);
            for name in ["A", "B"] {
                let fired = replay.roll(FaultSite::StatsUnavailable).is_err();
                assert_eq!(view.parts(name).is_none(), fired, "{name}");
            }
        }

        // An unarmed injector rolls nothing and hides nothing.
        let unarmed = FaultInjector::seeded(7).with_always(FaultSite::OptimizerCost);
        assert!(StatsView::roll(&db, &unarmed).parts("A").is_some());
        assert_eq!(unarmed.calls(FaultSite::StatsUnavailable), 0);

        // The database itself was never touched: statistics still cached
        // and identical, no virtual index anywhere.
        assert_eq!(db.stats_cached("A").cloned(), stats_before);
        assert!(db.stats_cached("B").is_some());
        assert!(db.view().parts("A").is_some());
        for name in ["A", "B"] {
            assert!(db.catalog(name).unwrap().is_empty());
        }
    }

    #[test]
    fn a_view_does_not_invent_statistics() {
        let db = two_collections();
        assert!(db.view().collection("A").is_some());
        assert!(db.view().parts("A").is_none(), "stale stays stale");
        assert!(db.view().parts("NOPE").is_none());
    }

    #[test]
    fn parts_mut_provides_consistent_view() {
        let mut db = Database::new();
        db.create_collection("C")
            .insert_xml("<a><b>1</b></a>")
            .unwrap();
        let (coll, catalog, stats) = db.parts_mut("C").unwrap();
        assert_eq!(coll.len(), 1);
        assert_eq!(stats.doc_count, 1);
        assert!(catalog.is_empty());
    }

    #[test]
    fn compact_all_reclaims_and_rebuilds_indexes() {
        let mut db = Database::new();
        let c = db.create_collection("C");
        let ids: Vec<_> = (0..10)
            .map(|i| {
                c.build_doc("a", |b| {
                    b.leaf("v", format!("V{i}").as_str());
                })
            })
            .collect();
        {
            let (coll, cat, _) = db.parts_mut("C").unwrap();
            cat.create_physical(
                coll,
                &xia_xpath::parse_linear_path("/a/v").unwrap(),
                xia_xpath::ValueKind::Str,
            );
        }
        db.collection_mut("C").unwrap().delete(ids[0]);
        db.collection_mut("C").unwrap().delete(ids[5]);
        let reclaimed = db.compact_all();
        assert_eq!(reclaimed, 2);
        let coll = db.collection("C").unwrap();
        assert_eq!(coll.len(), 8);
        assert_eq!(coll.tombstone_ratio(), 0.0);
        // The rebuilt index resolves against the renumbered documents.
        let cat = db.catalog("C").unwrap();
        let def = cat.iter().next().unwrap();
        let phys = def.physical.as_ref().unwrap();
        assert_eq!(phys.entries(), 8);
        let hits = phys.lookup_eq(&xia_xpath::Literal::Str("V7".into()));
        assert_eq!(hits.len(), 1);
        assert!(coll.doc(hits[0].doc).is_some());
    }

    #[test]
    fn create_collection_is_idempotent() {
        let mut db = Database::new();
        db.create_collection("C").insert_xml("<a/>").unwrap();
        db.create_collection("C").insert_xml("<a/>").unwrap();
        assert_eq!(db.collection("C").unwrap().len(), 2);
        assert_eq!(db.collection_names().len(), 1);
    }
}
