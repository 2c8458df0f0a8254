//! Index catalog: physical and virtual index metadata.
//!
//! Virtual indexes are the paper's key server-side mechanism: catalog-only
//! entries with statistics *derived from data statistics*, visible to the
//! optimizer's index matching and costing but never usable for execution
//! (Section III). `what-if` costing creates them, the executor refuses
//! them.

use crate::collection::Collection;
use crate::index::PhysicalIndex;
use crate::size::{index_levels, index_size_bytes};
use crate::stats::CollectionStats;
use std::sync::Arc;
use xia_obs::{Counter, Telemetry};
use xia_xml::PathId;
use xia_xpath::{LinearPath, PathMatcher, ValueKind};

/// Identifier of an index within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

impl IndexId {
    /// Raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Statistics of an index (estimated for virtual indexes, measured for
/// physical ones — both flow through the same size model so that estimated
/// and actual configurations are comparable).
#[derive(Debug, Clone, Default)]
pub struct IndexStats {
    /// Number of (key, posting) entries.
    pub entries: u64,
    /// Distinct keys.
    pub distinct: u64,
    /// Estimated size on disk.
    pub size_bytes: u64,
    /// Estimated B-tree depth.
    pub levels: u32,
    /// Average key width in bytes.
    pub avg_key_width: f64,
}

/// One catalog entry.
#[derive(Debug)]
pub struct IndexDef {
    /// The index id within its catalog.
    pub id: IndexId,
    /// The linear XPath index pattern.
    pub pattern: LinearPath,
    /// Key type.
    pub kind: ValueKind,
    /// Rooted paths matched by the pattern at creation time.
    pub matched_paths: Vec<PathId>,
    /// Index statistics.
    pub stats: IndexStats,
    /// The physical structure, or `None` for a virtual index.
    pub physical: Option<PhysicalIndex>,
}

impl IndexDef {
    /// Whether this is a virtual (what-if) index.
    pub fn is_virtual(&self) -> bool {
        self.physical.is_none()
    }
}

/// The index catalog of one collection.
#[derive(Debug)]
pub struct Catalog {
    defs: Vec<Option<IndexDef>>,
    /// Telemetry sink for virtual-index churn (off unless attached).
    telemetry: Telemetry,
}

impl Default for Catalog {
    fn default() -> Self {
        Self {
            defs: Vec::new(),
            telemetry: Telemetry::off(),
        }
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry sink; virtual-index creations and drops are
    /// counted against it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Derives [`IndexStats`] for a pattern from data statistics — the
    /// paper's derivation of virtual-index statistics from RUNSTATS output.
    pub fn derive_stats(
        collection: &Collection,
        stats: &CollectionStats,
        pattern: &LinearPath,
        kind: ValueKind,
    ) -> (Vec<PathId>, IndexStats) {
        let matcher = PathMatcher::new(pattern, collection.vocab());
        let matched = matcher.matching_path_ids(collection.vocab());
        let mut entries = 0u64;
        let mut distinct = 0u64;
        let mut key_bytes = 0.0f64;
        for &pid in &matched {
            let ps = stats.path(pid);
            match kind {
                ValueKind::Str => {
                    entries += ps.value_count;
                    distinct += ps.distinct_values;
                    key_bytes += ps.value_bytes as f64;
                }
                ValueKind::Num => {
                    entries += ps.numeric_count;
                    // Distinct numeric values are bounded by distinct values.
                    distinct += ps.distinct_values.min(ps.numeric_count);
                    key_bytes += ps.numeric_count as f64 * 8.0;
                }
            }
        }
        let distinct = distinct.min(entries);
        let avg_key_width = if entries == 0 {
            match kind {
                ValueKind::Str => 16.0,
                ValueKind::Num => 8.0,
            }
        } else {
            key_bytes / entries as f64
        };
        let istats = IndexStats {
            entries,
            distinct,
            size_bytes: index_size_bytes(entries, avg_key_width),
            levels: index_levels(entries, avg_key_width),
            avg_key_width,
        };
        (matched, istats)
    }

    /// Derives the definition of a what-if index for overlays on this
    /// catalog: statistics from [`Catalog::derive_stats`], id `slot` places
    /// past [`Catalog::slot_capacity`]. Nothing is registered and nothing
    /// is counted — the caller derives a definition once, keeps it, and
    /// [`CatalogOverlay::add`]s it to every overlay it is a member of, so
    /// `slot` must be unique among the definitions that can share an
    /// overlay (the advisor passes the candidate id).
    pub fn derive_virtual(
        &self,
        collection: &Collection,
        stats: &CollectionStats,
        pattern: &LinearPath,
        kind: ValueKind,
        slot: usize,
    ) -> IndexDef {
        let (matched_paths, istats) = Self::derive_stats(collection, stats, pattern, kind);
        IndexDef {
            id: IndexId((self.defs.len() + slot) as u32),
            pattern: pattern.clone(),
            kind,
            matched_paths,
            stats: istats,
            physical: None,
        }
    }

    fn push(&mut self, mut def: IndexDef) -> IndexId {
        let id = IndexId(self.defs.len() as u32);
        def.id = id;
        self.defs.push(Some(def));
        id
    }

    /// Creates a virtual index with derived statistics.
    pub fn create_virtual(
        &mut self,
        collection: &Collection,
        stats: &CollectionStats,
        pattern: &LinearPath,
        kind: ValueKind,
    ) -> IndexId {
        let (matched_paths, istats) = Self::derive_stats(collection, stats, pattern, kind);
        self.telemetry.incr(Counter::StatsDerivations);
        self.telemetry.incr(Counter::VirtualIndexesCreated);
        self.telemetry
            .add(Counter::EstIndexBytes, istats.size_bytes);
        self.push(IndexDef {
            id: IndexId(0),
            pattern: pattern.clone(),
            kind,
            matched_paths,
            stats: istats,
            physical: None,
        })
    }

    /// Creates (builds) a physical index over the collection.
    pub fn create_physical(
        &mut self,
        collection: &Collection,
        pattern: &LinearPath,
        kind: ValueKind,
    ) -> IndexId {
        let physical = PhysicalIndex::build(collection, pattern, kind);
        let matcher = PathMatcher::new(pattern, collection.vocab());
        let matched_paths = matcher.matching_path_ids(collection.vocab());
        let stats = IndexStats {
            entries: physical.entries(),
            distinct: physical.distinct_keys(),
            size_bytes: index_size_bytes(physical.entries(), physical.avg_key_width()),
            levels: index_levels(physical.entries(), physical.avg_key_width()),
            avg_key_width: physical.avg_key_width(),
        };
        self.push(IndexDef {
            id: IndexId(0),
            pattern: pattern.clone(),
            kind,
            matched_paths,
            stats,
            physical: Some(physical),
        })
    }

    /// Drops an index. Idempotent.
    pub fn drop_index(&mut self, id: IndexId) {
        if let Some(slot) = self.defs.get_mut(id.index()) {
            if slot.as_ref().is_some_and(|d| d.is_virtual()) {
                self.telemetry.incr(Counter::VirtualIndexesDropped);
            }
            *slot = None;
        }
    }

    /// Drops every virtual index (the advisor does this between what-if
    /// evaluations).
    pub fn drop_all_virtual(&mut self) {
        let mut dropped = 0u64;
        for slot in &mut self.defs {
            if slot.as_ref().is_some_and(|d| d.is_virtual()) {
                *slot = None;
                dropped += 1;
            }
        }
        self.telemetry.add(Counter::VirtualIndexesDropped, dropped);
    }

    /// Drops every index, physical and virtual.
    pub fn drop_all(&mut self) {
        for slot in &mut self.defs {
            *slot = None;
        }
    }

    /// Borrows an index definition.
    pub fn get(&self, id: IndexId) -> Option<&IndexDef> {
        self.defs.get(id.index()).and_then(|d| d.as_ref())
    }

    /// Iterates over live index definitions.
    pub fn iter(&self) -> impl Iterator<Item = &IndexDef> {
        self.defs.iter().filter_map(|d| d.as_ref())
    }

    /// Number of live indexes.
    pub fn len(&self) -> usize {
        self.defs.iter().filter(|d| d.is_some()).count()
    }

    /// Whether the catalog has no live indexes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total estimated size of all live indexes.
    pub fn total_size(&self) -> u64 {
        self.iter().map(|d| d.stats.size_bytes).sum()
    }

    /// Mutable access to a physical index for maintenance.
    pub fn physical_mut(&mut self, id: IndexId) -> Option<&mut PhysicalIndex> {
        self.defs
            .get_mut(id.index())
            .and_then(|d| d.as_mut())
            .and_then(|d| d.physical.as_mut())
    }

    /// Number of id slots ever allocated (live or dropped). Overlay ids
    /// start past this boundary so they can never collide with catalog ids.
    pub fn slot_capacity(&self) -> usize {
        self.defs.len()
    }

    /// A read-only view of this catalog with no overlay.
    pub fn view(&self) -> CatalogView<'_> {
        CatalogView {
            base: self,
            overlay: &[],
        }
    }

    /// Starts a what-if overlay on this catalog, counting virtual-index
    /// churn against the catalog's own telemetry sink.
    pub fn overlay(&self) -> CatalogOverlay<'_> {
        CatalogOverlay::with_telemetry(self, &self.telemetry)
    }
}

/// A transient set of virtual indexes layered over an immutable [`Catalog`].
///
/// This is the side-effect-free replacement for create/drop virtual-index
/// churn in the shared catalog: a what-if evaluation builds an overlay for
/// the candidate configuration, hands the combined [`CatalogView`] to the
/// optimizer, and discards the overlay afterwards. The base catalog is
/// never touched, so any number of overlays can cost concurrently against
/// the same catalog.
///
/// An overlay derives nothing: its members are definitions the caller
/// derived once with [`Catalog::derive_virtual`] and shares across every
/// overlay they appear in. Their ids lie past [`Catalog::slot_capacity`],
/// so plans can reference overlay indexes without ambiguity, and the
/// created/dropped telemetry balance is preserved: every index added here
/// is counted created, and counted dropped when the overlay goes away.
#[derive(Debug)]
pub struct CatalogOverlay<'a> {
    base: &'a Catalog,
    defs: Vec<Arc<IndexDef>>,
    telemetry: Telemetry,
}

impl<'a> CatalogOverlay<'a> {
    /// Starts an empty overlay counting churn against `telemetry`.
    pub fn with_telemetry(base: &'a Catalog, telemetry: &Telemetry) -> Self {
        Self {
            base,
            defs: Vec::new(),
            telemetry: telemetry.clone(),
        }
    }

    /// Adds a virtual index from its pre-derived definition (the overlay
    /// analogue of [`Catalog::create_virtual`], minus the derivation).
    ///
    /// # Panics
    /// If the definition is physical or its id collides with the base
    /// catalog's id space — it was not derived by
    /// [`Catalog::derive_virtual`] on this catalog. (That each member has
    /// a slot of its own is the caller's side of the contract, checked in
    /// debug builds.)
    pub fn add(&mut self, def: Arc<IndexDef>) -> IndexId {
        assert!(
            def.is_virtual() && def.id.index() >= self.base.defs.len(),
            "overlay members are virtual and live past the catalog's id space"
        );
        debug_assert!(
            self.defs.iter().all(|d| d.id != def.id),
            "overlay slot {} used twice",
            def.id.0
        );
        self.telemetry.incr(Counter::VirtualIndexesCreated);
        self.telemetry
            .add(Counter::EstIndexBytes, def.stats.size_bytes);
        let id = def.id;
        self.defs.push(def);
        id
    }

    /// Number of overlay entries.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the overlay holds no entries.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The combined base + overlay view.
    pub fn view(&self) -> CatalogView<'_> {
        CatalogView {
            base: self.base,
            overlay: &self.defs,
        }
    }
}

impl Drop for CatalogOverlay<'_> {
    fn drop(&mut self) {
        // Balance the created counter: discarding the overlay is the
        // what-if "drop" of its virtual indexes.
        self.telemetry
            .add(Counter::VirtualIndexesDropped, self.defs.len() as u64);
    }
}

/// An immutable view of a catalog plus an optional what-if overlay.
///
/// Cheap to copy; the optimizer's Evaluate-Indexes mode matches and costs
/// against this instead of a `&Catalog`, so candidate configurations never
/// mutate shared state.
#[derive(Debug, Clone, Copy)]
pub struct CatalogView<'a> {
    base: &'a Catalog,
    overlay: &'a [Arc<IndexDef>],
}

impl<'a> CatalogView<'a> {
    /// Borrows an index definition, routing by the overlay id boundary.
    /// Overlay ids are sparse (one slot per definition, not per position),
    /// so the overlay side is a scan of its handful of members.
    pub fn get(&self, id: IndexId) -> Option<&'a IndexDef> {
        if id.index() >= self.base.defs.len() {
            self.overlay.iter().find(|d| d.id == id).map(|d| &**d)
        } else {
            self.base.get(id)
        }
    }

    /// Iterates over live base definitions, then overlay definitions.
    pub fn iter(&self) -> impl Iterator<Item = &'a IndexDef> {
        self.base.iter().chain(self.overlay.iter().map(|d| &**d))
    }

    /// Number of live indexes visible through the view.
    pub fn len(&self) -> usize {
        self.base.len() + self.overlay.len()
    }

    /// Whether the view exposes no indexes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::runstats;
    use xia_xpath::parse_linear_path;

    fn setup() -> (Collection, CollectionStats) {
        let mut c = Collection::new("SDOC");
        for i in 0..50 {
            c.build_doc("Security", |b| {
                b.leaf("Symbol", format!("S{i}").as_str());
                b.leaf("Yield", (i % 10) as f64);
            });
        }
        let s = runstats(&c);
        (c, s)
    }

    #[test]
    fn virtual_stats_match_physical_stats() {
        let (c, s) = setup();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let mut cat = Catalog::new();
        let v = cat.create_virtual(&c, &s, &p, ValueKind::Str);
        let ph = cat.create_physical(&c, &p, ValueKind::Str);
        let vd = cat.get(v).unwrap();
        let pd = cat.get(ph).unwrap();
        assert!(vd.is_virtual());
        assert!(!pd.is_virtual());
        assert_eq!(vd.stats.entries, pd.stats.entries);
        assert_eq!(vd.stats.distinct, pd.stats.distinct);
        assert_eq!(vd.stats.size_bytes, pd.stats.size_bytes);
        assert_eq!(vd.stats.levels, pd.stats.levels);
    }

    #[test]
    fn numeric_virtual_stats() {
        let (c, s) = setup();
        let p = parse_linear_path("/Security/Yield").unwrap();
        let mut cat = Catalog::new();
        let v = cat.create_virtual(&c, &s, &p, ValueKind::Num);
        let d = cat.get(v).unwrap();
        assert_eq!(d.stats.entries, 50);
        assert_eq!(d.stats.distinct, 10);
        assert_eq!(d.stats.avg_key_width, 8.0);
    }

    #[test]
    fn universal_pattern_matches_all_paths() {
        let (c, s) = setup();
        let mut cat = Catalog::new();
        let v = cat.create_virtual(&c, &s, &LinearPath::universal(), ValueKind::Str);
        let d = cat.get(v).unwrap();
        assert_eq!(d.matched_paths.len(), c.vocab().paths.len());
        // Every valued node is an entry.
        assert_eq!(d.stats.entries, 100);
    }

    #[test]
    fn drop_all_virtual_keeps_physical() {
        let (c, s) = setup();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let mut cat = Catalog::new();
        cat.create_virtual(&c, &s, &p, ValueKind::Str);
        let ph = cat.create_physical(&c, &p, ValueKind::Str);
        cat.drop_all_virtual();
        assert_eq!(cat.len(), 1);
        assert!(cat.get(ph).is_some());
    }

    #[test]
    fn drop_index_is_idempotent() {
        let (c, s) = setup();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let mut cat = Catalog::new();
        let id = cat.create_virtual(&c, &s, &p, ValueKind::Str);
        cat.drop_index(id);
        cat.drop_index(id);
        assert!(cat.is_empty());
        assert!(cat.get(id).is_none());
    }

    #[test]
    fn total_size_sums_live_indexes() {
        let (c, s) = setup();
        let mut cat = Catalog::new();
        let a = cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Symbol").unwrap(),
            ValueKind::Str,
        );
        let b = cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Yield").unwrap(),
            ValueKind::Num,
        );
        let total = cat.total_size();
        let sa = cat.get(a).unwrap().stats.size_bytes;
        let sb = cat.get(b).unwrap().stats.size_bytes;
        assert_eq!(total, sa + sb);
    }

    #[test]
    fn telemetry_counts_virtual_index_churn() {
        let (c, s) = setup();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let t = Telemetry::new();
        let mut cat = Catalog::new();
        cat.set_telemetry(&t);
        let v = cat.create_virtual(&c, &s, &p, ValueKind::Str);
        cat.create_virtual(&c, &s, &p, ValueKind::Num);
        let ph = cat.create_physical(&c, &p, ValueKind::Str);
        assert_eq!(t.get(Counter::VirtualIndexesCreated), 2);
        assert_eq!(t.get(Counter::StatsDerivations), 2);
        assert_eq!(
            t.get(Counter::EstIndexBytes),
            cat.get(v).unwrap().stats.size_bytes + cat.iter().nth(1).unwrap().stats.size_bytes
        );
        cat.drop_index(v);
        cat.drop_index(ph); // physical: not counted
        cat.drop_all_virtual();
        assert_eq!(t.get(Counter::VirtualIndexesDropped), 2);
    }

    #[test]
    fn overlay_is_visible_through_view_but_never_touches_base() {
        let (c, s) = setup();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let mut cat = Catalog::new();
        let ph = cat.create_physical(&c, &p, ValueKind::Str);
        let t = Telemetry::new();
        let mut ov = CatalogOverlay::with_telemetry(&cat, &t);
        let v = ov.add(Arc::new(cat.derive_virtual(&c, &s, &p, ValueKind::Num, 7)));
        assert_eq!(
            v.index(),
            cat.slot_capacity() + 7,
            "overlay ids are disjoint"
        );

        let view = ov.view();
        assert_eq!(view.len(), 2);
        assert!(view.get(ph).is_some_and(|d| !d.is_virtual()));
        assert!(view.get(v).is_some_and(|d| d.is_virtual()));
        assert_eq!(view.iter().count(), 2);
        // The base catalog is untouched.
        assert_eq!(cat.len(), 1);
        assert!(cat.get(v).is_none());
    }

    #[test]
    fn overlay_telemetry_balances_created_and_dropped() {
        let (c, s) = setup();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let cat = Catalog::new();
        let t = Telemetry::new();
        {
            // One derivation serves every overlay the definition joins.
            let shared = Arc::new(cat.derive_virtual(&c, &s, &p, ValueKind::Str, 0));
            let mut ov = CatalogOverlay::with_telemetry(&cat, &t);
            ov.add(Arc::clone(&shared));
            ov.add(Arc::new(cat.derive_virtual(&c, &s, &p, ValueKind::Num, 1)));
            let mut ov2 = CatalogOverlay::with_telemetry(&cat, &t);
            ov2.add(shared);
            assert_eq!(t.get(Counter::VirtualIndexesCreated), 3);
            assert_eq!(
                t.get(Counter::StatsDerivations),
                0,
                "overlays derive nothing"
            );
            assert_eq!(t.get(Counter::VirtualIndexesDropped), 0);
        }
        assert_eq!(t.get(Counter::VirtualIndexesDropped), 3);
    }

    #[test]
    fn overlay_stats_match_catalog_derivation() {
        let (c, s) = setup();
        let p = parse_linear_path("/Security/Yield").unwrap();
        let mut cat = Catalog::new();
        let direct = cat.create_virtual(&c, &s, &p, ValueKind::Num);
        let mut ov = cat.overlay();
        let layered = ov.add(Arc::new(cat.derive_virtual(&c, &s, &p, ValueKind::Num, 0)));
        let view = ov.view();
        let a = &view.get(direct).unwrap().stats;
        let b = &view.get(layered).unwrap().stats;
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.distinct, b.distinct);
        assert_eq!(a.size_bytes, b.size_bytes);
    }

    #[test]
    fn plain_view_ids_route_to_base() {
        let (c, _s) = setup();
        let p = parse_linear_path("/Security/Symbol").unwrap();
        let mut cat = Catalog::new();
        let ph = cat.create_physical(&c, &p, ValueKind::Str);
        let view = cat.view();
        assert_eq!(view.len(), cat.len());
        assert!(view.get(ph).is_some());
        assert!(view.get(IndexId(99)).is_none());
    }

    #[test]
    fn general_index_is_at_least_as_large_as_the_specifics_it_covers() {
        // The paper: "general indexes are larger than the specific indexes
        // they generalize because they contain more nodes from the data".
        let (c, s) = setup();
        let mut cat = Catalog::new();
        let gen = cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security//*").unwrap(),
            ValueKind::Str,
        );
        let sp1 = cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Symbol").unwrap(),
            ValueKind::Str,
        );
        let g = cat.get(gen).unwrap().stats.size_bytes;
        let s1 = cat.get(sp1).unwrap().stats.size_bytes;
        assert!(g >= s1);
    }
}
