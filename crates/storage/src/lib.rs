//! # xia-storage
//!
//! The storage substrate of the XML Index Advisor reproduction: the role
//! DB2 pureXML's XML-typed columns play in the paper.
//!
//! * [`Collection`] — a multi-document XML store with a shared
//!   [`xia_xml::Vocabulary`] (names + rooted paths).
//! * [`stats`] — RUNSTATS-equivalent data statistics: per-path node/value
//!   counts, distinct counts, numeric ranges and equi-depth histograms.
//!   Virtual-index statistics are *derived* from these, exactly as the
//!   paper derives index statistics from data statistics (Section III).
//! * [`PhysicalIndex`] — a partial XML value index: a B-tree over the
//!   values of the nodes reachable by a linear XPath index pattern.
//! * [`Catalog`] — index metadata, covering both physical indexes and
//!   *virtual* indexes (catalog-only, never usable for execution).
//! * [`Database`] — named collections with their catalogs and statistics.

pub mod catalog;
pub mod collection;
pub mod columnar;
pub mod database;
pub mod index;
pub mod ingest;
pub mod persist;
pub mod size;
pub mod stats;

pub use catalog::{Catalog, CatalogOverlay, CatalogView, IndexDef, IndexId, IndexStats};
pub use collection::{Collection, DocId};
pub use columnar::{ColumnStore, PathColumn};
pub use database::{Database, StatsView};
pub use index::{OrdF64, PhysicalIndex, Posting};
pub use ingest::{ingest_batch, resolve_jobs, IngestError, IngestOptions, IngestReport};
pub use persist::{
    fnv1a64, load_database, load_database_from, load_database_lenient,
    load_database_lenient_faulted, load_database_lenient_from, save_database,
    save_database_faulted, save_database_to, save_database_to_faulted, sum64, LoadReport,
    PersistError,
};
pub use stats::{runstats, runstats_scan, CollectionStats, PathStat};
