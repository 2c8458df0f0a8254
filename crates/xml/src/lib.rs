//! # xia-xml
//!
//! XML document model and parser used as the storage-side data model of the
//! XML Index Advisor reproduction.
//!
//! The crate provides:
//!
//! * [`Vocabulary`] — a shared dictionary that interns element/attribute
//!   names ([`Symbol`]) and *rooted label paths* ([`PathId`]). Rooted-path
//!   interning mirrors the path table used by native XML stores (e.g. DB2
//!   pureXML): every node knows the id of its `/a/b/c` label path, which
//!   makes partial-index construction, statistics collection, and index
//!   matching exact and cheap.
//! * [`Document`] — an arena-allocated XML tree with typed leaf values.
//! * [`parse_document`] — a small, dependency-free XML parser (elements,
//!   attributes, text, comments, CDATA, the five predefined entities).
//! * [`DocBuilder`] — a programmatic construction API used by the workload
//!   generators.
//! * [`write_document`] — serializer (round-trips through the parser).

pub mod builder;
pub mod interner;
pub mod model;
pub mod parser;
pub mod paths;
pub mod stream;
pub mod value;
pub mod writer;

pub use builder::DocBuilder;
pub use interner::{Interner, Symbol};
pub use model::{Document, Node, NodeId, NodeKind, PreorderCheck, PreorderNode};
pub use parser::{decode_entities, parse_document, XmlError, MAX_XML_DEPTH};
pub use paths::{PathDictionary, PathId};
pub use stream::{parse_document_streaming, stream_document, DocumentSink, StreamSink};
pub use value::Value;
pub use writer::write_document;

/// Shared name + rooted-path dictionary for a collection of documents.
///
/// All documents stored in one collection intern their names and rooted
/// paths here, so a [`PathId`] means the same label path in every document.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Vocabulary {
    /// Interned element/attribute names.
    pub names: Interner,
    /// Interned rooted label paths.
    pub paths: PathDictionary,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves a name to its symbol if it has been interned.
    pub fn lookup_name(&self, name: &str) -> Option<Symbol> {
        self.names.lookup(name)
    }

    /// Renders a rooted path id as an XPath-style string (`/a/b/c`).
    pub fn path_string(&self, path: PathId) -> String {
        let labels = self.paths.labels(path);
        let mut out = String::new();
        for &sym in labels {
            out.push('/');
            out.push_str(self.names.resolve(sym));
        }
        out
    }
}
