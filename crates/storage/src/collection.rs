//! Multi-document XML collection.

use crate::columnar::ColumnStore;
use crate::persist::ImageDocs;
use std::sync::{Mutex, OnceLock};
use xia_obs::{Counter, Telemetry};
use xia_xml::{
    parse_document, stream_document, DocBuilder, Document, DocumentSink, StreamSink, Symbol, Value,
    Vocabulary, XmlError,
};

/// Identifier of a document within a collection. Ids are never reused; a
/// deleted document leaves a tombstone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl DocId {
    /// Raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A collection of XML documents sharing one vocabulary — the equivalent of
/// one XML-typed column in the paper's DB2 prototype.
///
/// Alongside the DOM arenas the collection maintains a columnar
/// projection of every leaf value ([`ColumnStore`]); inserts keep it
/// fresh incrementally (streamed inserts fuse the column append into the
/// parse), while deletes and in-place updates mark it dirty until the
/// next [`Collection::ensure_columns`].
///
/// A collection opened from a saved image starts with its name,
/// vocabulary and counts only: the arenas and the columns are decoded
/// from the image's verified document records the first time something
/// reads or writes a document ([`Collection::iter_docs`],
/// [`Collection::doc`], [`Collection::columns`], every mutation). The
/// advisor never does, so it never pays for them.
#[derive(Debug)]
pub struct Collection {
    name: String,
    vocab: Vocabulary,
    /// Set from the start for a collection built in memory, on first use
    /// for one opened from an image.
    body: OnceLock<Body>,
    /// The image's document records until `body` is decoded from them;
    /// taken (and so released) by that decode.
    image: Mutex<Option<ImageDocs>>,
    from_image: bool,
    live: usize,
    /// Node total of the image's documents; read only while `body` is
    /// unset.
    image_nodes: u64,
    columns_clean: bool,
    telemetry: Telemetry,
}

/// The documents and their columnar projection.
#[derive(Debug, Default)]
struct Body {
    docs: Vec<Option<Document>>,
    columns: ColumnStore,
}

impl Default for Collection {
    fn default() -> Self {
        Self::new("")
    }
}

/// Streaming sink that builds the DOM arena *and* appends the document's
/// leaf values to the collection's column store in one pass (events
/// arrive in the per-path row order the store requires; see
/// `columnar.rs`).
struct ColumnDocSink<'a> {
    inner: DocumentSink,
    columns: &'a mut ColumnStore,
    doc: DocId,
}

impl StreamSink for ColumnDocSink<'_> {
    fn start_element(&mut self, name: Symbol, path: xia_xml::PathId) {
        self.columns.note_node(path, self.doc);
        self.inner.start_element(name, path);
    }

    fn attribute(&mut self, name: Symbol, path: xia_xml::PathId, value: Value) {
        self.columns.note_node(path, self.doc);
        self.columns
            .push_value(path, self.doc, self.inner.next_id(), &value);
        self.inner.attribute(name, path, value);
    }

    fn end_element(&mut self, name: Symbol, path: xia_xml::PathId, value: Option<Value>) {
        if let (Some(v), Some(node)) = (&value, self.inner.open_element()) {
            self.columns.push_value(path, self.doc, node, v);
        }
        self.inner.end_element(name, path, value);
    }
}

impl Collection {
    /// Creates an empty collection.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            vocab: Vocabulary::new(),
            body: OnceLock::from(Body::default()),
            image: Mutex::new(None),
            from_image: false,
            live: 0,
            image_nodes: 0,
            columns_clean: true,
            telemetry: Telemetry::off(),
        }
    }

    /// A collection whose documents are the verified records `image`, in
    /// order and densely numbered, over the vocabulary they were saved
    /// with; `nodes` is their node total. Nothing is decoded yet.
    pub(crate) fn from_image(
        name: String,
        vocab: Vocabulary,
        image: ImageDocs,
        nodes: u64,
    ) -> Self {
        Self {
            name,
            vocab,
            body: OnceLock::new(),
            live: image.len(),
            image: Mutex::new(Some(image)),
            from_image: true,
            image_nodes: nodes,
            columns_clean: true,
            telemetry: Telemetry::off(),
        }
    }

    fn body(&self) -> &Body {
        self.body.get_or_init(|| {
            let image = self
                .image
                .lock()
                .expect("nothing panics while holding the image")
                .take()
                .expect("a collection without a body still holds its image");
            let (docs, columns) = image.decode();
            Body { docs, columns }
        })
    }

    fn body_mut(&mut self) -> &mut Body {
        self.body();
        self.body.get_mut().expect("just decoded")
    }

    /// Whether this collection was opened from a saved image and its
    /// documents have since been decoded from it.
    pub fn decoded_from_image(&self) -> bool {
        self.from_image && self.body.get().is_some()
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Parses and stores an XML document through the streaming parse
    /// path: one scan builds the DOM arena and appends the leaf values to
    /// the column store, without an intermediate tree walk. Produces a
    /// state byte-identical to [`Collection::insert_xml_dom`].
    pub fn insert_xml(&mut self, xml: &str) -> Result<DocId, XmlError> {
        let id = DocId(self.body_mut().docs.len() as u32);
        if !self.columns_clean {
            // Columns are already stale: skip the fused append, parse
            // straight into the arena.
            let mut sink = DocumentSink::new();
            stream_document(xml, &mut self.vocab, &mut sink)?;
            self.telemetry.incr(Counter::DocsStreamed);
            let doc = sink
                .into_document()
                .map_err(|message| XmlError { offset: 0, message })?;
            return Ok(self.push_doc(doc));
        }
        let mut sink = ColumnDocSink {
            inner: DocumentSink::new(),
            columns: &mut self.body.get_mut().expect("decoded above").columns,
            doc: id,
        };
        match stream_document(xml, &mut self.vocab, &mut sink) {
            Ok(()) => {
                self.telemetry.incr(Counter::DocsStreamed);
                let doc = sink
                    .inner
                    .into_document()
                    .map_err(|message| XmlError { offset: 0, message })?;
                Ok(self.push_doc(doc))
            }
            Err(e) => {
                // The fused sink may have appended rows for the aborted
                // document; rebuild lazily before the next columnar scan.
                self.columns_clean = false;
                Err(e)
            }
        }
    }

    /// Parses and stores an XML document through the DOM parser — the
    /// `--no-stream` escape hatch. Byte-identical outcome to
    /// [`Collection::insert_xml`].
    pub fn insert_xml_dom(&mut self, xml: &str) -> Result<DocId, XmlError> {
        let doc = parse_document(xml, &mut self.vocab)?;
        Ok(self.insert_document(doc))
    }

    /// Stores a document parsed against a *different* vocabulary by
    /// re-interning it into this collection's vocabulary (the merge step
    /// of parallel ingestion; see [`Document::remap`]).
    pub fn insert_parsed(&mut self, from: &Vocabulary, doc: &Document) -> DocId {
        let remapped = doc.remap(from, &mut self.vocab);
        self.insert_document(remapped)
    }

    /// Stores a pre-built document. The document must have been built
    /// against this collection's vocabulary.
    pub fn insert_document(&mut self, doc: Document) -> DocId {
        let clean = self.columns_clean;
        let body = self.body_mut();
        if clean {
            body.columns.append_doc(DocId(body.docs.len() as u32), &doc);
        }
        self.push_doc(doc)
    }

    fn push_doc(&mut self, doc: Document) -> DocId {
        let docs = &mut self.body_mut().docs;
        let id = DocId(docs.len() as u32);
        docs.push(Some(doc));
        self.live += 1;
        id
    }

    /// Builds a document in place with a [`DocBuilder`] closure.
    ///
    /// ```
    /// use xia_storage::Collection;
    /// let mut c = Collection::new("SDOC");
    /// let id = c.build_doc("Security", |b| {
    ///     b.leaf("Symbol", "IBM");
    /// });
    /// assert_eq!(c.doc(id).unwrap().len(), 2);
    /// ```
    pub fn build_doc(&mut self, root: &str, f: impl FnOnce(&mut DocBuilder)) -> DocId {
        let mut b = DocBuilder::new(&mut self.vocab, root);
        f(&mut b);
        let doc = b.finish();
        self.insert_document(doc)
    }

    /// Removes a document, returning it. Idempotent. Marks the columnar
    /// projection stale.
    pub fn delete(&mut self, id: DocId) -> Option<Document> {
        let slot = self.body_mut().docs.get_mut(id.index())?;
        let doc = slot.take();
        if doc.is_some() {
            self.live -= 1;
            self.columns_clean = false;
        }
        doc
    }

    /// Borrows a live document.
    pub fn doc(&self, id: DocId) -> Option<&Document> {
        self.body().docs.get(id.index()).and_then(|d| d.as_ref())
    }

    /// Mutably borrows a live document (used by `update` execution).
    /// Marks the columnar projection stale: the caller may rewrite leaf
    /// values behind the columns' back.
    pub fn doc_mut(&mut self, id: DocId) -> Option<&mut Document> {
        if self.doc(id).is_some() {
            self.columns_clean = false;
        }
        self.body_mut().docs.get_mut(id.index())?.as_mut()
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the collection has no live documents.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over live documents.
    pub fn iter_docs(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.body()
            .docs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|doc| (DocId(i as u32), doc)))
    }

    /// Total node count over live documents. Does not decode an image.
    pub fn total_nodes(&self) -> u64 {
        match self.body.get() {
            Some(body) => body.docs.iter().flatten().map(|d| d.len() as u64).sum(),
            None => self.image_nodes,
        }
    }

    /// Exposes the vocabulary mutably for callers that need to pre-intern
    /// (e.g. parsing a document before deciding to insert it).
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// Total slots including tombstones. Does not decode an image (its
    /// documents are numbered densely).
    pub fn slot_count(&self) -> usize {
        self.body.get().map_or(self.live, |body| body.docs.len())
    }

    /// Fraction of slots that are tombstones (deleted documents).
    pub fn tombstone_ratio(&self) -> f64 {
        let slots = self.slot_count();
        if slots == 0 {
            0.0
        } else {
            1.0 - self.live as f64 / slots as f64
        }
    }

    /// Compacts the collection: drops tombstones and renumbers the
    /// remaining documents densely. Returns the mapping `old → new`
    /// [`DocId`] so callers can fix external references; physical indexes
    /// must be rebuilt afterwards (the catalog's doc ids are invalidated).
    pub fn compact(&mut self) -> Vec<(DocId, DocId)> {
        let mut mapping = Vec::with_capacity(self.live);
        let mut compacted: Vec<Option<Document>> = Vec::with_capacity(self.live);
        let body = self.body_mut();
        for (i, slot) in body.docs.iter_mut().enumerate() {
            if let Some(doc) = slot.take() {
                mapping.push((DocId(i as u32), DocId(compacted.len() as u32)));
                compacted.push(Some(doc));
            }
        }
        body.docs = compacted;
        self.rebuild_columns();
        mapping
    }

    /// The columnar leaf projection, or `None` while it is stale (after a
    /// delete or an in-place update). Call
    /// [`Collection::ensure_columns`] to refresh it.
    pub fn columns(&self) -> Option<&ColumnStore> {
        self.columns_clean.then(|| &self.body().columns)
    }

    /// Rebuilds the columnar projection if stale.
    pub fn ensure_columns(&mut self) {
        if !self.columns_clean {
            self.rebuild_columns();
        }
    }

    fn rebuild_columns(&mut self) {
        let Body { docs, columns } = self.body_mut();
        columns.clear();
        for (i, slot) in docs.iter().enumerate() {
            if let Some(doc) = slot {
                columns.append_doc(DocId(i as u32), doc);
            }
        }
        self.columns_clean = true;
    }

    /// Attaches a telemetry sink; ingestion and columnar-scan counters
    /// (`docs_streamed`, `ingest_batches`, `columnar_scan_rows`) report
    /// to it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// The attached telemetry sink (disabled unless set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_parse_and_read_back() {
        let mut c = Collection::new("SDOC");
        let id = c
            .insert_xml("<Security><Symbol>IBM</Symbol></Security>")
            .unwrap();
        assert_eq!(c.len(), 1);
        let doc = c.doc(id).unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut c = Collection::new("SDOC");
        let a = c.insert_xml("<a/>").unwrap();
        let b = c.insert_xml("<b/>").unwrap();
        assert!(c.delete(a).is_some());
        assert!(c.delete(a).is_none());
        assert_eq!(c.len(), 1);
        assert!(c.doc(a).is_none());
        assert!(c.doc(b).is_some());
        // Ids are not reused.
        let d = c.insert_xml("<c/>").unwrap();
        assert_ne!(d, a);
    }

    #[test]
    fn shared_vocabulary_across_documents() {
        let mut c = Collection::new("SDOC");
        c.insert_xml("<Security><Yield>4.5</Yield></Security>")
            .unwrap();
        c.insert_xml("<Security><Yield>3.2</Yield></Security>")
            .unwrap();
        // /Security and /Security/Yield only.
        assert_eq!(c.vocab().paths.len(), 2);
        assert_eq!(c.total_nodes(), 4);
    }

    #[test]
    fn compact_drops_tombstones_and_renumbers() {
        let mut c = Collection::new("X");
        let ids: Vec<_> = (0..6)
            .map(|i| {
                c.build_doc("a", |b| {
                    b.leaf("v", i as f64);
                })
            })
            .collect();
        c.delete(ids[1]);
        c.delete(ids[4]);
        assert!((c.tombstone_ratio() - 2.0 / 6.0).abs() < 1e-9);
        let mapping = c.compact();
        assert_eq!(mapping.len(), 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.tombstone_ratio(), 0.0);
        // Mapping is order-preserving and dense.
        assert_eq!(
            mapping,
            vec![
                (DocId(0), DocId(0)),
                (DocId(2), DocId(1)),
                (DocId(3), DocId(2)),
                (DocId(5), DocId(3)),
            ]
        );
        // Surviving document values follow the mapping.
        let v = c.vocab().lookup_name("v").unwrap();
        assert_eq!(
            c.doc(DocId(1)).unwrap().value_at(&[v]).unwrap().as_num(),
            Some(2.0)
        );
        // New inserts reuse the compacted id space.
        let next = c.build_doc("a", |b| {
            b.leaf("v", 9.0);
        });
        assert_eq!(next, DocId(4));
    }

    #[test]
    fn compact_of_clean_collection_is_identity() {
        let mut c = Collection::new("X");
        c.insert_xml("<a/>").unwrap();
        c.insert_xml("<b/>").unwrap();
        let mapping = c.compact();
        assert_eq!(mapping, vec![(DocId(0), DocId(0)), (DocId(1), DocId(1))]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn iter_docs_skips_deleted() {
        let mut c = Collection::new("X");
        let a = c.insert_xml("<a/>").unwrap();
        c.insert_xml("<b/>").unwrap();
        c.delete(a);
        let ids: Vec<_> = c.iter_docs().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![DocId(1)]);
    }
}
