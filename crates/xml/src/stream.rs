//! Streaming (SAX-style) XML parse path.
//!
//! [`parse_document`](crate::parse_document) materializes a DOM arena and
//! is what the original prototype used everywhere. At scale, consumers that
//! only need per-path events — the interned-path arena, per-path statistics,
//! columnar leaf storage — should not pay for tree bookkeeping they ignore.
//! [`stream_document`] scans the input once and pushes semantic events into
//! a [`StreamSink`]:
//!
//! * `start_element(name, path)` — in document order, after the rooted path
//!   has been interned;
//! * `attribute(name, path, value)` — attributes of the just-opened
//!   element, in source order (attributes are leaf children in the model);
//! * `end_element(name, path, value)` — with the leaf value the element
//!   carries under the DOM parser's rules (text trimmed at close, values
//!   only on elements without element children).
//!
//! The event rules mirror `parser.rs` frame-for-frame — CDATA passes
//! verbatim, text is entity-decoded, mixed content drops stray text — so a
//! [`DocumentSink`] driven by this scanner reproduces the DOM parser's
//! output **byte-identically**: same arena order, same paths, same values,
//! same errors for malformed input. The property suite and the
//! `xia-bench gate datapath` gate hold the two paths equal.

use crate::interner::Symbol;
use crate::model::{Document, Node, NodeId, NodeKind};
use crate::parser::{decode_entities, find_sub, XmlError, MAX_XML_DEPTH};
use crate::paths::PathId;
use crate::value::Value;
use crate::Vocabulary;

/// Receiver of streaming parse events. Event order is document order; every
/// `start_element` is matched by exactly one `end_element`, and `attribute`
/// events arrive between an element's start and any of its content.
pub trait StreamSink {
    /// An element opened; `path` is its interned rooted label path.
    fn start_element(&mut self, name: Symbol, path: PathId);
    /// An attribute of the most recently started element.
    fn attribute(&mut self, name: Symbol, path: PathId, value: Value);
    /// An element closed. `value` is its leaf value: present only when the
    /// element had no element children and non-whitespace text content.
    fn end_element(&mut self, name: Symbol, path: PathId, value: Option<Value>);
}

/// Parses `input`, streaming events into `sink` while interning names and
/// rooted paths in `vocab`. Accepts exactly the inputs
/// [`crate::parse_document`] accepts.
pub fn stream_document(
    input: &str,
    vocab: &mut Vocabulary,
    sink: &mut impl StreamSink,
) -> Result<(), XmlError> {
    Streamer {
        bytes: input.as_bytes(),
        pos: 0,
        vocab,
    }
    .parse(sink)
}

/// Streaming drop-in for [`crate::parse_document`]: same `Document`, same
/// vocabulary effects, same errors, but built through the event path.
pub fn parse_document_streaming(input: &str, vocab: &mut Vocabulary) -> Result<Document, XmlError> {
    let mut sink = DocumentSink::new();
    stream_document(input, vocab, &mut sink)?;
    sink.into_document()
        .map_err(|message| XmlError { offset: 0, message })
}

/// Per-open-element scan state: mirrors the DOM parser's `Frame`.
struct OpenElement {
    name: Symbol,
    path: PathId,
    text: String,
    element_children: usize,
}

struct Streamer<'a, 'v> {
    bytes: &'a [u8],
    pos: usize,
    vocab: &'v mut Vocabulary,
}

impl Streamer<'_, '_> {
    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        match find_sub(&self.bytes[self.pos..], end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(format!("unterminated construct, expected `{end}`"))),
        }
    }

    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.pos += 2;
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.pos += 4;
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.pos += 9;
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn parse(mut self, sink: &mut impl StreamSink) -> Result<(), XmlError> {
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return Err(self.err("expected root element"));
        }
        let mut stack: Vec<OpenElement> = Vec::new();
        let mut root_seen = false;

        self.parse_open_tag(&mut stack, &mut root_seen, sink)?;
        while !stack.is_empty() {
            match self.peek() {
                None => return Err(self.err("unexpected end of input inside element")),
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        self.pos += 4;
                        self.skip_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        self.pos += 9;
                        let start = self.pos;
                        self.skip_until("]]>")?;
                        // CDATA is character data: appended verbatim, never
                        // entity-decoded.
                        let text = std::str::from_utf8(&self.bytes[start..self.pos - 3])
                            .map_err(|_| self.err("invalid UTF-8 in CDATA"))?;
                        stack
                            .last_mut()
                            .expect("stack non-empty in loop")
                            .text
                            .push_str(text);
                    } else if self.starts_with("</") {
                        self.parse_close_tag(&mut stack, sink)?;
                    } else if self.starts_with("<?") {
                        self.pos += 2;
                        self.skip_until("?>")?;
                    } else {
                        self.parse_open_tag(&mut stack, &mut root_seen, sink)?;
                    }
                }
                Some(_) => {
                    let text = self.parse_text()?;
                    stack
                        .last_mut()
                        .expect("stack non-empty in loop")
                        .text
                        .push_str(&text);
                }
            }
        }
        self.skip_misc()?;
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after root element"));
        }
        Ok(())
    }

    fn parse_name(&mut self) -> Result<Symbol, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let name = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in name"))?;
        Ok(self.vocab.names.intern(name))
    }

    fn parse_open_tag(
        &mut self,
        stack: &mut Vec<OpenElement>,
        root_seen: &mut bool,
        sink: &mut impl StreamSink,
    ) -> Result<(), XmlError> {
        self.expect("<")?;
        if stack.len() >= MAX_XML_DEPTH {
            return Err(self.err(format!(
                "element nesting deeper than {MAX_XML_DEPTH} levels"
            )));
        }
        let name = self.parse_name()?;
        if let Some(parent) = stack.last_mut() {
            parent.element_children += 1;
        } else if *root_seen {
            return Err(self.err("multiple root elements"));
        } else {
            *root_seen = true;
        }
        let parent_path = stack.last().map(|f| f.path);
        let path = self.vocab.paths.extend(parent_path, name);
        sink.start_element(name, path);
        stack.push(OpenElement {
            name,
            path,
            text: String::new(),
            element_children: 0,
        });

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'/') => {
                    self.expect("/>").map_err(|_| self.err("expected `/>`"))?;
                    let frame = stack.pop().expect("frame just pushed");
                    // A self-closed element has no text and no children.
                    sink.end_element(frame.name, frame.path, None);
                    return Ok(());
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    if self.peek().is_none() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in attribute"))?;
                    let decoded = decode_entities(raw).map_err(|m| self.err(m))?;
                    self.pos += 1;
                    let owner_path = stack.last().map(|f| f.path);
                    let attr_path = self.vocab.paths.extend(owner_path, attr_name);
                    sink.attribute(attr_name, attr_path, Value::new(&decoded));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    fn parse_close_tag(
        &mut self,
        stack: &mut Vec<OpenElement>,
        sink: &mut impl StreamSink,
    ) -> Result<(), XmlError> {
        self.expect("</")?;
        let name = self.parse_name()?;
        self.skip_ws();
        self.expect(">")?;
        let frame = stack.pop().expect("close tag with empty stack");
        if frame.name != name {
            return Err(self.err(format!(
                "mismatched close tag `{}`",
                self.vocab.names.resolve(name)
            )));
        }
        let text = frame.text.trim();
        let value = if frame.element_children == 0 && !text.is_empty() {
            Some(Value::new(text))
        } else {
            None
        };
        sink.end_element(frame.name, frame.path, value);
        Ok(())
    }

    fn parse_text(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c != b'<') {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in text"))?;
        decode_entities(raw).map_err(|m| self.err(m))
    }
}

/// A [`StreamSink`] that rebuilds the DOM arena, assigning node ids in
/// exactly the order the DOM parser does (elements at open, attributes in
/// source order). Composable: wrappers can forward events while observing
/// [`DocumentSink::next_id`] to learn the id each event will receive.
#[derive(Debug, Default)]
pub struct DocumentSink {
    nodes: Vec<Node>,
    stack: Vec<NodeId>,
}

impl DocumentSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node id the next `start_element`/`attribute` event will be
    /// assigned (ids are dense preorder, as in the DOM parser).
    pub fn next_id(&self) -> NodeId {
        NodeId(self.nodes.len() as u32)
    }

    /// The id of the innermost open element (the one an `end_element`
    /// event will close), if any.
    pub fn open_element(&self) -> Option<NodeId> {
        self.stack.last().copied()
    }

    fn push_node(&mut self, name: Symbol, path: PathId, value: Option<Value>, kind: NodeKind) {
        let parent = self.stack.last().copied();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name,
            parent,
            children: Vec::new(),
            path,
            value,
            kind,
        });
        if let Some(p) = parent {
            self.nodes[p.index()].children.push(id);
        }
        if kind == NodeKind::Element {
            self.stack.push(id);
        }
    }

    /// Finishes the build. Errors if no root element was streamed (cannot
    /// happen when driven by [`stream_document`], which rejects such input).
    pub fn into_document(self) -> Result<Document, String> {
        if self.nodes.is_empty() {
            return Err("streamed document had no root element".to_string());
        }
        Ok(Document::from_arena(self.nodes))
    }
}

impl StreamSink for DocumentSink {
    fn start_element(&mut self, name: Symbol, path: PathId) {
        self.push_node(name, path, None, NodeKind::Element);
    }

    fn attribute(&mut self, name: Symbol, path: PathId, value: Value) {
        self.push_node(name, path, Some(value), NodeKind::Attribute);
    }

    fn end_element(&mut self, _name: Symbol, _path: PathId, value: Option<Value>) {
        let id = self.stack.pop().expect("end_element without start_element");
        if value.is_some() {
            self.nodes[id.index()].value = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;

    fn both(s: &str) -> (Document, Vocabulary, Document, Vocabulary) {
        let mut v1 = Vocabulary::new();
        let d1 = parse_document(s, &mut v1).expect("dom parse");
        let mut v2 = Vocabulary::new();
        let d2 = parse_document_streaming(s, &mut v2).expect("stream parse");
        (d1, v1, d2, v2)
    }

    fn assert_identical(s: &str) {
        let (d1, v1, d2, v2) = both(s);
        assert_eq!(d1, d2, "documents differ for {s:?}");
        assert_eq!(v1, v2, "vocabularies differ for {s:?}");
    }

    #[test]
    fn streaming_matches_dom_on_representative_inputs() {
        for s in [
            "<a/>",
            "<Security><Symbol>IBM</Symbol><Yield>4.5</Yield></Security>",
            r#"<Order id="7" note="a&amp;b"><Total>10</Total></Order>"#,
            "<a><b/><c/><b><d>x</d></b></a>",
            "<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b><![CDATA[x<y]]></b></a>",
            "<a><b>&lt;tag&gt; &amp; &#65;&#x42;</b></a>",
            "<a>\n  <b>1</b>\n</a>",
            "<a>hello <b>1</b> world</a>",
            "<!DOCTYPE a><a><b>1</b></a>",
            "<a><b><![CDATA[x & y &foo]]></b></a>",
            "<a x='1' y=\"two\"><z/></a>",
        ] {
            assert_identical(s);
        }
    }

    #[test]
    fn streaming_rejects_what_dom_rejects() {
        for s in [
            "<a><b></a></b>",
            "<a/>junk",
            "<a/><b/>",
            "<a><b>",
            "<a attr=\"x>",
            "<a>&#0;</a>",
            "<a>&nope;</a>",
            "",
        ] {
            let mut v1 = Vocabulary::new();
            let dom = parse_document(s, &mut v1);
            let mut v2 = Vocabulary::new();
            let stream = parse_document_streaming(s, &mut v2);
            assert!(dom.is_err() && stream.is_err(), "{s:?}");
        }
    }

    #[test]
    fn cdata_is_verbatim_through_the_streaming_path() {
        let mut vocab = Vocabulary::new();
        let doc = parse_document_streaming("<a><b><![CDATA[x & y &# &foo]]></b></a>", &mut vocab)
            .unwrap();
        let b = vocab.lookup_name("b").unwrap();
        assert_eq!(doc.value_at(&[b]).unwrap().as_str(), "x & y &# &foo");
    }

    #[test]
    fn depth_cap_matches_dom() {
        let nested = |depth: usize| {
            let mut s = String::new();
            for _ in 0..depth {
                s.push_str("<a>");
            }
            s.push('1');
            for _ in 0..depth {
                s.push_str("</a>");
            }
            s
        };
        assert_identical(&nested(MAX_XML_DEPTH - 1));
        let mut vocab = Vocabulary::new();
        assert!(parse_document_streaming(&nested(MAX_XML_DEPTH + 1), &mut vocab).is_err());
    }

    #[test]
    fn document_sink_exposes_preorder_ids() {
        let mut vocab = Vocabulary::new();
        let mut sink = DocumentSink::new();
        assert_eq!(sink.next_id(), NodeId(0));
        stream_document(r#"<a x="1"><b>2</b></a>"#, &mut vocab, &mut sink).unwrap();
        assert_eq!(sink.next_id(), NodeId(3));
        let doc = sink.into_document().unwrap();
        assert_eq!(doc.len(), 3);
    }
}
