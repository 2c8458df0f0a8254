//! Arena-based XML document model.

use crate::interner::Symbol;
use crate::parser::MAX_XML_DEPTH;
use crate::paths::PathId;
// (Symbol is used in public fields and method signatures below.)
use crate::value::Value;
use crate::Vocabulary;

/// Index of a node within its [`Document`] arena. Node ids are assigned in
/// document (pre-) order, so comparing ids compares document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index of this node id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Kind of a node. Attributes are modeled as leaf children of their owner
/// element (with their name participating in the rooted path), which is how
/// the index patterns of the paper address them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An element node.
    Element,
    /// An attribute node (always a leaf with a value).
    Attribute,
}

/// A single XML node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Interned element/attribute name.
    pub name: Symbol,
    /// Parent node, `None` for the document root.
    pub parent: Option<NodeId>,
    /// Children in document order (attributes first).
    pub children: Vec<NodeId>,
    /// Interned rooted label path of this node.
    pub path: PathId,
    /// Text content for leaf nodes, `None` for interior elements.
    pub value: Option<Value>,
    /// Element or attribute.
    pub kind: NodeKind,
}

/// One entry of a pre-order node list: a node as a stored document
/// records it, with its name and children left to be derived from the
/// vocabulary and from the list's order (see [`Document::from_preorder`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PreorderNode {
    /// Interned rooted label path; its last label is the node's name.
    pub path: PathId,
    /// Parent node (an earlier entry), `None` for the root only.
    pub parent: Option<NodeId>,
    /// Element or attribute.
    pub kind: NodeKind,
    /// Text content, if any.
    pub value: Option<Value>,
}

/// The rules a pre-order node list must obey to be a [`Document`] over a
/// vocabulary, checked one node at a time without building anything:
/// entry 0 is the root element at a one-label path; every later entry has
/// an earlier *element* as its parent and a path that is the parent's
/// path plus one label; every path is in the dictionary and no deeper
/// than [`MAX_XML_DEPTH`]; attributes carry a value.
///
/// [`Document::from_preorder`] applies exactly these rules, so a reader
/// that has run a list through [`PreorderCheck::admit`] once (say, when
/// verifying a stored image) knows that building the document from the
/// same list and vocabulary later cannot fail.
#[derive(Debug, Default)]
pub struct PreorderCheck {
    /// `(path, kind)` of every node admitted so far.
    seen: Vec<(PathId, NodeKind)>,
}

impl PreorderCheck {
    /// A check with no node admitted yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the admitted nodes (keeping the allocation), ready for the
    /// next document's list.
    pub fn restart(&mut self) {
        self.seen.clear();
    }

    /// Admits the next node of the list and returns its name, or says
    /// which rule it breaks. Every node of one list is checked against
    /// the same `vocab`.
    pub fn admit(
        &mut self,
        vocab: &Vocabulary,
        path: PathId,
        parent: Option<NodeId>,
        kind: NodeKind,
        has_value: bool,
    ) -> Result<Symbol, String> {
        let index = self.seen.len();
        if path.index() >= vocab.paths.len() {
            return Err(format!(
                "node {index}: path id {} is not in the dictionary",
                path.0
            ));
        }
        let labels = vocab.paths.labels(path);
        let Some((&name, prefix)) = labels.split_last() else {
            return Err(format!("node {index}: path id {} has no labels", path.0));
        };
        if name.index() >= vocab.names.len() {
            return Err(format!("node {index}: name {name} is not interned"));
        }
        if labels.len() > MAX_XML_DEPTH {
            return Err(format!(
                "node {index}: nested deeper than {MAX_XML_DEPTH} levels"
            ));
        }
        match parent {
            None => {
                if index != 0 {
                    return Err(format!("node {index} has no parent"));
                }
                if !prefix.is_empty() || kind != NodeKind::Element {
                    return Err("the root is not an element at a one-label path".into());
                }
            }
            Some(p) => {
                if index == 0 {
                    return Err("the root has a parent".into());
                }
                let Some(&(parent_path, parent_kind)) = self.seen.get(p.index()) else {
                    return Err(format!("node {index}: parent {} does not precede it", p.0));
                };
                if parent_kind != NodeKind::Element {
                    return Err(format!("node {index}: parent {} is an attribute", p.0));
                }
                if vocab.paths.labels(parent_path) != prefix {
                    return Err(format!(
                        "node {index}: path id {} is not one label below its parent's",
                        path.0
                    ));
                }
            }
        }
        if kind == NodeKind::Attribute && !has_value {
            return Err(format!("node {index}: attribute without a value"));
        }
        self.seen.push((path, kind));
        Ok(name)
    }
}

/// An XML document: an arena of nodes with a single root element.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Document {
    /// Creates a document from a pre-built arena. The first node must be the
    /// root.
    pub(crate) fn from_arena(nodes: Vec<Node>) -> Self {
        debug_assert!(!nodes.is_empty(), "document must have a root");
        debug_assert!(nodes[0].parent.is_none(), "node 0 must be the root");
        Self { nodes }
    }

    /// Builds a document from a pre-order node list over `vocab` — the
    /// way a stored image hands documents back, with nothing to tokenise
    /// or intern. Names come from the paths, children lists from the
    /// order of the entries; the list is held to the [`PreorderCheck`]
    /// rules and the first broken one is the error.
    pub fn from_preorder(
        vocab: &Vocabulary,
        nodes: impl IntoIterator<Item = PreorderNode>,
    ) -> Result<Self, String> {
        let nodes = nodes.into_iter();
        let mut check = PreorderCheck::new();
        let mut arena: Vec<Node> = Vec::with_capacity(nodes.size_hint().0);
        for n in nodes {
            let name = check.admit(vocab, n.path, n.parent, n.kind, n.value.is_some())?;
            if let Some(p) = n.parent {
                let id = NodeId(arena.len() as u32);
                arena[p.index()].children.push(id);
            }
            arena.push(Node {
                name,
                parent: n.parent,
                children: Vec::new(),
                path: n.path,
                value: n.value,
                kind: n.kind,
            });
        }
        if arena.is_empty() {
            return Err("a document has at least a root node".into());
        }
        Ok(Self { nodes: arena })
    }

    /// The root element of the document.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrow a node.
    ///
    /// # Panics
    /// Panics if `id` is out of range for this document.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes in the document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document has no nodes (never true for parsed documents).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all node ids in document order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over `(NodeId, &Node)` in document order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Returns the first child of `id` with the given name, if any.
    pub fn child_named(&self, id: NodeId, name: Symbol) -> Option<NodeId> {
        self.node(id)
            .children
            .iter()
            .copied()
            .find(|&c| self.node(c).name == name)
    }

    /// Collects the text value of the first descendant reachable via the
    /// given child-axis label sequence.
    pub fn value_at(&self, labels: &[Symbol]) -> Option<&Value> {
        let mut cur = self.root();
        for &label in labels {
            cur = self.child_named(cur, label)?;
        }
        self.node(cur).value.as_ref()
    }

    /// Renders the rooted path of a node for debugging.
    pub fn path_of(&self, id: NodeId, vocab: &Vocabulary) -> String {
        vocab.path_string(self.node(id).path)
    }

    /// Replaces the value of a node (used by update execution).
    ///
    /// # Panics
    /// Panics if `id` is out of range for this document.
    pub fn set_value(&mut self, id: NodeId, value: Option<Value>) {
        self.nodes[id.index()].value = value;
    }

    /// Re-expresses this document against another vocabulary: every name is
    /// re-interned and every rooted path re-derived in node (pre-)order.
    ///
    /// This is the merge step of parallel ingestion: worker threads parse
    /// documents against private vocabularies, and the coordinator remaps
    /// them into the collection's shared vocabulary in input order. Because
    /// nodes are visited in preorder and each node interns its name and
    /// then its path — the exact sequence a direct parse performs — the
    /// shared vocabulary ends up byte-identical to a sequential parse.
    ///
    /// # Panics
    /// Panics if a symbol or path id in the document did not come from
    /// `from`.
    pub fn remap(&self, from: &Vocabulary, into: &mut Vocabulary) -> Document {
        let mut nodes: Vec<Node> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let name = into.names.intern(from.names.resolve(n.name));
            // Preorder guarantees the parent was remapped already.
            let parent_path = n.parent.map(|p| nodes[p.index()].path);
            let path = into.paths.extend(parent_path, name);
            nodes.push(Node {
                name,
                parent: n.parent,
                children: n.children.clone(),
                path,
                value: n.value.clone(),
                kind: n.kind,
            });
        }
        Document::from_arena(nodes)
    }

    /// Total bytes of value text stored in the document (used by the size
    /// model in the storage layer).
    pub fn value_bytes(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.value.as_ref())
            .map(|v| v.as_str().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::{Document, NodeId, NodeKind, PreorderNode};
    use crate::Vocabulary;
    use crate::{DocBuilder, PathId};

    fn preorder(doc: &Document) -> Vec<PreorderNode> {
        doc.nodes()
            .map(|(_, n)| PreorderNode {
                path: n.path,
                parent: n.parent,
                kind: n.kind,
                value: n.value.clone(),
            })
            .collect()
    }

    #[test]
    fn from_preorder_rebuilds_names_and_children() {
        let mut vocab = Vocabulary::new();
        let doc = crate::parse_document(
            r#"<a x="1"><b>2</b><c><d y="3">4 &amp; 5</d></c><b/></a>"#,
            &mut vocab,
        )
        .unwrap();
        let rebuilt = Document::from_preorder(&vocab, preorder(&doc)).unwrap();
        assert_eq!(rebuilt, doc);
    }

    #[test]
    fn from_preorder_rejects_every_broken_rule() {
        let mut vocab = Vocabulary::new();
        let doc = crate::parse_document(r#"<a x="1"><b><c>2</c></b></a>"#, &mut vocab).unwrap();
        let good = preorder(&doc);
        assert!(Document::from_preorder(&vocab, good.clone()).is_ok());
        let broken = |edit: &dyn Fn(&mut Vec<PreorderNode>)| {
            let mut nodes = good.clone();
            edit(&mut nodes);
            Document::from_preorder(&vocab, nodes).unwrap_err()
        };
        // a, a/@x, a/b, a/b/c are nodes and paths 0..=3.
        assert!(broken(&|n| n.clear()).contains("at least a root"));
        assert!(broken(&|n| n[0].parent = Some(NodeId(0))).contains("root has a parent"));
        assert!(broken(&|n| n[0].path = PathId(2)).contains("one-label path"));
        assert!(broken(&|n| n[2].parent = None).contains("no parent"));
        assert!(broken(&|n| n[2].parent = Some(NodeId(2))).contains("does not precede"));
        assert!(broken(&|n| n[2].parent = Some(NodeId(1))).contains("is an attribute"));
        assert!(broken(&|n| n[3].parent = Some(NodeId(0))).contains("one label below"));
        assert!(broken(&|n| n[3].path = PathId(9)).contains("not in the dictionary"));
        assert!(broken(&|n| n[1].value = None).contains("attribute without a value"));
        assert!(broken(&|n| n[0].kind = NodeKind::Attribute).contains("one-label path"));
    }

    #[test]
    fn document_order_ids() {
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "Security");
        b.leaf("Symbol", "IBM");
        b.begin("SecInfo");
        b.leaf("Sector", "Tech");
        b.end();
        let doc = b.finish();
        // root, Symbol, SecInfo, Sector
        assert_eq!(doc.len(), 4);
        let ids: Vec<u32> = doc.node_ids().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn value_at_navigates_child_axis() {
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "Security");
        b.begin("SecInfo");
        b.leaf("Sector", "Energy");
        b.end();
        let doc = b.finish();
        let secinfo = vocab.lookup_name("SecInfo").unwrap();
        let sector = vocab.lookup_name("Sector").unwrap();
        assert_eq!(
            doc.value_at(&[secinfo, sector]).map(|v| v.as_str()),
            Some("Energy")
        );
        assert!(doc.value_at(&[sector]).is_none());
    }

    #[test]
    fn paths_are_rooted() {
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "a");
        b.begin("b");
        b.leaf("c", "1");
        b.end();
        let doc = b.finish();
        let last = doc.nodes().last().unwrap();
        assert_eq!(doc.path_of(last.0, &vocab), "/a/b/c");
    }
}
