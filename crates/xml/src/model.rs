//! Arena-based XML document model.

use crate::interner::Symbol;
use crate::parser::MAX_XML_DEPTH;
use crate::paths::PathId;
// (Symbol is used in public fields and method signatures below.)
use crate::value::Value;
use crate::Vocabulary;
use std::fmt;

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
/// The check is a table built once per vocabulary: per path id, the path
/// one label up (or "a root path", or why no node may carry it) and the
/// path's name. "One label below the parent's path" is then one integer
/// compare. [`Document::from_preorder`] applies exactly these rules, so a
/// reader that has run a list through [`PreorderCheck::admit`] once (say,
/// when verifying a stored image) knows that building the document from
/// the same list and check later cannot fail.
#[derive(Debug, Clone)]
pub struct PreorderCheck {
    /// Per path id: what a node at that path asks of its parent, and its
    /// name (the path's last label).
    slots: Box<[(Up, Symbol)]>,
}

/// A path's table entry: the path one label up, as far as it matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Up {
    /// A one-label path: the root's.
    Root,
    /// The path one label up.
    Path(PathId),
    /// A path whose prefix is not in the dictionary: no parent carries it.
    Orphan,
    /// A path with no labels.
    NoLabels,
    /// A path whose last label is not an interned name.
    UnknownName,
    /// A path deeper than [`MAX_XML_DEPTH`].
    TooDeep,
}

/// The first rule a pre-order node list breaks, as a small code; its
/// text is rendered by `Display` only when it is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreorderFault {
    /// The list has no entries.
    Empty,
    /// A node's path id is not in the dictionary.
    UnknownPath {
        /// Index of the node in the list.
        node: u32,
        /// Its path id.
        path: PathId,
    },
    /// A node's path has no labels.
    NoLabels {
        /// Index of the node in the list.
        node: u32,
        /// Its path id.
        path: PathId,
    },
    /// A node's name is not interned.
    UnknownName {
        /// Index of the node in the list.
        node: u32,
        /// The name.
        name: Symbol,
    },
    /// A node's path is deeper than [`MAX_XML_DEPTH`].
    TooDeep {
        /// Index of the node in the list.
        node: u32,
    },
    /// A node other than the first has no parent.
    NoParent {
        /// Index of the node in the list.
        node: u32,
    },
    /// The first node is not an element at a one-label path.
    RootShape,
    /// The first node has a parent.
    RootHasParent,
    /// A node's parent is not an earlier node.
    ParentAfter {
        /// Index of the node in the list.
        node: u32,
        /// Its parent.
        parent: NodeId,
    },
    /// A node's parent is an attribute.
    ParentIsAttribute {
        /// Index of the node in the list.
        node: u32,
        /// Its parent.
        parent: NodeId,
    },
    /// A node's path is not its parent's path plus one label.
    NotBelowParent {
        /// Index of the node in the list.
        node: u32,
        /// Its path id.
        path: PathId,
    },
    /// An attribute has no value.
    AttributeWithoutValue {
        /// Index of the node in the list.
        node: u32,
    },
}

impl fmt::Display for PreorderFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PreorderFault::Empty => write!(f, "a document has at least a root node"),
            PreorderFault::UnknownPath { node, path } => write!(
                f,
                "node {node}: path id {} is not in the dictionary",
                path.0
            ),
            PreorderFault::NoLabels { node, path } => {
                write!(f, "node {node}: path id {} has no labels", path.0)
            }
            PreorderFault::UnknownName { node, name } => {
                write!(f, "node {node}: name {name} is not interned")
            }
            PreorderFault::TooDeep { node } => {
                write!(f, "node {node}: nested deeper than {MAX_XML_DEPTH} levels")
            }
            PreorderFault::NoParent { node } => write!(f, "node {node} has no parent"),
            PreorderFault::RootShape => {
                write!(f, "the root is not an element at a one-label path")
            }
            PreorderFault::RootHasParent => write!(f, "the root has a parent"),
            PreorderFault::ParentAfter { node, parent } => {
                write!(f, "node {node}: parent {} does not precede it", parent.0)
            }
            PreorderFault::ParentIsAttribute { node, parent } => {
                write!(f, "node {node}: parent {} is an attribute", parent.0)
            }
            PreorderFault::NotBelowParent { node, path } => write!(
                f,
                "node {node}: path id {} is not one label below its parent's",
                path.0
            ),
            PreorderFault::AttributeWithoutValue { node } => {
                write!(f, "node {node}: attribute without a value")
            }
        }
    }
}

impl std::error::Error for PreorderFault {}

impl PreorderCheck {
    /// The check for lists over `vocab`.
    pub fn new(vocab: &Vocabulary) -> Self {
        let slots = vocab
            .paths
            .iter()
            .map(|(_, labels)| {
                let Some((&name, prefix)) = labels.split_last() else {
                    return (Up::NoLabels, Symbol(0));
                };
                let up = if name.index() >= vocab.names.len() {
                    Up::UnknownName
                } else if labels.len() > MAX_XML_DEPTH {
                    Up::TooDeep
                } else if prefix.is_empty() {
                    Up::Root
                } else {
                    vocab.paths.lookup(prefix).map_or(Up::Orphan, Up::Path)
                };
                (up, name)
            })
            .collect();
        Self { slots }
    }

    /// Admits the next node of a list and returns its name, or the first
    /// rule it breaks. `seen` holds the list's nodes admitted so far —
    /// per node its path, or `None` for an attribute, which can be no
    /// node's parent — and the node is appended to it; it starts empty
    /// for each list.
    #[inline]
    pub fn admit(
        &self,
        seen: &mut Vec<Option<PathId>>,
        path: PathId,
        parent: Option<NodeId>,
        kind: NodeKind,
        has_value: bool,
    ) -> Result<Symbol, PreorderFault> {
        let node = seen.len() as u32;
        let Some(&(up, name)) = self.slots.get(path.index()) else {
            return Err(PreorderFault::UnknownPath { node, path });
        };
        match (up, parent) {
            (Up::NoLabels, _) => return Err(PreorderFault::NoLabels { node, path }),
            (Up::UnknownName, _) => return Err(PreorderFault::UnknownName { node, name }),
            (Up::TooDeep, _) => return Err(PreorderFault::TooDeep { node }),
            (Up::Root, None) if node == 0 && kind == NodeKind::Element => {}
            (_, None) if node == 0 => return Err(PreorderFault::RootShape),
            (_, None) => return Err(PreorderFault::NoParent { node }),
            (_, Some(_)) if node == 0 => return Err(PreorderFault::RootHasParent),
            (up, Some(parent)) => match seen.get(parent.index()) {
                None => return Err(PreorderFault::ParentAfter { node, parent }),
                Some(None) => return Err(PreorderFault::ParentIsAttribute { node, parent }),
                Some(&Some(parent_path)) if up != Up::Path(parent_path) => {
                    return Err(PreorderFault::NotBelowParent { node, path })
                }
                Some(_) => {}
            },
        }
        if kind == NodeKind::Attribute && !has_value {
            return Err(PreorderFault::AttributeWithoutValue { node });
        }
        seen.push((kind == NodeKind::Element).then_some(path));
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

    /// Builds a document from a pre-order node list — the way a stored
    /// image hands documents back, with nothing to tokenise or intern.
    /// Names come from the paths, children lists from the order of the
    /// entries; the list is held to the rules of `check` (built once for
    /// the vocabulary) and the first broken one is the error.
    pub fn from_preorder(
        check: &PreorderCheck,
        nodes: impl IntoIterator<Item = PreorderNode>,
    ) -> Result<Self, PreorderFault> {
        let nodes = nodes.into_iter();
        let mut seen = Vec::with_capacity(nodes.size_hint().0);
        let mut arena: Vec<Node> = Vec::with_capacity(nodes.size_hint().0);
        for n in nodes {
            let name = check.admit(&mut seen, n.path, n.parent, n.kind, n.value.is_some())?;
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
            return Err(PreorderFault::Empty);
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
    use super::{Document, NodeId, NodeKind, PreorderCheck, PreorderNode, MAX_XML_DEPTH};
    use crate::{DocBuilder, PathId};
    use crate::{Symbol, Vocabulary};

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
        let rebuilt = Document::from_preorder(&PreorderCheck::new(&vocab), preorder(&doc)).unwrap();
        assert_eq!(rebuilt, doc);
    }

    #[test]
    fn from_preorder_rejects_every_broken_rule() {
        let mut vocab = Vocabulary::new();
        let doc = crate::parse_document(r#"<a x="1"><b><c>2</c></b></a>"#, &mut vocab).unwrap();
        let good = preorder(&doc);
        let check = PreorderCheck::new(&vocab);
        assert!(Document::from_preorder(&check, good.clone()).is_ok());
        let broken = |edit: &dyn Fn(&mut Vec<PreorderNode>)| {
            let mut nodes = good.clone();
            edit(&mut nodes);
            Document::from_preorder(&check, nodes)
                .unwrap_err()
                .to_string()
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
    fn paths_no_node_may_carry_are_refused_with_their_reason() {
        let mut vocab = Vocabulary::new();
        let (a, b) = (vocab.names.intern("a"), vocab.names.intern("b"));
        let root = vocab.paths.intern(&[a]);
        // `/a/b` itself is not in the dictionary.
        let orphan = vocab.paths.intern(&[a, b, b]);
        let empty = vocab.paths.intern(&[]);
        let unnamed = vocab.paths.intern(&[a, Symbol(9)]);
        let deep = vocab.paths.intern(&vec![a; MAX_XML_DEPTH + 1]);
        let check = PreorderCheck::new(&vocab);
        let mut seen = Vec::new();
        check
            .admit(&mut seen, root, None, NodeKind::Element, false)
            .unwrap();
        let child = |path| {
            check
                .admit(
                    &mut seen.clone(),
                    path,
                    Some(NodeId(0)),
                    NodeKind::Element,
                    false,
                )
                .unwrap_err()
                .to_string()
        };
        assert!(child(orphan).contains("one label below"));
        assert!(child(empty).contains("has no labels"));
        assert!(child(unnamed).contains("name sym#9 is not interned"));
        assert!(child(deep).contains("nested deeper"));
        assert!(child(PathId(99)).contains("not in the dictionary"));
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
