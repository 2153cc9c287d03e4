//! The ordered (planar) CRU tree.
//!
//! The paper's model (§3) is a tree of CRUs whose *drawing* matters: the
//! assignment-graph construction of §5.2 is a planar dual, so children keep
//! the left-to-right order in which they are attached. The left-to-right
//! order of the leaves is what the dual construction (in `hsa-assign`)
//! indexes its faces with, and "leftmost child" drives the σ labelling of
//! Figure 8.

use crate::hash::{Fnv1a, HashCache};
use crate::{CruId, TreeError};
use serde::{Deserialize, Serialize};

/// One CRU node.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq, Hash)]
pub struct CruNode {
    /// Parent CRU; `None` for the root.
    pub parent: Option<CruId>,
    /// Children in left-to-right (planar) order.
    pub children: Vec<CruId>,
    /// Human-readable name (e.g. `"QRS-detect"`); defaults to `CRU<i>`.
    pub name: String,
}

/// An ordered rooted tree of CRUs, stored as an arena.
///
/// Construct with [`TreeBuilder`] (which can only build well-formed trees)
/// or deserialise and [`CruTree::validate`].
///
/// Carries a lazily-computed [`content_hash`](CruTree::content_hash):
/// trees are immutable after construction (no `&mut` accessor exists), so
/// the cache is filled at most once per tree and shared by every
/// subsequent identity check.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CruTree {
    nodes: Vec<CruNode>,
    root: CruId,
    /// Not part of the value: never serialised, empty when read.
    #[serde(skip)]
    cache: HashCache,
}

impl CruTree {
    /// The FNV-1a content hash of the tree's structure: node count, root,
    /// and per node its parent, ordered children and name. Computed once
    /// and cached ([`HashCache`]); subsequent calls are one atomic load.
    pub fn content_hash(&self) -> u64 {
        self.cache.get_or_compute(|| {
            let mut h = Fnv1a::new();
            h.write_u64(self.nodes.len() as u64);
            h.write_u32(self.root.0);
            for n in &self.nodes {
                // `parent + 1` with 0 for "none" keeps the stream dense.
                h.write_u32(n.parent.map_or(0, |p| p.0 + 1));
                h.write_u64(n.children.len() as u64);
                for &c in &n.children {
                    h.write_u32(c.0);
                }
                h.write_bytes(n.name.as_bytes());
            }
            h.finish()
        })
    }

    /// The root CRU (the ultimate reasoning step, consumed by the
    /// application on the host).
    #[inline]
    pub fn root(&self) -> CruId {
        self.root
    }

    /// Number of CRUs.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes (never produced by the builder; kept
    /// for completeness of the container API).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    pub fn node(&self, c: CruId) -> Result<&CruNode, TreeError> {
        self.nodes.get(c.index()).ok_or(TreeError::CruOutOfRange {
            cru: c.0,
            len: self.nodes.len() as u32,
        })
    }

    /// Panicking node lookup for hot loops.
    #[inline]
    pub fn node_unchecked(&self, c: CruId) -> &CruNode {
        &self.nodes[c.index()]
    }

    /// The parent of `c`, or `None` for the root.
    pub fn parent(&self, c: CruId) -> Option<CruId> {
        self.nodes[c.index()].parent
    }

    /// The ordered children of `c`.
    pub fn children(&self, c: CruId) -> &[CruId] {
        &self.nodes[c.index()].children
    }

    /// Whether `c` is a leaf (no children — its inputs come from sensors).
    pub fn is_leaf(&self, c: CruId) -> bool {
        self.nodes[c.index()].children.is_empty()
    }

    /// All CRU ids in pre-order (root, then each subtree left to right).
    pub fn preorder(&self) -> Vec<CruId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(c) = stack.pop() {
            out.push(c);
            // Push children reversed so the leftmost pops first.
            for &ch in self.children(c).iter().rev() {
                stack.push(ch);
            }
        }
        out
    }

    /// `size[c]`, the number of nodes in the subtree of `c` (including
    /// `c`), given the tree's [`CruTree::preorder`]. With it the pre-order
    /// is an index: the subtree of `c` is the `size[c]` positions starting
    /// at `c`'s, its leftmost child (if any) is the next position, and `c`
    /// is a leaf exactly when `size[c] == 1`. The label passes
    /// ([`crate::Colouring::from_preorder`] and its σ/β siblings) walk
    /// that index instead of the node arena.
    pub fn subtree_sizes(&self, preorder: &[CruId]) -> Vec<u32> {
        let mut size = vec![1u32; self.len()];
        for &c in preorder.iter().rev() {
            if let Some(p) = self.parent(c) {
                size[p.index()] += size[c.index()];
            }
        }
        size
    }

    /// All CRU ids in post-order (children before parents) — the order in
    /// which a single processor must execute a subtree.
    pub fn postorder(&self) -> Vec<CruId> {
        let mut out = Vec::with_capacity(self.len());
        self.postorder_rec(self.root, &mut out);
        out
    }

    fn postorder_rec(&self, c: CruId, out: &mut Vec<CruId>) {
        for &ch in self.children(c) {
            self.postorder_rec(ch, out);
        }
        out.push(c);
    }

    /// The leaves in left-to-right planar order — the face indexing of the
    /// dual construction.
    pub fn leaves_in_order(&self) -> Vec<CruId> {
        self.preorder()
            .into_iter()
            .filter(|&c| self.is_leaf(c))
            .collect()
    }

    /// For every node, the half-open interval `[lo, hi)` of leaf positions
    /// (in [`CruTree::leaves_in_order`]) its subtree spans. Leaves span a
    /// single position.
    pub fn leaf_spans(&self) -> Vec<(u32, u32)> {
        let mut spans = vec![(0u32, 0u32); self.len()];
        let mut next_leaf = 0u32;
        self.spans_rec(self.root, &mut next_leaf, &mut spans);
        spans
    }

    fn spans_rec(&self, c: CruId, next_leaf: &mut u32, spans: &mut [(u32, u32)]) {
        let lo = *next_leaf;
        if self.is_leaf(c) {
            *next_leaf += 1;
        } else {
            for &ch in self.children(c) {
                self.spans_rec(ch, next_leaf, spans);
            }
        }
        spans[c.index()] = (lo, *next_leaf);
    }

    /// All CRUs in the subtree rooted at `c` (including `c`), pre-order.
    pub fn subtree(&self, c: CruId) -> Vec<CruId> {
        let mut out = Vec::new();
        let mut stack = vec![c];
        while let Some(x) = stack.pop() {
            out.push(x);
            for &ch in self.children(x).iter().rev() {
                stack.push(ch);
            }
        }
        out
    }

    /// Checks structural invariants (used after deserialisation): exactly
    /// one root, parent/child agreement, all nodes reachable, no cycles.
    pub fn validate(&self) -> Result<(), TreeError> {
        if self.nodes.is_empty() {
            return Err(TreeError::Malformed("empty tree".into()));
        }
        if self.root.index() >= self.nodes.len() {
            return Err(TreeError::Malformed("root id out of range".into()));
        }
        if self.nodes[self.root.index()].parent.is_some() {
            return Err(TreeError::Malformed("root has a parent".into()));
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![self.root];
        let mut count = 0usize;
        while let Some(c) = stack.pop() {
            if seen[c.index()] {
                return Err(TreeError::Malformed(format!("{c} reached twice (cycle?)")));
            }
            seen[c.index()] = true;
            count += 1;
            for &ch in self.children(c) {
                if ch.index() >= self.nodes.len() {
                    return Err(TreeError::Malformed(format!("child {ch} out of range")));
                }
                if self.nodes[ch.index()].parent != Some(c) {
                    return Err(TreeError::Malformed(format!(
                        "{ch} disagrees about its parent"
                    )));
                }
                stack.push(ch);
            }
        }
        if count != self.len() {
            return Err(TreeError::Malformed(format!(
                "{} of {} nodes unreachable from the root",
                self.len() - count,
                self.len()
            )));
        }
        Ok(())
    }

    /// Creates a tree directly from arena parts. Prefer [`TreeBuilder`];
    /// this is the deserialisation/interop entry point and validates.
    pub fn from_parts(nodes: Vec<CruNode>, root: CruId) -> Result<Self, TreeError> {
        let t = CruTree {
            nodes,
            root,
            cache: HashCache::default(),
        };
        t.validate()?;
        Ok(t)
    }
}

/// Builder producing well-formed [`CruTree`]s by construction.
///
/// ```
/// use hsa_tree::TreeBuilder;
/// let mut b = TreeBuilder::new("root");
/// let root = b.root();
/// let left = b.add_child(root, "left");
/// let _ = b.add_child(left, "leaf");
/// let _ = b.add_child(root, "right");
/// let tree = b.build();
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.leaves_in_order().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TreeBuilder {
    nodes: Vec<CruNode>,
}

impl TreeBuilder {
    /// Starts a tree with its root CRU (id 0).
    pub fn new(root_name: impl Into<String>) -> Self {
        TreeBuilder {
            nodes: vec![CruNode {
                parent: None,
                children: Vec::new(),
                name: root_name.into(),
            }],
        }
    }

    /// The root id (always `CRU0` for built trees).
    pub fn root(&self) -> CruId {
        CruId(0)
    }

    /// Appends a child under `parent` (to the right of its siblings) and
    /// returns its id.
    ///
    /// # Panics
    /// Panics if `parent` has not been allocated by this builder.
    pub fn add_child(&mut self, parent: CruId, name: impl Into<String>) -> CruId {
        assert!(parent.index() < self.nodes.len(), "unknown parent");
        let id = CruId(self.nodes.len() as u32);
        self.nodes.push(CruNode {
            parent: Some(parent),
            children: Vec::new(),
            name: name.into(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Number of nodes allocated so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: the builder starts with a root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Finishes the tree.
    pub fn build(self) -> CruTree {
        let t = CruTree {
            nodes: self.nodes,
            root: CruId(0),
            cache: HashCache::default(),
        };
        debug_assert!(t.validate().is_ok());
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root ── a ── (l1, l2)
    ///      └─ b (leaf)
    fn small() -> CruTree {
        let mut b = TreeBuilder::new("root");
        let root = b.root();
        let a = b.add_child(root, "a");
        b.add_child(a, "l1");
        b.add_child(a, "l2");
        b.add_child(root, "b");
        b.build()
    }

    #[test]
    fn construction_and_navigation() {
        let t = small();
        assert_eq!(t.len(), 5);
        assert_eq!(t.root(), CruId(0));
        assert_eq!(t.children(CruId(0)), &[CruId(1), CruId(4)]);
        assert_eq!(t.parent(CruId(2)), Some(CruId(1)));
        assert!(t.is_leaf(CruId(2)));
        assert!(!t.is_leaf(CruId(1)));
    }

    #[test]
    fn traversal_orders() {
        let t = small();
        let pre: Vec<u32> = t.preorder().iter().map(|c| c.0).collect();
        assert_eq!(pre, vec![0, 1, 2, 3, 4]);
        let post: Vec<u32> = t.postorder().iter().map(|c| c.0).collect();
        assert_eq!(post, vec![2, 3, 1, 4, 0]);
        assert_eq!(t.subtree_sizes(&t.preorder()), vec![5, 3, 1, 1, 1]);
    }

    #[test]
    fn leaves_and_spans() {
        let t = small();
        let leaves: Vec<u32> = t.leaves_in_order().iter().map(|c| c.0).collect();
        assert_eq!(leaves, vec![2, 3, 4]);
        let spans = t.leaf_spans();
        assert_eq!(spans[0], (0, 3)); // root spans all leaves
        assert_eq!(spans[1], (0, 2)); // a spans l1,l2
        assert_eq!(spans[2], (0, 1));
        assert_eq!(spans[3], (1, 2));
        assert_eq!(spans[4], (2, 3));
    }

    #[test]
    fn subtree_lists_a_node_and_its_descendants() {
        let t = small();
        let sub: Vec<u32> = t.subtree(CruId(1)).iter().map(|c| c.0).collect();
        assert_eq!(sub, vec![1, 2, 3]);
    }

    #[test]
    fn single_node_tree() {
        let t = TreeBuilder::new("only").build();
        assert_eq!(t.len(), 1);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.leaves_in_order(), vec![CruId(0)]);
        assert_eq!(t.leaf_spans()[0], (0, 1));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_catches_malformed_trees() {
        // Child disagreeing about its parent.
        let nodes = vec![
            CruNode {
                parent: None,
                children: vec![CruId(1)],
                name: "r".into(),
            },
            CruNode {
                parent: None, // wrong: should be Some(CruId(0))
                children: vec![],
                name: "x".into(),
            },
        ];
        assert!(CruTree::from_parts(nodes, CruId(0)).is_err());

        // Unreachable node.
        let nodes = vec![
            CruNode {
                parent: None,
                children: vec![],
                name: "r".into(),
            },
            CruNode {
                parent: Some(CruId(0)),
                children: vec![],
                name: "orphan".into(),
            },
        ];
        assert!(CruTree::from_parts(nodes, CruId(0)).is_err());

        // Empty tree.
        assert!(CruTree::from_parts(vec![], CruId(0)).is_err());
    }

    #[test]
    fn node_lookup_errors() {
        let t = small();
        assert!(t.node(CruId(99)).is_err());
        assert_eq!(t.node(CruId(1)).unwrap().name, "a");
    }
}
