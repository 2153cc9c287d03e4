//! Typed identifiers for CRUs, satellites and tree edges.

use core::fmt;
use serde::{Deserialize, Serialize};

/// Identifier of a CRU (Context Reasoning Unit) in a [`crate::CruTree`].
/// Indexes are dense; the root is *not* necessarily id 0 (builders decide),
/// though [`crate::TreeBuilder`] always allocates the root first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CruId(pub u32);

impl CruId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CruId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CRU{}", self.0)
    }
}

impl fmt::Display for CruId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CRU{}", self.0)
    }
}

/// Identifier of a satellite (equivalently, a *colour* — the paper paints
/// each satellite with a distinguishable colour, §5.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SatelliteId(pub u32);

impl SatelliteId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SatelliteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sat{}", self.0)
    }
}

impl fmt::Display for SatelliteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sat{}", self.0)
    }
}

/// An edge of the *closed* CRU tree (paper §5.2: all sensors are merged
/// into the dummy node "A", adding one virtual edge below every leaf).
///
/// * `Parent(c)` — the real tree edge from `c`'s parent down to `c`.
///   Cutting it assigns the whole subtree of `c` to `c`'s satellite.
/// * `Sensor(l)` — the virtual edge from leaf `l` down to the dummy sensor
///   node A. Cutting it keeps `l` on the host; only the raw sensor frames
///   cross the link (β weight `c_{s,l}`, §5.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TreeEdge {
    /// Edge from the parent of the given CRU down to it.
    Parent(CruId),
    /// Virtual edge from the given *leaf* CRU down to the dummy sensor node.
    Sensor(CruId),
}

impl TreeEdge {
    /// The CRU at the *lower* end's top: the node whose subtree is separated
    /// when this edge is cut. For `Parent(c)` that is `c`; for `Sensor(l)`
    /// the separated subtree is empty and the reference node is `l`.
    #[inline]
    pub fn node(self) -> CruId {
        match self {
            TreeEdge::Parent(c) | TreeEdge::Sensor(c) => c,
        }
    }
}

impl fmt::Debug for TreeEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for TreeEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeEdge::Parent(c) => write!(f, "⟨parent,{c}⟩"),
            TreeEdge::Sensor(c) => write!(f, "⟨A,{c}⟩"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_like_the_paper() {
        assert_eq!(CruId(5).to_string(), "CRU5");
        assert_eq!(format!("{:?}", SatelliteId(2)), "Sat2");
        assert_eq!(TreeEdge::Parent(CruId(6)).to_string(), "⟨parent,CRU6⟩");
        assert_eq!(TreeEdge::Sensor(CruId(10)).to_string(), "⟨A,CRU10⟩");
    }

    #[test]
    fn tree_edge_accessors() {
        assert_eq!(TreeEdge::Parent(CruId(3)).node(), CruId(3));
        assert_eq!(TreeEdge::Sensor(CruId(3)).node(), CruId(3));
    }

    #[test]
    fn ordering_is_stable_for_cut_normalisation() {
        let mut v = [TreeEdge::Sensor(CruId(1)), TreeEdge::Parent(CruId(2))];
        v.sort();
        assert_eq!(v[0], TreeEdge::Parent(CruId(2)));
    }
}
