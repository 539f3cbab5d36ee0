//! Node identity.

use std::fmt;

/// Identifier of a node (a participating object's location) in a network.
///
/// The paper requires participating objects to be totally ordered so a
/// unique resolver can be elected ("object names and the lexicographic
/// ordering could be used", §4.1); `NodeId`'s derived `Ord` provides that
/// order.
///
/// # Examples
///
/// ```
/// use caex_net::NodeId;
///
/// let o1 = NodeId::new(1);
/// let o2 = NodeId::new(2);
/// assert!(o2 > o1); // O2 wins resolver election over O1
/// assert_eq!(o1.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId::new(index)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_index() {
        assert!(NodeId::new(0) < NodeId::new(1));
        assert!(NodeId::new(10) > NodeId::new(9));
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(NodeId::new(3).to_string(), "O3");
    }

    #[test]
    fn conversions_round_trip() {
        let id: NodeId = 5u32.into();
        assert_eq!(u32::from(id), 5);
    }
}
