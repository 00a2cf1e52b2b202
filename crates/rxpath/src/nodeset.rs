//! Node sets: query answers in document order.

use smoqe_xml::NodeId;

/// A set of nodes, stored sorted by [`NodeId`] (= document order in every
/// `Document`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSet {
    nodes: Vec<NodeId>,
}

impl NodeSet {
    /// The empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Builds a set from an arbitrary vector (sorts and dedups).
    pub fn from_vec(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        NodeSet { nodes }
    }

    /// Builds a set from a vector that is already sorted and deduplicated.
    pub fn from_sorted(nodes: Vec<NodeId>) -> Self {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        NodeSet { nodes }
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Iterates in document order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// The nodes as a sorted slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Consumes the set, returning the sorted vector.
    pub fn into_vec(self) -> Vec<NodeId> {
        self.nodes
    }

    /// Union of two sets.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.nodes.len() && j < other.nodes.len() {
            use std::cmp::Ordering::*;
            match self.nodes[i].cmp(&other.nodes[j]) {
                Less => {
                    out.push(self.nodes[i]);
                    i += 1;
                }
                Greater => {
                    out.push(other.nodes[j]);
                    j += 1;
                }
                Equal => {
                    out.push(self.nodes[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.nodes[i..]);
        out.extend_from_slice(&other.nodes[j..]);
        NodeSet { nodes: out }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        NodeSet::from_vec(iter.into_iter().collect())
    }
}

impl IntoIterator for NodeSet {
    type Item = NodeId;
    type IntoIter = std::vec::IntoIter<NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.nodes.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn from_vec_sorts_and_dedups() {
        let s = NodeSet::from_vec(vec![n(3), n(1), n(3), n(2)]);
        assert_eq!(s.as_slice(), &[n(1), n(2), n(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_uses_order() {
        let s = NodeSet::from_vec(vec![n(5), n(10), n(1)]);
        assert!(s.contains(n(5)));
        assert!(!s.contains(n(4)));
    }

    #[test]
    fn union_merges() {
        let a = NodeSet::from_vec(vec![n(1), n(3), n(5)]);
        let b = NodeSet::from_vec(vec![n(2), n(3), n(6)]);
        assert_eq!(a.union(&b).as_slice(), &[n(1), n(2), n(3), n(5), n(6)]);
        assert_eq!(a.union(&NodeSet::new()), a);
    }

    #[test]
    fn collect_from_iterator() {
        let s: NodeSet = [n(2), n(2), n(0)].into_iter().collect();
        assert_eq!(s.as_slice(), &[n(0), n(2)]);
    }
}
