//! Dense flow-keyed tables.
//!
//! [`FlowId`]s are packed — high bits name the opening node, low bits a
//! per-node counter (see [`crate::sim::flow_id`]) — so a per-node vector
//! indexed by the counter replaces the `BTreeMap`s the per-packet hot
//! path used to walk. A lookup is two array indexings: no comparisons,
//! no pointer chasing, and contiguous flows of one node stay on the same
//! cache lines. Entries are never compacted (flow ids are never reused
//! within a run), matching the append-only lifetime the simulator's
//! flow tables already had.

use crate::packet::{FlowId, NodeId, FLOW_NTH_BITS};

/// Recompose the packed [`FlowId`] from slab coordinates (inverse of
/// [`FlowId::node_index`] / [`FlowId::per_node_index`]).
fn compose(node: usize, nth: usize) -> FlowId {
    let node = u32::try_from(node).expect("invariant: node index fits u32");
    let nth = u32::try_from(nth).expect("invariant: per-node flow index fits u32");
    FlowId((node << FLOW_NTH_BITS) | nth)
}

/// A two-level slab keyed by packed [`FlowId`]: outer index the opening
/// node, inner index the node's flow counter.
pub struct FlowSlab<T> {
    per_node: Vec<Vec<Option<T>>>,
    len: usize,
}

impl<T> FlowSlab<T> {
    /// An empty slab for a topology of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        let mut per_node = Vec::new();
        per_node.resize_with(nodes, Vec::new);
        FlowSlab { per_node, len: 0 }
    }

    /// The value stored for `id`, if any.
    #[inline]
    pub fn get(&self, id: FlowId) -> Option<&T> {
        self.per_node
            .get(id.node_index())?
            .get(id.per_node_index())?
            .as_ref()
    }

    /// Mutable access to the value stored for `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        self.per_node
            .get_mut(id.node_index())?
            .get_mut(id.per_node_index())?
            .as_mut()
    }

    /// Store `value` for `id`, growing the node's lane as needed.
    /// Returns the previous value, if any.
    pub fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
        let lane = self
            .per_node
            .get_mut(id.node_index())
            .expect("flow id names a node outside the topology");
        let i = id.per_node_index();
        if lane.len() <= i {
            lane.resize_with(i + 1, || None);
        }
        let old = lane[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove and return the value stored for `id`, if any.
    pub fn take(&mut self, id: FlowId) -> Option<T> {
        let v = self
            .per_node
            .get_mut(id.node_index())?
            .get_mut(id.per_node_index())?
            .take();
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Iterate every stored `(id, value)` pair, in `(node, counter)`
    /// order — deterministic, so callers may act on entries in iteration
    /// order without making the run depend on insertion history.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.per_node.iter().enumerate().flat_map(|(node, lane)| {
            lane.iter()
                .enumerate()
                .filter_map(move |(nth, v)| v.as_ref().map(|v| (compose(node, nth), v)))
        })
    }

    /// Iterate the stored `(id, value)` pairs whose ids were allocated
    /// by `node`, in counter order.
    pub fn node_iter(&self, node: NodeId) -> impl Iterator<Item = (FlowId, &T)> {
        let idx = usize::try_from(node.0).expect("invariant: node index fits usize");
        self.per_node
            .get(idx)
            .map(|l| l.as_slice())
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .filter_map(move |(nth, v)| v.as_ref().map(|v| (compose(idx, nth), v)))
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NodeId;
    use crate::sim::flow_id;

    #[test]
    fn insert_get_take_roundtrip() {
        let mut s: FlowSlab<u64> = FlowSlab::new(4);
        let a = flow_id(NodeId(1), 0);
        let b = flow_id(NodeId(1), 7); // sparse within the node's lane
        let c = flow_id(NodeId(3), 0);
        assert!(s.is_empty());
        assert_eq!(s.insert(a, 10), None);
        assert_eq!(s.insert(b, 11), None);
        assert_eq!(s.insert(c, 12), None);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get(b), Some(&11));
        assert_eq!(s.get(flow_id(NodeId(1), 3)), None, "gap stays empty");
        *s.get_mut(c).expect("invariant: c was just inserted") += 1;
        assert_eq!(s.get(c), Some(&13));
        assert_eq!(s.take(b), Some(11));
        assert_eq!(s.take(b), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut s: FlowSlab<&str> = FlowSlab::new(2);
        let id = flow_id(NodeId(0), 5);
        assert_eq!(s.insert(id, "x"), None);
        assert_eq!(s.insert(id, "y"), Some("x"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(id), Some(&"y"));
    }

    #[test]
    fn lookups_outside_the_node_range_are_none() {
        let s: FlowSlab<u8> = FlowSlab::new(1);
        assert_eq!(s.get(flow_id(NodeId(3), 0)), None);
    }

    #[test]
    fn iteration_is_ordered_and_node_scoped() {
        let mut s: FlowSlab<u32> = FlowSlab::new(4);
        let ids = [
            flow_id(NodeId(2), 1),
            flow_id(NodeId(0), 0),
            flow_id(NodeId(2), 0),
            flow_id(NodeId(3), 5),
        ];
        for (i, &id) in ids.iter().enumerate() {
            s.insert(id, u32::try_from(i).expect("small"));
        }
        s.take(flow_id(NodeId(2), 0));
        let all: Vec<_> = s.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(
            all,
            vec![
                (flow_id(NodeId(0), 0), 1),
                (flow_id(NodeId(2), 1), 0),
                (flow_id(NodeId(3), 5), 3),
            ]
        );
        let of_2: Vec<_> = s.node_iter(NodeId(2)).map(|(id, &v)| (id, v)).collect();
        assert_eq!(of_2, vec![(flow_id(NodeId(2), 1), 0)]);
        assert_eq!(s.node_iter(NodeId(9)).count(), 0, "out of range is empty");
    }
}
