//! The simulated message fabric: topology, loss, duplication and
//! partitions.
//!
//! The engine asks the [`Network`] how a send from `a` to `b` behaves:
//! which deliveries happen (possibly none when dropped, possibly two
//! when duplicated) and after what delay. Partitions model the
//! soft-fork conditions of paper §IV-A, where parts of the network
//! build on different blocks.

use std::collections::BTreeSet;

use dlt_crypto::codec::{Decode, DecodeError, Encode};

use crate::latency::LatencyModel;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Identifier of a simulated node (its index in the simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl Encode for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for NodeId {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(NodeId(usize::decode(input)?))
    }
}

/// Network configuration and fault state.
#[derive(Debug, Clone)]
pub struct Network {
    latency: LatencyModel,
    drop_probability: f64,
    duplicate_probability: f64,
    /// Explicit adjacency lists; `None` means a full mesh.
    topology: Option<Vec<Vec<NodeId>>>,
    /// Partition group per node; nodes in different groups can't talk.
    /// Empty when the network is whole.
    groups: Vec<usize>,
}

impl Network {
    /// Creates a fault-free full-mesh network with the given latency.
    pub fn new(latency: LatencyModel) -> Self {
        Network {
            latency,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            topology: None,
            groups: Vec::new(),
        }
    }

    /// Sets the probability that any message is silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_drop_probability(&mut self, p: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_probability = p;
        self
    }

    /// Sets the probability that a delivered message arrives twice.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_duplicate_probability(&mut self, p: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplicate_probability = p;
        self
    }

    /// The current latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Installs an explicit topology: `topology[i]` lists the peers of
    /// node `i`. Without this, the network is a full mesh.
    pub fn set_topology(&mut self, topology: Vec<Vec<NodeId>>) -> &mut Self {
        self.topology = Some(topology);
        self
    }

    /// Splits the network into disjoint partitions. Nodes absent from
    /// every listed group land in an implicit extra group together.
    pub fn partition(&mut self, node_count: usize, parts: &[&[NodeId]]) -> &mut Self {
        let mut groups = vec![usize::MAX; node_count];
        for (g, part) in parts.iter().enumerate() {
            for node in *part {
                groups[node.0] = g;
            }
        }
        let spare = parts.len();
        for g in groups.iter_mut() {
            if *g == usize::MAX {
                *g = spare;
            }
        }
        self.groups = groups;
        self
    }

    /// Removes any partition, making the network whole again.
    pub fn heal(&mut self) -> &mut Self {
        self.groups.clear();
        self
    }

    /// Whether a message from `from` can currently reach `to`.
    pub fn can_reach(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        if !self.groups.is_empty() {
            let (Some(&ga), Some(&gb)) = (self.groups.get(from.0), self.groups.get(to.0)) else {
                return false;
            };
            if ga != gb {
                return false;
            }
        }
        match &self.topology {
            None => true,
            Some(adj) => adj.get(from.0).is_some_and(|peers| peers.contains(&to)),
        }
    }

    /// The `k`-th peer `from` addresses with a broadcast, or `None`
    /// past the last one. Peers come in adjacency-list order under an
    /// explicit topology and in id order on a full mesh of `node_count`
    /// nodes; partitions do not remove peers (the send is dropped).
    pub(crate) fn peer(&self, from: NodeId, k: usize, node_count: usize) -> Option<NodeId> {
        match &self.topology {
            Some(adj) => adj.get(from.0)?.get(k).copied(),
            None => {
                let id = if k < from.0 { k } else { k + 1 };
                (id < node_count).then_some(NodeId(id))
            }
        }
    }

    /// Decides the fate of one message: fills `out` (cleared first)
    /// with its delivery delays, none when dropped and two when
    /// duplicated.
    pub(crate) fn deliveries(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut SimRng,
        out: &mut Vec<SimTime>,
    ) {
        out.clear();
        if !self.can_reach(from, to) || rng.chance(self.drop_probability) {
            return;
        }
        out.push(self.latency.sample(rng));
        if rng.chance(self.duplicate_probability) {
            out.push(self.latency.sample(rng));
        }
    }

    /// The set of partition groups currently in force (for assertions in
    /// tests); empty when the network is whole.
    pub fn partition_groups(&self) -> Vec<BTreeSet<NodeId>> {
        if self.groups.is_empty() {
            return Vec::new();
        }
        let max_group = self.groups.iter().copied().max().unwrap_or(0);
        let mut out = vec![BTreeSet::new(); max_group + 1];
        for (i, &g) in self.groups.iter().enumerate() {
            out[g].insert(NodeId(i));
        }
        out.retain(|set| !set.is_empty());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(LatencyModel::Fixed(SimTime::from_millis(10)))
    }

    fn peers(n: &Network, from: NodeId, node_count: usize) -> Vec<NodeId> {
        (0..).map_while(|k| n.peer(from, k, node_count)).collect()
    }

    fn deliveries(n: &Network, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = vec![SimTime::from_secs(99)];
        n.deliveries(NodeId(0), NodeId(1), rng, &mut out);
        out
    }

    #[test]
    fn node_id_codec_round_trip() {
        for id in [NodeId(0), NodeId(7), NodeId(usize::MAX)] {
            let bytes = id.encode_to_vec();
            assert_eq!(bytes.len(), id.encoded_len());
            let back: NodeId = dlt_crypto::codec::decode_exact(&bytes).unwrap();
            assert_eq!(back, id);
        }
    }

    #[test]
    fn full_mesh_reaches_everyone_but_self() {
        let n = net();
        assert!(n.can_reach(NodeId(0), NodeId(1)));
        assert!(n.can_reach(NodeId(5), NodeId(0)));
        assert!(!n.can_reach(NodeId(3), NodeId(3)));
        assert_eq!(
            peers(&n, NodeId(1), 4),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
        assert_eq!(peers(&n, NodeId(0), 3), vec![NodeId(1), NodeId(2)]);
        assert_eq!(peers(&n, NodeId(2), 3), vec![NodeId(0), NodeId(1)]);
        assert_eq!(peers(&n, NodeId(0), 1), Vec::<NodeId>::new());
    }

    #[test]
    fn explicit_topology_restricts_reachability() {
        let mut n = net();
        n.set_topology(vec![
            vec![NodeId(1)],            // 0 -> 1
            vec![NodeId(0), NodeId(2)], // 1 -> 0, 2
            vec![],                     // 2 -> nobody
        ]);
        assert!(n.can_reach(NodeId(0), NodeId(1)));
        assert!(!n.can_reach(NodeId(0), NodeId(2)));
        assert!(n.can_reach(NodeId(1), NodeId(2)));
        assert!(!n.can_reach(NodeId(2), NodeId(0)));
        assert_eq!(peers(&n, NodeId(1), 3), vec![NodeId(0), NodeId(2)]);
        assert_eq!(peers(&n, NodeId(2), 3), Vec::<NodeId>::new());
        assert_eq!(peers(&n, NodeId(5), 3), Vec::<NodeId>::new());
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut n = net();
        n.partition(4, &[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]]);
        assert!(n.can_reach(NodeId(0), NodeId(1)));
        assert!(n.can_reach(NodeId(2), NodeId(3)));
        assert!(!n.can_reach(NodeId(0), NodeId(2)));
        assert!(!n.can_reach(NodeId(3), NodeId(1)));
        assert_eq!(n.partition_groups().len(), 2);
        n.heal();
        assert!(n.can_reach(NodeId(0), NodeId(2)));
        assert!(n.partition_groups().is_empty());
    }

    #[test]
    fn unlisted_nodes_form_spare_group() {
        let mut n = net();
        n.partition(4, &[&[NodeId(0)]]);
        // 1, 2, 3 share the spare group.
        assert!(n.can_reach(NodeId(1), NodeId(2)));
        assert!(!n.can_reach(NodeId(0), NodeId(1)));
    }

    #[test]
    fn drop_probability_drops_everything_at_one() {
        let mut n = net();
        n.set_drop_probability(1.0);
        let mut rng = SimRng::new(1);
        for _ in 0..50 {
            assert!(deliveries(&n, &mut rng).is_empty());
        }
    }

    #[test]
    fn no_faults_delivers_exactly_once() {
        let n = net();
        let mut rng = SimRng::new(2);
        for _ in 0..50 {
            assert_eq!(deliveries(&n, &mut rng), vec![SimTime::from_millis(10)]);
        }
    }

    #[test]
    fn duplication_sometimes_delivers_twice() {
        let mut n = net();
        n.set_duplicate_probability(0.5);
        let mut rng = SimRng::new(3);
        let twos = (0..1000)
            .filter(|_| deliveries(&n, &mut rng).len() == 2)
            .count();
        assert!((300..700).contains(&twos), "dup count {twos}");
    }

    #[test]
    fn partial_drop_rate_is_statistical() {
        let mut n = net();
        n.set_drop_probability(0.3);
        let mut rng = SimRng::new(4);
        let dropped = (0..10_000)
            .filter(|_| deliveries(&n, &mut rng).is_empty())
            .count();
        assert!((2500..3500).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn drop_probability_validated() {
        net().set_drop_probability(1.5);
    }
}
