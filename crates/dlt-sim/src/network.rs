//! The simulated message fabric: who can reach whom, and after what
//! delay.
//!
//! The engine asks the [`Network`] how a send from `a` to `b` behaves:
//! whether `b` is a peer of `a` (a full mesh unless an explicit
//! topology is installed) and, if so, the latency of its one delivery.
//! Loss, duplication and the partitions behind the soft forks of paper
//! §IV-A are injected by a [`FaultInterceptor`](crate::fault::FaultInterceptor),
//! which rewrites the deliveries the network decided.

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

/// Network topology and latency.
#[derive(Debug, Clone)]
pub struct Network {
    latency: LatencyModel,
    /// Explicit adjacency lists; `None` means a full mesh.
    topology: Option<Vec<Vec<NodeId>>>,
}

impl Network {
    /// Creates a full-mesh network with the given latency.
    pub(crate) fn new(latency: LatencyModel) -> Self {
        Network {
            latency,
            topology: None,
        }
    }

    /// Installs an explicit topology: `topology[i]` lists the peers of
    /// node `i`. Without this, the network is a full mesh.
    pub fn set_topology(&mut self, topology: Vec<Vec<NodeId>>) -> &mut Self {
        self.topology = Some(topology);
        self
    }

    /// Whether a message from `from` can reach `to`.
    fn can_reach(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        match &self.topology {
            None => true,
            Some(adj) => adj.get(from.0).is_some_and(|peers| peers.contains(&to)),
        }
    }

    /// The `k`-th peer `from` addresses with a broadcast, or `None`
    /// past the last one. Peers come in adjacency-list order under an
    /// explicit topology and in id order on a full mesh of `node_count`
    /// nodes; a partition does not remove peers (the fault interceptor
    /// drops the send).
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
    /// with its one delivery delay, or leaves it empty when `to` is not
    /// a peer of `from`.
    pub(crate) fn deliveries(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut SimRng,
        out: &mut Vec<SimTime>,
    ) {
        out.clear();
        if !self.can_reach(from, to) {
            return;
        }
        // The two unused draws keep every seed's schedule byte-identical.
        rng.unit();
        out.push(self.latency.sample(rng));
        rng.unit();
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
    fn no_faults_delivers_exactly_once() {
        let n = net();
        let mut rng = SimRng::new(2);
        for _ in 0..50 {
            assert_eq!(deliveries(&n, &mut rng), vec![SimTime::from_millis(10)]);
        }
        // A fixed latency draws nothing, so the stream moved by exactly
        // the two draws each delivery makes around its sample.
        let mut reference = SimRng::new(2);
        for _ in 0..100 {
            reference.unit();
        }
        assert_eq!(rng.unit(), reference.unit());
    }
}
