//! Rank-to-node placement policies.
//!
//! The paper's cluster deployments: one rank per node up to 144 processes,
//! two ranks per dual-processor node beyond (sharing the NIC — the cause of
//! the slowdown at 169+ processes in Fig. 6 and of 32≈64 in Fig. 8). A grid
//! deployment lists its nodes cluster by cluster ([`Placement::explicit`]).

use ftmpi_net::{NodeId, Topology};

use crate::types::Rank;

/// A resolved placement: node of every rank.
#[derive(Debug, Clone)]
pub struct Placement {
    nodes: Vec<NodeId>,
}

impl Placement {
    /// Place each rank on its own node (`ranks <= topology nodes`).
    pub fn one_per_node(topo: &Topology, ranks: usize) -> Placement {
        assert!(
            ranks <= topo.node_count(),
            "need {ranks} nodes, topology has {}",
            topo.node_count()
        );
        Placement {
            nodes: (0..ranks).map(NodeId).collect(),
        }
    }

    /// Place two ranks per (dual-processor) node: ranks 0,1 on node 0, etc.
    pub fn two_per_node(topo: &Topology, ranks: usize) -> Placement {
        let needed = ranks.div_ceil(2);
        assert!(
            needed <= topo.node_count(),
            "need {needed} nodes, topology has {}",
            topo.node_count()
        );
        Placement {
            nodes: (0..ranks).map(|r| NodeId(r / 2)).collect(),
        }
    }

    /// The paper's cluster policy: single-process deployments up to
    /// `threshold` ranks, bi-processor deployments beyond.
    pub fn paper_cluster(topo: &Topology, ranks: usize, threshold: usize) -> Placement {
        if ranks <= threshold {
            Placement::one_per_node(topo, ranks)
        } else {
            Placement::two_per_node(topo, ranks)
        }
    }

    /// Explicit placement.
    pub fn explicit(nodes: Vec<NodeId>) -> Placement {
        Placement { nodes }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.nodes.len()
    }

    /// Node of a rank.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.nodes[rank]
    }

    /// All rank nodes in rank order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Ranks co-located on the same node as `rank` (including itself).
    pub fn colocated(&self, rank: Rank) -> Vec<Rank> {
        let node = self.nodes[rank];
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| **n == node)
            .map(|(r, _)| r)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi_net::LinkConfig;

    #[test]
    fn one_per_node_is_identity() {
        let topo = Topology::single_cluster(8, LinkConfig::gige());
        let p = Placement::one_per_node(&topo, 8);
        assert_eq!(p.node_of(5), NodeId(5));
        assert_eq!(p.colocated(3), vec![3]);
    }

    #[test]
    fn two_per_node_shares_nics() {
        let topo = Topology::single_cluster(4, LinkConfig::gige());
        let p = Placement::two_per_node(&topo, 8);
        assert_eq!(p.node_of(0), NodeId(0));
        assert_eq!(p.node_of(1), NodeId(0));
        assert_eq!(p.node_of(7), NodeId(3));
        assert_eq!(p.colocated(0), vec![0, 1]);
    }

    #[test]
    fn paper_cluster_switches_at_threshold() {
        let topo = Topology::single_cluster(150, LinkConfig::gige());
        let small = Placement::paper_cluster(&topo, 144, 144);
        assert_eq!(small.node_of(143), NodeId(143));
        let big = Placement::paper_cluster(&topo, 169, 144);
        assert_eq!(big.node_of(168), NodeId(84));
    }

    #[test]
    #[should_panic(expected = "need")]
    fn overflow_rejected() {
        let topo = Topology::single_cluster(2, LinkConfig::gige());
        Placement::one_per_node(&topo, 3);
    }
}
