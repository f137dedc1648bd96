//! Deployment construction: compute nodes, checkpoint servers and the
//! service node (dispatcher / mpiexec / checkpoint scheduler) for the three
//! platforms of the paper.

use ftmpi_mpi::{Placement, Rank};
use ftmpi_net::{ClusterId, LinkConfig, NodeId, Topology};

/// A resolved deployment: platform topology plus role assignment.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The platform.
    pub topo: Topology,
    /// Rank → compute node.
    pub placement: Placement,
    /// Checkpoint-server nodes (dedicated machines).
    pub server_nodes: Vec<NodeId>,
    /// Rank → index into `server_nodes`.
    pub server_of_rank: Vec<usize>,
    /// Node hosting the dispatcher / mpiexec / checkpoint scheduler.
    pub service_node: NodeId,
}

impl Deployment {
    /// Single-cluster deployment in the paper's style: one rank per node up
    /// to `single_threshold` ranks, two ranks per dual-processor node
    /// beyond; `servers` dedicated checkpoint-server nodes; compute nodes
    /// spread round-robin over the servers.
    pub fn cluster(
        nranks: usize,
        servers: usize,
        link: LinkConfig,
        single_threshold: usize,
    ) -> Deployment {
        assert!(nranks > 0 && servers > 0);
        let compute_nodes = if nranks <= single_threshold {
            nranks
        } else {
            nranks.div_ceil(2)
        };
        let total = compute_nodes + servers + 1;
        let topo = Topology::single_cluster(total, link);
        let placement = if nranks <= single_threshold {
            Placement::one_per_node(&topo, nranks)
        } else {
            Placement::two_per_node(&topo, nranks)
        };
        let server_nodes: Vec<NodeId> = (compute_nodes..compute_nodes + servers)
            .map(NodeId)
            .collect();
        // "The computing nodes were distributed equally among the
        //  checkpoint servers."
        let server_of_rank = (0..nranks).map(|r| r % servers).collect();
        Deployment {
            topo,
            placement,
            server_nodes,
            server_of_rank,
            service_node: NodeId(total - 1),
        }
    }

    /// Grid deployment over the six-cluster Grid5000 subset: in each
    /// cluster the last `servers_per_cluster` nodes are checkpoint servers
    /// ("each node used a local machine as its checkpoint server"); ranks
    /// fill the remaining nodes cluster by cluster, one rank per node.
    pub fn grid(nranks: usize, servers_per_cluster: usize) -> Deployment {
        assert!(nranks > 0 && servers_per_cluster > 0);
        let topo = Topology::grid5000();
        let mut compute: Vec<NodeId> = Vec::new();
        let mut servers: Vec<NodeId> = Vec::new();
        let mut server_cluster: Vec<ClusterId> = Vec::new();
        for ci in 0..topo.cluster_count() {
            let nodes: Vec<NodeId> = topo.nodes_of(ClusterId(ci)).collect();
            assert!(
                nodes.len() > servers_per_cluster,
                "cluster {ci} too small for {servers_per_cluster} servers"
            );
            let (comp, srv) = nodes.split_at(nodes.len() - servers_per_cluster);
            compute.extend_from_slice(comp);
            servers.extend_from_slice(srv);
            server_cluster.extend(std::iter::repeat_n(ClusterId(ci), servers_per_cluster));
        }
        assert!(
            nranks < compute.len(),
            "grid holds at most {} ranks (one node reserved for services)",
            compute.len() - 1
        );
        // The service node is the last free compute-class node.
        let service_node = *compute.last().expect("grid clusters provide compute nodes");
        let placement = Placement::explicit(compute[..nranks].to_vec());
        // Every rank uses a server in its own cluster, round-robin.
        let mut per_cluster_counter = vec![0usize; topo.cluster_count()];
        let server_of_rank: Vec<usize> = (0..nranks)
            .map(|r: Rank| {
                let c = topo.cluster_of(placement.node_of(r));
                let local: Vec<usize> = (0..servers.len())
                    .filter(|&s| server_cluster[s] == c)
                    .collect();
                let k = per_cluster_counter[c.0];
                per_cluster_counter[c.0] += 1;
                local[k % local.len()]
            })
            .collect();
        Deployment {
            topo,
            placement,
            server_nodes: servers,
            server_of_rank,
            service_node,
        }
    }

    /// The most ranks [`Deployment::grid`] places with
    /// `servers_per_cluster` servers in every cluster, or, if some cluster
    /// has no node left over for computing, `Err` with that cluster's node
    /// count. These are the two conditions `grid` asserts, for callers that
    /// want an error instead of a panic.
    pub fn grid_capacity(servers_per_cluster: usize) -> Result<usize, usize> {
        let topo = Topology::grid5000();
        let sizes = (0..topo.cluster_count()).map(|c| topo.nodes_of(ClusterId(c)).count());
        let smallest = sizes.clone().min().expect("the grid has clusters");
        if smallest <= servers_per_cluster {
            return Err(smallest);
        }
        // One compute node is reserved for the services.
        Ok(sizes.map(|n| n - servers_per_cluster).sum::<usize>() - 1)
    }

    /// Number of ranks deployed.
    pub fn nranks(&self) -> usize {
        self.placement.ranks()
    }

    /// The checkpoint-server node of a rank.
    pub fn server_node_of(&self, rank: Rank) -> NodeId {
        self.server_nodes[self.server_of_rank[rank]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_deployment_roles_are_disjoint() {
        let d = Deployment::cluster(64, 8, LinkConfig::gige(), 144);
        assert_eq!(d.nranks(), 64);
        assert_eq!(d.server_nodes.len(), 8);
        // Ranks on nodes 0..63, servers 64..71, service 72.
        assert_eq!(d.placement.node_of(63), NodeId(63));
        assert_eq!(d.server_nodes[0], NodeId(64));
        assert_eq!(d.service_node, NodeId(72));
        // Round-robin server mapping.
        assert_eq!(d.server_of_rank[0], 0);
        assert_eq!(d.server_of_rank[9], 1);
    }

    #[test]
    fn cluster_switches_to_dual_placement_above_threshold() {
        let d = Deployment::cluster(169, 9, LinkConfig::gige(), 144);
        // 169 ranks on 85 dual nodes.
        assert_eq!(d.placement.node_of(168), NodeId(84));
        assert_eq!(d.placement.colocated(0), vec![0, 1]);
    }

    #[test]
    fn grid_deployment_uses_local_servers() {
        let d = Deployment::grid(400, 1);
        assert_eq!(d.nranks(), 400);
        assert_eq!(d.server_nodes.len(), 6);
        for r in [0usize, 50, 150, 399] {
            let rank_cluster = d.topo.cluster_of(d.placement.node_of(r));
            let server_cluster = d.topo.cluster_of(d.server_node_of(r));
            assert_eq!(rank_cluster, server_cluster, "rank {r} server not local");
        }
    }

    #[test]
    fn grid_holds_529_ranks() {
        let d = Deployment::grid(529, 1);
        assert_eq!(d.nranks(), 529);
        // Ranks span multiple clusters.
        let c_first = d.topo.cluster_of(d.placement.node_of(0));
        let c_last = d.topo.cluster_of(d.placement.node_of(528));
        assert_ne!(c_first, c_last);
    }

    #[test]
    fn grid_capacity_matches_what_grid_accepts() {
        let cap = Deployment::grid_capacity(1).expect("one server per cluster fits");
        assert_eq!(Deployment::grid(cap, 1).nranks(), cap);
        assert!(std::panic::catch_unwind(|| Deployment::grid(cap + 1, 1)).is_err());
        let smallest = Deployment::grid_capacity(500).expect_err("no cluster has 500 nodes");
        assert!(smallest <= 500);
        assert!(Deployment::grid_capacity(smallest - 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "grid holds")]
    fn grid_overflow_rejected() {
        Deployment::grid(540, 1);
    }
}
