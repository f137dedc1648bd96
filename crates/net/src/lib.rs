//! Network resource / topology model for the `ftmpi` simulation.
//!
//! This crate models the three experimental platforms of the paper —
//! Gigabit-Ethernet clusters, Myrinet clusters, and a multi-cluster grid —
//! as a hierarchy of *serialized resources*:
//!
//! * per-node NIC transmit and receive queues (full duplex),
//! * per-node local disk,
//! * per-cluster WAN uplink and downlink.
//!
//! A message reserves each resource along its path in order
//! (store-and-forward at message granularity), which yields the first-order
//! effects the paper's evaluation hinges on: bandwidth contention between
//! checkpoint-image streams and MPI traffic on a node's NIC, checkpoint
//! *server* NICs as the bottleneck when few servers are deployed (Fig. 5),
//! NIC sharing between the two ranks of a dual-processor node (the dip above
//! 144 processes in Fig. 6), and the ≈20× lower bandwidth / ≈100× higher
//! latency of inter-cluster grid links (§5.4).
//!
//! The model is *passive*: it computes reservation times but schedules
//! nothing. The MPI runtime and the checkpointing protocols own the event
//! scheduling and call into [`NetModel`] through their own world borrow. The
//! same passivity extends to faults ([`fault`]): the model holds the
//! current link/partition state and answers
//! [`reachable`](NetModel::reachable); callers pause and retry rather than
//! lose traffic.

#![warn(missing_docs)]

mod config;
pub mod fault;
mod model;
mod resource;
mod topology;

pub use config::{LinkConfig, SoftwareStack, StackProfile, WanConfig};
pub use fault::{
    fault_lane, CutDirection, FaultPlanError, LinkFaultEvent, LinkFaultKind, LinkFlapSpec,
    NetFaultPlan, PartitionSpec, ServerPartitionSpec, FAULT_LANE_BASE,
};
pub use model::{Delivery, NetModel, PathKind, SMALL_BYPASS_BYTES};
pub use resource::Resource;
pub use topology::{ClusterId, ClusterSpec, NodeId, Topology, TopologySpec};
