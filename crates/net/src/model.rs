//! The platform model: resources instantiated from a [`Topology`] plus the
//! path logic that computes message delivery times.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ftmpi_sim::{FxBuildHasher, SimDuration, SimTime};

use crate::fault::CutDirection;
use crate::resource::Resource;
use crate::topology::{NodeId, Topology};

/// Messages at or below this size interleave with bulk traffic at packet
/// granularity instead of queueing behind whole messages (one-MTU packets
/// slip through a busy NIC in microseconds). Per-channel FIFO order is
/// still enforced through the pair-delivery floor.
pub const SMALL_BYPASS_BYTES: u64 = 2048;

/// Which kind of path a transfer took (reported for tests / tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Same node: shared-memory loopback.
    Loopback,
    /// Same cluster: NIC → switch → NIC.
    IntraCluster,
    /// Different clusters: NIC → WAN uplink → WAN downlink → NIC.
    InterCluster,
}

/// FIFO floors a node holds inline. Eight hold every channel of the
/// 10⁵-rank ring and halo (a compute node talks to itself, its
/// neighbours' nodes and up to two servers) and every data channel of
/// BT.B/64 but a few collective ones. A checkpoint server, or a node that
/// Pcl or Vcl markers reach from everywhere, opens far more: its later
/// channels spill to the model's overflow map.
const NODE_FLOORS: usize = 8;

/// Result of a transfer reservation.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// When the first byte left the sender (after queueing).
    pub start: SimTime,
    /// When the last byte arrived at the receiver.
    pub delivered: SimTime,
    /// Path classification.
    pub path: PathKind,
}

struct NodeRes {
    nic_tx: Resource,
    nic_rx: Resource,
    disk: Resource,
    floors: NodeFloors,
}

/// The FIFO floors filed at one node. A slot's key names its channel by
/// the other end: `peer << 1` for a channel filed at its source (the peer
/// is the destination), `peer << 1 | 1` for one filed at its destination.
/// Free slots hold [`NodeFloors::FREE`] and follow the used ones. The keys
/// are 32-bit and apart from the floors, so a lookup compares all eight in
/// half a cache line.
struct NodeFloors {
    keys: [u32; NODE_FLOORS],
    floors: [SimTime; NODE_FLOORS],
}

impl NodeFloors {
    const FREE: u32 = u32::MAX;
    const EMPTY: NodeFloors = NodeFloors {
        keys: [NodeFloors::FREE; NODE_FLOORS],
        floors: [SimTime::ZERO; NODE_FLOORS],
    };

    /// The slot filed under `key`, if any.
    fn find(&self, key: u32) -> Option<usize> {
        self.keys.iter().position(|&k| k == key)
    }

    /// File `key` with a zero floor, if a slot is free.
    fn file(&mut self, key: u32) -> Option<usize> {
        let i = self.find(NodeFloors::FREE)?;
        self.keys[i] = key;
        self.floors[i] = SimTime::ZERO;
        Some(i)
    }
}

struct ClusterRes {
    wan_up: Resource,
    wan_down: Resource,
}

/// Mutable platform state: one resource set per node and per cluster.
///
/// All methods take `&mut self`; the owning layer reaches the model through
/// its single world borrow (the simulation is single-threaded).
pub struct NetModel {
    topo: Topology,
    nodes: Vec<NodeRes>,
    clusters: Vec<ClusterRes>,
    /// FIFO floors of the directed node pairs whose two nodes were both
    /// full when the pair first carried traffic (see
    /// [`floor_mut`](NetModel::floor_mut)).
    overflow_floors: HashMap<(NodeId, NodeId), SimTime, FxBuildHasher>,
    /// Directed links currently down (see [`crate::fault`]). BTree
    /// containers so any iteration a future diagnostic adds is
    /// deterministic.
    link_down: BTreeSet<(NodeId, NodeId)>,
    /// Directed links currently degraded to `1/factor` bandwidth.
    degraded: BTreeMap<(NodeId, NodeId), f64>,
    /// Active partitions by name: each set is cut off from its complement
    /// in the recorded direction(s). The `bool` is the *tearing* flag: a
    /// tearing cut severs in-flight streams mid-transfer (a switch losing
    /// its forwarding table) instead of merely stalling new reservations,
    /// so a bulk write it interrupts leaves a truncated prefix behind.
    partitions: BTreeMap<String, (CutDirection, bool, BTreeSet<NodeId>)>,
}

impl NetModel {
    /// Instantiate resources for a topology.
    pub fn new(topo: Topology) -> NetModel {
        assert!(
            topo.node_count() < 1 << 31,
            "a FIFO floor key packs a node index and one bit into a u32 below FREE"
        );
        let nodes = (0..topo.node_count())
            .map(|n| {
                let link = topo.link_of(NodeId(n));
                NodeRes {
                    nic_tx: Resource::new(link.nic_bw),
                    nic_rx: Resource::new(link.nic_bw),
                    disk: Resource::new(link.disk_bw),
                    floors: NodeFloors::EMPTY,
                }
            })
            .collect();
        let clusters = (0..topo.cluster_count())
            .map(|_| ClusterRes {
                wan_up: Resource::new(topo.spec().wan.access_bw),
                wan_down: Resource::new(topo.spec().wan.access_bw),
            })
            .collect();
        NetModel {
            topo,
            nodes,
            clusters,
            overflow_floors: HashMap::default(),
            link_down: BTreeSet::new(),
            degraded: BTreeMap::new(),
            partitions: BTreeMap::new(),
        }
    }

    /// The platform topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Take the directed link `from → to` out of service. Idempotent.
    pub fn set_link_down(&mut self, from: NodeId, to: NodeId) {
        self.link_down.insert((from, to));
    }

    /// Degrade the directed link `from → to` to `1/factor` of its rated
    /// bandwidth (factors below `1.0` are clamped to `1.0`). Only bulk
    /// traffic pays the factor — small messages still bypass at packet
    /// granularity, modelling control packets slipping through a congested
    /// port. If the link is also down it stays unreachable; the factor
    /// applies once restored and degraded again.
    pub fn degrade_link(&mut self, from: NodeId, to: NodeId, factor: f64) {
        self.degraded.insert((from, to), factor.max(1.0));
    }

    /// Return the directed link `from → to` to full-rate service, clearing
    /// both down and degraded state. Idempotent.
    pub fn restore_link(&mut self, from: NodeId, to: NodeId) {
        self.link_down.remove(&(from, to));
        self.degraded.remove(&(from, to));
    }

    /// Activate the named partition: `direction` says which
    /// boundary-crossing traffic (relative to `nodes`) it cuts. A tearing
    /// cut severs streams mid-transfer, so a bulk write it interrupts can
    /// leave a truncated (torn) prefix on the receiver — see
    /// [`cut_tears`](NetModel::cut_tears). Re-activating an active name
    /// replaces its node set, direction, and flag.
    pub fn start_partition(
        &mut self,
        name: impl Into<String>,
        nodes: impl IntoIterator<Item = NodeId>,
        direction: CutDirection,
        tear: bool,
    ) {
        self.partitions
            .insert(name.into(), (direction, tear, nodes.into_iter().collect()));
    }

    /// Heal the named partition. Healing an unknown name is a no-op (the
    /// cut may have been replaced or never activated).
    pub fn heal_partition(&mut self, name: &str) {
        self.partitions.remove(name);
    }

    /// Whether the named partition is currently active.
    pub fn partition_active(&self, name: &str) -> bool {
        self.partitions.contains_key(name)
    }

    /// Whether a message from `src` can currently reach `dst`: true unless
    /// the directed link is down or an active partition cuts `src → dst`.
    /// A `Both` partition separates the set from its complement entirely;
    /// `Outbound` kills only messages leaving the set, `Inbound` only
    /// messages entering it — the query is directional, so a half-open cut
    /// can pass data one way while the acknowledgement path answers false.
    /// Loopback (`src == dst`) is always reachable — a node can always
    /// talk to itself.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return true;
        }
        if self.link_down.contains(&(src, dst)) {
            return false;
        }
        self.partitions.values().all(|(direction, _, set)| {
            let (src_in, dst_in) = (set.contains(&src), set.contains(&dst));
            match direction {
                CutDirection::Both => src_in == dst_in,
                // Blocked iff the message crosses the cut in the named
                // direction (leaves the set for Outbound, enters for Inbound).
                CutDirection::Outbound => !src_in || dst_in,
                CutDirection::Inbound => src_in || !dst_in,
            }
        })
    }

    /// Whether an active *tearing* partition currently cuts `src → dst`:
    /// a stream between the pair was not merely stalled but severed
    /// mid-transfer, so whatever prefix already landed at `dst` sits there
    /// truncated. False for ordinary (stall-semantics) partitions and for
    /// down links — those pause reliable streams without data loss.
    pub fn cut_tears(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return false;
        }
        self.partitions.values().any(|(direction, tear, set)| {
            if !tear {
                return false;
            }
            let (src_in, dst_in) = (set.contains(&src), set.contains(&dst));
            match direction {
                CutDirection::Both => src_in != dst_in,
                CutDirection::Outbound => src_in && !dst_in,
                CutDirection::Inbound => !src_in && dst_in,
            }
        })
    }

    /// The degrade factor currently applied to `src → dst` (`1.0` = full
    /// rate).
    fn degrade_factor(&self, src: NodeId, dst: NodeId) -> f64 {
        self.degraded.get(&(src, dst)).copied().unwrap_or(1.0)
    }

    /// Reserve the physical path for one message of `bytes` from `src` to
    /// `dst`, no earlier than `earliest`. Software-stack costs (overheads,
    /// daemon copies) are *not* included — the runtime layers add those.
    ///
    /// Messages of at most [`SMALL_BYPASS_BYTES`] interleave through busy
    /// resources at packet granularity, but never overtake earlier traffic
    /// on the same `(src, dst)` channel.
    pub fn transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        earliest: SimTime,
    ) -> Delivery {
        self.transfer_with_overhead(src, dst, bytes, earliest, SimDuration::ZERO)
    }

    /// Like [`transfer`](NetModel::transfer), with a per-message software
    /// overhead (stack latency, daemon copies) added *before* the FIFO
    /// floor: on a real TCP channel the receiver-side copies happen in
    /// stream order, so a cheap-to-copy small message still cannot overtake
    /// an expensive large one sent earlier on the same channel.
    pub fn transfer_with_overhead(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        earliest: SimTime,
        overhead: SimDuration,
    ) -> Delivery {
        let small = bytes <= SMALL_BYPASS_BYTES;
        let (start, delivered, path) = if src == dst {
            let link = self.topo.link_of(src);
            let dur = SimDuration::for_transfer(bytes, link.loopback_bw);
            (
                earliest,
                earliest + link.loopback_latency + dur,
                PathKind::Loopback,
            )
        } else {
            let src_link = self.topo.link_of(src).clone();
            let degrade = self.degrade_factor(src, dst);
            let (tx_start, tx_end) = if small {
                self.nodes[src.0].nic_tx.bypass(earliest, bytes)
            } else if degrade > 1.0 {
                // Degraded link: the flow drains at 1/factor of the NIC
                // rate, but occupies the NIC only for its normal share
                // (other flows through the same NIC to healthy peers are
                // not slowed).
                self.nodes[src.0].nic_tx.reserve_with_rate(
                    earliest,
                    bytes,
                    src_link.nic_bw / degrade,
                )
            } else {
                self.nodes[src.0].nic_tx.reserve(earliest, bytes)
            };
            if self.topo.same_cluster(src, dst) {
                let arrival = tx_end + src_link.latency;
                let (_, rx_end) = if small {
                    self.nodes[dst.0].nic_rx.bypass(arrival, bytes)
                } else {
                    self.nodes[dst.0].nic_rx.reserve(arrival, bytes)
                };
                (tx_start, rx_end, PathKind::IntraCluster)
            } else {
                let wan = self.topo.spec().wan.clone();
                let cs = self.topo.cluster_of(src);
                let cd = self.topo.cluster_of(dst);
                // Uplink: shared access pipe, per-flow WAN throughput.
                let up_arrival = tx_end + src_link.latency;
                let (_, up_end) = if small {
                    self.clusters[cs.0].wan_up.bypass(up_arrival, bytes)
                } else {
                    self.clusters[cs.0]
                        .wan_up
                        .reserve_with_rate(up_arrival, bytes, wan.per_flow_bw)
                };
                // WAN propagation, then the destination cluster's pipe.
                let down_arrival = up_end + wan.latency;
                let (_, down_end) = if small {
                    self.clusters[cd.0].wan_down.bypass(down_arrival, bytes)
                } else {
                    self.clusters[cd.0].wan_down.reserve_with_rate(
                        down_arrival,
                        bytes,
                        wan.per_flow_bw,
                    )
                };
                let dst_link = self.topo.link_of(dst);
                let rx_arrival = down_end + dst_link.latency;
                let (_, rx_end) = if small {
                    self.nodes[dst.0].nic_rx.bypass(rx_arrival, bytes)
                } else {
                    self.nodes[dst.0].nic_rx.reserve(rx_arrival, bytes)
                };
                (tx_start, rx_end, PathKind::InterCluster)
            }
        };
        // Per-channel FIFO floor (applied after software overheads).
        let delivered = delivered + overhead;
        let floor = self.floor_mut(src, dst);
        let delivered = delivered.max(*floor);
        *floor = delivered;
        Delivery {
            start,
            delivered,
            path,
        }
    }

    /// The FIFO floor of the directed pair `src → dst`: the last delivery
    /// time on that channel, which keeps bypassed small messages from
    /// overtaking earlier traffic on it (TCP connections are FIFO;
    /// Chandy–Lamport markers rely on this). A channel never used reads 0.
    ///
    /// A channel is filed on first use at its source if the source has a
    /// free slot, else at its destination, else in the overflow map, and a
    /// lookup tries them in that order. Nothing leaves a node's slots
    /// before [`reset_queues`](NetModel::reset_queues) empties them all,
    /// so a channel in the overflow map found both nodes full when it was
    /// filed, and finds them full still: a channel missing from both
    /// nodes' slots goes to the map exactly when neither has room.
    fn floor_mut(&mut self, src: NodeId, dst: NodeId) -> &mut SimTime {
        let at_src = (dst.0 as u32) << 1;
        let at_dst = (src.0 as u32) << 1 | 1;
        let at = match self.nodes[src.0].floors.find(at_src) {
            Some(i) => Some((src, i)),
            None => self.nodes[dst.0].floors.find(at_dst).map(|i| (dst, i)),
        };
        let at = at
            .or_else(|| self.nodes[src.0].floors.file(at_src).map(|i| (src, i)))
            .or_else(|| self.nodes[dst.0].floors.file(at_dst).map(|i| (dst, i)));
        match at {
            Some((node, i)) => &mut self.nodes[node.0].floors.floors[i],
            None => self
                .overflow_floors
                .entry((src, dst))
                .or_insert(SimTime::ZERO),
        }
    }

    /// Reserve a local-disk write of `bytes` on `node` (checkpoint files).
    /// Returns the completion time.
    pub fn disk_write(&mut self, node: NodeId, bytes: u64, earliest: SimTime) -> SimTime {
        let (_, end) = self.nodes[node.0].disk.reserve(earliest, bytes);
        end
    }

    /// Reserve a local-disk read of `bytes` on `node` (restart image load).
    pub fn disk_read(&mut self, node: NodeId, bytes: u64, earliest: SimTime) -> SimTime {
        // Same spindle as writes at this granularity.
        self.disk_write(node, bytes, earliest)
    }

    /// Drop all queued backlog (platform reboot after a failure-restart).
    pub fn reset_queues(&mut self, now: SimTime) {
        for n in &mut self.nodes {
            n.nic_tx.reset_queue(now);
            n.nic_rx.reset_queue(now);
            n.disk.reset_queue(now);
            n.floors = NodeFloors::EMPTY;
        }
        for c in &mut self.clusters {
            c.wan_up.reset_queue(now);
            c.wan_down.reset_queue(now);
        }
        // TCP connections died with the job: no FIFO carry-over. Fault
        // state (down links, degradations, partitions) intentionally
        // survives — restarting the job does not fix the network.
        self.overflow_floors.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;
    use crate::topology::Topology;

    fn gige4() -> NetModel {
        NetModel::new(Topology::single_cluster(4, LinkConfig::gige()))
    }

    #[test]
    fn loopback_beats_network() {
        let mut net = gige4();
        let same = net.transfer(NodeId(0), NodeId(0), 1024, SimTime::ZERO);
        let cross = net.transfer(NodeId(1), NodeId(2), 1024, SimTime::ZERO);
        assert_eq!(same.path, PathKind::Loopback);
        assert_eq!(cross.path, PathKind::IntraCluster);
        assert!(same.delivered < cross.delivered);
    }

    #[test]
    fn intra_cluster_delivery_time_formula() {
        let mut net = gige4();
        let d = net.transfer(NodeId(0), NodeId(1), 125_000, SimTime::ZERO);
        // 125 kB at 125 MB/s = 1 ms per NIC stage, + 45 µs switch latency.
        let expect = 0.001 + 45e-6 + 0.001;
        assert!(
            (d.delivered.as_secs_f64() - expect).abs() < 1e-9,
            "got {} want {expect}",
            d.delivered.as_secs_f64()
        );
    }

    #[test]
    fn per_channel_fifo_delivery() {
        // Messages sent in order on the same src→dst pair must deliver in order.
        let mut net = gige4();
        let mut last = SimTime::ZERO;
        let mut earliest = SimTime::ZERO;
        for i in 0..50 {
            let bytes = if i % 3 == 0 { 1 << 20 } else { 64 };
            let d = net.transfer(NodeId(0), NodeId(1), bytes, earliest);
            assert!(d.delivered >= last, "delivery order violated at msg {i}");
            last = d.delivered;
            earliest += SimDuration::from_micros(10);
        }
    }

    #[test]
    fn sender_nic_contention_serializes() {
        let mut net = gige4();
        // Two megabyte messages from the same node to different peers
        // serialize on the sender's NIC.
        let d1 = net.transfer(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO);
        let d2 = net.transfer(NodeId(0), NodeId(2), 1 << 20, SimTime::ZERO);
        assert!(d2.start >= d1.start + SimDuration::for_transfer(1 << 20, 125e6));
    }

    #[test]
    fn receiver_nic_is_the_fanin_bottleneck() {
        // Many nodes streaming to one "checkpoint server" node: completion
        // scales with the number of senders (server NIC serialization).
        let mut net = NetModel::new(Topology::single_cluster(9, LinkConfig::gige()));
        let bytes = 10 << 20;
        let mut completions = Vec::new();
        for src in 1..9 {
            let d = net.transfer(NodeId(src), NodeId(0), bytes, SimTime::ZERO);
            completions.push(d.delivered.as_secs_f64());
        }
        let per_image = bytes as f64 / 125e6;
        let last = completions.last().unwrap();
        assert!(
            *last >= 8.0 * per_image,
            "8 images should serialize on the server rx NIC: {last} vs {}",
            8.0 * per_image
        );
    }

    #[test]
    fn grid_wan_path_is_much_slower() {
        let mut net = NetModel::new(Topology::grid5000());
        // bordeaux node 0 → lille node 48.
        let inter = net.transfer(NodeId(0), NodeId(48), 1 << 20, SimTime::ZERO);
        assert_eq!(inter.path, PathKind::InterCluster);
        let mut net2 = NetModel::new(Topology::grid5000());
        let intra = net2.transfer(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO);
        let ratio = inter.delivered.as_secs_f64() / intra.delivered.as_secs_f64();
        assert!(ratio > 10.0, "WAN should dominate: ratio {ratio}");
    }

    #[test]
    fn wan_latency_dominates_small_messages() {
        let mut net = NetModel::new(Topology::grid5000());
        let inter = net.transfer(NodeId(0), NodeId(48), 8, SimTime::ZERO);
        let lat = inter.delivered.as_secs_f64();
        assert!(lat >= 5e-3, "one-way WAN latency missing: {lat}");
    }

    #[test]
    fn small_messages_bypass_bulk_queues_from_other_channels() {
        let mut net = gige4();
        // Saturate node 2's rx with bulk from node 1.
        for _ in 0..20 {
            net.transfer(NodeId(1), NodeId(2), 10 << 20, SimTime::ZERO);
        }
        // A 64-byte control message from node 3 slips through.
        let d = net.transfer(NodeId(3), NodeId(2), 64, SimTime::ZERO);
        assert!(
            d.delivered.as_secs_f64() < 0.001,
            "small message stuck behind bulk: {}",
            d.delivered.as_secs_f64()
        );
    }

    #[test]
    fn small_messages_never_overtake_their_own_channel() {
        let mut net = gige4();
        let bulk = net.transfer(NodeId(1), NodeId(2), 10 << 20, SimTime::ZERO);
        // Same channel: the marker-sized message honours FIFO.
        let marker = net.transfer(NodeId(1), NodeId(2), 64, SimTime::ZERO);
        assert!(
            marker.delivered >= bulk.delivered,
            "FIFO violated: marker {} before bulk {}",
            marker.delivered,
            bulk.delivered
        );
    }

    #[test]
    fn disk_serializes_writes() {
        let mut net = gige4();
        let e1 = net.disk_write(NodeId(0), 60_000_000, SimTime::ZERO); // 1 s
        let e2 = net.disk_write(NodeId(0), 60_000_000, SimTime::ZERO);
        assert_eq!(e1.as_secs_f64(), 1.0);
        assert_eq!(e2.as_secs_f64(), 2.0);
    }

    #[test]
    fn link_down_and_restore_flip_reachability() {
        let mut net = gige4();
        assert!(net.reachable(NodeId(0), NodeId(1)));
        net.set_link_down(NodeId(0), NodeId(1));
        assert!(!net.reachable(NodeId(0), NodeId(1)));
        // Directed: the reverse link still works.
        assert!(net.reachable(NodeId(1), NodeId(0)));
        // Loopback always works.
        assert!(net.reachable(NodeId(0), NodeId(0)));
        net.restore_link(NodeId(0), NodeId(1));
        assert!(net.reachable(NodeId(0), NodeId(1)));
    }

    #[test]
    fn partition_cuts_both_directions_but_not_within_sides() {
        let mut net = gige4();
        net.start_partition(
            "switch-a",
            [NodeId(0), NodeId(1)],
            CutDirection::Both,
            false,
        );
        assert!(net.partition_active("switch-a"));
        assert!(!net.reachable(NodeId(0), NodeId(2)));
        assert!(!net.reachable(NodeId(2), NodeId(0)));
        // Within the cut set, and within the complement, traffic flows.
        assert!(net.reachable(NodeId(0), NodeId(1)));
        assert!(net.reachable(NodeId(2), NodeId(3)));
        net.heal_partition("switch-a");
        assert!(!net.partition_active("switch-a"));
        assert!(net.reachable(NodeId(0), NodeId(2)));
        // Healing twice (or an unknown name) is a no-op.
        net.heal_partition("switch-a");
        net.heal_partition("never-existed");
    }

    #[test]
    fn directed_partition_cuts_only_one_way() {
        let mut net = gige4();
        // Outbound: nothing leaves {0,1}, but traffic still flows in.
        net.start_partition(
            "half-open",
            [NodeId(0), NodeId(1)],
            CutDirection::Outbound,
            false,
        );
        assert!(!net.reachable(NodeId(0), NodeId(2)), "outbound cut");
        assert!(net.reachable(NodeId(2), NodeId(0)), "inbound still flows");
        // Within the set and within the complement, unaffected.
        assert!(net.reachable(NodeId(0), NodeId(1)));
        assert!(net.reachable(NodeId(2), NodeId(3)));
        // Re-activating the name flips the direction in place.
        net.start_partition(
            "half-open",
            [NodeId(0), NodeId(1)],
            CutDirection::Inbound,
            false,
        );
        assert!(net.reachable(NodeId(0), NodeId(2)), "outbound restored");
        assert!(!net.reachable(NodeId(2), NodeId(0)), "inbound now cut");
        net.heal_partition("half-open");
        assert!(net.reachable(NodeId(2), NodeId(0)));
    }

    #[test]
    fn tearing_partition_reports_cut_tears() {
        let mut net = gige4();
        // A plain partition cuts but does not tear.
        net.start_partition("clean", [NodeId(0)], CutDirection::Both, false);
        assert!(!net.reachable(NodeId(0), NodeId(2)));
        assert!(!net.cut_tears(NodeId(0), NodeId(2)));
        net.heal_partition("clean");
        // A tearing partition reports tears across the cut, honouring
        // direction, and never for loopback.
        net.start_partition("torn", [NodeId(0)], CutDirection::Outbound, true);
        assert!(
            net.cut_tears(NodeId(0), NodeId(2)),
            "outbound crossing tears"
        );
        assert!(
            !net.cut_tears(NodeId(2), NodeId(0)),
            "inbound side untouched"
        );
        assert!(!net.cut_tears(NodeId(0), NodeId(0)), "loopback never tears");
        net.heal_partition("torn");
        assert!(!net.cut_tears(NodeId(0), NodeId(2)));
    }

    #[test]
    fn directed_partition_survives_reset_queues() {
        let mut net = gige4();
        net.start_partition("asym", [NodeId(3)], CutDirection::Inbound, false);
        net.reset_queues(SimTime::from_nanos(1));
        assert!(!net.reachable(NodeId(0), NodeId(3)));
        assert!(net.reachable(NodeId(3), NodeId(0)));
    }

    #[test]
    fn overlapping_partitions_all_apply() {
        let mut net = gige4();
        net.start_partition("a", [NodeId(0), NodeId(1)], CutDirection::Both, false);
        net.start_partition("b", [NodeId(1), NodeId(2)], CutDirection::Both, false);
        // 1↔2 crosses partition "a" even though "b" groups them together.
        assert!(!net.reachable(NodeId(1), NodeId(2)));
        net.heal_partition("a");
        assert!(net.reachable(NodeId(1), NodeId(2)));
        assert!(!net.reachable(NodeId(2), NodeId(3)), "b still cuts");
    }

    #[test]
    fn degraded_link_slows_bulk_by_the_factor() {
        let mut net = gige4();
        let clean = net.transfer(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO);
        let mut slow = gige4();
        slow.degrade_link(NodeId(0), NodeId(1), 4.0);
        let deg = slow.transfer(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO);
        assert!(slow.reachable(NodeId(0), NodeId(1)), "degraded still up");
        // The factor applies at the transmit stage: the flow drains the
        // link at 1/4 rate, adding 3 extra transmit times end-to-end.
        let extra = 3.0 * SimDuration::for_transfer(1 << 20, 125e6).as_secs_f64();
        let got = deg.delivered.as_secs_f64() - clean.delivered.as_secs_f64();
        assert!(
            (got - extra).abs() < 1e-9,
            "1 MiB at 1/4 link rate: extra delay {got} want {extra}"
        );
        // Factors below 1.0 clamp: no speedup from a "degrade".
        let mut fast = gige4();
        fast.degrade_link(NodeId(0), NodeId(1), 0.25);
        let f = fast.transfer(NodeId(0), NodeId(1), 1 << 20, SimTime::ZERO);
        assert_eq!(f.delivered, clean.delivered);
    }

    #[test]
    fn degraded_link_does_not_slow_small_bypass_or_other_peers() {
        let mut net = gige4();
        let clean_small = net.transfer(NodeId(0), NodeId(1), 64, SimTime::ZERO);
        let clean_other = net.transfer(NodeId(0), NodeId(2), 1 << 20, SimTime::ZERO);
        let mut deg = gige4();
        deg.degrade_link(NodeId(0), NodeId(1), 8.0);
        let small = deg.transfer(NodeId(0), NodeId(1), 64, SimTime::ZERO);
        let other = deg.transfer(NodeId(0), NodeId(2), 1 << 20, SimTime::ZERO);
        assert_eq!(small.delivered, clean_small.delivered, "bypass unaffected");
        assert_eq!(
            other.delivered, clean_other.delivered,
            "other peer unaffected"
        );
    }

    #[test]
    fn fault_state_survives_reset_queues() {
        let mut net = gige4();
        net.set_link_down(NodeId(0), NodeId(1));
        net.start_partition("wan", [NodeId(3)], CutDirection::Both, false);
        net.reset_queues(SimTime::from_nanos(1));
        assert!(
            !net.reachable(NodeId(0), NodeId(1)),
            "restart does not fix cables"
        );
        assert!(net.partition_active("wan"));
    }

    #[test]
    fn reset_queues_drains_backlog() {
        let mut net = gige4();
        net.transfer(NodeId(0), NodeId(1), 1 << 30, SimTime::ZERO); // huge
        net.reset_queues(SimTime::from_nanos(1));
        let d = net.transfer(NodeId(0), NodeId(1), 64, SimTime::from_nanos(1));
        assert!(d.delivered.as_secs_f64() < 0.001);
    }

    /// Four server nodes trade traffic with 44 peers each way, far more
    /// channels per node than its floors hold inline, so every lookup path
    /// runs: the source's entries, the destination's, and the overflow
    /// map. Sizes straddle the bypass threshold, overheads vary, and the
    /// queues reset between phases. The digest of every delivery was
    /// recorded before the floors moved out of a global hash map.
    #[test]
    fn fifo_floors_match_the_recorded_delivery_digest() {
        use std::hash::Hasher;

        use ftmpi_sim::schedule::StdRng;
        use ftmpi_sim::FxHasher;

        const NODES: usize = 48;
        const SERVERS: usize = 4;
        let mut net = NetModel::new(Topology::single_cluster(NODES, LinkConfig::gige()));
        let mut rng = StdRng::seed_from_u64(31);
        let mut digest = FxHasher::default();
        let mut now = SimTime::ZERO;
        for phase in 0..3 {
            if phase > 0 {
                net.reset_queues(now);
            }
            for _ in 0..6_000 {
                let server = NodeId(rng.gen_range(0..SERVERS));
                let peer = NodeId(rng.gen_range(SERVERS..NODES));
                let (src, dst) = match rng.gen_range(0u32..10) {
                    0..=3 => (peer, server),
                    4..=6 => (server, peer),
                    7..=8 => (peer, NodeId(rng.gen_range(SERVERS..NODES))),
                    _ => (peer, peer),
                };
                let bytes = if rng.gen_bool(0.1) {
                    rng.gen_range(1u64..(4 << 20))
                } else {
                    rng.gen_range(1..2 * SMALL_BYPASS_BYTES)
                };
                let overhead = SimDuration::from_nanos(rng.gen_range(0u64..60_000));
                let d = net.transfer_with_overhead(src, dst, bytes, now, overhead);
                for word in [d.start.as_nanos(), d.delivered.as_nanos(), d.path as u64] {
                    digest.write_u64(word);
                }
                now += SimDuration::from_nanos(rng.gen_range(0u64..20_000));
            }
        }
        assert!(
            !net.overflow_floors.is_empty(),
            "the servers' channels overflow their inline floors"
        );
        assert_eq!(digest.finish(), 3_417_591_142_777_437_920);
    }
}
