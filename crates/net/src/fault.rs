//! Scheduled network faults: directed link events, flapping processes, and
//! named (possibly one-directional) partitions.
//!
//! The fault model is *declarative*: a [`NetFaultPlan`] lists transitions
//! (link down / degrade / restore, partition start / heal) with their times,
//! and the owning layer schedules them onto the simulation's event queue.
//! [`crate::NetModel`] only holds the *current* fault state and answers
//! [`reachable`](crate::NetModel::reachable) queries; it never drops traffic
//! by itself. Callers (flow chunking, heartbeats, restore fetches) check
//! reachability before reserving a path and pause-and-retry when the answer
//! is no — a partition therefore *delays* in-flight traffic rather than
//! silently losing it.
//!
//! Link-state machine (per directed pair):
//!
//! ```text
//!        down                degrade(f)
//!   Up ───────▶ Down     Up ───────────▶ Degraded(f)
//!    ▲            │       ▲                  │
//!    └──restore───┘       └────restore───────┘
//! ```
//!
//! `restore` always returns a link to full-rate `Up`, whichever fault state
//! it was in. A `degrade` while `Down` records the factor but the link stays
//! unreachable until restored. Partitions are independent of link state: a
//! pair is reachable iff no `down` edge covers it *and* no active partition
//! cuts the pair in that direction (see [`CutDirection`]).
//!
//! On top of explicit events, a [`LinkFlapSpec`] describes a *renewal
//! process*: within its window the directed link alternates exponentially
//! distributed up (MTTF) and down (MTTR) intervals, drawn from a seeded
//! splitmix64 stream. Flaps expand to plain `Down`/`Restore` events at
//! plan-schedule time ([`NetFaultPlan::expanded_link_events`]), so the
//! kernel sees only the three-state machine above and the expansion is a
//! pure function of the spec — byte-identical across runs.

use std::fmt;

use ftmpi_sim::schedule::splitmix64;
use ftmpi_sim::{SimDuration, SimTime};

use crate::topology::NodeId;

/// Tiebreak-lane namespace for scheduled fault transitions. Fault events
/// race with every flow chunk and retry probe touching the same link, so
/// they are always scheduled keyed; the base is disjoint from the flow-lane
/// namespace (`1 << 63 | server_node`) and from process lanes (small
/// integers) for every realistic node count.
pub const FAULT_LANE_BASE: u64 = 0b11 << 62;

/// The tiebreak lane for the `idx`-th scheduled fault transition of a plan.
pub fn fault_lane(idx: u64) -> u64 {
    FAULT_LANE_BASE | idx
}

/// What a scheduled link transition does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// The directed link stops carrying traffic (cable pull, NIC death).
    Down,
    /// The directed link keeps working at `1/factor` of its rated bandwidth
    /// (flapping switch port, congested backbone). Factors are clamped to
    /// at least `1.0`; only bulk traffic slows down — small control
    /// messages still bypass at packet granularity.
    Degrade(f64),
    /// The directed link returns to full-rate service.
    Restore,
}

/// One scheduled directed-link transition.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultEvent {
    /// Simulated time the transition applies.
    pub at: SimTime,
    /// Transmitting endpoint of the directed link.
    pub from: NodeId,
    /// Receiving endpoint of the directed link.
    pub to: NodeId,
    /// The transition.
    pub kind: LinkFaultKind,
}

/// Which direction of traffic a partition cuts, relative to the named node
/// set.
///
/// `Both` is the classic switch cut: nothing crosses the boundary either
/// way. The directed variants model asymmetric failures — a half-open
/// firewall rule, a broken return path, a congested uplink that still
/// receives — where data can cross one way while acknowledgements die on
/// the way back. Transport layers must not commit state across a half-open
/// cut: a push whose ack cannot return looks exactly like a lost push.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutDirection {
    /// Traffic is cut in both directions (classic symmetric partition).
    #[default]
    Both,
    /// Traffic *from* the named set to the rest is cut; traffic into the
    /// set still flows.
    Outbound,
    /// Traffic *into* the named set is cut; traffic out of the set still
    /// flows.
    Inbound,
}

impl fmt::Display for CutDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CutDirection::Both => "both",
            CutDirection::Outbound => "outbound",
            CutDirection::Inbound => "inbound",
        })
    }
}

/// A named partition window: nodes in `nodes` are cut off from nodes outside
/// the set from `start` until `heal` (`None` = the partition outlives the
/// job), in the direction(s) given by `direction`. Traffic *within* the set,
/// and within the complement, is unaffected — this models a switch or WAN
/// cut, not node death.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Human-readable name, used in traces and scenario reports.
    pub name: String,
    /// The node set split off from the rest of the platform.
    pub nodes: Vec<NodeId>,
    /// Which direction(s) of boundary-crossing traffic the cut kills.
    pub direction: CutDirection,
    /// When the cut happens.
    pub start: SimTime,
    /// When the cut heals; `None` leaves it in place forever.
    pub heal: Option<SimTime>,
    /// When set, checkpoint-image flows caught mid-stream by the cut leave
    /// a *torn* (truncated, digest-failing) replica on the destination
    /// server instead of cleanly pausing. Models a storage write severed
    /// partway through. Off by default: plain partitions delay traffic
    /// without damaging anything.
    pub tear: bool,
}

/// A partition isolating a *checkpoint-server group* from the rest of the
/// platform. Servers are named by fleet index (position in the deployment's
/// server list), not by node, because the spec is built before placement is
/// decided; the runner resolves indices to nodes and schedules the result as
/// an ordinary [`PartitionSpec`]. This is the shape that exercises replica
/// walks and retained-wave fallback: the ranks stay connected to each other
/// and to the service node, but a slice of the image store goes dark.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerPartitionSpec {
    /// Human-readable name, used in traces and scenario reports.
    pub name: String,
    /// Checkpoint-server fleet indices to isolate.
    pub servers: Vec<usize>,
    /// Which direction(s) of traffic the cut kills, relative to the server
    /// set.
    pub direction: CutDirection,
    /// When the cut happens.
    pub start: SimTime,
    /// When the cut heals; `None` leaves it in place forever.
    pub heal: Option<SimTime>,
    /// Tear image flows severed by the cut (see [`PartitionSpec::tear`]).
    pub tear: bool,
}

/// A seeded up/down renewal process on one directed link: starting at
/// `start`, the link alternates exponentially distributed up intervals
/// (mean `mttf`) and down intervals (mean `mttr`) until `end`, at which
/// point it is unconditionally restored. Expansion to concrete
/// `Down`/`Restore` events is a pure function of the spec (splitmix64
/// stream keyed by `seed`, `from`, and `to`), so two runs of the same plan
/// see the identical schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFlapSpec {
    /// Transmitting endpoint of the flapping directed link.
    pub from: NodeId,
    /// Receiving endpoint of the flapping directed link.
    pub to: NodeId,
    /// Window start; the link begins the window up.
    pub start: SimTime,
    /// Window end; the link is restored here if the last draw left it down.
    pub end: SimTime,
    /// Mean up interval (mean time to failure).
    pub mttf: SimDuration,
    /// Mean down interval (mean time to repair).
    pub mttr: SimDuration,
    /// PRNG seed; the stream is also keyed by the endpoints so several
    /// flaps may share a seed without sharing a schedule.
    pub seed: u64,
}

/// An exponential draw with the given mean from a splitmix64 stream, never
/// shorter than one nanosecond (a zero-length interval would schedule two
/// events of one renewal process at the same instant on the same lane).
/// Drives the flap expansion here and the rot and silent-corruption
/// expansions of `ftmpi-core`.
pub fn exp_draw(state: &mut u64, mean: SimDuration) -> SimDuration {
    // 53 uniform bits shifted into (0, 1): adding 0.5 before scaling keeps
    // the draw strictly positive so ln() stays finite.
    let u = ((splitmix64(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let ns = -(mean.as_nanos() as f64) * u.ln();
    SimDuration::from_nanos((ns.max(1.0)) as u64)
}

impl LinkFlapSpec {
    /// Expand the renewal process into concrete `Down`/`Restore` events.
    /// The expansion always leaves the link up at `end`.
    pub fn expand(&self) -> Vec<LinkFaultEvent> {
        // Fold the endpoints into the stream so flaps sharing a seed get
        // distinct schedules.
        let mut key = ((self.from.0 as u64) << 32) ^ self.to.0 as u64;
        let mut state = self.seed ^ splitmix64(&mut key);
        let mut events = Vec::new();
        let mut t = self.start;
        loop {
            t += exp_draw(&mut state, self.mttf);
            if t >= self.end {
                break;
            }
            events.push(LinkFaultEvent {
                at: t,
                from: self.from,
                to: self.to,
                kind: LinkFaultKind::Down,
            });
            t += exp_draw(&mut state, self.mttr);
            if t >= self.end {
                events.push(LinkFaultEvent {
                    at: self.end,
                    from: self.from,
                    to: self.to,
                    kind: LinkFaultKind::Restore,
                });
                break;
            }
            events.push(LinkFaultEvent {
                at: t,
                from: self.from,
                to: self.to,
                kind: LinkFaultKind::Restore,
            });
        }
        events
    }
}

/// A structurally invalid fault plan, caught at plan-build time instead of
/// silently last-writer-wins inside the model.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A `Restore` on a directed pair that is already at full service —
    /// usually a typo'd endpoint or a restore scheduled before its down.
    RestoreBeforeFault {
        /// Transmitting endpoint of the directed pair.
        from: NodeId,
        /// Receiving endpoint of the directed pair.
        to: NodeId,
        /// When the dangling restore was scheduled.
        at: SimTime,
    },
    /// Two `Down` windows on the same directed pair overlap (a second down
    /// arrives before the first restore): the single restore would silently
    /// heal both.
    OverlappingDownWindows {
        /// Transmitting endpoint of the directed pair.
        from: NodeId,
        /// Receiving endpoint of the directed pair.
        to: NodeId,
        /// When the overlapping down was scheduled.
        at: SimTime,
    },
    /// A partition whose heal is not strictly after its start.
    ZeroLengthPartition {
        /// Name of the offending partition.
        name: String,
    },
    /// A partition over an empty node (or server) set cuts nothing.
    EmptyPartition {
        /// Name of the offending partition.
        name: String,
    },
    /// Two windows share a partition name and overlap in time; the heal of
    /// one would tear down the other (the model keys live partitions by
    /// name).
    OverlappingPartitionName {
        /// The shared name.
        name: String,
        /// Start of the second (overlapping) window.
        at: SimTime,
    },
    /// A flap spec whose window or means are degenerate (end not after
    /// start, or a zero mean interval).
    BadFlapWindow {
        /// Transmitting endpoint of the flapping pair.
        from: NodeId,
        /// Receiving endpoint of the flapping pair.
        to: NodeId,
    },
    /// A server-group partition names a fleet index past the deployment's
    /// server count. Raised by the runner (which knows the fleet size), not
    /// by [`NetFaultPlan::validate`].
    BadServerIndex {
        /// Name of the offending partition.
        name: String,
        /// The out-of-range fleet index.
        index: usize,
        /// Actual fleet size.
        fleet: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::RestoreBeforeFault { from, to, at } => write!(
                f,
                "restore of link {}->{} at {}s has no preceding fault",
                from.0,
                to.0,
                at.as_secs_f64()
            ),
            FaultPlanError::OverlappingDownWindows { from, to, at } => write!(
                f,
                "down of link {}->{} at {}s overlaps an earlier un-restored down",
                from.0,
                to.0,
                at.as_secs_f64()
            ),
            FaultPlanError::ZeroLengthPartition { name } => {
                write!(f, "partition '{name}' heals at or before its start")
            }
            FaultPlanError::EmptyPartition { name } => {
                write!(f, "partition '{name}' cuts an empty set")
            }
            FaultPlanError::OverlappingPartitionName { name, at } => write!(
                f,
                "partition '{name}' window starting at {}s overlaps another window of the same name",
                at.as_secs_f64()
            ),
            FaultPlanError::BadFlapWindow { from, to } => write!(
                f,
                "flap of link {}->{} has a degenerate window or zero mean interval",
                from.0, to.0
            ),
            FaultPlanError::BadServerIndex { name, index, fleet } => write!(
                f,
                "server partition '{name}' names fleet index {index} but the deployment has {fleet} servers"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The full fault schedule attached to a job. The default (empty) plan
/// schedules nothing and leaves every existing code path byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaultPlan {
    /// Directed link transitions, in schedule order.
    pub link_events: Vec<LinkFaultEvent>,
    /// Seeded flapping processes, expanded to link events at schedule time.
    pub flaps: Vec<LinkFlapSpec>,
    /// Named partition windows.
    pub partitions: Vec<PartitionSpec>,
    /// Checkpoint-server-group partition windows (fleet indices; resolved
    /// to nodes by the runner once placement is known).
    pub server_partitions: Vec<ServerPartitionSpec>,
}

impl NetFaultPlan {
    /// An empty plan: no faults, nothing scheduled.
    pub fn none() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.link_events.is_empty()
            && self.flaps.is_empty()
            && self.partitions.is_empty()
            && self.server_partitions.is_empty()
    }

    /// Explicit link events plus every flap expansion, in plan order
    /// (explicit events first, then each flap's schedule). This is the
    /// list the runner actually schedules; its order fixes the fault-lane
    /// assignment, so it must stay a pure function of the plan.
    pub fn expanded_link_events(&self) -> Vec<LinkFaultEvent> {
        let mut evs = self.link_events.clone();
        for flap in &self.flaps {
            evs.extend(flap.expand());
        }
        evs
    }

    /// Number of kernel transitions this plan schedules (each partition
    /// costs one for the cut plus one for the heal when it has one; flaps
    /// count their expanded events).
    pub fn transition_count(&self) -> usize {
        self.expanded_link_events().len()
            + self
                .partitions
                .iter()
                .map(|p| 1 + usize::from(p.heal.is_some()))
                .sum::<usize>()
            + self
                .server_partitions
                .iter()
                .map(|p| 1 + usize::from(p.heal.is_some()))
                .sum::<usize>()
    }

    /// Schedule a directed link going down at `at`.
    pub fn with_link_down(mut self, at: SimTime, from: NodeId, to: NodeId) -> NetFaultPlan {
        self.link_events.push(LinkFaultEvent {
            at,
            from,
            to,
            kind: LinkFaultKind::Down,
        });
        self
    }

    /// Schedule a directed link degrading to `1/factor` bandwidth at `at`.
    pub fn with_link_degrade(
        mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        factor: f64,
    ) -> NetFaultPlan {
        self.link_events.push(LinkFaultEvent {
            at,
            from,
            to,
            kind: LinkFaultKind::Degrade(factor),
        });
        self
    }

    /// Schedule a directed link returning to full service at `at`.
    pub fn with_link_restore(mut self, at: SimTime, from: NodeId, to: NodeId) -> NetFaultPlan {
        self.link_events.push(LinkFaultEvent {
            at,
            from,
            to,
            kind: LinkFaultKind::Restore,
        });
        self
    }

    /// Schedule a seeded flapping window on a directed link.
    pub fn with_link_flap(mut self, flap: LinkFlapSpec) -> NetFaultPlan {
        self.flaps.push(flap);
        self
    }

    /// Schedule a named symmetric partition window.
    pub fn with_partition(
        mut self,
        name: impl Into<String>,
        nodes: Vec<NodeId>,
        start: SimTime,
        heal: Option<SimTime>,
    ) -> NetFaultPlan {
        self.partitions.push(PartitionSpec {
            name: name.into(),
            nodes,
            direction: CutDirection::Both,
            start,
            heal,
            tear: false,
        });
        self
    }

    /// Schedule a named partition window cutting only one direction of
    /// boundary traffic.
    pub fn with_partition_directed(
        mut self,
        name: impl Into<String>,
        nodes: Vec<NodeId>,
        direction: CutDirection,
        start: SimTime,
        heal: Option<SimTime>,
    ) -> NetFaultPlan {
        self.partitions.push(PartitionSpec {
            name: name.into(),
            nodes,
            direction,
            start,
            heal,
            tear: false,
        });
        self
    }

    /// Schedule a partition window that additionally *tears* any
    /// checkpoint-image flow it severs mid-stream: the destination server
    /// is left holding a truncated, digest-failing replica (see
    /// [`PartitionSpec::tear`]). Only takes effect when the job enables
    /// torn writes; otherwise behaves exactly like
    /// [`with_partition_directed`](NetFaultPlan::with_partition_directed).
    pub fn with_partition_tearing(
        mut self,
        name: impl Into<String>,
        nodes: Vec<NodeId>,
        direction: CutDirection,
        start: SimTime,
        heal: Option<SimTime>,
    ) -> NetFaultPlan {
        self.partitions.push(PartitionSpec {
            name: name.into(),
            nodes,
            direction,
            start,
            heal,
            tear: true,
        });
        self
    }

    /// Schedule a partition isolating a checkpoint-server group (by fleet
    /// index) from the rest of the platform.
    pub fn with_server_partition(
        mut self,
        name: impl Into<String>,
        servers: Vec<usize>,
        direction: CutDirection,
        start: SimTime,
        heal: Option<SimTime>,
    ) -> NetFaultPlan {
        self.server_partitions.push(ServerPartitionSpec {
            name: name.into(),
            servers,
            direction,
            start,
            heal,
            tear: false,
        });
        self
    }

    /// Schedule a server-group partition that tears severed image flows
    /// (see [`PartitionSpec::tear`]).
    pub fn with_server_partition_tearing(
        mut self,
        name: impl Into<String>,
        servers: Vec<usize>,
        direction: CutDirection,
        start: SimTime,
        heal: Option<SimTime>,
    ) -> NetFaultPlan {
        self.server_partitions.push(ServerPartitionSpec {
            name: name.into(),
            servers,
            direction,
            start,
            heal,
            tear: true,
        });
        self
    }

    /// Reject structurally broken plans before anything is scheduled:
    /// overlapping down windows on the same directed pair, restores with no
    /// preceding fault, zero-length or empty partitions, same-name
    /// partition windows that overlap, and degenerate flap specs. Flaps are
    /// validated both as specs and through their expansion, so a flap that
    /// collides with an explicit down on the same pair is caught too.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        use std::collections::BTreeMap;

        for flap in &self.flaps {
            if flap.end <= flap.start || flap.mttf.is_zero() || flap.mttr.is_zero() {
                return Err(FaultPlanError::BadFlapWindow {
                    from: flap.from,
                    to: flap.to,
                });
            }
        }

        // Walk the per-pair link-state machine over the expanded schedule.
        let mut per_pair: BTreeMap<(usize, usize), Vec<&LinkFaultEvent>> = BTreeMap::new();
        let expanded = self.expanded_link_events();
        for ev in &expanded {
            per_pair.entry((ev.from.0, ev.to.0)).or_default().push(ev);
        }
        for evs in per_pair.values_mut() {
            // Stable by time: same-instant events keep plan order, which is
            // also the order the kernel fires them in (fault lanes are
            // assigned by plan index).
            evs.sort_by_key(|e| e.at);
            let (mut down, mut degraded) = (false, false);
            for ev in evs.iter() {
                match ev.kind {
                    LinkFaultKind::Down => {
                        if down {
                            return Err(FaultPlanError::OverlappingDownWindows {
                                from: ev.from,
                                to: ev.to,
                                at: ev.at,
                            });
                        }
                        down = true;
                    }
                    LinkFaultKind::Degrade(_) => degraded = true,
                    LinkFaultKind::Restore => {
                        if !down && !degraded {
                            return Err(FaultPlanError::RestoreBeforeFault {
                                from: ev.from,
                                to: ev.to,
                                at: ev.at,
                            });
                        }
                        down = false;
                        degraded = false;
                    }
                }
            }
        }

        // Partition windows: regular and server-group specs share the
        // model's by-name namespace, so overlap checks run on the union.
        let mut windows: BTreeMap<&str, Vec<(SimTime, Option<SimTime>)>> = BTreeMap::new();
        for p in &self.partitions {
            if p.nodes.is_empty() {
                return Err(FaultPlanError::EmptyPartition {
                    name: p.name.clone(),
                });
            }
            if p.heal.is_some_and(|h| h <= p.start) {
                return Err(FaultPlanError::ZeroLengthPartition {
                    name: p.name.clone(),
                });
            }
            windows.entry(&p.name).or_default().push((p.start, p.heal));
        }
        for p in &self.server_partitions {
            if p.servers.is_empty() {
                return Err(FaultPlanError::EmptyPartition {
                    name: p.name.clone(),
                });
            }
            if p.heal.is_some_and(|h| h <= p.start) {
                return Err(FaultPlanError::ZeroLengthPartition {
                    name: p.name.clone(),
                });
            }
            windows.entry(&p.name).or_default().push((p.start, p.heal));
        }
        for (name, wins) in windows.iter_mut() {
            wins.sort();
            for pair in wins.windows(2) {
                let (start_a, heal_a) = pair[0];
                let (start_b, _) = pair[1];
                let overlaps = match heal_a {
                    None => true,
                    Some(h) => start_b < h,
                };
                // Same-instant duplicate windows collide even when the
                // earlier one heals: sort puts equal starts together.
                if overlaps || start_a == start_b {
                    return Err(FaultPlanError::OverlappingPartitionName {
                        name: (*name).to_string(),
                        at: start_b,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn empty_plan_is_empty() {
        let p = NetFaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.transition_count(), 0);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn builders_accumulate_and_count_transitions() {
        let p = NetFaultPlan::none()
            .with_link_down(t(1), NodeId(0), NodeId(1))
            .with_link_degrade(t(2), NodeId(1), NodeId(2), 4.0)
            .with_link_restore(t(3), NodeId(0), NodeId(1))
            .with_partition("switch-a", vec![NodeId(0), NodeId(1)], t(4), Some(t(6)))
            .with_partition("forever", vec![NodeId(2)], t(5), None);
        assert!(!p.is_empty());
        assert_eq!(p.link_events.len(), 3);
        assert_eq!(p.partitions.len(), 2);
        // 3 link events + (cut + heal) + (cut only).
        assert_eq!(p.transition_count(), 6);
        assert_eq!(p.partitions[0].name, "switch-a");
        assert_eq!(p.partitions[0].direction, CutDirection::Both);
        assert_eq!(
            p.link_events[1].kind,
            LinkFaultKind::Degrade(4.0),
            "degrade factor carried through"
        );
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn fault_lanes_stay_in_their_namespace() {
        assert_ne!(FAULT_LANE_BASE, 1 << 63, "disjoint from flow lanes");
        assert_eq!(fault_lane(5), FAULT_LANE_BASE | 5);
    }

    #[test]
    fn flap_expansion_is_deterministic_and_self_contained() {
        let flap = LinkFlapSpec {
            from: NodeId(0),
            to: NodeId(3),
            start: t(1),
            end: t(60),
            mttf: SimDuration::from_secs(5),
            mttr: SimDuration::from_millis(500),
            seed: 42,
        };
        let a = flap.expand();
        let b = flap.expand();
        assert_eq!(a, b, "expansion must be a pure function of the spec");
        assert!(!a.is_empty(), "a 60s window at 5s MTTF should flap");
        // Alternating Down/Restore, monotone non-decreasing times, and the
        // window always closes with the link up.
        for (i, ev) in a.iter().enumerate() {
            let want = if i % 2 == 0 {
                LinkFaultKind::Down
            } else {
                LinkFaultKind::Restore
            };
            assert_eq!(ev.kind, want, "event {i} alternates");
            assert!(ev.at > flap.start && ev.at <= flap.end);
            if i > 0 {
                assert!(a[i - 1].at <= ev.at, "times monotone");
            }
        }
        assert_eq!(a.len() % 2, 0, "every down has a matching restore");
        assert_eq!(a.last().unwrap().kind, LinkFaultKind::Restore);
    }

    #[test]
    fn flap_streams_differ_by_seed_and_endpoint() {
        let base = LinkFlapSpec {
            from: NodeId(0),
            to: NodeId(3),
            start: t(0),
            end: t(120),
            mttf: SimDuration::from_secs(4),
            mttr: SimDuration::from_secs(1),
            seed: 7,
        };
        let reseeded = LinkFlapSpec {
            seed: 8,
            ..base.clone()
        };
        let moved = LinkFlapSpec {
            to: NodeId(4),
            ..base.clone()
        };
        let times = |evs: Vec<LinkFaultEvent>| evs.iter().map(|e| e.at).collect::<Vec<_>>();
        assert_ne!(times(base.expand()), times(reseeded.expand()));
        let base_times = times(base.expand());
        let moved_times = times(moved.expand());
        assert_ne!(base_times, moved_times, "endpoints key the stream");
    }

    #[test]
    fn validate_rejects_restore_before_fault() {
        let p = NetFaultPlan::none().with_link_restore(t(3), NodeId(0), NodeId(1));
        assert_eq!(
            p.validate(),
            Err(FaultPlanError::RestoreBeforeFault {
                from: NodeId(0),
                to: NodeId(1),
                at: t(3),
            })
        );
        // Degrade-then-restore is a legal fault window.
        let ok = NetFaultPlan::none()
            .with_link_degrade(t(1), NodeId(0), NodeId(1), 2.0)
            .with_link_restore(t(3), NodeId(0), NodeId(1));
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_overlapping_down_windows() {
        let p = NetFaultPlan::none()
            .with_link_down(t(1), NodeId(0), NodeId(1))
            .with_link_down(t(2), NodeId(0), NodeId(1))
            .with_link_restore(t(3), NodeId(0), NodeId(1));
        assert_eq!(
            p.validate(),
            Err(FaultPlanError::OverlappingDownWindows {
                from: NodeId(0),
                to: NodeId(1),
                at: t(2),
            })
        );
        // The same two windows on *different* directions are independent.
        let ok = NetFaultPlan::none()
            .with_link_down(t(1), NodeId(0), NodeId(1))
            .with_link_down(t(2), NodeId(1), NodeId(0))
            .with_link_restore(t(3), NodeId(0), NodeId(1))
            .with_link_restore(t(3), NodeId(1), NodeId(0));
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_degenerate_partitions() {
        let zero = NetFaultPlan::none().with_partition("z", vec![NodeId(0)], t(4), Some(t(4)));
        assert_eq!(
            zero.validate(),
            Err(FaultPlanError::ZeroLengthPartition { name: "z".into() })
        );
        let empty = NetFaultPlan::none().with_partition("e", vec![], t(4), None);
        assert_eq!(
            empty.validate(),
            Err(FaultPlanError::EmptyPartition { name: "e".into() })
        );
        let overlap = NetFaultPlan::none()
            .with_partition("dup", vec![NodeId(0)], t(1), Some(t(5)))
            .with_partition("dup", vec![NodeId(1)], t(3), Some(t(8)));
        assert_eq!(
            overlap.validate(),
            Err(FaultPlanError::OverlappingPartitionName {
                name: "dup".into(),
                at: t(3),
            })
        );
        // Disjoint windows may reuse a name.
        let ok = NetFaultPlan::none()
            .with_partition("dup", vec![NodeId(0)], t(1), Some(t(2)))
            .with_partition("dup", vec![NodeId(1)], t(3), Some(t(4)));
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_flap_windows() {
        let bad = |flap: LinkFlapSpec| {
            let got = NetFaultPlan::none().with_link_flap(flap).validate();
            assert_eq!(
                got,
                Err(FaultPlanError::BadFlapWindow {
                    from: NodeId(0),
                    to: NodeId(1),
                })
            );
        };
        let ok_spec = LinkFlapSpec {
            from: NodeId(0),
            to: NodeId(1),
            start: t(1),
            end: t(10),
            mttf: SimDuration::from_secs(1),
            mttr: SimDuration::from_millis(100),
            seed: 1,
        };
        bad(LinkFlapSpec {
            end: t(1),
            ..ok_spec.clone()
        });
        bad(LinkFlapSpec {
            mttf: SimDuration::ZERO,
            ..ok_spec.clone()
        });
        bad(LinkFlapSpec {
            mttr: SimDuration::ZERO,
            ..ok_spec.clone()
        });
        assert_eq!(
            NetFaultPlan::none().with_link_flap(ok_spec).validate(),
            Ok(())
        );
    }

    #[test]
    fn tearing_builders_set_the_flag_and_validate_like_plain_cuts() {
        let p = NetFaultPlan::none()
            .with_partition("plain", vec![NodeId(0)], t(1), Some(t(2)))
            .with_partition_tearing(
                "torn",
                vec![NodeId(1)],
                CutDirection::Both,
                t(3),
                Some(t(4)),
            )
            .with_server_partition_tearing("torn-srv", vec![0], CutDirection::Inbound, t(5), None);
        assert!(!p.partitions[0].tear);
        assert!(p.partitions[1].tear);
        assert!(p.server_partitions[0].tear);
        assert_eq!(p.validate(), Ok(()));
        // Same structural checks apply to tearing windows.
        let bad = NetFaultPlan::none().with_partition_tearing(
            "z",
            vec![NodeId(0)],
            CutDirection::Both,
            t(4),
            Some(t(4)),
        );
        assert_eq!(
            bad.validate(),
            Err(FaultPlanError::ZeroLengthPartition { name: "z".into() })
        );
    }

    #[test]
    fn server_partitions_validate_and_count() {
        let p = NetFaultPlan::none().with_server_partition(
            "store-dark",
            vec![0, 1],
            CutDirection::Both,
            t(2),
            Some(t(6)),
        );
        assert!(!p.is_empty());
        assert_eq!(p.transition_count(), 2);
        assert_eq!(p.validate(), Ok(()));
        let empty = NetFaultPlan::none().with_server_partition(
            "none",
            vec![],
            CutDirection::Both,
            t(2),
            None,
        );
        assert_eq!(
            empty.validate(),
            Err(FaultPlanError::EmptyPartition {
                name: "none".into()
            })
        );
    }
}
