//! Chunked background flows: checkpoint images and message logs streamed to
//! the checkpoint servers.
//!
//! A flow transfers `bytes` from one node to another in chunks; each chunk
//! is a separate network reservation and kernel event, so MPI messages
//! interleave with the stream on the shared NICs — the fair-sharing
//! behaviour behind Fig. 5's server-scaling result and the Pcl contention
//! discussion. When `also_disk` is set the flow simultaneously writes the
//! local disk file (clone writing + daemon pipelining read→send), and each
//! chunk completes at the slower of the two.
//!
//! Entry points take the runtime half of the world (`&mut RuntimeCore`): the
//! caller already holds the world borrow (a second `borrow_mut` would
//! panic), often split with its protocol engine; *later* chunks run from
//! their scheduled events, with the whole world.
//!
//! ## The flow table
//!
//! A flow's state lives once in the runtime's flow table: its spec, the
//! bytes sent, its launch epoch, its retry ladder, and its `on_done` /
//! `on_fail` hooks, boxed once per flow. Its events — the start, each chunk
//! landing, each retry probe — are data events naming the table slot
//! (`[FLOW, slot]`), so a chunk allocates nothing. A flow has exactly one event
//! pending at any time; the event that finishes, surrenders or outlives
//! the flow's epoch takes it out of the table.
//!
//! ## Network faults
//!
//! Every chunk (and every control message) checks
//! [`reachable`](ftmpi_net::NetModel::reachable) before reserving the path.
//! An unreachable destination *pauses* the flow — the chunk is not dropped;
//! a backoff probe re-checks with capped exponential delays
//! ([`FlowRetry`]), counting `rt.stats.link_retries`. Plain flows and
//! control messages retry until the fault clears (a TCP stream blocked by
//! a partition just stalls); [`start_flow_guarded`] flows carry an attempt
//! budget and surrender to an `on_fail` hook when it runs out (checkpoint
//! pushes fall back to the next replica server). With no scheduled faults
//! `reachable` is always true and every code path is byte-identical to the
//! fault-free model.

use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimDuration, SimTime};

use crate::runtime::{RaceFixture, RuntimeCore};
use crate::world::{World, FLOW};

/// Parameters of one background flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total bytes to move.
    pub bytes: u64,
    /// Chunk granularity.
    pub chunk: u64,
    /// Mirror the stream to the source node's local disk.
    pub also_disk: bool,
}

type DoneFn = Box<dyn FnOnce(&mut World, &SimCtx, SimTime)>;
type FailFn = Box<dyn FnOnce(&mut World, &SimCtx)>;
type ArrivalFn = Box<dyn FnOnce(&mut World, &SimCtx)>;

/// One flow's state in the runtime's flow table.
pub(crate) struct Flow {
    spec: FlowSpec,
    /// Bytes already reserved on the network.
    sent: u64,
    /// The job epoch the flow started in: a restart kills the stream.
    epoch: u64,
    retry: FlowRetry,
    /// Consecutive failed reachability probes so far.
    attempt: u32,
    on_fail: Option<FailFn>,
    on_done: DoneFn,
}

/// Tiebreak-lane namespace for flow-chunk events, disjoint from process
/// lanes by the high bit (a collision would only merge lanes, which is
/// always safe — it can only *preserve* more order).
const FLOW_LANE_BASE: u64 = 1 << 63;

/// Lane shared by every flow converging on `dst`: concurrent checkpoint
/// streams contend FIFO for the destination server's ingest queue, so the
/// order of their same-instant chunk reservations is arbitration state that
/// a perturbation seed must not scramble (it would swap which rank's image
/// lands last and move the wave-commit instant). Retry probes aimed at
/// `dst` share the lane, so a probe landing on the same instant as a
/// scheduled fault transition keeps a deterministic canonical order.
pub fn flow_lane(dst: NodeId) -> u64 {
    FLOW_LANE_BASE | dst.0 as u64
}

/// Backoff policy a flow applies while its destination is unreachable.
#[derive(Debug, Clone, Copy)]
pub struct FlowRetry {
    /// Delay before the first probe; doubles per consecutive failure.
    pub base: SimDuration,
    /// Ceiling on the doubled delay.
    pub cap: SimDuration,
    /// Consecutive failed probes before the flow gives up (`None`: retry
    /// until the fault clears — the pure pause semantic).
    pub limit: Option<u32>,
}

impl FlowRetry {
    /// The unbounded pause policy of control messages: 50 ms doubling to
    /// 2 s, retrying until the fault clears.
    pub const PAUSE: FlowRetry = FlowRetry {
        limit: None,
        ..FlowRetry::LADDER
    };

    /// The bounded ladder of checkpoint image pushes, scrub repairs and
    /// restore fetches: the same 50 ms doubling to 2 s, but after 8
    /// consecutive failed probes the caller gives up on the destination
    /// (a push reroutes to another server, a fetch walks to the next
    /// replica).
    pub const LADDER: FlowRetry = FlowRetry {
        base: SimDuration::from_millis(50),
        cap: SimDuration::from_secs(2),
        limit: Some(8),
    };

    /// Delay before 0-based probe `attempt`: `base · 2^attempt`, capped.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        let base = self.base.max(SimDuration::from_nanos(1));
        (base * (1u64 << attempt.min(32))).min(self.cap.max(base))
    }
}

/// Start a flow; `on_done(world, sc, finish_time)` runs when the last chunk
/// lands. The flow aborts silently if the job epoch changes (a
/// failure-restart) — exactly like a TCP stream dying with its process.
///
/// The first chunk is deferred by a per-source-node nanosecond stagger
/// rather than reserved synchronously: checkpoint forks of several ranks
/// can land on the same virtual instant, and without the stagger the order
/// in which their streams hit the shared server queue would be whatever
/// order the fork events happened to execute in — an accident of
/// scheduling that a tiebreak perturbation seed would scramble, swapping
/// which rank's image lands last. The stagger (≤ a few ns against multi-ms
/// transfers) makes the arbitration a deterministic function of the
/// platform, not of the schedule.
pub fn start_flow(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    spec: FlowSpec,
    on_done: impl FnOnce(&mut World, &SimCtx, SimTime) + 'static,
) {
    start_flow_inner(rt, sc, spec, FlowRetry::PAUSE, None, Box::new(on_done));
}

/// Like [`start_flow`], but on the bounded [`FlowRetry::LADDER`]: when the
/// destination stays unreachable for its limit of consecutive probes the
/// flow surrenders and `on_fail(world, sc)` runs instead of `on_done`
/// (checkpoint pushes use this to fall back to the next replica server).
pub fn start_flow_guarded(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    spec: FlowSpec,
    on_fail: impl FnOnce(&mut World, &SimCtx) + 'static,
    on_done: impl FnOnce(&mut World, &SimCtx, SimTime) + 'static,
) {
    start_flow_inner(
        rt,
        sc,
        spec,
        FlowRetry::LADDER,
        Some(Box::new(on_fail)),
        Box::new(on_done),
    );
}

fn start_flow_inner(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    spec: FlowSpec,
    retry: FlowRetry,
    on_fail: Option<FailFn>,
    on_done: DoneFn,
) {
    // The per-source nanosecond stagger plus the destination lane are what
    // keep same-instant flow starts on one server deterministically
    // arbitrated; the `UnstaggeredFlows` regression fixture removes both to
    // re-open the arbitration race for the schedule explorer.
    let raced = rt.race_fixture == Some(RaceFixture::UnstaggeredFlows);
    let at = if raced {
        sc.now()
    } else {
        sc.now() + SimDuration::from_nanos(spec.src.0 as u64)
    };
    let lane = if raced {
        None
    } else {
        Some(flow_lane(spec.dst))
    };
    let slot = rt.flows.insert(Flow {
        spec,
        sent: 0,
        epoch: rt.epoch,
        retry,
        attempt: 0,
        on_fail,
        on_done,
    });
    sc.schedule_data(at, lane, [FLOW, slot as u64]);
}

/// A flow event — the start, a chunk landing or a retry probe — for the
/// flow in table `slot`. A flow whose epoch a failure-restart ended dies
/// here, before its first byte or mid-stream, exactly like a TCP stream
/// dying with its process. Otherwise the flow moves on: it finishes, or
/// reserves its next chunk, or, while its destination is unreachable,
/// probes again after a backoff or surrenders.
pub(crate) fn on_flow_event(w: &mut World, sc: &SimCtx, slot: usize) {
    let rt = &mut w.rt;
    let f = rt.flows.get_mut(slot);
    if f.epoch != rt.epoch {
        rt.flows.take(slot);
        return;
    }
    if f.sent >= f.spec.bytes {
        let f = rt.flows.take(slot);
        (f.on_done)(w, sc, sc.now());
        return;
    }
    let (src, dst) = (f.spec.src, f.spec.dst);
    let lane = Some(flow_lane(dst));
    // Bulk flows model a reliable stream: each chunk needs the data path
    // *and* the acknowledgement path back. Under a one-directional cut the
    // sender's window closes — data may physically arrive but nothing is
    // committed, so the stream stalls exactly like a full cut and no chunk
    // is double-sent when the cut heals.
    if !rt.net.reachable(src, dst) || !rt.net.reachable(dst, src) {
        // Paused by a link fault or partition: nothing is dropped, the
        // stream just stalls. Probe again after a capped exponential
        // backoff — or surrender to `on_fail` once the budget is spent.
        if f.retry.limit.is_some_and(|limit| f.attempt >= limit) {
            if let Some(fail) = rt.flows.take(slot).on_fail {
                fail(w, sc);
            }
            return;
        }
        let probe_at = sc.now() + f.retry.delay(f.attempt);
        f.attempt += 1;
        rt.stats.link_retries += 1;
        sc.schedule_data(probe_at, lane, [FLOW, slot as u64]);
        return;
    }
    // Reserve this chunk and schedule its completion: one network
    // reservation and one kernel event per chunk, so MPI traffic reserved
    // in between shares the NICs with the stream.
    let now = sc.now();
    let len = f.spec.chunk.max(1).min(f.spec.bytes - f.sent);
    let net_done = rt.net.transfer(src, dst, len, now).delivered;
    let done = if f.spec.also_disk {
        net_done.max(rt.net.disk_write(src, len, now))
    } else {
        net_done
    };
    f.sent += len;
    // A delivered chunk proves the link: the next stall starts a fresh
    // backoff ladder.
    f.attempt = 0;
    sc.schedule_data(done, lane, [FLOW, slot as u64]);
}

/// One-shot control message between protocol endpoints (markers from the
/// checkpoint scheduler, acknowledgements, commit notifications). Delivered
/// through the network model with an epoch guard. `lane` is the tiebreak
/// lane of the arrival event — pass the destination process's lane when the
/// message races same-time traffic to one rank (scheduler markers), `None`
/// for order-insensitive sinks (ack and report counters).
pub fn send_control(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    lane: Option<u64>,
    on_arrival: impl FnOnce(&mut World, &SimCtx) + 'static,
) {
    send_control_attempt(rt, sc, src, dst, bytes, lane, 0, Box::new(on_arrival));
}

/// One delivery attempt of a control message. While the destination is
/// unreachable the message waits — heartbeats and markers blocked by a
/// partition arrive late rather than never — re-probing with the default
/// unbounded backoff ([`FlowRetry::PAUSE`]).
#[allow(clippy::too_many_arguments)] // private recursion carrying retry state
fn send_control_attempt(
    rt: &mut RuntimeCore,
    sc: &SimCtx,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    lane: Option<u64>,
    attempt: u32,
    on_arrival: ArrivalFn,
) {
    let epoch = rt.epoch;
    let handle = rt.world_handle();
    if !rt.net.reachable(src, dst) {
        rt.stats.link_retries += 1;
        let probe_at = sc.now() + FlowRetry::PAUSE.delay(attempt);
        // Probes keep the caller's lane: a retried marker still races the
        // same per-rank traffic it raced on first emission.
        sc.schedule_keyed(probe_at, lane, move |sc| {
            let Some(strong) = handle.upgrade() else {
                return;
            };
            let mut w = strong.borrow_mut();
            if w.rt.epoch != epoch {
                return;
            }
            let rt = &mut w.rt;
            send_control_attempt(rt, sc, src, dst, bytes, lane, attempt + 1, on_arrival);
        });
        return;
    }
    let at = rt.net.transfer(src, dst, bytes, sc.now()).delivered;
    sc.schedule_keyed(at, lane, move |sc| {
        let Some(strong) = handle.upgrade() else {
            return;
        };
        let mut w = strong.borrow_mut();
        if w.rt.epoch != epoch {
            return;
        }
        on_arrival(&mut w, sc);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_retry_delay_doubles_and_caps() {
        let retry = FlowRetry::PAUSE;
        assert_eq!(retry.limit, None);
        assert_eq!(retry.delay(0), SimDuration::from_millis(50));
        assert_eq!(retry.delay(1), SimDuration::from_millis(100));
        assert_eq!(retry.delay(5), SimDuration::from_millis(1600));
        // 50ms · 2^6 = 3.2s caps at 2s, and stays capped forever after.
        assert_eq!(retry.delay(6), SimDuration::from_secs(2));
        assert_eq!(retry.delay(63), SimDuration::from_secs(2));
        // Degenerate inputs stay sane: a zero base becomes 1 ns, a cap
        // below the base is lifted to the base.
        let z = FlowRetry {
            base: SimDuration::ZERO,
            cap: SimDuration::ZERO,
            limit: Some(1),
        };
        assert_eq!(z.delay(0), SimDuration::from_nanos(1));
        assert_eq!(z.delay(40), SimDuration::from_nanos(1));
    }
}
