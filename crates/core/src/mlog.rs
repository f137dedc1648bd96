//! Mlog: uncoordinated checkpointing with **pessimistic receiver-based
//! message logging** — the alternative family the paper positions itself
//! against (§2, and the MPICH-V line of work it builds on).
//!
//! Mechanics:
//!
//! * every application message is **logged to the rank's checkpoint server
//!   before it is delivered** (pessimistic: no process state may depend on
//!   an unlogged reception). The synchronous log round-trip is the
//!   protocol's failure-free overhead — the reason §2 notes that message
//!   logging "decreases the performance in reliable environments, such as
//!   clusters";
//! * every rank takes **independent periodic checkpoints** (no markers, no
//!   coordination, staggered start); committing an image prunes the log
//!   prefix it supersedes;
//! * on a failure **only the failed rank rolls back**: it restores its last
//!   image, replays its logged receptions in order, receives the messages
//!   buffered while it was down, and suppresses the duplicates of its
//!   re-executed sends at the receivers. No orphans can exist because no
//!   delivery precedes its log record.
//!
//! The two events the engine schedules per message and per checkpoint
//! cycle are data ([`Protocol::on_data`]), not boxed closures: a log
//! acknowledgement names its slot in the engine's table of pending
//! acknowledgements, which holds the logged message until that event
//! runs, and a rank's checkpoint timer names the rank and its incarnation.

use std::any::Any;

use ftmpi_mpi::flow::{start_flow, FlowSpec};
use ftmpi_mpi::{
    schedule_proto_data, spawn_rank, AppFn, AppMsg, ArrivalAction, Protocol, Rank, RankStatus,
    RuntimeCore, SendAction, World,
};
use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimDuration, SimTime};

use crate::config::FtConfig;
use crate::deploy::Deployment;
use crate::image::RankImage;
use crate::stats::{FtStats, WaveTiming};
use crate::wave::with_engine;

/// Per-rank logging / checkpoint state.
struct MlogRank {
    /// Receiver-based log: every delivered message since the last committed
    /// image, in delivery order.
    log: Vec<AppMsg>,
    /// Last committed image, with the log position it supersedes.
    image: Option<RankImage>,
    /// Image version counter (stale flow completions are ignored).
    image_version: u64,
    /// An image capture+stream is in flight.
    ckpt_in_flight: bool,
    /// The captured-but-not-yet-landed image, keyed by its version. Kept
    /// per rank (at most one capture is in flight, the `ckpt_in_flight`
    /// guard) so a saturated checkpoint server — thousands of streams
    /// backed up at once — costs O(1) per completion, not a scan of the
    /// whole backlog.
    pending: Option<(u64, RankImage)>,
}

/// A message whose synchronous log write is in flight (arrived but not
/// yet stable): it is delivered when its acknowledgement event runs.
struct PendingAck {
    msg: AppMsg,
    /// The job epoch and the receiver's incarnation when it arrived: if
    /// either moved before the acknowledgement, the event is stale.
    epoch: u64,
    incarnation: u64,
    /// Arrival order, job-wide. On a failure the victim's pending messages
    /// are re-injected in this order, so the channel never reorders across
    /// the restart.
    order: u64,
}

/// Low bit of an Mlog data word: an acknowledgement (`slot << 1`) or a
/// rank's checkpoint timer (`incarnation << 32 | rank << 1 | TIMER`).
const TIMER: u64 = 1;

/// The uncoordinated message-logging engine.
pub struct Mlog {
    cfg: FtConfig,
    server_node_of: Vec<NodeId>,
    /// Protocol statistics (wave numbers count per-rank checkpoints).
    pub stats: FtStats,
    ranks: Vec<MlogRank>,
    /// Pending acknowledgements by slot. A slot is vacated only when its
    /// own event runs, stale or not: a restart leaves the victim's old
    /// acknowledgements queued, and a slot reused before its event ran
    /// would hand that stale event a newer message.
    acks: Vec<Option<PendingAck>>,
    /// Vacated slots of `acks`, reused first.
    free_acks: Vec<usize>,
    /// Arrivals logged so far (the next [`PendingAck::order`]).
    arrivals: u64,
}

impl Mlog {
    /// Build the engine for a deployment.
    pub fn new(cfg: FtConfig, dep: &Deployment) -> Mlog {
        Mlog {
            cfg,
            server_node_of: (0..dep.nranks()).map(|r| dep.server_node_of(r)).collect(),
            stats: FtStats::default(),
            ranks: (0..dep.nranks())
                .map(|_| MlogRank {
                    log: Vec::new(),
                    image: None,
                    image_version: 0,
                    ckpt_in_flight: false,
                    pending: None,
                })
                .collect(),
            acks: Vec::new(),
            free_acks: Vec::new(),
            arrivals: 0,
        }
    }

    /// Arm rank `r`'s next checkpoint at `at` (incarnation-guarded).
    pub(crate) fn schedule_rank_ckpt(sc: &SimCtx, r: Rank, at: SimTime, incarnation: u64) {
        assert!(
            r < 1 << 31 && incarnation < 1 << 32,
            "a checkpoint timer packs rank {r} and incarnation {incarnation} into one word"
        );
        schedule_proto_data(sc, at, incarnation << 32 | (r as u64) << 1 | TIMER);
    }

    /// Rank `r`'s checkpoint timer of `incarnation` fired.
    fn on_rank_timer(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, r: Rank, incarnation: u64) {
        if rt.job_complete() || rt.ranks[r].incarnation != incarnation {
            return;
        }
        if rt.ranks[r].status == RankStatus::Dead {
            return; // restart will re-arm
        }
        self.take_rank_checkpoint(rt, sc, r);
    }

    /// Capture and stream rank `r`'s image; commit on completion.
    fn take_rank_checkpoint(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, r: Rank) {
        let incarnation = rt.ranks[r].incarnation;
        let mr = &mut self.ranks[r];
        if mr.ckpt_in_flight {
            return;
        }
        mr.ckpt_in_flight = true;
        self.stats.waves_started += 1;
        rt.add_penalty(r, self.cfg.fork_cost);
        let image = RankImage {
            expect_seq: rt.expect_seq_snapshot(r),
            send_seq: rt.send_seq_snapshot(r),
            ..RankImage::capture(rt, r, sc.now())
        };
        mr.image_version += 1;
        let version = mr.image_version;
        let log_mark = mr.log.len() as u64;
        // The image commits only when the stream lands. Overwriting a
        // leftover entry from before a restart is fine: that capture was
        // superseded and its completion no longer matches.
        mr.pending = Some((version, image));
        let spec = FlowSpec {
            src: rt.placement.node_of(r),
            dst: self.server_node_of[r],
            bytes: self.cfg.image_bytes,
            chunk: self.cfg.chunk_bytes,
            also_disk: self.cfg.write_local_disk,
        };
        start_flow(rt, sc, spec, move |w, sc, done_at| {
            Mlog::image_stored(w, sc, r, version, log_mark, done_at, incarnation);
        });
    }

    /// The acknowledgement in `slot` arrived: the message's log record is
    /// stable, so it is logged and delivered, unless the receiver
    /// restarted (or the job rolled back) since it arrived. The slot is
    /// vacated either way: this is its own event.
    fn on_ack(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, slot: usize) {
        let ack = self.acks[slot]
            .take()
            .expect("an acknowledgement runs once");
        self.free_acks.push(slot);
        if rt.epoch != ack.epoch {
            return;
        }
        if rt.ranks[ack.msg.dst].incarnation != ack.incarnation {
            // The rank died before the log record stabilized. The restart
            // already re-injected this message from the pending set, in
            // channel order — this stale completion simply dies.
            return;
        }
        self.ranks[ack.msg.dst].log.push(ack.msg.clone());
        rt.deliver_to_matching(sc, ack.msg);
    }

    /// A rank's image finished streaming: commit it, prune the log, re-arm.
    #[allow(clippy::too_many_arguments)]
    fn image_stored(
        w: &mut World,
        sc: &SimCtx,
        r: Rank,
        version: u64,
        log_mark: u64,
        done_at: SimTime,
        incarnation: u64,
    ) {
        let mut next: Option<SimTime> = None;
        with_engine(w, |m: &mut Mlog, rt| {
            let image = match m.ranks[r].pending.take() {
                Some((pv, image)) if pv == version => image,
                // A completion for a superseded capture: put back whatever
                // newer in-flight image it raced with.
                other => {
                    m.ranks[r].pending = other;
                    return;
                }
            };
            let taken_at = image.taken_at;
            let mr = &mut m.ranks[r];
            if mr.image_version != version {
                return; // superseded
            }
            mr.ckpt_in_flight = false;
            // Commit: the log prefix before the capture is superseded.
            mr.log.drain(..(log_mark as usize).min(mr.log.len()));
            mr.image = Some(image);
            m.stats.image_bytes_sent += m.cfg.image_bytes;
            m.stats.waves_committed += 1;
            m.stats.wave_timings.push(WaveTiming {
                wave: m.stats.waves_committed,
                started_at: taken_at,
                committed_at: done_at,
            });
            if rt.ranks[r].incarnation == incarnation {
                next = Some(sc.now() + m.cfg.period);
            }
        });
        if let Some(at) = next {
            Mlog::schedule_rank_ckpt(sc, r, at, incarnation);
        }
    }

    /// Single-rank failure handling, the whole of an Mlog kill: only
    /// `victim` rolls back; everyone else keeps computing. A victim that
    /// already finished, or a job that completed, makes this a no-op.
    ///
    /// The victim restores its own last image, replays its receiver-based
    /// log, and re-executes from there; its re-sent messages are suppressed
    /// as duplicates at the receivers, and messages addressed to it while
    /// it was down wait in the runtime (sender-side transport
    /// retransmission).
    pub(crate) fn restart_rank(w: &mut World, sc: &SimCtx, app: &AppFn, victim: Rank) {
        if w.rt.job_complete() || w.rt.ranks[victim].status != RankStatus::Running {
            return;
        }
        if let Some(pid) = w.rt.ranks[victim].pid.take() {
            sc.kill(pid);
        }
        w.rt.stats.restarts += 1;
        let (has_image, in_flight) = with_engine(w, |m: &mut Mlog, rt| {
            m.stats.restarts += 1;
            // The messages whose log writes are in flight leave with the
            // failure. Their acknowledgements stay queued and die on the
            // incarnation guard, each vacating its own slot. Finding them
            // scans the pending acknowledgements, once per restart.
            let incarnation = rt.ranks[victim].incarnation;
            let mut in_flight: Vec<&PendingAck> = m
                .acks
                .iter()
                .flatten()
                .filter(|a| a.msg.dst == victim && a.incarnation == incarnation)
                .collect();
            in_flight.sort_unstable_by_key(|a| a.order);
            let in_flight: Vec<AppMsg> = in_flight.into_iter().map(|a| a.msg.clone()).collect();
            let mr = &mut m.ranks[victim];
            mr.ckpt_in_flight = false;
            // Roll the victim back (bumps its incarnation: stale per-rank
            // events and timers die) and rebuild its pre-crash runtime
            // memory.
            let (skip, credit) = mr
                .image
                .as_ref()
                .map_or((0, SimDuration::ZERO), |i| (i.ops_completed, i.time_credit));
            rt.ranks[victim].reset_for_restart(skip, credit);
            match &mr.image {
                Some(img) => {
                    rt.set_expect_seq(victim, img.expect_seq.clone());
                    rt.set_send_seq(victim, img.send_seq.clone());
                    for msg in &img.pending {
                        rt.inject_restored(sc, msg.clone());
                    }
                }
                // No image: the rank restarts from scratch with empty
                // (all-zero) sparse watermarks.
                None => rt.set_expect_seq(victim, Vec::new()),
            }
            // Replay the receiver-based log, in delivery order.
            for msg in &mr.log {
                rt.inject_restored(sc, msg.clone());
            }
            (mr.image.is_some(), in_flight)
        });
        // They re-enter arrival handling in their original order (and
        // re-log under the new incarnation); doing this before any later
        // traffic preserves the per-channel FIFO the duplicate watermark
        // depends on.
        for msg in in_flight {
            w.handle_arrival(sc, msg);
        }

        // Image fetch from the victim's server, then respawn and re-arm its
        // independent checkpoint cycle.
        let (ready, period) = with_engine(w, |m: &mut Mlog, rt| {
            let base = sc.now() + m.cfg.restart_delay;
            let ready = if has_image {
                let node = rt.placement.node_of(victim);
                let server = m.server_node_of[victim];
                rt.net
                    .transfer(server, node, m.cfg.image_bytes, base)
                    .delivered
            } else {
                base
            };
            (ready, m.cfg.period)
        });
        let incarnation = w.rt.ranks[victim].incarnation;
        let handle = w.rt.world_handle();
        let app = app.clone();
        sc.schedule(ready, move |sc| {
            let Some(world) = handle.upgrade() else {
                return;
            };
            if world.borrow().rt.ranks[victim].incarnation != incarnation {
                return;
            }
            spawn_rank(sc, &world, victim, app);
            Mlog::schedule_rank_ckpt(sc, victim, sc.now() + period, incarnation);
        });
    }
}

impl Protocol for Mlog {
    fn name(&self) -> &'static str {
        "mlog"
    }

    fn on_runtime_entry(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _rank: Rank) {}

    /// Enable the runtime semantics single-rank restart needs and arm the
    /// staggered per-rank checkpoint timers.
    fn on_job_start(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        rt.suppress_duplicate_seq = true;
        let n = rt.size();
        for r in 0..n {
            // Stagger: rank r starts its cycle r/n of a period late, so the
            // servers never see a synchronized burst (the point of
            // uncoordinated checkpointing).
            let at = sc.now() + self.cfg.first_wave_delay + (self.cfg.period * r as u64) / n as u64;
            Mlog::schedule_rank_ckpt(sc, r, at, 0);
        }
    }

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _msg: &AppMsg) -> SendAction {
        SendAction::Proceed
    }

    fn on_arrival(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        // Pessimistic logging: ship a copy to the receiver's server and
        // deliver only once the log record is stable. The synchronous
        // round-trip (plus the log traffic on the NIC) is the failure-free
        // price of the protocol.
        let dst_node = rt.placement.node_of(msg.dst);
        let server = self.server_node_of[msg.dst];
        let stored = rt
            .net
            .transfer(dst_node, server, msg.bytes.max(64), sc.now())
            .delivered;
        let ack = rt.net.transfer(server, dst_node, 64, stored).delivered;
        self.stats.msgs_logged += 1;
        self.stats.log_bytes_sent += msg.bytes.max(64);
        let pending = PendingAck {
            msg: msg.clone(),
            epoch: rt.epoch,
            incarnation: rt.ranks[msg.dst].incarnation,
            order: self.arrivals,
        };
        self.arrivals += 1;
        let slot = match self.free_acks.pop() {
            Some(slot) => {
                self.acks[slot] = Some(pending);
                slot
            }
            None => {
                self.acks.push(Some(pending));
                self.acks.len() - 1
            }
        };
        schedule_proto_data(sc, ack, (slot as u64) << 1);
        ArrivalAction::Hold
    }

    fn on_data(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, word: u64) {
        if word & TIMER == 0 {
            self.on_ack(rt, sc, (word >> 1) as usize);
        } else {
            let rank = ((word >> 1) & ((1 << 31) - 1)) as Rank;
            self.on_rank_timer(rt, sc, rank, word >> 32);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
