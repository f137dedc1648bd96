//! Pcl: the **blocking** coordinated checkpointing protocol (MPICH2-Pcl).
//!
//! The protocol synchronizes the processes to *empty the communication
//! layer* before images are taken, so no channel state needs saving
//! (§3 and §4.2 of the paper):
//!
//! * the MPI process of rank 0 periodically starts a wave and sends markers
//!   to every other process;
//! * on its first marker a process enters the `checkpointing` state and
//!   sends markers to every other process;
//! * after sending its markers a process **delays every send post** until
//!   its checkpoint is taken (MPICH2: the hook in the request-posting
//!   function; the delayed messages are part of the image and are sent
//!   again after a restart);
//! * after receiving a marker on a channel the process **delays receptions
//!   from that channel** (Nemesis: the delayed receive queue, discarded at
//!   restart because the sender re-sends);
//! * when a process holds every marker it forks, streams its image to the
//!   checkpoint server, releases its delayed queues and resumes; rank 0
//!   commits the wave once every process reports its image stored, and only
//!   then arms the next timer.
//!
//! Crucially, markers are only *processed* when the process is inside the
//! MPI library (its progress engine runs): a process deep in a compute
//! phase stalls the whole wave — the synchronization cost that makes the
//! blocking protocol expensive at high checkpoint frequencies.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Weak;

use ftmpi_mpi::{
    AppMsg, ArrivalAction, Protocol, Rank, RankStatus, RuntimeCore, SendAction, World, WorldRef,
};
use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimTime};

use crate::config::FtConfig;
use crate::deploy::Deployment;
use crate::flow::{send_control, start_flow_guarded, FlowRetry, FlowSpec};
use crate::image::{RankImage, WaveRecord};
use crate::server::{replica_targets, CheckpointStore, StoredImage, TORN_WRITE};
use crate::stats::{FtStats, WaveTiming};

/// Deferred control items awaiting the rank's next library activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PclCtl {
    /// Rank 0's periodic wave initiation.
    Initiate,
    /// Channel marker from a peer.
    Marker { from: Rank },
}

/// In-flight wave state.
struct PclWave {
    rec: WaveRecord,
    /// Rank has entered the `checkpointing` state (markers sent).
    in_wave: Vec<bool>,
    /// `marker_arrived[dst][src]`: transport-level marker arrival (set even
    /// while processing is deferred — reception blocking is enforced below
    /// the matching engine, like Nemesis' delayed receive queue).
    marker_arrived: Vec<Vec<bool>>,
    /// Markers *processed* per rank.
    markers_processed: Vec<usize>,
    /// Deferred control items per rank.
    pending_ctl: Vec<Vec<PclCtl>>,
    /// Local checkpoint taken.
    ckpt_taken: Vec<bool>,
    /// Sends delayed during the wave, per source rank.
    delayed_sends: Vec<Vec<AppMsg>>,
    /// Arrivals delayed during the wave, per destination rank.
    delayed_arrivals: Vec<Vec<AppMsg>>,
    /// Images reported stored to rank 0.
    images_stored: usize,
    /// Replica flows still streaming, per rank (rank 0 is notified when a
    /// rank's count drains to zero).
    image_flows_left: Vec<usize>,
}

impl PclWave {
    fn new(wave: u64, n: usize, started_at: SimTime) -> PclWave {
        PclWave {
            rec: WaveRecord::new(wave, n, started_at),
            in_wave: vec![false; n],
            marker_arrived: (0..n).map(|_| vec![false; n]).collect(),
            markers_processed: vec![0; n],
            pending_ctl: vec![Vec::new(); n],
            ckpt_taken: vec![false; n],
            delayed_sends: vec![Vec::new(); n],
            delayed_arrivals: vec![Vec::new(); n],
            images_stored: 0,
            image_flows_left: vec![0; n],
        }
    }
}

/// The blocking protocol engine.
pub struct Pcl {
    cfg: FtConfig,
    server_node_of: Vec<NodeId>,
    /// The whole checkpoint-server fleet (replica targets, failure fallback).
    server_nodes: Vec<NodeId>,
    /// Protocol statistics.
    pub stats: FtStats,
    /// Server control-plane state.
    pub store: CheckpointStore,
    /// Retained committed waves, oldest → newest (restart sources; older
    /// entries are fallback targets after a server failure).
    pub committed: Vec<WaveRecord>,
    cur: Option<PclWave>,
    wave_counter: u64,
    /// Wave-timer generation (see Vcl): stale timers die on mismatch.
    timer_gen: u64,
}

impl Pcl {
    /// Build the engine for a deployment.
    pub fn new(cfg: FtConfig, dep: &Deployment) -> Pcl {
        let server_node_of = (0..dep.nranks()).map(|r| dep.server_node_of(r)).collect();
        let mut store = CheckpointStore::default();
        store.set_retention(cfg.retained_waves.max(1));
        Pcl {
            cfg,
            server_node_of,
            server_nodes: dep.server_nodes.clone(),
            stats: FtStats::default(),
            store,
            committed: Vec::new(),
            cur: None,
            wave_counter: 0,
            timer_gen: 0,
        }
    }

    /// Checkpoint-server node of every rank (restore planning).
    pub(crate) fn server_nodes_of_ranks(&self) -> Vec<NodeId> {
        self.server_node_of.clone()
    }

    /// Fault-tolerance knobs (restore planning, scrubber).
    pub(crate) fn ft_cfg(&self) -> &FtConfig {
        &self.cfg
    }

    /// Server node at `idx` in the deployment's fleet, if any.
    pub(crate) fn server_fleet_node(&self, idx: usize) -> Option<NodeId> {
        self.server_nodes.get(idx).copied()
    }

    /// Servers still alive.
    pub(crate) fn live_server_count(&self) -> usize {
        self.server_nodes
            .iter()
            .filter(|n| !self.store.server_failed(**n))
            .count()
    }

    /// Invalidate pending periodic wave timers; returns the new generation.
    pub(crate) fn bump_timer_gen(w: &mut World) -> u64 {
        Pcl::with(w, |p, _| {
            p.timer_gen += 1;
            p.timer_gen
        })
    }

    /// Abort any in-flight wave (failure-restart or server loss): drop the
    /// wave state and garbage-collect its partial images from the server
    /// bookkeeping. Returns whether a wave was actually aborted.
    pub(crate) fn abort_wave(w: &mut World, sc: &SimCtx) -> bool {
        let aborted = Pcl::with(w, |pcl, _| {
            pcl.cur.take().map(|cur| {
                pcl.stats.waves_aborted += 1;
                pcl.store.abort(cur.rec.wave);
                cur.rec.wave
            })
        });
        if let Some(wave) = aborted {
            sc.trace_proto(ftmpi_sim::ProtoEvent::WaveAbort { wave });
        }
        aborted.is_some()
    }

    /// A checkpoint-server node failed: drop every replica it held, abort
    /// the in-flight wave if any (the commit database lost images the wave
    /// needs; its surviving flows die on the wave-number guards), and re-arm
    /// the periodic timer while live servers remain.
    ///
    /// Unlike a restart abort — where the whole job rolls back and delayed
    /// messages are re-sent from the restored images — the job keeps running
    /// here, so the aborted wave's held queues must be released or every
    /// rank still synchronizing would hang forever.
    pub(crate) fn on_server_failed(w: &mut World, sc: &SimCtx, node: NodeId) {
        Pcl::with(w, |pcl, _| pcl.store.fail_server(node));
        Pcl::abort_wave_and_rearm(w, sc);
    }

    /// Abort the in-flight wave (if any), release its held queues, and
    /// re-arm the periodic timer while live servers remain. The tail shared
    /// by [`Pcl::on_server_failed`] and the network-fault push fallback.
    fn abort_wave_and_rearm(w: &mut World, sc: &SimCtx) {
        let taken = Pcl::with(w, |pcl, _| {
            pcl.cur.take().map(|cur| {
                pcl.stats.waves_aborted += 1;
                pcl.store.abort(cur.rec.wave);
                (cur.rec.wave, cur.delayed_sends, cur.delayed_arrivals)
            })
        });
        let aborted = taken.is_some();
        if let Some((wave, delayed_sends, delayed_arrivals)) = taken {
            sc.trace_proto(ftmpi_sim::ProtoEvent::WaveAbort { wave });
            for msg in delayed_sends.into_iter().flatten() {
                w.rt.launch_send(sc, msg);
            }
            for msg in delayed_arrivals.into_iter().flatten() {
                w.rt.deliver_to_matching(sc, msg);
            }
        }
        if aborted && !w.rt.job_complete() {
            let handle = w.rt.world_handle();
            let epoch = w.rt.epoch;
            let next = Pcl::with(w, |pcl, _| {
                if pcl.live_server_count() == 0 {
                    return None; // nowhere to checkpoint to any more
                }
                pcl.timer_gen += 1;
                Some((sc.now() + pcl.cfg.period, pcl.timer_gen))
            });
            if let Some((at, gen)) = next {
                Pcl::schedule_wave_at(sc, handle, at, epoch, gen);
            }
        }
    }

    /// Account end-of-run bookkeeping health (orphaned partial images).
    pub(crate) fn finalize_stats(&mut self) {
        self.stats.orphan_images_end = self
            .store
            .orphan_images(self.cur.as_ref().map(|c| c.rec.wave));
    }

    fn with<R>(w: &mut World, f: impl FnOnce(&mut Pcl, &mut RuntimeCore) -> R) -> R {
        let World { rt, proto } = w;
        let pcl = proto
            .as_any_mut()
            .downcast_mut::<Pcl>()
            .expect("world protocol is not Pcl");
        f(pcl, rt)
    }

    /// Arm the first wave timer.
    pub fn start(world: &WorldRef, sc: &SimCtx) {
        let (at, handle, epoch, gen) = {
            let mut w = world.borrow_mut();
            let (delay, gen) = Pcl::with(&mut w, |pcl, _| {
                pcl.timer_gen += 1;
                (pcl.cfg.first_wave_delay, pcl.timer_gen)
            });
            (sc.now() + delay, w.rt.world_handle(), w.rt.epoch, gen)
        };
        Pcl::schedule_wave_at(sc, handle, at, epoch, gen);
    }

    /// Proactively start a wave *now* (failure-prediction trigger from the
    /// paper's conclusion). No-op if a wave is already in flight;
    /// supersedes the pending periodic timer.
    pub fn trigger_wave_now(world: &WorldRef, sc: &SimCtx) {
        let mut w = world.borrow_mut();
        if w.rt.job_complete() {
            return;
        }
        let fresh = Pcl::with(&mut w, |pcl, _| {
            pcl.timer_gen += 1;
            pcl.cur.is_none()
        });
        if fresh {
            Pcl::initiate_wave(&mut w, sc);
        }
    }

    /// Schedule a wave initiation at `at` (epoch- and generation-guarded).
    pub fn schedule_wave_at(
        sc: &SimCtx,
        handle: Weak<RefCell<World>>,
        at: SimTime,
        epoch: u64,
        gen: u64,
    ) {
        sc.schedule(at, move |sc| {
            let Some(world) = handle.upgrade() else {
                return;
            };
            let mut w = world.borrow_mut();
            if w.rt.epoch != epoch || w.rt.job_complete() {
                return;
            }
            let fresh = Pcl::with(&mut w, |pcl, _| pcl.timer_gen == gen && pcl.cur.is_none());
            if fresh {
                Pcl::initiate_wave(&mut w, sc);
            }
        });
    }

    /// Create the wave state and hand the initiation to rank 0.
    fn initiate_wave(w: &mut World, sc: &SimCtx) {
        if Pcl::with(w, |pcl, _| pcl.live_server_count() == 0) {
            return; // every checkpoint server is gone: no more waves
        }
        let n = w.rt.size();
        let wave = Pcl::with(w, |pcl, _| {
            pcl.wave_counter += 1;
            pcl.stats.waves_started += 1;
            pcl.cur = Some(PclWave::new(pcl.wave_counter, n, sc.now()));
            pcl.wave_counter
        });
        sc.trace_proto(ftmpi_sim::ProtoEvent::WaveStart { wave });
        // Rank 0 initiates: processed when its progress engine runs.
        Pcl::queue_ctl(w, sc, 0, PclCtl::Initiate);
    }

    /// Queue a control item for `rank`, processing immediately if the rank
    /// is inside the library (parked in a blocking op) or no longer running
    /// application code.
    fn queue_ctl(w: &mut World, sc: &SimCtx, rank: Rank, ctl: PclCtl) {
        if w.rt.ranks[rank].status == RankStatus::Dead {
            // Undetected-dead rank (detection lag): its library is gone, so
            // it can neither process nor defer control traffic. The wave
            // stalls on it and is aborted by the eventual restart.
            return;
        }
        let in_lib = {
            let rs = &w.rt.ranks[rank];
            rs.blocked_in_lib || rs.status != RankStatus::Running
        };
        let in_lib = in_lib || Pcl::with(w, |pcl, _| pcl.cfg.pcl_async_markers);
        if in_lib {
            Pcl::process_ctl(w, sc, rank, ctl);
        } else {
            Pcl::with(w, |pcl, _| {
                if let Some(cur) = pcl.cur.as_mut() {
                    cur.pending_ctl[rank].push(ctl);
                }
            });
        }
    }

    /// Drain deferred control items for `rank` (library entry).
    fn drain_ctl(w: &mut World, sc: &SimCtx, rank: Rank) {
        loop {
            let next = Pcl::with(w, |pcl, _| {
                pcl.cur.as_mut().and_then(|cur| {
                    if cur.pending_ctl[rank].is_empty() {
                        None
                    } else {
                        Some(cur.pending_ctl[rank].remove(0))
                    }
                })
            });
            match next {
                Some(ctl) => Pcl::process_ctl(w, sc, rank, ctl),
                None => break,
            }
        }
    }

    fn process_ctl(w: &mut World, sc: &SimCtx, rank: Rank, ctl: PclCtl) {
        Pcl::enter_wave(w, sc, rank);
        if let PclCtl::Marker { from } = ctl {
            let all_markers = Pcl::with(w, |pcl, _| {
                let Some(cur) = pcl.cur.as_mut() else {
                    return false;
                };
                cur.markers_processed[rank] += 1;
                let n = cur.in_wave.len();
                let _ = from; // dedup already happened at transport arrival
                cur.markers_processed[rank] == n - 1 && !cur.ckpt_taken[rank]
            });
            if all_markers {
                Pcl::take_checkpoint(w, sc, rank);
            }
        } else {
            // Single-process job: the initiator checkpoints immediately.
            let solo = w.rt.size() == 1;
            if solo {
                Pcl::take_checkpoint(w, sc, rank);
            }
        }
    }

    /// Enter the `checkpointing` state: send markers on every channel; all
    /// subsequent sends are delayed until the local checkpoint.
    fn enter_wave(w: &mut World, sc: &SimCtx, rank: Rank) {
        let handle = w.rt.world_handle();
        let epoch = w.rt.epoch;
        let mut targets: Vec<(Rank, NodeId, NodeId, Option<u64>)> = Vec::new();
        let mut wave = 0;
        Pcl::with(w, |pcl, rt| {
            let Some(cur) = pcl.cur.as_mut() else { return };
            if cur.in_wave[rank] {
                return;
            }
            cur.in_wave[rank] = true;
            wave = cur.rec.wave;
            let src_node = rt.placement.node_of(rank);
            // `LanelessMarkers` regression fixture: schedule the arrivals
            // without the destination lane, re-opening the marker-vs-message
            // order race the lanes fixed (for the schedule explorer).
            let laneless = rt.race_fixture == Some(ftmpi_mpi::RaceFixture::LanelessMarkers);
            for s in 0..cur.in_wave.len() {
                if s != rank {
                    let lane = if laneless {
                        None
                    } else {
                        rt.ranks[s].pid.map(ftmpi_sim::Pid::lane)
                    };
                    targets.push((s, src_node, rt.placement.node_of(s), lane));
                }
            }
        });
        // Markers travel the same channels as application messages (FIFO).
        let ctl_bytes = Pcl::with(w, |pcl, _| pcl.cfg.control_bytes);
        let penalty = w.rt.cfg.profile.message_penalty(ctl_bytes);
        for (s, src_node, dst_node, lane) in targets {
            sc.trace_proto(ftmpi_sim::ProtoEvent::MarkerSend {
                wave,
                from: rank,
                to: s,
            });
            let delivered =
                w.rt.net
                    .transfer_with_overhead(src_node, dst_node, ctl_bytes, sc.now(), penalty)
                    .delivered;
            let h = handle.clone();
            // Same lane as app messages to rank `s`: the marker's position
            // in the channel relative to data arrivals is protocol state.
            sc.schedule_keyed(delivered, lane, move |sc| {
                let Some(world) = h.upgrade() else { return };
                let mut w = world.borrow_mut();
                if w.rt.epoch != epoch {
                    return;
                }
                Pcl::on_marker_arrival(&mut w, sc, rank, s, wave);
            });
        }
    }

    /// Transport-level marker arrival on channel `from → to`.
    fn on_marker_arrival(w: &mut World, sc: &SimCtx, from: Rank, to: Rank, wave: u64) {
        let relevant = Pcl::with(w, |pcl, _| {
            let Some(cur) = pcl.cur.as_mut() else {
                return false;
            };
            if cur.rec.wave != wave || cur.marker_arrived[to][from] {
                return false;
            }
            cur.marker_arrived[to][from] = true;
            true
        });
        if relevant {
            sc.trace_proto(ftmpi_sim::ProtoEvent::MarkerRecv { wave, from, to });
            Pcl::queue_ctl(w, sc, to, PclCtl::Marker { from });
        }
    }

    /// All markers held: fork, record the image, stream it, and release the
    /// delayed queues ("after having taken its checkpoint, a process can
    /// send and receive any messages").
    fn take_checkpoint(w: &mut World, sc: &SimCtx, rank: Rank) {
        let _handle = w.rt.world_handle();
        let mut image_flows: Vec<(FlowSpec, u64, NodeId)> = Vec::new();
        let mut release_sends: Vec<AppMsg> = Vec::new();
        let mut release_arrivals: Vec<AppMsg> = Vec::new();
        let mut fork_info: Option<(u64, u64)> = None;
        Pcl::with(w, |pcl, rt| {
            let Some(cur) = pcl.cur.as_mut() else { return };
            if cur.ckpt_taken[rank] {
                return;
            }
            cur.ckpt_taken[rank] = true;
            rt.add_penalty(rank, pcl.cfg.fork_cost);
            let rs = &rt.ranks[rank];
            fork_info = Some((cur.rec.wave, rs.ops_completed));
            let credit = rt.capture_credit(rank, sc.now());
            // Delayed sends are in-memory buffered messages: they are part
            // of the image and will be *sent again* after a restart.
            cur.rec.delayed_sends[rank] = cur.delayed_sends[rank].clone();
            cur.rec.images[rank] = RankImage {
                ops_completed: rs.ops_completed,
                time_credit: credit,
                taken_at: sc.now(),
                pending: rt.snapshot_pending(rank),
                expect_seq: Vec::new(), // coordinated: global restarts reset
                send_seq: Vec::new(),
            };
            // While the image streams through the process's own channel,
            // every MPI operation pays the progress-engine sharing drag.
            rt.ranks[rank].op_drag = pcl.cfg.blocking_stream_drag;
            release_sends = std::mem::take(&mut cur.delayed_sends[rank]);
            // The delayed receive queue is delivered now (post-checkpoint);
            // on restart it is *discarded* — senders re-send.
            release_arrivals = std::mem::take(&mut cur.delayed_arrivals[rank]);
            // One stream per replica target; the local disk is written once.
            let targets = replica_targets(
                &pcl.server_nodes,
                pcl.server_node_of[rank],
                pcl.cfg.replicas,
                &pcl.store,
            );
            cur.image_flows_left[rank] = targets.len();
            let src = rt.placement.node_of(rank);
            for (i, server) in targets.into_iter().enumerate() {
                image_flows.push((
                    FlowSpec {
                        src,
                        dst: server,
                        bytes: pcl.cfg.image_bytes,
                        chunk: pcl.cfg.chunk_bytes,
                        also_disk: pcl.cfg.write_local_disk && i == 0,
                    },
                    cur.rec.wave,
                    server,
                ));
            }
        });
        if let Some((wave, ops)) = fork_info {
            sc.trace_proto(ftmpi_sim::ProtoEvent::Fork { wave, rank, ops });
        }
        for msg in release_sends {
            w.rt.launch_send(sc, msg);
        }
        for msg in release_arrivals {
            w.rt.deliver_to_matching(sc, msg);
        }
        for (spec, wave, server) in image_flows {
            Pcl::start_image_stream(w, sc, spec, rank, wave, server);
        }
    }

    /// Launch one replica stream of `rank`'s wave-`wave` image toward
    /// `server`, under the job's bounded retry budget: if the target stays
    /// unreachable behind a link fault or partition the push surrenders to
    /// [`Pcl::image_push_failed`] and falls back to another replica.
    fn start_image_stream(
        w: &mut World,
        sc: &SimCtx,
        spec: FlowSpec,
        rank: Rank,
        wave: u64,
        server: NodeId,
    ) {
        let retry = Pcl::with(w, |pcl, _| FlowRetry::bounded(&pcl.cfg));
        let fail_spec = spec.clone();
        start_flow_guarded(
            w,
            sc,
            spec,
            retry,
            move |w, sc| Pcl::image_push_failed(w, sc, rank, wave, fail_spec),
            move |w, sc, done_at| Pcl::image_stored(w, sc, rank, wave, server, done_at),
        );
    }

    /// A replica stream of `rank`'s image spent its whole retry budget
    /// against an unreachable server. Reroute the push to the next server
    /// that is live, reachable from the source node, and not already
    /// holding this image (the streaming drag persists — the channel is
    /// still busy); with no such server the wave can never commit, so
    /// abort it, release its held queues, and re-arm the timer.
    fn image_push_failed(w: &mut World, sc: &SimCtx, rank: Rank, wave: u64, spec: FlowSpec) {
        enum Fallback {
            Stale,
            Reroute(NodeId),
            Abort,
        }
        let fb = Pcl::with(w, |pcl, rt| {
            let current = pcl
                .cur
                .as_ref()
                .is_some_and(|cur| cur.rec.wave == wave && cur.image_flows_left[rank] > 0);
            if !current {
                // Stale stream (wave aborted meanwhile): the channel is
                // idle again.
                rt.ranks[rank].op_drag = ftmpi_sim::SimDuration::ZERO;
                return Fallback::Stale;
            }
            pcl.stats.retries_exhausted += 1;
            // A *tearing* cut severed this stream mid-flight: the server is
            // left holding a truncated prefix that can never hash to the
            // image's digest. Record the torn replica (damaged bits, not a
            // placement — no `ImageStore` trace) so fetches and scrubs must
            // walk past it; the `server_holds` reroute filter below then
            // keeps this wave from re-targeting the torn server. A dead or
            // quarantined target keeps nothing (`record_image` drops the
            // write), matching a store that died with its server.
            if pcl.cfg.torn_writes && rt.net.cut_tears(spec.src, spec.dst) {
                let expected = pcl
                    .cur
                    .as_ref()
                    .map(|cur| cur.rec.images[rank].digest(wave, rank))
                    .unwrap_or(0);
                let torn = pcl.store.record_image(
                    wave,
                    rank,
                    StoredImage {
                        server: spec.dst,
                        // The store tracks logical slots, not physical
                        // bytes; the truncated prefix occupies the slot.
                        bytes: spec.bytes,
                        stored_at: sc.now(),
                        digest: expected ^ TORN_WRITE,
                    },
                );
                if torn {
                    sc.trace_proto(ftmpi_sim::ProtoEvent::Corrupt {
                        wave,
                        rank,
                        node: spec.dst.0 as u64,
                    });
                }
            }
            let fleet = &pcl.server_nodes;
            let pos = fleet.iter().position(|n| *n == spec.dst).unwrap_or(0);
            // A candidate must be reachable round-trip: the push streams
            // source → server, the store acknowledgement comes back.
            // Rerouting across a half-open cut would commit an image the
            // wave controller can never hear about. A quarantined server is
            // as unplaceable as a dead one.
            let replacement = (1..fleet.len())
                .map(|i| fleet[(pos + i) % fleet.len()])
                .find(|&cand| {
                    !pcl.store.server_unplaceable(cand)
                        && rt.net.reachable(spec.src, cand)
                        && rt.net.reachable(cand, spec.src)
                        && !pcl.store.server_holds(wave, rank, cand)
                });
            match replacement {
                Some(cand) => {
                    pcl.stats.images_rerouted += 1;
                    Fallback::Reroute(cand)
                }
                None => {
                    // This rank's stream dies here; its drag ends with it.
                    rt.ranks[rank].op_drag = ftmpi_sim::SimDuration::ZERO;
                    Fallback::Abort
                }
            }
        });
        match fb {
            Fallback::Stale => {}
            Fallback::Reroute(cand) => {
                let new_spec = FlowSpec { dst: cand, ..spec };
                Pcl::start_image_stream(w, sc, new_spec, rank, wave, cand);
            }
            Fallback::Abort => Pcl::abort_wave_and_rearm(w, sc),
        }
    }

    /// One replica stream landed on `server`. When the rank's last replica
    /// lands, notify rank 0 ("sends a message to the MPI process of rank 0
    /// such that a new checkpoint wave can be scheduled"). Streams whose
    /// wave was aborted meanwhile (mid-wave server failure — restarts kill
    /// flows on the epoch guard instead) are dropped here. The stored
    /// record carries the image's content digest — what verify-on-fetch
    /// later checks against. A write the store drops because the target was
    /// quarantined while the stream was in flight re-enters the reroute
    /// path (the streaming drag persists — the channel is still busy): the
    /// replica must land on a placeable server for the wave to commit.
    fn image_stored(
        w: &mut World,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
        server: NodeId,
        done_at: SimTime,
    ) {
        enum Landing {
            Stale,
            Stored,
            Dropped(FlowSpec),
        }
        let _handle = w.rt.world_handle();
        let mut notify: Option<(NodeId, NodeId, u64)> = None;
        let landing = Pcl::with(w, |pcl, rt| {
            let current = pcl
                .cur
                .as_ref()
                .is_some_and(|cur| cur.rec.wave == wave && cur.image_flows_left[rank] > 0);
            if !current {
                // Stale stream (wave aborted): the channel is idle again.
                rt.ranks[rank].op_drag = ftmpi_sim::SimDuration::ZERO;
                return Landing::Stale;
            }
            pcl.stats.image_bytes_sent += pcl.cfg.image_bytes;
            let digest = pcl
                .cur
                .as_ref()
                .map(|cur| cur.rec.images[rank].digest(wave, rank))
                .unwrap_or(0);
            let recorded = pcl.store.record_image(
                wave,
                rank,
                StoredImage {
                    server,
                    bytes: pcl.cfg.image_bytes,
                    stored_at: done_at,
                    digest,
                },
            );
            if !recorded {
                return Landing::Dropped(FlowSpec {
                    src: rt.placement.node_of(rank),
                    dst: server,
                    bytes: pcl.cfg.image_bytes,
                    chunk: pcl.cfg.chunk_bytes,
                    also_disk: false,
                });
            }
            let cur = pcl.cur.as_mut().expect("checked current above");
            cur.image_flows_left[rank] -= 1;
            if cur.image_flows_left[rank] == 0 {
                rt.ranks[rank].op_drag = ftmpi_sim::SimDuration::ZERO;
                notify = Some((
                    rt.placement.node_of(rank),
                    rt.placement.node_of(0),
                    pcl.cfg.control_bytes,
                ));
            }
            Landing::Stored
        });
        match landing {
            Landing::Stale => {}
            Landing::Stored => {
                sc.trace_proto(ftmpi_sim::ProtoEvent::ImageStore {
                    wave,
                    rank,
                    node: server.0 as u64,
                });
                if let Some((src, dst, bytes)) = notify {
                    send_control(w, sc, src, dst, bytes, None, move |w, sc| {
                        Pcl::on_image_report(w, sc, wave);
                    });
                }
            }
            Landing::Dropped(spec) => Pcl::image_push_failed(w, sc, rank, wave, spec),
        }
    }

    /// Rank 0 collects image-stored reports; commits when all arrived.
    fn on_image_report(w: &mut World, sc: &SimCtx, wave: u64) {
        let handle = w.rt.world_handle();
        let epoch = w.rt.epoch;
        let n = w.rt.size();
        let mut next_at: Option<(SimTime, u64)> = None;
        Pcl::with(w, |pcl, _| {
            let Some(cur) = pcl.cur.as_mut() else { return };
            if cur.rec.wave != wave {
                return;
            }
            cur.images_stored += 1;
            if cur.images_stored < n {
                return;
            }
            let mut wave_state = pcl.cur.take().expect("current wave");
            wave_state.rec.committed_at = sc.now();
            pcl.stats.waves_committed += 1;
            pcl.stats.wave_timings.push(WaveTiming {
                wave,
                started_at: wave_state.rec.started_at,
                committed_at: sc.now(),
            });
            pcl.store.commit(wave);
            pcl.committed.push(wave_state.rec);
            let retain = pcl.cfg.retained_waves.max(1);
            while pcl.committed.len() > retain {
                pcl.committed.remove(0);
            }
            pcl.timer_gen += 1;
            next_at = Some((sc.now() + pcl.cfg.period, pcl.timer_gen));
        });
        if next_at.is_some() {
            sc.trace_proto(ftmpi_sim::ProtoEvent::WaveCommit { wave });
        }
        if let Some((at, gen)) = next_at {
            Pcl::schedule_wave_at(sc, handle, at, epoch, gen);
        }
    }
}

impl Protocol for Pcl {
    fn name(&self) -> &'static str {
        "pcl"
    }

    fn on_runtime_entry(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        // The progress engine runs: handle deferred initiations/markers.
        // Self-scheduling is impossible here (we *are* the protocol, called
        // with the world already borrowed), so drain via the world pattern:
        // take items out, process with local methods that only need rt.
        // To keep the borrow simple the actual drain happens through
        // `Pcl::drain_via_hook`, which mirrors `drain_ctl` but works on
        // `&mut self` + `&mut RuntimeCore`.
        self.drain_via_hook(rt, sc, rank);
    }

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, msg: &AppMsg) -> SendAction {
        if let Some(cur) = self.cur.as_mut() {
            if cur.in_wave[msg.src] && !cur.ckpt_taken[msg.src] {
                cur.delayed_sends[msg.src].push(msg.clone());
                self.stats.sends_delayed += 1;
                return SendAction::Hold;
            }
        }
        SendAction::Proceed
    }

    fn on_arrival(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        if msg.src != msg.dst {
            if let Some(cur) = self.cur.as_mut() {
                if cur.marker_arrived[msg.dst][msg.src] && !cur.ckpt_taken[msg.dst] {
                    cur.delayed_arrivals[msg.dst].push(msg.clone());
                    self.stats.arrivals_delayed += 1;
                    return ArrivalAction::Hold;
                }
            }
        }
        ArrivalAction::Deliver
    }

    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        // A finished rank's library stays responsive: process anything
        // pending so a wave cannot stall on it.
        self.drain_via_hook(rt, sc, rank);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Pcl {
    /// Hook-context drain: like [`Pcl::drain_ctl`] but callable while the
    /// protocol itself is the active borrow. Heavy work (marker fan-out,
    /// checkpoint capture) needs the full world, so it is deferred to an
    /// immediate event.
    fn drain_via_hook(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        let has_pending = self
            .cur
            .as_ref()
            .map(|cur| !cur.pending_ctl[rank].is_empty())
            .unwrap_or(false);
        if !has_pending {
            return;
        }
        let handle = rt.world_handle();
        let epoch = rt.epoch;
        sc.schedule(sc.now(), move |sc| {
            let Some(world) = handle.upgrade() else {
                return;
            };
            let mut w = world.borrow_mut();
            if w.rt.epoch != epoch {
                return;
            }
            Pcl::drain_ctl(&mut w, sc, rank);
        });
    }
}
