//! Vcl: the **non-blocking** coordinated checkpointing protocol
//! (MPICH-Vcl) — a direct implementation of the Chandy–Lamport
//! distributed-snapshot algorithm for MPI computations.
//!
//! Roles (§3 and §4.1 of the paper):
//!
//! * a dedicated **checkpoint scheduler** process initiates waves by
//!   sending a marker to every MPI process;
//! * on its first marker of a wave, a rank's daemon records the local state
//!   (the MPI process forks and its image streams to a checkpoint server
//!   while computation continues), then sends a marker on every channel;
//! * every application message received after the local checkpoint and
//!   before the sender's marker is **logged** as the channel's state and
//!   also shipped to the server;
//! * once a rank holds every marker and its image + log are stored, it
//!   acknowledges the scheduler, which commits the wave after collecting
//!   all acknowledgements — and only then arms the timer for the next wave.
//!
//! Communication is *never* interrupted; the cost is the per-message daemon
//! indirection (modelled by the `VclDaemon` software stack) plus log
//! traffic, in exchange for checkpoint transfers that overlap computation.

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
use crate::flow::{send_control, start_flow, start_flow_guarded, FlowRetry, FlowSpec};
use crate::image::{RankImage, WaveRecord};
use crate::server::{replica_targets, CheckpointStore, StoredImage, TORN_WRITE};
use crate::stats::{FtStats, WaveTiming};

/// In-flight wave state.
struct VclWave {
    rec: WaveRecord,
    /// Rank has recorded its local checkpoint this wave.
    started: Vec<bool>,
    /// `marker_from[dst][src]`: channel marker received.
    marker_from: Vec<Vec<bool>>,
    /// Markers still missing per rank.
    markers_missing: Vec<usize>,
    /// Image fully stored on the server.
    image_done: Vec<bool>,
    /// All channel markers received (log closed).
    channels_closed: Vec<bool>,
    /// Log fully stored (or empty).
    log_done: Vec<bool>,
    /// Acknowledgement sent to the scheduler.
    acked: Vec<bool>,
    /// Acknowledgements received by the scheduler.
    acks: usize,
    /// Replica image streams still in flight, per rank.
    image_flows_left: Vec<usize>,
}

impl VclWave {
    fn new(wave: u64, n: usize, started_at: SimTime) -> VclWave {
        VclWave {
            rec: WaveRecord::new(wave, n, started_at),
            started: vec![false; n],
            marker_from: (0..n).map(|_| vec![false; n]).collect(),
            markers_missing: vec![n - 1; n],
            image_done: vec![false; n],
            channels_closed: vec![n == 1; n],
            // A solo job has no channels, hence no channel state to ship.
            log_done: vec![n == 1; n],
            acked: vec![false; n],
            acks: 0,
            image_flows_left: vec![0; n],
        }
    }
}

/// The non-blocking protocol engine. Implements [`Protocol`] for the
/// runtime hooks and drives waves through self-scheduled events.
pub struct Vcl {
    cfg: FtConfig,
    /// Checkpoint-server node of each rank.
    server_node_of: Vec<NodeId>,
    /// The whole checkpoint-server fleet (replica targets, failure fallback).
    server_nodes: Vec<NodeId>,
    /// Node hosting the checkpoint scheduler.
    scheduler_node: NodeId,
    /// Protocol statistics.
    pub stats: FtStats,
    /// Server control-plane state.
    pub store: CheckpointStore,
    /// Retained committed waves, oldest → newest (restart sources; older
    /// entries are fallback targets after a server failure).
    pub committed: Vec<WaveRecord>,
    cur: Option<VclWave>,
    wave_counter: u64,
    /// Wave-timer generation: stale periodic timers (superseded by a
    /// proactive trigger or a restart) die on a generation mismatch.
    timer_gen: u64,
}

impl Vcl {
    /// Build the engine for a deployment.
    pub fn new(cfg: FtConfig, dep: &Deployment) -> Vcl {
        let server_node_of = (0..dep.nranks()).map(|r| dep.server_node_of(r)).collect();
        let mut store = CheckpointStore::default();
        store.set_retention(cfg.retained_waves.max(1));
        Vcl {
            cfg,
            server_node_of,
            server_nodes: dep.server_nodes.clone(),
            scheduler_node: dep.service_node,
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

    /// The engine's fault-tolerance config, for the recovery and scrub
    /// paths that live outside this module (`cfg` itself stays private).
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
        Vcl::with(w, |p, _| {
            p.timer_gen += 1;
            p.timer_gen
        })
    }

    /// Abort any in-flight wave (failure-restart or server loss): drop the
    /// wave state and garbage-collect its partial images from the server
    /// bookkeeping. Returns whether a wave was actually aborted.
    pub(crate) fn abort_wave(w: &mut World, sc: &SimCtx) -> bool {
        let aborted = Vcl::with(w, |vcl, _| {
            vcl.cur.take().map(|cur| {
                vcl.stats.waves_aborted += 1;
                vcl.store.abort(cur.rec.wave);
                cur.rec.wave
            })
        });
        if let Some(wave) = aborted {
            sc.trace_proto(ftmpi_sim::ProtoEvent::WaveAbort { wave });
        }
        aborted.is_some()
    }

    /// A checkpoint-server node failed: drop every replica it held, abort
    /// the in-flight wave if any (its surviving flows die on the
    /// wave-number guards), and re-arm the periodic timer while live
    /// servers remain.
    pub(crate) fn on_server_failed(w: &mut World, sc: &SimCtx, node: NodeId) {
        Vcl::with(w, |vcl, _| vcl.store.fail_server(node));
        let aborted = Vcl::abort_wave(w, sc);
        if aborted && !w.rt.job_complete() {
            let handle = w.rt.world_handle();
            let epoch = w.rt.epoch;
            let next = Vcl::with(w, |vcl, _| {
                if vcl.live_server_count() == 0 {
                    return None; // nowhere to checkpoint to any more
                }
                vcl.timer_gen += 1;
                Some((sc.now() + vcl.cfg.period, vcl.timer_gen))
            });
            if let Some((at, gen)) = next {
                Vcl::schedule_wave_at(sc, handle, at, epoch, gen);
            }
        }
    }

    /// Account end-of-run bookkeeping health (orphaned partial images).
    pub(crate) fn finalize_stats(&mut self) {
        self.stats.orphan_images_end = self
            .store
            .orphan_images(self.cur.as_ref().map(|c| c.rec.wave));
    }

    /// Borrow the engine out of a world (it was installed as the protocol).
    fn with<R>(w: &mut World, f: impl FnOnce(&mut Vcl, &mut RuntimeCore) -> R) -> R {
        let World { rt, proto } = w;
        let vcl = proto
            .as_any_mut()
            .downcast_mut::<Vcl>()
            .expect("world protocol is not Vcl");
        f(vcl, rt)
    }

    /// Arm the first wave timer. Called once by the runner after the world
    /// is constructed and ranks are spawned.
    pub fn start(world: &WorldRef, sc: &SimCtx) {
        let (at, handle, epoch, gen) = {
            let mut w = world.borrow_mut();
            let (delay, gen) = Vcl::with(&mut w, |vcl, _| {
                vcl.timer_gen += 1;
                (vcl.cfg.first_wave_delay, vcl.timer_gen)
            });
            (sc.now() + delay, w.rt.world_handle(), w.rt.epoch, gen)
        };
        Vcl::schedule_wave_at(sc, handle, at, epoch, gen);
    }

    /// Proactively start a wave *now* (e.g. a failure predictor fired, per
    /// the paper's conclusion). No-op if a wave is already in flight;
    /// supersedes the pending periodic timer.
    pub fn trigger_wave_now(world: &WorldRef, sc: &SimCtx) {
        let mut w = world.borrow_mut();
        if w.rt.job_complete() {
            return;
        }
        Vcl::with(&mut w, |vcl, _| vcl.timer_gen += 1);
        Vcl::begin_wave(&mut w, sc);
    }

    /// Schedule a wave to begin at `at` (epoch- and generation-guarded).
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
            if Vcl::with(&mut w, |vcl, _| vcl.timer_gen != gen) {
                return; // superseded by a trigger or restart
            }
            Vcl::begin_wave(&mut w, sc);
        });
    }

    /// Scheduler: send a marker to every rank.
    fn begin_wave(w: &mut World, sc: &SimCtx) {
        if Vcl::with(w, |vcl, _| {
            vcl.cur.is_some() || vcl.live_server_count() == 0
        }) {
            return; // a wave is already in flight, or no servers survive
        }
        let handle = w.rt.world_handle();
        let n = w.rt.size();
        let (wave, scheduler_node, ctl_bytes, targets) = Vcl::with(w, |vcl, rt| {
            vcl.wave_counter += 1;
            vcl.stats.waves_started += 1;
            vcl.cur = Some(VclWave::new(vcl.wave_counter, n, sc.now()));
            let targets: Vec<(Rank, NodeId)> =
                (0..n).map(|r| (r, rt.placement.node_of(r))).collect();
            (
                vcl.wave_counter,
                vcl.scheduler_node,
                vcl.cfg.control_bytes,
                targets,
            )
        });
        sc.trace_proto(ftmpi_sim::ProtoEvent::WaveStart { wave });
        for (r, node) in targets {
            let h = handle.clone();
            // Scheduler markers race data arrivals at each rank: key by the
            // destination process so the fork's op boundary is schedule-
            // independent. The `LanelessMarkers` regression fixture drops
            // the lane, re-opening that race for the schedule explorer.
            let lane = if w.rt.race_fixture == Some(ftmpi_mpi::RaceFixture::LanelessMarkers) {
                None
            } else {
                w.rt.ranks[r].pid.map(ftmpi_sim::Pid::lane)
            };
            send_control(
                w,
                sc,
                scheduler_node,
                node,
                ctl_bytes,
                lane,
                move |w, sc| {
                    let _ = &h;
                    Vcl::start_local_ckpt(w, sc, r, wave);
                },
            );
        }
    }

    /// A rank's daemon starts its local checkpoint (first marker of the
    /// wave, from the scheduler or from a peer channel).
    fn start_local_ckpt(w: &mut World, sc: &SimCtx, r: Rank, wave: u64) {
        if w.rt.ranks[r].status == RankStatus::Dead {
            // Undetected-dead rank (detection lag): its daemon died with the
            // task, so it cannot fork or forward markers. The wave stalls on
            // it and is aborted by the eventual restart.
            return;
        }
        let handle = w.rt.world_handle();
        let n = w.rt.size();
        let mut marker_targets: Vec<(Rank, NodeId, NodeId)> = Vec::new();
        let mut image_flows: Vec<(FlowSpec, NodeId)> = Vec::new();
        let mut fork_ops: Option<u64> = None;
        Vcl::with(w, |vcl, rt| {
            let Some(cur) = vcl.cur.as_mut() else { return };
            if cur.rec.wave != wave || cur.started[r] {
                return;
            }
            cur.started[r] = true;
            // Fork: the main process pauses for the CoW setup, then
            // computation continues while the clone streams the image.
            rt.add_penalty(r, vcl.cfg.fork_cost);
            let rs = &rt.ranks[r];
            let credit = rt.capture_credit(r, sc.now());
            if std::env::var("FTMPI_DEBUG").is_ok() {
                eprintln!(
                    "[vcl] capture r{r} at {} ops={} pending_seqs={:?}",
                    sc.now(),
                    rs.ops_completed,
                    rt.snapshot_pending(r)
                        .iter()
                        .map(|m| (m.src, m.seq))
                        .collect::<Vec<_>>()
                );
            }
            fork_ops = Some(rs.ops_completed);
            cur.rec.images[r] = RankImage {
                ops_completed: rs.ops_completed,
                time_credit: credit,
                taken_at: sc.now(),
                pending: rt.snapshot_pending(r),
                expect_seq: Vec::new(), // coordinated: global restarts reset
                send_seq: Vec::new(),
            };
            // Channel markers to every peer, FIFO with application traffic.
            let src_node = rt.placement.node_of(r);
            for s in 0..n {
                if s != r {
                    marker_targets.push((s, src_node, rt.placement.node_of(s)));
                }
            }
            // One stream per replica target; the local disk is written once.
            let targets = replica_targets(
                &vcl.server_nodes,
                vcl.server_node_of[r],
                vcl.cfg.replicas,
                &vcl.store,
            );
            cur.image_flows_left[r] = targets.len();
            for (i, server) in targets.into_iter().enumerate() {
                image_flows.push((
                    FlowSpec {
                        src: src_node,
                        dst: server,
                        bytes: vcl.cfg.image_bytes,
                        chunk: vcl.cfg.chunk_bytes,
                        also_disk: vcl.cfg.write_local_disk && i == 0,
                    },
                    server,
                ));
            }
        });
        if let Some(ops) = fork_ops {
            sc.trace_proto(ftmpi_sim::ProtoEvent::Fork { wave, rank: r, ops });
        }
        // Inject channel markers through the same network path as app
        // messages (per-channel FIFO is what Chandy–Lamport relies on).
        for (s, src_node, dst_node) in marker_targets {
            sc.trace_proto(ftmpi_sim::ProtoEvent::MarkerSend {
                wave,
                from: r,
                to: s,
            });
            let ctl_bytes = Vcl::with(w, |vcl, _| vcl.cfg.control_bytes);
            let penalty = w.rt.cfg.profile.message_penalty(ctl_bytes);
            let delivered =
                w.rt.net
                    .transfer_with_overhead(src_node, dst_node, ctl_bytes, sc.now(), penalty)
                    .delivered;
            let h = handle.clone();
            let epoch = w.rt.epoch;
            // Same lane as app messages to rank `s`: the marker's position
            // in the channel relative to data arrivals is protocol state
            // (dropped under the `LanelessMarkers` regression fixture).
            let lane = if w.rt.race_fixture == Some(ftmpi_mpi::RaceFixture::LanelessMarkers) {
                None
            } else {
                w.rt.ranks[s].pid.map(ftmpi_sim::Pid::lane)
            };
            sc.schedule_keyed(delivered, lane, move |sc| {
                let Some(world) = h.upgrade() else { return };
                let mut w = world.borrow_mut();
                if w.rt.epoch != epoch {
                    return;
                }
                Vcl::on_channel_marker(&mut w, sc, r, s, wave);
            });
        }
        for (spec, server) in image_flows {
            Vcl::start_image_stream(w, sc, spec, r, wave, server);
        }
    }

    /// Launch one replica stream of rank `r`'s wave-`wave` image toward
    /// `server`, under the job's bounded retry budget: if the target stays
    /// unreachable behind a link fault or partition the push surrenders to
    /// [`Vcl::image_push_failed`] and falls back to another replica.
    fn start_image_stream(
        w: &mut World,
        sc: &SimCtx,
        spec: FlowSpec,
        r: Rank,
        wave: u64,
        server: NodeId,
    ) {
        let retry = Vcl::with(w, |vcl, _| FlowRetry::bounded(&vcl.cfg));
        let fail_spec = spec.clone();
        start_flow_guarded(
            w,
            sc,
            spec,
            retry,
            move |w, sc| Vcl::image_push_failed(w, sc, r, wave, fail_spec),
            move |w, sc, done_at| Vcl::image_stored(w, sc, r, wave, server, done_at),
        );
    }

    /// A replica stream of rank `r`'s image spent its whole retry budget
    /// against an unreachable server. The server itself may be perfectly
    /// healthy — nothing is dropped from the store — but this wave cannot
    /// land its image there, so reroute the push to the next server that is
    /// live, reachable from the source node, and not already holding this
    /// image. With no such server the wave can never commit: abort it and
    /// re-arm the periodic timer (the network-fault analogue of
    /// [`Vcl::on_server_failed`]).
    fn image_push_failed(w: &mut World, sc: &SimCtx, r: Rank, wave: u64, spec: FlowSpec) {
        enum Fallback {
            Stale,
            Reroute(NodeId),
            Abort,
        }
        let fb = Vcl::with(w, |vcl, rt| {
            let current = vcl
                .cur
                .as_ref()
                .is_some_and(|cur| cur.rec.wave == wave && cur.image_flows_left[r] > 0);
            if !current {
                return Fallback::Stale; // the wave died while we backed off
            }
            vcl.stats.retries_exhausted += 1;
            // A *tearing* cut severed this stream mid-flight: the server is
            // left holding a truncated prefix that can never hash to the
            // image's digest. Record the torn replica (damaged bits, not a
            // placement — no `ImageStore` trace) so fetches and scrubs must
            // walk past it; the `server_holds` reroute filter below then
            // keeps this wave from re-targeting the torn server. A dead or
            // quarantined target keeps nothing (`record_image` drops the
            // write), matching a store that died with its server.
            if vcl.cfg.torn_writes && rt.net.cut_tears(spec.src, spec.dst) {
                let expected = vcl
                    .cur
                    .as_ref()
                    .map(|cur| cur.rec.images[r].digest(wave, r))
                    .unwrap_or(0);
                let torn = vcl.store.record_image(
                    wave,
                    r,
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
                        rank: r,
                        node: spec.dst.0 as u64,
                    });
                }
            }
            let fleet = &vcl.server_nodes;
            let pos = fleet.iter().position(|n| *n == spec.dst).unwrap_or(0);
            // Round-trip reachability, as in Pcl: never reroute an image
            // push across a half-open cut whose ack path is dead. A
            // quarantined server is as unplaceable as a dead one.
            let replacement = (1..fleet.len())
                .map(|i| fleet[(pos + i) % fleet.len()])
                .find(|&cand| {
                    !vcl.store.server_unplaceable(cand)
                        && rt.net.reachable(spec.src, cand)
                        && rt.net.reachable(cand, spec.src)
                        && !vcl.store.server_holds(wave, r, cand)
                });
            match replacement {
                Some(cand) => {
                    vcl.stats.images_rerouted += 1;
                    Fallback::Reroute(cand)
                }
                None => Fallback::Abort,
            }
        });
        match fb {
            Fallback::Stale => {}
            Fallback::Reroute(cand) => {
                let new_spec = FlowSpec { dst: cand, ..spec };
                Vcl::start_image_stream(w, sc, new_spec, r, wave, cand);
            }
            Fallback::Abort => {
                let aborted = Vcl::abort_wave(w, sc);
                if aborted && !w.rt.job_complete() {
                    let handle = w.rt.world_handle();
                    let epoch = w.rt.epoch;
                    let next = Vcl::with(w, |vcl, _| {
                        if vcl.live_server_count() == 0 {
                            return None;
                        }
                        vcl.timer_gen += 1;
                        Some((sc.now() + vcl.cfg.period, vcl.timer_gen))
                    });
                    if let Some((at, gen)) = next {
                        Vcl::schedule_wave_at(sc, handle, at, epoch, gen);
                    }
                }
            }
        }
    }

    /// Channel marker from `from` arrived at `to`.
    fn on_channel_marker(w: &mut World, sc: &SimCtx, from: Rank, to: Rank, wave: u64) {
        // Receiving any marker starts the local checkpoint if needed.
        Vcl::start_local_ckpt(w, sc, to, wave);
        let handle = w.rt.world_handle();
        let mut log_flow: Option<(FlowSpec, u64)> = None;
        let mut fresh = false;
        Vcl::with(w, |vcl, rt| {
            let Some(cur) = vcl.cur.as_mut() else { return };
            if cur.rec.wave != wave || cur.marker_from[to][from] {
                return;
            }
            cur.marker_from[to][from] = true;
            fresh = true;
            cur.markers_missing[to] -= 1;
            if cur.markers_missing[to] == 0 {
                cur.channels_closed[to] = true;
                // Ship the logged channel state to the server.
                let bytes: u64 = cur.rec.logs[to].iter().map(|m| m.bytes.max(64)).sum();
                if bytes == 0 {
                    cur.log_done[to] = true;
                } else {
                    log_flow = Some((
                        FlowSpec {
                            src: rt.placement.node_of(to),
                            dst: vcl.server_node_of[to],
                            bytes,
                            chunk: vcl.cfg.chunk_bytes,
                            also_disk: false,
                        },
                        bytes,
                    ));
                }
            }
        });
        if fresh {
            sc.trace_proto(ftmpi_sim::ProtoEvent::MarkerRecv { wave, from, to });
        }
        match log_flow {
            Some((spec, bytes)) => {
                let h = handle.clone();
                start_flow(w, sc, spec, move |w, sc, _| {
                    let _ = &h;
                    Vcl::with(w, |vcl, _| {
                        vcl.stats.log_bytes_sent += bytes;
                        if let Some(cur) = vcl.cur.as_mut() {
                            if cur.rec.wave == wave {
                                cur.log_done[to] = true;
                            }
                        }
                    });
                    Vcl::maybe_ack(w, sc, to, wave);
                });
            }
            None => Vcl::maybe_ack(w, sc, to, wave),
        }
    }

    /// One replica stream of rank `r`'s image landed on `server`. The image
    /// is done once every replica landed; streams whose wave was aborted
    /// meanwhile (mid-wave server failure) are dropped here. The stored
    /// record carries the image's content digest — what verify-on-fetch
    /// later checks against. A write the store drops because the target was
    /// quarantined while the stream was in flight re-enters the reroute
    /// path: the replica must land on a placeable server for the wave to
    /// commit.
    fn image_stored(
        w: &mut World,
        sc: &SimCtx,
        r: Rank,
        wave: u64,
        server: NodeId,
        done_at: SimTime,
    ) {
        enum Landing {
            Stale,
            Stored,
            Dropped(FlowSpec),
        }
        let landing = Vcl::with(w, |vcl, rt| {
            let current = vcl
                .cur
                .as_ref()
                .is_some_and(|cur| cur.rec.wave == wave && cur.image_flows_left[r] > 0);
            if !current {
                return Landing::Stale;
            }
            vcl.stats.image_bytes_sent += vcl.cfg.image_bytes;
            let digest = vcl
                .cur
                .as_ref()
                .map(|cur| cur.rec.images[r].digest(wave, r))
                .unwrap_or(0);
            let recorded = vcl.store.record_image(
                wave,
                r,
                StoredImage {
                    server,
                    bytes: vcl.cfg.image_bytes,
                    stored_at: done_at,
                    digest,
                },
            );
            if !recorded {
                return Landing::Dropped(FlowSpec {
                    src: rt.placement.node_of(r),
                    dst: server,
                    bytes: vcl.cfg.image_bytes,
                    chunk: vcl.cfg.chunk_bytes,
                    also_disk: false,
                });
            }
            let cur = vcl.cur.as_mut().expect("checked current above");
            cur.image_flows_left[r] -= 1;
            if cur.image_flows_left[r] == 0 {
                cur.image_done[r] = true;
            }
            Landing::Stored
        });
        match landing {
            Landing::Stale => {}
            Landing::Stored => {
                sc.trace_proto(ftmpi_sim::ProtoEvent::ImageStore {
                    wave,
                    rank: r,
                    node: server.0 as u64,
                });
                Vcl::maybe_ack(w, sc, r, wave);
            }
            Landing::Dropped(spec) => Vcl::image_push_failed(w, sc, r, wave, spec),
        }
    }

    /// Send the scheduler acknowledgement once image + channels + log are
    /// all complete for rank `r`.
    fn maybe_ack(w: &mut World, sc: &SimCtx, r: Rank, wave: u64) {
        let _handle = w.rt.world_handle();
        let mut send: Option<(NodeId, NodeId, u64)> = None;
        Vcl::with(w, |vcl, rt| {
            let Some(cur) = vcl.cur.as_mut() else { return };
            if cur.rec.wave != wave
                || cur.acked[r]
                || !cur.image_done[r]
                || !cur.channels_closed[r]
                || !cur.log_done[r]
            {
                return;
            }
            cur.acked[r] = true;
            send = Some((
                rt.placement.node_of(r),
                vcl.scheduler_node,
                vcl.cfg.control_bytes,
            ));
        });
        if let Some((src, dst, bytes)) = send {
            send_control(w, sc, src, dst, bytes, None, move |w, sc| {
                Vcl::on_ack(w, sc, wave);
            });
        }
    }

    /// Scheduler: collect an acknowledgement; commit when all arrived.
    fn on_ack(w: &mut World, sc: &SimCtx, wave: u64) {
        let handle = w.rt.world_handle();
        let n = w.rt.size();
        let mut next_at: Option<(SimTime, u64)> = None;
        let epoch = w.rt.epoch;
        Vcl::with(w, |vcl, _| {
            let Some(cur) = vcl.cur.as_mut() else { return };
            if cur.rec.wave != wave {
                return;
            }
            cur.acks += 1;
            if cur.acks < n {
                return;
            }
            // Wave complete: commit and arm the next timer — "the timeout
            // for the next checkpoint wave is set as soon as every process
            // has transferred its image".
            let mut wave_state = vcl.cur.take().expect("current wave");
            wave_state.rec.committed_at = sc.now();
            vcl.stats.waves_committed += 1;
            vcl.stats.wave_timings.push(WaveTiming {
                wave,
                started_at: wave_state.rec.started_at,
                committed_at: sc.now(),
            });
            vcl.store.commit(wave);
            if std::env::var("FTMPI_DEBUG").is_ok() {
                for (d, log) in wave_state.rec.logs.iter().enumerate() {
                    eprintln!(
                        "[vcl] wave {wave} log[{d}] seqs={:?}",
                        log.iter().map(|m| (m.src, m.seq)).collect::<Vec<_>>()
                    );
                }
            }
            vcl.committed.push(wave_state.rec);
            let retain = vcl.cfg.retained_waves.max(1);
            while vcl.committed.len() > retain {
                vcl.committed.remove(0);
            }
            vcl.timer_gen += 1;
            next_at = Some((sc.now() + vcl.cfg.period, vcl.timer_gen));
        });
        if next_at.is_some() {
            sc.trace_proto(ftmpi_sim::ProtoEvent::WaveCommit { wave });
        }
        if let Some((at, gen)) = next_at {
            Vcl::schedule_wave_at(sc, handle, at, epoch, gen);
        }
    }
}

impl Protocol for Vcl {
    fn name(&self) -> &'static str {
        "vcl"
    }

    fn on_runtime_entry(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _rank: Rank) {
        // Markers are handled asynchronously by the communication daemon;
        // nothing is deferred to library entry in the non-blocking protocol.
    }

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _msg: &AppMsg) -> SendAction {
        SendAction::Proceed // never blocks communication
    }

    fn on_arrival(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        // Chandy–Lamport channel-state recording: log messages received
        // after the local checkpoint and before the sender's marker.
        if msg.src != msg.dst {
            if let Some(cur) = self.cur.as_mut() {
                if cur.started[msg.dst] && !cur.marker_from[msg.dst][msg.src] {
                    sc.trace_proto(ftmpi_sim::ProtoEvent::LogMsg {
                        wave: cur.rec.wave,
                        src: msg.src,
                        dst: msg.dst,
                        seq: msg.seq,
                    });
                    cur.rec.logs[msg.dst].push(msg.clone());
                    self.stats.msgs_logged += 1;
                }
            }
        }
        let _ = rt;
        ArrivalAction::Deliver
    }

    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        // Finished ranks keep their daemon: wave participation continues
        // through the event-driven paths above.
        debug_assert!(rt.ranks[rank].status != RankStatus::Dead);
        let _ = (sc, rank);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
