//! The coordinated checkpoint wave, written once for both coordinated
//! protocols.
//!
//! Pcl and Vcl differ only in how a wave reaches a consistent cut: Pcl
//! blocks and flushes the channels, Vcl sends Chandy–Lamport markers and
//! logs in-transit messages. Everything around the cut is the same and
//! lives here, in [`WaveEngine`]:
//!
//! * the wave timer (generation-guarded periodic timers, proactive
//!   triggers, re-arming after a commit, an abort or a restart);
//! * streaming each rank's image to its replica servers, under a bounded
//!   retry budget: exhausted push → torn-write record → reroute to a
//!   round-trip-reachable server → abort the wave;
//! * landing replicas with their content digest, collecting the per-rank
//!   reports, and committing the wave with its retention window;
//! * server failures, end-of-run bookkeeping, and the state the restart
//!   planner in [`crate::recovery`] reads.
//!
//! What differs is one small trait, `WaveRules`, implemented by
//! [`Pcl`](crate::Pcl) and [`Vcl`](crate::Vcl): how a wave is launched,
//! what a rank does once its image is stored, what the runtime hooks hold
//! or log, and what an aborted wave must release. Mlog is not a wave
//! engine: its checkpoints are per-rank and uncoordinated.

use std::any::Any;

use ftmpi_mpi::flow::{start_flow_guarded, FlowSpec};
use ftmpi_mpi::{AppMsg, ArrivalAction, Protocol, Rank, RuntimeCore, SendAction, World};
use ftmpi_net::NodeId;
use ftmpi_sim::{ProtoEvent, SimCtx, SimTime};

use crate::config::FtConfig;
use crate::deploy::Deployment;
use crate::image::WaveRecord;
use crate::server::{replica_targets, CheckpointStore, StoredImage, TORN_WRITE};
use crate::stats::{FtStats, WaveTiming};

/// Borrow the installed protocol engine as an `E`, alongside the runtime;
/// `None` when the world runs a different engine.
pub(crate) fn engine_mut<E: Any>(w: &mut World) -> Option<(&mut E, &mut RuntimeCore)> {
    let World { rt, proto } = w;
    proto.as_any_mut().downcast_mut::<E>().map(|e| (e, rt))
}

/// Run `f` on the installed protocol engine, which must be an `E` (engine
/// events only ever fire in worlds running that engine).
pub(crate) fn with_engine<E: Any, T>(
    w: &mut World,
    f: impl FnOnce(&mut E, &mut RuntimeCore) -> T,
) -> T {
    let (engine, rt) = engine_mut::<E>(w).expect("world runs a different protocol engine");
    f(engine, rt)
}

/// Schedule `f` against the world at `at` on tiebreak `lane`. It is
/// dropped if the world is gone or a restart changed the epoch first.
pub(crate) fn schedule_in_epoch(
    sc: &SimCtx,
    rt: &RuntimeCore,
    at: SimTime,
    lane: Option<u64>,
    f: impl FnOnce(&mut World, &SimCtx) + 'static,
) {
    let handle = rt.world_handle();
    let epoch = rt.epoch;
    sc.schedule_keyed(at, lane, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        let mut w = world.borrow_mut();
        if w.rt.epoch == epoch {
            f(&mut w, sc);
        }
    });
}

/// Tiebreak lane of a marker arriving at `rank`: markers race data
/// arrivals there, so they share the process's lane and the marker's
/// position in the channel (and the op boundary of a fork it triggers) is
/// schedule-independent. The `LanelessMarkers` regression fixture drops
/// the lane, re-opening that race for the schedule explorer.
pub(crate) fn marker_lane(rt: &RuntimeCore, rank: Rank) -> Option<u64> {
    if rt.race_fixture == Some(ftmpi_mpi::RaceFixture::LanelessMarkers) {
        None
    } else {
        rt.ranks[rank].pid.map(ftmpi_sim::Pid::lane)
    }
}

/// What a coordinated protocol adds to the shared wave lifecycle. Each
/// protocol keeps its own per-wave state, opened and closed together with
/// the engine's [`Wave`].
pub(crate) trait WaveRules: Any {
    /// Short protocol name ("pcl", "vcl").
    fn name(&self) -> &'static str;

    /// A fresh wave over `n` ranks begins: allocate the per-wave state.
    fn open(&mut self, n: usize);

    /// Start wave `wave`, just opened in `core`.
    fn launch(&mut self, core: &mut WaveCore, rt: &mut RuntimeCore, sc: &SimCtx, wave: u64);

    /// Every replica of `rank`'s wave-`wave` image landed.
    fn image_done(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
    );

    /// One of `rank`'s image streams ended without landing (its wave
    /// died, or the push found nowhere to go).
    fn stream_ended(&mut self, _rt: &mut RuntimeCore, _rank: Rank) {}

    /// The wave ended (committed or aborted): drop the per-wave state.
    /// `release` is set when the job keeps running past an abort, so
    /// anything the wave holds back must be let go.
    fn close(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, release: bool);

    /// See [`Protocol::on_runtime_entry`].
    fn on_runtime_entry(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _rank: Rank) {}

    /// See [`Protocol::on_send_post`].
    fn on_send_post(&mut self, _core: &mut WaveCore, _msg: &AppMsg) -> SendAction {
        SendAction::Proceed
    }

    /// See [`Protocol::on_arrival`].
    fn on_arrival(&mut self, core: &mut WaveCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction;

    /// See [`Protocol::on_rank_finished`].
    fn on_rank_finished(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _rank: Rank) {}
}

/// The in-flight wave's shared state.
pub(crate) struct Wave {
    /// What a commit will record.
    pub rec: WaveRecord,
    /// Replica streams still in flight, per rank.
    image_flows_left: Vec<usize>,
    /// Per-rank completion reports collected by the initiator (Pcl's rank
    /// 0, Vcl's scheduler); the wave commits at one per rank.
    reports: usize,
}

/// Everything a coordinated engine shares across protocols: the server
/// fleet, the store, statistics, the retained waves, and the wave in
/// flight.
pub(crate) struct WaveCore {
    pub cfg: FtConfig,
    /// Checkpoint-server node of each rank.
    pub server_node_of: Vec<NodeId>,
    /// The whole checkpoint-server fleet (replica targets, failure
    /// fallback).
    server_nodes: Vec<NodeId>,
    pub stats: FtStats,
    pub store: CheckpointStore,
    /// Retained committed waves, oldest → newest (restart sources; older
    /// entries are fallback targets after a server failure).
    pub committed: Vec<WaveRecord>,
    pub cur: Option<Wave>,
    wave_counter: u64,
    /// Wave-timer generation: stale periodic timers (superseded by a
    /// proactive trigger, a commit, an abort or a restart) die on a
    /// generation mismatch.
    timer_gen: u64,
}

impl WaveCore {
    /// Server node at `idx` in the deployment's fleet, if any.
    pub fn server_fleet_node(&self, idx: usize) -> Option<NodeId> {
        self.server_nodes.get(idx).copied()
    }

    fn live_server_count(&self) -> usize {
        self.server_nodes
            .iter()
            .filter(|n| !self.store.server_failed(**n))
            .count()
    }

    /// Is `rank` still streaming its image for the in-flight wave `wave`?
    fn streaming(&self, rank: Rank, wave: u64) -> bool {
        self.cur
            .as_ref()
            .is_some_and(|cur| cur.rec.wave == wave && cur.image_flows_left[rank] > 0)
    }

    /// Digest the in-flight wave's image of `rank` must hash to.
    fn expected_digest(&self, rank: Rank, wave: u64) -> u64 {
        self.cur
            .as_ref()
            .map(|cur| cur.rec.images[rank].digest(wave, rank))
            .unwrap_or(0)
    }

    /// Send a channel marker of wave `wave` from `from` to every other
    /// rank. Markers travel the application channels, FIFO with the data
    /// on them; `on_arrival(w, sc, to)` runs when one reaches `to`, unless
    /// a restart intervened.
    pub fn send_markers(
        &self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        from: Rank,
        wave: u64,
        on_arrival: impl Fn(&mut World, &SimCtx, Rank) + Copy + 'static,
    ) {
        let src_node = rt.placement.node_of(from);
        let ctl_bytes = self.cfg.control_bytes;
        let penalty = rt.profile.message_penalty(ctl_bytes);
        for to in (0..rt.size()).filter(|&to| to != from) {
            sc.trace_proto(ProtoEvent::MarkerSend { wave, from, to });
            let dst_node = rt.placement.node_of(to);
            let delivered = rt
                .net
                .transfer_with_overhead(src_node, dst_node, ctl_bytes, sc.now(), penalty)
                .delivered;
            schedule_in_epoch(sc, rt, delivered, marker_lane(rt, to), move |w, sc| {
                on_arrival(w, sc, to)
            });
        }
    }

    /// Stream `rank`'s freshly captured image of the in-flight wave to its
    /// replica servers: one stream per live target, walking the fleet from
    /// the rank's primary; the local disk is written once.
    pub fn start_image_streams(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        let Some(cur) = self.cur.as_mut() else { return };
        let wave = cur.rec.wave;
        let targets = replica_targets(
            &self.server_nodes,
            self.server_node_of[rank],
            self.cfg.replicas,
            &self.store,
        );
        cur.image_flows_left[rank] = targets.len();
        let src = rt.placement.node_of(rank);
        for (i, server) in targets.into_iter().enumerate() {
            let spec = FlowSpec {
                src,
                dst: server,
                bytes: self.cfg.image_bytes,
                chunk: self.cfg.chunk_bytes,
                also_disk: self.cfg.write_local_disk && i == 0,
            };
            start_image_stream(rt, sc, spec, rank, wave);
        }
    }
}

/// Launch one replica stream of `rank`'s wave-`wave` image toward
/// `spec.dst`. If the target stays unreachable behind a link fault or a
/// partition for the whole retry budget, the push surrenders to
/// [`WaveEngine::image_push_failed`].
fn start_image_stream(rt: &mut RuntimeCore, sc: &SimCtx, spec: FlowSpec, rank: Rank, wave: u64) {
    let server = spec.dst;
    let fail_spec = spec.clone();
    start_flow_guarded(
        rt,
        sc,
        spec,
        move |w, sc| {
            with_engine(w, |e: &mut WaveEngine, rt| {
                e.image_push_failed(rt, sc, rank, wave, fail_spec)
            })
        },
        move |w, sc, done_at| {
            with_engine(w, |e: &mut WaveEngine, rt| {
                e.image_stored(rt, sc, rank, wave, server, done_at)
            })
        },
    );
}

/// A coordinated checkpointing engine: the shared wave lifecycle plus one
/// protocol's `WaveRules`. Implements [`Protocol`] by delegating the
/// runtime hooks to the rules.
pub struct WaveEngine {
    pub(crate) core: WaveCore,
    rules: Box<dyn WaveRules>,
}

impl WaveEngine {
    /// Build the engine for a deployment, running `rules`.
    pub(crate) fn new(cfg: FtConfig, dep: &Deployment, rules: impl WaveRules) -> WaveEngine {
        let mut store = CheckpointStore::default();
        store.set_retention(cfg.retained_waves.max(1));
        WaveEngine {
            core: WaveCore {
                server_node_of: (0..dep.nranks()).map(|r| dep.server_node_of(r)).collect(),
                server_nodes: dep.server_nodes.clone(),
                cfg,
                stats: FtStats::default(),
                store,
                committed: Vec::new(),
                cur: None,
                wave_counter: 0,
                timer_gen: 0,
            },
            rules: Box::new(rules),
        }
    }

    /// The coordinated engine installed in `w`, if any: how recovery and
    /// the runner reach the shared wave state.
    pub(crate) fn of(w: &mut World) -> Option<(&mut WaveEngine, &mut RuntimeCore)> {
        engine_mut(w)
    }

    /// Run `f` on protocol `R`'s rules and the shared state of the engine
    /// installed in `w` (events of protocol `R` only fire in its worlds).
    pub(crate) fn with_rules<R: WaveRules, T>(
        w: &mut World,
        f: impl FnOnce(&mut R, &mut WaveCore, &mut RuntimeCore) -> T,
    ) -> T {
        with_engine(w, |e: &mut WaveEngine, rt| {
            let rules = (&mut *e.rules as &mut dyn Any)
                .downcast_mut::<R>()
                .expect("wave engine runs different rules");
            f(rules, &mut e.core, rt)
        })
    }

    /// Supersede every pending wave timer with one firing at `at`. It
    /// initiates a wave only if the epoch is unchanged, the job still runs,
    /// no newer timer superseded it, and no wave is in flight.
    pub(crate) fn rearm(&mut self, rt: &RuntimeCore, sc: &SimCtx, at: SimTime) {
        self.core.timer_gen += 1;
        let gen = self.core.timer_gen;
        schedule_in_epoch(sc, rt, at, None, move |w, sc| {
            if w.rt.job_complete() {
                return;
            }
            with_engine(w, |e: &mut WaveEngine, rt| {
                if e.core.timer_gen == gen && e.core.cur.is_none() {
                    e.initiate(rt, sc);
                }
            });
        });
    }

    /// Open a wave and hand it to the protocol to launch — unless every
    /// checkpoint server is gone.
    fn initiate(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        let core = &mut self.core;
        if core.live_server_count() == 0 {
            return;
        }
        let n = rt.size();
        core.wave_counter += 1;
        core.stats.waves_started += 1;
        let wave = core.wave_counter;
        core.cur = Some(Wave {
            rec: WaveRecord::new(wave, n, sc.now()),
            image_flows_left: vec![0; n],
            reports: 0,
        });
        self.rules.open(n);
        sc.trace_proto(ProtoEvent::WaveStart { wave });
        self.rules.launch(core, rt, sc, wave);
    }

    /// Abort the in-flight wave, if any: drop its state and
    /// garbage-collect its partial images from the store. `release` hands
    /// back what the wave held when the job keeps running (a restart
    /// discards it instead). Returns whether a wave was aborted.
    pub(crate) fn abort_wave(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, release: bool) -> bool {
        let Some(cur) = self.core.cur.take() else {
            return false;
        };
        self.core.stats.waves_aborted += 1;
        self.core.store.abort(cur.rec.wave);
        sc.trace_proto(ProtoEvent::WaveAbort { wave: cur.rec.wave });
        self.rules.close(rt, sc, release);
        true
    }

    /// Abort the in-flight wave while the job keeps running (a server
    /// failure, or a push with nowhere left to go), release what it held,
    /// and re-arm the periodic timer while live servers remain.
    fn abort_and_rearm(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        if self.abort_wave(rt, sc, true) && !rt.job_complete() && self.core.live_server_count() > 0
        {
            self.rearm(rt, sc, sc.now() + self.core.cfg.period);
        }
    }

    /// A checkpoint-server node failed: drop every replica it held and
    /// abort the in-flight wave, if any (the commit database lost images
    /// the wave needs; its surviving flows die on the wave-number guards).
    pub(crate) fn on_server_failed(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, node: NodeId) {
        self.core.store.fail_server(node);
        self.abort_and_rearm(rt, sc);
    }

    /// Account end-of-run bookkeeping health (orphaned partial images) and
    /// return the final statistics.
    pub(crate) fn finalize_stats(&mut self) -> FtStats {
        let core = &mut self.core;
        core.stats.orphan_images_end = core
            .store
            .orphan_images(core.cur.as_ref().map(|c| c.rec.wave));
        core.stats.clone()
    }

    /// A replica stream of `rank`'s image spent its whole retry budget
    /// against an unreachable server. The server may be perfectly healthy
    /// — nothing is dropped from the store — but this wave cannot land the
    /// image there, so reroute the push to the next server that is
    /// placeable, reachable round-trip from the source node, and not
    /// already holding this image. With no such server the wave can never
    /// commit: abort it and re-arm the timer.
    fn image_push_failed(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
        spec: FlowSpec,
    ) {
        if !self.core.streaming(rank, wave) {
            // The wave died while the push backed off.
            self.rules.stream_ended(rt, rank);
            return;
        }
        let core = &mut self.core;
        core.stats.retries_exhausted += 1;
        // A *tearing* cut severed this stream mid-flight: the server is
        // left holding a truncated prefix that can never hash to the
        // image's digest. Record the torn replica (damaged bits, not a
        // placement — no `ImageStore` trace) so fetches and scrubs must
        // walk past it; the `server_holds` reroute filter below then keeps
        // this wave from re-targeting the torn server. A dead or
        // quarantined target keeps nothing (`record_image` drops the
        // write), matching a store that died with its server.
        if core.cfg.torn_writes && rt.net.cut_tears(spec.src, spec.dst) {
            let digest = core.expected_digest(rank, wave) ^ TORN_WRITE;
            let torn = core.store.record_image(
                wave,
                rank,
                StoredImage {
                    server: spec.dst,
                    // The store tracks logical slots, not physical bytes;
                    // the truncated prefix occupies the slot.
                    bytes: spec.bytes,
                    stored_at: sc.now(),
                    digest,
                },
            );
            if torn {
                sc.trace_proto(ProtoEvent::Corrupt {
                    wave,
                    rank,
                    node: spec.dst.0 as u64,
                });
            }
        }
        let fleet = &core.server_nodes;
        let pos = fleet.iter().position(|n| *n == spec.dst).unwrap_or(0);
        // A candidate must be reachable round-trip: the push streams
        // source → server, the store acknowledgement comes back. Rerouting
        // across a half-open cut would commit an image the wave controller
        // can never hear about. A quarantined server is as unplaceable as
        // a dead one.
        let replacement = (1..fleet.len())
            .map(|i| fleet[(pos + i) % fleet.len()])
            .find(|&cand| {
                !core.store.server_unplaceable(cand)
                    && rt.net.reachable(spec.src, cand)
                    && rt.net.reachable(cand, spec.src)
                    && !core.store.server_holds(wave, rank, cand)
            });
        match replacement {
            Some(cand) => {
                core.stats.images_rerouted += 1;
                start_image_stream(rt, sc, FlowSpec { dst: cand, ..spec }, rank, wave);
            }
            None => {
                self.rules.stream_ended(rt, rank);
                self.abort_and_rearm(rt, sc);
            }
        }
    }

    /// One replica stream landed on `server`, stamped with the image's
    /// content digest (what verify-on-fetch later checks against). Streams
    /// whose wave was aborted meanwhile are dropped here. A write the store
    /// drops because the target was quarantined while the stream was in
    /// flight re-enters the reroute path: the replica must land on a
    /// placeable server for the wave to commit.
    fn image_stored(
        &mut self,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
        server: NodeId,
        done_at: SimTime,
    ) {
        if !self.core.streaming(rank, wave) {
            self.rules.stream_ended(rt, rank);
            return;
        }
        let core = &mut self.core;
        core.stats.image_bytes_sent += core.cfg.image_bytes;
        let digest = core.expected_digest(rank, wave);
        let recorded = core.store.record_image(
            wave,
            rank,
            StoredImage {
                server,
                bytes: core.cfg.image_bytes,
                stored_at: done_at,
                digest,
            },
        );
        if !recorded {
            let spec = FlowSpec {
                src: rt.placement.node_of(rank),
                dst: server,
                bytes: core.cfg.image_bytes,
                chunk: core.cfg.chunk_bytes,
                also_disk: false,
            };
            self.image_push_failed(rt, sc, rank, wave, spec);
            return;
        }
        let Some(cur) = core.cur.as_mut() else { return };
        cur.image_flows_left[rank] -= 1;
        let done = cur.image_flows_left[rank] == 0;
        sc.trace_proto(ProtoEvent::ImageStore {
            wave,
            rank,
            node: server.0 as u64,
        });
        if done {
            self.rules.image_done(core, rt, sc, rank, wave);
        }
    }

    /// A rank's completion report for `wave` reached the initiator. Once
    /// every rank reported, commit the wave and arm the next timer — "the
    /// timeout for the next checkpoint wave is set as soon as every
    /// process has transferred its image".
    pub(crate) fn report(w: &mut World, sc: &SimCtx, wave: u64) {
        with_engine(w, |e: &mut WaveEngine, rt| e.collect_report(rt, sc, wave));
    }

    fn collect_report(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, wave: u64) {
        let core = &mut self.core;
        let Some(cur) = core.cur.as_mut().filter(|cur| cur.rec.wave == wave) else {
            return;
        };
        cur.reports += 1;
        if cur.reports < rt.size() {
            return;
        }
        let Some(Wave { mut rec, .. }) = core.cur.take() else {
            return;
        };
        self.rules.close(rt, sc, false);
        rec.committed_at = sc.now();
        core.stats.waves_committed += 1;
        core.stats.wave_timings.push(WaveTiming {
            wave,
            started_at: rec.started_at,
            committed_at: sc.now(),
        });
        core.store.commit(wave);
        core.committed.push(rec);
        let retain = core.cfg.retained_waves.max(1);
        while core.committed.len() > retain {
            core.committed.remove(0);
        }
        sc.trace_proto(ProtoEvent::WaveCommit { wave });
        self.rearm(rt, sc, sc.now() + self.core.cfg.period);
    }
}

/// The per-message and per-entry hooks consult the rules only while a wave
/// is in flight: outside one, no protocol holds, logs or defers anything,
/// and these hooks run once per message or library entry.
impl Protocol for WaveEngine {
    fn name(&self) -> &'static str {
        self.rules.name()
    }

    fn on_runtime_entry(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        if self.core.cur.is_some() {
            self.rules.on_runtime_entry(rt, sc, rank);
        }
    }

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, msg: &AppMsg) -> SendAction {
        if self.core.cur.is_none() {
            return SendAction::Proceed;
        }
        self.rules.on_send_post(&mut self.core, msg)
    }

    fn on_arrival(&mut self, _rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        if self.core.cur.is_none() {
            return ArrivalAction::Deliver;
        }
        self.rules.on_arrival(&mut self.core, sc, msg)
    }

    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        self.rules.on_rank_finished(rt, sc, rank);
    }

    /// Arm the first wave timer.
    fn on_job_start(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        self.rearm(rt, sc, sc.now() + self.core.cfg.first_wave_delay);
    }

    /// Start a wave now, superseding the pending periodic timer. No wave
    /// starts if one is already in flight.
    fn on_checkpoint_request(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        if rt.job_complete() {
            return;
        }
        self.core.timer_gen += 1;
        if self.core.cur.is_none() {
            self.initiate(rt, sc);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
