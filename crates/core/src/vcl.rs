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
//!
//! The wave lifecycle around the cut (timers, image streams, commit,
//! aborts) is the shared [`WaveEngine`]; this module supplies Vcl's
//! `WaveRules`.

use ftmpi_mpi::flow::{send_control, start_flow, FlowSpec};
use ftmpi_mpi::{AppMsg, ArrivalAction, Rank, RankStatus, RuntimeCore};
use ftmpi_net::NodeId;
use ftmpi_sim::{ProtoEvent, SimCtx};

use crate::deploy::Deployment;
use crate::image::RankImage;
use crate::wave::{marker_lane, WaveCore, WaveEngine, WaveRules};

/// Vcl's per-wave state.
struct VclWave {
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
}

/// The non-blocking protocol's `WaveRules`.
pub struct Vcl {
    /// Node hosting the checkpoint scheduler.
    scheduler_node: NodeId,
    wave: Option<VclWave>,
}

impl Vcl {
    /// Rules for a deployment (the scheduler runs on its service node).
    pub(crate) fn new(dep: &Deployment) -> Vcl {
        Vcl {
            scheduler_node: dep.service_node,
            wave: None,
        }
    }

    /// A rank's daemon starts its local checkpoint (first marker of the
    /// wave, from the scheduler or from a peer channel).
    fn start_local_ckpt(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        r: Rank,
        wave: u64,
    ) {
        if rt.ranks[r].status == RankStatus::Dead {
            // Undetected-dead rank (detection lag): its daemon died with the
            // task, so it cannot fork or forward markers. The wave stalls on
            // it and is aborted by the eventual restart.
            return;
        }
        let (Some(vw), Some(cur)) = (self.wave.as_mut(), core.cur.as_mut()) else {
            return;
        };
        if cur.rec.wave != wave || vw.started[r] {
            return;
        }
        vw.started[r] = true;
        // Fork: the main process pauses for the CoW setup, then
        // computation continues while the clone streams the image.
        rt.add_penalty(r, core.cfg.fork_cost);
        let image = RankImage::capture(rt, r, sc.now());
        let ops = image.ops_completed;
        cur.rec.images[r] = image;
        sc.trace_proto(ProtoEvent::Fork { wave, rank: r, ops });
        // Per-channel FIFO with the data is what Chandy–Lamport relies on.
        core.send_markers(rt, sc, r, wave, move |w, sc, to| {
            WaveEngine::with_rules(w, |vcl: &mut Vcl, core, rt| {
                vcl.on_channel_marker(core, rt, sc, r, to, wave)
            })
        });
        core.start_image_streams(rt, sc, r);
    }

    /// Channel marker from `from` arrived at `to`.
    fn on_channel_marker(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        from: Rank,
        to: Rank,
        wave: u64,
    ) {
        // Receiving any marker starts the local checkpoint if needed.
        self.start_local_ckpt(core, rt, sc, to, wave);
        let mut log_flow: Option<(FlowSpec, u64)> = None;
        if let (Some(vw), Some(cur)) = (self.wave.as_mut(), core.cur.as_ref()) {
            if cur.rec.wave == wave && !vw.marker_from[to][from] {
                vw.marker_from[to][from] = true;
                sc.trace_proto(ProtoEvent::MarkerRecv { wave, from, to });
                vw.markers_missing[to] -= 1;
                if vw.markers_missing[to] == 0 {
                    vw.channels_closed[to] = true;
                    // Ship the logged channel state to the server.
                    let bytes: u64 = cur.rec.logs[to].iter().map(|m| m.bytes.max(64)).sum();
                    if bytes == 0 {
                        vw.log_done[to] = true;
                    } else {
                        let spec = FlowSpec {
                            src: rt.placement.node_of(to),
                            dst: core.server_node_of[to],
                            bytes,
                            chunk: core.cfg.chunk_bytes,
                            also_disk: false,
                        };
                        log_flow = Some((spec, bytes));
                    }
                }
            }
        }
        let Some((spec, bytes)) = log_flow else {
            self.maybe_ack(core, rt, sc, to, wave);
            return;
        };
        start_flow(rt, sc, spec, move |w, sc, _| {
            WaveEngine::with_rules(w, |vcl: &mut Vcl, core, rt| {
                core.stats.log_bytes_sent += bytes;
                if let (Some(vw), Some(cur)) = (vcl.wave.as_mut(), core.cur.as_ref()) {
                    if cur.rec.wave == wave {
                        vw.log_done[to] = true;
                    }
                }
                vcl.maybe_ack(core, rt, sc, to, wave);
            })
        });
    }

    /// Send the scheduler acknowledgement once image + channels + log are
    /// all complete for rank `r`.
    fn maybe_ack(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        r: Rank,
        wave: u64,
    ) {
        let (Some(vw), Some(cur)) = (self.wave.as_mut(), core.cur.as_ref()) else {
            return;
        };
        if cur.rec.wave != wave
            || vw.acked[r]
            || !vw.image_done[r]
            || !vw.channels_closed[r]
            || !vw.log_done[r]
        {
            return;
        }
        vw.acked[r] = true;
        let src = rt.placement.node_of(r);
        send_control(
            rt,
            sc,
            src,
            self.scheduler_node,
            core.cfg.control_bytes,
            None,
            move |w, sc| WaveEngine::report(w, sc, wave),
        );
    }
}

impl WaveRules for Vcl {
    fn name(&self) -> &'static str {
        "vcl"
    }

    fn open(&mut self, n: usize) {
        self.wave = Some(VclWave {
            started: vec![false; n],
            marker_from: (0..n).map(|_| vec![false; n]).collect(),
            markers_missing: vec![n - 1; n],
            image_done: vec![false; n],
            // A solo job has no channels, hence no channel state to ship.
            channels_closed: vec![n == 1; n],
            log_done: vec![n == 1; n],
            acked: vec![false; n],
        });
    }

    /// The scheduler sends a marker to every rank.
    fn launch(&mut self, core: &mut WaveCore, rt: &mut RuntimeCore, sc: &SimCtx, wave: u64) {
        for r in 0..rt.size() {
            let node = rt.placement.node_of(r);
            let lane = marker_lane(rt, r);
            send_control(
                rt,
                sc,
                self.scheduler_node,
                node,
                core.cfg.control_bytes,
                lane,
                move |w, sc| {
                    WaveEngine::with_rules(w, |vcl: &mut Vcl, core, rt| {
                        vcl.start_local_ckpt(core, rt, sc, r, wave)
                    })
                },
            );
        }
    }

    fn image_done(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
    ) {
        if let Some(vw) = self.wave.as_mut() {
            vw.image_done[rank] = true;
        }
        self.maybe_ack(core, rt, sc, rank, wave);
    }

    /// Vcl never holds application traffic, so there is nothing to release.
    fn close(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _release: bool) {
        self.wave = None;
    }

    /// Chandy–Lamport channel-state recording: log messages received after
    /// the local checkpoint and before the sender's marker. Communication
    /// is never held.
    fn on_arrival(&mut self, core: &mut WaveCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        if msg.src != msg.dst {
            if let (Some(vw), Some(cur)) = (self.wave.as_ref(), core.cur.as_mut()) {
                if vw.started[msg.dst] && !vw.marker_from[msg.dst][msg.src] {
                    sc.trace_proto(ProtoEvent::LogMsg {
                        wave: cur.rec.wave,
                        src: msg.src,
                        dst: msg.dst,
                        seq: msg.seq,
                    });
                    cur.rec.logs[msg.dst].push(msg.clone());
                    core.stats.msgs_logged += 1;
                }
            }
        }
        ArrivalAction::Deliver
    }

    /// Finished ranks keep their daemon: wave participation continues
    /// through the event-driven paths above.
    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, _sc: &SimCtx, rank: Rank) {
        debug_assert!(rt.ranks[rank].status != RankStatus::Dead);
    }
}
