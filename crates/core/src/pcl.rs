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
//!
//! The wave lifecycle around the cut (timers, image streams, commit,
//! aborts) is the shared [`WaveEngine`]; this module supplies Pcl's
//! `WaveRules`.

use ftmpi_mpi::flow::send_control;
use ftmpi_mpi::{AppMsg, ArrivalAction, Rank, RankStatus, RuntimeCore, SendAction};
use ftmpi_sim::{ProtoEvent, SimCtx, SimDuration};

use crate::image::RankImage;
use crate::wave::{schedule_in_epoch, WaveCore, WaveEngine, WaveRules};

/// Deferred control items awaiting the rank's next library activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PclCtl {
    /// Rank 0's periodic wave initiation.
    Initiate,
    /// Channel marker from a peer (deduplicated at transport arrival).
    Marker,
}

/// Pcl's per-wave state.
struct PclWave {
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
}

/// The blocking protocol's `WaveRules`.
#[derive(Default)]
pub struct Pcl {
    wave: Option<PclWave>,
}

impl Pcl {
    /// Queue a control item for `rank`, processing immediately if the rank
    /// is inside the library (parked in a blocking op) or no longer running
    /// application code.
    fn queue_ctl(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        ctl: PclCtl,
    ) {
        let rs = &rt.ranks[rank];
        if rs.status == RankStatus::Dead {
            // Undetected-dead rank (detection lag): its library is gone, so
            // it can neither process nor defer control traffic. The wave
            // stalls on it and is aborted by the eventual restart.
            return;
        }
        if rs.blocked_in_lib || rs.status != RankStatus::Running || core.cfg.pcl_async_markers {
            self.process_ctl(core, rt, sc, rank, ctl);
        } else if let Some(pw) = self.wave.as_mut() {
            pw.pending_ctl[rank].push(ctl);
        }
    }

    /// Drain deferred control items for `rank` (library entry).
    fn drain_ctl(&mut self, core: &mut WaveCore, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        while let Some(ctl) = self
            .wave
            .as_mut()
            .filter(|pw| !pw.pending_ctl[rank].is_empty())
            .map(|pw| pw.pending_ctl[rank].remove(0))
        {
            self.process_ctl(core, rt, sc, rank, ctl);
        }
    }

    fn process_ctl(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        ctl: PclCtl,
    ) {
        self.enter_wave(core, rt, sc, rank);
        let take = match ctl {
            PclCtl::Marker => self.wave.as_mut().is_some_and(|pw| {
                pw.markers_processed[rank] += 1;
                pw.markers_processed[rank] == pw.in_wave.len() - 1 && !pw.ckpt_taken[rank]
            }),
            // Single-process job: the initiator checkpoints immediately.
            PclCtl::Initiate => rt.size() == 1,
        };
        if take {
            self.take_checkpoint(core, rt, sc, rank);
        }
    }

    /// Enter the `checkpointing` state: send markers on every channel; all
    /// subsequent sends are delayed until the local checkpoint.
    fn enter_wave(&mut self, core: &mut WaveCore, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        let (Some(pw), Some(cur)) = (self.wave.as_mut(), core.cur.as_ref()) else {
            return;
        };
        if pw.in_wave[rank] {
            return;
        }
        pw.in_wave[rank] = true;
        let wave = cur.rec.wave;
        core.send_markers(rt, sc, rank, wave, move |w, sc, to| {
            WaveEngine::with_rules(w, |pcl: &mut Pcl, core, rt| {
                pcl.on_marker_arrival(core, rt, sc, rank, to, wave)
            })
        });
    }

    /// Transport-level marker arrival on channel `from → to`.
    fn on_marker_arrival(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        from: Rank,
        to: Rank,
        wave: u64,
    ) {
        let (Some(pw), Some(cur)) = (self.wave.as_mut(), core.cur.as_ref()) else {
            return;
        };
        if cur.rec.wave != wave || pw.marker_arrived[to][from] {
            return;
        }
        pw.marker_arrived[to][from] = true;
        sc.trace_proto(ProtoEvent::MarkerRecv { wave, from, to });
        self.queue_ctl(core, rt, sc, to, PclCtl::Marker);
    }

    /// All markers held: fork, record the image, release the delayed
    /// queues ("after having taken its checkpoint, a process can send and
    /// receive any messages"), and stream the image.
    fn take_checkpoint(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
    ) {
        let (Some(pw), Some(cur)) = (self.wave.as_mut(), core.cur.as_mut()) else {
            return;
        };
        if pw.ckpt_taken[rank] {
            return;
        }
        pw.ckpt_taken[rank] = true;
        rt.add_penalty(rank, core.cfg.fork_cost);
        let image = RankImage::capture(rt, rank, sc.now());
        let ops = image.ops_completed;
        cur.rec.images[rank] = image;
        // Delayed sends are in-memory buffered messages: they are part of
        // the image and will be *sent again* after a restart.
        cur.rec.delayed_sends[rank] = pw.delayed_sends[rank].clone();
        // While the image streams through the process's own channel, every
        // MPI operation pays the progress-engine sharing drag.
        rt.ranks[rank].op_drag = core.cfg.blocking_stream_drag;
        sc.trace_proto(ProtoEvent::Fork {
            wave: cur.rec.wave,
            rank,
            ops,
        });
        for msg in std::mem::take(&mut pw.delayed_sends[rank]) {
            rt.launch_send(sc, msg);
        }
        // The delayed receive queue is delivered now (post-checkpoint); on
        // restart it is *discarded* — senders re-send.
        for msg in std::mem::take(&mut pw.delayed_arrivals[rank]) {
            rt.deliver_to_matching(sc, msg);
        }
        core.start_image_streams(rt, sc, rank);
    }

    /// Library entry with deferred control pending: process it in an
    /// immediate event of its own, after the operation that entered the
    /// library.
    fn drain_via_hook(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        if self
            .wave
            .as_ref()
            .is_some_and(|pw| !pw.pending_ctl[rank].is_empty())
        {
            schedule_in_epoch(sc, rt, sc.now(), None, move |w, sc| {
                WaveEngine::with_rules(w, |pcl: &mut Pcl, core, rt| {
                    pcl.drain_ctl(core, rt, sc, rank)
                })
            });
        }
    }
}

impl WaveRules for Pcl {
    fn name(&self) -> &'static str {
        "pcl"
    }

    fn open(&mut self, n: usize) {
        self.wave = Some(PclWave {
            in_wave: vec![false; n],
            marker_arrived: (0..n).map(|_| vec![false; n]).collect(),
            markers_processed: vec![0; n],
            pending_ctl: vec![Vec::new(); n],
            ckpt_taken: vec![false; n],
            delayed_sends: vec![Vec::new(); n],
            delayed_arrivals: vec![Vec::new(); n],
        });
    }

    /// Rank 0 initiates: processed when its progress engine runs.
    fn launch(&mut self, core: &mut WaveCore, rt: &mut RuntimeCore, sc: &SimCtx, _wave: u64) {
        self.queue_ctl(core, rt, sc, 0, PclCtl::Initiate);
    }

    /// The rank's last replica landed: its channel is idle again, and it
    /// "sends a message to the MPI process of rank 0 such that a new
    /// checkpoint wave can be scheduled".
    fn image_done(
        &mut self,
        core: &mut WaveCore,
        rt: &mut RuntimeCore,
        sc: &SimCtx,
        rank: Rank,
        wave: u64,
    ) {
        self.stream_ended(rt, rank);
        let (src, dst) = (rt.placement.node_of(rank), rt.placement.node_of(0));
        send_control(
            rt,
            sc,
            src,
            dst,
            core.cfg.control_bytes,
            None,
            move |w, sc| WaveEngine::report(w, sc, wave),
        );
    }

    fn stream_ended(&mut self, rt: &mut RuntimeCore, rank: Rank) {
        rt.ranks[rank].op_drag = SimDuration::ZERO;
    }

    /// An abort while the job keeps running (server loss, a push with
    /// nowhere to go) must release the held queues, or every rank still
    /// synchronizing would hang forever; a restart abort discards them —
    /// the restored images re-send.
    fn close(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, release: bool) {
        let Some(pw) = self.wave.take() else { return };
        if release {
            for msg in pw.delayed_sends.into_iter().flatten() {
                rt.launch_send(sc, msg);
            }
            for msg in pw.delayed_arrivals.into_iter().flatten() {
                rt.deliver_to_matching(sc, msg);
            }
        }
    }

    /// The progress engine runs: handle deferred initiations and markers.
    fn on_runtime_entry(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        self.drain_via_hook(rt, sc, rank);
    }

    fn on_send_post(&mut self, core: &mut WaveCore, msg: &AppMsg) -> SendAction {
        if let Some(pw) = self.wave.as_mut() {
            if pw.in_wave[msg.src] && !pw.ckpt_taken[msg.src] {
                pw.delayed_sends[msg.src].push(msg.clone());
                core.stats.sends_delayed += 1;
                return SendAction::Hold;
            }
        }
        SendAction::Proceed
    }

    fn on_arrival(&mut self, core: &mut WaveCore, _sc: &SimCtx, msg: &AppMsg) -> ArrivalAction {
        if msg.src != msg.dst {
            if let Some(pw) = self.wave.as_mut() {
                if pw.marker_arrived[msg.dst][msg.src] && !pw.ckpt_taken[msg.dst] {
                    pw.delayed_arrivals[msg.dst].push(msg.clone());
                    core.stats.arrivals_delayed += 1;
                    return ArrivalAction::Hold;
                }
            }
        }
        ArrivalAction::Deliver
    }

    /// A finished rank's library stays responsive: process anything
    /// pending so a wave cannot stall on it.
    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        self.drain_via_hook(rt, sc, rank);
    }
}
