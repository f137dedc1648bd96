//! The dispatcher's failure handling: kill the job, restore every rank from
//! a committed wave, replay channel state, and respawn.
//!
//! Matches §4 of the paper: "the dispatcher signals all the other processes
//! to exit" (coordinated checkpointing rolls *all* ranks back), survivors
//! restore "from the local checkpoint stored on the disk if it exists;
//! otherwise they obtain it from the checkpoint server".
//!
//! Beyond the paper's model this module also covers:
//!
//! * **detection latency** ([`inject_kill`]): the paper assumes immediate
//!   detection through the broken TCP connection; with
//!   `FtConfig::detection_delay > 0` the victim sits dead (its library and
//!   daemon unresponsive — in-flight waves stall on it) until a heartbeat
//!   timeout fires `fail_and_restart`, so lost work grows with the lag;
//! * **checkpoint-server failures** ([`server_fail`]): images on the dead
//!   server vanish; the next restart falls back to the newest *retained*
//!   committed wave whose needed images survive, or to scratch;
//! * **nested restarts**: a kill landing mid-recovery restarts the restart
//!   cleanly — stale respawns and delayed-send launches die on the epoch
//!   guard, so nothing double-counts;
//! * **correlated failures** ([`inject_kill_many`]): a node death kills
//!   every colocated rank atomically — one detection event, one restart,
//!   not a cascade of nested restarts;
//! * **network partitions** ([`partition_cut`]): a partition does not kill
//!   anything by itself. Heartbeats to the cut-off side just stall, and
//!   only if the cut outlives the grace window
//!   (`FtConfig::partition_rollback_after`) does the dispatcher declare
//!   the unreachable ranks failed. A cut that heals inside the window is
//!   *suppressed* — zero rollbacks, counted in
//!   `FtStats::partitions_suppressed`. Image fetches blocked by an active
//!   fault retry with capped exponential backoff and fall back to the next
//!   replica before giving up.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use ftmpi_mpi::{spawn_rank, AppFn, AppMsg, RankStatus, World, WorldRef};
use ftmpi_net::NodeId;
use ftmpi_sim::{SimCtx, SimTime};

use ftmpi_sim::SimDuration;

use crate::config::FtConfig;
use crate::flow::{flow_lane, start_flow_guarded, FlowRetry, FlowSpec};
use crate::image::WaveRecord;
use crate::mlog::Mlog;
use crate::server::{CheckpointStore, StoreError, StoredImage};
use crate::stats::FtStats;
use crate::wave::{engine_mut, WaveCore, WaveEngine};

/// A failure-path operation was routed to the wrong protocol engine.
///
/// A typed error rather than a panic, so a fault-injection campaign
/// reports which scenario broke instead of aborting the whole process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The failure path does not apply to the world's installed engine: a
    /// global restart in an Mlog world, or a single-rank restart in any
    /// other.
    ProtocolMismatch {
        /// Engine the failure path expected.
        expected: &'static str,
        /// Engine actually installed in the world.
        found: &'static str,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::ProtocolMismatch { expected, found } => write!(
                f,
                "failure path routed to the wrong protocol: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Restore data pulled out of a protocol engine at failure time.
pub(crate) struct RestoreData {
    pub wave: Option<WaveRecord>,
    /// Per-rank server node an image fetch would come from (the lowest
    /// replica whose digest verifies, falling back to the rank's primary
    /// server).
    pub image_source: Vec<NodeId>,
    /// Per-rank *full* replica list, ascending by node id. A fetch blocked
    /// by a network fault walks this list — re-verifying each candidate's
    /// digest at fetch time — before giving up.
    pub image_sources: Vec<Vec<NodeId>>,
    /// Per-rank digest the chosen wave's image must hash to (0 when
    /// restoring from scratch; never consulted then).
    pub expected_digest: Vec<u64>,
    /// Damaged replicas the planner's verification walked past, as
    /// (wave, rank, node) — the caller traces them (the planner has no
    /// `SimCtx`).
    pub detections: Vec<(u64, usize, NodeId)>,
    /// Servers the planner pushed over the corruption threshold.
    pub quarantines: Vec<NodeId>,
}

/// Inspect every replica of one (wave, rank) slot against the digest its
/// wave record implies, recording each failure as a detection and
/// quarantining servers that cross the threshold (0 disables quarantine).
/// Returns how many replicas were damaged. Re-detections of a replica
/// nothing has repaired or dropped yet count again — matching the
/// [`FtStats::images_corrupt_detected`] contract.
#[allow(clippy::too_many_arguments)] // an accounting sink, not an API
fn detect_slot_damage(
    store: &mut CheckpointStore,
    wave: u64,
    rank: usize,
    expected: u64,
    threshold: u64,
    stats: &mut FtStats,
    detections: &mut Vec<(u64, usize, NodeId)>,
    quarantines: &mut Vec<NodeId>,
) -> u64 {
    let mut damaged = 0;
    for node in store.locate_all(wave, rank) {
        if store.verify_replica(wave, rank, node, expected).is_ok() {
            continue;
        }
        damaged += 1;
        stats.images_corrupt_detected += 1;
        detections.push((wave, rank, node));
        let seen = store.note_corruption(node);
        if threshold > 0 && seen >= threshold && store.quarantine_server(node) {
            stats.servers_quarantined += 1;
            quarantines.push(node);
        }
    }
    damaged
}

/// Pick the restore wave and account the rollback: the newest retained
/// committed wave whose server-fetched images all survive *with a
/// verifying digest*, else older retained waves, else scratch.
///
/// Verification is part of wave choice: a slot whose every replica fails
/// its digest blocks the candidate exactly like a slot the server failure
/// erased, so an all-copies-corrupt newest wave falls back to an older
/// retained one instead of committing a doomed fetch. Damage seen along
/// the way feeds the detection/quarantine counters; slots the fallback or
/// the replica walk salvages count as repairs.
fn plan_restore(core: &mut WaveCore, now: SimTime, need_server: &[bool]) -> RestoreData {
    let WaveCore {
        committed,
        store,
        server_node_of,
        stats,
        cfg,
        ..
    } = core;
    let quarantine_threshold = cfg.quarantine_threshold;
    let mut detections = Vec::new();
    let mut quarantines = Vec::new();
    let mut chosen: Option<WaveRecord> = None;
    let mut fallback_repairs = 0u64;
    for rec in committed.iter().rev() {
        let mut viable = true;
        let mut blocked_by_corruption = 0u64;
        for (r, need) in need_server.iter().enumerate() {
            if !need {
                continue;
            }
            let expected = rec.images[r].digest(rec.wave, r);
            if store.has_intact_image(rec.wave, r, expected) {
                continue;
            }
            viable = false;
            if store.has_image(rec.wave, r) {
                // Replicas exist but every copy fails verification:
                // corruption, not server loss, blocked this wave here.
                blocked_by_corruption += 1;
                detect_slot_damage(
                    store,
                    rec.wave,
                    r,
                    expected,
                    quarantine_threshold,
                    stats,
                    &mut detections,
                    &mut quarantines,
                );
            }
        }
        if viable {
            // Damaged copies on the chosen wave are walked past by the
            // verified fetch: each affected slot is one repair.
            for (r, need) in need_server.iter().enumerate() {
                if !need {
                    continue;
                }
                let expected = rec.images[r].digest(rec.wave, r);
                let damaged = detect_slot_damage(
                    store,
                    rec.wave,
                    r,
                    expected,
                    quarantine_threshold,
                    stats,
                    &mut detections,
                    &mut quarantines,
                );
                stats.images_repaired += u64::from(damaged > 0);
            }
            chosen = Some(rec.clone());
            break;
        }
        fallback_repairs += blocked_by_corruption;
    }
    if chosen.is_some() {
        // Slots salvaged by falling back past a corruption-blocked newer
        // wave: the older retained copy is the repair.
        stats.images_repaired += fallback_repairs;
    }
    let depth = match &chosen {
        Some(rec) => committed.iter().filter(|c| c.wave > rec.wave).count() as u64,
        None => committed.len() as u64,
    };
    stats.rollback_depth_max = stats.rollback_depth_max.max(depth);
    stats.lost_work += match &chosen {
        Some(rec) => rec.lost_work_at(now),
        None => now.saturating_since(SimTime::ZERO),
    };
    if chosen.is_some() {
        stats.images_refetched += need_server.iter().filter(|&&b| b).count() as u64;
    }
    let expected_digest: Vec<u64> = (0..server_node_of.len())
        .map(|r| {
            chosen
                .as_ref()
                .map(|rec| rec.images[r].digest(rec.wave, r))
                .unwrap_or(0)
        })
        .collect();
    let image_source = (0..server_node_of.len())
        .map(|r| {
            chosen
                .as_ref()
                .and_then(|rec| store.locate_intact(rec.wave, r, expected_digest[r]))
                .map(|img| img.server)
                .unwrap_or(server_node_of[r])
        })
        .collect();
    let image_sources = (0..server_node_of.len())
        .map(|r| {
            let all = chosen
                .as_ref()
                .map(|rec| store.locate_all(rec.wave, r))
                .unwrap_or_default();
            if all.is_empty() {
                vec![server_node_of[r]]
            } else {
                all
            }
        })
        .collect();
    RestoreData {
        wave: chosen,
        image_source,
        image_sources,
        expected_digest,
        detections,
        quarantines,
    }
}

/// Inject a task kill, honoring the detection-latency model.
///
/// With `detection_delay == 0` this *is* [`fail_and_restart`] — the paper's
/// immediate detection, bit-for-bit. With a positive lag, the victim's task
/// dies now (its process killed, its rank marked [`RankStatus::Dead`]) but
/// the dispatcher only notices — and restarts the job — one heartbeat
/// timeout later. A kill of an already-dead rank during that window is
/// absorbed (one task cannot die twice); a restart happening in between
/// revives the victim and cancels the stale detection via the epoch guard.
pub fn inject_kill(
    sc: &SimCtx,
    world: &WorldRef,
    app: &AppFn,
    victim: usize,
    ft: &FtConfig,
) -> Result<(), RecoveryError> {
    inject_kill_many(sc, world, app, &[victim], ft)
}

/// Inject a *correlated* kill: every rank in `victims` dies at the same
/// instant (a node death takes all its colocated tasks with it). One
/// detection event covers the whole group — the dispatcher sees the node's
/// heartbeats vanish together and restarts the job exactly once, instead of
/// stacking a nested restart per rank. Already-dead victims are absorbed
/// individually; the kill is a no-op only if *every* victim was already
/// dead. An empty group is also a no-op — the death of a node hosting no
/// ranks (a dedicated server machine) is its colocated server failure
/// alone, not a job restart.
pub fn inject_kill_many(
    sc: &SimCtx,
    world: &WorldRef,
    app: &AppFn,
    victims: &[usize],
    ft: &FtConfig,
) -> Result<(), RecoveryError> {
    if victims.is_empty() {
        return Ok(());
    }
    if ft.detection_delay.is_zero() {
        return fail_and_restart_many(sc, world, app, victims, ft);
    }
    let (handle, epoch) = {
        let mut w = world.borrow_mut();
        if w.rt.job_complete() {
            return Ok(());
        }
        let mut killed_any = false;
        for &victim in victims {
            if w.rt.ranks[victim].status == RankStatus::Dead {
                continue; // absorbed: the task is already dead
            }
            if let Some(pid) = w.rt.ranks[victim].pid.take() {
                sc.kill(pid);
            }
            w.rt.ranks[victim].status = RankStatus::Dead;
            killed_any = true;
        }
        if !killed_any {
            return Ok(());
        }
        (w.rt.world_handle(), w.rt.epoch)
    };
    let app = app.clone();
    let ft = ft.clone();
    let victims = victims.to_vec();
    sc.schedule(sc.now() + ft.detection_delay, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        {
            let w = world.borrow();
            if w.rt.epoch != epoch {
                return; // a restart already revived the victims
            }
        }
        if let Err(e) = fail_and_restart_many(sc, &world, &app, &victims, &ft) {
            world.borrow_mut().rt.record_fatal(&e.to_string());
        }
    });
    Ok(())
}

/// Kill a checkpoint-server node (by index into the deployment's server
/// fleet): every image replica it stored becomes unavailable, partial
/// waves streaming to it abort, and later restarts fall back to older
/// retained waves or scratch. Only the coordinated engines model
/// checkpoint servers this way; in any other world the call is a no-op, as
/// is an out-of-range index or a kill after job completion.
pub fn server_fail(sc: &SimCtx, world: &WorldRef, server_index: usize) {
    let mut w = world.borrow_mut();
    if w.rt.job_complete() {
        return;
    }
    let Some((engine, rt)) = WaveEngine::of(&mut w) else {
        return;
    };
    let Some(node) = engine.core.server_fleet_node(server_index) else {
        return;
    };
    sc.trace_proto(ftmpi_sim::ProtoEvent::ServerFail {
        node: node.0 as u64,
    });
    engine.on_server_failed(rt, sc, node);
}

/// Silently damage stored image replicas on a checkpoint-server node (by
/// fleet index): `rank: Some(r)` flips the replica of `r`'s image
/// belonging to the newest wave stored there; `rank: None` flips every
/// replica the node holds (whole-disk bit rot). Nothing in the runtime
/// notices *now* — detection happens when a fetch or scrub pass verifies a
/// digest, which is the whole point of the injection. No-ops mirror
/// [`server_fail`]: a world without a coordinated engine, an out-of-range
/// index, a completed job, or a server holding nothing to damage.
pub fn corrupt_images(sc: &SimCtx, world: &WorldRef, server_index: usize, rank: Option<usize>) {
    let mut w = world.borrow_mut();
    if w.rt.job_complete() {
        return;
    }
    let Some((engine, _)) = WaveEngine::of(&mut w) else {
        return;
    };
    let Some(node) = engine.core.server_fleet_node(server_index) else {
        return;
    };
    let store = &mut engine.core.store;
    let damaged: Vec<(u64, usize)> = match rank {
        Some(r) => store
            .corrupt_newest(r, node)
            .map(|wave| vec![(wave, r)])
            .unwrap_or_default(),
        None => store.corrupt_server(node),
    };
    for (wave, r) in damaged {
        sc.trace_proto(ftmpi_sim::ProtoEvent::Corrupt {
            wave,
            rank: r,
            node: node.0 as u64,
        });
    }
}

/// Does `w` run the uncoordinated message-logging engine? Its failures
/// are single-rank restarts ([`mlog_fail_and_restart`]), never the
/// dispatcher's global one.
fn runs_mlog(w: &mut World) -> bool {
    engine_mut::<Mlog>(w).is_some()
}

/// The coordinated engine's statistics, if `w` runs one.
fn wave_stats(w: &mut World) -> Option<&mut FtStats> {
    WaveEngine::of(w).map(|(engine, _)| &mut engine.core.stats)
}

/// Fail the job (as if `victim`'s task was killed) and orchestrate the
/// restart from a committed wave (or from scratch if none survives).
///
/// No-op if the job already completed.
pub fn fail_and_restart(
    sc: &SimCtx,
    world: &WorldRef,
    app: &AppFn,
    victim: usize,
    ft: &FtConfig,
) -> Result<(), RecoveryError> {
    fail_and_restart_many(sc, world, app, &[victim], ft)
}

/// [`fail_and_restart`] for a correlated group of victims: one restart
/// covers every rank in `victims` (coordinated checkpointing rolls all
/// ranks back anyway — the group only changes *which* ranks must re-fetch
/// their image from a server).
///
/// An image fetch whose source server is unreachable (link down or
/// partitioned) does not deadlock the restart: the rank's fetch turns into
/// a probe chain with capped exponential backoff
/// (`FtConfig::link_retry_delay`), walking the replica list when the
/// per-fetch budget (`link_retry_limit`) runs out, and declaring the job
/// fatally stuck only once every replica is exhausted. With no active
/// faults the probe path is never entered and the restart is byte-for-byte
/// the fault-free one.
pub fn fail_and_restart_many(
    sc: &SimCtx,
    world: &WorldRef,
    app: &AppFn,
    victims: &[usize],
    ft: &FtConfig,
) -> Result<(), RecoveryError> {
    let mut w = world.borrow_mut();
    if runs_mlog(&mut w) {
        return Err(RecoveryError::ProtocolMismatch {
            expected: "vcl, pcl or dummy",
            found: "mlog",
        });
    }
    if w.rt.job_complete() {
        return Ok(());
    }
    let n = w.rt.size();
    let handle = w.rt.world_handle();

    // 1. The dispatcher kills every process.
    for r in 0..n {
        let rs = &mut w.rt.ranks[r];
        if let Some(pid) = rs.pid.take() {
            sc.kill(pid);
        }
        rs.status = RankStatus::Dead;
    }
    w.rt.epoch += 1;
    let epoch = w.rt.epoch;
    sc.trace_proto(ftmpi_sim::ProtoEvent::Restart { epoch });
    w.rt.stats.finished_ranks = 0;
    w.rt.stats.restarts += 1;
    let now = sc.now();
    w.rt.net.reset_queues(now);

    // Which ranks must fetch their image from a server (constrains the
    // restore wave: a server failure may have lost the newest images).
    let need_server: Vec<bool> = (0..n)
        .map(|r| (victims.contains(&r) && ft.fetch_failed_from_server) || !ft.write_local_disk)
        .collect();

    // 2. Pull restore data from the coordinated engine (none without
    //    one: a scratch restart) and abort any in-flight wave (its partial
    //    images are garbage-collected; its flows and timers die on the
    //    epoch guards).
    let restore = WaveEngine::of(&mut w).map(|(engine, rt)| {
        engine.core.stats.restarts += 1;
        let data = plan_restore(&mut engine.core, now, &need_server);
        engine.abort_wave(rt, sc, false);
        data
    });
    let wave = restore.as_ref().and_then(|d| d.wave.clone());
    if let Some(data) = &restore {
        for &(cw, cr, cnode) in &data.detections {
            sc.trace_proto(ftmpi_sim::ProtoEvent::CorruptDetected {
                wave: cw,
                rank: cr,
                node: cnode.0 as u64,
            });
        }
        for &qnode in &data.quarantines {
            sc.trace_proto(ftmpi_sim::ProtoEvent::Quarantine {
                node: qnode.0 as u64,
            });
        }
    }

    // 3. Per-rank restore: reset runtime state, compute the time at which
    //    the rank's image is back in memory, schedule replay + respawn.
    // A server fetch whose source is currently unreachable cannot reserve
    // its transfer now — the rank joins `blocked` and a probe chain takes
    // over after the loop.
    let base = now + ft.restart_delay;
    let mut latest_ready = base;
    let mut blocked: Vec<BlockedFetch> = Vec::new();
    for (r, &from_server) in need_server.iter().enumerate() {
        let (skip, credit) = match &wave {
            Some(rec) => (rec.images[r].ops_completed, rec.images[r].time_credit),
            None => (0, ftmpi_sim::SimDuration::ZERO),
        };
        w.rt.ranks[r].reset_for_restart(skip, credit);
        let node = w.rt.placement.node_of(r);
        let ready: Option<SimTime> = match (&wave, &restore) {
            (Some(rec), Some(data)) => {
                if from_server {
                    // A fetch is a round trip: the request must reach the
                    // server and the image must come back. A half-open cut
                    // in either direction blocks it — fetching across one
                    // would commit a restore whose acknowledgement path is
                    // dead.
                    if w.rt.net.reachable(data.image_source[r], node)
                        && w.rt.net.reachable(node, data.image_source[r])
                    {
                        // The planner picked this source under the same
                        // world borrow, digest-verified — record the
                        // consumption.
                        sc.trace_proto(ftmpi_sim::ProtoEvent::RestoreImage {
                            wave: rec.wave,
                            rank: r,
                            node: data.image_source[r].0 as u64,
                        });
                        Some(
                            w.rt.net
                                .transfer(data.image_source[r], node, ft.image_bytes, base)
                                .delivered,
                        )
                    } else {
                        None // fetch blocked by an active network fault
                    }
                } else {
                    Some(w.rt.net.disk_read(node, ft.image_bytes, base))
                }
            }
            _ => Some(base),
        };
        if let Some(ready) = ready {
            latest_ready = latest_ready.max(ready);
        }

        // Restore the rank's library memory *now*, before any restarted
        // peer's re-executed sends can arrive: first the image's pending
        // messages, then the Chandy–Lamport channel logs — the arrival
        // order of the consistent cut.
        if let Some(rec) = &wave {
            for m in rec.images[r].pending.clone() {
                w.rt.inject_restored(sc, m);
            }
            for m in rec.logs[r].clone() {
                w.rt.inject_restored(sc, m);
            }
        }
        // Blocking protocol: "every message delayed in emission will be
        // sent again after the restart" — when the process resumes.
        let delayed_sends = wave
            .as_ref()
            .map(|rec| rec.delayed_sends[r].clone())
            .unwrap_or_default();
        let Some(ready) = ready else {
            let sources = restore
                .as_ref()
                .map(|d| d.image_sources[r].clone())
                .unwrap_or_default();
            blocked.push(BlockedFetch {
                rank: r,
                node,
                sources,
                delayed_sends,
                wave: wave.as_ref().map_or(0, |rec| rec.wave),
                expected: restore.as_ref().map_or(0, |d| d.expected_digest[r]),
            });
            continue;
        };
        schedule_respawn(
            sc,
            handle.clone(),
            epoch,
            r,
            ready,
            delayed_sends,
            app.clone(),
        );
    }

    // 4. Re-arm the wave timer once the platform is back. With fetches
    //    blocked behind a fault the re-arm waits for the last probe chain
    //    to land (the join tracks the real latest-ready instant).
    if blocked.is_empty() {
        if let Some((engine, rt)) = WaveEngine::of(&mut w) {
            engine.rearm(rt, sc, latest_ready + ft.period);
        }
    } else {
        let join = Rc::new(RefCell::new(FetchJoin {
            remaining: blocked.len(),
            latest_ready,
        }));
        for bf in blocked {
            schedule_fetch_probe(
                sc,
                FetchProbe {
                    handle: handle.clone(),
                    epoch,
                    fetch: bf,
                    src_idx: 0,
                    attempt: 0,
                    saw_corrupt: false,
                    ft: ft.clone(),
                    app: app.clone(),
                    join: join.clone(),
                },
                base,
            );
        }
    }
    Ok(())
}

/// One rank whose restart-time image fetch could not be reserved because
/// its source server was unreachable.
struct BlockedFetch {
    rank: usize,
    node: NodeId,
    /// Replica nodes holding the image, tried in order.
    sources: Vec<NodeId>,
    delayed_sends: Vec<AppMsg>,
    /// Wave being restored (for digest verification and tracing).
    wave: u64,
    /// Digest the fetched image must hash to.
    expected: u64,
}

/// Shared completion state for the blocked fetches of one restart: the wave
/// timer re-arms when the last one reserves its transfer.
struct FetchJoin {
    remaining: usize,
    latest_ready: SimTime,
}

/// State carried by one fetch probe chain.
struct FetchProbe {
    handle: Weak<RefCell<World>>,
    epoch: u64,
    fetch: BlockedFetch,
    /// Replica currently being probed.
    src_idx: usize,
    /// Consecutive failed probes against `sources[src_idx]`.
    attempt: u32,
    /// Whether this chain walked past at least one damaged replica — the
    /// successful fetch then counts as a repair.
    saw_corrupt: bool,
    ft: FtConfig,
    app: AppFn,
    join: Rc<RefCell<FetchJoin>>,
}

/// Schedule the respawn of rank `r` at `ready`: launch its delayed sends
/// under the new epoch and spawn the process. Exactly the tail of the
/// classic restart path, shared by the synchronous and the probe-chain
/// fetch.
fn schedule_respawn(
    sc: &SimCtx,
    handle: Weak<RefCell<World>>,
    epoch: u64,
    r: usize,
    ready: SimTime,
    delayed_sends: Vec<AppMsg>,
    app: AppFn,
) {
    sc.schedule(ready, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        {
            let mut w = world.borrow_mut();
            if w.rt.epoch != epoch {
                return;
            }
            for mut m in delayed_sends {
                m.epoch = epoch;
                w.rt.launch_send(sc, m);
            }
        }
        spawn_rank(sc, &world, r, app);
    });
}

/// One probe of a blocked image fetch, on the destination node's flow lane
/// (it races flow chunks and fault transitions touching the same node).
///
/// Reachable source → verify the replica's digest; intact → reserve the
/// transfer, schedule the respawn, update the join (re-arming the wave
/// timer if this was the last blocked fetch). A replica that fails
/// verification is a typed detection — counted, traced, fed to the
/// quarantine threshold — and the chain walks to the next replica
/// immediately (no point retrying damaged bits). Unreachable → back off
/// exponentially; after `link_retry_limit` failed probes move to the next
/// replica; after the last replica, record a fatal error and stop the
/// simulation — a job whose every image replica sits behind a partition
/// that never heals (or is damaged) must terminate, not hang.
fn schedule_fetch_probe(sc: &SimCtx, p: FetchProbe, at: SimTime) {
    let lane = Some(flow_lane(p.fetch.node));
    sc.schedule_keyed(at, lane, move |sc| {
        let Some(world) = p.handle.upgrade() else {
            return;
        };
        let mut w = world.borrow_mut();
        if w.rt.epoch != p.epoch || w.rt.job_complete() {
            return; // a newer restart owns recovery now
        }
        let FetchProbe {
            handle,
            epoch,
            fetch,
            mut src_idx,
            mut attempt,
            mut saw_corrupt,
            ft,
            app,
            join,
        } = p;
        let source = fetch.sources.get(src_idx).copied();
        // Round-trip reachability: the fetch request goes rank → server,
        // the image comes back server → rank. A one-directional cut on
        // either leg keeps the fetch blocked (no double-fetch across a
        // half-open partition).
        let reachable = source.is_some_and(|s| {
            w.rt.net.reachable(s, fetch.node) && w.rt.net.reachable(fetch.node, s)
        });
        if !reachable {
            w.rt.stats.link_retries += 1;
            // The backoff ladder restarts per replica: delay(0), delay(1),
            // … delay(limit-1), then the next source gets a fresh ladder.
            let delay = ft.link_retry_delay(attempt);
            attempt += 1;
            if source.is_none() || attempt >= ft.link_retry_limit.max(1) {
                if let (Some(_), Some(stats)) = (source, wave_stats(&mut w)) {
                    stats.retries_exhausted += 1;
                }
                src_idx += 1;
                attempt = 0;
            }
            if src_idx >= fetch.sources.len() {
                w.rt.record_fatal(&format!(
                    "restart of rank {}: every image replica unreachable after retries",
                    fetch.rank
                ));
                sc.request_stop();
                return;
            }
            drop(w);
            schedule_fetch_probe(
                sc,
                FetchProbe {
                    handle,
                    epoch,
                    fetch,
                    src_idx,
                    attempt,
                    saw_corrupt,
                    ft,
                    app,
                    join,
                },
                sc.now() + delay,
            );
            return;
        }
        let Some(source) = source else {
            return; // unreachable by construction: reachable implies a source
        };
        // Verify-on-fetch: the replica must hash to the digest the wave
        // record implies before the restore commits to it.
        let verdict = WaveEngine::of(&mut w).map(|(engine, _)| {
            engine
                .core
                .store
                .verify_replica(fetch.wave, fetch.rank, source, fetch.expected)
                .map(|_| ())
        });
        if let Some(Err(err)) = verdict {
            if matches!(err, StoreError::CorruptImage { .. }) {
                saw_corrupt = true;
                sc.trace_proto(ftmpi_sim::ProtoEvent::CorruptDetected {
                    wave: fetch.wave,
                    rank: fetch.rank,
                    node: source.0 as u64,
                });
                let quarantined = WaveEngine::of(&mut w).is_some_and(|(engine, _)| {
                    let core = &mut engine.core;
                    core.stats.images_corrupt_detected += 1;
                    let seen = core.store.note_corruption(source);
                    let quarantined = ft.quarantine_threshold > 0
                        && seen >= ft.quarantine_threshold
                        && core.store.quarantine_server(source);
                    core.stats.servers_quarantined += u64::from(quarantined);
                    quarantined
                });
                if quarantined {
                    sc.trace_proto(ftmpi_sim::ProtoEvent::Quarantine {
                        node: source.0 as u64,
                    });
                }
            }
            // NoReplica: the holder dropped the copy after the restore was
            // planned (it died mid-walk) — walk on without blaming a disk.
            // Either way the next replica gets a fresh backoff ladder.
            src_idx += 1;
            attempt = 0;
            if src_idx >= fetch.sources.len() {
                w.rt.record_fatal(&format!(
                    "restart of rank {}: every image replica corrupt, missing, or unreachable",
                    fetch.rank
                ));
                sc.request_stop();
                return;
            }
            drop(w);
            schedule_fetch_probe(
                sc,
                FetchProbe {
                    handle,
                    epoch,
                    fetch,
                    src_idx,
                    attempt,
                    saw_corrupt,
                    ft,
                    app,
                    join,
                },
                sc.now(),
            );
            return;
        }
        if let Some(stats) = wave_stats(&mut w) {
            if src_idx > 0 {
                stats.images_rerouted += 1;
                stats.replica_depth_max = stats.replica_depth_max.max(src_idx as u64);
            }
            // A walk past damaged bits to a verified copy is a repair.
            stats.images_repaired += u64::from(saw_corrupt);
        }
        if verdict.is_some() {
            sc.trace_proto(ftmpi_sim::ProtoEvent::RestoreImage {
                wave: fetch.wave,
                rank: fetch.rank,
                node: source.0 as u64,
            });
        }
        let ready =
            w.rt.net
                .transfer(source, fetch.node, ft.image_bytes, sc.now())
                .delivered;
        schedule_respawn(
            sc,
            handle.clone(),
            epoch,
            fetch.rank,
            ready,
            fetch.delayed_sends,
            app,
        );
        let rearm_at = {
            let mut j = join.borrow_mut();
            j.remaining -= 1;
            j.latest_ready = j.latest_ready.max(ready);
            (j.remaining == 0).then_some(j.latest_ready)
        };
        if let (Some(latest), Some((engine, rt))) = (rearm_at, WaveEngine::of(&mut w)) {
            engine.rearm(rt, sc, latest + ft.period);
        }
    });
}

/// Tiebreak lane for scrub ticks. The scrubber is a fleet-wide background
/// service whose wakeups race flow chunks and fault transitions; the lane
/// (bit 62 alone) is disjoint from flow lanes (bit 63 | node), fault lanes
/// (bits 63|62 | idx), and process lanes (small integers).
const SCRUB_LANE: u64 = 1 << 62;

/// Arm the background scrub service: every `interval` the scrubber
/// re-verifies every retained replica's digest against its wave record,
/// launches a re-replication flow from a verified good copy over each
/// damaged one, and feeds the quarantine threshold. Coordinated engines
/// only (a no-op in any other world). The service belongs to the
/// checkpoint fleet, not the job epoch — it survives restarts and stands
/// down only when the job completes.
pub fn arm_scrubber(sc: &SimCtx, world: &WorldRef, interval: SimDuration) {
    let mut w = world.borrow_mut();
    if WaveEngine::of(&mut w).is_none() {
        return;
    }
    schedule_scrub_tick(sc, w.rt.world_handle(), interval, sc.now() + interval);
}

fn schedule_scrub_tick(
    sc: &SimCtx,
    handle: Weak<RefCell<World>>,
    interval: SimDuration,
    at: SimTime,
) {
    sc.schedule_keyed(at, Some(SCRUB_LANE), move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        {
            let mut w = world.borrow_mut();
            if w.rt.job_complete() {
                return;
            }
            scrub_pass(&mut w, sc);
        }
        let handle = world.borrow().rt.world_handle();
        schedule_scrub_tick(sc, handle, interval, sc.now() + interval);
    });
}

/// One repair the scrub pass decided on: overwrite the damaged replica of
/// (wave, rank) on `node` by streaming `bytes` from the verified copy on
/// `src`.
struct ScrubRepair {
    wave: u64,
    rank: usize,
    node: NodeId,
    expected: u64,
    src: NodeId,
    bytes: u64,
}

/// What one scrub scan decided: damaged `(wave, rank, holder)` slots to
/// trace, servers that crossed the quarantine threshold, and the repairs
/// to launch.
type ScrubFindings = (Vec<(u64, usize, NodeId)>, Vec<NodeId>, Vec<ScrubRepair>);

/// Verify every retained (wave, rank, replica) slot of one engine in
/// deterministic store order, doing the detection/quarantine accounting
/// in place and returning what to trace and which repairs to launch. A
/// damaged copy is repaired only when its holder can still take writes
/// (not dead, not quarantined — including a quarantine this very pass
/// triggered) and some replica of the slot still verifies; otherwise the
/// next restore's replica walk or retained-wave fallback deals with it.
fn scrub_engine(
    committed: &[WaveRecord],
    store: &mut CheckpointStore,
    stats: &mut FtStats,
    threshold: u64,
) -> ScrubFindings {
    let mut detections = Vec::new();
    let mut quarantines = Vec::new();
    let mut repairs = Vec::new();
    for rec in committed {
        for r in 0..rec.images.len() {
            let expected = rec.images[r].digest(rec.wave, r);
            let before = detections.len();
            detect_slot_damage(
                store,
                rec.wave,
                r,
                expected,
                threshold,
                stats,
                &mut detections,
                &mut quarantines,
            );
            for &(wave, rank, node) in &detections[before..] {
                if store.server_unplaceable(node) {
                    continue;
                }
                let Some(good) = store.locate_intact(wave, rank, expected) else {
                    continue;
                };
                repairs.push(ScrubRepair {
                    wave,
                    rank,
                    node,
                    expected,
                    src: good.server,
                    bytes: good.bytes,
                });
            }
        }
    }
    (detections, quarantines, repairs)
}

/// One scrub pass over the engine's retained waves: account and trace the
/// damage, then launch one bounded re-replication flow per damaged copy.
/// The repair write lands only if, when the stream completes, the slot is
/// still retained, still damaged (an earlier repair may have won), and the
/// target still takes writes — checked under the world borrow at completion
/// time.
fn scrub_pass(w: &mut World, sc: &SimCtx) {
    let Some((engine, _)) = WaveEngine::of(w) else {
        return;
    };
    let core = &mut engine.core;
    let chunk = core.cfg.chunk_bytes;
    let retry = FlowRetry::bounded(&core.cfg);
    let threshold = core.cfg.quarantine_threshold;
    let (detections, quarantines, repairs) =
        scrub_engine(&core.committed, &mut core.store, &mut core.stats, threshold);
    for &(wave, rank, node) in &detections {
        sc.trace_proto(ftmpi_sim::ProtoEvent::CorruptDetected {
            wave,
            rank,
            node: node.0 as u64,
        });
    }
    for &node in &quarantines {
        sc.trace_proto(ftmpi_sim::ProtoEvent::Quarantine {
            node: node.0 as u64,
        });
    }
    for job in repairs {
        let ScrubRepair {
            wave,
            rank,
            node,
            expected,
            src,
            bytes,
        } = job;
        let spec = FlowSpec {
            src,
            dst: node,
            bytes,
            chunk,
            also_disk: false,
        };
        start_flow_guarded(
            &mut w.rt,
            sc,
            spec,
            retry,
            // Target unreachable past the retry budget: surrender — the
            // next tick re-detects and tries again.
            |_, _| {},
            move |w, sc, done| {
                let recorded = WaveEngine::of(w).is_some_and(|(engine, _)| {
                    let core = &mut engine.core;
                    if !core.store.server_holds(wave, rank, node) {
                        return false; // wave GC'd or the holder died mid-repair
                    }
                    if core
                        .store
                        .verify_replica(wave, rank, node, expected)
                        .is_ok()
                    {
                        return false; // an earlier repair already landed
                    }
                    let recorded = core.store.record_image(
                        wave,
                        rank,
                        StoredImage {
                            server: node,
                            bytes,
                            stored_at: done,
                            digest: expected,
                        },
                    );
                    core.stats.images_repaired += u64::from(recorded);
                    recorded
                });
                if recorded {
                    sc.trace_proto(ftmpi_sim::ProtoEvent::Repair {
                        wave,
                        rank,
                        node: node.0 as u64,
                    });
                    sc.trace_proto(ftmpi_sim::ProtoEvent::ImageStore {
                        wave,
                        rank,
                        node: node.0 as u64,
                    });
                }
            },
        );
    }
}

/// Apply a named partition cut and, if the job runs with a heartbeat grace
/// window (`FtConfig::partition_rollback_after`), arm the watchdog that
/// decides — one grace later — whether the cut was real.
///
/// The watchdog fires on the dispatcher's side of the cut:
///
/// * partition already healed → **false positive suppressed**: the stalled
///   heartbeats arrived late, nobody is declared failed, no rollback
///   (`FtStats::partitions_suppressed` counts the non-event);
/// * a restart happened in between (epoch guard) → that recovery's probe
///   chains already own the fault; the watchdog stands down;
/// * partition still active → the grace window *expired*
///   (`FtStats::partitions_expired`): every rank cut off from the service
///   node is declared failed and the job restarts once, correlated
///   ([`fail_and_restart_many`]). A cut that isolates only servers (no
///   ranks on the far side) expires without victims — the watchdog stands
///   down and the stalled pushes keep walking their retry ladders.
///
/// Without a grace window the cut is applied but never escalates: flows
/// and heartbeats stall until the partition heals. `Mlog` does not use the
/// dispatcher heartbeat model, so the watchdog is skipped.
///
/// Directed cuts arm the same watchdog: a half-open partition stalls one
/// direction of the heartbeat round-trip, which is indistinguishable from
/// a full cut at the dispatcher.
#[allow(clippy::too_many_arguments)] // a scheduling entry point, not a recursion
pub fn partition_cut(
    sc: &SimCtx,
    world: &WorldRef,
    app: &AppFn,
    ft: &FtConfig,
    name: &str,
    nodes: &[NodeId],
    direction: ftmpi_net::CutDirection,
    tear: bool,
    service_node: NodeId,
) {
    let (handle, epoch, mlog) = {
        let mut w = world.borrow_mut();
        w.rt.net
            .start_partition_with(name, nodes.iter().copied(), direction, tear);
        (w.rt.world_handle(), w.rt.epoch, runs_mlog(&mut w))
    };
    let Some(grace) = ft.partition_rollback_after else {
        return;
    };
    if mlog {
        return;
    }
    let name = name.to_string();
    let nodes = nodes.to_vec();
    let app = app.clone();
    let ft = ft.clone();
    sc.schedule(sc.now() + grace, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        let victims: Vec<usize> = {
            let mut w = world.borrow_mut();
            if w.rt.job_complete() || w.rt.epoch != epoch {
                return;
            }
            if !w.rt.net.partition_active(&name) {
                // Healed inside the grace window: heartbeats were merely
                // late. Zero rollbacks — the epoch-guard analogue of the
                // detection-delay false-positive suppression.
                if let Some(stats) = wave_stats(&mut w) {
                    stats.partitions_suppressed += 1;
                }
                return;
            }
            if let Some(stats) = wave_stats(&mut w) {
                stats.partitions_expired += 1;
            }
            let service_cut = nodes.contains(&service_node);
            (0..w.rt.size())
                .filter(|&r| nodes.contains(&w.rt.placement.node_of(r)) != service_cut)
                .collect()
        };
        if victims.is_empty() {
            return;
        }
        if let Err(e) = fail_and_restart_many(sc, &world, &app, &victims, &ft) {
            world.borrow_mut().rt.record_fatal(&e.to_string());
        }
    });
}

/// Single-rank failure handling for the uncoordinated message-logging
/// protocol: only the victim rolls back; everyone else keeps computing.
///
/// The victim restores its own last image, replays its receiver-based log,
/// and re-executes from there; its re-sent messages are suppressed as
/// duplicates at the receivers, and messages addressed to it while it was
/// down wait in the runtime (sender-side transport retransmission).
pub fn mlog_fail_and_restart(
    sc: &SimCtx,
    world: &WorldRef,
    app: &AppFn,
    victim: usize,
    ft: &FtConfig,
) -> Result<(), RecoveryError> {
    let mut w = world.borrow_mut();
    if w.rt.job_complete() || w.rt.ranks[victim].status != RankStatus::Running {
        return Ok(());
    }
    let handle = w.rt.world_handle();
    let now = sc.now();

    // Kill only the victim's task.
    if let Some(pid) = w.rt.ranks[victim].pid.take() {
        sc.kill(pid);
    }
    w.rt.stats.restarts += 1;

    // Pull the victim's restore data out of the protocol.
    let (image, log, server, in_flight) = {
        let found = w.proto.name();
        let Some((mlog, _)) = engine_mut::<Mlog>(&mut w) else {
            return Err(RecoveryError::ProtocolMismatch {
                expected: "mlog",
                found,
            });
        };
        let (image, log, server) = mlog.restore_of(victim);
        let in_flight = mlog.take_in_flight(victim);
        mlog.on_rank_restarted(victim);
        (image, log, server, in_flight)
    };

    // Roll the victim back (bumps its incarnation: stale per-rank events
    // and timers die) and rebuild its pre-crash runtime memory.
    let (skip, credit) = image
        .as_ref()
        .map(|i| (i.ops_completed, i.time_credit))
        .unwrap_or((0, ftmpi_sim::SimDuration::ZERO));
    w.rt.ranks[victim].reset_for_restart(skip, credit);
    let incarnation = w.rt.ranks[victim].incarnation;
    match &image {
        Some(img) => {
            w.rt.set_expect_seq(victim, img.expect_seq.clone());
            w.rt.set_send_seq(victim, img.send_seq.clone());
        }
        // No image: the rank restarts from scratch with empty (all-zero)
        // sparse watermarks.
        None => w.rt.set_expect_seq(victim, Vec::new()),
    }
    if let Some(img) = &image {
        for m in img.pending.clone() {
            w.rt.inject_restored(sc, m);
        }
    }
    // Replay the receiver-based log, in delivery order.
    for m in log {
        w.rt.inject_restored(sc, m);
    }
    // Messages whose log writes were cut short by the failure re-enter
    // arrival handling in their original order (they re-log under the new
    // incarnation); doing this before any later traffic preserves the
    // per-channel FIFO the duplicate watermark depends on.
    for m in in_flight {
        w.handle_arrival(sc, m);
    }

    // Image fetch from the victim's server, then respawn and re-arm its
    // independent checkpoint cycle.
    let node = w.rt.placement.node_of(victim);
    let base = now + ft.restart_delay;
    let ready = if image.is_some() {
        w.rt.net
            .transfer(server, node, ft.image_bytes, base)
            .delivered
    } else {
        base
    };
    let period = ft.period;
    let app = app.clone();
    drop(w);
    sc.schedule(ready, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        {
            let w = world.borrow();
            if w.rt.ranks[victim].incarnation != incarnation {
                return;
            }
        }
        spawn_rank(sc, &world, victim, app);
        let handle2 = world.borrow().rt.world_handle();
        Mlog::schedule_rank_ckpt(sc, handle2, victim, sc.now() + period, incarnation);
    });
    Ok(())
}
