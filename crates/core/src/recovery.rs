//! Failure handling: one kill entry, the dispatcher's global restart, and
//! the damage ledger every integrity path shares.
//!
//! [`kill_ranks`] receives every rank kill and node death, and the
//! installed engine decides what a kill costs. [`Mlog`] restarts each
//! victim alone (`Mlog::restart_rank`). Every other engine takes the
//! dispatcher's path, matching §4 of the paper: "the dispatcher signals all
//! the other processes to exit" (coordinated checkpointing rolls *all*
//! ranks back), survivors restore "from the local checkpoint stored on the
//! disk if it exists; otherwise they obtain it from the checkpoint server".
//!
//! Beyond the paper's model this module also covers:
//!
//! * **detection latency**: the paper assumes immediate detection through
//!   the broken TCP connection; with `FtConfig::detection_delay > 0` the
//!   victim sits dead (its library and daemon unresponsive — in-flight
//!   waves stall on it) until a heartbeat timeout fires the restart, so
//!   lost work grows with the lag;
//! * **checkpoint-server failures** ([`server_fail`]): images on the dead
//!   server vanish; the next restart falls back to the newest *retained*
//!   committed wave whose needed images survive, or to scratch;
//! * **nested restarts**: a kill landing mid-recovery restarts the restart
//!   cleanly — stale respawns and delayed-send launches die on the epoch
//!   guard, so nothing double-counts;
//! * **correlated failures**: a node death kills every colocated rank
//!   atomically — one detection event, one restart, not a cascade of
//!   nested restarts;
//! * **network partitions** ([`partition_cut`]): a partition does not kill
//!   anything by itself. Heartbeats to the cut-off side just stall, and
//!   only if the cut outlives the grace window
//!   (`FtConfig::partition_rollback_after`) does the dispatcher declare
//!   the unreachable ranks failed. A cut that heals inside the window is
//!   *suppressed* — zero rollbacks, counted in
//!   `FtStats::partitions_suppressed`. Image fetches blocked by an active
//!   fault retry with capped exponential backoff and fall back to the next
//!   replica before giving up;
//! * **image damage**: restore planning, fetch probes and the scrub pass
//!   all verify digests, and every damaged replica any of them finds is
//!   recorded in one place (`WaveCore::record_damage`).

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use ftmpi_mpi::flow::{flow_lane, start_flow_guarded, FlowRetry, FlowSpec};
use ftmpi_mpi::{spawn_rank, AppFn, AppMsg, RankStatus, RuntimeCore, World, WorldRef};
use ftmpi_net::NodeId;
use ftmpi_sim::{ProtoEvent, SimCtx, SimDuration, SimTime};

use crate::config::FtConfig;
use crate::image::WaveRecord;
use crate::mlog::Mlog;
use crate::server::{StoreError, StoredImage};
use crate::wave::{engine_mut, WaveCore, WaveEngine};

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
}

impl WaveCore {
    /// The damage ledger: record one damaged replica of `(wave, rank)` on
    /// `node`, whoever found it (restore planning, a fetch probe, a scrub
    /// pass). Counts the detection, charges it to the server, quarantines
    /// the server once it reaches the threshold (0 disables quarantine),
    /// and traces both. Re-detections of a replica nothing has repaired or
    /// dropped yet count again — matching the
    /// `FtStats::images_corrupt_detected` contract.
    fn record_damage(&mut self, sc: &SimCtx, wave: u64, rank: usize, node: NodeId) {
        self.stats.images_corrupt_detected += 1;
        sc.trace_proto(ProtoEvent::CorruptDetected {
            wave,
            rank,
            node: node.0 as u64,
        });
        let seen = self.store.note_corruption(node);
        let threshold = self.cfg.quarantine_threshold;
        if threshold > 0 && seen >= threshold && self.store.quarantine_server(node) {
            self.stats.servers_quarantined += 1;
            sc.trace_proto(ProtoEvent::Quarantine {
                node: node.0 as u64,
            });
        }
    }

    /// Verify every replica of one (wave, rank) slot against `expected`,
    /// recording each that fails; returns the damaged holders.
    fn detect_slot_damage(
        &mut self,
        sc: &SimCtx,
        wave: u64,
        rank: usize,
        expected: u64,
    ) -> Vec<NodeId> {
        let mut damaged = Vec::new();
        for node in self.store.locate_all(wave, rank) {
            if self
                .store
                .verify_replica(wave, rank, node, expected)
                .is_err()
            {
                self.record_damage(sc, wave, rank, node);
                damaged.push(node);
            }
        }
        damaged
    }
}

/// Pick the restore wave and account the rollback: the newest retained
/// committed wave whose server-fetched images all survive *with a
/// verifying digest*, else older retained waves, else scratch.
///
/// Verification is part of wave choice: a slot whose every replica fails
/// its digest blocks the candidate exactly like a slot the server failure
/// erased, so an all-copies-corrupt newest wave falls back to an older
/// retained one instead of committing a doomed fetch. Damage seen along
/// the way goes to the ledger; slots the fallback or the replica walk
/// salvages count as repairs.
fn plan_restore(core: &mut WaveCore, sc: &SimCtx, need_server: &[bool]) -> RestoreData {
    let needed = || (0..need_server.len()).filter(|&r| need_server[r]);
    let mut chosen: Option<WaveRecord> = None;
    let mut fallback_repairs = 0u64;
    for idx in (0..core.committed.len()).rev() {
        let rec = core.committed[idx].clone();
        let mut viable = true;
        let mut blocked_by_corruption = 0u64;
        for r in needed() {
            let expected = rec.images[r].digest(rec.wave, r);
            if core.store.has_intact_image(rec.wave, r, expected) {
                continue;
            }
            viable = false;
            if core.store.has_image(rec.wave, r) {
                // Replicas exist but every copy fails verification:
                // corruption, not server loss, blocked this wave here.
                blocked_by_corruption += 1;
                core.detect_slot_damage(sc, rec.wave, r, expected);
            }
        }
        if viable {
            // Damaged copies on the chosen wave are walked past by the
            // verified fetch: each affected slot is one repair.
            for r in needed() {
                let expected = rec.images[r].digest(rec.wave, r);
                let damaged = core.detect_slot_damage(sc, rec.wave, r, expected);
                core.stats.images_repaired += u64::from(!damaged.is_empty());
            }
            chosen = Some(rec);
            break;
        }
        fallback_repairs += blocked_by_corruption;
    }
    let WaveCore {
        committed,
        store,
        server_node_of,
        stats,
        ..
    } = core;
    if chosen.is_some() {
        // Slots salvaged by falling back past a corruption-blocked newer
        // wave: the older retained copy is the repair.
        stats.images_repaired += fallback_repairs;
    }
    let now = sc.now();
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
    }
}

/// The one kill entry: every rank kill and node death lands here, and the
/// installed engine decides what it costs.
///
/// * [`Mlog`] restarts each victim alone, in order (`Mlog::restart_rank`);
///   everyone else keeps computing.
/// * Every other engine rolls the whole job back once for the group (a
///   node death takes all its colocated tasks with it: the dispatcher sees
///   the node's heartbeats vanish together). With `detection_delay == 0`
///   that restart is immediate — the paper's model, bit for bit. With a
///   positive lag the victims' tasks die now (killed, marked
///   [`RankStatus::Dead`]) and the dispatcher only notices one heartbeat
///   timeout later. A victim already dead in that window is absorbed (one
///   task cannot die twice; the kill is a no-op if every victim was), and
///   a restart in between revives the victims and cancels the stale
///   detection via the epoch guard.
///
/// An empty group is a no-op — the death of a node hosting no ranks (a
/// dedicated server machine) is its colocated server failure alone — as is
/// a kill after job completion.
pub fn kill_ranks(sc: &SimCtx, world: &WorldRef, app: &AppFn, victims: &[usize], ft: &FtConfig) {
    let mut w = world.borrow_mut();
    if victims.is_empty() || w.rt.job_complete() {
        return;
    }
    if engine_mut::<Mlog>(&mut w).is_some() {
        for &victim in victims {
            Mlog::restart_rank(&mut w, sc, app, victim);
        }
        return;
    }
    if ft.detection_delay.is_zero() {
        restart_job(&mut w, sc, app, victims, ft);
        return;
    }
    let mut killed_any = false;
    for &victim in victims {
        let rank = &mut w.rt.ranks[victim];
        if rank.status == RankStatus::Dead {
            continue; // absorbed: the task is already dead
        }
        if let Some(pid) = rank.pid.take() {
            sc.kill(pid);
        }
        rank.status = RankStatus::Dead;
        killed_any = true;
    }
    if !killed_any {
        return;
    }
    let (handle, epoch) = (w.rt.world_handle(), w.rt.epoch);
    let at = sc.now() + ft.detection_delay;
    let (app, ft, victims) = (app.clone(), ft.clone(), victims.to_vec());
    sc.schedule(at, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        let mut w = world.borrow_mut();
        // A changed epoch: a restart already revived the victims.
        if w.rt.epoch == epoch {
            restart_job(&mut w, sc, &app, &victims, &ft);
        }
    });
}

/// Kill a checkpoint-server node (by index into the deployment's server
/// fleet): every image replica it stored becomes unavailable, partial
/// waves streaming to it abort, and later restarts fall back to older
/// retained waves or scratch. Only the coordinated engines model
/// checkpoint servers this way; in any other world the call is a no-op, as
/// is a kill after job completion. [`run_job`](crate::run_job) rejects a
/// plan naming an index outside the fleet before the run
/// ([`SpecError::BadServerKill`](crate::SpecError::BadServerKill)); a
/// direct call with one is a no-op.
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
    sc.trace_proto(ProtoEvent::ServerFail {
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
/// [`server_fail`]: a world without a coordinated engine, a completed job,
/// or a server holding nothing to damage. [`run_job`](crate::run_job)
/// rejects a plan naming a server outside the fleet or a rank outside the
/// job before the run
/// ([`SpecError`](crate::SpecError)); a direct call with one is a no-op.
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
        sc.trace_proto(ProtoEvent::Corrupt {
            wave,
            rank: r,
            node: node.0 as u64,
        });
    }
}

/// The dispatcher's global restart: fail the job (as if `victims`' tasks
/// were killed) and restore every rank from a committed wave, or from
/// scratch if none survives. The group only changes *which* ranks must
/// re-fetch their image from a server — coordinated checkpointing rolls
/// every rank back anyway.
///
/// An image fetch whose source server is unreachable (link down or
/// partitioned) does not deadlock the restart: the rank's fetch turns into
/// a probe chain on the bounded backoff ladder ([`FlowRetry::LADDER`]),
/// walking the replica list when a replica's ladder runs out, and
/// declaring the job fatally stuck only once every replica is
/// exhausted. With no active faults the probe path is never entered and
/// the restart is byte-for-byte the fault-free one.
///
/// No-op if the job already completed.
fn restart_job(w: &mut World, sc: &SimCtx, app: &AppFn, victims: &[usize], ft: &FtConfig) {
    if w.rt.job_complete() {
        return;
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
    sc.trace_proto(ProtoEvent::Restart { epoch });
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
    let restore = WaveEngine::of(w).map(|(engine, rt)| {
        engine.core.stats.restarts += 1;
        let data = plan_restore(&mut engine.core, sc, &need_server);
        engine.abort_wave(rt, sc, false);
        data
    });
    let wave = restore.as_ref().and_then(|d| d.wave.as_ref());

    // 3. Per-rank restore: reset runtime state, compute the time at which
    //    the rank's image is back in memory, schedule replay + respawn.
    // A server fetch whose source is currently unreachable cannot reserve
    // its transfer now — the rank joins `blocked` and a probe chain takes
    // over after the loop.
    let base = now + ft.restart_delay;
    let mut latest_ready = base;
    let mut blocked: Vec<BlockedFetch> = Vec::new();
    for (r, &from_server) in need_server.iter().enumerate() {
        let (skip, credit) = match wave {
            Some(rec) => (rec.images[r].ops_completed, rec.images[r].time_credit),
            None => (0, SimDuration::ZERO),
        };
        w.rt.ranks[r].reset_for_restart(skip, credit);
        let node = w.rt.placement.node_of(r);
        let ready: Option<SimTime> = match (wave, &restore) {
            (Some(rec), Some(data)) => {
                if from_server {
                    // A fetch is a round trip: the request must reach the
                    // server and the image must come back. A half-open cut
                    // in either direction blocks it — fetching across one
                    // would commit a restore whose acknowledgement path is
                    // dead.
                    let src = data.image_source[r];
                    if w.rt.net.reachable(src, node) && w.rt.net.reachable(node, src) {
                        // The planner picked this source under the same
                        // world borrow, digest-verified — record the
                        // consumption.
                        sc.trace_proto(ProtoEvent::RestoreImage {
                            wave: rec.wave,
                            rank: r,
                            node: src.0 as u64,
                        });
                        Some(w.rt.net.transfer(src, node, ft.image_bytes, base).delivered)
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
        if let Some(rec) = wave {
            for m in rec.images[r].pending.iter().chain(&rec.logs[r]) {
                w.rt.inject_restored(sc, m.clone());
            }
        }
        // Blocking protocol: "every message delayed in emission will be
        // sent again after the restart" — when the process resumes.
        let delayed_sends = wave
            .map(|rec| rec.delayed_sends[r].clone())
            .unwrap_or_default();
        let Some(ready) = ready else {
            blocked.push(BlockedFetch {
                rank: r,
                node,
                sources: restore
                    .as_ref()
                    .map(|d| d.image_sources[r].clone())
                    .unwrap_or_default(),
                delayed_sends,
                wave: wave.map_or(0, |rec| rec.wave),
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
        if let Some((engine, rt)) = WaveEngine::of(w) {
            engine.rearm(rt, sc, latest_ready + ft.period);
        }
        return;
    }
    let join = Rc::new(RefCell::new(FetchJoin {
        remaining: blocked.len(),
        latest_ready,
    }));
    for fetch in blocked {
        let probe = FetchProbe {
            handle: handle.clone(),
            epoch,
            fetch,
            src_idx: 0,
            attempt: 0,
            saw_corrupt: false,
            ft: ft.clone(),
            app: app.clone(),
            join: join.clone(),
        };
        schedule_fetch_probe(sc, probe, base);
    }
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

impl FetchProbe {
    /// Walk to the next replica with a fresh backoff ladder. Past the last
    /// one the restart is stuck for good: record why and stop the
    /// simulation — a job whose every image replica sits behind a
    /// partition that never heals (or is damaged) must terminate, not
    /// hang. Returns whether a replica is left to probe.
    fn next_replica(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, why: &str) -> bool {
        self.src_idx += 1;
        self.attempt = 0;
        if self.src_idx < self.fetch.sources.len() {
            return true;
        }
        rt.record_fatal(&format!(
            "restart of rank {}: every image replica {why}",
            self.fetch.rank
        ));
        sc.request_stop();
        false
    }
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
/// verification goes to the damage ledger and the chain walks to the next
/// replica immediately (no point retrying damaged bits). Unreachable →
/// back off exponentially; after the ladder's limit of failed probes move to
/// the next replica; after the last replica, fail the job
/// ([`FetchProbe::next_replica`]).
fn schedule_fetch_probe(sc: &SimCtx, mut p: FetchProbe, at: SimTime) {
    let lane = Some(flow_lane(p.fetch.node));
    sc.schedule_keyed(at, lane, move |sc| {
        let Some(world) = p.handle.upgrade() else {
            return;
        };
        let mut w = world.borrow_mut();
        if w.rt.epoch != p.epoch || w.rt.job_complete() {
            return; // a newer restart owns recovery now
        }
        // Only a coordinated engine's restore plan ever blocks a fetch.
        let Some((engine, rt)) = WaveEngine::of(&mut w) else {
            return;
        };
        let core = &mut engine.core;
        let (node, wave, rank) = (p.fetch.node, p.fetch.wave, p.fetch.rank);
        let source = p.fetch.sources.get(p.src_idx).copied();
        // Round-trip reachability: the fetch request goes rank → server,
        // the image comes back server → rank. A one-directional cut on
        // either leg keeps the fetch blocked (no double-fetch across a
        // half-open partition).
        let reachable =
            source.is_some_and(|s| rt.net.reachable(s, node) && rt.net.reachable(node, s));
        let Some(source) = source.filter(|_| reachable) else {
            rt.stats.link_retries += 1;
            // The backoff ladder restarts per replica: delay(0), delay(1),
            // … delay(limit-1), then the next source gets a fresh ladder.
            let ladder = FlowRetry::LADDER;
            let delay = ladder.delay(p.attempt);
            p.attempt += 1;
            if source.is_none() || ladder.limit.is_some_and(|limit| p.attempt >= limit) {
                core.stats.retries_exhausted += u64::from(source.is_some());
                if !p.next_replica(rt, sc, "unreachable after retries") {
                    return;
                }
            }
            schedule_fetch_probe(sc, p, sc.now() + delay);
            return;
        };
        // Verify-on-fetch: the replica must hash to the digest the wave
        // record implies before the restore commits to it.
        if let Err(err) = core
            .store
            .verify_replica(wave, rank, source, p.fetch.expected)
        {
            if matches!(err, StoreError::CorruptImage { .. }) {
                p.saw_corrupt = true;
                core.record_damage(sc, wave, rank, source);
            }
            // NoReplica: the holder dropped the copy after the restore was
            // planned (it died mid-walk) — walk on without blaming a disk.
            if p.next_replica(rt, sc, "corrupt, missing, or unreachable") {
                schedule_fetch_probe(sc, p, sc.now());
            }
            return;
        }
        if p.src_idx > 0 {
            core.stats.images_rerouted += 1;
            core.stats.replica_depth_max = core.stats.replica_depth_max.max(p.src_idx as u64);
        }
        // A walk past damaged bits to a verified copy is a repair.
        core.stats.images_repaired += u64::from(p.saw_corrupt);
        sc.trace_proto(ProtoEvent::RestoreImage {
            wave,
            rank,
            node: source.0 as u64,
        });
        let ready = rt
            .net
            .transfer(source, node, p.ft.image_bytes, sc.now())
            .delivered;
        schedule_respawn(
            sc,
            p.handle,
            p.epoch,
            rank,
            ready,
            p.fetch.delayed_sends,
            p.app,
        );
        let rearm_at = {
            let mut j = p.join.borrow_mut();
            j.remaining -= 1;
            j.latest_ready = j.latest_ready.max(ready);
            (j.remaining == 0).then_some(j.latest_ready)
        };
        if let Some(latest) = rearm_at {
            engine.rearm(rt, sc, latest + p.ft.period);
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

/// One scrub pass over the engine's retained waves, in deterministic store
/// order: every damaged replica goes to the ledger, and one bounded
/// re-replication flow starts over each damaged copy whose holder can
/// still take writes (not dead, not quarantined — including a quarantine
/// this very pass triggered) while some replica of the slot still
/// verifies. Otherwise the next restore's replica walk or retained-wave
/// fallback deals with it.
fn scrub_pass(w: &mut World, sc: &SimCtx) {
    let Some((engine, rt)) = WaveEngine::of(w) else {
        return;
    };
    let core = &mut engine.core;
    for idx in 0..core.committed.len() {
        let wave = core.committed[idx].wave;
        for rank in 0..core.committed[idx].images.len() {
            let expected = core.committed[idx].images[rank].digest(wave, rank);
            for node in core.detect_slot_damage(sc, wave, rank, expected) {
                if core.store.server_unplaceable(node) {
                    continue;
                }
                let Some(good) = core.store.locate_intact(wave, rank, expected) else {
                    continue;
                };
                let spec = FlowSpec {
                    src: good.server,
                    dst: node,
                    bytes: good.bytes,
                    chunk: core.cfg.chunk_bytes,
                    also_disk: false,
                };
                let bytes = good.bytes;
                start_flow_guarded(
                    rt,
                    sc,
                    spec,
                    // Target unreachable past the retry budget: surrender —
                    // the next tick re-detects and tries again.
                    |_, _| {},
                    move |w, sc, done| {
                        let copy = StoredImage {
                            server: node,
                            bytes,
                            stored_at: done,
                            digest: expected,
                        };
                        land_repair(w, sc, wave, rank, copy);
                    },
                );
            }
        }
    }
}

/// A scrub repair stream landed: overwrite the damaged replica of
/// `(wave, rank)` on `copy.server` — only if the slot is still retained,
/// still damaged (an earlier repair may have won), and its holder still
/// takes the write, all checked under the world borrow at completion time.
fn land_repair(w: &mut World, sc: &SimCtx, wave: u64, rank: usize, copy: StoredImage) {
    let node = copy.server;
    let recorded = WaveEngine::of(w).is_some_and(|(engine, _)| {
        let core = &mut engine.core;
        if !core.store.server_holds(wave, rank, node) {
            return false; // wave GC'd or the holder died mid-repair
        }
        if core
            .store
            .verify_replica(wave, rank, node, copy.digest)
            .is_ok()
        {
            return false; // an earlier repair already landed
        }
        let recorded = core.store.record_image(wave, rank, copy);
        core.stats.images_repaired += u64::from(recorded);
        recorded
    });
    if recorded {
        sc.trace_proto(ProtoEvent::Repair {
            wave,
            rank,
            node: node.0 as u64,
        });
        sc.trace_proto(ProtoEvent::ImageStore {
            wave,
            rank,
            node: node.0 as u64,
        });
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
///   node is declared failed and the job restarts once, correlated. A cut
///   that isolates only servers (no ranks on the far side) expires
///   without victims — the watchdog stands down and the stalled pushes
///   keep walking their retry ladders.
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
    let mut w = world.borrow_mut();
    w.rt.net
        .start_partition(name, nodes.iter().copied(), direction, tear);
    let Some(grace) = ft.partition_rollback_after else {
        return;
    };
    if engine_mut::<Mlog>(&mut w).is_some() {
        return;
    }
    let (handle, epoch) = (w.rt.world_handle(), w.rt.epoch);
    let name = name.to_string();
    let nodes = nodes.to_vec();
    let app = app.clone();
    let ft = ft.clone();
    sc.schedule(sc.now() + grace, move |sc| {
        let Some(world) = handle.upgrade() else {
            return;
        };
        let mut w = world.borrow_mut();
        if w.rt.job_complete() || w.rt.epoch != epoch {
            return;
        }
        // Healed inside the grace window: heartbeats were merely late. Zero
        // rollbacks — the epoch-guard analogue of the detection-delay
        // false-positive suppression.
        let expired = w.rt.net.partition_active(&name);
        if let Some((engine, _)) = WaveEngine::of(&mut w) {
            let stats = &mut engine.core.stats;
            stats.partitions_expired += u64::from(expired);
            stats.partitions_suppressed += u64::from(!expired);
        }
        if !expired {
            return;
        }
        let service_cut = nodes.contains(&service_node);
        let victims: Vec<usize> = (0..w.rt.size())
            .filter(|&r| nodes.contains(&w.rt.placement.node_of(r)) != service_cut)
            .collect();
        if !victims.is_empty() {
            restart_job(&mut w, sc, &app, &victims, &ft);
        }
    });
}
