//! Tests for the uncoordinated message-logging protocol (Mlog): failure-free
//! overhead behaviour, independent checkpoint cycles, and single-rank
//! recovery correctness.

use std::sync::Arc;

use ftmpi_core::runner::build_deployment;
use ftmpi_core::{
    run_job, run_job_with, FailurePlan, FtConfig, JobSpec, ProtocolChoice, RunOptions,
};
use ftmpi_mpi::{app_fn, AppFn};
use ftmpi_net::{NetFaultPlan, NodeId, SoftwareStack};
use ftmpi_sim::{ProtoEvent, SimDuration, SimTime, TraceKind};

fn ring_app(iters: usize, bytes: u64, compute: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            mpi.shift(right, left, (i % 997) as i32, bytes).await;
            mpi.compute(compute);
        }
        mpi
    })
}

/// Rank 0 sends `bursts` bursts of `per_burst` back-to-back messages to
/// rank 1, and both compute for `gap` after each burst. A burst keeps a
/// dozen or more of rank 1's log writes in flight at once.
fn burst_app(bursts: usize, per_burst: usize, bytes: u64, gap: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        for b in 0..bursts {
            for i in 0..per_burst {
                let tag = ((b * per_burst + i) % 1000) as i32;
                if mpi.rank() == 0 {
                    mpi.send(1, tag, bytes).await;
                } else {
                    mpi.recv(Some(0), Some(tag)).await;
                }
            }
            mpi.compute(gap);
        }
        mpi
    })
}

fn base_spec(nranks: usize, app: AppFn) -> JobSpec {
    let mut spec = JobSpec::new(nranks, ProtocolChoice::Mlog, app);
    spec.servers = 2;
    spec.ft = FtConfig {
        period: SimDuration::from_secs(3),
        first_wave_delay: SimDuration::from_millis(500),
        image_bytes: 2 << 20,
        ..FtConfig::default()
    };
    spec.max_virtual_time = Some(ftmpi_sim::SimTime::from_nanos(300_000_000_000));
    spec
}

#[test]
fn logs_every_message_and_checkpoints_independently() {
    let res = run_job(base_spec(
        6,
        ring_app(100, 4_096, SimDuration::from_millis(100)),
    ))
    .expect("mlog run");
    // Every application message is logged before delivery.
    assert_eq!(res.ft.msgs_logged, res.rt.msgs_sent);
    assert!(res.ft.log_bytes_sent > 0);
    // Uncoordinated: per-rank checkpoints, several cycles over ~10 s.
    assert!(
        res.ft.waves_committed >= 6,
        "waves {}",
        res.ft.waves_committed
    );
    assert_eq!(res.leftover_unexpected, 0);
    assert_eq!(res.leftover_posted, 0);
}

#[test]
fn failure_free_overhead_exceeds_coordinated_checkpointing() {
    // §2: "the overhead induced during failure-free execution decreases the
    // performance in reliable environments" — message logging pays a
    // synchronous round-trip per message; coordinated checkpointing does
    // not touch the message path.
    let app = ring_app(300, 16_384, SimDuration::from_millis(20));
    let mk = |proto| {
        let mut spec = base_spec(6, Arc::clone(&app));
        spec.protocol = proto;
        // Same stack for a fair protocol-only comparison.
        spec.stack = Some(SoftwareStack::TcpSock);
        run_job(spec).expect("run")
    };
    let mlog = mk(ProtocolChoice::Mlog);
    let vcl = mk(ProtocolChoice::Vcl);
    assert!(
        mlog.completion_secs() > vcl.completion_secs() * 1.02,
        "logging should cost more than coordinated on a reliable cluster: {} vs {}",
        mlog.completion_secs(),
        vcl.completion_secs()
    );
}

#[test]
fn single_rank_recovery_does_not_roll_back_the_others() {
    let app = ring_app(120, 4_096, SimDuration::from_millis(80));
    let clean = run_job(base_spec(5, Arc::clone(&app))).expect("clean");
    let mut spec = base_spec(5, app);
    let kill = SimTime::from_nanos((clean.completion_secs() * 0.5 * 1e9) as u64);
    spec.failures = FailurePlan::kill_at(kill, 2);
    let failed = run_job(spec).expect("failed run");
    assert_eq!(failed.rt.restarts, 1);
    assert!(failed.completion_secs() >= clean.completion_secs());
    // Single-rank rollback: the whole-job slowdown stays well under a
    // coordinated restart's (which reruns everyone from the last wave).
    assert_eq!(failed.leftover_unexpected, 0);
    assert_eq!(failed.leftover_posted, 0);
}

#[test]
fn recovery_before_any_checkpoint_replays_the_whole_log() {
    let app = ring_app(60, 2_048, SimDuration::from_millis(50));
    let mut spec = base_spec(4, app);
    spec.ft.first_wave_delay = SimDuration::from_secs(1_000); // never checkpoints
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(1_200_000_000), 1);
    let res = run_job(spec).expect("run");
    assert_eq!(res.rt.restarts, 1);
    // The restart found no image: the victim replayed its entire log from
    // the beginning. (Its post-restart checkpoint cycle re-arms with the
    // normal period, so later waves may still commit.)
    assert_eq!(res.leftover_unexpected, 0);
    assert_eq!(res.leftover_posted, 0);
}

#[test]
fn survives_repeated_failures_of_different_ranks() {
    let app = ring_app(150, 2_048, SimDuration::from_millis(60));
    let mut spec = base_spec(5, app);
    spec.failures = FailurePlan {
        kills: vec![
            (SimTime::from_nanos(2_000_000_000), 1),
            (SimTime::from_nanos(5_000_000_000), 3),
            (SimTime::from_nanos(8_000_000_000), 1),
        ],
        ..FailurePlan::default()
    };
    let res = run_job(spec).expect("run");
    assert_eq!(res.rt.restarts, 3);
    assert_eq!(res.leftover_unexpected, 0);
    assert_eq!(res.leftover_posted, 0);
}

#[test]
fn node_kill_restarts_each_colocated_rank_alone() {
    let app = ring_app(120, 4_096, SimDuration::from_millis(80));
    let mut spec = base_spec(6, app);
    // Two ranks per node: node 0 hosts two of the six.
    spec.single_threshold = 4;
    let dep = build_deployment(&spec);
    let victims: Vec<String> = (0..spec.nranks)
        .filter(|&r| dep.placement.node_of(r) == NodeId(0))
        .map(|r| format!("spawn 'rank{r}'"))
        .collect();
    assert_eq!(victims.len(), 2, "node 0 must host two ranks");
    spec.failures = FailurePlan::node_kill_at(SimTime::from_nanos(2_500_000_000), 0);
    let opts = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let (res, trace) = run_job_with(spec, opts).expect("node-kill run");
    // One single-rank restart per colocated victim, none for anyone else.
    assert_eq!(res.rt.restarts, 2);
    assert_eq!(res.ft.restarts, 2);
    let respawned: Vec<&str> = trace
        .iter()
        .filter(|te| matches!(te.kind, TraceKind::Spawn) && te.time > SimTime::ZERO)
        .map(|te| te.detail.as_str())
        .collect();
    assert_eq!(respawned, victims);
    // No global rollback: the dispatcher's restart never ran.
    assert!(!trace
        .iter()
        .any(|te| matches!(te.kind, TraceKind::Proto(ProtoEvent::Restart { .. }))));
    assert_eq!(res.leftover_unexpected, 0);
    assert_eq!(res.leftover_posted, 0);
}

#[test]
fn partition_outliving_the_grace_never_fires_the_watchdog() {
    let app = ring_app(120, 4_096, SimDuration::from_millis(80));
    let mut spec = base_spec(5, app);
    spec.ft = spec.ft.with_partition_rollback_after_secs(1.0);
    // Rank 0's node is cut off for 4 s, four times the grace.
    spec.net_faults = NetFaultPlan::none().with_partition(
        "mlog-cut",
        vec![NodeId(0)],
        SimTime::from_nanos(2_000_000_000),
        Some(SimTime::from_nanos(6_000_000_000)),
    );
    let res = run_job(spec).expect("an Mlog job rides the partition out");
    // Mlog does not use the dispatcher's heartbeat model: nobody is
    // declared failed, however long the cut stands.
    assert_eq!(res.rt.restarts, 0);
    assert_eq!(res.ft.restarts, 0);
    assert_eq!(res.ft.partitions_expired, 0);
    assert_eq!(res.leftover_unexpected, 0);
    assert_eq!(res.leftover_posted, 0);
}

#[test]
fn mlog_runs_are_deterministic() {
    let mk = || {
        let app = ring_app(80, 2_048, SimDuration::from_millis(40));
        let mut spec = base_spec(4, app);
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(1_500_000_000), 0);
        let res = run_job(spec).expect("run");
        (
            res.completion.as_nanos(),
            res.ft.msgs_logged,
            res.rt.restarts,
        )
    };
    assert_eq!(mk(), mk());
}

#[test]
fn kills_with_log_writes_in_flight_replay_them_in_arrival_order() {
    // Each kill lands inside a burst, with 15 or 16 of rank 1's log writes
    // in flight: the first before rank 1 has an image, the others after.
    // The bursts go on after every restart, so later acknowledgements
    // reuse the slots the stale ones vacate. The pinned outcome was
    // recorded when acknowledgements were boxed closures.
    let app = burst_app(40, 25, 1_024, SimDuration::from_millis(100));
    let mut spec = base_spec(2, app);
    spec.failures = FailurePlan {
        kills: [300_800_000, 1_232_350_000, 2_434_430_000]
            .into_iter()
            .map(|ns| (SimTime::from_nanos(ns), 1))
            .collect(),
        ..FailurePlan::default()
    };
    let res = run_job(spec).expect("run");
    assert_eq!(res.completion.as_nanos(), 9_471_430_000);
    // 1,000 messages, 46 of them logged twice: re-injected at a restart.
    assert_eq!(res.rt.msgs_sent, 1_000);
    assert_eq!(res.ft.msgs_logged, 1_046);
    assert_eq!((res.rt.restarts, res.ft.restarts), (3, 3));
    assert_eq!(res.ft.waves_committed, 4);
    assert_eq!(res.leftover_unexpected, 0);
    assert_eq!(res.leftover_posted, 0);
}
