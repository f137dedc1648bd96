//! Randomized property tests over the core invariants (seeded, so every
//! run checks the same cases):
//!
//! * the simulation kernel is deterministic and time-monotonic for
//!   arbitrary sleep/compute schedules;
//! * the network model never violates per-channel FIFO for arbitrary
//!   message sequences;
//! * any ring workload under either protocol, killed at an arbitrary time,
//!   recovers to a clean completion (the recovery-cut correctness that the
//!   whole checkpointing design exists to guarantee);
//! * checkpointing never makes a job *faster* than its failure-free,
//!   checkpoint-free baseline.

use std::sync::Arc;

use ftmpi::ft::{run_job, FailurePlan, FtConfig, JobSpec, ProtocolChoice};
use ftmpi::mpi::{app_fn, AppFn};
use ftmpi::net::{LinkConfig, NetModel, NodeId, Topology};
use ftmpi::sim::schedule::StdRng;
use ftmpi::sim::{Sim, SimDuration, SimTime};

/// Ring workload used by the recovery properties.
fn ring_app(iters: usize, bytes: u64, compute_ms: u64) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            let req = mpi.irecv(Some(left), Some((i % 997) as i32)).await;
            mpi.send(right, (i % 997) as i32, bytes).await;
            mpi.wait(req).await;
            mpi.compute(SimDuration::from_millis(compute_ms));
        }
        mpi
    })
}

/// Arbitrary sleep schedules: final time equals the max per-process total,
/// and reruns are bit-identical.
#[test]
fn kernel_determinism() {
    let mut rng = StdRng::seed_from_u64(0xD5E7);
    for _case in 0..16 {
        let nprocs = rng.gen_range(1usize..8);
        let steps: Vec<Vec<u64>> = (0..nprocs)
            .map(|_| {
                let len = rng.gen_range(1usize..20);
                (0..len).map(|_| rng.gen_range(1u64..5_000)).collect()
            })
            .collect();
        let run = |steps: &Vec<Vec<u64>>| {
            let mut sim = Sim::new();
            for (i, plan) in steps.iter().enumerate() {
                let plan = plan.clone();
                sim.spawn(format!("p{i}"), move |mut ctx| async move {
                    for &d in &plan {
                        ctx.sleep(SimDuration::from_nanos(d)).await;
                    }
                });
            }
            let report = sim.run().unwrap();
            (report.final_time.as_nanos(), report.events_executed)
        };
        let a = run(&steps);
        let b = run(&steps);
        assert_eq!(a, b);
        let expect: u64 = steps.iter().map(|p| p.iter().sum::<u64>()).max().unwrap();
        assert_eq!(a.0, expect);
    }
}

/// Per-channel FIFO holds for arbitrary interleavings of small and large
/// messages across random node pairs.
#[test]
fn network_fifo() {
    const SIZES: [u64; 5] = [64, 512, 2048, 65_536, 1 << 20];
    let mut rng = StdRng::seed_from_u64(0xF1F0);
    for _case in 0..16 {
        let nmsgs = rng.gen_range(1usize..80);
        let mut net = NetModel::new(Topology::single_cluster(6, LinkConfig::gige()));
        let mut last: std::collections::HashMap<(usize, usize), SimTime> =
            std::collections::HashMap::new();
        let mut t = SimTime::ZERO;
        for _ in 0..nmsgs {
            let src = rng.gen_range(0usize..6);
            let dst = rng.gen_range(0usize..6);
            let bytes = SIZES[rng.gen_range(0usize..SIZES.len())];
            let d = net.transfer(NodeId(src), NodeId(dst), bytes, t);
            let floor = last.entry((src, dst)).or_insert(SimTime::ZERO);
            assert!(d.delivered >= *floor, "FIFO violated on {src}->{dst}");
            *floor = d.delivered;
            assert!(d.delivered >= t);
            t += SimDuration::from_micros(3);
        }
    }
}

/// Kill a ring job at an arbitrary time under either protocol: it must
/// complete with a clean cut (no stray or missing messages), and cost at
/// least as much as the failure-free run.
#[test]
fn recovery_is_clean_for_any_failure_time() {
    let mut rng = StdRng::seed_from_u64(0x5EC0);
    for case in 0..16 {
        let kill_ms = rng.gen_range(200u64..12_000);
        let victim = rng.gen_range(0usize..5);
        let use_vcl = rng.gen_bool(0.5);
        let period_ms = rng.gen_range(500u64..3_000);
        let proto = if use_vcl {
            ProtocolChoice::Vcl
        } else {
            ProtocolChoice::Pcl
        };
        let app = ring_app(80, 2_048, 50);
        let mk_spec = || {
            let mut spec = JobSpec::new(5, proto, Arc::clone(&app));
            spec.servers = 2;
            spec.ft = FtConfig {
                period: SimDuration::from_millis(period_ms),
                image_bytes: 2 << 20,
                ..FtConfig::default()
            };
            spec
        };
        let clean = run_job(mk_spec()).unwrap();
        let mut spec = mk_spec();
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(kill_ms * 1_000_000), victim);
        let failed = run_job(spec).unwrap();
        // The kill might land after completion; both outcomes must be clean.
        let ctx = format!("case {case}: kill {kill_ms} ms, victim {victim}, {proto:?}");
        assert_eq!(failed.leftover_unexpected, 0, "{ctx}");
        assert_eq!(failed.leftover_posted, 0, "{ctx}");
        if failed.rt.restarts == 1 {
            assert!(
                failed.completion_secs() >= clean.completion_secs() - 1e-9,
                "{ctx}"
            );
        }
    }
}

/// Two failures at arbitrary times also recover cleanly.
#[test]
fn double_failures_recover() {
    let mut rng = StdRng::seed_from_u64(0xD0B1);
    for case in 0..12 {
        let k1_ms = rng.gen_range(300u64..6_000);
        let gap_ms = rng.gen_range(1_500u64..6_000);
        let v1 = rng.gen_range(0usize..4);
        let v2 = rng.gen_range(0usize..4);
        let app = ring_app(60, 1_024, 40);
        let mut spec = JobSpec::new(4, ProtocolChoice::Pcl, app);
        spec.servers = 1;
        spec.ft = FtConfig {
            period: SimDuration::from_millis(900),
            image_bytes: 1 << 20,
            ..FtConfig::default()
        };
        spec.failures = FailurePlan {
            kills: vec![
                (SimTime::from_nanos(k1_ms * 1_000_000), v1),
                (SimTime::from_nanos((k1_ms + gap_ms) * 1_000_000), v2),
            ],
            ..FailurePlan::default()
        };
        let res = run_job(spec).unwrap();
        let ctx = format!(
            "case {case}: kills at {k1_ms}/{} ms of {v1}/{v2}",
            k1_ms + gap_ms
        );
        assert_eq!(res.leftover_unexpected, 0, "{ctx}");
        assert_eq!(res.leftover_posted, 0, "{ctx}");
    }
}

/// Checkpointing overhead is non-negative and bounded for a compute-heavy
/// workload (waves overlap computation).
#[test]
fn overhead_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0x0BED);
    for _case in 0..8 {
        let period_ms = rng.gen_range(800u64..5_000);
        let app = ring_app(40, 1_024, 100);
        let base = run_job(JobSpec::new(4, ProtocolChoice::Dummy, Arc::clone(&app))).unwrap();
        let mut spec = JobSpec::new(4, ProtocolChoice::Vcl, app);
        spec.ft = FtConfig {
            period: SimDuration::from_millis(period_ms),
            image_bytes: 1 << 20,
            ..FtConfig::default()
        };
        let ckpt = run_job(spec).unwrap();
        assert!(ckpt.completion_secs() >= base.completion_secs() - 1e-9);
        assert!(
            ckpt.completion_secs() < base.completion_secs() * 1.5,
            "non-blocking checkpointing cost exploded: {} vs {}",
            ckpt.completion_secs(),
            base.completion_secs()
        );
    }
}

/// The fused shift primitive survives arbitrary failure timings too: a cut
/// between a shift's send and receive halves must replay only the receive
/// (no duplicate, no loss).
#[test]
fn shift_recovery_is_clean() {
    let mut rng = StdRng::seed_from_u64(0x517F);
    for case in 0..12 {
        let kill_ms = rng.gen_range(200u64..10_000);
        let victim = rng.gen_range(0usize..4);
        let use_vcl = rng.gen_bool(0.5);
        let proto = if use_vcl {
            ProtocolChoice::Vcl
        } else {
            ProtocolChoice::Pcl
        };
        let app: AppFn = app_fn(|mut mpi| async move {
            let n = mpi.size();
            let right = (mpi.rank() + 1) % n;
            let left = (mpi.rank() + n - 1) % n;
            for lap in 0..70 {
                mpi.shift(right, left, lap % 997, 8_192).await;
                mpi.compute(SimDuration::from_millis(60));
            }
            mpi
        });
        let mut spec = JobSpec::new(4, proto, app);
        spec.servers = 2;
        spec.ft = FtConfig {
            period: SimDuration::from_millis(700),
            image_bytes: 2 << 20,
            ..FtConfig::default()
        };
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(kill_ms * 1_000_000), victim);
        let res = run_job(spec).unwrap();
        let ctx = format!("case {case}: kill {kill_ms} ms, victim {victim}, {proto:?}");
        assert_eq!(res.leftover_unexpected, 0, "{ctx}");
        assert_eq!(res.leftover_posted, 0, "{ctx}");
    }
}
