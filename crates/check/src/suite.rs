//! Checker-enabled probe suites.
//!
//! [`smoke_probes`] is the CI set: the storm campaign's 8-rank ring under
//! both protocols plus its logging-heavy two-rank Vcl stream.
//! [`figures_suite`] drives every figure-workload family from the bench
//! crate through the checker.
//! [`run_checked_with_churn`] runs each probe clean and, when it commits a
//! wave before completing, again with its last rank killed shortly after
//! the first commit. Every run goes through [`run_storm_traced`], so it
//! faces the invariant checker and the storm campaign's robustness
//! contract alike.

use ftmpi_core::{FailurePlan, JobSpec, ProtocolChoice};
use ftmpi_mpi::{app_fn, AppFn};
use ftmpi_sim::{ProtoEvent, SimDuration, SimTime, TraceKind};

use crate::storm::{ring_spec, run_storm_traced, stream_spec, StormOutcome};

/// Ring workload: each iteration sends to the right neighbour, receives
/// from the left, then computes (the BT-like probe app).
pub fn ring_app(iters: usize, bytes: u64, compute: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            let req = mpi.irecv(Some(left), Some(i as i32)).await;
            mpi.send(right, i as i32, bytes).await;
            mpi.wait(req).await;
            mpi.compute(compute);
        }
        mpi
    })
}

/// Producer/consumer stream: rank 0 fires eager sends back-to-back, rank 1
/// consumes slowly — a wave arriving mid-stream finds messages genuinely
/// in the channel (the Vcl logging probe).
pub fn stream_app(count: usize, bytes: u64, consume: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        match mpi.rank() {
            0 => {
                for i in 0..count {
                    mpi.send(1, (i % 1000) as i32, bytes).await;
                }
            }
            1 => {
                for i in 0..count {
                    mpi.recv(Some(0), Some((i % 1000) as i32)).await;
                    mpi.compute(consume);
                }
            }
            _ => {}
        }
        mpi
    })
}

/// The CI smoke probes: the storm campaign's two workloads, its ring under
/// both protocols and its logging-heavy Vcl stream. Churn (mid-run kill)
/// variants are derived per probe by [`run_checked_with_churn`].
pub fn smoke_probes() -> Vec<(String, JobSpec)> {
    vec![
        (
            "smoke.ring8.pcl".to_string(),
            ring_spec(ProtocolChoice::Pcl),
        ),
        (
            "smoke.ring8.vcl".to_string(),
            ring_spec(ProtocolChoice::Vcl),
        ),
        ("smoke.stream2.vcl".to_string(), stream_spec()),
    ]
}

/// The class-S figure workloads the smoke perturbation pass covers: the
/// first entry of the bench crate's fast probe set (4-rank BT.S on the
/// gigabit cluster under Pcl), every protocol's first Myrinet-stack
/// entry (Pcl rides raw TCP sockets, Vcl the logging daemon — different
/// contention shapes: software overheads dominate the wire), plus the
/// first grid-deployment entry, so the shared-NIC cluster, both
/// daemon-stack Myrinet variants, and the multi-cluster WAN topology all
/// face the perturbation seeds. Kept out of [`smoke_probes`] so the
/// invariant+churn pass stays quick; the perturbation pass runs them with
/// the same seeds as the synthetic probes so real figure schedules —
/// skeleton replay, placement, server traffic — are exercised too.
pub fn figure_smoke_probes() -> Vec<(String, JobSpec)> {
    let mut out: Vec<(String, JobSpec)> = Vec::new();
    for (name, spec) in ftmpi_bench::figure_probe_specs(true) {
        let myri_proto = name
            .contains(".myri.")
            .then(|| name.rsplit('.').next().unwrap_or("").to_string());
        let want = out.is_empty()
            || myri_proto.is_some_and(|p| {
                !out.iter()
                    .any(|(n, _)| n.contains(".myri.") && n.ends_with(&format!(".{p}")))
            })
            || (name.contains(".grid.") && !out.iter().any(|(n, _)| n.contains(".grid.")));
        if want {
            out.push((name, spec));
        }
    }
    assert!(
        out.iter().filter(|(n, _)| n.contains(".myri.")).count() >= 2,
        "bench fast probe set lost a protocol's Myrinet family"
    );
    assert!(
        out.iter().any(|(n, _)| n.contains(".grid.")),
        "bench fast probe set lost the grid family"
    );
    out
}

/// Run a probe, then — if it committed a wave before completing — re-run
/// it with its last rank killed between the first commit and completion,
/// checking both runs. The kill time is derived from the clean run, so the
/// churn variant works for workloads whose duration is not known a priori.
pub fn run_checked_with_churn(name: &str, spec: &JobSpec) -> Vec<StormOutcome> {
    let (clean, trace) = run_storm_traced(name, spec.clone());
    let first_commit = trace.iter().find_map(|te| match te.kind {
        TraceKind::Proto(ProtoEvent::WaveCommit { .. }) => Some(te.time.as_nanos()),
        _ => None,
    });
    let end_ns = clean.completion.as_nanos();
    let mut out = vec![clean];
    if let Some(commit_ns) = first_commit.filter(|&c| c < end_ns) {
        // Strike a quarter of the way from the commit to the end:
        // comfortably after the checkpoint, comfortably before the
        // finish line.
        let kill_ns = commit_ns + (end_ns - commit_ns) / 4;
        let mut churn = spec.clone();
        churn.failures = FailurePlan::kill_at(SimTime::from_nanos(kill_ns), spec.nranks - 1);
        out.push(run_storm_traced(&format!("{name}.kill"), churn).0);
    }
    out
}

/// Drive every figure-workload probe (both protocols, all platform
/// families) through the checker, with churn variants.
pub fn figures_suite(fast: bool) -> Vec<StormOutcome> {
    ftmpi_bench::figure_probe_specs(fast)
        .iter()
        .flat_map(|(name, spec)| run_checked_with_churn(name, spec))
        .collect()
}
