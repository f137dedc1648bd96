//! End-to-end checker tests: clean and churn runs must satisfy every
//! invariant, hand-corrupted traces must be rejected with the specific
//! violation the corruption plants, and perturbed schedules must reproduce
//! the baseline fingerprint.

use std::collections::{BTreeMap, BTreeSet};

use ftmpi_check::{
    check_trace, parse_mined_artifact, perturbation_check, run_checked_with_churn, smoke_probes,
    Violation,
};
use ftmpi_core::{run_job_with, JobSpec, ProtocolChoice, RunOptions};
use ftmpi_sim::{ProtoEvent, TraceEvent, TraceKind};

fn spec_named(name: &str) -> JobSpec {
    smoke_probes()
        .into_iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no smoke probe named {name}"))
        .1
}

/// Run a smoke probe with tracing and return what the checker needs.
fn traced(name: &str) -> (ProtocolChoice, usize, Vec<TraceEvent>) {
    let spec = spec_named(name);
    let (protocol, nranks) = (spec.protocol, spec.nranks);
    let (_, trace) = run_job_with(
        spec,
        RunOptions {
            trace: true,
            ..RunOptions::default()
        },
    )
    .expect("smoke probe runs clean");
    (protocol, nranks, trace)
}

#[test]
fn clean_and_churn_probes_satisfy_all_invariants() {
    for (name, spec) in smoke_probes() {
        let outcomes = run_checked_with_churn(&name, &spec);
        assert!(!outcomes.is_empty());
        for o in &outcomes {
            assert!(o.ok(), "{}: {:?} {:?}", o.name, o.report, o.failures);
            let report = o.report.as_ref().expect("the probe ran");
            assert!(report.waves_checked > 0, "{} verified no waves", o.name);
        }
        if name.contains("ring8") {
            // The ring probes run long enough for a derived mid-wave kill;
            // the churn variant must actually exercise a restart.
            assert_eq!(outcomes.len(), 2, "{name} produced no churn variant");
            assert!(
                outcomes[1].restarts >= 1,
                "{}.kill performed no restart",
                name
            );
        }
    }
}

#[test]
fn dropped_marker_is_rejected() {
    let (protocol, nranks, mut trace) = traced("smoke.ring8.pcl");
    assert!(check_trace(protocol, nranks, &trace).ok());
    let pos = trace
        .iter()
        .position(|te| matches!(te.kind, TraceKind::Proto(ProtoEvent::MarkerRecv { .. })))
        .expect("trace records marker receptions");
    trace.remove(pos);
    let report = check_trace(protocol, nranks, &trace);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MarkerMismatch { recvs: 0, .. })),
        "dropped marker not detected: {:?}",
        report.violations
    );
}

#[test]
fn duplicated_delivery_is_rejected() {
    let (protocol, nranks, mut trace) = traced("smoke.ring8.pcl");
    let pos = trace
        .iter()
        .position(|te| matches!(te.kind, TraceKind::Proto(ProtoEvent::Deliver { .. })))
        .expect("trace records deliveries");
    let dup = trace[pos].clone();
    trace.insert(pos + 1, dup);
    let report = check_trace(protocol, nranks, &trace);
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::DuplicatedDelivery { .. } | Violation::FifoMismatch { .. }
        )),
        "duplicated seqno not detected: {:?}",
        report.violations
    );
}

#[test]
fn dropped_vcl_log_entry_is_rejected() {
    let (protocol, nranks, mut trace) = traced("smoke.stream2.vcl");
    assert!(check_trace(protocol, nranks, &trace).ok());
    let committed: BTreeSet<u64> = trace
        .iter()
        .filter_map(|te| match te.kind {
            TraceKind::Proto(ProtoEvent::WaveCommit { wave }) => Some(wave),
            _ => None,
        })
        .collect();
    let pos = trace
        .iter()
        .position(|te| {
            matches!(te.kind,
                TraceKind::Proto(ProtoEvent::LogMsg { wave, .. }) if committed.contains(&wave))
        })
        .expect("stream probe logs in-transit messages for a committed wave");
    trace.remove(pos);
    let report = check_trace(protocol, nranks, &trace);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LogMismatch { .. })),
        "dropped log entry not detected: {:?}",
        report.violations
    );
}

#[test]
fn orphan_message_is_rejected() {
    // Pcl drains channels before forking, so every post-fork delivery pairs
    // with a post-fork send — moving one back across the destination's fork
    // plants a textbook orphan without disturbing any other invariant.
    let (protocol, nranks, mut trace) = traced("smoke.ring8.pcl");
    assert!(check_trace(protocol, nranks, &trace).ok());

    type Chan = (usize, usize);
    let mut forks: Vec<Option<(usize, usize)>> = vec![None; nranks]; // (proto idx, vec pos)
    let mut sends: BTreeMap<Chan, Vec<u64>> = BTreeMap::new(); // proto idx per position
    let mut send_idx: BTreeMap<Chan, Vec<usize>> = BTreeMap::new();
    let mut delivers: BTreeMap<Chan, Vec<(usize, usize)>> = BTreeMap::new(); // (proto idx, vec pos)
    let mut pidx = 0usize;
    for (vp, te) in trace.iter().enumerate() {
        if let TraceKind::Proto(ev) = te.kind {
            let i = pidx;
            pidx += 1;
            match ev {
                ProtoEvent::Fork { wave: 1, rank, .. } => {
                    forks[rank].get_or_insert((i, vp));
                }
                ProtoEvent::Send { src, dst, seq, .. } => {
                    sends.entry((src, dst)).or_default().push(seq);
                    send_idx.entry((src, dst)).or_default().push(i);
                }
                ProtoEvent::Deliver { src, dst, .. } => {
                    delivers.entry((src, dst)).or_default().push((i, vp));
                }
                _ => {}
            }
        }
    }

    // Find a channel's first post-fork delivery whose paired send is also
    // post-fork, and move it to just before the destination's fork.
    let mut moved = false;
    'outer: for (&(src, dst), dvec) in &delivers {
        let (Some((fs, _)), Some((fd, fork_vp))) = (forks[src], forks[dst]) else {
            continue;
        };
        let sidx = &send_idx[&(src, dst)];
        for (k, &(didx, dvp)) in dvec.iter().enumerate() {
            if didx > fd {
                if sidx.get(k).is_some_and(|&s| s > fs) {
                    let ev = trace.remove(dvp);
                    trace.insert(fork_vp, ev);
                    moved = true;
                }
                continue 'outer; // only the first post-fork delivery is safe
            }
        }
    }
    assert!(moved, "no post-fork send/deliver pair found for wave 1");

    let report = check_trace(protocol, nranks, &trace);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OrphanMessage { .. })),
        "planted orphan not detected: {:?}",
        report.violations
    );
}

#[test]
fn perturbed_schedules_reproduce_the_baseline_fingerprint() {
    for probe in ["smoke.ring8.pcl", "smoke.ring8.vcl"] {
        let report = perturbation_check(&spec_named(probe), &[11, 12345]).expect("probe runs");
        assert!(
            report.ok(),
            "{probe}: divergent seeds {:?}",
            report.divergent()
        );
    }
}

#[test]
fn rot_over_an_earlier_flip_keeps_the_replica_damaged() {
    // A mined genome: a whole-server flip damages rank 0's wave-1 replica
    // on server 0 at 2.6 s, and a rotting disk hits the same replica again
    // at 4.516 s. A second flip must not restore the digest, or the 6.6 s
    // restart would consume bits the trace records as damaged.
    let (genome, _) = parse_mined_artifact(
        "proto=pcl\n\
         replicas=2\n\
         genes=rot@2000000000+14700000000:s0:m900000000:x23;\
         kill@6600000000:r0;corrupt@2600000000:s0:all\n\
         kind=invariant\n",
    )
    .expect("reproducer parses");
    let spec = genome.build_spec();
    let (protocol, nranks) = (spec.protocol, spec.nranks);
    let (res, trace) = run_job_with(
        spec,
        RunOptions {
            trace: true,
            ..RunOptions::default()
        },
    )
    .expect("mined genome runs");
    assert!(res.rt.restarts >= 1, "the kill must restart the job");
    let report = check_trace(protocol, nranks, &trace);
    assert!(report.ok(), "{:?}", report.violations);
}
