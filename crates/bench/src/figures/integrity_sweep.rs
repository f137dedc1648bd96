//! Extension experiment — stored-image integrity: how a rotting
//! checkpoint-server disk stresses the verify/scrub/quarantine machinery.
//! Server 0's disk silently corrupts stored replicas as a seeded renewal
//! process over the middle 60% of the run, with the mean time between
//! corruption events swept from rare to aggressive. A 5 s background
//! scrubber re-verifies retained waves and re-replicates damaged copies
//! from the surviving good replica; a server crossing the quarantine
//! threshold is dropped from placement. A rank kill at 70% of the
//! failure-free time then forces a restore through whatever the rot left
//! behind — verify-on-fetch walks past damaged copies, so the restart
//! must stay clean at every rate. The table reports both coordinated
//! protocols across the sweep.

use std::sync::Arc;

use ftmpi_core::{FailurePlan, ProtocolChoice, SilentCorruptionSpec};
use ftmpi_nas::NasClass;
use ftmpi_sim::{SimDuration, SimTime};

use crate::{
    baseline_spec, bt_workload, cluster_spec, print_table, proto_name, save_records, secs,
    HarnessArgs, MemoCache, Record,
};

/// Run the experiment (two phases: the failure-free baseline fixes the
/// rot window and the kill time) and render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let nranks = 16;
    let wl = bt_workload(NasClass::A, nranks);
    let period = SimDuration::from_secs(15);

    // Phase 1: failure-free baseline, so the rot window covers the same
    // fraction of every run and the cost column has a reference time.
    let mut baseline = args.sweep(cache);
    baseline.add_spec(
        "integrity/baseline",
        &wl.name,
        baseline_spec(|proto, period| cluster_spec(&wl, nranks, proto, 2, period)),
    );
    let base = baseline.run().pop().unwrap().expect("baseline");
    println!(
        "bt.A.16 failure-free baseline: {:.1} s",
        base.completion_secs()
    );

    let start = SimTime::from_nanos((base.completion_secs() * 0.2 * 1e9) as u64);
    let end = SimTime::from_nanos((base.completion_secs() * 0.8 * 1e9) as u64);
    let kill_at = SimTime::from_nanos((base.completion_secs() * 0.7 * 1e9) as u64);
    let mtbc_s: &[f64] = if args.fast {
        &[10.0, 2.0]
    } else {
        &[30.0, 10.0, 5.0, 2.0, 1.0]
    };

    let mut runner = args.sweep(cache);
    let mut plan = Vec::new();
    for &proto in &[ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        for &mtbc in mtbc_s {
            let mut spec = cluster_spec(&wl, nranks, proto, 2, period);
            // Two replicas so a damaged copy has a good sibling to repair
            // from; two retained waves so a fully-rotten newest wave still
            // has a legal fallback.
            spec.ft = spec
                .ft
                .with_replicas(2)
                .with_retained_waves(2)
                .with_scrub_interval_secs(5.0)
                .with_quarantine_threshold(8);
            spec.failures =
                FailurePlan::kill_at(kill_at, 0).with_silent_corruption(SilentCorruptionSpec {
                    server: 0,
                    mtbc: SimDuration::from_secs_f64(mtbc),
                    start,
                    end,
                    ranks: nranks,
                    seed: 29,
                });
            let events = spec.failures.expanded_corruptions().len();
            runner.add_spec(
                format!("integrity/{}/mtbc{mtbc}", proto_name(proto)),
                &wl.name,
                spec,
            );
            plan.push((proto, mtbc, events));
        }
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((proto, mtbc, events), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect("integrity run");
        rows.push(vec![
            proto_name(proto).into(),
            format!("{mtbc:.1}"),
            events.to_string(),
            res.waves().to_string(),
            res.ft.images_corrupt_detected.to_string(),
            res.ft.images_repaired.to_string(),
            res.ft.servers_quarantined.to_string(),
            res.rt.restarts.to_string(),
            res.ft.replica_depth_max.to_string(),
            secs(res.completion_secs()),
            secs(res.completion_secs() - base.completion_secs()),
        ]);
        records.push(Record::from_result(
            "integrity",
            &wl.name,
            proto,
            "tcp",
            "mtbc_secs",
            mtbc,
            &res,
        ));
    }
    print_table(
        &format!(
            "Integrity sweep — bt.A.16, server 0 rotting over the middle 60% of the run, \
             5 s scrub, quarantine after 8 hits, rank 0 killed at {:.0} s",
            kill_at.as_nanos() as f64 / 1e9
        ),
        &[
            "proto",
            "mtbc(s)",
            "events",
            "waves",
            "detected",
            "repaired",
            "quarantined",
            "restarts",
            "walk",
            "time(s)",
            "cost-vs-base(s)",
        ],
        &rows,
    );
    println!(
        "(every detected corruption is either repaired from a good sibling or walked \
         past on fetch; the restart stays clean at every rot rate)"
    );
    save_records(args, "integrity", &records);
}
