//! Extension experiment — failure storms: how detection latency amplifies
//! the cost of a failure. The paper assumes the runtime notices a dead
//! task instantly; real fault detectors are heartbeat-based, so between
//! the crash and the rollback every surviving rank keeps computing work
//! that the restart will discard. We sweep the detection lag for both
//! protocols with one mid-run kill and report the completion time and the
//! lost-work accounting (time between the restored wave's commit and the
//! rollback).

use std::sync::Arc;

use ftmpi_core::{FailurePlan, ProtocolChoice};
use ftmpi_nas::NasClass;
use ftmpi_sim::{SimDuration, SimTime};

use crate::{
    baseline_spec, bt_workload, cluster_spec, print_table, proto_name, save_records, secs,
    HarnessArgs, MemoCache, Record,
};

/// Run the experiment (two phases: the failure-free baseline fixes the
/// kill time) and render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let nranks = 16;
    let wl = bt_workload(NasClass::A, nranks);
    let period = SimDuration::from_secs(15);

    // Phase 1: failure-free baseline, so the kill lands mid-run and the
    // lost-work column has a reference completion time.
    let mut baseline = args.sweep(cache);
    baseline.add_spec(
        "storms/baseline",
        &wl.name,
        baseline_spec(|proto, period| cluster_spec(&wl, nranks, proto, 2, period)),
    );
    let base = baseline.run().pop().unwrap().expect("baseline");
    println!(
        "bt.A.16 failure-free baseline: {:.1} s",
        base.completion_secs()
    );

    let kill_at = SimTime::from_nanos((base.completion_secs() * 0.6 * 1e9) as u64);
    let lags_s: &[f64] = if args.fast {
        &[0.0, 2.0, 5.0]
    } else {
        &[0.0, 0.5, 2.0, 5.0, 10.0]
    };

    let mut runner = args.sweep(cache);
    let mut plan = Vec::new();
    for &proto in &[ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        for &lag in lags_s {
            let mut spec = cluster_spec(&wl, nranks, proto, 2, period);
            spec.failures = FailurePlan::kill_at(kill_at, nranks / 2);
            spec.ft = spec.ft.with_detection_delay_secs(lag);
            runner.add_spec(
                format!("storms/{}/lag{lag}", proto_name(proto)),
                &wl.name,
                spec,
            );
            plan.push((proto, lag));
        }
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((proto, lag), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect("storm run");
        rows.push(vec![
            proto_name(proto).into(),
            format!("{lag:.1}"),
            res.waves().to_string(),
            res.rt.restarts.to_string(),
            secs(res.ft.lost_work_secs()),
            secs(res.completion_secs()),
            secs(res.completion_secs() - base.completion_secs()),
        ]);
        records.push(Record::from_result(
            "storms",
            &wl.name,
            proto,
            "tcp",
            "detection_lag_s",
            lag,
            &res,
        ));
    }
    print_table(
        "Failure storms — bt.A.16, one kill at 60% of the run, detection lag swept",
        &[
            "proto",
            "lag(s)",
            "waves",
            "restarts",
            "lost-work(s)",
            "time(s)",
            "cost-vs-base(s)",
        ],
        &rows,
    );
    println!("(lost-work = virtual time between the restored wave's commit and the rollback)");
    save_records(args, "storms", &records);
}
