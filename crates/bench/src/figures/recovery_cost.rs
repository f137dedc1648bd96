//! Extension experiment — recovery cost: the paper validates that both
//! protocols restart from the last committed wave; here we measure what a
//! failure costs end-to-end for each protocol, and how the cost moves with
//! the checkpoint period (the conclusion's observation that the best period
//! tracks the system MTTF).

use std::sync::Arc;

use ftmpi_core::{FailurePlan, ProtocolChoice};
use ftmpi_nas::NasClass;
use ftmpi_sim::{SimDuration, SimTime};

use crate::{
    baseline_spec, bt_workload, cluster_spec, print_table, proto_name, save_records, secs,
    HarnessArgs, MemoCache, Record,
};

/// Run the experiment (two phases: baseline fixes the kill time) and
/// render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let nranks = 16;
    let wl = bt_workload(NasClass::A, nranks);

    // Phase 1: failure-free baseline; its completion time decides when the
    // phase-2 kill lands, so it must finish first.
    let mut baseline = args.sweep(cache);
    baseline.add_spec(
        "recovery/baseline",
        &wl.name,
        baseline_spec(|proto, period| cluster_spec(&wl, nranks, proto, 2, period)),
    );
    let base = baseline.run().pop().unwrap().expect("baseline");
    println!(
        "bt.A.16 failure-free baseline: {:.1} s",
        base.completion_secs()
    );

    let kill_at = SimTime::from_nanos((base.completion_secs() * 0.6 * 1e9) as u64);
    let periods: &[f64] = if args.fast {
        &[5.0, 15.0, 60.0]
    } else {
        &[2.0, 5.0, 10.0, 15.0, 30.0, 60.0]
    };

    let mut runner = args.sweep(cache);
    let mut plan = Vec::new();
    for &proto in &[
        ProtocolChoice::Pcl,
        ProtocolChoice::Vcl,
        ProtocolChoice::Dummy,
    ] {
        for &p in periods {
            if proto == ProtocolChoice::Dummy && p != periods[0] {
                continue; // period is meaningless without checkpoints
            }
            let build = |proto, period| cluster_spec(&wl, nranks, proto, 2, period);
            let mut spec = if proto == ProtocolChoice::Dummy {
                baseline_spec(build)
            } else {
                build(proto, SimDuration::from_secs_f64(p))
            };
            spec.failures = FailurePlan::kill_at(kill_at, nranks / 2);
            runner.add_spec(
                format!("recovery/{}/{p}", proto_name(proto)),
                &wl.name,
                spec,
            );
            plan.push((proto, p));
        }
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((proto, p), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect("recovery run");
        let lost = res.completion_secs() - base.completion_secs();
        rows.push(vec![
            proto_name(proto).into(),
            if proto == ProtocolChoice::Dummy {
                "-".into()
            } else {
                format!("{p:.0}")
            },
            res.waves().to_string(),
            secs(res.completion_secs()),
            secs(lost),
        ]);
        records.push(Record::from_result(
            "recovery", &wl.name, proto, "tcp", "period_s", p, &res,
        ));
    }
    print_table(
        "Recovery cost — bt.A.16, one task killed at 60% of the run",
        &["proto", "period(s)", "waves", "time(s)", "cost-vs-base(s)"],
        &rows,
    );
    println!("(dummy = restart from scratch: the whole prefix is lost)");
    save_records(args, "recovery", &records);
}
