//! Extension experiment — flapping links: how an unstable (rather than
//! cleanly cut) checkpoint path stresses the retry machinery. The link
//! from rank 0's node to its primary checkpoint server alternates seeded
//! up/down intervals for the middle 60% of the run — a renewal process
//! with a fixed 5 s mean up time and a swept mean down time. Short outages
//! ride under the retry ladder's first rungs and cost almost nothing;
//! outages approaching the ladder's span force reroutes to the other
//! server or surrender the wave. Unlike a partition the watchdog never
//! arms: a flap is transport noise, not a suspected node death, so nobody
//! ever rolls back. The table reports both coordinated protocols across
//! the sweep.

use std::sync::Arc;

use ftmpi_core::ProtocolChoice;
use ftmpi_nas::NasClass;
use ftmpi_net::{LinkFlapSpec, NetFaultPlan, NodeId};
use ftmpi_sim::{SimDuration, SimTime};

use crate::{
    baseline_spec, bt_workload, cluster_spec, print_table, proto_name, save_records, secs,
    HarnessArgs, MemoCache, Record,
};

/// Run the experiment (two phases: the failure-free baseline fixes the
/// flap window) and render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let nranks = 16;
    let wl = bt_workload(NasClass::A, nranks);
    let period = SimDuration::from_secs(15);
    let mttf_s = 5.0;

    // Phase 1: failure-free baseline, so the flap window covers the same
    // fraction of every run and the cost column has a reference time.
    let mut baseline = args.sweep(cache);
    baseline.add_spec(
        "flap/baseline",
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
    let mttr_s: &[f64] = if args.fast {
        &[0.5, 2.0]
    } else {
        &[0.1, 0.5, 1.0, 2.0, 5.0]
    };

    let mut runner = args.sweep(cache);
    let mut plan = Vec::new();
    for &proto in &[ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        for &mttr in mttr_s {
            let mut spec = cluster_spec(&wl, nranks, proto, 2, period);
            // Rank 0's push path to the first checkpoint server flaps;
            // ranks occupy nodes 0..nranks, servers come right after.
            spec.net_faults = NetFaultPlan::none().with_link_flap(LinkFlapSpec {
                from: NodeId(0),
                to: NodeId(nranks),
                start,
                end,
                mttf: SimDuration::from_secs_f64(mttf_s),
                mttr: SimDuration::from_secs_f64(mttr),
                seed: 17,
            });
            let transitions = spec.net_faults.transition_count();
            runner.add_spec(
                format!("flap/{}/mttr{mttr}", proto_name(proto)),
                &wl.name,
                spec,
            );
            plan.push((proto, mttr, transitions));
        }
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((proto, mttr, transitions), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect("flap run");
        rows.push(vec![
            proto_name(proto).into(),
            format!("{mttr:.1}"),
            transitions.to_string(),
            res.waves().to_string(),
            res.ft.waves_aborted.to_string(),
            res.rt.restarts.to_string(),
            res.rt.link_retries.to_string(),
            res.ft.retries_exhausted.to_string(),
            res.ft.images_rerouted.to_string(),
            secs(res.completion_secs()),
            secs(res.completion_secs() - base.completion_secs()),
        ]);
        records.push(Record::from_result(
            "flap",
            &wl.name,
            proto,
            "tcp",
            "mttr_secs",
            mttr,
            &res,
        ));
    }
    print_table(
        &format!(
            "Flap sweep — bt.A.16, rank 0's push link flapping over the middle 60% of the run, \
             {mttf_s:.0} s mean up time"
        ),
        &[
            "proto",
            "mttr(s)",
            "transitions",
            "waves",
            "aborted",
            "restarts",
            "retries",
            "exhausted",
            "rerouted",
            "time(s)",
            "cost-vs-base(s)",
        ],
        &rows,
    );
    println!(
        "(a flap never arms the partition watchdog: retries and reroutes absorb it, \
         nobody rolls back)"
    );
    save_records(args, "flap", &records);
}
