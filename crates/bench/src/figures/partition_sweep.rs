//! Extension experiment — network partitions: how a temporary cut stresses
//! the fault-aware network layer. One compute node is split off from the
//! rest of the platform (servers, dispatcher, peers) mid-run, for a swept
//! duration straddling the heartbeat grace window
//! (`FtConfig::partition_rollback_after`). A cut shorter than the grace
//! heals before the watchdog fires: checkpoint pushes stall, retry with
//! capped exponential backoff (possibly rerouting to another replica
//! server), and *nobody rolls back* — the false positive is suppressed. A
//! cut that outlives the grace costs one correlated rollback of the
//! unreachable ranks. The table reports both regimes for both coordinated
//! protocols.

use std::sync::Arc;

use ftmpi_core::ProtocolChoice;
use ftmpi_nas::NasClass;
use ftmpi_net::{NetFaultPlan, NodeId};
use ftmpi_sim::{SimDuration, SimTime};

use crate::{
    baseline_spec, bt_workload, cluster_spec, print_table, proto_name, save_records, secs,
    HarnessArgs, MemoCache, Record,
};

/// Run the experiment (two phases: the failure-free baseline fixes the cut
/// time) and render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let nranks = 16;
    let wl = bt_workload(NasClass::A, nranks);
    let period = SimDuration::from_secs(15);
    let grace_s = 3.0;

    // Phase 1: failure-free baseline, so the cut lands mid-run and the
    // cost column has a reference completion time.
    let mut baseline = args.sweep(cache);
    baseline.add_spec(
        "partition/baseline",
        &wl.name,
        baseline_spec(|proto, period| cluster_spec(&wl, nranks, proto, 2, period)),
    );
    let base = baseline.run().pop().unwrap().expect("baseline");
    println!(
        "bt.A.16 failure-free baseline: {:.1} s",
        base.completion_secs()
    );

    let cut_at = SimTime::from_nanos((base.completion_secs() * 0.4 * 1e9) as u64);
    let durations_s: &[f64] = if args.fast {
        &[1.0, 6.0]
    } else {
        &[0.5, 1.0, 2.0, 6.0, 10.0]
    };

    let mut runner = args.sweep(cache);
    let mut plan = Vec::new();
    for &proto in &[ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        for &dur in durations_s {
            let mut spec = cluster_spec(&wl, nranks, proto, 2, period);
            spec.ft = spec.ft.with_partition_rollback_after_secs(grace_s);
            let heal = cut_at + SimDuration::from_secs_f64(dur);
            // Node 0 (hosting rank 0) splits off from servers, dispatcher
            // and every peer for `dur` seconds.
            spec.net_faults = NetFaultPlan::none().with_partition(
                format!("cut-{dur}"),
                vec![NodeId(0)],
                cut_at,
                Some(heal),
            );
            runner.add_spec(
                format!("partition/{}/dur{dur}", proto_name(proto)),
                &wl.name,
                spec,
            );
            plan.push((proto, dur));
        }
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((proto, dur), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect("partition run");
        rows.push(vec![
            proto_name(proto).into(),
            format!("{dur:.1}"),
            res.waves().to_string(),
            res.ft.waves_aborted.to_string(),
            res.rt.restarts.to_string(),
            res.ft.partitions_suppressed.to_string(),
            res.rt.link_retries.to_string(),
            res.ft.images_rerouted.to_string(),
            secs(res.completion_secs()),
            secs(res.completion_secs() - base.completion_secs()),
        ]);
        records.push(Record::from_result(
            "partition",
            &wl.name,
            proto,
            "tcp",
            "partition_secs",
            dur,
            &res,
        ));
    }
    print_table(
        &format!(
            "Partition sweep — bt.A.16, node 0 cut off at 40% of the run, {grace_s:.0} s grace"
        ),
        &[
            "proto",
            "cut(s)",
            "waves",
            "aborted",
            "restarts",
            "suppressed",
            "retries",
            "rerouted",
            "time(s)",
            "cost-vs-base(s)",
        ],
        &rows,
    );
    println!(
        "(suppressed = cuts healed inside the grace window: stalled heartbeats, zero rollbacks)"
    );
    save_records(args, "partition", &records);
}
