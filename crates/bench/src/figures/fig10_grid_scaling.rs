//! Fig. 10 — Impact of large scale on blocking checkpointing: BT class B at
//! a varying number of processes distributed over the grid; completion time
//! without checkpoints, with a 10 s wave period (the paper's 60 s, scaled
//! to our ≈10× shorter grid runs), and the number of waves.
//!
//! Paper shapes: BT.B does not scale on a grid deployment (it is a stress
//! test); the checkpoint-free execution slows at 529 processes (remote,
//! heterogeneous clusters join in), which gives the checkpointed execution
//! time for more waves — and since completion time is proportional to wave
//! count, the gap widens at the largest size. The Vcl implementation cannot
//! run at all at this scale (select() limit), as the paper reports.

use std::sync::Arc;

use ftmpi_core::{JobError, ProtocolChoice};
use ftmpi_nas::NasClass;
use ftmpi_sim::SimDuration;

use crate::{
    baseline_spec, bt_workload, grid_spec, print_table, save_records, secs, HarnessArgs, MemoCache,
    Record,
};

/// Run the figure's sweep and render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let sizes: &[usize] = if args.fast {
        &[100, 256, 400, 529]
    } else {
        &[100, 169, 256, 324, 400, 529]
    };
    // The paper uses 60 s between checkpoints; our grid runs are ≈10×
    // shorter (see fig9_grid400's note), so 10 s lands in the same
    // waves-per-run regime.
    let period = SimDuration::from_secs(10);

    let mut runner = args.sweep(cache);
    // The paper could not run Vcl beyond ~300 processes: demonstrate the
    // same failure mode. Unkeyed — errors are never memoized.
    {
        let wl = bt_workload(NasClass::B, 400);
        let mut spec = grid_spec(&wl, 400, ProtocolChoice::Vcl, period);
        spec.stack = None;
        runner.add("fig10/vcl-limit", spec);
    }
    for &n in sizes {
        let wl = bt_workload(NasClass::B, n);
        // At 529 ranks the grid only has room for 2 servers per cluster
        // (544 nodes total).
        let servers = if n > 500 { 2 } else { 4 };
        let mut base_spec = baseline_spec(|proto, period| grid_spec(&wl, n, proto, period));
        base_spec.servers = servers;
        runner.add_spec(format!("fig10/{n}/nockpt"), &wl.name, base_spec);
        let mut ckpt_spec = grid_spec(&wl, n, ProtocolChoice::Pcl, period);
        ckpt_spec.servers = servers;
        runner.add_spec(format!("fig10/{n}/pcl"), &wl.name, ckpt_spec);
    }

    let mut results = runner.run().into_iter();
    match results.next().unwrap() {
        Err(JobError::VclProcessLimit { requested, limit }) => println!(
            "vcl at {requested} processes: refused (select() multiplexing limit {limit}) — as in §5.4"
        ),
        other => panic!("expected Vcl scale failure, got {other:?}"),
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &n in sizes {
        let wl = bt_workload(NasClass::B, n);
        let base = results.next().unwrap().expect("baseline");
        let ckpt = results.next().unwrap().expect("pcl");
        rows.push(vec![
            n.to_string(),
            secs(base.completion_secs()),
            secs(ckpt.completion_secs()),
            ckpt.waves().to_string(),
        ]);
        records.push(Record::from_result(
            "fig10",
            &wl.name,
            ProtocolChoice::Dummy,
            "tcp-grid",
            "nprocs",
            n as f64,
            &base,
        ));
        records.push(Record::from_result(
            "fig10",
            &wl.name,
            ProtocolChoice::Pcl,
            "tcp-grid",
            "nprocs",
            n as f64,
            &ckpt,
        ));
    }
    print_table(
        "Fig.10 — BT.B on the grid vs. #processes (Pcl, 10 s period)",
        &["procs", "nockpt(s)", "ckpt10s(s)", "waves"],
        &rows,
    );
    save_records(args, "fig10", &records);
}
