//! Fig. 9 — Impact of checkpoint frequency on blocking checkpointing at
//! large scale: BT class B with 400 processes distributed over the grid,
//! each node using a checkpoint server local to its cluster.
//!
//! Paper shapes (left panel): as the time between checkpoints shrinks, the
//! number of completed waves grows and the completion time grows with it;
//! (right panel, same data re-keyed): even on a grid deployment, execution
//! time is linear in the number of checkpoint waves.
//!
//! Period scaling: the simulated BT.B/400 grid run is ≈10× shorter than
//! the paper's (the WAN pipeline is simulated with batched sweep stages —
//! see `ftmpi_nas::bt::MAX_SIM_STAGES`), so the sweep uses periods ≈10×
//! shorter than the paper's 30–480 s to land in the same waves-per-run
//! regime. The claims under test (waves ∝ frequency, time linear in
//! waves) are scale-free.

use std::sync::Arc;

use ftmpi_core::ProtocolChoice;
use ftmpi_nas::NasClass;
use ftmpi_sim::SimDuration;

use crate::{
    baseline_spec, bt_workload, grid_spec, print_table, save_records, secs, HarnessArgs, MemoCache,
    Record,
};

/// Run the figure's sweep and render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let nranks = 400;
    let wl = bt_workload(NasClass::B, nranks);
    let periods_s: Vec<f64> = if args.fast {
        vec![f64::INFINITY, 15.0, 5.0, 1.0]
    } else {
        vec![f64::INFINITY, 30.0, 15.0, 10.0, 5.0, 3.0, 1.0]
    };

    let mut runner = args.sweep(cache);
    let mut plan = Vec::new();
    for &p in &periods_s {
        let build = |proto, period| grid_spec(&wl, nranks, proto, period);
        let spec = if p.is_infinite() {
            baseline_spec(build)
        } else {
            build(ProtocolChoice::Pcl, SimDuration::from_secs_f64(p))
        };
        let proto = spec.protocol;
        runner.add_spec(format!("fig9/{p}"), &wl.name, spec);
        plan.push((proto, p));
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((proto, p), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect("fig9 run");
        rows.push(vec![
            if p.is_infinite() {
                "nockpt".into()
            } else {
                format!("{p:.0}")
            },
            res.waves().to_string(),
            secs(res.completion_secs()),
        ]);
        records.push(Record::from_result(
            "fig9",
            &wl.name,
            proto,
            "tcp-grid",
            "period_s",
            if p.is_infinite() { 0.0 } else { p },
            &res,
        ));
    }
    print_table(
        "Fig.9 — BT.B/400 on the grid (Pcl): period → waves → completion",
        &["period(s)", "waves", "time(s)"],
        &rows,
    );
    println!("(right panel = the same rows keyed by the waves column)");
    save_records(args, "fig9", &records);
}
