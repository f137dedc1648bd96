//! Fig. 8 — Impact of the size of the system for a varying number of
//! checkpoint waves over the high-speed network: CG class C at 4–64
//! processes, Pcl over Nemesis/GM.
//!
//! Paper shapes: every size's completion time grows linearly with the
//! number of waves with approximately the same slope (the checkpoint cost
//! is not sensitive to the process count up to these sizes), and the 32-
//! and 64-process curves nearly coincide because CG.C is I/O bound and the
//! 64-process deployment shares each node's NIC between two ranks.

use std::sync::Arc;

use ftmpi_core::ProtocolChoice;
use ftmpi_nas::NasClass;
use ftmpi_net::SoftwareStack;
use ftmpi_sim::SimDuration;

use crate::{
    baseline_spec, cg_workload, myrinet_spec, print_table, save_records, secs, HarnessArgs,
    MemoCache, Record,
};

/// Run the figure's sweep and render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let sizes: &[usize] = if args.fast {
        &[4, 16, 32, 64]
    } else {
        &[4, 8, 16, 32, 64]
    };
    let periods_s: Vec<f64> = if args.fast {
        vec![f64::INFINITY, 20.0, 5.0]
    } else {
        vec![f64::INFINITY, 60.0, 20.0, 10.0, 5.0]
    };

    let mut runner = args.sweep(cache);
    let mut plan = Vec::new();
    for &n in sizes {
        let wl = cg_workload(NasClass::C, n);
        for &p in &periods_s {
            let build =
                |proto, period| myrinet_spec(&wl, n, proto, SoftwareStack::NemesisGm, 2, period);
            let mut spec = if p.is_infinite() {
                baseline_spec(build)
            } else {
                build(ProtocolChoice::Pcl, SimDuration::from_secs_f64(p))
            };
            spec.single_threshold = 32; // 64 procs → two per node
            let proto = spec.protocol;
            runner.add_spec(format!("fig8/{n}/{p}"), &wl.name, spec);
            plan.push((wl.name.clone(), n, proto, p));
        }
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((wl_name, n, proto, p), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect("fig8 run");
        rows.push(vec![
            n.to_string(),
            if p.is_infinite() {
                "-".into()
            } else {
                format!("{p:.0}")
            },
            res.waves().to_string(),
            secs(res.completion_secs()),
        ]);
        records.push(Record::from_result(
            "fig8",
            &wl_name,
            proto,
            "pcl-nemesis",
            "waves",
            res.waves() as f64,
            &res,
        ));
    }
    print_table(
        "Fig.8 — CG.C at 4..64 procs over Nemesis/GM: completion vs. waves",
        &["procs", "period(s)", "waves", "time(s)"],
        &rows,
    );
    save_records(args, "fig8", &records);
}
