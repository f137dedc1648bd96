//! Fig. 5 — Impact of the number of checkpoint servers on BT class B for 64
//! processes with a 30 s period between checkpoints.
//!
//! Paper shape: Pcl's completion time decreases as checkpoint servers are
//! added (image transfers stop contending for bandwidth and the wave cycle
//! shortens) while Vcl's stays almost constant — the time saved on
//! transfers is spent running *more* waves (bottom panel).

use std::sync::Arc;

use ftmpi_core::ProtocolChoice;
use ftmpi_nas::NasClass;
use ftmpi_sim::SimDuration;

use crate::{
    baseline_spec, bt_workload, cluster_spec, print_table, proto_name, save_records, secs,
    HarnessArgs, MemoCache, Record,
};

/// Run the figure's sweep and render table + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let nranks = 64;
    let wl = bt_workload(NasClass::B, nranks);
    let period = SimDuration::from_secs(30);
    let servers: &[usize] = &[1, 2, 4, 8];

    let mut runner = args.sweep(cache);
    // (protocol, servers); None = no-checkpoint reference.
    let mut plan: Vec<(ProtocolChoice, Option<usize>)> = Vec::new();
    {
        let mut spec = baseline_spec(|proto, period| cluster_spec(&wl, nranks, proto, 1, period));
        spec.single_threshold = 32; // 64 procs over 32 dual-processor nodes
        runner.add_spec("fig5/nockpt", &wl.name, spec);
        plan.push((ProtocolChoice::Dummy, None));
    }
    for &proto in &[ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        for &s in servers {
            let mut spec = cluster_spec(&wl, nranks, proto, s, period);
            spec.single_threshold = 32;
            runner.add_spec(format!("fig5/{}x{s}", proto_name(proto)), &wl.name, spec);
            plan.push((proto, Some(s)));
        }
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((proto, servers), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect("fig5 run");
        match servers {
            None => {
                rows.push(vec![
                    "nockpt".into(),
                    "-".into(),
                    secs(res.completion_secs()),
                    "0".into(),
                    "-".into(),
                ]);
                records.push(Record::from_result(
                    "fig5", &wl.name, proto, "tcp", "servers", 0.0, &res,
                ));
            }
            Some(s) => {
                rows.push(vec![
                    proto_name(proto).into(),
                    s.to_string(),
                    secs(res.completion_secs()),
                    res.waves().to_string(),
                    secs(
                        res.ft
                            .mean_wave_duration()
                            .map(|d| d.as_secs_f64())
                            .unwrap_or(0.0),
                    ),
                ]);
                records.push(Record::from_result(
                    "fig5",
                    &wl.name,
                    proto,
                    if proto == ProtocolChoice::Vcl {
                        "vcl-daemon"
                    } else {
                        "tcp"
                    },
                    "servers",
                    s as f64,
                    &res,
                ));
            }
        }
    }
    print_table(
        "Fig.5 — BT.B/64, 30 s period: completion time and waves vs. #checkpoint servers",
        &["proto", "servers", "time(s)", "waves", "wave(s)"],
        &rows,
    );
    save_records(args, "fig5", &records);
}
