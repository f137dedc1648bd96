//! Fig. 7 — Impact of the number of checkpoint waves over a high-speed
//! network: CG class C on 64 processes, 32-node Myrinet2000 cluster, two
//! checkpoint servers.
//!
//! Series (as in the paper): Pcl over the TCP sock channel (Ethernet
//! emulation on Myrinet), Vcl (TCP + communication daemon), and Pcl over
//! Nemesis/GM (OS-bypass). Paper shapes: both Pcl variants grow linearly
//! with the number of waves; Vcl is insensitive to wave count but starts
//! from a much higher base — CG is latency-bound and every message pays the
//! daemon's copies — so Vcl only wins at very high checkpoint frequencies
//! (≲15 s periods against Nemesis).

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
    let nranks = 64;
    let wl = cg_workload(NasClass::C, nranks);
    // Sweep the timeout to obtain varying wave counts, as the paper did.
    let periods_s: Vec<f64> = if args.fast {
        vec![f64::INFINITY, 15.0, 5.0]
    } else {
        vec![f64::INFINITY, 60.0, 30.0, 15.0, 10.0, 5.0, 3.0]
    };
    let series: &[(&str, ProtocolChoice, SoftwareStack)] = &[
        ("pcl-socket", ProtocolChoice::Pcl, SoftwareStack::TcpSock),
        ("vcl", ProtocolChoice::Vcl, SoftwareStack::VclDaemon),
        ("pcl-nemesis", ProtocolChoice::Pcl, SoftwareStack::NemesisGm),
    ];

    let mut runner = args.sweep(cache);
    let mut plan = Vec::new();
    for &(label, proto, stack) in series {
        for &p in &periods_s {
            let build = |proto, period| myrinet_spec(&wl, nranks, proto, stack, 2, period);
            let mut spec = if p.is_infinite() {
                baseline_spec(build)
            } else {
                build(proto, SimDuration::from_secs_f64(p))
            };
            spec.single_threshold = 32; // 64 procs over 32 dual nodes
            let proto_eff = spec.protocol;
            runner.add_spec(format!("fig7/{label}/{p}"), &wl.name, spec);
            plan.push((label, proto_eff, p));
        }
    }

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ((label, proto_eff, p), result) in plan.into_iter().zip(runner.run()) {
        let res = result.expect(label);
        rows.push(vec![
            label.into(),
            if p.is_infinite() {
                "-".into()
            } else {
                format!("{p:.0}")
            },
            res.waves().to_string(),
            secs(res.completion_secs()),
        ]);
        records.push(Record::from_result(
            "fig7",
            &wl.name,
            proto_eff,
            label,
            "waves",
            res.waves() as f64,
            &res,
        ));
    }
    print_table(
        "Fig.7 — CG.C/64 on Myrinet: completion time vs. checkpoint waves",
        &["series", "period(s)", "waves", "time(s)"],
        &rows,
    );
    save_records(args, "fig7", &records);
}
