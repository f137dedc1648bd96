//! Calibration probe: prints the simulated completion time, wave behaviour
//! and event count of the headline configurations, so the machine rates
//! and FT parameters recorded in EXPERIMENTS.md can be sanity-checked.

use std::sync::Arc;

use ftmpi_core::ProtocolChoice;
use ftmpi_nas::NasClass;
use ftmpi_net::SoftwareStack;
use ftmpi_sim::SimDuration;

use crate::{
    baseline_spec, bt_workload, cg_workload, cluster_spec, myrinet_spec, print_table, secs,
    HarnessArgs, MemoCache,
};

/// Run the probe and render the table. Every column is simulated, so a
/// memo hit prints exactly what a fresh run prints.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let mut runner = args.sweep(cache);
    let bt64 = bt_workload(NasClass::B, 64);
    let cg64 = cg_workload(NasClass::C, 64);
    for (label, spec) in [
        (
            "bt.B.64 nockpt",
            baseline_spec(|proto, period| cluster_spec(&bt64, 64, proto, 4, period)),
        ),
        (
            "bt.B.64 pcl/30s/4srv",
            cluster_spec(
                &bt64,
                64,
                ProtocolChoice::Pcl,
                4,
                SimDuration::from_secs(30),
            ),
        ),
        (
            "bt.B.64 vcl/30s/4srv",
            cluster_spec(
                &bt64,
                64,
                ProtocolChoice::Vcl,
                4,
                SimDuration::from_secs(30),
            ),
        ),
        (
            "cg.C.64 nockpt/nemesis",
            baseline_spec(|proto, period| {
                myrinet_spec(&cg64, 64, proto, SoftwareStack::NemesisGm, 2, period)
            }),
        ),
        (
            "cg.C.64 pcl/nemesis/30s",
            myrinet_spec(
                &cg64,
                64,
                ProtocolChoice::Pcl,
                SoftwareStack::NemesisGm,
                2,
                SimDuration::from_secs(30),
            ),
        ),
        (
            "cg.C.64 vcl/30s",
            myrinet_spec(
                &cg64,
                64,
                ProtocolChoice::Vcl,
                SoftwareStack::VclDaemon,
                2,
                SimDuration::from_secs(30),
            ),
        ),
    ] {
        let tag = if label.starts_with("bt") {
            &bt64.name
        } else {
            &cg64.name
        };
        runner.add_spec(label, tag, spec);
    }

    let mut rows = Vec::new();
    for outcome in runner.run_detailed() {
        let res = outcome.result.expect("calibration run");
        rows.push(vec![
            outcome.label,
            secs(res.completion_secs()),
            res.waves().to_string(),
            secs(
                res.ft
                    .mean_wave_duration()
                    .map(|d| d.as_secs_f64())
                    .unwrap_or(0.0),
            ),
            res.events.to_string(),
        ]);
    }
    print_table(
        "calibration",
        &["config", "T(s)", "waves", "wave(s)", "events"],
        &rows,
    );
}
