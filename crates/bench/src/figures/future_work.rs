//! The paper's stated future work, evaluated ahead of time:
//!
//! 1. **Vcl over Nemesis** — "We plan to integrate this protocol in the
//!    MPICH2-Nemesis framework in order to improve its performances and
//!    evaluate it on high speed networks." In the simulation this is just
//!    the non-blocking engine over the OS-bypass stack: it keeps Vcl's
//!    flat wave-cost curve while shedding the daemon's per-message copies.
//!
//! 2. **Failure-prediction triggers** — "Components detecting an
//!    increasing failure probability (e.g. through their CPU temperature
//!    probe) should also trigger a checkpoint wave": a proactive wave
//!    fired shortly before a (predicted) failure bounds the lost work to
//!    the prediction horizon instead of the checkpoint period.

use std::sync::Arc;

use ftmpi_core::{FailurePlan, ProtocolChoice};
use ftmpi_nas::NasClass;
use ftmpi_net::SoftwareStack;
use ftmpi_sim::{SimDuration, SimTime};

use crate::{
    baseline_spec, bt_workload, cg_workload, cluster_spec, myrinet_spec, print_table, save_records,
    secs, HarnessArgs, MemoCache, Record,
};

/// Run both future-work studies as one sweep and render tables + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let mut records = Vec::new();
    let mut runner = args.sweep(cache);

    // ---- Part 1: Vcl over Nemesis on the Myrinet CG benchmark (Fig. 7's
    // setting, adding the series the paper wished it had).
    let nranks = if args.fast { 16 } else { 64 };
    let class = if args.fast { NasClass::B } else { NasClass::C };
    let wl1 = cg_workload(class, nranks);
    let periods: &[f64] = if args.fast {
        &[f64::INFINITY, 15.0, 5.0]
    } else {
        &[f64::INFINITY, 30.0, 15.0, 10.0, 5.0]
    };
    let series: &[(&str, ProtocolChoice, SoftwareStack)] = &[
        ("pcl-nemesis", ProtocolChoice::Pcl, SoftwareStack::NemesisGm),
        ("vcl-daemon", ProtocolChoice::Vcl, SoftwareStack::VclDaemon),
        (
            "vcl-nemesis (future)",
            ProtocolChoice::Vcl,
            SoftwareStack::NemesisGm,
        ),
    ];
    let mut plan1 = Vec::new();
    for &(label, proto, stack) in series {
        for &p in periods {
            let build = |proto, period| myrinet_spec(&wl1, nranks, proto, stack, 2, period);
            let mut spec = if p.is_infinite() {
                baseline_spec(build)
            } else {
                build(proto, SimDuration::from_secs_f64(p))
            };
            spec.single_threshold = 32;
            let proto_eff = spec.protocol;
            runner.add_spec(format!("future/{label}/{p}"), &wl1.name, spec);
            plan1.push((label, proto_eff, p));
        }
    }

    // ---- Part 2: proactive wave triggered just before a predicted failure.
    let wl2 = bt_workload(NasClass::A, 16);
    let kill_s = 40.0;
    const CONFIGS: [(&str, ProtocolChoice, f64, Option<f64>); 4] = [
        ("pcl, 120 s period", ProtocolChoice::Pcl, 120.0, None),
        (
            "pcl, 120 s + predictor",
            ProtocolChoice::Pcl,
            120.0,
            Some(5.0),
        ),
        ("vcl, 120 s period", ProtocolChoice::Vcl, 120.0, None),
        (
            "vcl, 120 s + predictor",
            ProtocolChoice::Vcl,
            120.0,
            Some(5.0),
        ),
    ];
    for (label, proto, period_s, predict_lead) in CONFIGS {
        let mut spec = cluster_spec(&wl2, 16, proto, 2, SimDuration::from_secs_f64(period_s));
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos((kill_s * 1e9) as u64), 7);
        if let Some(lead) = predict_lead {
            let at = SimTime::from_nanos(((kill_s - lead) * 1e9) as u64);
            spec.wave_triggers = vec![at];
        }
        runner.add_spec(format!("future/proactive/{label}"), &wl2.name, spec);
    }

    let mut results = runner.run().into_iter();
    {
        let mut rows = Vec::new();
        for (label, proto_eff, p) in plan1 {
            let res = results.next().unwrap().expect(label);
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
                "future-vcl-nemesis",
                &wl1.name,
                proto_eff,
                label,
                "waves",
                res.waves() as f64,
                &res,
            ));
        }
        print_table(
            &format!("Future work 1 — Vcl over Nemesis ({}, Myrinet)", wl1.name),
            &["series", "period(s)", "waves", "time(s)"],
            &rows,
        );
        println!("(non-blocking + OS-bypass: flat in waves *and* low base — best of both)");
    }
    {
        let mut rows = Vec::new();
        for (label, proto, _, lead) in CONFIGS {
            let res = results.next().unwrap().expect("run");
            rows.push(vec![
                label.into(),
                res.waves().to_string(),
                secs(res.completion_secs()),
            ]);
            records.push(Record::from_result(
                "future-proactive",
                &wl2.name,
                proto,
                "tcp",
                "predictor",
                lead.unwrap_or(0.0),
                &res,
            ));
        }
        print_table(
            "Future work 2 — failure-prediction trigger (bt.A.16, kill at 40 s)",
            &["config", "waves", "time(s)"],
            &rows,
        );
        println!("(a proactive wave 5 s before the failure bounds the rollback)");
    }

    save_records(args, "future_work", &records);
}
