//! §2 comparison — message logging vs. coordinated checkpointing.
//!
//! The paper motivates coordinated checkpointing by noting that message
//! logging's "overhead induced during failure-free execution decreases the
//! performance in reliable environments, such as clusters", while its
//! advantage is cheap recovery (only the failed rank rolls back). This
//! bench quantifies both sides of that trade-off in one table:
//!
//! * failure-free completion time (logging pays a synchronous log
//!   round-trip per message — worst for latency-bound CG);
//! * completion time with one mid-run failure (coordinated rolls every
//!   rank back to the last wave; logging restarts one rank).

use std::sync::Arc;

use ftmpi_core::{FailurePlan, ProtocolChoice};
use ftmpi_nas::NasClass;
use ftmpi_net::SoftwareStack;
use ftmpi_sim::{SimDuration, SimTime};

use crate::{
    baseline_spec, bt_workload, cg_workload, cluster_spec, print_table, proto_name, save_records,
    secs, HarnessArgs, MemoCache, Record,
};

const PROTOS: [ProtocolChoice; 3] = [
    ProtocolChoice::Vcl,
    ProtocolChoice::Pcl,
    ProtocolChoice::Mlog,
];

/// Run the comparison (two phases: baselines fix the kill times) and
/// render tables + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let cases: Vec<(&str, ftmpi_nas::Workload, usize)> = vec![
        ("bt (bandwidth/compute)", bt_workload(NasClass::A, 16), 16),
        ("cg (latency-bound)", cg_workload(NasClass::B, 16), 16),
    ];

    // Phase 1: the failure-free baselines decide when the kills land.
    let mut baselines = args.sweep(cache);
    for (_, wl, nranks) in &cases {
        let mut spec = baseline_spec(|proto, period| cluster_spec(wl, *nranks, proto, 2, period));
        spec.stack = Some(SoftwareStack::TcpSock);
        baselines.add_spec(format!("logvs/{}/baseline", wl.name), &wl.name, spec);
    }
    let clean_bases: Vec<f64> = baselines
        .run()
        .into_iter()
        .map(|r| r.expect("baseline").completion_secs())
        .collect();

    // Phase 2: clean + one-failure runs for every protocol and case.
    let mut runner = args.sweep(cache);
    for ((_, wl, nranks), clean_base) in cases.iter().zip(&clean_bases) {
        let kill = SimTime::from_nanos((clean_base * 0.6 * 1e9) as u64);
        for proto in PROTOS {
            for (tag, failures) in [
                ("clean", FailurePlan::none()),
                ("failed", FailurePlan::kill_at(kill, nranks / 2)),
            ] {
                let mut spec = cluster_spec(wl, *nranks, proto, 2, SimDuration::from_secs(10));
                // Identical stack isolates the protocol cost itself.
                spec.stack = Some(SoftwareStack::TcpSock);
                spec.failures = failures;
                runner.add_spec(
                    format!("logvs/{}/{}/{tag}", wl.name, proto_name(proto)),
                    &wl.name,
                    spec,
                );
            }
        }
    }

    let mut results = runner.run().into_iter();
    let mut records = Vec::new();
    for ((label, wl, _), clean_base) in cases.iter().zip(&clean_bases) {
        let mut rows = Vec::new();
        for proto in PROTOS {
            let clean = results.next().unwrap().expect("run");
            let failed = results.next().unwrap().expect("run");
            rows.push(vec![
                proto_name(proto).into(),
                secs(clean.completion_secs()),
                format!(
                    "{:+.1}%",
                    (clean.completion_secs() / clean_base - 1.0) * 100.0
                ),
                secs(failed.completion_secs()),
                secs(failed.completion_secs() - clean.completion_secs()),
            ]);
            records.push(Record::from_result(
                "logging-vs-coordinated-clean",
                &wl.name,
                proto,
                "tcp",
                "case",
                0.0,
                &clean,
            ));
            records.push(Record::from_result(
                "logging-vs-coordinated-failed",
                &wl.name,
                proto,
                "tcp",
                "case",
                1.0,
                &failed,
            ));
        }
        print_table(
            &format!(
                "§2 trade-off — {} ({}), 10 s checkpoint period, baseline {:.1} s",
                wl.name, label, clean_base
            ),
            &[
                "proto",
                "clean(s)",
                "overhead",
                "1 failure(s)",
                "failure cost(s)",
            ],
            &rows,
        );
    }
    println!("\nCoordinated protocols are near-free without failures but roll everyone");
    println!("back on one; logging taxes every message but restarts a single rank.");
    save_records(args, "logging_vs_coordinated", &records);
}
