//! Fig. 6 — Execution time of BT class B as a function of the number of
//! processes, for four times between checkpoints (10/30/60/120 s), with 9
//! checkpoint servers; compared to checkpoint-free executions.
//!
//! Paper shapes: without checkpoints both implementations scale similarly;
//! a slowdown appears above 144 processes when two ranks share a node's NIC
//! (the dip at 169); at 10 s periods the blocking protocol degrades badly
//! (it "spends most of the time synchronizing"), while for sensible periods
//! checkpointing overhead does not grow with the number of nodes.

use std::sync::Arc;

use ftmpi_core::ProtocolChoice;
use ftmpi_nas::NasClass;
use ftmpi_net::SoftwareStack;
use ftmpi_sim::SimDuration;

use crate::{
    baseline_spec, bt_workload, cluster_spec, print_table, save_records, secs, HarnessArgs,
    MemoCache, Record,
};

/// Run the figure's sweep and render tables + records.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    let sizes: Vec<usize> = if args.fast {
        vec![4, 16, 36, 64, 100, 144, 169, 196, 256]
    } else {
        ftmpi_nas::bt::square_sizes(4, 256)
    };
    let periods_s: &[u64] = if args.fast {
        &[10, 60]
    } else {
        &[10, 30, 60, 120]
    };

    // Baselines (the paper's two checkpoint-free implementations) carry a
    // stack override; checkpointing runs use the default stack.
    const BASELINES: [(&str, SoftwareStack); 2] = [
        ("mpich2", SoftwareStack::TcpSock),
        ("mpichv", SoftwareStack::VclDaemon),
    ];
    const PROTOS: [ProtocolChoice; 2] = [ProtocolChoice::Pcl, ProtocolChoice::Vcl];

    let mut runner = args.sweep(cache);
    for &period_s in periods_s {
        let period = SimDuration::from_secs(period_s);
        for &n in &sizes {
            let wl = bt_workload(NasClass::B, n);
            for (label, stack) in BASELINES {
                let mut spec =
                    baseline_spec(|proto, period| cluster_spec(&wl, n, proto, 9, period));
                spec.stack = Some(stack);
                runner.add_spec(format!("fig6/{period_s}s/{n}/{label}"), &wl.name, spec);
            }
            for proto in PROTOS {
                let spec = cluster_spec(&wl, n, proto, 9, period);
                runner.add_spec(format!("fig6/{period_s}s/{n}/{proto:?}"), &wl.name, spec);
            }
        }
    }

    let mut results = runner.run().into_iter();
    let mut records = Vec::new();
    for &period_s in periods_s {
        let mut rows = Vec::new();
        for &n in &sizes {
            let wl = bt_workload(NasClass::B, n);
            let mut cells = vec![n.to_string()];
            for (label, _) in BASELINES {
                let res = results.next().unwrap().expect("baseline");
                cells.push(secs(res.completion_secs()));
                records.push(Record::from_result(
                    &format!("fig6-{period_s}s"),
                    &wl.name,
                    ProtocolChoice::Dummy,
                    label,
                    "nprocs",
                    n as f64,
                    &res,
                ));
            }
            for proto in PROTOS {
                match results.next().unwrap() {
                    Ok(res) => {
                        cells.push(secs(res.completion_secs()));
                        cells.push(res.waves().to_string());
                        records.push(Record::from_result(
                            &format!("fig6-{period_s}s"),
                            &wl.name,
                            proto,
                            if proto == ProtocolChoice::Vcl {
                                "vcl-daemon"
                            } else {
                                "tcp"
                            },
                            "nprocs",
                            n as f64,
                            &res,
                        ));
                    }
                    Err(e) => {
                        // Vcl's select() limit would trip above 300 procs.
                        cells.push(format!("({e:.0?})").chars().take(8).collect());
                        cells.push("-".into());
                    }
                }
            }
            rows.push(cells);
        }
        print_table(
            &format!("Fig.6 — BT.B vs. #processes, {period_s} s between checkpoints, 9 servers"),
            &[
                "procs",
                "nockpt-mpich2",
                "nockpt-mpichv",
                "pcl",
                "pcl-w",
                "vcl",
                "vcl-w",
            ],
            &rows,
        );
    }
    save_records(args, "fig6", &records);
}
