//! One module per figure/table harness; the binaries in `src/bin/` are
//! thin wrappers around these.
//!
//! Every module exposes `run(args, cache)`: it queues the figure's jobs on
//! a [`SweepRunner`](crate::SweepRunner) honouring `--jobs`, then renders
//! tables and JSON records from the in-order results. `all_figures` calls
//! them all in one process against one shared [`MemoCache`](crate::MemoCache),
//! so configurations shared across figures are simulated once.

use std::sync::Arc;

use crate::{HarnessArgs, MemoCache};

pub mod ablation_design;
pub mod calibrate;
pub mod failure_storms;
pub mod fig10_grid_scaling;
pub mod fig5_servers;
pub mod fig6_scaling;
pub mod fig7_myrinet;
pub mod fig8_myrinet_scaling;
pub mod fig9_grid400;
pub mod flap_sweep;
pub mod future_work;
pub mod integrity_sweep;
pub mod logging_vs_coordinated;
pub mod mttf_period;
pub mod netpipe;
pub mod partition_sweep;
pub mod recovery_cost;

/// Signature every figure harness implements.
pub type FigureFn = fn(&HarnessArgs, &Arc<MemoCache>);

/// Shared `main()` body for the thin per-figure binaries: parse the CLI,
/// open the persistent cache under `<out>/.cache/`, run the figure, then
/// report cache effectiveness.
pub fn run_standalone(run: FigureFn) {
    let args = HarnessArgs::parse();
    let cache = args.cache();
    run(&args, &cache);
    println!("\n{}", cache.summary());
}

/// Every harness, in the order `all_figures` runs them.
pub const ALL: &[(&str, FigureFn)] = &[
    ("calibrate", calibrate::run),
    ("fig5_servers", fig5_servers::run),
    ("fig6_scaling", fig6_scaling::run),
    ("fig7_myrinet", fig7_myrinet::run),
    ("fig8_myrinet_scaling", fig8_myrinet_scaling::run),
    ("fig9_grid400", fig9_grid400::run),
    ("fig10_grid_scaling", fig10_grid_scaling::run),
    ("netpipe", netpipe::run),
    ("recovery_cost", recovery_cost::run),
    ("failure_storms", failure_storms::run),
    ("partition_sweep", partition_sweep::run),
    ("flap_sweep", flap_sweep::run),
    ("integrity_sweep", integrity_sweep::run),
    ("ablation_design", ablation_design::run),
    ("mttf_period", mttf_period::run),
    ("logging_vs_coordinated", logging_vs_coordinated::run),
    ("future_work", future_work::run),
];
