//! One module per figure/table harness, run by `ftmpi-bench figure
//! <name>|all`.
//!
//! Every module exposes `run(args, cache)`: it queues the figure's jobs on
//! a [`SweepRunner`](crate::SweepRunner) honouring `--jobs`, then renders
//! tables and JSON records from the in-order results. [`run`] calls the
//! selected ones in one process against one shared
//! [`MemoCache`](crate::MemoCache), so configurations shared across figures
//! are simulated once.

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

/// Every harness, in the order `figure all` runs them.
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

/// A selection of [`ALL`]: one harness, or every one.
pub type Figures = &'static [(&'static str, FigureFn)];

/// Parse what follows `figure` on the front door: a harness name or `all`,
/// then the [`HarnessArgs`] flags. An unknown or missing name is an `Err`
/// listing the names.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<(Figures, HarnessArgs), String> {
    let mut args = args.into_iter();
    let names = || {
        let names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        format!("names: all, {}", names.join(", "))
    };
    let figures = match args.next().as_deref() {
        Some("all") => ALL,
        Some(name) => ALL
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| &ALL[i..=i])
            .ok_or_else(|| format!("unknown figure '{name}'; {}", names()))?,
        None => return Err(format!("figure needs a name; {}", names())),
    };
    Ok((figures, HarnessArgs::parse_from(args)?))
}

/// Run `figures` in order against one cache under `<out>/.cache/`, each
/// after a `#### <name> ####` header (`scripts/fill_experiments.py` splits
/// the log on it), then print the cache summary.
pub fn run(figures: Figures, args: &HarnessArgs) {
    let cache = args.cache();
    for (name, figure) in figures {
        println!("\n################ {name} ################");
        figure(args, &cache);
    }
    println!("\n{}", cache.summary());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<(Figures, HarnessArgs), String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn front_door_parses_a_name_or_all_then_the_flags() {
        let (figures, _) = parse_strs(&["all"]).unwrap();
        assert_eq!(figures.len(), ALL.len());
        let (figures, args) = parse_strs(&["fig5_servers", "--jobs", "1"]).unwrap();
        assert_eq!(figures.len(), 1);
        assert_eq!(figures[0].0, "fig5_servers");
        assert_eq!(args.jobs, 1);
        assert!(parse_strs(&["fig5_servers", "--nope"]).is_err());
    }

    #[test]
    fn unknown_or_missing_names_list_the_names() {
        for args in [&["fig4"][..], &[], &["--fast"]] {
            let err = parse_strs(args).unwrap_err();
            assert!(err.contains("names: all, calibrate, fig5_servers"), "{err}");
            assert!(err.contains("future_work"), "{err}");
        }
    }
}
