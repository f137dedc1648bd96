//! Schedule-perturbation race detection.
//!
//! The simulation kernel breaks ties among same-time events by scheduling
//! order. Model code must not *depend* on that accident: any two
//! executions that differ only in the order of independent same-instant
//! events must produce the same protocol behaviour. This module probes
//! exactly that property — it re-runs a configuration under seeded
//! permutations of each tied instant ([`ftmpi_core::Schedule::Seeded`],
//! the kernel's [`ftmpi_sim::SeededPolicy`]) and compares order-canonical
//! trace fingerprints. A divergent fingerprint means some state transition
//! read the accidental order: a schedule-sensitivity bug of the same
//! family as a data race in a real MPI implementation.

use ftmpi_core::{run_job_with, JobError, JobSpec, RunOptions, Schedule};

use crate::fingerprint::trace_fingerprint;

/// Fingerprints of one configuration under perturbed schedules.
#[derive(Debug)]
pub struct PerturbReport {
    /// Fingerprint of the canonical (unperturbed) schedule.
    pub baseline: u64,
    /// `(seed, fingerprint)` of every perturbed run.
    pub perturbed: Vec<(u64, u64)>,
}

impl PerturbReport {
    /// Seeds whose fingerprint diverged from the baseline.
    pub fn divergent(&self) -> Vec<u64> {
        self.perturbed
            .iter()
            .filter(|&&(_, fp)| fp != self.baseline)
            .map(|&(seed, _)| seed)
            .collect()
    }

    /// `true` when every perturbed schedule reproduced the baseline.
    pub fn ok(&self) -> bool {
        self.divergent().is_empty()
    }
}

/// Run `spec` once canonically and once per perturbation seed,
/// fingerprinting each trace.
pub fn perturbation_check(spec: &JobSpec, seeds: &[u64]) -> Result<PerturbReport, JobError> {
    let (_, trace) = run_job_with(
        spec.clone(),
        RunOptions {
            trace: true,
            ..RunOptions::default()
        },
    )?;
    let baseline = trace_fingerprint(&trace);
    let mut perturbed = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let (_, t) = run_job_with(
            spec.clone(),
            RunOptions {
                trace: true,
                schedule: Schedule::Seeded(seed),
                ..RunOptions::default()
            },
        )?;
        perturbed.push((seed, trace_fingerprint(&t)));
    }
    Ok(PerturbReport {
        baseline,
        perturbed,
    })
}
