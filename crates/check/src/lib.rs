//! `ftmpi-check`: machine verification of the checkpointing protocols.
//!
//! Its layers each consume the structured protocol traces recorded by
//! [`ftmpi_sim::SimCtx::trace_proto`]:
//!
//! * [`invariants`] — proves, for every committed checkpoint wave in a
//!   trace, that the recorded global state is a *consistent cut*: no orphan
//!   messages, the Vcl channel logs hold exactly the in-transit messages,
//!   Pcl channels are empty at fork, and every channel stays FIFO with no
//!   loss or duplication across failures and restarts. [`check_trace`] is
//!   one pass: it reads each record once and closes an era at each
//!   restart.
//! * [`perturb`] — a determinism/race detector: re-runs a configuration
//!   under seeded perturbations of same-time event tiebreaks and compares
//!   order-canonical trace [`fingerprint`]s. Divergence means some model
//!   state depends on the accidental order of independent events.
//! * [`lint`] — a hand-rolled source lint enforcing the workspace's
//!   determinism rules (no wall-clock reads in simulation crates, no
//!   iteration over `HashMap` feeding ordered output, no `unwrap()` in
//!   `crates/core`).
//! * [`storm`] — seeded fault-injection campaigns: kills and checkpoint-
//!   server failures aimed at mid-wave, mid-recovery, and detection-lag
//!   windows, each run re-checked by the invariant layer. Its
//!   [`StormOutcome`] is the one verdict every campaign reports.
//! * [`suite`] — the `smoke` and `figures` probe sets, each probe run
//!   clean and with a derived kill through [`run_storm_traced`].
//! * [`miner`] — a coverage-guided failure-storm miner: a seeded mutation
//!   loop over fault schedules (kills, directed partitions, server-group
//!   cuts, link flaps), driven by a coverage map of invariant-checker and
//!   `FtStats` observables, keeping a corpus of schedules that light new
//!   coverage states and shrinking violations to minimal reproducers.
//! * [`explore`] + [`hb`] — exhaustive schedule exploration: a DPOR loop
//!   over the kernel's schedule-policy hook enumerates every inequivalent
//!   order of same-instant events in small configs, pruning with a
//!   happens-before/resource-footprint commutation oracle, and shrinks any
//!   violating schedule to a minimal replayable reproducer.
//!
//! The `ftmpi-check` binary exposes them as `lint`, `smoke`, `storm`
//! (with `--mine` for the miner), `figures`, and `explore` subcommands;
//! `scripts/ci.sh` runs `lint`, `smoke`, `figures --full`, `storm --smoke`,
//! `storm --mine`, `storm --mine --smoke`, and `explore --smoke` on every
//! change.

#![warn(missing_docs)]

pub mod explore;
pub mod fingerprint;
pub mod hb;
pub mod invariants;
pub mod lint;
pub mod miner;
pub mod perturb;
pub mod storm;
pub mod suite;

pub use explore::{
    explore, explore_configs, parse_artifact, replay, ExploreConfig, ExploreOptions,
    ExploreOutcome, Repro, ViolationReport,
};
pub use fingerprint::trace_fingerprint;
pub use hb::{
    clock_trace, commutes, concurrent, happens_before, resources, ClockedEvent, Resource,
};
pub use invariants::{check_trace, CheckReport, Violation};
pub use lint::{lane_audit_sources, lint_source, run_lint, LintHit};
pub use miner::{
    classify, coverage_key, encode_artifact, mine, parse_mined_artifact, CoverageKey, Gene, Genome,
    MineOptions, MineReport, MinedViolation, OutcomeClass,
};
pub use perturb::{perturbation_check, PerturbReport};
pub use storm::{run_storm, run_storm_traced, storm_campaign, StormOutcome};
pub use suite::{figure_smoke_probes, figures_suite, run_checked_with_churn, smoke_probes};
