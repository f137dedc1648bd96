//! Kernel event-queue microbenchmark: the radix-heap queue across the
//! three event-time densities the kernel actually sees (same-instant
//! marker storms, near-time chunked flows, wide-spread timers) at two
//! pending-event populations — a paper-sized figure run's and a 10⁵-rank
//! ring's — plus one end-to-end anchor: a cold `fig5_servers --fast` wall
//! measurement.
//!
//! The deterministic op driver lives in [`ftmpi_sim::microbench`] (the sim
//! crates forbid wall-clock reads, so the timing lives here). Each run's
//! pop-order checksum is reported next to its rate, so a change to the
//! queue that moves the pop order shows up as a changed checksum (CI
//! compares the six checksums with the committed ones).
//!
//! Writes `BENCH_kernel.json` at the repository root.
//!
//! ```sh
//! cargo run --release -p ftmpi-bench --bin kernel_bench [-- --quick]
//! ```
//!
//! `--help` prints the usage line; any other argument is an error (exit
//! status 2). Neither writes `BENCH_kernel.json`.

use std::path::PathBuf;
use std::time::Instant;

use ftmpi_bench::json::{to_string_pretty, JsonObject, JsonValue};
use ftmpi_bench::{figures, HarnessArgs, MemoCache};
use ftmpi_sim::microbench::{drive, Density};

/// Pending-event populations held by the driver: the order of magnitude a
/// paper-sized figure run keeps in flight, and a 10⁵-rank ring's timers.
const STEADY: [usize; 2] = [16_384, 100_000];

const USAGE: &str = "usage: kernel_bench [--quick]";

/// What the command line asks for.
#[derive(Debug, PartialEq, Eq)]
enum Cmd {
    /// Run the benchmark; `quick` is the shortened CI run.
    Run { quick: bool },
    /// Print the usage line.
    Help,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cmd, String> {
    let mut quick = false;
    for a in args {
        match a.as_str() {
            "--quick" => quick = true,
            "--help" => return Ok(Cmd::Help),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Cmd::Run { quick })
}

/// Median-of-`reps` wall seconds for one density and population, plus the
/// pop-order checksum.
fn time_queue(density: Density, steady: usize, ops: u64, reps: usize) -> (f64, u64) {
    let mut secs = Vec::with_capacity(reps);
    let mut checksum = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        checksum = drive(false, density, steady, ops, 0);
        secs.push(start.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (secs[reps / 2], checksum)
}

/// Cold `fig5_servers --fast` wall seconds: fresh memory-only cache, so
/// every job simulates — the end-to-end number the queue work must not
/// regress.
fn fig5_cold_wall() -> f64 {
    let out = std::env::temp_dir().join(format!("ftmpi-kernel-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let args = HarnessArgs {
        fast: true,
        out_dir: out.clone(),
        ..HarnessArgs::default()
    };
    let cache = MemoCache::new();
    let start = Instant::now();
    figures::fig5_servers::run(&args, &cache);
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&out);
    wall
}

fn main() {
    let quick = match parse_args(std::env::args().skip(1)) {
        Ok(Cmd::Run { quick }) => quick,
        Ok(Cmd::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (ops, reps) = if quick {
        (200_000u64, 3)
    } else {
        (2_000_000u64, 5)
    };

    println!(
        "kernel queue microbench: {ops} ops/run, median of {reps}{}",
        if quick { " (--quick)" } else { "" }
    );
    let mut records: Vec<JsonObject> = Vec::new();
    for steady in STEADY {
        for density in Density::ALL {
            let (secs, checksum) = time_queue(density, steady, ops, reps);
            let mops = ops as f64 / secs / 1e6;
            let ns_per_op = secs * 1e9 / ops as f64;
            println!(
                "  {:11}  steady {steady:>7}  {mops:7.2} Mops/s  {ns_per_op:6.1} ns/op  \
                 checksum {checksum:016x}",
                density.name()
            );
            records.push(vec![
                ("bench", JsonValue::Str("event_queue".into())),
                ("density", JsonValue::Str(density.name().into())),
                ("ops", JsonValue::UInt(ops)),
                ("steady_events", JsonValue::UInt(steady as u64)),
                ("mops_per_s", JsonValue::Float(mops)),
                ("ns_per_op", JsonValue::Float(ns_per_op)),
                ("checksum", JsonValue::Str(format!("{checksum:016x}"))),
            ]);
        }
    }

    println!("\ncold fig5_servers --fast (fresh cache):");
    let wall = fig5_cold_wall();
    println!("\n  fig5 cold wall: {wall:.2} s");
    records.push(vec![
        ("bench", JsonValue::Str("fig5_cold_fast".into())),
        ("wall_s", JsonValue::Float(wall)),
    ]);

    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_kernel.json"
    ));
    std::fs::write(&path, to_string_pretty(&records) + "\n").expect("write BENCH_kernel.json");
    println!("[records written to {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cmd, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn quick_is_the_only_run_flag() {
        assert_eq!(parse(&[]), Ok(Cmd::Run { quick: false }));
        assert_eq!(parse(&["--quick"]), Ok(Cmd::Run { quick: true }));
    }

    #[test]
    fn help_wins_wherever_it_appears() {
        assert_eq!(parse(&["--help"]), Ok(Cmd::Help));
        assert_eq!(parse(&["--quick", "--help"]), Ok(Cmd::Help));
    }

    #[test]
    fn any_other_argument_is_an_error() {
        for bad in [&["--full"][..], &["quick"], &["-h"], &["--quick", "--jobs"]] {
            let err = parse(bad).expect_err("rejected");
            assert!(err.contains(bad[bad.len() - 1]), "{err}");
        }
    }
}
