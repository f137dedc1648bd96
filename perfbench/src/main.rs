//! The repository benchmark: three workloads over the ftmpi simulator,
//! end-to-end metrics with spans off, and an outside-in per-layer split
//! from a separate traced run. `perfbench/run.py` builds and runs this
//! binary; see `perfbench/NOTES.md` for the workloads and the seed
//! numbers.
//!
//! ```sh
//! perfbench --workload fig5_cold --seed 1 --seconds 15 --trace 0 \
//!     --work-dir .bench_work/fig5_cold --outcomes perfbench/outcomes.txt
//! ```
//!
//! `--tiny` shrinks every workload for the self-test, `--tamper` flips one
//! recorded outcome digest (the run must then report a failure), and
//! `--record` rewrites the workload's digests from this run.

mod campaign;
mod fig5;
mod layers;
mod outcomes;
mod ring;
mod spans;

use std::path::PathBuf;
use std::time::Instant;

use layers::Layers;
use outcomes::Outcomes;
use spans::Spans;

const USAGE: &str = "usage: perfbench --workload fig5_cold|mlog_ring_1e5|fault_campaign \
                     --seed N --seconds S --trace 0|1 --work-dir DIR --outcomes FILE \
                     [--tiny] [--record] [--tamper]";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub outcomes: PathBuf,
    pub tiny: bool,
    pub record: bool,
    pub tamper: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        work_dir: PathBuf::new(),
        outcomes: PathBuf::new(),
        tiny: false,
        record: false,
        tamper: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            "--work-dir" => args.work_dir = value()?.into(),
            "--outcomes" => args.outcomes = value()?.into(),
            "--tiny" => args.tiny = true,
            "--record" => args.record = true,
            "--tamper" => args.tamper = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.work_dir.as_os_str().is_empty() || args.outcomes.as_os_str().is_empty() {
        return Err("--work-dir and --outcomes are required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Operation tally and the metrics printed at the end.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Count one operation; a failed one is explained on stderr.
    pub fn op(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: impl std::fmt::Display) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED: {failed} of {n}: {what}");
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result line: one JSON object.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything a workload touches while it runs.
pub struct Ctx {
    pub args: Args,
    pub spans: Spans,
    pub report: Report,
    pub outcomes: Outcomes,
    /// Passes run so far (names per-pass scratch directories).
    pub passes: u32,
}

impl Ctx {
    /// A fresh, empty scratch directory for the current pass.
    pub fn pass_dir(&mut self) -> PathBuf {
        self.passes += 1;
        let dir = self.args.work_dir.join(format!("pass{}", self.passes));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A seeded permutation of `0..n` (the order jobs are handed over in;
    /// outcomes are checked per job, so the order never changes a digest).
    pub fn order(&self, n: usize) -> Vec<usize> {
        let mut state = self.args.seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Everything before the first job is handed over (timed as `setup_s`).
    fn setup(ctx: &mut Ctx) -> Self;
    /// Run the job set once and check its outcomes; returns wall seconds.
    fn pass(&mut self, ctx: &mut Ctx) -> f64;
    /// The differential re-runs and microbenchmarks of the traced run.
    /// `wall_s` is the untraced pass time measured just before.
    fn layers(&mut self, ctx: &mut Ctx, layers: &mut Layers, wall_s: f64);
}

pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set the workload up in a burst of repetitions, appending each one's
/// seconds to `samples`, and keep the last instance. One set-up takes
/// micro- to milliseconds, too short to read reliably once.
fn set_up<W: Workload>(ctx: &mut Ctx, samples: &mut Vec<f64>) -> W {
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let w = W::setup(ctx);
        samples.push(t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= 5 && (reps >= 101 || started.elapsed().as_secs_f64() >= 0.25) {
            return w;
        }
    }
}

fn run<W: Workload>(ctx: &mut Ctx) {
    let mut setups = Vec::new();
    if !ctx.args.trace {
        // A set-up burst before every pass spreads the set-up samples over
        // the whole run, like the pass samples.
        let start = Instant::now();
        let mut walls = Vec::new();
        while walls.is_empty() || start.elapsed().as_secs_f64() < ctx.args.seconds {
            let mut w: W = set_up(ctx, &mut setups);
            walls.push(w.pass(ctx));
        }
        eprintln!("passes: {walls:.3?}");
        let frac_ok = 1.0 - ctx.report.failed_frac();
        let report = &mut ctx.report;
        report.metric("wall_s", median(&mut walls), "s");
        report.metric("setup_s", median(&mut setups), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric("ops_ok_frac", frac_ok, "ratio");
    } else {
        let mut w: W = set_up(ctx, &mut setups);
        let base = w.pass(ctx);
        ctx.spans.set_recording(true);
        let t = ctx.spans.open("workload.pass", 0);
        w.pass(ctx);
        let traced = ctx.spans.close(t);
        let mut layers = Layers {
            span_overhead_s: traced - base,
            ..Layers::default()
        };
        w.layers(ctx, &mut layers, base);
        layers.emit(&mut ctx.report);
        let path = ctx
            .args
            .work_dir
            .with_file_name(format!("spans-{}.jsonl", ctx.args.workload));
        if let Err(e) = ctx.spans.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let prefix = format!(
        "{}/{}",
        if args.tiny { "tiny" } else { "full" },
        args.workload
    );
    let outcomes = match Outcomes::load(&args.outcomes, prefix, args.tamper) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let mut ctx = Ctx {
        spans: Spans::new(false),
        report: Report::default(),
        outcomes,
        passes: 0,
        args,
    };
    match ctx.args.workload.as_str() {
        "fig5_cold" => run::<fig5::Fig5>(&mut ctx),
        "mlog_ring_1e5" => run::<ring::Ring>(&mut ctx),
        "fault_campaign" => run::<campaign::Campaign>(&mut ctx),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.args.work_dir);
    if ctx.args.record {
        if let Err(e) = ctx.outcomes.record() {
            eprintln!("error: could not record outcomes: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", ctx.report.json());
}
