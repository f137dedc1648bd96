//! Per-layer metrics, measured from outside the simulator crates.
//!
//! Nothing here reaches inside a crate: every number is either a counter a
//! public result type already exposes (`JobResult`, `FtStats`, campaign
//! reports) or the wall time of a span around a public call. The
//! differential re-runs (the same jobs under `ProtocolChoice::Dummy`, or
//! with the structured trace on) split a workload's wall time by layer.

use std::hint::black_box;

use std::path::Path;
use std::sync::Arc;

use ftmpi_bench::{spec_fingerprint, MemoCache, SweepRunner};
use ftmpi_check::{check_trace, clock_trace, trace_fingerprint};
use ftmpi_core::runner::build_deployment;
use ftmpi_core::{
    run_job, run_job_with, FailurePlan, JobResult, JobSpec, ProtocolChoice, RunOptions,
};
use ftmpi_net::{NetFaultPlan, NetModel};
use ftmpi_sim::microbench::{drive, Density};
use ftmpi_sim::{Sim, SimDuration, SimTime};

use crate::spans::Spans;
use crate::Report;

/// Largest vector-clock table `clock_trace` may build (bytes).
const HB_MEMORY_BUDGET: u64 = 640 << 20;

/// Wall-time budget of one codec measurement: a 10⁵-rank result encodes
/// to megabytes, so the repetition count adapts to it.
const CODEC_BUDGET_S: f64 = 0.25;

/// Every per-layer metric. Fields a workload does not exercise stay 0; the
/// list of which those are lives in NOTES.md.
#[derive(Default)]
pub struct Layers {
    pub span_overhead_s: f64,
    pub events: u64,
    pub dummy_wall_s: f64,
    pub dummy_events: u64,
    pub queue_ns_per_op: [f64; 3],
    pub ns_per_resume: f64,
    pub ns_per_transfer: f64,
    pub link_retries: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub proto_wall_s: f64,
    pub ns_per_rank_1e4: f64,
    pub ns_per_rank_1e5: f64,
    pub waves_started: u64,
    pub waves_committed: u64,
    pub waves_aborted: u64,
    pub sends_delayed: u64,
    pub arrivals_delayed: u64,
    pub msgs_logged: u64,
    pub image_bytes: u64,
    pub log_bytes: u64,
    pub images_rerouted: u64,
    pub replica_depth_max: u64,
    pub corrupt_detected: u64,
    pub repaired: u64,
    pub restarts: u64,
    pub images_refetched: u64,
    pub lost_work_s: f64,
    pub retries_exhausted: u64,
    pub trace_events: u64,
    pub trace_overhead_s: f64,
    pub invariants_s: f64,
    pub fingerprint_s: f64,
    pub hb_s: f64,
    pub runs_storm: u64,
    pub runs_mine: u64,
    pub runs_explore: u64,
    pub explore_pruned: u64,
    pub explore_deduped: u64,
    pub mine_coverage_states: u64,
    pub warm_s: f64,
    pub spec_fingerprint_us: f64,
    pub encode_decode_us: f64,
    pub workload_build_s: f64,
}

/// Run `f` repeatedly under one span until [`CODEC_BUDGET_S`] has passed;
/// returns the seconds spent and the repetition count.
fn repeat_for(spans: &mut Spans, name: &'static str, mut f: impl FnMut()) -> (f64, usize) {
    let started = std::time::Instant::now();
    let t = spans.open(name, 0);
    let mut reps = 0;
    while reps == 0 || started.elapsed().as_secs_f64() < CODEC_BUDGET_S {
        f();
        reps += 1;
    }
    (spans.close(t), reps)
}

/// Persist `results` under their specs' fingerprints in the on-disk memo
/// cache at `dir`: what a cold sweep over `jobs` writes.
pub fn persist(dir: &Path, jobs: &[(String, JobSpec)], results: &[JobResult]) {
    let cache = MemoCache::persistent(dir);
    for ((tag, spec), r) in jobs.iter().zip(results) {
        cache.put(spec_fingerprint(tag, spec), r.clone());
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Fold one job's counters in.
    pub fn add_result(&mut self, r: &JobResult) {
        self.events += r.events;
        self.link_retries += r.rt.link_retries;
        self.msgs_sent += r.rt.msgs_sent;
        self.bytes_sent += r.rt.bytes_sent;
        let ft = &r.ft;
        self.waves_started += ft.waves_started;
        self.waves_committed += ft.waves_committed;
        self.waves_aborted += ft.waves_aborted;
        self.sends_delayed += ft.sends_delayed;
        self.arrivals_delayed += ft.arrivals_delayed;
        self.msgs_logged += ft.msgs_logged;
        self.image_bytes += ft.image_bytes_sent;
        self.log_bytes += ft.log_bytes_sent;
        self.images_rerouted += ft.images_rerouted;
        self.replica_depth_max = self.replica_depth_max.max(ft.replica_depth_max);
        self.corrupt_detected += ft.images_corrupt_detected;
        self.repaired += ft.images_repaired;
        self.restarts += ft.restarts;
        self.images_refetched += ft.images_refetched;
        self.lost_work_s += ft.lost_work_secs();
        self.retries_exhausted += ft.retries_exhausted;
    }

    /// Print every per-layer metric into the report.
    pub fn emit(&self, report: &mut Report) {
        let c = |v: u64| v as f64;
        let [same, near, wide] = self.queue_ns_per_op;
        let rows: [(&'static str, f64, &'static str); 50] = [
            ("ops_failed_frac", report.failed_frac(), "ratio"),
            ("bench.span_overhead_s", self.span_overhead_s, "s"),
            ("sim.events", c(self.events), "count"),
            (
                "sim.ns_per_event",
                ratio(self.dummy_wall_s * 1e9, c(self.dummy_events)),
                "ns",
            ),
            ("sim.queue_ns_per_op.same_time", same, "ns"),
            ("sim.queue_ns_per_op.near_time", near, "ns"),
            ("sim.queue_ns_per_op.wide_spread", wide, "ns"),
            ("sim.ns_per_resume", self.ns_per_resume, "ns"),
            ("net.ns_per_transfer", self.ns_per_transfer, "ns"),
            ("net.link_retries", c(self.link_retries), "count"),
            ("mpi.dummy_wall_s", self.dummy_wall_s, "s"),
            ("mpi.msgs_sent", c(self.msgs_sent), "count"),
            ("mpi.bytes_sent", c(self.bytes_sent), "bytes"),
            ("proto.wall_s", self.proto_wall_s, "s"),
            ("proto.ns_per_rank.1e4", self.ns_per_rank_1e4, "ns"),
            ("proto.ns_per_rank.1e5", self.ns_per_rank_1e5, "ns"),
            (
                "proto.ns_per_rank.ratio",
                ratio(self.ns_per_rank_1e5, self.ns_per_rank_1e4),
                "ratio",
            ),
            ("proto.waves_started", c(self.waves_started), "count"),
            ("proto.waves_committed", c(self.waves_committed), "count"),
            (
                "proto.commit_ratio",
                ratio(c(self.waves_committed), c(self.waves_started)),
                "ratio",
            ),
            ("proto.waves_aborted", c(self.waves_aborted), "count"),
            ("proto.sends_delayed", c(self.sends_delayed), "count"),
            ("proto.arrivals_delayed", c(self.arrivals_delayed), "count"),
            ("proto.msgs_logged", c(self.msgs_logged), "count"),
            ("store.image_bytes", c(self.image_bytes), "bytes"),
            ("store.log_bytes", c(self.log_bytes), "bytes"),
            ("store.images_rerouted", c(self.images_rerouted), "count"),
            (
                "store.replica_depth_max",
                c(self.replica_depth_max),
                "count",
            ),
            ("store.corrupt_detected", c(self.corrupt_detected), "count"),
            ("store.repaired", c(self.repaired), "count"),
            ("recovery.restarts", c(self.restarts), "count"),
            (
                "recovery.images_refetched",
                c(self.images_refetched),
                "count",
            ),
            ("recovery.lost_work_s", self.lost_work_s, "s_virtual"),
            (
                "recovery.retries_exhausted",
                c(self.retries_exhausted),
                "count",
            ),
            ("trace.events", c(self.trace_events), "count"),
            ("trace.overhead_s", self.trace_overhead_s, "s"),
            ("check.invariants_s", self.invariants_s, "s"),
            (
                "check.invariants_ns_per_event",
                ratio(self.invariants_s * 1e9, c(self.trace_events)),
                "ns",
            ),
            ("check.fingerprint_s", self.fingerprint_s, "s"),
            ("check.hb_s", self.hb_s, "s"),
            ("check.runs.storm", c(self.runs_storm), "count"),
            ("check.runs.mine", c(self.runs_mine), "count"),
            ("check.runs.explore", c(self.runs_explore), "count"),
            ("check.explore_pruned", c(self.explore_pruned), "count"),
            ("check.explore_deduped", c(self.explore_deduped), "count"),
            (
                "check.mine_coverage_states",
                c(self.mine_coverage_states),
                "count",
            ),
            ("sweep.warm_s", self.warm_s, "s"),
            ("sweep.spec_fingerprint_us", self.spec_fingerprint_us, "us"),
            ("sweep.encode_decode_us", self.encode_decode_us, "us"),
            ("nas.workload_build_s", self.workload_build_s, "s"),
        ];
        for (name, value, unit) in rows {
            report.metric(name, value, unit);
        }
    }

    /// Re-run `specs` under the Dummy protocol, failure-free: the kernel,
    /// MPI and network cost of the same jobs with checkpointing taken out.
    pub fn dummy_rerun(&mut self, spans: &mut Spans, report: &mut Report, specs: &[JobSpec]) {
        let t = spans.open("mpi.dummy_rerun", 0);
        for (job, spec) in specs.iter().enumerate() {
            let mut spec = spec.clone();
            spec.protocol = ProtocolChoice::Dummy;
            spec.failures = FailurePlan::none();
            spec.net_faults = NetFaultPlan::none();
            spec.wave_triggers.clear();
            let s = spans.open("mpi.dummy_run", job as u32);
            let res = run_job(spec);
            spans.close(s);
            match res {
                Ok(r) => self.dummy_events += r.events,
                Err(e) => report.op(false, format!("dummy re-run {job}: {e}")),
            }
        }
        spans.close(t);
        self.dummy_wall_s = spans.total("mpi.dummy_run");
    }

    /// Run `specs` with the structured trace on and put every trace
    /// through the checker layers.
    pub fn traced_check(&mut self, spans: &mut Spans, report: &mut Report, specs: &[JobSpec]) {
        for (job, spec) in specs.iter().enumerate() {
            let job = job as u32;
            let (protocol, nranks) = (spec.protocol, spec.nranks);
            let opts = RunOptions {
                trace: true,
                ..RunOptions::default()
            };
            let s = spans.open("trace.run", job);
            let res = run_job_with(spec.clone(), opts);
            spans.close(s);
            let trace = match res {
                Ok((_, trace)) => trace,
                Err(e) => {
                    report.op(false, format!("traced re-run {job}: {e}"));
                    continue;
                }
            };
            self.trace_events += trace.len() as u64;
            let s = spans.open("check.invariants", job);
            black_box(check_trace(protocol, nranks, &trace));
            spans.close(s);
            let s = spans.open("check.fingerprint", job);
            black_box(trace_fingerprint(&trace));
            spans.close(s);
            // A vector clock per proto event is `nranks + 1` words: clock
            // the longest prefix of the trace that fits the memory budget.
            let fits = (HB_MEMORY_BUDGET / ((nranks as u64 + 1) * 8)) as usize;
            let s = spans.open("check.hb", job);
            black_box(clock_trace(nranks, &trace[..trace.len().min(fits)]).len());
            spans.close(s);
        }
        self.invariants_s = spans.total("check.invariants");
        self.fingerprint_s = spans.total("check.fingerprint");
        self.hb_s = spans.total("check.hb");
    }

    /// Event-queue cost per operation with `steady` pending events, for
    /// each density profile (median of three drives).
    pub fn queue_bench(&mut self, spans: &mut Spans, steady: usize, ops: u64) {
        for (slot, density) in self.queue_ns_per_op.iter_mut().zip(Density::ALL) {
            let mut secs: Vec<f64> = (0..3)
                .map(|_| {
                    let t = spans.open("sim.queue_drive", 0);
                    black_box(drive(true, density, steady, ops, 64));
                    spans.close(t)
                })
                .collect();
            *slot = crate::median(&mut secs) * 1e9 / ops as f64;
        }
    }

    /// Kernel cost of one process resume: `procs` bare processes, each
    /// looping `advance` + `sleep_until_local` `steps` times.
    pub fn resume_bench(
        &mut self,
        spans: &mut Spans,
        report: &mut Report,
        procs: usize,
        steps: u64,
    ) {
        let mut sim = Sim::new();
        for p in 0..procs {
            let gap = SimDuration::from_micros(1 + (p % 97) as u64);
            sim.spawn("bench", move |mut ctx| async move {
                for _ in 0..steps {
                    ctx.advance(gap);
                    ctx.sleep_until_local().await;
                }
            });
        }
        let t = spans.open("sim.resume_run", 0);
        let run = sim.run();
        let secs = spans.close(t);
        report.op(run.is_ok(), "bare resume simulation");
        self.ns_per_resume = secs * 1e9 / (procs as u64 * steps) as f64;
    }

    /// Network-model cost per reservation. On each spec's own topology,
    /// replay rounds of one ring message of `msg_bytes` per rank plus every
    /// rank's image chunks to its checkpoint server, about `target`
    /// transfers in all.
    pub fn transfer_bench(
        &mut self,
        spans: &mut Spans,
        specs: &[JobSpec],
        msg_bytes: u64,
        target: u64,
    ) {
        let mut transfers = 0u64;
        for (job, spec) in specs.iter().enumerate() {
            let dep = build_deployment(spec);
            let n = spec.nranks;
            let chunk = spec.ft.chunk_bytes.max(1);
            let chunks = spec.ft.image_bytes.div_ceil(chunk).max(1);
            let per_round = n as u64 * (1 + chunks);
            let rounds = (target / specs.len() as u64 / per_round).max(1);
            let mut net = NetModel::new(dep.topo.clone());
            let t = spans.open("net.transfer_replay", job as u32);
            for round in 0..rounds {
                let now = SimTime::from_nanos(round * 1_000_000);
                for r in 0..n {
                    let (src, dst) = (dep.placement.node_of(r), dep.placement.node_of((r + 1) % n));
                    black_box(net.transfer(src, dst, msg_bytes, now));
                }
                for r in 0..n {
                    let (src, server) = (dep.placement.node_of(r), dep.server_node_of(r));
                    for _ in 0..chunks {
                        black_box(net.transfer(src, server, chunk, now));
                    }
                }
            }
            spans.close(t);
            transfers += rounds * per_round;
        }
        self.ns_per_transfer = spans.total("net.transfer_replay") * 1e9 / transfers.max(1) as f64;
    }

    /// The memo cache's read side: a one-worker sweep over `jobs` against
    /// the on-disk cache in `dir` must serve every job, unchanged from
    /// `results`, without simulating.
    pub fn warm_sweep(
        &mut self,
        spans: &mut Spans,
        report: &mut Report,
        dir: &Path,
        jobs: &[(String, JobSpec)],
        results: &[JobResult],
    ) {
        let cache = MemoCache::persistent(dir);
        let mut runner = SweepRunner::new(1).with_cache(Arc::clone(&cache));
        for (job, (tag, spec)) in jobs.iter().enumerate() {
            runner.add_spec(format!("warm{job}"), tag, spec.clone());
        }
        let t = spans.open("sweep.warm", 0);
        let warm = runner.run_detailed();
        self.warm_s = spans.close(t);
        let identical = warm.len() == results.len()
            && warm.iter().zip(results).all(|(o, cold)| {
                o.cached && o.result.as_ref().is_ok_and(|r| r.encode() == cold.encode())
            });
        report.op(
            identical && cache.stats().1 == 0,
            "warm sweep: every job served from the cache, unchanged",
        );
    }

    /// Memo-cache key and codec costs: `spec_fingerprint` over the
    /// workload's specs and a `JobResult` encode/decode round trip over
    /// its results, each repeated for about [`CODEC_BUDGET_S`].
    pub fn codec_bench(
        &mut self,
        spans: &mut Spans,
        report: &mut Report,
        specs: &[(String, JobSpec)],
        results: &[JobResult],
    ) {
        let (secs, reps) = repeat_for(spans, "sweep.spec_fingerprint", || {
            for (tag, spec) in specs {
                black_box(spec_fingerprint(tag, spec));
            }
        });
        self.spec_fingerprint_us = secs * 1e6 / (reps * specs.len().max(1)) as f64;
        let (secs, reps) = repeat_for(spans, "sweep.encode_decode", || {
            for r in results {
                black_box(JobResult::decode(black_box(&r.encode())));
            }
        });
        self.encode_decode_us = secs * 1e6 / (reps * results.len().max(1)) as f64;
        let round_trips = results.iter().all(|r| {
            let text = r.encode();
            JobResult::decode(&text).is_some_and(|b| b.encode() == text)
        });
        report.op(round_trips, "JobResult encode/decode round trip");
    }
}
