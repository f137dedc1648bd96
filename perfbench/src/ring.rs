//! `mlog_ring_1e5`: the 10⁵-rank message-logging ring of `scale_bench`
//! (four servers, 1 KiB shifts, 256 KiB images, at least two checkpoint
//! cycles per rank), run through the plain `run_job` entry point with no
//! backend overrides. The same ring at 10⁴ and 10⁵ ranks is also the
//! protocol-scaling probe every workload's traced run reports.

use std::hint::black_box;
use std::time::Instant;

use ftmpi_core::runner::build_deployment;
use ftmpi_core::{run_job, FtConfig, JobError, JobResult, JobSpec, ProtocolChoice};
use ftmpi_mpi::{app_fn, AppFn};
use ftmpi_sim::SimDuration;

use crate::layers::{persist, Layers};
use crate::outcomes::job_digest;
use crate::{Ctx, Workload};

/// Ring iterations of the workload.
const ITERS: usize = 8;
/// Ring iterations of the scaling probe on the other workloads: one
/// iteration keeps the 10⁵-rank probe to seconds.
pub const PROBE_ITERS: usize = 1;

/// Every iteration each rank shifts 1 KiB to its right neighbour, then
/// computes for 1.5 s.
fn ring_app(iters: usize) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            mpi.shift(right, left, (i % 997) as i32, 1_024).await;
            mpi.compute(SimDuration::from_millis(1_500));
        }
        mpi
    })
}

fn ring_spec(nranks: usize, protocol: ProtocolChoice, app: AppFn) -> JobSpec {
    let mut spec = JobSpec::new(nranks, protocol, app);
    spec.servers = 4;
    spec.ft = FtConfig {
        period: SimDuration::from_secs(2),
        first_wave_delay: SimDuration::from_millis(500),
        image_bytes: 256 << 10,
        ..FtConfig::default()
    };
    spec
}

/// The rank counts of the scaling probe: 10⁴ and 10⁵ (10² and 10³ tiny).
pub fn probe_sizes(tiny: bool) -> [usize; 2] {
    if tiny {
        [100, 1_000]
    } else {
        [10_000, 100_000]
    }
}

/// Mlog-minus-Dummy wall per rank, in ns, of the ring at `nranks` ranks
/// and `iters` iterations. A superlinear per-rank cost shows as a value
/// that grows with `nranks`.
pub fn proto_ns_per_rank(ctx: &mut Ctx, nranks: usize, iters: usize) -> f64 {
    let app = ring_app(iters);
    let t = ctx.spans.open("proto.probe_mlog", nranks as u32);
    let mlog = run_job(ring_spec(nranks, ProtocolChoice::Mlog, app.clone()));
    let mlog_s = ctx.spans.close(t);
    let t = ctx.spans.open("proto.probe_dummy", nranks as u32);
    let dummy = run_job(ring_spec(nranks, ProtocolChoice::Dummy, app));
    let dummy_s = ctx.spans.close(t);
    let clean = |r: &Result<JobResult, JobError>| {
        r.as_ref()
            .is_ok_and(|r| r.leftover_unexpected == 0 && r.leftover_posted == 0)
    };
    ctx.report.op(
        clean(&mlog) && clean(&dummy),
        format!("ring probe at {nranks} ranks"),
    );
    (mlog_s - dummy_s) * 1e9 / nranks as f64
}

pub struct Ring {
    spec: JobSpec,
    /// Wall seconds of the application construction in the last set-up.
    build_s: f64,
    result: Option<JobResult>,
}

/// Run one ring and check it completed cleanly with at least two
/// checkpoint cycles per rank and the recorded outcome.
fn run_ring(ctx: &mut Ctx, spec: &JobSpec, key: &str) -> Option<JobResult> {
    match run_job(spec.clone()) {
        Ok(res) => {
            let ok = res.leftover_unexpected == 0
                && res.leftover_posted == 0
                && res.ft.waves_committed >= 2 * spec.nranks as u64
                && ctx.outcomes.check(key, job_digest(&res));
            ctx.report.op(ok, key);
            Some(res)
        }
        Err(e) => {
            ctx.report.op(false, format!("{key}: {e}"));
            None
        }
    }
}

impl Workload for Ring {
    fn setup(ctx: &mut Ctx) -> Ring {
        let [_, n] = probe_sizes(ctx.args.tiny);
        let t = Instant::now();
        let app = ring_app(ITERS);
        let build_s = t.elapsed().as_secs_f64();
        let spec = ring_spec(n, ProtocolChoice::Mlog, app);
        black_box(build_deployment(&spec));
        Ring {
            spec,
            build_s,
            result: None,
        }
    }

    fn pass(&mut self, ctx: &mut Ctx) -> f64 {
        let spec = self.spec.clone();
        let t = ctx.spans.open("job.run", 0);
        self.result = run_ring(ctx, &spec, "ring");
        ctx.spans.close(t)
    }

    fn layers(&mut self, ctx: &mut Ctx, layers: &mut Layers, wall_s: f64) {
        let results: Vec<JobResult> = self.result.iter().cloned().collect();
        for r in &results {
            layers.add_result(r);
        }
        let n = self.spec.nranks;
        let spec = std::slice::from_ref(&self.spec);
        layers.dummy_rerun(&mut ctx.spans, &mut ctx.report, spec);
        layers.proto_wall_s = wall_s - layers.dummy_wall_s;
        layers.ns_per_rank_1e5 = layers.proto_wall_s * 1e9 / n as f64;

        // The same split at a tenth of the ranks: per-rank protocol cost
        // that grows with the rank count is superlinear bookkeeping.
        let [small, _] = probe_sizes(ctx.args.tiny);
        layers.ns_per_rank_1e4 = proto_ns_per_rank(ctx, small, ITERS);

        // Trace and checker costs on the small ring, which keeps the traced
        // run's time and memory modest.
        let (spans, report) = (&mut ctx.spans, &mut ctx.report);
        let small_spec = ring_spec(small, ProtocolChoice::Mlog, ring_app(ITERS));
        layers.traced_check(spans, report, std::slice::from_ref(&small_spec));
        layers.trace_overhead_s = spans.total("trace.run") - spans.total("proto.probe_mlog");

        let tiny = ctx.args.tiny;
        layers.queue_bench(spans, n, if tiny { 20_000 } else { 400_000 });
        layers.resume_bench(spans, report, n, if tiny { 5 } else { 10 });
        let target = if tiny { 20_000 } else { 300_000 };
        layers.transfer_bench(spans, spec, 1_024, target);
        let keyed = [("ring".to_string(), self.spec.clone())];
        let dir = ctx.args.work_dir.join("warm");
        persist(&dir, &keyed, &results);
        layers.warm_sweep(spans, report, &dir, &keyed, &results);
        layers.codec_bench(spans, report, &keyed, &results);
        layers.workload_build_s = self.build_s;
    }
}
