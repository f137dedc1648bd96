//! `fig5_cold`: the paper's Fig. 5 sweep exactly as `fig5_servers --fast`
//! builds it (BT.B/64 on GigE, a no-checkpoint reference plus Pcl and Vcl
//! over 1, 2, 4 and 8 checkpoint servers, 30 s period, failure-free),
//! run through a one-worker `SweepRunner` against a fresh on-disk
//! `MemoCache` that it writes, then saved as `fig5.json`.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ftmpi_bench::{
    bt_workload, cluster_spec, proto_name, save_records, HarnessArgs, JobOutcome, MemoCache,
    Record, SweepRunner,
};
use ftmpi_core::runner::build_deployment;
use ftmpi_core::{JobResult, JobSpec, ProtocolChoice};
use ftmpi_nas::NasClass;
use ftmpi_sim::SimDuration;

use crate::layers::Layers;
use crate::outcomes::{fnv, job_digest};
use crate::{ring, Ctx, Workload};

struct Job {
    label: String,
    proto: ProtocolChoice,
    /// `None` for the no-checkpoint reference.
    servers: Option<usize>,
    spec: JobSpec,
}

pub struct Fig5 {
    wl_name: String,
    nranks: usize,
    jobs: Vec<Job>,
    /// Wall seconds of the NAS workload construction in the last set-up.
    build_s: f64,
    /// The latest pass: its results and job walls (plan order) and the
    /// cache directory it wrote.
    results: Vec<JobResult>,
    job_walls: Vec<f64>,
    cache_dir: PathBuf,
}

impl Fig5 {
    fn sweep(&self, cache: &Arc<MemoCache>, order: &[usize]) -> Vec<JobOutcome> {
        let mut runner = SweepRunner::new(1).with_cache(Arc::clone(cache));
        for &i in order {
            let job = &self.jobs[i];
            runner.add_spec(job.label.clone(), &self.wl_name, job.spec.clone());
        }
        let mut by_plan: Vec<Option<JobOutcome>> = (0..order.len()).map(|_| None).collect();
        for (&i, outcome) in order.iter().zip(runner.run_detailed()) {
            by_plan[i] = Some(outcome);
        }
        by_plan
            .into_iter()
            .map(|o| o.expect("every planned job reports an outcome"))
            .collect()
    }
}

impl Workload for Fig5 {
    fn setup(ctx: &mut Ctx) -> Fig5 {
        let (class, nranks, servers): (_, _, &[usize]) = if ctx.args.tiny {
            (NasClass::S, 4, &[1, 2])
        } else {
            (NasClass::B, 64, &[1, 2, 4, 8])
        };
        let t = Instant::now();
        let wl = bt_workload(class, nranks);
        let build_s = t.elapsed().as_secs_f64();
        let period = SimDuration::from_secs(30);
        let mut jobs = Vec::new();
        let mut push = |label: String, proto, servers: Option<usize>| {
            let mut spec = cluster_spec(&wl, nranks, proto, servers.unwrap_or(1), period);
            // Two ranks per dual-processor node, as the figure deploys them.
            spec.single_threshold = nranks / 2;
            black_box(build_deployment(&spec));
            jobs.push(Job {
                label,
                proto,
                servers,
                spec,
            });
        };
        push("fig5/nockpt".into(), ProtocolChoice::Dummy, None);
        for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
            for &s in servers {
                push(format!("fig5/{}x{s}", proto_name(proto)), proto, Some(s));
            }
        }
        Fig5 {
            wl_name: wl.name,
            nranks,
            jobs,
            build_s,
            results: Vec::new(),
            job_walls: Vec::new(),
            cache_dir: PathBuf::new(),
        }
    }

    fn pass(&mut self, ctx: &mut Ctx) -> f64 {
        let dir = ctx.pass_dir();
        let order = ctx.order(self.jobs.len());
        let start = Instant::now();
        let cache = MemoCache::persistent(dir.join(".cache"));
        let outcomes = self.sweep(&cache, &order);
        let mut records = Vec::new();
        for (job, outcome) in self.jobs.iter().zip(&outcomes) {
            if let Ok(res) = &outcome.result {
                let stack = if job.proto == ProtocolChoice::Vcl {
                    "vcl-daemon"
                } else {
                    "tcp"
                };
                let x = job.servers.map_or(0.0, |s| s as f64);
                records.push(Record::from_result(
                    "fig5",
                    &self.wl_name,
                    job.proto,
                    stack,
                    "servers",
                    x,
                    res,
                ));
            }
        }
        let args = HarnessArgs {
            fast: true,
            out_dir: dir.clone(),
            jobs: 1,
        };
        save_records(&args, "fig5", &records);
        let wall = start.elapsed().as_secs_f64();

        // Per-job spans from the sweep's own wall reports, in run order.
        let mut at = start;
        for &i in &order {
            let secs = outcomes[i].wall.as_secs_f64();
            ctx.spans.record("sweep.job", i as u32, at, secs);
            at += outcomes[i].wall;
        }
        self.results.clear();
        self.job_walls.clear();
        for (job, outcome) in self.jobs.iter().zip(outcomes) {
            self.job_walls.push(outcome.wall.as_secs_f64());
            match outcome.result {
                Ok(res) => {
                    let ok = !outcome.cached
                        && res.leftover_unexpected == 0
                        && res.leftover_posted == 0
                        && ctx.outcomes.check(&job.label, job_digest(&res));
                    ctx.report.op(ok, &job.label);
                    self.results.push(res);
                }
                Err(e) => ctx.report.op(false, format!("{}: {e}", job.label)),
            }
        }
        let figure = std::fs::read(dir.join("fig5.json")).unwrap_or_default();
        let ok = ctx.outcomes.check("fig5.json", fnv(&figure));
        ctx.report.op(ok, "fig5.json");
        self.cache_dir = dir.join(".cache");
        wall
    }

    fn layers(&mut self, ctx: &mut Ctx, layers: &mut Layers, wall_s: f64) {
        for r in &self.results {
            layers.add_result(r);
        }
        let [small, large] = ring::probe_sizes(ctx.args.tiny);
        layers.ns_per_rank_1e4 = ring::proto_ns_per_rank(ctx, small, ring::PROBE_ITERS);
        layers.ns_per_rank_1e5 = ring::proto_ns_per_rank(ctx, large, ring::PROBE_ITERS);

        let (spans, report) = (&mut ctx.spans, &mut ctx.report);
        let specs: Vec<JobSpec> = self.jobs.iter().map(|j| j.spec.clone()).collect();
        let keyed: Vec<(String, JobSpec)> = specs
            .iter()
            .map(|s| (self.wl_name.clone(), s.clone()))
            .collect();
        // The read side of the write path: the cache the traced pass wrote.
        layers.warm_sweep(spans, report, &self.cache_dir, &keyed, &self.results);
        layers.dummy_rerun(spans, report, &specs);
        layers.proto_wall_s = wall_s - layers.dummy_wall_s;
        layers.traced_check(spans, report, &specs);
        layers.trace_overhead_s = spans.total("trace.run") - self.job_walls.iter().sum::<f64>();

        let tiny = ctx.args.tiny;
        layers.queue_bench(spans, self.nranks, if tiny { 20_000 } else { 400_000 });
        let steps = if tiny { 5_000 } else { 1_000_000 } / self.nranks as u64;
        layers.resume_bench(spans, report, self.nranks, steps);
        let msg_bytes = layers.bytes_sent / layers.msgs_sent.max(1);
        let target = if tiny { 20_000 } else { 300_000 };
        layers.transfer_bench(spans, &specs, msg_bytes, target);
        layers.codec_bench(spans, report, &keyed, &self.results);
        layers.workload_build_s = self.build_s;
    }
}
