//! `fault_campaign`: the full storm campaign, the storm miner at its smoke
//! budget, and the schedule explorer over the clean explore configs. Every
//! run is traced and invariant-checked by the campaigns themselves; this
//! workload checks their verdicts against the recorded digests.

use std::hint::black_box;
use std::time::Instant;

use ftmpi_check::suite::ring_app;
use ftmpi_check::{
    explore, explore_configs, mine, storm_campaign, ExploreConfig, ExploreOptions, Genome,
    MineOptions, StormOutcome,
};
use ftmpi_core::runner::build_deployment;
use ftmpi_core::{run_job, JobResult, JobSpec};
use ftmpi_sim::SimDuration;

use crate::layers::{persist, Layers};
use crate::outcomes::fnv;
use crate::{ring, Ctx, Workload};

/// The miner's seed and smoke budget, as CI runs it. The full budget
/// currently finds a real restore bug (see NOTES.md), which is not a
/// baseline failure rate.
const MINE_SEED: u64 = 0xf17a;
const MINE_ROUNDS: usize = 12;
/// The explorer's smoke budget (complete runs per config).
const EXPLORE_RUNS: u64 = 1_500;

pub struct Campaign {
    /// The clean explore configs (the race fixtures are regression tests
    /// that must violate, not workload).
    configs: Vec<ExploreConfig>,
    /// Wall seconds of the application construction in the last set-up.
    build_s: f64,
    storm_smoke: bool,
    mine_rounds: usize,
    explore_runs: u64,
    /// Counts from the latest pass.
    storm_runs: u64,
    mine_runs: u64,
    mine_states: u64,
    corpus: Vec<Genome>,
    explore_runs_done: u64,
    explore_pruned: u64,
    explore_deduped: u64,
}

fn storm_verdict(o: &StormOutcome) -> String {
    let (waves_checked, violations) = o.report.as_ref().map_or((0, Vec::new()), |r| {
        (
            r.waves_checked,
            r.violations.iter().map(|v| format!("{v:?}")).collect(),
        )
    });
    format!(
        "{} waves={} restarts={} aborted={} depth={} lost={:.9} orphans={} retries={} \
         suppressed={} expired={} exhausted={} replica_depth={} rerouted={} refetched={} \
         corrupt={} repaired={} quarantined={} checked={waves_checked} violations={violations:?} \
         failures={:?} ok={}",
        o.name,
        o.waves,
        o.restarts,
        o.waves_aborted,
        o.rollback_depth_max,
        o.lost_work_secs,
        o.orphan_images_end,
        o.link_retries,
        o.partitions_suppressed,
        o.partitions_expired,
        o.retries_exhausted,
        o.replica_depth_max,
        o.images_rerouted,
        o.images_refetched,
        o.images_corrupt_detected,
        o.images_repaired,
        o.servers_quarantined,
        o.failures,
        o.ok()
    )
}

impl Campaign {
    fn storm(&mut self, ctx: &mut Ctx) {
        let t = ctx.spans.open("check.storm_campaign", 0);
        let outcomes = storm_campaign(self.storm_smoke);
        ctx.spans.close(t);
        self.storm_runs = outcomes.len() as u64;
        for o in &outcomes {
            let key = format!("storm/{}", o.name);
            let ok = o.ok() && ctx.outcomes.check(&key, fnv(storm_verdict(o).as_bytes()));
            ctx.report.op(ok, key);
        }
    }

    fn mine(&mut self, ctx: &mut Ctx) {
        let t = ctx.spans.open("check.mine", 0);
        let report = mine(MineOptions {
            rounds: self.mine_rounds,
            seed: MINE_SEED,
        });
        ctx.spans.close(t);
        let mut verdict = format!(
            "runs={} discarded={} coverage={:?} violations={}\n",
            report.runs,
            report.discarded,
            report.coverage,
            report.violations.len()
        );
        for (g, class) in &report.corpus {
            verdict.push_str(&format!("{} {}\n", class.as_str(), g.encode()));
        }
        let matches = ctx.outcomes.check("mine", fnv(verdict.as_bytes()));
        let failed = report.violations.len() as u64 + u64::from(!matches);
        ctx.report.ops(report.runs, failed, "storm miner");
        self.mine_runs = report.runs;
        self.mine_states = report.coverage.len() as u64;
        self.corpus = report.corpus.into_iter().map(|(g, _)| g).collect();
    }

    fn explore(&mut self, ctx: &mut Ctx) {
        let opts = ExploreOptions {
            max_runs: self.explore_runs,
            ..ExploreOptions::default()
        };
        (
            self.explore_runs_done,
            self.explore_pruned,
            self.explore_deduped,
        ) = (0, 0, 0);
        for (job, cfg) in self.configs.iter().enumerate() {
            let key = format!("explore/{}", cfg.name);
            let t = ctx.spans.open("check.explore", job as u32);
            let outcome = explore(cfg, &opts);
            ctx.spans.close(t);
            match outcome {
                Ok(o) => {
                    let verdict = format!(
                        "{} exhausted={} outcomes={} violation={}",
                        o.name,
                        o.exhausted,
                        o.distinct_outcomes,
                        o.violation.as_ref().map_or("none", |v| v.kind.as_str())
                    );
                    let ok =
                        o.violation.is_none() && ctx.outcomes.check(&key, fnv(verdict.as_bytes()));
                    ctx.report.ops(o.runs, u64::from(!ok), &key);
                    self.explore_runs_done += o.runs;
                    self.explore_pruned += o.pruned;
                    self.explore_deduped += o.deduped;
                }
                Err(e) => ctx.report.op(false, format!("{key}: {e}")),
            }
        }
    }
}

impl Workload for Campaign {
    fn setup(ctx: &mut Ctx) -> Campaign {
        let configs: Vec<ExploreConfig> = explore_configs()
            .into_iter()
            .filter(|c| !c.expect_violation)
            .collect();
        for cfg in &configs {
            if let Ok(spec) = cfg.spec() {
                black_box(build_deployment(&spec));
            }
        }
        // The application every storm, miner and corpus job runs.
        let t = Instant::now();
        black_box(ring_app(100, 10_000, SimDuration::from_millis(200)));
        let build_s = t.elapsed().as_secs_f64();
        let tiny = ctx.args.tiny;
        Campaign {
            configs,
            build_s,
            storm_smoke: tiny,
            mine_rounds: if tiny { 1 } else { MINE_ROUNDS },
            explore_runs: if tiny { 30 } else { EXPLORE_RUNS },
            storm_runs: 0,
            mine_runs: 0,
            mine_states: 0,
            corpus: Vec::new(),
            explore_runs_done: 0,
            explore_pruned: 0,
            explore_deduped: 0,
        }
    }

    fn pass(&mut self, ctx: &mut Ctx) -> f64 {
        let t = ctx.spans.open("campaign.pass", 0);
        for phase in ctx.order(3) {
            match phase {
                0 => self.storm(ctx),
                1 => self.mine(ctx),
                _ => self.explore(ctx),
            }
        }
        ctx.spans.close(t)
    }

    fn layers(&mut self, ctx: &mut Ctx, layers: &mut Layers, _wall_s: f64) {
        layers.runs_storm = self.storm_runs;
        layers.runs_mine = self.mine_runs;
        layers.mine_coverage_states = self.mine_states;
        layers.runs_explore = self.explore_runs_done;
        layers.explore_pruned = self.explore_pruned;
        layers.explore_deduped = self.explore_deduped;

        // The mined corpus is the campaign's own job set, as the miner
        // kept it: replay it plain, under Dummy, and traced + checked.
        let [small, large] = ring::probe_sizes(ctx.args.tiny);
        layers.ns_per_rank_1e4 = ring::proto_ns_per_rank(ctx, small, ring::PROBE_ITERS);
        layers.ns_per_rank_1e5 = ring::proto_ns_per_rank(ctx, large, ring::PROBE_ITERS);

        let specs: Vec<JobSpec> = self.corpus.iter().map(Genome::build_spec).collect();
        let (spans, report) = (&mut ctx.spans, &mut ctx.report);
        let mut results: Vec<JobResult> = Vec::new();
        let mut keyed: Vec<(String, JobSpec)> = Vec::new();
        for (job, spec) in specs.iter().enumerate() {
            let t = spans.open("job.run", job as u32);
            let res = run_job(spec.clone());
            spans.close(t);
            match res {
                Ok(r) => {
                    layers.add_result(&r);
                    results.push(r);
                    keyed.push(("mine".into(), spec.clone()));
                }
                Err(e) => report.op(false, format!("corpus replay {job}: {e}")),
            }
        }
        let replay_s = spans.total("job.run");
        layers.dummy_rerun(spans, report, &specs);
        layers.proto_wall_s = replay_s - layers.dummy_wall_s;
        layers.traced_check(spans, report, &specs);
        layers.trace_overhead_s = spans.total("trace.run") - replay_s;

        let tiny = ctx.args.tiny;
        let nranks = specs.first().map_or(8, |s| s.nranks);
        layers.queue_bench(spans, nranks, if tiny { 20_000 } else { 400_000 });
        let steps = if tiny { 5_000 } else { 1_000_000 } / nranks as u64;
        layers.resume_bench(spans, report, nranks, steps);
        let msg_bytes = layers.bytes_sent / layers.msgs_sent.max(1);
        let target = if tiny { 20_000 } else { 300_000 };
        layers.transfer_bench(spans, &specs, msg_bytes, target);
        let dir = ctx.args.work_dir.join("warm");
        persist(&dir, &keyed, &results);
        layers.warm_sweep(spans, report, &dir, &keyed, &results);
        layers.codec_bench(spans, report, &keyed, &results);
        layers.workload_build_s = self.build_s;
    }
}
