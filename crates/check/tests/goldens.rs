//! Pinned outcomes of the kill, smoke and storm scenarios: every case must
//! reproduce the recorded digests byte for byte. Each golden is the FNV-1a
//! digest of the full encoded [`ftmpi_core::JobResult`] (the byte
//! representation the persistent memo cache stores), the structured
//! trace's length, and its order-canonical fingerprint — the evidence the
//! figure JSONs and the invariant checker consume. The values were
//! recorded while the coroutine kernel and the former thread-per-rank
//! backend still cross-checked each other state for state, and both
//! produced exactly these.
//!
//! Regenerating a golden is a deliberate act: a change that moves one
//! changes simulated behaviour, and must say so.

use std::fmt::Write as _;

use ftmpi_check::{
    check_trace, figure_smoke_probes, smoke_probes, storm_campaign, trace_fingerprint, StormOutcome,
};
use ftmpi_core::{
    run_job_with, FailurePlan, FtConfig, JobResult, JobSpec, ProtocolChoice, RunOptions, Schedule,
};
use ftmpi_mpi::{app_fn, AppFn};
use ftmpi_sim::{SimDuration, SimTime, TraceEvent};

/// One recorded outcome: result digest, trace length, trace fingerprint.
struct Golden {
    result_fnv: u64,
    trace_len: usize,
    trace_fp: u64,
}

const fn golden(result_fnv: u64, trace_len: usize, trace_fp: u64) -> Golden {
    Golden {
        result_fnv,
        trace_len,
        trace_fp,
    }
}

/// FNV-1a over `bytes` (the scheme `fingerprint.rs` uses for traces).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `spec` traced and assert it reproduces `want`; returns the run for
/// further scenario assertions.
fn assert_golden(name: &str, spec: JobSpec, want: &Golden) -> (JobResult, Vec<TraceEvent>) {
    let opts = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let (res, trace) = run_job_with(spec, opts).expect("golden run");
    assert_eq!(
        fnv1a(res.encode().as_bytes()),
        want.result_fnv,
        "{name}: encoded result moved"
    );
    assert_eq!(trace.len(), want.trace_len, "{name}: trace length moved");
    assert_eq!(
        trace_fingerprint(&trace),
        want.trace_fp,
        "{name}: trace fingerprint moved"
    );
    (res, trace)
}

#[test]
fn smoke_probe_set_matches_goldens() {
    let goldens = [
        (
            "smoke.ring8.pcl",
            golden(0xf17a_aa7d_4eb0_2166, 2266, 0xf407_2c97_b281_e8bb),
        ),
        (
            "smoke.ring8.vcl",
            golden(0x0f13_aae2_5a44_a3e1, 2266, 0xc2c9_68dd_8a52_f734),
        ),
        (
            "smoke.stream2.vcl",
            golden(0x9aba_ebc6_4f0e_df0f, 521, 0xa871_6da4_173c_e949),
        ),
    ];
    // The checker's own counts per probe: protocol records examined,
    // eras, committed waves verified.
    let counts: [(usize, usize, usize); 3] = [(2250, 1, 5), (2250, 1, 5), (517, 1, 1)];
    let probes = smoke_probes();
    let names: Vec<&str> = probes.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = goldens.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the smoke probe set changed");
    for (((name, spec), (_, want)), want_counts) in probes.into_iter().zip(&goldens).zip(counts) {
        let (protocol, nranks) = (spec.protocol, spec.nranks);
        let (_, trace) = assert_golden(&name, spec, want);
        let report = check_trace(protocol, nranks, &trace);
        assert!(report.ok(), "{name}: {:?}", report.violations);
        assert_eq!(
            (report.proto_events, report.eras, report.waves_checked),
            want_counts,
            "{name}: checker counts moved"
        );
    }
}

/// FNV-1a over the trace in raw (execution) order: each record's time,
/// kind (protocol record included) and pid. Unlike the order-canonical
/// fingerprint, this sees the order of same-instant records, so it pins
/// the exact schedule a tie order produced.
fn raw_trace_digest(trace: &[TraceEvent]) -> u64 {
    let mut text = String::new();
    for te in trace {
        writeln!(text, "{} {:?} {:?}", te.time.as_nanos(), te.kind, te.pid)
            .expect("write to a String");
    }
    fnv1a(text.as_bytes())
}

/// The seeded tie orders the smoke perturbation pass samples — the three
/// smoke probes and the four class-S figure probes, each under seeds 1, 2
/// and 3 — pinned by executed-event count and raw-order trace digest. The
/// pass itself compares only order-canonical fingerprints, which a seeded
/// schedule that never reordered anything would match as well.
///
/// Each probe also runs canonically and under an empty prescription, which
/// answers choice 0 at every decision: the kernel's one pop takes choice 0
/// when no policy is installed, so the two runs must agree in event count
/// and raw trace order.
#[test]
fn perturbed_schedules_match_goldens() {
    const GOLDENS: &[(&str, [(u64, u64); 3])] = &[
        (
            "smoke.ring8.pcl",
            [
                (6671, 0xaccf_599d_04d5_27c6),
                (6671, 0x63f4_6c1f_7672_c31e),
                (6671, 0x2d96_47d0_e161_b1ec),
            ],
        ),
        (
            "smoke.ring8.vcl",
            [
                (6671, 0x6ca9_a561_f82d_0e79),
                (6671, 0xd631_5dfe_0163_4359),
                (6671, 0xba59_2198_6a1c_21b5),
            ],
        ),
        (
            "smoke.stream2.vcl",
            [
                (1157, 0xab91_54ba_9443_f340),
                (1157, 0x33aa_f932_dc21_9ac2),
                (1157, 0xab91_54ba_9443_f340),
            ],
        ),
        (
            "bt.S.4.gige.pcl",
            [
                (5346, 0xf341_d6a8_b2c4_fd58),
                (5346, 0x89cc_730a_336c_f0fe),
                (5346, 0x4b90_f6f7_fcb6_a89a),
            ],
        ),
        (
            "bt.S.4.myri.pcl",
            [
                (5346, 0x7186_8348_727a_acc1),
                (5346, 0x10b8_dbbd_5faf_5485),
                (5346, 0xadd9_f79b_b16b_b5c1),
            ],
        ),
        (
            "bt.S.4.grid.pcl",
            [
                (5344, 0xcf43_5129_fa59_c65a),
                (5344, 0xcba0_5db0_2bef_bc70),
                (5344, 0xb7a5_23b9_382f_408a),
            ],
        ),
        (
            "bt.S.4.myri.vcl",
            [
                (4851, 0x2887_86a0_37af_20e5),
                (4851, 0x4e6a_e0b3_f039_56a5),
                (4851, 0x2d51_23c4_48c8_eb29),
            ],
        ),
    ];
    let probes: Vec<(String, JobSpec)> = smoke_probes()
        .into_iter()
        .chain(figure_smoke_probes())
        .collect();
    let names: Vec<&str> = probes.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = GOLDENS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the perturbation target set changed");
    for ((name, spec), (_, want)) in probes.iter().zip(GOLDENS) {
        let [canonical, choice0] = [Schedule::Canonical, Schedule::Prescribed(vec![])].map(|s| {
            let opts = RunOptions {
                trace: true,
                schedule: s,
                ..RunOptions::default()
            };
            let (res, trace) = run_job_with(spec.clone(), opts).expect("unperturbed run");
            (res.events, raw_trace_digest(&trace))
        });
        assert_eq!(
            canonical, choice0,
            "{name}: the canonical order is not choice 0 at every instant"
        );
        for (seed, &(events, digest)) in (1u64..).zip(want) {
            let opts = RunOptions {
                trace: true,
                schedule: Schedule::Seeded(seed),
                ..RunOptions::default()
            };
            let (res, trace) = run_job_with(spec.clone(), opts).expect("perturbed run");
            assert_eq!(res.events, events, "{name} seed {seed}: event count moved");
            assert_eq!(
                raw_trace_digest(&trace),
                digest,
                "{name} seed {seed}: schedule moved"
            );
        }
    }
}

fn ring_app(iters: usize, bytes: u64, compute: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            let req = mpi.irecv(Some(left), Some((i % 997) as i32)).await;
            mpi.send(right, (i % 997) as i32, bytes).await;
            mpi.wait(req).await;
            mpi.compute(compute);
        }
        mpi
    })
}

fn killable_spec(proto: ProtocolChoice) -> JobSpec {
    let mut spec = JobSpec::new(8, proto, ring_app(80, 8_192, SimDuration::from_millis(200)));
    spec.servers = 2;
    spec.ft = FtConfig {
        period: SimDuration::from_secs(3),
        first_wave_delay: SimDuration::from_secs(1),
        image_bytes: 4 << 20,
        ..FtConfig::default()
    };
    spec.max_virtual_time = Some(SimTime::from_nanos(900_000_000_000));
    spec
}

/// A kill landing while the victim is parked in a blocked receive: the
/// kernel drops the rank's suspended state machine, and the job recovers.
#[test]
fn kill_while_suspended_matches_goldens() {
    for (proto, want) in [
        (
            ProtocolChoice::Pcl,
            golden(0x55b7_2aec_babc_69d6, 2058, 0xf089_96ef_f532_1195),
        ),
        (
            ProtocolChoice::Vcl,
            golden(0x898f_df64_7c04_9dba, 2100, 0xcbc2_c73f_e6aa_3c6f),
        ),
    ] {
        let mut spec = killable_spec(proto);
        // Mid-compute/wait, well inside the run and clear of wave windows.
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(5_700_000_000), 3);
        let (protocol, nranks) = (spec.protocol, spec.nranks);
        let (res, trace) = assert_golden(&format!("kill-suspended {proto:?}"), spec, &want);
        assert_eq!(res.rt.restarts, 1);
        assert_eq!(res.leftover_unexpected, 0);
        let report = check_trace(protocol, nranks, &trace);
        assert!(report.ok(), "{proto:?}: {:?}", report.violations);
    }
}

/// A second rank dies while the first failure's recovery is still in
/// flight (inside the dispatcher's `restart_delay` window): the restart
/// state machine must take the recorded transitions.
#[test]
fn kill_during_recovery_matches_goldens() {
    for (proto, want) in [
        (
            ProtocolChoice::Pcl,
            golden(0xcce9_eaa5_b447_04e0, 2060, 0x76a3_8ded_4d24_4eff),
        ),
        (
            ProtocolChoice::Vcl,
            golden(0x4966_e13c_4254_8bf9, 2102, 0x5e13_180e_e230_87d8),
        ),
    ] {
        let mut spec = killable_spec(proto);
        let first = SimTime::from_nanos(5_700_000_000);
        // Default restart_delay is 3 s: the second kill lands 800 ms into
        // the first recovery.
        let second = SimTime::from_nanos(6_500_000_000);
        spec.failures = FailurePlan::kill_at(first, 3).with_kill(second, 6);
        let (protocol, nranks) = (spec.protocol, spec.nranks);
        let (res, trace) = assert_golden(&format!("kill-mid-recovery {proto:?}"), spec, &want);
        assert_eq!(res.rt.restarts, 2);
        assert_eq!(res.leftover_unexpected, 0);
        let report = check_trace(protocol, nranks, &trace);
        assert!(report.ok(), "{proto:?}: {:?}", report.violations);
    }
}

/// The uncoordinated logging protocol's per-rank checkpoint cycles and
/// synchronous log writes, through a single-rank restart.
#[test]
fn mlog_restart_matches_goldens() {
    let mut spec = killable_spec(ProtocolChoice::Mlog);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(5_700_000_000), 3);
    let want = golden(0xbc02_ec7c_04ee_9584, 1305, 0x5e65_fb12_2d67_f42c);
    let (res, _) = assert_golden("mlog-kill", spec, &want);
    assert_eq!(res.rt.restarts, 1);
    assert_eq!(res.leftover_unexpected, 0);
}

/// Digest of one storm scenario's verdict: its name, every
/// [`StormOutcome`] counter (lost work by its `f64` bit pattern), the
/// checker's waves checked and violations, and the scenario's failures.
fn storm_digest(o: &StormOutcome) -> u64 {
    let (checked, violations) = o.report.as_ref().map_or((0, Vec::new()), |r| {
        let v: Vec<String> = r.violations.iter().map(|v| format!("{v:?}")).collect();
        (r.waves_checked, v)
    });
    let text = format!(
        "{} waves={} restarts={} aborted={} depth={} lost={:#x} orphans={} retries={} \
         suppressed={} expired={} exhausted={} replica_depth={} rerouted={} refetched={} \
         corrupt={} repaired={} quarantined={} checked={checked} violations={violations:?} \
         failures={:?}",
        o.name,
        o.waves,
        o.restarts,
        o.waves_aborted,
        o.rollback_depth_max,
        o.lost_work_secs.to_bits(),
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
    );
    fnv1a(text.as_bytes())
}

/// The smoke storm campaign — kills, partitions, node deaths, asymmetric
/// cuts, corruption, quarantine and seeded random storms for both
/// coordinated engines — reproduces every scenario's recorded verdict.
#[test]
fn storm_smoke_campaign_matches_goldens() {
    const GOLDENS: &[(&str, u64)] = &[
        ("storm.midwave.kill.pcl", 0xef88_bb08_4c07_3e4c),
        ("storm.midrecovery.kill.pcl", 0x6b02_a219_7edf_900b),
        ("storm.lag.0.pcl", 0x974b_c0da_4644_b896),
        ("storm.lag.200ms.pcl", 0x7717_7ce6_eea1_9886),
        ("storm.lag.1s.pcl", 0xcbca_8910_0c91_fbd7),
        ("storm.serverloss.fallback.pcl", 0x7101_3d2b_9247_cf3f),
        ("storm.serverloss.replicas.pcl", 0x64af_308e_ecbf_f4ea),
        ("storm.serverloss.midwave.pcl", 0xdcbb_dad7_4bb3_b8d8),
        ("storm.midwave.kill.vcl", 0x24e0_1c10_343a_df25),
        ("storm.midrecovery.kill.vcl", 0xe44b_ce46_4f95_d015),
        ("storm.lag.0.vcl", 0xfbfd_d861_0e7a_2ff4),
        ("storm.lag.200ms.vcl", 0x44d5_ceb4_bc43_2bf4),
        ("storm.lag.1s.vcl", 0x6ce7_0354_d1cd_e839),
        ("storm.serverloss.fallback.vcl", 0x235e_6376_944a_4197),
        ("storm.serverloss.replicas.vcl", 0x14aa_4784_4407_c2d9),
        ("storm.serverloss.midwave.vcl", 0x8111_989b_4b4b_08a2),
        ("storm.partition.heal.pcl", 0xd337_0282_770f_42f3),
        ("storm.partition.midwave.pcl", 0x6ecf_1a1e_c6aa_3c45),
        ("storm.partition.recovery.pcl", 0x0bda_fc7a_3f1a_a540),
        (
            "storm.partition.fetchdup.control.pcl",
            0x59d9_cead_6764_a066,
        ),
        ("storm.partition.fetchdup.pcl", 0xf2aa_5291_5174_3710),
        ("storm.nodekill.colocated.pcl", 0x9abb_f8bd_9d85_74a9),
        ("storm.nodekill.soloreplica.pcl", 0xe2e9_ec87_d395_f6ec),
        ("storm.flap.push.pcl", 0x9c07_3878_da6b_9e6b),
        ("storm.partition.outbound.pcl", 0x6263_104a_2866_5566),
        ("storm.serverpart.reroute.pcl", 0xf522_659a_0f3b_1698),
        ("storm.serverpart.fetch.pcl", 0xfd29_74dc_743d_990a),
        ("storm.corrupt.flipfetch.pcl", 0x35de_4a6a_be76_0ba8),
        ("storm.corrupt.scrubrace.pcl", 0xd954_a311_b9ba_bde2),
        ("storm.corrupt.allreplicas.pcl", 0x5f1f_7de7_344e_3810),
        ("storm.corrupt.tornwrite.pcl", 0x7fc7_2547_ee10_273f),
        ("storm.corrupt.quarantine.pcl", 0x5cc6_2932_5206_dcd3),
        ("storm.partition.heal.vcl", 0x9acf_44f2_a05e_190a),
        ("storm.partition.midwave.vcl", 0xf986_0a18_fe22_99c5),
        ("storm.partition.recovery.vcl", 0x0289_2746_9069_ef36),
        (
            "storm.partition.fetchdup.control.vcl",
            0xb2ea_daf0_5541_66c4,
        ),
        ("storm.partition.fetchdup.vcl", 0x52b0_1d74_e578_e566),
        ("storm.nodekill.colocated.vcl", 0x2ec1_f165_c687_a7fb),
        ("storm.nodekill.soloreplica.vcl", 0xf6ed_7cd2_2992_7464),
        ("storm.flap.push.vcl", 0xa6d9_8b78_d141_bcaa),
        ("storm.partition.outbound.vcl", 0x3799_d9af_3dce_75fe),
        ("storm.serverpart.reroute.vcl", 0x90bb_bc92_6ebe_8ede),
        ("storm.serverpart.fetch.vcl", 0x48b2_3736_372f_2c98),
        ("storm.corrupt.flipfetch.vcl", 0x083f_8e4f_b727_25da),
        ("storm.corrupt.scrubrace.vcl", 0xf3e8_069f_e4ed_52a0),
        ("storm.corrupt.allreplicas.vcl", 0x9d67_48e1_627b_57e6),
        ("storm.corrupt.tornwrite.vcl", 0x16c4_248b_ab0d_91b3),
        ("storm.corrupt.quarantine.vcl", 0x7875_85ed_befc_5969),
        ("storm.midwave.kill.stream2", 0x0637_01a8_6f11_7813),
        ("storm.random.pcl.seed1", 0x6b33_a2a2_560e_62a2),
        ("storm.random.pcl.seed2", 0x1972_9645_ff88_1884),
        ("storm.random.vcl.seed1", 0x070b_fd38_7241_e94f),
        ("storm.random.vcl.seed2", 0xb8bb_2b46_e0bd_5e25),
    ];
    let outcomes = storm_campaign(true);
    let got: Vec<(&str, u64)> = outcomes
        .iter()
        .map(|o| (o.name.as_str(), storm_digest(o)))
        .collect();
    let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
    let pinned: Vec<&str> = GOLDENS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the storm scenario set changed");
    for ((name, digest), (_, want)) in got.iter().zip(GOLDENS) {
        assert_eq!(digest, want, "{name}: storm verdict moved");
    }
    for o in &outcomes {
        assert!(o.ok(), "{}: {:?}", o.name, o.failures);
    }
}
