//! Pinned outcomes of the kill and smoke scenarios: every case must
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

use ftmpi_check::{check_trace, smoke_probes, trace_fingerprint};
use ftmpi_core::{
    run_job_with, FailurePlan, FtConfig, JobResult, JobSpec, ProtocolChoice, RunOptions,
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
    let probes = smoke_probes();
    let names: Vec<&str> = probes.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = goldens.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the smoke probe set changed");
    for ((name, spec), (_, want)) in probes.into_iter().zip(&goldens) {
        let (protocol, nranks) = (spec.protocol, spec.nranks);
        let (_, trace) = assert_golden(&name, spec, want);
        let report = check_trace(protocol, nranks, &trace);
        assert!(report.ok(), "{name}: {:?}", report.violations);
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
