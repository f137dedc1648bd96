//! Parallel experiment engine.
//!
//! Every figure/table harness reproduces a paper sweep by running dozens of
//! independent jobs — each with its own [`Sim`](ftmpi_sim::Sim), `World`
//! and network model. [`SweepRunner`] executes them on a bounded worker
//! pool and returns results **in input order**, so tables and JSON records
//! are byte-identical to a sequential run regardless of `--jobs`.
//!
//! Each job builds its whole simulation — `Sim`, `World`, network model —
//! on the worker thread that runs it: a simulation is single-threaded and
//! never crosses threads. Only the `JobSpec` going in and the `JobResult`
//! coming out do, which is why specs (and the application closures inside
//! them) are `Send + Sync`.
//!
//! A [`MemoCache`] keyed by a deterministic spec fingerprint lets callers
//! skip re-simulating configurations shared across figures (`ftmpi-bench
//! figure all` runs every harness in one process against one cache). With
//! [`MemoCache::persistent`] the cache gains a disk tier (one file per
//! fingerprint, written atomically) shared across processes: a warm rerun
//! of a figure performs zero simulations.

use std::collections::HashMap;
use std::io::Read;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ftmpi_core::{run_job, JobError, JobResult, JobSpec};

/// Deterministic fingerprint of everything that decides a job's result:
/// the workload tag, then the spec's `Debug` text. That text prints every
/// `JobSpec` field but the application closure, exactly (times to the
/// nanosecond, floats round-trip), and a field it does not print fails to
/// compile, so no knob can be left out of the key.
///
/// `workload_tag` must uniquely identify the application closure *and its
/// calibration* — the figure harness passes `Workload::name` because its
/// machine rates are fixed per benchmark ([`crate::bt_machine`] /
/// [`crate::cg_machine`]); callers with varying calibrations must fold the
/// machine rate into the tag. Jobs whose app closures have side effects
/// (e.g. NetPIPE sample collectors) must not be memoized at all: a cache
/// hit skips the run that would fill the side channel.
pub fn spec_fingerprint(workload_tag: &str, spec: &JobSpec) -> String {
    format!("wl={workload_tag};{spec:?}")
}

/// Two-lane FNV-1a over `bytes`, continuing from `state`: two different
/// bases give the two halves of a 128-bit digest, making accidental
/// collisions implausible. The lanes run in one loop so their multiply
/// chains overlap.
fn fnv128(bytes: &[u8], (mut a, mut b): (u64, u64)) -> (u64, u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &x in bytes {
        a = (a ^ x as u64).wrapping_mul(PRIME);
        b = (b ^ x as u64).wrapping_mul(PRIME);
    }
    (a, b)
}

/// The starting state of [`fnv128`].
const FNV_BASES: (u64, u64) = (0xcbf2_9ce4_8422_2325, 0x8422_2325_cbf2_9ce4);

/// The disk entry file name of `key`: `r-` and its 128-bit hash.
fn entry_name(key: &str) -> String {
    let (a, b) = fnv128(key.as_bytes(), FNV_BASES);
    format!("r-{a:016x}{b:016x}")
}

/// The first line of every disk entry: a 128-bit digest of the running
/// executable. A hit then needs the same binary and the same spec, and
/// determinism makes that the same result; a rebuilt binary misses and
/// overwrites its stale entries in place (file names hash the key alone).
/// Read once per process, on the first disk access, through one 64 KiB
/// buffer. `None` when the executable cannot be read: every cache then
/// stays memory-only.
fn code_identity() -> Option<&'static str> {
    static IDENTITY: OnceLock<Option<String>> = OnceLock::new();
    IDENTITY
        .get_or_init(|| {
            let mut exe = std::fs::File::open(std::env::current_exe().ok()?).ok()?;
            let mut buf = vec![0u8; 64 * 1024];
            let mut state = FNV_BASES;
            loop {
                match exe.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => state = fnv128(&buf[..n], state),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return None,
                }
            }
            Some(format!("exe={:016x}{:016x}", state.0, state.1))
        })
        .as_deref()
}

/// Parse one entry file written by the executable `identity` names: the
/// `exe=` code-identity line, then `key=` and `len=` lines, then exactly
/// `len` payload bytes. Returns `(key, payload)`; `None` for anything
/// else — truncated, bit-flipped, or another binary's — tells the caller
/// to delete the file.
fn parse_entry<'a>(text: &'a str, identity: &str) -> Option<(&'a str, &'a str)> {
    let rest = text.strip_prefix(identity)?.strip_prefix("\nkey=")?;
    let (key, rest) = rest.split_once("\nlen=")?;
    let (len, payload) = rest.split_once('\n')?;
    (len.parse::<usize>().ok()? == payload.len()).then_some((key, payload))
}

/// Cross-sweep memoization of successful job results.
///
/// Only `Ok` results are cached: errors are either instant to recompute
/// (the Vcl process-limit refusal) or indicate model bugs worth re-hitting.
///
/// Created with [`MemoCache::persistent`], the cache also maintains a disk
/// tier: one file per fingerprint under the given directory, containing the
/// writing executable's digest, the full fingerprint (hash collisions are
/// detected, not trusted), a payload length, and the integer-encoded
/// result. Files are written atomically (unique temp file + rename) so
/// concurrent processes sharing the directory can only ever observe
/// complete entries; anything that fails validation — truncated,
/// bit-flipped, written by another build — is deleted and recomputed,
/// never an error.
#[derive(Default)]
pub struct MemoCache {
    map: Mutex<HashMap<String, JobResult>>,
    disk: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoCache {
    /// A fresh, shareable, memory-only cache.
    pub fn new() -> Arc<MemoCache> {
        Arc::new(MemoCache::default())
    }

    /// A cache backed by `dir` (created on first write). A cold run is one
    /// against a fresh `dir`.
    pub fn persistent(dir: impl Into<PathBuf>) -> Arc<MemoCache> {
        Arc::new(MemoCache {
            disk: Some(dir.into()),
            ..MemoCache::default()
        })
    }

    /// Look up a fingerprint, counting the hit/miss. Memory first, then the
    /// disk tier (a disk hit is promoted into memory).
    pub fn get(&self, key: &str) -> Option<JobResult> {
        if let Some(r) = self.map.lock().unwrap().get(key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(r);
        }
        if let Some(payload) = self.load_disk(key) {
            match JobResult::decode(&payload) {
                Some(result) => {
                    self.map
                        .lock()
                        .unwrap()
                        .insert(key.to_string(), result.clone());
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(result);
                }
                None => self.discard_disk(key),
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a successful result under its fingerprint (and on disk, for
    /// persistent caches).
    pub fn put(&self, key: String, result: JobResult) {
        self.store_disk(&key, &result.encode());
        self.map.lock().unwrap().insert(key, result);
    }

    fn cache_path(&self, key: &str) -> Option<PathBuf> {
        self.disk.as_ref().map(|dir| dir.join(entry_name(key)))
    }

    /// Read and validate one disk entry; invalid entries are deleted.
    fn load_disk(&self, key: &str) -> Option<String> {
        let path = self.cache_path(key)?;
        let identity = code_identity()?;
        let text = std::fs::read_to_string(&path).ok()?;
        let payload = parse_entry(&text, identity)
            .filter(|&(k, _)| k == key)
            .map(|(_, payload)| payload.to_string());
        if payload.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        payload
    }

    fn discard_disk(&self, key: &str) {
        if let Some(path) = self.cache_path(key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Best-effort atomic write: failures (full disk, bad permissions) just
    /// mean the entry stays memory-only.
    fn store_disk(&self, key: &str, payload: &str) {
        let Some(dir) = self.disk.as_ref() else {
            return;
        };
        let (Some(path), Some(identity)) = (self.cache_path(key), code_identity()) else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let entry = format!("{identity}\nkey={key}\nlen={}\n{payload}", payload.len());
        if std::fs::write(&tmp, entry).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// `(hits, misses)` counters since creation (disk hits count as hits).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Hits served from the disk tier.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Number of cached configurations in memory.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.lock().unwrap().is_empty()
    }

    /// One-line human summary, printed by the bench binaries (and grepped
    /// by the CI cache round-trip check).
    pub fn summary(&self) -> String {
        let (hits, misses) = self.stats();
        format!(
            "memo cache: {} configurations, {hits} hits ({} from disk) / {misses} misses",
            self.len(),
            self.disk_hits()
        )
    }
}

/// What one [`prune_cache`] pass did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PruneReport {
    /// Files examined (cache entries, temp leftovers, strangers).
    pub scanned: usize,
    /// Valid entries still present afterwards.
    pub kept: usize,
    /// Files deleted (invalid, written by another build, orphaned temps, or
    /// evicted for the byte budget).
    pub removed: usize,
    /// Total size of the scanned files.
    pub bytes_before: u64,
    /// Total size of the kept entries.
    pub bytes_after: u64,
}

/// Prune a persistent cache directory: delete leftover temp files and every
/// entry the running executable would not load (another build's, filename
/// not matching its own key hash, truncated payload), then — if
/// `max_bytes` is given — evict oldest-modified valid entries until the
/// directory fits the budget.
///
/// Files not recognizably ours (no `r-` or `.tmp-` prefix) are counted
/// in `scanned` but never touched. A missing directory is an empty, already
/// pruned cache, not an error; an unreadable executable is, since no entry
/// could then be told valid.
pub fn prune_cache(dir: &std::path::Path, max_bytes: Option<u64>) -> std::io::Result<PruneReport> {
    let mut report = PruneReport::default();
    let identity = code_identity().ok_or_else(|| {
        std::io::Error::other("the running executable cannot be read to validate entries")
    })?;
    let entries = match std::fs::read_dir(dir) {
        Ok(it) => it,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    // (mtime, path, size) of valid entries, for oldest-first eviction.
    let mut valid: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        report.scanned += 1;
        report.bytes_before += meta.len();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(".tmp-") {
            // A crashed writer's leftover: atomic renames never leave these.
            if std::fs::remove_file(&path).is_ok() {
                report.removed += 1;
            }
            continue;
        }
        if !name.starts_with("r-") {
            continue; // not ours; leave it alone (but it was scanned)
        }
        let ok = std::fs::read_to_string(&path).ok().is_some_and(|text| {
            parse_entry(&text, identity).is_some_and(|(key, _)| name == entry_name(key))
        });
        if ok {
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            valid.push((mtime, path, meta.len()));
        } else if std::fs::remove_file(&path).is_ok() {
            report.removed += 1;
        }
    }
    // Budget eviction: oldest first; ties broken by path for determinism.
    valid.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut total: u64 = valid.iter().map(|(_, _, s)| s).sum();
    if let Some(budget) = max_bytes {
        while total > budget {
            let Some((_, path, size)) = valid.first().cloned() else {
                break;
            };
            valid.remove(0);
            if std::fs::remove_file(&path).is_ok() {
                report.removed += 1;
            }
            total -= size;
        }
    }
    report.kept = valid.len();
    report.bytes_after = total;
    Ok(report)
}

/// One planned job: a display label, an optional memoization key, and the
/// spec to run.
struct PlannedJob {
    label: String,
    key: Option<String>,
    spec: JobSpec,
}

/// Everything the runner knows about one finished job.
pub struct JobOutcome {
    /// The label given at [`SweepRunner::add`] time.
    pub label: String,
    /// The job's result (or why it could not run).
    pub result: Result<JobResult, JobError>,
    /// Wall-clock the job took on its worker (≈0 for cache hits).
    pub wall: Duration,
    /// Whether the result came from the [`MemoCache`].
    pub cached: bool,
}

/// Parallel sweep executor. See the module docs for the guarantees.
pub struct SweepRunner {
    workers: usize,
    cache: Option<Arc<MemoCache>>,
    jobs: Vec<PlannedJob>,
}

impl SweepRunner {
    /// A runner executing on `workers` worker threads (1 = sequential).
    pub fn new(workers: usize) -> SweepRunner {
        SweepRunner {
            workers: workers.max(1),
            cache: None,
            jobs: Vec::new(),
        }
    }

    /// Attach a memo cache consulted for every keyed job.
    pub fn with_cache(mut self, cache: Arc<MemoCache>) -> SweepRunner {
        self.cache = Some(cache);
        self
    }

    /// Queue an unkeyed job: it always simulates and never touches the
    /// cache. Returns its index into the results of [`run`].
    ///
    /// [`run`]: SweepRunner::run
    pub fn add(&mut self, label: impl Into<String>, spec: JobSpec) -> usize {
        self.jobs.push(PlannedJob {
            label: label.into(),
            key: None,
            spec,
        });
        self.jobs.len() - 1
    }

    /// Queue a memoizable job under its [`spec_fingerprint`]:
    /// `workload_tag` and the spec identify the configuration across
    /// sweeps (see [`spec_fingerprint`] for the caller's obligations).
    pub fn add_spec(
        &mut self,
        label: impl Into<String>,
        workload_tag: &str,
        spec: JobSpec,
    ) -> usize {
        self.jobs.push(PlannedJob {
            label: label.into(),
            key: Some(spec_fingerprint(workload_tag, &spec)),
            spec,
        });
        self.jobs.len() - 1
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Execute every queued job; results in input order.
    pub fn run(self) -> Vec<Result<JobResult, JobError>> {
        self.run_detailed().into_iter().map(|o| o.result).collect()
    }

    /// Execute every queued job; outcomes (result + wall + cache flag) in
    /// input order.
    pub fn run_detailed(self) -> Vec<JobOutcome> {
        let n = self.jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        let cache = self.cache;
        if workers <= 1 {
            return self
                .jobs
                .into_iter()
                .map(|j| execute(j, cache.as_deref()))
                .collect();
        }
        let slots: Vec<Mutex<Option<PlannedJob>>> =
            self.jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let outcomes: Vec<Mutex<Option<JobOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let job = slots[i].lock().unwrap().take().expect("job claimed twice");
                    let outcome = execute(job, cache.as_deref());
                    *outcomes[i].lock().unwrap() = Some(outcome);
                });
            }
        });
        outcomes
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("worker pool exited with a job unfinished")
            })
            .collect()
    }
}

fn execute(job: PlannedJob, cache: Option<&MemoCache>) -> JobOutcome {
    let start = Instant::now();
    if let (Some(cache), Some(key)) = (cache, job.key.as_deref()) {
        if let Some(hit) = cache.get(key) {
            return JobOutcome {
                label: job.label,
                result: Ok(hit),
                wall: start.elapsed(),
                cached: true,
            };
        }
    }
    let result = run_job(job.spec);
    if let (Some(cache), Some(key), Ok(res)) = (cache, job.key, result.as_ref()) {
        cache.put(key, res.clone());
    }
    JobOutcome {
        label: job.label,
        result,
        wall: start.elapsed(),
        cached: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi_core::{Platform, ProtocolChoice};
    use ftmpi_nas::synth;
    use ftmpi_sim::SimDuration;

    /// Tiny deterministic job: a 4-rank token ring, `laps * 4` messages.
    fn ring_spec(laps: usize) -> JobSpec {
        JobSpec::new(4, ProtocolChoice::Dummy, synth::token_ring(laps, 256))
    }

    /// Everything that must be bit-identical between runs of the same spec.
    fn digest(r: &JobResult) -> (u64, u64, u64, u64) {
        (r.completion.as_nanos(), r.events, r.rt.msgs_sent, r.waves())
    }

    #[test]
    fn results_are_returned_in_input_order() {
        // Mixed-duration jobs on several workers: completion order differs
        // from input order, result order must not.
        let laps = [40usize, 1, 25, 3, 10, 2];
        let mut runner = SweepRunner::new(4);
        for l in laps {
            runner.add(format!("laps{l}"), ring_spec(l));
        }
        let outcomes = runner.run_detailed();
        let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(
            labels,
            ["laps40", "laps1", "laps25", "laps3", "laps10", "laps2"]
        );
        for (o, l) in outcomes.iter().zip(laps) {
            assert_eq!(o.result.as_ref().unwrap().rt.msgs_sent, (l * 4) as u64);
            assert!(!o.cached);
        }
    }

    #[test]
    fn parallel_run_matches_sequential_bit_for_bit() {
        let run_with = |workers: usize| {
            let mut runner = SweepRunner::new(workers);
            for laps in 1..=8usize {
                runner.add(format!("j{laps}"), ring_spec(laps * 5));
            }
            runner
                .run()
                .into_iter()
                .map(|r| digest(&r.unwrap()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_with(1), run_with(8));
    }

    #[test]
    fn memo_cache_returns_identical_metrics_without_resimulating() {
        let cache = MemoCache::new();
        let run = || {
            let mut r = SweepRunner::new(2).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            r.run_detailed().pop().unwrap()
        };
        let first = run();
        assert!(!first.cached);
        let second = run();
        assert!(second.cached, "identical spec should hit the cache");
        assert_eq!(
            digest(first.result.as_ref().unwrap()),
            digest(second.result.as_ref().unwrap())
        );
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fingerprint_distinguishes_every_varied_dimension() {
        let base = ring_spec(12);
        let key = |s: &JobSpec| spec_fingerprint("ring12", s);
        assert_eq!(key(&base), key(&ring_spec(12)), "fingerprint is stable");
        assert_ne!(key(&base), spec_fingerprint("ring13", &base));

        let mut other = ring_spec(12);
        other.ft.period = SimDuration::from_millis(123);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.servers = 7;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.platform = Platform::Grid;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.failures = ftmpi_core::FailurePlan::kill_at(ftmpi_sim::SimTime::from_nanos(5), 1);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.failures =
            ftmpi_core::FailurePlan::server_kill_at(ftmpi_sim::SimTime::from_nanos(5), 0);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft.detection_delay = SimDuration::from_millis(200);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft.replicas = 2;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft.retained_waves = 3;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft = other.ft.with_partition_rollback_after_secs(4.0);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.failures =
            ftmpi_core::FailurePlan::node_kill_at(ftmpi_sim::SimTime::from_nanos(5), 2);
        assert_ne!(key(&base), key(&other));

        use ftmpi_net::{NetFaultPlan, NodeId};
        use ftmpi_sim::SimTime;
        let mut other = ring_spec(12);
        other.net_faults =
            NetFaultPlan::none().with_link_down(SimTime::from_nanos(5), NodeId(0), NodeId(1));
        assert_ne!(key(&base), key(&other));

        let mut degraded = ring_spec(12);
        degraded.net_faults = NetFaultPlan::none().with_link_degrade(
            SimTime::from_nanos(5),
            NodeId(0),
            NodeId(1),
            2.0,
        );
        assert_ne!(key(&base), key(&degraded));
        let mut degraded_other = ring_spec(12);
        degraded_other.net_faults = NetFaultPlan::none().with_link_degrade(
            SimTime::from_nanos(5),
            NodeId(0),
            NodeId(1),
            f64::from_bits(2.0f64.to_bits() + 1),
        );
        // A one-ulp factor difference is a different configuration.
        assert_ne!(key(&degraded), key(&degraded_other));

        let mut other = ring_spec(12);
        other.net_faults =
            NetFaultPlan::none().with_partition("p", vec![NodeId(0)], SimTime::from_nanos(5), None);
        assert_ne!(key(&base), key(&other));
        let mut healed = ring_spec(12);
        healed.net_faults = NetFaultPlan::none().with_partition(
            "p",
            vec![NodeId(0)],
            SimTime::from_nanos(5),
            Some(SimTime::from_nanos(9)),
        );
        assert_ne!(key(&other), key(&healed));

        // One nanosecond apart is a different configuration: a kill, the
        // wave period, a proactive wave trigger, a flap window's end.
        let ns = |t: u64| SimTime::from_nanos(t);
        let kill = |t| {
            let mut s = ring_spec(12);
            s.failures = ftmpi_core::FailurePlan::kill_at(ns(t), 1);
            key(&s)
        };
        assert_ne!(kill(5), kill(6));
        let mut other = ring_spec(12);
        other.ft.period = base.ft.period + SimDuration::from_nanos(1);
        assert_ne!(key(&base), key(&other));
        let trigger = |t| {
            let mut s = ring_spec(12);
            s.wave_triggers = vec![ns(t)];
            key(&s)
        };
        assert_ne!(trigger(5), trigger(6));
        let flap = |end| {
            let mut s = ring_spec(12);
            s.net_faults = NetFaultPlan::none().with_link_flap(ftmpi_net::LinkFlapSpec {
                from: NodeId(0),
                to: NodeId(1),
                start: ns(5),
                end: ns(end),
                mttf: SimDuration::from_millis(1),
                mttr: SimDuration::from_millis(1),
                seed: 7,
            });
            key(&s)
        };
        assert_ne!(flap(1_000), flap(1_001));
    }

    /// A unique scratch dir for one test (no wallclock involved).
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> ScratchDir {
            let dir =
                std::env::temp_dir().join(format!("ftmpi-sweep-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn persistent_cache_survives_process_boundaries() {
        let scratch = ScratchDir::new("persist");
        let key = spec_fingerprint("ring12", &ring_spec(12));
        // "Process one": simulate and store.
        let first = {
            let cache = MemoCache::persistent(&scratch.0);
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            let out = r.run_detailed().pop().unwrap();
            assert!(!out.cached);
            assert_eq!(cache.disk_hits(), 0);
            out.result.unwrap()
        };
        // "Process two": a fresh cache instance over the same directory must
        // serve the result from disk, bit-for-bit, without simulating.
        let cache = MemoCache::persistent(&scratch.0);
        assert!(cache.is_empty(), "fresh instance starts with empty memory");
        let warm = cache.get(&key).expect("disk tier should hit");
        assert_eq!(cache.disk_hits(), 1);
        assert_eq!(digest(&warm), digest(&first));
        assert_eq!(warm.encode(), first.encode());
    }

    #[test]
    fn prune_removes_garbage_and_keeps_valid_entries() {
        let scratch = ScratchDir::new("prune");
        // One valid entry.
        {
            let cache = MemoCache::persistent(&scratch.0);
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            r.run_detailed().pop().unwrap().result.unwrap();
        }
        // Garbage: an orphaned temp file, a corrupt entry, another build's
        // well-formed entry, a stranger file.
        std::fs::write(scratch.0.join(".tmp-999-0"), "half-written").unwrap();
        std::fs::write(scratch.0.join(entry_name("bogus")), "not a cache entry").unwrap();
        std::fs::write(
            scratch.0.join(entry_name("old")),
            format!("exe={}\nkey=old\nlen=1\nx", "0".repeat(32)),
        )
        .unwrap();
        std::fs::write(scratch.0.join("README"), "hands off").unwrap();

        let report = prune_cache(&scratch.0, None).unwrap();
        assert_eq!(report.scanned, 5);
        assert_eq!(
            report.removed, 3,
            "temp, corrupt and foreign go; stranger stays"
        );
        assert_eq!(report.kept, 1);
        assert!(scratch.0.join("README").exists());
        // The surviving entry still decodes.
        let cache = MemoCache::persistent(&scratch.0);
        let key = spec_fingerprint("ring12", &ring_spec(12));
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn prune_budget_evicts_down_to_max_bytes() {
        let scratch = ScratchDir::new("prune-budget");
        let cache = MemoCache::persistent(&scratch.0);
        let result = run_job(ring_spec(1)).unwrap();
        for i in 0..4u64 {
            cache.put(format!("ring/{i}"), result.clone());
        }
        let full = prune_cache(&scratch.0, None).unwrap();
        assert_eq!(full.kept, 4);
        let budget = full.bytes_after / 2;
        let report = prune_cache(&scratch.0, Some(budget)).unwrap();
        assert!(report.bytes_after <= budget);
        assert!(report.kept < 4 && report.removed > 0);
        // A zero budget empties the cache; a missing dir is fine.
        let report = prune_cache(&scratch.0, Some(0)).unwrap();
        assert_eq!(report.kept, 0);
        assert_eq!(report.bytes_after, 0);
        let report = prune_cache(&scratch.0.join("nonexistent"), Some(0)).unwrap();
        assert_eq!(report, PruneReport::default());
    }

    #[test]
    fn corrupt_cache_entries_are_discarded_and_recomputed() {
        let scratch = ScratchDir::new("corrupt");
        let key = spec_fingerprint("ring12", &ring_spec(12));
        {
            let cache = MemoCache::persistent(&scratch.0);
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            r.run_detailed().pop().unwrap().result.unwrap();
        }
        let entry = std::fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("r-"))
            .expect("cache entry written")
            .path();
        let pristine = std::fs::read(&entry).unwrap();
        let body = &pristine[pristine.iter().position(|&b| b == b'\n').unwrap()..];
        // Every single-byte bit-flip (and a truncation, and another build's
        // code identity) must read as a miss — recomputed, never a panic or
        // a wrong result.
        let corruptions: Vec<Vec<u8>> = (0..pristine.len().min(64))
            .map(|i| {
                let mut c = pristine.clone();
                c[i] ^= 0x10;
                c
            })
            .chain([
                pristine[..pristine.len() / 2].to_vec(),
                [format!("exe={}", "0".repeat(32)).as_bytes(), body].concat(),
            ])
            .collect();
        for corrupt in corruptions {
            std::fs::write(&entry, &corrupt).unwrap();
            let cache = MemoCache::persistent(&scratch.0);
            assert!(
                cache.get(&key).is_none(),
                "corrupt entry must miss, not decode"
            );
            assert!(!entry.exists(), "corrupt entry must be deleted");
            // And the sweep transparently recomputes + rewrites it.
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            let out = r.run_detailed().pop().unwrap();
            assert!(!out.cached);
            out.result.unwrap();
            assert!(entry.exists(), "entry rewritten after recompute");
        }
    }
}
