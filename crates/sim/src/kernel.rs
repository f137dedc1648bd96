//! The simulation kernel: event loop, process table, and the [`SimCtx`]
//! service handle exposed to model code.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::event::{Event, EventId, EventKind, EventQueue};
use crate::pool::{self, LeaseGroup};
use crate::process::{
    Driver, Handoff, Pid, ProcCtx, ProcessExit, ResumeOutcome, WakeKind, WakeSlot,
};
use crate::schedule::{Candidate, CandidateKind, Decision, SchedulePolicy, StepRecord};
use crate::table::ProcTable;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKind, Tracer};
use crate::wakes::WakeBatch;
use crate::KilledSignal;

/// A process body compiled to a resumable state machine, owned by the kernel
/// and stepped inline from the drive loop.
type CoroFuture = Pin<Box<dyn Future<Output = ()> + Send>>;
/// Deferred coroutine constructor: runs at the first Normal wake so the
/// process's local clock starts at its actual start time (the coroutine
/// analogue of the threaded backend's `wait_first_wake`).
type EmbryoFn = Box<dyn FnOnce(ProcCtx) -> CoroFuture + Send>;

/// Execution state of one simulated process.
enum ProcBody {
    /// Coroutine backend, not yet started: the constructor runs at the
    /// first Normal wake (a first wake of Killed drops it unstarted).
    Embryo(EmbryoFn),
    /// Coroutine backend, parked between wakes: the kernel deposits the
    /// next wake in `slot` and polls `fut` inline — a Resume event is a
    /// direct method call, no thread, no Condvar round-trip.
    Coro {
        fut: CoroFuture,
        slot: Arc<WakeSlot>,
    },
    /// Checked out by the drive loop for a poll. The machine cannot stay in
    /// the table while polled: polling reenters the kernel state lock
    /// through `schedule_exec`.
    Running,
    /// Threaded backend (`FTMPI_THREADED=1`): the token-handoff rendezvous,
    /// plus the join handle of a dedicated (`FTMPI_NO_POOL`) thread; pooled
    /// workers are never joined — teardown quiesces the lease group instead.
    Threaded {
        handoff: Arc<Handoff>,
        join: Option<JoinHandle<()>>,
    },
    /// Exited; nothing left to drive.
    Gone,
}

struct ProcEntry {
    name: Arc<str>,
    body: ProcBody,
    alive: bool,
    /// The event scheduled by the process's current `exec` call, if any.
    /// Cancelled when the process dies so a dead process's pending request
    /// neither mutates model state nor advances the clock.
    pending_exec: Option<EventId>,
}

pub(crate) struct KernelState {
    queue: EventQueue,
    now: SimTime,
    /// Dense pid-indexed table: pids are sequential and never reused, so
    /// the kernel hot path (resume/kill/exec) avoids hashing entirely.
    procs: ProcTable<ProcEntry>,
    next_pid: u64,
    /// `true`: spawn processes on the legacy OS-thread backend
    /// (`FTMPI_THREADED` / [`Sim::force_threaded`]). `false` (default):
    /// processes are kernel-driven stackless coroutines.
    threaded: bool,
    stop_requested: bool,
    executed: u64,
    max_events: Option<u64>,
    max_time: Option<SimTime>,
    tracer: Tracer,
    /// Exit records in completion order.
    exits: Vec<(Pid, Arc<str>, ProcessExit)>,
    /// Condvar round-trips avoided by delivering same-time wake batches in
    /// one token handoff (reported in [`RunReport::handoffs_saved`]).
    handoffs_saved: u64,
    /// Exploration mode: a controller choosing among same-instant
    /// candidates ([`Sim::set_schedule_policy`]). `None` in ordinary runs —
    /// the pop path is then exactly the policy-free fast path.
    policy: Option<Box<dyn SchedulePolicy>>,
    /// Multi-candidate instants recorded in exploration mode.
    decisions: Vec<Decision>,
    /// One record per executed event in exploration mode (effect windows
    /// into the trace).
    steps: Vec<StepRecord>,
}

/// Outcome of one exploration-mode pop attempt.
enum PolicyPop {
    /// The queue is empty (deadlock check decides success).
    Drained,
    /// The next instant lies past `max_time`; stop was requested.
    Horizon,
    /// Everything at the earliest instant was stale; look again.
    Retry,
    /// The policy's pick, removed from the queue and ready to dispatch.
    Run(Event),
}

impl KernelState {
    /// The exploration-mode pop: gather every live event at the earliest
    /// instant, offer the per-lane fronts (plus all laneless events) to the
    /// policy, execute its pick, and return the rest to the queue. Records
    /// a [`Decision`] for every real choice point and a [`StepRecord`] for
    /// every executed event.
    fn pop_with_policy(&mut self) -> PolicyPop {
        let Some(t) = self.queue.peek_time() else {
            return PolicyPop::Drained;
        };
        if self.max_time.map(|mt| t > mt).unwrap_or(false) {
            // Past the horizon: stop without consuming anything, same
            // outcome as the policy-free loop (the clock never advances
            // beyond max_time).
            self.stop_requested = true;
            return PolicyPop::Horizon;
        }
        let mut keys = self.queue.pop_ready_keys();
        // Resumes aimed at dead processes are stale: reclaim them before
        // building candidates, so the policy is never offered an event the
        // policy-free loop would silently drop.
        keys.retain(|&k| {
            let stale = matches!(
                self.queue.peek_kind(k),
                &EventKind::Resume(pid, _)
                    if !self.procs.get(pid).map(|e| e.alive).unwrap_or(false)
            );
            if stale {
                self.queue.discard_key(k);
            }
            !stale
        });
        if keys.is_empty() {
            return PolicyPop::Retry;
        }
        // Candidates: the front event of each tiebreak lane (later same-lane
        // events are blocked behind it — intra-lane order is model
        // semantics) plus every laneless event (freely permutable).
        let mut seen_lanes = std::collections::HashSet::new();
        let mut candidates = Vec::new();
        let mut candidate_keys = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let lane = self.queue.lane_of(k.seq);
            if let Some(l) = lane {
                if !seen_lanes.insert(l) {
                    continue;
                }
            }
            let kind = match self.queue.peek_kind(k) {
                EventKind::Call(_) => CandidateKind::Call,
                EventKind::Resume(pid, _) => CandidateKind::Resume(*pid),
                EventKind::LinkFault(_) => CandidateKind::LinkFault,
            };
            candidates.push(Candidate {
                seq: k.seq,
                lane,
                kind,
            });
            candidate_keys.push(i);
        }
        let chosen = if candidates.len() > 1 {
            let policy = self
                .policy
                .as_mut()
                .expect("pop_with_policy without policy");
            let c = policy.choose(t, &candidates).min(candidates.len() - 1);
            self.decisions.push(Decision {
                time: t,
                step: self.steps.len(),
                candidates,
                chosen: c,
            });
            c
        } else {
            0
        };
        let key = keys.swap_remove(candidate_keys[chosen]);
        let ev = self.queue.take_key(key);
        self.queue.unpop(keys);
        self.steps.push(StepRecord {
            seq: ev.seq,
            time: ev.time,
            trace_lo: self.tracer.len(),
        });
        PolicyPop::Run(ev)
    }

    /// Does `pid` run on the coroutine backend? Decides how the drive loop
    /// dispatches its Resume events (inline poll vs. token handoff).
    fn proc_is_coro(&self, pid: Pid) -> bool {
        matches!(
            self.procs.get(pid).map(|e| &e.body),
            Some(ProcBody::Embryo(_) | ProcBody::Coro { .. } | ProcBody::Running)
        )
    }

    /// The drained-queue outcome: success iff no process is still parked.
    fn drained(&self) -> Result<(), SimError> {
        let parked: Vec<String> = self
            .procs
            .values()
            .filter(|e| e.alive)
            .map(|e| e.name.to_string())
            .collect();
        if parked.is_empty() {
            return Ok(());
        }
        Err(SimError::Deadlock(DeadlockInfo {
            time: self.now,
            parked,
        }))
    }
}

/// `false` when `FTMPI_NO_BATCH` is set: every wake gets its own token
/// handoff, as in the unbatched kernel, and flow transfers schedule one
/// event per chunk instead of coalescing contention-free chunk runs. The
/// batched and unbatched paths execute the same events in the same order
/// (wake batches only coalesce consecutive same-time wakes for one process,
/// which pop back-to-back anyway; flow batching only swallows completions no
/// other event could observe), so results are byte-identical either way; the
/// toggle exists for CI to prove exactly that. Exported for the flow layer
/// in `ftmpi-core`, which gates its chunk batching on the same switch.
pub fn batching_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("FTMPI_NO_BATCH").is_none())
}

/// `true` when `FTMPI_THREADED` is set: simulated processes run on the
/// legacy token-handoff OS-thread backend (one pooled thread per live rank,
/// Condvar rendezvous per wake) instead of being driven as stackless
/// coroutines inline on the kernel loop. The two backends execute the same
/// events in the same order and produce byte-identical results (see
/// DESIGN.md "Rank execution" for the equivalence argument); the toggle
/// keeps the threaded backend as the reference implementation for
/// differential testing. Overridable per-simulation with
/// [`Sim::force_threaded`].
pub fn threaded_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("FTMPI_THREADED").is_some())
}

/// Shared kernel handle. Internal; exposed types are [`Sim`] and [`SimCtx`].
pub struct Shared {
    pub(crate) state: Mutex<KernelState>,
    /// Lock-free mirror of the tracer's enabled flag, so the per-message
    /// trace calls on the hot path ([`SimCtx::trace`], [`SimCtx::kill`])
    /// skip the state mutex when tracing is off (the common case: only
    /// tests and debugging sessions enable it).
    trace_on: AtomicBool,
    /// This simulation's leases on the rank-thread pool; teardown waits for
    /// the count to reach zero (the pooled replacement for join-all).
    leases: Arc<LeaseGroup>,
}

impl Shared {
    /// Schedule a model closure. Used by both [`SimCtx`] and [`ProcCtx`].
    pub(crate) fn schedule_call(
        self: &Arc<Self>,
        at: SimTime,
        lane: Option<u64>,
        f: impl FnOnce(&SimCtx) + Send + 'static,
    ) -> EventId {
        let mut st = self.state.lock();
        let now = st.now;
        debug_assert!(at >= now, "scheduling into the past: at={at:?} now={now:?}");
        st.queue
            .push(at.max(now), lane, EventKind::Call(Box::new(f)))
    }

    fn schedule_resume(&self, at: SimTime, pid: Pid, kind: WakeKind) -> EventId {
        let mut st = self.state.lock();
        let at = at.max(st.now);
        st.queue
            .push(at, Some(pid.lane()), EventKind::Resume(pid, kind))
    }

    /// Schedule the model closure of a [`ProcCtx::exec`] call, remembering it
    /// so it can be cancelled if the process is killed before it runs.
    pub(crate) fn schedule_exec(
        self: &Arc<Self>,
        pid: Pid,
        at: SimTime,
        f: impl FnOnce(&SimCtx) + Send + 'static,
    ) {
        let mut st = self.state.lock();
        let at = at.max(st.now);
        // The wrapper clears the pending marker as soon as the call runs, so
        // `pending_exec` is `Some` exactly while the event is still queued
        // (keeping cancellation tombstones precise).
        let id = st.queue.push(
            at,
            Some(pid.lane()),
            EventKind::Call(Box::new(move |sc: &SimCtx| {
                if let Some(e) = sc.shared().state.lock().procs.get_mut(pid) {
                    e.pending_exec = None;
                }
                f(sc);
            })),
        );
        if let Some(entry) = st.procs.get_mut(pid) {
            entry.pending_exec = Some(id);
        }
    }
}

/// Why a run ended unsuccessfully.
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained while processes were still parked.
    Deadlock(DeadlockInfo),
    /// A simulated process panicked (model or application bug).
    ProcessPanicked {
        /// Name of the panicking process.
        name: String,
        /// Rendered panic message.
        message: String,
    },
    /// The configured event budget was exhausted (runaway model).
    EventBudgetExhausted {
        /// Number of events executed before giving up.
        executed: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(info) => {
                write!(
                    f,
                    "simulation deadlock at {}: {} parked process(es): {}",
                    info.time,
                    info.parked.len(),
                    info.parked.join(", ")
                )
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process '{name}' panicked: {message}")
            }
            SimError::EventBudgetExhausted { executed } => {
                write!(f, "event budget exhausted after {executed} events")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Details of a detected deadlock.
#[derive(Debug)]
pub struct DeadlockInfo {
    /// Virtual time at which the queue drained.
    pub time: SimTime,
    /// Names of the processes still parked.
    pub parked: Vec<String>,
}

/// Summary of a completed run.
#[derive(Debug)]
pub struct RunReport {
    /// Kernel clock when the run ended.
    pub final_time: SimTime,
    /// Number of events executed.
    pub events_executed: u64,
    /// Exit records `(pid, name, status)` in completion order.
    pub exits: Vec<(Pid, String, ProcessExit)>,
    /// Collected trace (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Whether the run ended because [`SimCtx::request_stop`] was called.
    pub stopped: bool,
    /// Condvar round-trips avoided by batched wake delivery (0 when
    /// `FTMPI_NO_BATCH` is set or no same-time wake batches occurred).
    pub handoffs_saved: u64,
    /// Exploration mode only: every instant at which more than one
    /// candidate was ready, with the policy's choice. Empty otherwise.
    pub decisions: Vec<Decision>,
    /// Exploration mode only: one record per executed event, in execution
    /// order; each step's trace effects are
    /// `trace[step.trace_lo..next_step.trace_lo]`. Empty otherwise.
    pub steps: Vec<StepRecord>,
}

/// Service handle available to model closures while they run on the kernel
/// loop. All methods are safe to call at any point inside an event handler.
pub struct SimCtx {
    shared: Arc<Shared>,
    now: SimTime,
}

impl SimCtx {
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// The current event's virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The time of the next pending event, if any. Event handlers use this
    /// to decide how far they may safely fast-forward: up to (but not
    /// including) the next event, nothing else can observe or perturb model
    /// state. The flow layer's chunk batching is built on exactly that
    /// window.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.shared.state.lock().queue.peek_time()
    }

    /// The configured stop horizon ([`Sim::set_max_time`]), if any. Batched
    /// fast-forwarding must not cross it: the unbatched kernel would have
    /// stopped at the first event past the horizon.
    pub fn horizon(&self) -> Option<SimTime> {
        self.shared.state.lock().max_time
    }

    /// Account for `n` events that a batching optimization proved
    /// equivalent to — and therefore did not schedule. Keeps
    /// [`RunReport::events_executed`] (which feeds calibration tables and
    /// cache fingerprints) identical between the batched and unbatched
    /// kernels.
    pub fn credit_virtual_events(&self, n: u64) {
        self.shared.state.lock().executed += n;
    }

    /// Schedule `f` at absolute time `at` (clamped to now if in the past).
    pub fn schedule(&self, at: SimTime, f: impl FnOnce(&SimCtx) + Send + 'static) -> EventId {
        self.shared.schedule_call(at.max(self.now), None, f)
    }

    /// Schedule `f` at `at` in a tiebreak *lane*: same-time events in the
    /// same lane always run in scheduling order, even under a perturbation
    /// seed ([`Sim::set_tiebreak_seed`]). Model code keys an event by the
    /// entity whose state it mutates — e.g. message arrivals by the
    /// destination process's [`Pid::lane`] — so that the defined semantics
    /// of same-entity ordering (channel FIFO, op boundaries) survive
    /// perturbation while independent events still permute. `None` marks
    /// the event as freely permutable, same as [`SimCtx::schedule`].
    pub fn schedule_keyed(
        &self,
        at: SimTime,
        lane: Option<u64>,
        f: impl FnOnce(&SimCtx) + Send + 'static,
    ) -> EventId {
        self.shared.schedule_call(at.max(self.now), lane, f)
    }

    /// Schedule `f` after a delay.
    pub fn schedule_in(&self, d: SimDuration, f: impl FnOnce(&SimCtx) + Send + 'static) -> EventId {
        self.shared.schedule_call(self.now + d, None, f)
    }

    /// Cancel a previously scheduled event. Cancelling an already-executed
    /// event is a harmless no-op.
    pub fn cancel(&self, id: EventId) {
        self.shared.state.lock().queue.cancel(id);
    }

    /// Wake a parked process now (no-op if it has exited).
    pub fn resume(&self, pid: Pid) {
        self.shared.schedule_resume(self.now, pid, WakeKind::Normal);
    }

    /// Wake a parked process at a future time.
    pub fn resume_at(&self, pid: Pid, at: SimTime) {
        self.shared.schedule_resume(at, pid, WakeKind::Normal);
    }

    /// Kill a process. On the coroutine backend the kernel drops the
    /// process's state machine at the kill wake (a pure state transition);
    /// on the threaded backend the next kernel interaction (or the current
    /// park) unwinds the thread. No-op for already-dead processes.
    pub fn kill(&self, pid: Pid) {
        // Pre-format the trace detail outside the lock; with tracing off
        // (the common case) the whole call takes one lock acquisition.
        let trace_detail = self
            .shared
            .trace_on
            .load(Ordering::Relaxed)
            .then(|| format!("kill {pid}"));
        let mut st = self.shared.state.lock();
        let Some(entry) = st.procs.get(pid) else {
            return;
        };
        if !entry.alive {
            return;
        }
        if let Some(detail) = trace_detail {
            st.tracer.record(TraceEvent {
                time: self.now,
                kind: TraceKind::Kill,
                pid: Some(pid),
                detail,
            });
        }
        let at = self.now.max(st.now);
        st.queue.push(
            at,
            Some(pid.lane()),
            EventKind::Resume(pid, WakeKind::Killed),
        );
    }

    /// Is the process still alive (spawned and not yet exited)?
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.shared
            .state
            .lock()
            .procs
            .get(pid)
            .map(|e| e.alive)
            .unwrap_or(false)
    }

    /// Spawn a new simulated process that starts at time `at`. The body is
    /// an async function of the process's [`ProcCtx`]; its suspension points
    /// are the kernel interactions ([`ProcCtx::exec`] and the sleep
    /// helpers).
    pub fn spawn_at<F, Fut>(&self, at: SimTime, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        spawn_inner(&self.shared, at.max(self.now), name.into(), f)
    }

    /// Spawn a new simulated process that starts immediately.
    pub fn spawn<F, Fut>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.spawn_at(self.now, name, f)
    }

    /// Ask the kernel loop to stop after the current event.
    pub fn request_stop(&self) {
        self.shared.state.lock().stop_requested = true;
    }

    /// Record a model trace event. With tracing disabled (the common case)
    /// this is a single relaxed atomic load — no lock, no formatting.
    pub fn trace(&self, label: &'static str, pid: Option<Pid>, detail: impl FnOnce() -> String) {
        if !self.shared.trace_on.load(Ordering::Relaxed) {
            return;
        }
        let ev = TraceEvent {
            time: self.now,
            kind: TraceKind::Model(label),
            pid,
            detail: detail(),
        };
        self.shared.state.lock().tracer.record(ev);
    }

    /// Record a typed protocol event (see [`crate::ProtoEvent`]). Same
    /// lock-free gate as [`SimCtx::trace`]: with tracing disabled this is a
    /// single relaxed atomic load, so protocol hot paths (every message
    /// send/delivery) stay zero-cost in ordinary runs.
    pub fn trace_proto(&self, ev: crate::trace::ProtoEvent) {
        if !self.shared.trace_on.load(Ordering::Relaxed) {
            return;
        }
        let rec = TraceEvent {
            time: self.now,
            kind: TraceKind::Proto(ev),
            pid: None,
            detail: String::new(),
        };
        self.shared.state.lock().tracer.record(rec);
    }
}

fn spawn_inner<F, Fut>(shared: &Arc<Shared>, start_at: SimTime, name: String, f: F) -> Pid
where
    F: FnOnce(ProcCtx) -> Fut + Send + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    let name: Arc<str> = Arc::from(name.as_str());
    let pid;
    let threaded;
    {
        let mut st = shared.state.lock();
        pid = Pid(st.next_pid);
        st.next_pid += 1;
        threaded = st.threaded;
        if st.tracer.enabled() {
            let detail = format!("spawn '{name}'");
            let now = st.now;
            st.tracer.record(TraceEvent {
                time: now,
                kind: TraceKind::Spawn,
                pid: Some(pid),
                detail,
            });
        }
    }
    let body = if threaded {
        let handoff = Handoff::new();
        let thread_shared = Arc::clone(shared);
        let thread_handoff = Arc::clone(&handoff);
        let thread_name = Arc::clone(&name);
        let trampoline = move || {
            let (kind, now) = thread_handoff.wait_first_wake();
            if matches!(kind, WakeKind::Killed) {
                thread_handoff.exit(ProcessExit::Killed);
                return;
            }
            let driver_handoff = Arc::clone(&thread_handoff);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let ctx = ProcCtx {
                    pid,
                    name: thread_name,
                    driver: Driver::Threaded(driver_handoff),
                    shared: thread_shared,
                    local_time: now,
                };
                // The whole body runs inside a single poll: on this backend
                // every suspension point blocks on the token handoff and
                // resolves immediately, so a live process never observes
                // `Pending` — a kill unwinds the thread out of the poll via
                // `KilledSignal` instead.
                let mut fut = Box::pin(f(ctx));
                let mut cx = Context::from_waker(Waker::noop());
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {}
                    Poll::Pending => unreachable!("threaded suspension returned Pending"),
                }
            }));
            let status = match result {
                Ok(()) => ProcessExit::Normal,
                Err(payload) => {
                    if payload.downcast_ref::<KilledSignal>().is_some() {
                        ProcessExit::Killed
                    } else {
                        ProcessExit::Panicked(panic_message(payload))
                    }
                }
            };
            thread_handoff.exit(status);
        };
        // Pool checkout: an idle worker runs the trampoline, or (escape
        // hatch / cold pool) a fresh thread is spawned. `join` is `Some`
        // only for dedicated escape-hatch threads; pooled lifetimes are
        // governed by the lease group, which teardown quiesces.
        let join = pool::spawn_process(
            format!("sim-{pid}-{name}"),
            &shared.leases,
            Box::new(trampoline),
        );
        ProcBody::Threaded { handoff, join }
    } else {
        // Coroutine backend: no thread at all. The body is materialized as
        // a kernel-owned state machine at its first Normal wake.
        ProcBody::Embryo(Box::new(move |ctx| Box::pin(f(ctx))))
    };
    {
        let mut st = shared.state.lock();
        st.procs.insert(
            pid,
            ProcEntry {
                name,
                body,
                alive: true,
                pending_exec: None,
            },
        );
        let now = st.now;
        st.queue.push(
            start_at.max(now),
            Some(pid.lane()),
            EventKind::Resume(pid, WakeKind::Normal),
        );
    }
    pid
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The simulation: owns the kernel state and drives the event loop.
pub struct Sim {
    shared: Arc<Shared>,
}

/// One unit of work popped under the state lock and dispatched outside it.
enum Dispatch {
    Call(Box<dyn FnOnce(&SimCtx) + Send>, SimTime),
    /// Threaded backend: hand the token (with a wake batch) to the process
    /// thread and wait for it to park or exit.
    Wakes(Pid, SimTime, WakeBatch),
    /// Coroutine backend: step the process's state machine inline.
    Poll(Pid, SimTime, WakeKind),
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// Install (once per process) a panic hook that silences the expected
/// [`KilledSignal`] unwinds of killed simulated processes while delegating
/// every real panic to the previous hook.
fn install_kill_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KilledSignal>().is_some() {
                return; // expected failure-injection unwind
            }
            previous(info);
        }));
    });
}

impl Sim {
    /// Create an empty simulation at time zero.
    pub fn new() -> Sim {
        install_kill_quiet_hook();
        Sim {
            shared: Arc::new(Shared {
                state: Mutex::new(KernelState {
                    queue: EventQueue::default(),
                    now: SimTime::ZERO,
                    procs: ProcTable::default(),
                    next_pid: 0,
                    threaded: threaded_enabled(),
                    stop_requested: false,
                    executed: 0,
                    max_events: None,
                    max_time: None,
                    tracer: Tracer::default(),
                    exits: Vec::new(),
                    handoffs_saved: 0,
                    policy: None,
                    decisions: Vec::new(),
                    steps: Vec::new(),
                }),
                trace_on: AtomicBool::new(false),
                leases: Arc::new(LeaseGroup::default()),
            }),
        }
    }

    /// Cap the number of events (defence against runaway models).
    pub fn set_max_events(&mut self, n: u64) {
        self.shared.state.lock().max_events = Some(n);
    }

    /// Stop the run once the kernel clock passes `t` (remaining processes are
    /// killed during teardown).
    pub fn set_max_time(&mut self, t: SimTime) {
        self.shared.state.lock().max_time = Some(t);
    }

    /// Enable trace collection (returned in the [`RunReport`]).
    pub fn enable_trace(&mut self) {
        self.shared.state.lock().tracer.set_enabled(true);
        self.shared.trace_on.store(true, Ordering::Relaxed);
    }

    /// Perturb same-time event tiebreaks with a seeded permutation.
    ///
    /// Every run remains fully deterministic for a given seed; what changes
    /// is the execution order of *independent* events scheduled for the
    /// same virtual instant (causal chains are unaffected: an event
    /// scheduled by another still runs after it). The `ftmpi-check` race
    /// detector re-runs configurations under several seeds and compares
    /// trace fingerprints — a difference means some model or protocol state
    /// depends on the arbitrary tie order. Call before the run starts.
    pub fn set_tiebreak_seed(&mut self, seed: u64) {
        self.shared.state.lock().queue.set_tiebreak_seed(seed);
    }

    /// Install a [`SchedulePolicy`] (exploration mode). Every pop with more
    /// than one ready candidate consults the policy; [`RunReport::decisions`]
    /// and [`RunReport::steps`] record the run's choice points and step
    /// effects. Wake batching is bypassed in this mode so each wake stays an
    /// individually choosable scheduling unit. Call before scheduling
    /// anything (the queue starts recording lanes here).
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        let mut st = self.shared.state.lock();
        st.queue.record_lanes();
        st.policy = Some(policy);
    }

    /// Override the `FTMPI_THREADED` backend choice for this simulation:
    /// `true` runs processes on the legacy OS-thread backend, `false` on the
    /// coroutine backend. Differential tests drive the same workload through
    /// both backends in one process and compare results byte for byte. Call
    /// before spawning anything.
    pub fn force_threaded(&mut self, threaded: bool) {
        let mut st = self.shared.state.lock();
        debug_assert_eq!(st.next_pid, 0, "switch process backends before spawning");
        st.threaded = threaded;
    }

    /// Convenience constructor for a [`SharedFlag`].
    pub fn shared_flag(&self) -> crate::process::SharedFlag {
        crate::process::SharedFlag::new()
    }

    /// Spawn an initial process starting at time zero. See
    /// [`SimCtx::spawn_at`] for the async body contract.
    pub fn spawn<F, Fut>(&mut self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        spawn_inner(&self.shared, SimTime::ZERO, name.into(), f)
    }

    /// Spawn an initial process starting at `at`.
    pub fn spawn_at<F, Fut>(&mut self, at: SimTime, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        spawn_inner(&self.shared, at, name.into(), f)
    }

    /// Schedule a model closure before the run starts.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&SimCtx) + Send + 'static) -> EventId {
        self.shared.schedule_call(at, None, f)
    }

    /// Schedule a network-fault transition (link down / degrade / restore,
    /// partition start / heal) before the run starts. Fault transitions race
    /// with every flow chunk and retry probe touching the same link, so a
    /// tiebreak `lane` is mandatory: same-lane same-time events keep their
    /// scheduling order under any perturbation seed.
    pub fn schedule_link_fault(
        &mut self,
        at: SimTime,
        lane: u64,
        f: impl FnOnce(&SimCtx) + Send + 'static,
    ) -> EventId {
        let mut st = self.shared.state.lock();
        let at = at.max(st.now);
        st.queue
            .push(at, Some(lane), EventKind::LinkFault(Box::new(f)))
    }

    /// Drive the event loop to completion.
    ///
    /// Ends when the queue drains with no parked processes, when a stop is
    /// requested, or when a budget/deadline triggers. On success all process
    /// threads have been joined.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        let result = self.run_loop();
        // Always tear down remaining threads, even on error paths, so that
        // dropping the Sim never leaks parked threads.
        self.teardown();
        let mut st = self.shared.state.lock();
        let report = RunReport {
            final_time: st.now,
            events_executed: st.executed,
            exits: st
                .exits
                .iter()
                .map(|(p, n, e)| (*p, n.to_string(), e.clone()))
                .collect(),
            trace: st.tracer.take(),
            stopped: st.stop_requested,
            handoffs_saved: st.handoffs_saved,
            decisions: std::mem::take(&mut st.decisions),
            steps: std::mem::take(&mut st.steps),
        };
        drop(st);
        result.map(|()| report)
    }

    fn run_loop(&mut self) -> Result<(), SimError> {
        let batching = batching_enabled();
        loop {
            let dispatch = {
                let mut st = self.shared.state.lock();
                if st.stop_requested {
                    return Ok(());
                }
                if let Some(max) = st.max_events {
                    if st.executed >= max {
                        return Err(SimError::EventBudgetExhausted {
                            executed: st.executed,
                        });
                    }
                }
                if st.policy.is_some() {
                    match st.pop_with_policy() {
                        PolicyPop::Drained => return st.drained(),
                        PolicyPop::Horizon => return Ok(()),
                        PolicyPop::Retry => continue,
                        PolicyPop::Run(ev) => {
                            debug_assert!(ev.time >= st.now, "event queue went backwards");
                            st.now = ev.time;
                            match ev.kind {
                                EventKind::Call(f) | EventKind::LinkFault(f) => {
                                    st.executed += 1;
                                    Dispatch::Call(f, ev.time)
                                }
                                // No wake coalescing: each wake must remain
                                // an individually orderable scheduling unit.
                                EventKind::Resume(pid, kind) => {
                                    if st.proc_is_coro(pid) {
                                        Dispatch::Poll(pid, ev.time, kind)
                                    } else {
                                        Dispatch::Wakes(
                                            pid,
                                            ev.time,
                                            WakeBatch::single(kind, ev.time),
                                        )
                                    }
                                }
                            }
                        }
                    }
                } else {
                    match st.queue.pop() {
                        None => return st.drained(),
                        Some(ev) => {
                            // Resumes aimed at dead processes are stale: drop them
                            // without advancing the clock, so a killed process's
                            // pending wakes don't distort the final time.
                            if let EventKind::Resume(pid, _) = ev.kind {
                                let alive = st.procs.get(pid).map(|e| e.alive).unwrap_or(false);
                                if !alive {
                                    continue;
                                }
                            }
                            debug_assert!(ev.time >= st.now, "event queue went backwards");
                            // Past the horizon: stop without consuming the event
                            // (the clock must not advance beyond max_time).
                            if st.max_time.map(|mt| ev.time > mt).unwrap_or(false) {
                                st.stop_requested = true;
                                return Ok(());
                            }
                            st.now = ev.time;
                            match ev.kind {
                                EventKind::Call(f) | EventKind::LinkFault(f) => {
                                    st.executed += 1;
                                    Dispatch::Call(f, ev.time)
                                }
                                EventKind::Resume(pid, kind) => {
                                    if st.proc_is_coro(pid) {
                                        // Coroutine backend: no wake batching
                                        // — there is no handoff to save, each
                                        // wake is one inline poll. Consecutive
                                        // same-time wakes pop back-to-back
                                        // with nothing in between (they share
                                        // the process's tiebreak lane), so
                                        // delivery order matches the threaded
                                        // backend's batched order exactly.
                                        Dispatch::Poll(pid, ev.time, kind)
                                    } else {
                                        let mut wakes = WakeBatch::single(kind, ev.time);
                                        if batching {
                                            // Coalesce every immediately-following
                                            // same-time wake for this process into
                                            // one token handoff. Same-lane same-time
                                            // events pop in scheduling order under
                                            // any tiebreak seed, so the batch
                                            // preserves exactly the order the
                                            // unbatched loop would deliver.
                                            // (`executed` for wake batches is
                                            // accounted after delivery — see
                                            // `resume_process`.)
                                            while let Some(next) = st.queue.pop_if(|t, k| {
                                                t == ev.time
                                                    && matches!(k, EventKind::Resume(p, _) if *p == pid)
                                            }) {
                                                if let EventKind::Resume(_, k) = next.kind {
                                                    wakes.push_back(k, next.time);
                                                }
                                            }
                                        }
                                        Dispatch::Wakes(pid, ev.time, wakes)
                                    }
                                }
                            }
                        }
                    }
                }
            };
            match dispatch {
                Dispatch::Call(f, time) => {
                    let sc = SimCtx {
                        shared: Arc::clone(&self.shared),
                        now: time,
                    };
                    f(&sc);
                }
                Dispatch::Wakes(pid, time, wakes) => {
                    if let Some(err) = self.resume_process(pid, wakes, time) {
                        return Err(err);
                    }
                }
                Dispatch::Poll(pid, time, kind) => {
                    if let Some(err) = self.drive_coro(pid, kind, time) {
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Step a coroutine-backed process: deposit the wake and poll its state
    /// machine inline. The machine is taken out of the table and polled
    /// *outside* the state lock — polling reenters the kernel (`exec`
    /// schedules its Call event). A kill wake never reaches the machine:
    /// killing is a state transition in which the kernel drops the machine
    /// (running its Drop impls, the analogue of the threaded backend's
    /// `KilledSignal` unwind) and records the exit.
    fn drive_coro(&self, pid: Pid, kind: WakeKind, now: SimTime) -> Option<SimError> {
        enum Step {
            Drop(ProcBody),
            Start(EmbryoFn, Arc<WakeSlot>, ProcCtx),
            Poll(CoroFuture, Arc<WakeSlot>),
        }
        let step = {
            let mut st = self.shared.state.lock();
            // One executed event per delivered wake, matching the threaded
            // backend's per-wake accounting (a kill delivery also counts 1).
            st.executed += 1;
            let e = st.procs.get_mut(pid)?;
            if !e.alive {
                return None;
            }
            match kind {
                WakeKind::Killed => {
                    let body = std::mem::replace(&mut e.body, ProcBody::Gone);
                    Step::Drop(body)
                }
                WakeKind::Normal => match std::mem::replace(&mut e.body, ProcBody::Running) {
                    ProcBody::Embryo(factory) => {
                        let slot = WakeSlot::new();
                        let ctx = ProcCtx {
                            pid,
                            name: Arc::clone(&e.name),
                            driver: Driver::Coro(Arc::clone(&slot)),
                            shared: Arc::clone(&self.shared),
                            local_time: now,
                        };
                        Step::Start(factory, slot, ctx)
                    }
                    ProcBody::Coro { fut, slot } => {
                        slot.put(WakeKind::Normal, now);
                        Step::Poll(fut, slot)
                    }
                    other => {
                        // A live coroutine is always parked between wakes.
                        e.body = other;
                        debug_assert!(false, "coroutine resumed in an undrivable state");
                        return None;
                    }
                },
            }
        };
        let (pending, slot) = match step {
            Step::Drop(body) => {
                // Drop outside the lock: the machine's Drop impls may run
                // arbitrary model-state destructors.
                drop(body);
                return self.record_coro_exit(pid, now, ProcessExit::Killed);
            }
            Step::Start(factory, slot, ctx) => (CoroStep::New(factory, ctx), slot),
            Step::Poll(fut, slot) => (CoroStep::Existing(fut), slot),
        };
        enum CoroStep {
            New(EmbryoFn, ProcCtx),
            Existing(CoroFuture),
        }
        // Construct (first wake) and poll with panics contained, exactly as
        // the threaded trampoline's catch_unwind does.
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut fut = match pending {
                CoroStep::New(factory, ctx) => factory(ctx),
                CoroStep::Existing(fut) => fut,
            };
            let mut cx = Context::from_waker(Waker::noop());
            match fut.as_mut().poll(&mut cx) {
                Poll::Pending => Some(fut),
                Poll::Ready(()) => None,
            }
        }));
        match polled {
            Ok(Some(fut)) => {
                // Parked at a suspension point: store the machine back.
                let mut st = self.shared.state.lock();
                if let Some(e) = st.procs.get_mut(pid) {
                    e.body = ProcBody::Coro { fut, slot };
                }
                None
            }
            Ok(None) => self.record_coro_exit(pid, now, ProcessExit::Normal),
            Err(payload) => {
                let status = if payload.downcast_ref::<KilledSignal>().is_some() {
                    ProcessExit::Killed
                } else {
                    ProcessExit::Panicked(panic_message(payload))
                };
                self.record_coro_exit(pid, now, status)
            }
        }
    }

    /// Exit bookkeeping for a coroutine-backed process: mirror of the
    /// threaded backend's `resume_process` exit branch (dead-mark, pending
    /// `exec` cancellation, exit trace and record, panic escalation).
    fn record_coro_exit(&self, pid: Pid, now: SimTime, status: ProcessExit) -> Option<SimError> {
        let mut st = self.shared.state.lock();
        let name = if let Some(e) = st.procs.get_mut(pid) {
            e.alive = false;
            e.body = ProcBody::Gone;
            let pending = e.pending_exec.take();
            let name = Arc::clone(&e.name);
            if let Some(id) = pending {
                st.queue.cancel(id);
            }
            name
        } else {
            Arc::from("?")
        };
        if st.tracer.enabled() {
            let detail = format!("exit '{name}': {status:?}");
            st.tracer.record(TraceEvent {
                time: now,
                kind: TraceKind::Exit,
                pid: Some(pid),
                detail,
            });
        }
        st.exits.push((pid, Arc::clone(&name), status.clone()));
        if let ProcessExit::Panicked(message) = status {
            return Some(SimError::ProcessPanicked {
                name: name.to_string(),
                message,
            });
        }
        None
    }

    /// Hand the token to `pid` with a batch of wakes; returns an error for
    /// real panics. Event accounting happens here, after delivery: the
    /// process consumed `delivered` of the batch, and each consumed wake is
    /// one executed event — exactly what the unbatched loop would have
    /// counted, because the wakes it left unconsumed (it exited mid-batch)
    /// are the ones that loop would have dropped as stale. A process found
    /// already dead still counts its one popped wake, as before.
    fn resume_process(&self, pid: Pid, wakes: WakeBatch, now: SimTime) -> Option<SimError> {
        let handoff = {
            let st = self.shared.state.lock();
            match st.procs.get(pid) {
                Some(e) if e.alive => match &e.body {
                    ProcBody::Threaded { handoff, .. } => Arc::clone(handoff),
                    // Only threaded processes are dispatched as wake batches.
                    _ => return None,
                },
                _ => return None, // stale resume for a dead process
            }
        };
        let (outcome, delivered) = handoff.resume_batch(wakes);
        let mut st = self.shared.state.lock();
        st.executed += (delivered as u64).max(1);
        st.handoffs_saved += delivered.saturating_sub(1) as u64;
        match outcome {
            ResumeOutcome::Parked => None,
            ResumeOutcome::Exited(status) => {
                let name = if let Some(e) = st.procs.get_mut(pid) {
                    e.alive = false;
                    let pending = e.pending_exec.take();
                    let name = Arc::clone(&e.name);
                    if let Some(id) = pending {
                        st.queue.cancel(id);
                    }
                    name
                } else {
                    Arc::from("?")
                };
                if st.tracer.enabled() {
                    let detail = format!("exit '{name}': {status:?}");
                    st.tracer.record(TraceEvent {
                        time: now,
                        kind: TraceKind::Exit,
                        pid: Some(pid),
                        detail,
                    });
                }
                st.exits.push((pid, Arc::clone(&name), status.clone()));
                if let ProcessExit::Panicked(message) = status {
                    return Some(SimError::ProcessPanicked {
                        name: name.to_string(),
                        message,
                    });
                }
                None
            }
        }
    }

    /// Kill every remaining process (lowest pid first) and join all threads.
    fn teardown(&mut self) {
        // Decide each victim's backend under the lock but act outside it:
        // threaded kills rendezvous with the process thread, and coroutine
        // drops may run arbitrary Drop impls.
        enum Victim {
            Coro(Pid, ProcBody, SimTime),
            Threaded(Pid, Arc<Handoff>, Arc<str>, SimTime),
        }
        loop {
            let victim = {
                let mut st = self.shared.state.lock();
                let now = st.now;
                let Some(pid) = st
                    .procs
                    .iter()
                    .filter(|(_, e)| e.alive)
                    .map(|(pid, _)| pid)
                    .min()
                else {
                    break;
                };
                let Some(e) = st.procs.get_mut(pid) else {
                    break;
                };
                match &e.body {
                    ProcBody::Threaded { handoff, .. } => {
                        Victim::Threaded(pid, Arc::clone(handoff), Arc::clone(&e.name), now)
                    }
                    _ => {
                        let body = std::mem::replace(&mut e.body, ProcBody::Gone);
                        e.alive = false;
                        let name = Arc::clone(&e.name);
                        st.exits.push((pid, name, ProcessExit::Killed));
                        Victim::Coro(pid, body, now)
                    }
                }
            };
            match victim {
                Victim::Coro(_pid, body, _now) => drop(body),
                Victim::Threaded(pid, handoff, name, now) => {
                    if let ResumeOutcome::Exited(status) = handoff.resume(WakeKind::Killed, now) {
                        let mut st = self.shared.state.lock();
                        if let Some(e) = st.procs.get_mut(pid) {
                            e.alive = false;
                        }
                        st.exits.push((pid, name, status));
                    } else {
                        // A process that parks again after a kill wake would
                        // be a trampoline bug; mark it dead to guarantee
                        // loop progress.
                        let mut st = self.shared.state.lock();
                        if let Some(e) = st.procs.get_mut(pid) {
                            e.alive = false;
                        }
                    }
                }
            }
        }
        // Join dedicated (escape-hatch) threads, then wait for every pooled
        // worker leased by this simulation to finish its trampoline. After
        // this, no thread still references this Sim's state.
        let joins: Vec<JoinHandle<()>> = {
            let mut st = self.shared.state.lock();
            st.procs
                .values_mut()
                .filter_map(|e| match &mut e.body {
                    ProcBody::Threaded { join, .. } => join.take(),
                    _ => None,
                })
                .collect()
        };
        for j in joins {
            let _ = j.join();
        }
        pool::wait_group_idle(&self.shared.leases);
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.teardown();
    }
}
