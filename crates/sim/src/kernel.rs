//! The simulation kernel: event loop, process table, and the [`SimCtx`]
//! service handle exposed to model code.
//!
//! The kernel is single-threaded by construction: the drive loop, every
//! model closure, and every process poll run on the thread that called
//! [`Sim::run`], one at a time. Kernel state therefore lives in a
//! `RefCell` behind an `Rc`, and the event path takes no lock and touches
//! no atomic. (`ftmpi-check lint` enforces this with its
//! `single-threaded-sim` rule.) A sweep that wants parallelism runs one
//! whole `Sim` per worker thread.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::event::{Event, EventKind, EventQueue};
use crate::process::{Pid, ProcCtx, ProcessExit, Wake, WakeKind};
use crate::reply::ReplyWords;
use crate::schedule::{Candidate, CandidateKind, Decision, SchedulePolicy, StepRecord};
use crate::table::ProcTable;
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceKind, Tracer};

/// A process body compiled to a resumable state machine, owned by the kernel
/// and stepped inline from the drive loop.
type CoroFuture = Pin<Box<dyn Future<Output = ()>>>;
/// Deferred coroutine constructor: runs at the first Normal wake so the
/// process's local clock starts at its actual start time.
type EmbryoFn = Box<dyn FnOnce(ProcCtx) -> CoroFuture>;

/// Execution state of one simulated process.
enum ProcBody {
    /// Not yet started: the constructor runs at the first Normal wake (a
    /// first wake of Killed drops it unstarted).
    Embryo(EmbryoFn),
    /// Parked between wakes: the kernel deposits the next wake in
    /// [`Shared::wake`] and polls the machine inline — a Resume event is a
    /// direct method call.
    Coro(CoroFuture),
    /// Checked out by the drive loop for a poll. The machine cannot stay in
    /// the table while polled: polling reenters the kernel state to post
    /// the process's next op or sleep.
    Running,
    /// Exited; nothing left to drive.
    Gone,
}

struct ProcEntry {
    name: Rc<str>,
    body: ProcBody,
    alive: bool,
    /// The reply to the process's posted op or sleep, once it is answered:
    /// two words, handed to the process with the wake that resumes it (see
    /// [`Reply`](crate::Reply)).
    reply: Option<[u64; 2]>,
}

/// A data event as the run's one handler receives it (see
/// [`Sim::set_data_handler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataEvent {
    /// The op `pid` posted with [`ProcCtx::post_op`]. The model keeps the
    /// op's arguments keyed by the pid, and answers with
    /// [`Reply::new(pid)`](crate::Reply::new). Dropped unrun if the process
    /// died first.
    Op(Pid),
    /// Two words scheduled with [`SimCtx::schedule_data`]; what they mean is
    /// the handler's business.
    Data([u64; 2]),
}

/// The run's data-event handler, boxed once when it is installed.
type DataHandler = Box<dyn Fn(&SimCtx, DataEvent)>;

pub(crate) struct KernelState {
    queue: EventQueue,
    now: SimTime,
    /// Dense pid-indexed table: pids are sequential and never reused, so
    /// the kernel hot path (resume/kill/op) avoids hashing entirely.
    procs: ProcTable<ProcEntry>,
    next_pid: u64,
    stop_requested: bool,
    executed: u64,
    max_time: Option<SimTime>,
    tracer: Tracer,
    /// Exit records in completion order.
    exits: Vec<(Pid, Rc<str>, ProcessExit)>,
    /// A controller choosing among same-instant candidates
    /// ([`Sim::set_schedule_policy`]): the explorer's prescription or the
    /// race detector's seed. `None` in ordinary runs: the one pop then
    /// takes choice 0 without building candidates.
    policy: Option<Box<dyn SchedulePolicy>>,
    /// Multi-candidate instants recorded under a policy.
    decisions: Vec<Decision>,
    /// One record per executed event under a policy (effect windows into
    /// the trace).
    steps: Vec<StepRecord>,
    /// Scratch for [`KernelState::choose`], reused across pops: the
    /// candidates offered, and the tier index of each.
    candidates: Vec<Candidate>,
    candidate_at: Vec<usize>,
}

/// An event aimed at a dead process is stale: its wake, the call of the
/// sleep it was suspended in, or the op it posted, each of which names the
/// process. The pop drops a stale event unrun and never offers it to a
/// policy, so a dead process's pending request neither mutates model state
/// nor advances the clock.
fn is_stale(procs: &ProcTable<ProcEntry>, kind: &EventKind) -> bool {
    let (EventKind::Resume(pid, _) | EventKind::Op(pid)) = kind else {
        return false;
    };
    !procs.get(*pid).is_some_and(|e| e.alive)
}

impl KernelState {
    /// Queue a `Resume` of `pid` at `at` (clamped to now) in the process's
    /// lane: a wake, a kill, or the call of a sleep.
    pub(crate) fn push_resume(&mut self, at: SimTime, pid: Pid, kind: WakeKind) {
        let at = at.max(self.now);
        self.queue
            .push(at, Some(pid.lane()), EventKind::Resume(pid, kind));
    }

    /// The one pop: the next event to dispatch, or `None` once the run
    /// ends cleanly. Stale events at the head are dropped without advancing
    /// the clock, so a killed process's pending wakes and calls neither
    /// distort the final time nor stop a run at the horizon. A live head
    /// past `max_time` stops the run without being consumed (the clock
    /// must not advance beyond `max_time`). Otherwise the pick is choice 0,
    /// the head itself, unless a policy chooses another.
    fn next_event(&mut self) -> Result<Option<Event>, SimError> {
        loop {
            let Some((time, kind)) = self.queue.head() else {
                return self.drained().map(|()| None);
            };
            if is_stale(&self.procs, kind) {
                self.queue.take(0);
                continue;
            }
            if self.max_time.is_some_and(|mt| time > mt) {
                self.stop_requested = true;
                return Ok(None);
            }
            let pick = if self.policy.is_some() {
                self.choose(time)
            } else {
                0
            };
            return Ok(Some(self.queue.take(pick)));
        }
    }

    /// The policy's pick at the instant `time`, as a tier index. The
    /// candidates are the front event of each tiebreak lane (later
    /// same-lane events are blocked behind it: intra-lane order is model
    /// semantics) plus every laneless event, in canonical order, without
    /// stale events; the live head is candidate 0. Records a
    /// [`Decision`] when there is a real choice, and the pick's
    /// [`StepRecord`].
    fn choose(&mut self, time: SimTime) -> usize {
        self.candidates.clear();
        self.candidate_at.clear();
        for (i, seq, lane, kind) in self.queue.instant() {
            if is_stale(&self.procs, kind) {
                continue;
            }
            if lane.is_some() && self.candidates.iter().any(|c| c.lane == lane) {
                continue;
            }
            let kind = match kind {
                EventKind::Resume(pid, WakeKind::Normal | WakeKind::Killed) => {
                    CandidateKind::Resume(*pid)
                }
                _ => CandidateKind::Call,
            };
            self.candidates.push(Candidate { seq, lane, kind });
            self.candidate_at.push(i);
        }
        let mut chosen = 0;
        if self.candidates.len() > 1 {
            let policy = self.policy.as_mut().expect("choose without a policy");
            chosen = policy
                .choose(time, &self.candidates)
                .min(self.candidates.len() - 1);
            self.decisions.push(Decision {
                time,
                step: self.steps.len(),
                candidates: self.candidates.clone(),
                chosen,
            });
        }
        self.steps.push(StepRecord {
            seq: self.candidates[chosen].seq,
            time,
            trace_lo: self.tracer.len(),
        });
        self.candidate_at[chosen]
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

/// Shared kernel handle. Internal; exposed types are [`Sim`] and [`SimCtx`].
pub struct Shared {
    pub(crate) state: RefCell<KernelState>,
    /// Mirror of the tracer's enabled flag, so the per-message trace call
    /// on the hot path ([`SimCtx::trace_proto`]) skips borrowing the state
    /// when tracing is off (the common case: only tests, checkers and
    /// debugging sessions enable it).
    trace_on: Cell<bool>,
    /// The wake slot: the drive loop deposits the kernel time of a resume
    /// and the process's reply here immediately before polling the resumed
    /// machine, and that machine's pending suspension point consumes them.
    /// Only one machine is polled at a time, so one slot serves every
    /// process.
    pub(crate) wake: Cell<Option<Wake>>,
}

impl Shared {
    /// Schedule a model closure. Used by both [`SimCtx`] and [`Sim`].
    fn schedule_call(&self, at: SimTime, lane: Option<u64>, f: impl FnOnce(&SimCtx) + 'static) {
        let mut st = self.state.borrow_mut();
        let now = st.now;
        debug_assert!(at >= now, "scheduling into the past: at={at:?} now={now:?}");
        st.queue
            .push(at.max(now), lane, EventKind::Call(Box::new(f)));
    }

    /// Schedule the op `pid` posted ([`ProcCtx::post_op`]) in the process's
    /// lane. Should the process die first, the op is stale and the pop
    /// drops it unrun.
    pub(crate) fn schedule_op(&self, pid: Pid, at: SimTime) {
        let mut st = self.state.borrow_mut();
        let at = at.max(st.now);
        st.queue.push(at, Some(pid.lane()), EventKind::Op(pid));
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
    /// Number of events the kernel executed: every call, wake and kill
    /// counts once, and so does every flow chunk (each is its own event).
    /// Under a schedule policy this equals `steps.len()`.
    pub events_executed: u64,
    /// Exit records `(pid, name, status)` in completion order.
    pub exits: Vec<(Pid, String, ProcessExit)>,
    /// Collected trace (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Whether the run ended because [`SimCtx::request_stop`] was called.
    pub stopped: bool,
    /// Under a schedule policy only: every instant at which more than one
    /// candidate was ready, with the policy's choice. Empty otherwise.
    pub decisions: Vec<Decision>,
    /// Under a schedule policy only: one record per executed event, in
    /// execution order; each step's trace effects are
    /// `trace[step.trace_lo..next_step.trace_lo]`. Empty otherwise.
    pub steps: Vec<StepRecord>,
}

/// Service handle available to model closures while they run on the kernel
/// loop. All methods are safe to call at any point inside an event handler.
pub struct SimCtx {
    shared: Rc<Shared>,
    now: SimTime,
}

impl SimCtx {
    /// The current event's virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `f` at absolute time `at` (clamped to now if in the past).
    pub fn schedule(&self, at: SimTime, f: impl FnOnce(&SimCtx) + 'static) {
        self.shared.schedule_call(at.max(self.now), None, f);
    }

    /// Schedule `f` at `at` in a tiebreak *lane*: same-time events in the
    /// same lane always run in scheduling order, under any schedule policy
    /// ([`Sim::set_schedule_policy`]). Model code keys an event by the
    /// entity whose state it mutates — e.g. message arrivals by the
    /// destination process's [`Pid::lane`] — so that the defined semantics
    /// of same-entity ordering (channel FIFO, op boundaries) survive
    /// reordering while independent events still permute. `None` marks
    /// the event as freely permutable, same as [`SimCtx::schedule`].
    pub fn schedule_keyed(
        &self,
        at: SimTime,
        lane: Option<u64>,
        f: impl FnOnce(&SimCtx) + 'static,
    ) {
        self.shared.schedule_call(at.max(self.now), lane, f);
    }

    /// Schedule a data event at `at` (clamped to now if in the past) in a
    /// tiebreak `lane` (see [`SimCtx::schedule_keyed`]): the run's data
    /// handler receives `words` as [`DataEvent::Data`]. The payload is the
    /// event itself, so nothing is allocated.
    pub fn schedule_data(&self, at: SimTime, lane: Option<u64>, words: [u64; 2]) {
        let mut st = self.shared.state.borrow_mut();
        let at = at.max(st.now);
        st.queue.push(at, lane, EventKind::Data(words));
    }

    /// Store `pid`'s reply words in its table entry and wake it at `at`
    /// (clamped to now): the write of [`Reply::complete_at`](crate::Reply).
    pub(crate) fn complete(&self, pid: Pid, at: SimTime, words: [u64; 2]) {
        let mut st = self.shared.state.borrow_mut();
        if let Some(e) = st.procs.get_mut(pid) {
            e.reply = Some(words);
        }
        st.push_resume(at, pid, WakeKind::Normal);
    }

    /// Kill a process: at the kill wake the kernel drops the process's
    /// state machine (a pure state transition that runs its destructors).
    /// No-op for already-dead processes.
    pub fn kill(&self, pid: Pid) {
        let mut st = self.shared.state.borrow_mut();
        let Some(entry) = st.procs.get(pid) else {
            return;
        };
        if !entry.alive {
            return;
        }
        if st.tracer.enabled() {
            st.tracer.record(TraceEvent {
                time: self.now,
                kind: TraceKind::Kill,
                pid: Some(pid),
                detail: format!("kill {pid}"),
            });
        }
        st.push_resume(self.now, pid, WakeKind::Killed);
    }

    /// Spawn a new simulated process that starts at time `at`. The body is
    /// an async function of the process's [`ProcCtx`]; its suspension points
    /// are the kernel interactions ([`ProcCtx::post_op`] and the sleep
    /// helpers).
    pub fn spawn_at<F, Fut>(&self, at: SimTime, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn_inner(&self.shared, at.max(self.now), name.into(), f)
    }

    /// Spawn a new simulated process that starts immediately.
    pub fn spawn<F, Fut>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        self.spawn_at(self.now, name, f)
    }

    /// Ask the kernel loop to stop after the current event.
    pub fn request_stop(&self) {
        self.shared.state.borrow_mut().stop_requested = true;
    }

    /// Record a typed protocol event (see [`crate::ProtoEvent`]). With
    /// tracing disabled (the common case) this is a single flag read — no
    /// borrow, no record — so protocol hot paths (every message
    /// send/delivery) stay zero-cost in ordinary runs.
    pub fn trace_proto(&self, ev: crate::trace::ProtoEvent) {
        if !self.shared.trace_on.get() {
            return;
        }
        let rec = TraceEvent {
            time: self.now,
            kind: TraceKind::Proto(ev),
            pid: None,
            detail: String::new(),
        };
        self.shared.state.borrow_mut().tracer.record(rec);
    }
}

fn spawn_inner<F, Fut>(shared: &Rc<Shared>, start_at: SimTime, name: String, f: F) -> Pid
where
    F: FnOnce(ProcCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let name: Rc<str> = Rc::from(name.as_str());
    let mut st = shared.state.borrow_mut();
    let pid = Pid(st.next_pid);
    st.next_pid += 1;
    let now = st.now;
    if st.tracer.enabled() {
        let detail = format!("spawn '{name}'");
        st.tracer.record(TraceEvent {
            time: now,
            kind: TraceKind::Spawn,
            pid: Some(pid),
            detail,
        });
    }
    // No thread, no machine yet: the body is materialized as a
    // kernel-owned state machine at its first Normal wake.
    st.procs.insert(
        pid,
        ProcEntry {
            name,
            body: ProcBody::Embryo(Box::new(move |ctx| Box::pin(f(ctx)))),
            alive: true,
            reply: None,
        },
    );
    st.push_resume(start_at, pid, WakeKind::Normal);
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
    shared: Rc<Shared>,
    /// The handler of every data event ([`Sim::set_data_handler`]). It
    /// holds its model strongly, so the `Sim` owns it rather than the shared
    /// kernel state: model state that keeps a kernel handle can then never
    /// close a reference cycle through it.
    handler: Option<DataHandler>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at time zero.
    pub fn new() -> Sim {
        Sim {
            shared: Rc::new(Shared {
                state: RefCell::new(KernelState {
                    queue: EventQueue::default(),
                    now: SimTime::ZERO,
                    procs: ProcTable::default(),
                    next_pid: 0,
                    stop_requested: false,
                    executed: 0,
                    max_time: None,
                    tracer: Tracer::default(),
                    exits: Vec::new(),
                    policy: None,
                    decisions: Vec::new(),
                    steps: Vec::new(),
                    candidates: Vec::new(),
                    candidate_at: Vec::new(),
                }),
                trace_on: Cell::new(false),
                wake: Cell::new(None),
            }),
            handler: None,
        }
    }

    /// Install the run's one data-event handler, boxed once: it receives
    /// every posted op ([`ProcCtx::post_op`]) and every data event
    /// ([`SimCtx::schedule_data`]) with the kernel state released, like a
    /// model closure. Whoever pairs a `Sim` with a model installs it before
    /// [`Sim::run`]; a data event without a handler is a model bug and
    /// panics.
    pub fn set_data_handler(&mut self, handler: impl Fn(&SimCtx, DataEvent) + 'static) {
        self.handler = Some(Box::new(handler));
    }

    /// Stop the run once the kernel clock passes `t` (remaining processes are
    /// killed during teardown).
    pub fn set_max_time(&mut self, t: SimTime) {
        self.shared.state.borrow_mut().max_time = Some(t);
    }

    /// Enable trace collection (returned in the [`RunReport`]).
    pub fn enable_trace(&mut self) {
        self.shared.state.borrow_mut().tracer.set_enabled(true);
        self.shared.trace_on.set(true);
    }

    /// Install a [`SchedulePolicy`]: the explorer's
    /// [`PrescribedPolicy`](crate::PrescribedPolicy) or the race detector's
    /// [`SeededPolicy`](crate::SeededPolicy). Every pop with more than one
    /// ready candidate consults the policy; [`RunReport::decisions`] and
    /// [`RunReport::steps`] record the run's choice points and step
    /// effects. Each wake stays an individually choosable scheduling unit.
    /// Without a policy the pop takes choice 0 at every instant, so the
    /// canonical order is the one a policy that always answers 0 gives.
    ///
    /// Every run stays fully deterministic for a given policy; what changes
    /// is the execution order of *independent* events scheduled for the
    /// same virtual instant (causal chains are unaffected: an event
    /// scheduled by another still runs after it). Each event's lane is
    /// stored with it at scheduling time and the policy acts only at pops,
    /// so it may be installed at any point before [`Sim::run`].
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.shared.state.borrow_mut().policy = Some(policy);
    }

    /// Spawn an initial process starting at time zero. See
    /// [`SimCtx::spawn_at`] for the async body contract.
    pub fn spawn<F, Fut>(&mut self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn_inner(&self.shared, SimTime::ZERO, name.into(), f)
    }

    /// Spawn an initial process starting at `at`.
    pub fn spawn_at<F, Fut>(&mut self, at: SimTime, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn_inner(&self.shared, at, name.into(), f)
    }

    /// Schedule a model closure before the run starts.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&SimCtx) + 'static) {
        self.shared.schedule_call(at, None, f);
    }

    /// Schedule a network-fault transition (link down / degrade / restore,
    /// partition start / heal) before the run starts: a model closure, like
    /// [`Sim::schedule`]. Fault transitions race with every flow chunk and
    /// retry probe touching the same link, so the tiebreak `lane` is a
    /// plain `u64`, not an option: no fault transition can be scheduled
    /// laneless, and same-lane same-time events keep their scheduling order
    /// under any schedule policy.
    pub fn schedule_link_fault(
        &mut self,
        at: SimTime,
        lane: u64,
        f: impl FnOnce(&SimCtx) + 'static,
    ) {
        self.shared.schedule_call(at, Some(lane), f);
    }

    /// Drive the event loop to completion.
    ///
    /// Ends when the queue drains with no parked processes, when a stop is
    /// requested, or when a budget/deadline triggers. On return every
    /// remaining process has been killed and its state machine dropped.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        let result = self.run_loop();
        // Always tear down remaining processes, even on error paths.
        self.teardown();
        let mut st = self.shared.state.borrow_mut();
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
            decisions: std::mem::take(&mut st.decisions),
            steps: std::mem::take(&mut st.steps),
        };
        drop(st);
        result.map(|()| report)
    }

    /// Pop the next event under a short state borrow, then dispatch it with
    /// the state released: model closures and process polls reenter the
    /// kernel.
    fn run_loop(&mut self) -> Result<(), SimError> {
        loop {
            let ev = {
                let mut st = self.shared.state.borrow_mut();
                if st.stop_requested {
                    return Ok(());
                }
                let Some(ev) = st.next_event()? else {
                    return Ok(());
                };
                debug_assert!(ev.time >= st.now, "event queue went backwards");
                st.now = ev.time;
                // A wake is counted by `drive_coro`, once it is delivered.
                if !matches!(ev.kind, EventKind::Resume(..)) {
                    st.executed += 1;
                }
                ev
            };
            match ev.kind {
                EventKind::Call(f) => {
                    let sc = SimCtx {
                        shared: Rc::clone(&self.shared),
                        now: ev.time,
                    };
                    f(&sc);
                }
                EventKind::Op(pid) => self.dispatch(ev.time, DataEvent::Op(pid)),
                EventKind::Data(words) => self.dispatch(ev.time, DataEvent::Data(words)),
                EventKind::Resume(pid, kind) => {
                    if let Some(err) = self.drive_coro(pid, kind, ev.time) {
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Hand a data event to the installed handler.
    fn dispatch(&self, now: SimTime, ev: DataEvent) {
        let handler = self
            .handler
            .as_ref()
            .expect("a data event ran with no data handler installed (Sim::set_data_handler)");
        let sc = SimCtx {
            shared: Rc::clone(&self.shared),
            now,
        };
        handler(&sc, ev);
    }

    /// Step a process: deposit the wake and poll its state machine inline.
    /// The machine is taken out of the table and polled with the state
    /// released — polling reenters the kernel (`post_op` schedules its Op
    /// event). A kill wake never reaches the machine: killing is a state
    /// transition in which the kernel drops the machine (running its Drop
    /// impls) and records the exit. Nor does a sleep's call: the kernel
    /// answers it with a wake at the same instant, in the same lane.
    fn drive_coro(&self, pid: Pid, kind: WakeKind, now: SimTime) -> Option<SimError> {
        enum Step {
            Start(EmbryoFn, ProcCtx),
            Poll(CoroFuture, Option<[u64; 2]>),
        }
        let step = {
            let mut st = self.shared.state.borrow_mut();
            // One executed event per delivered wake (a kill or a sleep's
            // call counts 1).
            st.executed += 1;
            let e = st.procs.get_mut(pid)?;
            if !e.alive {
                return None;
            }
            if kind == WakeKind::Killed {
                let body = std::mem::replace(&mut e.body, ProcBody::Gone);
                // Dropped with the state released: the machine's Drop impls
                // may run arbitrary model-state destructors.
                drop(st);
                drop(body);
                return self.record_exit(pid, now, ProcessExit::Killed);
            }
            if kind == WakeKind::Sleep {
                e.reply = Some(().to_words());
                st.push_resume(now, pid, WakeKind::Normal);
                return None;
            }
            match std::mem::replace(&mut e.body, ProcBody::Running) {
                ProcBody::Embryo(factory) => {
                    let ctx = ProcCtx {
                        pid,
                        name: Rc::clone(&e.name),
                        shared: Rc::clone(&self.shared),
                        local_time: now,
                    };
                    Step::Start(factory, ctx)
                }
                ProcBody::Coro(fut) => Step::Poll(fut, e.reply.take()),
                other => {
                    // A live process is always parked between wakes.
                    e.body = other;
                    debug_assert!(false, "process resumed in an undrivable state");
                    return None;
                }
            }
        };
        // Construct (first wake) and poll with panics contained.
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut fut = match step {
                Step::Start(factory, ctx) => factory(ctx),
                Step::Poll(fut, reply) => {
                    self.shared.wake.set(Some((now, reply)));
                    fut
                }
            };
            let mut cx = Context::from_waker(Waker::noop());
            match fut.as_mut().poll(&mut cx) {
                Poll::Pending => Some(fut),
                Poll::Ready(()) => None,
            }
        }));
        let unconsumed = self.shared.wake.take();
        debug_assert!(
            unconsumed.is_none() || polled.is_err(),
            "a resumed process parked without consuming its wake"
        );
        match polled {
            Ok(Some(fut)) => {
                // Parked at a suspension point: store the machine back.
                if let Some(e) = self.shared.state.borrow_mut().procs.get_mut(pid) {
                    e.body = ProcBody::Coro(fut);
                }
                None
            }
            Ok(None) => self.record_exit(pid, now, ProcessExit::Normal),
            Err(payload) => {
                self.record_exit(pid, now, ProcessExit::Panicked(panic_message(payload)))
            }
        }
    }

    /// Exit bookkeeping: dead-mark (which makes the process's pending
    /// events stale), exit trace and record, panic escalation.
    fn record_exit(&self, pid: Pid, now: SimTime, status: ProcessExit) -> Option<SimError> {
        let mut st = self.shared.state.borrow_mut();
        let name = if let Some(e) = st.procs.get_mut(pid) {
            e.alive = false;
            e.body = ProcBody::Gone;
            Rc::clone(&e.name)
        } else {
            Rc::from("?")
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
        st.exits.push((pid, Rc::clone(&name), status.clone()));
        if let ProcessExit::Panicked(message) = status {
            return Some(SimError::ProcessPanicked {
                name: name.to_string(),
                message,
            });
        }
        None
    }

    /// Kill every remaining process, lowest pid first, dropping each state
    /// machine with the state released (Drop impls may run arbitrary
    /// model-state destructors). One walk in pid order from a cursor: a
    /// dead process never comes back, and a process spawned by a
    /// destructor takes a pid above the cursor, so the walk still meets
    /// every live process lowest first.
    fn teardown(&mut self) {
        let mut cursor = 0;
        loop {
            let body = {
                let mut st = self.shared.state.borrow_mut();
                let st = &mut *st;
                let Some(pid) = (cursor..st.next_pid)
                    .map(Pid)
                    .find(|&p| st.procs.get(p).is_some_and(|e| e.alive))
                else {
                    break;
                };
                cursor = pid.0 + 1;
                let e = st.procs.get_mut(pid).expect("a live process has an entry");
                let body = std::mem::replace(&mut e.body, ProcBody::Gone);
                e.alive = false;
                let name = Rc::clone(&e.name);
                st.exits.push((pid, name, ProcessExit::Killed));
                body
            };
            drop(body);
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.teardown();
    }
}
