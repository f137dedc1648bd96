//! Simulated processes: resumable state machines driven by the kernel.
//!
//! A simulated process is an `async` body compiled by rustc into an
//! enum-encoded state machine with one suspension point per kernel
//! interaction ([`ProcCtx::post_op`] and the sleep helpers). The kernel
//! owns the machine and steps it inline from the event loop: a
//! Resume event is a direct `poll` call on the scheduler's own thread — no
//! OS thread, no lock, no execution token. Exactly one machine steps at a
//! time, so model state never sees concurrent access and every shared
//! handle is a plain single-threaded cell.

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::kernel::Shared;
use crate::reply::ReplyWords;
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated process. Never reused within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl Pid {
    /// Tiebreak lane for events targeting this process (see
    /// [`SimCtx::schedule_keyed`](crate::SimCtx::schedule_keyed)): same-time
    /// events aimed at one process always run in scheduling order, under
    /// any schedule policy, because their order is model semantics
    /// (channel FIFO, op boundaries) rather than an accident.
    pub fn lane(self) -> u64 {
        self.0
    }

    /// The pid's position in allocation order. Pids are allocated densely
    /// from 0 and never reused, so model tables keyed by process can be
    /// plain vectors indexed by this.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a process's life ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessExit {
    /// The process function returned.
    Normal,
    /// The process was killed by the failure injector / kernel teardown.
    Killed,
    /// The process function panicked (a bug in model or application code).
    Panicked(String),
}

/// Why a parked process is being resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeKind {
    Normal,
    Killed,
    /// The call of a [`ProcCtx::sleep_until_local`], offered to a policy as
    /// a call; the kernel answers it with a `Normal` wake at once.
    Sleep,
}

/// What the drive loop hands a resumed process: the kernel time of the
/// wake and the reply words waiting in the process's table entry.
pub(crate) type Wake = (SimTime, Option<[u64; 2]>);

/// One suspension point: resolves to the next [`Wake`], which the drive
/// loop deposits in the kernel's wake slot immediately before polling the
/// machine.
struct Suspend<'a> {
    shared: &'a Shared,
}

impl Future for Suspend<'_> {
    type Output = Wake;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Wake> {
        match self.shared.wake.take() {
            Some(wake) => Poll::Ready(wake),
            None => Poll::Pending,
        }
    }
}

/// Per-process handle given to the process body.
///
/// Carries the *lazy local clock*: [`advance`](ProcCtx::advance) models
/// computation without kernel interaction, while
/// [`post_op`](ProcCtx::post_op) and the sleep helpers synchronize with the
/// kernel at the process's local time.
pub struct ProcCtx {
    pub(crate) pid: Pid,
    pub(crate) name: Rc<str>,
    pub(crate) shared: Rc<Shared>,
    pub(crate) local_time: SimTime,
}

impl ProcCtx {
    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The process name given at spawn time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process-local virtual clock. Always at or ahead of kernel time.
    pub fn now(&self) -> SimTime {
        self.local_time
    }

    /// Model `d` of local computation: advances only the local clock.
    pub fn advance(&mut self, d: SimDuration) {
        self.local_time += d;
    }

    /// Post this process's op at its local time and suspend until the
    /// model completes the [`Reply`](crate::Reply). Returns the reply
    /// value; the local clock is advanced to the completion time. The model
    /// keeps the op's arguments itself, keyed by this process's pid, and
    /// the op event reaches the run's data handler
    /// ([`Sim::set_data_handler`](crate::Sim::set_data_handler)) as
    /// [`DataEvent::Op`](crate::DataEvent::Op), in this process's lane. The
    /// op event is dropped unrun if the process dies first.
    ///
    /// The handler must either complete
    /// [`Reply::new(pid)`](crate::Reply::new) (or a variant) before
    /// returning, or keep the reply in model state so that a later event
    /// completes it. Waking a process without filling its reply is a model
    /// bug and panics.
    pub async fn post_op<R: ReplyWords>(&mut self) -> R {
        self.shared.schedule_op(self.pid, self.local_time);
        self.suspend().await
    }

    /// Park until the wake that completes the outstanding reply; advance
    /// the local clock to it and unpack the reply.
    async fn suspend<R: ReplyWords>(&mut self) -> R {
        // A kill never resolves this suspension: the kernel drops the
        // machine instead.
        let (resume_time, reply) = Suspend {
            shared: &self.shared,
        }
        .await;
        if resume_time > self.local_time {
            self.local_time = resume_time;
        }
        R::from_words(reply.expect("process woken without a completed reply (model bug)"))
    }

    /// Suspend until the kernel clock catches up with the local clock.
    ///
    /// Useful to make locally-accumulated compute time observable (e.g. at
    /// the end of a process, or before reading shared state). The kernel
    /// answers the sleep itself, so it needs no data handler: one call in
    /// this process's lane at its local time, dropped unrun if the process
    /// dies first, then the wake.
    pub async fn sleep_until_local(&mut self) {
        {
            let mut st = self.shared.state.borrow_mut();
            st.push_resume(self.local_time, self.pid, WakeKind::Sleep);
        }
        self.suspend().await
    }

    /// Advance the local clock by `d` and synchronize with the kernel:
    /// a timed wait during which other processes run.
    pub async fn sleep(&mut self, d: SimDuration) {
        self.advance(d);
        self.sleep_until_local().await;
    }
}
