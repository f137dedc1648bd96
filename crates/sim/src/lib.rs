//! Deterministic process-oriented discrete-event simulation kernel.
//!
//! This crate is the substrate every other `ftmpi` crate runs on. It provides
//! a virtual clock, an event queue ordered by `(time, sequence)` (a
//! monotone radix heap: virtual time never runs backwards), and
//! *simulated processes*: `async` Rust bodies compiled into resumable state
//! machines that the kernel owns and steps **inline** from its event loop —
//! no OS thread per process, so topologies with 10⁵⁺ processes fit in one
//! scheduler thread. Execution stays strictly sequential (one machine steps
//! at a time), so every run with the same inputs takes the same scheduling
//! decisions and produces bit-identical virtual timings. A [`Sim`] is
//! single-threaded end to end: its state sits in `Rc`/`RefCell`/`Cell`
//! handles, and the event path takes no lock and touches no atomic.
//!
//! # Lazy local clocks
//!
//! Simulated computation is free: [`ProcCtx::advance`] only bumps the
//! process-local clock. The kernel is involved only when a process interacts
//! with shared model state through [`ProcCtx::post_op`], which schedules its
//! op *at the process's local time* and suspends the state machine until
//! the model wakes it through a [`Reply`], or when it waits for the kernel
//! clock to catch up ([`ProcCtx::sleep_until_local`]). This keeps event
//! counts proportional to communication operations, not compute phases.
//!
//! # Events as data
//!
//! Hot model paths schedule no closures. A process posts its operation as
//! data ([`ProcCtx::post_op`]), model code schedules two-word data events
//! ([`SimCtx::schedule_data`]), and both reach the one handler the model
//! installs per run ([`Sim::set_data_handler`]) as a [`DataEvent`]. A reply
//! is two words kept in the process table ([`ReplyWords`]), so neither
//! direction allocates. Boxed closures remain for rare control events, and
//! a sleep is answered by the kernel itself.
//!
//! # Failure injection
//!
//! Processes can be killed at any virtual time ([`SimCtx::kill`]). The kernel
//! drops a killed process's state machine at the kill wake — a pure state
//! transition that runs the machine's destructors, mirroring the "task killed
//! by the operating system" failure model of the paper this workspace
//! reproduces. The process's pending events die with it: its next wake and
//! the op or sleep it was suspended in are dropped unrun.
//!
//! # Example
//!
//! ```
//! use ftmpi_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new();
//! sim.spawn("worker", move |mut ctx| async move {
//!     ctx.advance(SimDuration::from_secs_f64(2.5)); // simulated compute
//!     ctx.sleep_until_local().await;                // sync with the kernel
//! });
//! let report = sim.run().unwrap();
//! assert!(report.final_time.as_secs_f64() >= 2.5);
//! ```

#![warn(missing_docs)]

mod arena;
mod event;
mod hash;
mod kernel;
pub mod microbench;
mod process;
mod reply;
pub mod schedule;
mod table;
mod time;
mod trace;

pub use hash::{FxBuildHasher, FxHasher};
pub use kernel::{DataEvent, DeadlockInfo, RunReport, Sim, SimCtx, SimError};
pub use process::{Pid, ProcCtx, ProcessExit};
pub use reply::{Reply, ReplyWords};
pub use schedule::{
    Candidate, CandidateKind, Decision, PrescribedPolicy, SchedulePolicy, SeededPolicy, StepRecord,
};
pub use time::{SimDuration, SimTime};
pub use trace::{ProtoEvent, TraceEvent, TraceKind, Tracer};
