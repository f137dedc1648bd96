//! The fault-tolerance protocol hook interface.
//!
//! These hooks correspond to the integration points the paper describes:
//!
//! * [`Protocol::on_send_post`] — MPICH2-Pcl adds "a hook in the request
//!   posting function for verifying and delaying these posts if a checkpoint
//!   wave is currently active";
//! * [`Protocol::on_arrival`] — MPICH-Vcl's daemon stores in-transit
//!   messages per Chandy–Lamport; Nemesis-Pcl copies packets from blocked
//!   processes into a delayed receive queue;
//! * [`Protocol::on_runtime_entry`] — in the blocking protocol, markers are
//!   only handled when the process is inside the MPI library (the progress
//!   engine runs); the non-blocking protocol handles them asynchronously in
//!   its separate daemon process and ignores this hook;
//! * [`Protocol::on_job_start`] and [`Protocol::on_checkpoint_request`] —
//!   the dispatcher arms the engine's checkpoint timers once the ranks are
//!   spawned, and may ask for a wave early (the failure-prediction trigger
//!   of the paper's conclusion);
//! * [`Protocol::on_data`] — an event the engine scheduled as data with
//!   [`schedule_proto_data`] is due. An engine with a per-message or
//!   per-rank event keeps what the event needs in a table of its own and
//!   names the entry in one word, so the event boxes no closure.

use std::any::Any;

use ftmpi_sim::{SimCtx, SimTime};

use crate::runtime::RuntimeCore;
use crate::types::{AppMsg, Rank};
use crate::world::PROTO;

/// Verdict of [`Protocol::on_send_post`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Inject the message into the network now.
    Proceed,
    /// The protocol took ownership of the message and will inject it later
    /// (blocking protocol during a checkpoint wave).
    Hold,
}

/// Verdict of [`Protocol::on_arrival`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalAction {
    /// Hand the message to the matching engine now.
    Deliver,
    /// The protocol took ownership (delayed receive queue) and will deliver
    /// it later.
    Hold,
}

/// Fault-tolerance protocol engine plugged into the runtime.
///
/// Implementations live in `ftmpi-core`; [`DummyProtocol`] (the paper's
/// "Vdummy" / plain runs) is provided here as the no-op baseline. Every hook
/// gets the engine and the runtime core as two borrows of the one world.
/// An engine's frequent events are data: it schedules a word with
/// [`schedule_proto_data`] and receives it in [`Protocol::on_data`];
/// rare control events may still box a closure.
pub trait Protocol {
    /// Short name used in reports ("dummy", "vcl", "pcl").
    fn name(&self) -> &'static str;

    /// A rank's application thread entered the runtime (any operation), or
    /// just parked inside a blocking one, where its progress engine polls
    /// even though the application issues nothing. Deferred control
    /// handling (blocking-protocol markers) happens here.
    fn on_runtime_entry(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank);

    /// An application send is about to be injected into the network.
    fn on_send_post(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> SendAction;

    /// An application message arrived at the destination's runtime.
    fn on_arrival(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction;

    /// A rank's application code finished (rank reached `Mpi::finalize`).
    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        let _ = (rt, sc, rank);
    }

    /// Every rank was just spawned: arm the engine's checkpoint timers.
    fn on_job_start(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        let _ = (rt, sc);
    }

    /// A proactive checkpoint was requested (a failure predictor fired):
    /// coordinated engines start a wave now unless one is in flight.
    fn on_checkpoint_request(&mut self, rt: &mut RuntimeCore, sc: &SimCtx) {
        let _ = (rt, sc);
    }

    /// The data event `word` the engine scheduled with
    /// [`schedule_proto_data`] is due. What the word names is the engine's
    /// business. An engine that schedules none keeps this default, which
    /// panics as a data event without a handler does.
    fn on_data(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, word: u64) {
        let _ = (rt, sc);
        panic!(
            "protocol {} has no data-event handler (word {word})",
            self.name()
        );
    }

    /// Downcast support so `ftmpi-core` controller events can reach their
    /// concrete protocol state through the type-erased world.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Schedule the protocol data event `word` at `at` (clamped to now),
/// laneless: the world hands `word` to [`Protocol::on_data`] of the run's
/// engine. Nothing is allocated.
pub fn schedule_proto_data(sc: &SimCtx, at: SimTime, word: u64) {
    sc.schedule_data(at, None, [PROTO, word]);
}

/// No-fault-tolerance baseline: all hooks pass through.
///
/// Equivalent to the paper's Vdummy protocol / checkpoint-free executions.
#[derive(Debug, Default)]
pub struct DummyProtocol;

impl Protocol for DummyProtocol {
    fn name(&self) -> &'static str {
        "dummy"
    }

    fn on_runtime_entry(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _rank: Rank) {}

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _msg: &AppMsg) -> SendAction {
        SendAction::Proceed
    }

    fn on_arrival(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _msg: &AppMsg) -> ArrivalAction {
        ArrivalAction::Deliver
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
