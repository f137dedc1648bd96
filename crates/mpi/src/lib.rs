//! An MPI-like message-passing runtime over the `ftmpi` simulation kernel.
//!
//! The runtime mirrors the structure the paper instruments: applications run
//! as simulated processes ("ranks") issuing point-to-point and collective
//! operations; the runtime core owns the matching engine, per-channel FIFO
//! sequencing and the network model; and a pluggable [`Protocol`] receives
//! the same hooks the paper adds to MPICH — send-posting interception
//! (MPICH2-Pcl's "hook in the request posting function"), message-arrival
//! interception (Vcl's daemon logging, Nemesis' delayed receive queue), and
//! runtime-entry notification (progress-engine activity, which gates marker
//! handling in the blocking protocol).
//!
//! Fault tolerance semantics (checkpoint waves, images, restart) live in
//! `ftmpi-core`; this crate provides the mechanisms they need:
//!
//! * **operation counting** — every application-visible operation gets a
//!   sequence number, so a checkpoint can record "rank r had completed k
//!   operations" and a restarted rank can *skip-replay* its first k
//!   operations instantly and deterministically;
//! * **time credit** — compute time elapsed between the last runtime
//!   interaction and the checkpoint instant is recorded and credited back
//!   after restart, making restart timing equivalent to resuming a
//!   system-level process image mid-computation;
//! * **epochs** — every in-flight network event carries the job epoch and is
//!   discarded if a failure-restart bumped it meanwhile;
//! * **flows** — checkpoint images and message logs stream in chunks that
//!   share the NICs with MPI traffic ([`flow`]).
//!
//! Per-message and per-chunk events are data, not closures: a rank's op,
//! a message arrival, a flow's next step and a protocol engine's own events
//! each name a table entry, and one handler per run dispatches them
//! ([`World::attach`]).

#![warn(missing_docs)]

mod collectives;
pub mod flow;
mod handle;
mod placement;
mod protocol;
mod runtime;
mod slab;
mod types;
mod world;

pub use handle::{Mpi, ReqHandle};
pub use placement::Placement;
pub use protocol::{schedule_proto_data, ArrivalAction, DummyProtocol, Protocol, SendAction};
pub use runtime::{RaceFixture, RankState, RankStatus, RuntimeCore, RuntimeStats};
pub use types::{AppMsg, ChannelKey, MsgSeq, Rank, RecvInfo, Tag, ANY_SOURCE, ANY_TAG};
pub use world::{app_fn, spawn_rank, AppFn, AppFuture, World, WorldRef};
