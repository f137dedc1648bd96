//! Coordinated-checkpointing fault tolerance for the `ftmpi` runtime: the
//! paper's primary contribution.
//!
//! Two protocol engines are provided, matching the two implementations the
//! paper compares:
//!
//! * [`Vcl`] — **non-blocking** coordinated checkpointing (MPICH-Vcl): a
//!   direct implementation of the Chandy–Lamport distributed-snapshot
//!   algorithm. A dedicated *checkpoint scheduler* process initiates waves;
//!   each rank's communication daemon handles markers asynchronously, forks
//!   to stream its image, and logs in-transit channel messages, which are
//!   replayed at restart. Communication is never interrupted.
//!
//! * [`Pcl`] — **blocking** coordinated checkpointing (MPICH2-Pcl): rank 0
//!   initiates waves; markers flush every channel. After sending its
//!   markers a rank delays outgoing posts per channel, and after receiving
//!   a marker on a channel it delays receptions from it, until its local
//!   checkpoint is taken. No channel state needs to be saved; delayed sends
//!   are re-posted after a restart. Marker handling requires the process to
//!   be inside the MPI library (progress engine), which is where the
//!   blocking protocol's synchronization cost comes from.
//!
//! Both run on one [`WaveEngine`]: the wave lifecycle
//! around the cut — timers, image streams with replica reroute, commit,
//! aborts — is written once in [`wave`], and each protocol supplies only
//! what the paper says differs. [`Mlog`], the uncoordinated
//! message-logging alternative, is an engine of its own.
//!
//! Around the protocols: [`server`] models checkpoint servers and the
//! chunked image/log streams that contend with MPI traffic on the NICs;
//! [`recovery`] routes every kill to the engine's restart (the
//! dispatcher's kill-all / restore / replay, or Mlog's single-rank one);
//! [`failure`] provides targeted and MTTF-driven failure injection; and
//! [`runner`] assembles platform + placement + protocol + workload into a
//! single [`run_job`] call used by every experiment in the
//! paper-reproduction harness.

#![warn(missing_docs)]

pub mod config;
pub mod deploy;
pub mod failure;
pub mod image;
pub mod mlog;
pub mod pcl;
pub mod recovery;
pub mod runner;
pub mod server;
pub mod stats;
pub mod vcl;
pub mod wave;

pub use config::FtConfig;
pub use deploy::Deployment;
pub use failure::{CorruptionEvent, FailurePlan, SilentCorruptionSpec};
pub use image::RankImage;
pub use mlog::Mlog;
pub use pcl::Pcl;
pub use runner::{
    run_job, run_job_explored, run_job_with, JobError, JobResult, JobSpec, Platform,
    ProtocolChoice, RunOptions, Schedule, ScheduleLog, SpecError,
};
pub use server::StoreError;
pub use stats::FtStats;
pub use vcl::Vcl;
pub use wave::WaveEngine;
