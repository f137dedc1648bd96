//! NAS Parallel Benchmark communication skeletons and synthetic workloads.
//!
//! The paper evaluates the protocols with NPB 2.3 — primarily **BT**
//! (compute-heavy, nearest-neighbour exchanges on a square process grid)
//! and **CG** (latency-bound, many small messages and reductions). The
//! protocols only observe the *communication pattern, message volumes and
//! compute gaps*, so each benchmark is reproduced as a skeleton that issues
//! the NPB-derived message sizes and NPB-derived flop counts (converted to
//! time through a [`Machine`] rate), not the numerics — see DESIGN.md §5.3.
//!
//! Besides BT and CG, [`synth`] provides the NetPIPE-style ping-pong used
//! by the §5.4 platform characterization and a token ring.

#![warn(missing_docs)]

pub mod bt;
pub mod cg;
pub mod machine;
pub mod params;
pub mod synth;

pub use machine::Machine;
pub use params::NasClass;

use ftmpi_mpi::AppFn;

/// A ready-to-run workload: the application closure plus the
/// fault-tolerance sizing that goes with it.
pub struct Workload {
    /// Display name, e.g. `"bt.B.64"`.
    pub name: String,
    /// Per-rank application.
    pub app: AppFn,
    /// Per-rank system-level checkpoint image size.
    pub image_bytes: u64,
}
