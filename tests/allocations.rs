//! Heap allocations per executed event, on the job shapes of Fig. 5.
//!
//! Every per-message and per-chunk event is data (a posted op, a reply in
//! the process table, an arrival or flow step naming a table slot, and
//! Mlog's log acknowledgement and checkpoint timer naming an entry of the
//! engine's), so a job's allocations come from setup, rare control events
//! (wave timers, markers, restarts) and one pair of boxed hooks per
//! checkpoint stream, not from its messages. This binary has a counting
//! global allocator of its own; it counts on each thread separately, so
//! only the job the test runs on its own thread is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ftmpi_bench::{bt_workload, cluster_spec};
use ftmpi_core::{run_job, ProtocolChoice};
use ftmpi_nas::NasClass;
use ftmpi_sim::SimDuration;

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its allocations are
    // not the test's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// BT class B on 16 ranks, 30 s checkpoint period: no checkpointing, Pcl
/// with one checkpoint server, Vcl with eight, and Mlog with one. Each job
/// allocates at most 0.05 times per executed event, setup included.
#[test]
fn fig5_jobs_allocate_at_most_once_per_twenty_events() {
    let wl = bt_workload(NasClass::B, 16);
    let period = SimDuration::from_secs(30);
    for (label, proto, servers) in [
        ("dummy", ProtocolChoice::Dummy, 1),
        ("pcl x1", ProtocolChoice::Pcl, 1),
        ("vcl x8", ProtocolChoice::Vcl, 8),
        ("mlog x1", ProtocolChoice::Mlog, 1),
    ] {
        let spec = cluster_spec(&wl, 16, proto, servers, period);
        let before = ALLOCATIONS.with(Cell::get);
        let res = run_job(spec).expect("job runs");
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        let per_event = allocations as f64 / res.events as f64;
        println!(
            "bt.B.16 {label}: {allocations} allocations over {} events, {per_event:.3} per event",
            res.events
        );
        assert!(
            per_event <= 0.05,
            "bt.B.16 {label}: {per_event:.3} allocations per event"
        );
    }
}
