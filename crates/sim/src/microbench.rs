//! Op driver for the kernel event-queue microbenchmark.
//!
//! The sim crates forbid wall-clock reads (the determinism lint), so this
//! module only *drives* a queue through a deterministic operation mix;
//! `ftmpi-bench`'s `kernel_bench` binary wraps it with timing and emits
//! `BENCH_kernel.json`. Keeping the driver here lets it use the crate-private
//! [`EventQueue`](crate::event) directly — the benchmark measures the real
//! queue, tombstones, arena and all, not a stripped-down model of it.

use crate::event::{EventId, EventKind, EventQueue};
use crate::time::SimTime;

/// Event-time density profile of a drive run. The three profiles bracket the
/// kernel's real workloads: coordinated-checkpoint marker storms put
/// thousands of events at one instant, chunked flows cluster within
/// microseconds, and timers/retries scatter across seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Density {
    /// Dense same-instant bursts: every event lands at the current time.
    SameTime,
    /// Near time: gaps up to one microsecond.
    NearTime,
    /// Wide spread: gaps up to two simulated seconds.
    WideSpread,
}

impl Density {
    /// All profiles, in reporting order.
    pub const ALL: [Density; 3] = [Density::SameTime, Density::NearTime, Density::WideSpread];

    /// Short machine-readable name (used as the JSON key in
    /// `BENCH_kernel.json`).
    pub fn name(self) -> &'static str {
        match self {
            Density::SameTime => "same_time",
            Density::NearTime => "near_time",
            Density::WideSpread => "wide_spread",
        }
    }

    /// Gap in nanoseconds between "now" and a pushed event, derived from one
    /// draw `r` of the driver's generator.
    fn gap(self, r: u64) -> u64 {
        match self {
            Density::SameTime => 0,
            Density::NearTime => r % 1_000,
            Density::WideSpread => r % 2_000_000_000,
        }
    }
}

/// xorshift64* step: the driver's deterministic generator (kept distinct
/// from the workspace's `splitmix64`, which the lane audit pins to the
/// schedule module).
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s >> 12;
    *s ^= *s << 25;
    *s ^= *s >> 27;
    s.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Drive `ops` operations against a fresh queue, holding the pending-event
/// count near `steady`. The mix is one push + one pop per iteration with a
/// 1-in-16 chance of cancelling a random recent event (including
/// already-popped ones — stale timer cancellations are part of the real
/// workload), with compaction triggered at `compact_min_tombstones`.
///
/// The first argument is ignored; it is kept so existing callers build
/// unchanged.
///
/// Returns a checksum over the popped sequence so the work cannot be
/// optimized away and so callers can check that a change to the queue
/// kept the pop order.
pub fn drive(
    _backend: bool,
    density: Density,
    steady: usize,
    ops: u64,
    compact_min_tombstones: usize,
) -> u64 {
    let mut q = EventQueue::default();
    q.set_compact_min_tombstones(compact_min_tombstones);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (steady as u64) ^ ops.rotate_left(17);
    let mut now = 0u64;
    let mut checksum = 0u64;
    let mut recent: Vec<EventId> = Vec::with_capacity(steady.max(1));
    let noop = || EventKind::Call(Box::new(|_| {}));
    for _ in 0..steady {
        let r = xorshift(&mut rng);
        let t = SimTime::from_nanos(now + density.gap(r));
        recent.push(q.push(t, Some(r % 64), noop()));
    }
    for _ in 0..ops {
        let r = xorshift(&mut rng);
        let t = SimTime::from_nanos(now + density.gap(r));
        let id = q.push(t, Some(r % 64), noop());
        if recent.len() == recent.capacity() {
            recent.swap_remove(0);
        }
        recent.push(id);
        if r.is_multiple_of(16) {
            let victim = recent[(xorshift(&mut rng) % recent.len() as u64) as usize];
            q.cancel(victim);
        }
        if let Some(ev) = q.pop() {
            now = ev.time.as_nanos();
            checksum ^= ev.seq.rotate_left((now % 63) as u32) ^ ev.seq;
        }
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_workload_sensitive() {
        let a = drive(false, Density::NearTime, 256, 5_000, 64);
        assert_eq!(a, drive(false, Density::NearTime, 256, 5_000, 64));
        assert_ne!(a, drive(false, Density::WideSpread, 256, 5_000, 64));
    }

    /// The pop order is pinned to the checksums the binary heap, the former
    /// ladder backend and the radix heap all produced for this drive. (Same-instant pops
    /// checksum to 0 by construction: each folds `seq` in twice and `now`
    /// stays 0.)
    #[test]
    fn pop_order_matches_the_recorded_checksums() {
        let sum = |d| drive(false, d, 512, 10_000, 64);
        assert_eq!(sum(Density::NearTime), 0x77b1_6eee_69e3_b796);
        assert_eq!(sum(Density::WideSpread), 0xa666_8719_2f50_501e);
    }
}
