//! Op driver for the kernel event-queue microbenchmark.
//!
//! The sim crates forbid wall-clock reads (the determinism lint), so this
//! module only *drives* a queue through a deterministic operation mix;
//! `ftmpi-bench`'s `kernel_bench` binary wraps it with timing and emits
//! `BENCH_kernel.json`. Keeping the driver here lets it use the crate-private
//! [`EventQueue`](crate::event) directly — the benchmark measures the real
//! queue, radix buckets, same-instant tier and arena, not a stripped-down
//! model of it.

use crate::event::{EventKind, EventQueue};
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

/// Fold one popped event into a drive's checksum. The rotation makes the
/// fold order-sensitive: two events popped in the other order, even at one
/// instant, give another checksum.
fn fold(h: u64, seq: u64, time_ns: u64) -> u64 {
    h.rotate_left(5) ^ seq ^ time_ns
}

/// Drive `ops` operations against a fresh queue, holding the pending-event
/// count near `steady`: each iteration pushes one event in a random one of
/// 64 lanes and pops one. Each event carries a two-word data payload, the
/// shape of the simulator's hot-path events (message arrivals, flow
/// chunks); pop order depends only on time and `seq`.
///
/// The first and the last argument are ignored; they are kept so existing
/// callers build unchanged.
///
/// Returns a checksum over the popped sequence so the work cannot be
/// optimized away and so callers can check that a change to the queue
/// kept the pop order, ties included.
pub fn drive(
    _backend: bool,
    density: Density,
    steady: usize,
    ops: u64,
    _compact_min_tombstones: usize,
) -> u64 {
    let mut q = EventQueue::default();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (steady as u64) ^ ops.rotate_left(17);
    let mut now = 0u64;
    let mut checksum = 0u64;
    for _ in 0..steady {
        let r = xorshift(&mut rng);
        let t = SimTime::from_nanos(now + density.gap(r));
        q.push(t, Some(r % 64), EventKind::Data([r, t.as_nanos()]));
    }
    for _ in 0..ops {
        let r = xorshift(&mut rng);
        let t = SimTime::from_nanos(now + density.gap(r));
        q.push(t, Some(r % 64), EventKind::Data([r, t.as_nanos()]));
        if let Some(ev) = q.pop() {
            now = ev.time.as_nanos();
            checksum = fold(checksum, ev.seq, now);
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

    /// The pop order is pinned to the checksums this drive recorded on the
    /// queue it was written against. Every pop counts, same-instant ones
    /// included: in the `same_time` drive all events sit at t=0, so its
    /// checksum pins the order within one instant.
    #[test]
    fn pop_order_matches_the_recorded_checksums() {
        let sum = |d| drive(false, d, 512, 10_000, 64);
        assert_eq!(sum(Density::SameTime), 0x2ad2_f6ce_369f_7ee8);
        assert_eq!(sum(Density::NearTime), 0x13ae_e780_f69f_d1e3);
        assert_eq!(sum(Density::WideSpread), 0x12ce_4e9f_d955_4d34);
    }

    #[test]
    fn two_orders_of_one_tied_instant_give_different_checksums() {
        let sum = |pops: &[(u64, u64)]| pops.iter().fold(0, |h, &(seq, t)| fold(h, seq, t));
        assert_ne!(sum(&[(3, 10), (4, 10)]), sum(&[(4, 10), (3, 10)]));
        assert_ne!(
            sum(&[(0, 0), (1, 0), (2, 0)]),
            sum(&[(0, 0), (2, 0), (1, 0)]),
            "at t=0 too"
        );
    }
}
