//! Serialized transmission resources (NIC queues, disks, WAN pipes).

use ftmpi_sim::{SimDuration, SimTime};

/// A resource that serializes transfers: one transfer occupies it for
/// `bytes / capacity` and later transfers queue FIFO behind it.
///
/// The *occupancy* rate (`capacity_bps`, shared-link capacity) can differ
/// from the *per-flow* rate a single transfer experiences (TCP over a WAN
/// path achieves far less than the access-link capacity): see
/// [`reserve_with_rate`](Resource::reserve_with_rate).
#[derive(Debug, Clone)]
pub struct Resource {
    capacity_bps: f64,
    busy_until: SimTime,
}

impl Resource {
    /// Create a resource with the given capacity in bytes/second.
    /// A non-positive capacity means "infinitely fast" (stage disabled).
    pub fn new(capacity_bps: f64) -> Resource {
        Resource {
            capacity_bps,
            busy_until: SimTime::ZERO,
        }
    }

    /// Reserve the resource for `bytes` starting no earlier than `earliest`.
    /// Returns `(start, finish)` where `finish - start = bytes / capacity`.
    pub fn reserve(&mut self, earliest: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.reserve_with_rate(earliest, bytes, self.capacity_bps)
    }

    /// Reserve with a distinct per-flow rate: the transfer *finishes* after
    /// `bytes / flow_bps`, but only *occupies* the shared resource for
    /// `bytes / capacity` (other flows may start once the occupancy window
    /// ends). `flow_bps` is clamped to the capacity when the capacity is
    /// finite.
    pub fn reserve_with_rate(
        &mut self,
        earliest: SimTime,
        bytes: u64,
        flow_bps: f64,
    ) -> (SimTime, SimTime) {
        let start = earliest.max(self.busy_until);
        let occupancy = SimDuration::for_transfer(bytes, self.capacity_bps);
        let flow_rate = if self.capacity_bps > 0.0 {
            flow_bps.min(self.capacity_bps)
        } else {
            flow_bps
        };
        let duration = SimDuration::for_transfer(bytes, flow_rate).max(occupancy);
        self.busy_until = start + occupancy;
        (start, start + duration)
    }

    /// Pass-through for small control-sized messages: models packet-level
    /// interleaving through a busy resource. The message pays only its own
    /// transmission time and does not occupy the queue (its occupancy is a
    /// single MTU — negligible). FIFO *per channel* is enforced separately
    /// by the path model.
    pub fn bypass(&self, earliest: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let duration = SimDuration::for_transfer(bytes, self.capacity_bps);
        (earliest, earliest + duration)
    }

    /// Reset queueing state (used when a platform is rebooted after a
    /// failure-restart).
    pub fn reset_queue(&mut self, now: SimTime) {
        self.busy_until = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_serialize_fifo() {
        let mut r = Resource::new(100.0); // 100 B/s
        let (s1, e1) = r.reserve(SimTime::ZERO, 100); // 1s
        let (s2, e2) = r.reserve(SimTime::ZERO, 50); // queued behind
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1.as_secs_f64(), 1.0);
        assert_eq!(s2, e1);
        assert_eq!(e2.as_secs_f64(), 1.5);
    }

    #[test]
    fn idle_gap_is_respected() {
        let mut r = Resource::new(100.0);
        r.reserve(SimTime::ZERO, 100);
        // Arrives after the queue drained: starts at its own arrival.
        let (s, e) = r.reserve(SimTime::from_nanos(5_000_000_000), 100);
        assert_eq!(s.as_secs_f64(), 5.0);
        assert_eq!(e.as_secs_f64(), 6.0);
    }

    #[test]
    fn infinite_capacity_is_instant() {
        let mut r = Resource::new(0.0);
        let (s, e) = r.reserve(SimTime::from_nanos(42), 1 << 30);
        assert_eq!(s, e);
        assert_eq!(s.as_nanos(), 42);
    }

    #[test]
    fn flow_rate_slower_than_capacity() {
        let mut r = Resource::new(1000.0);
        // 1000 bytes at a 100 B/s flow: finishes at 10s but occupies only 1s.
        let (s1, e1) = r.reserve_with_rate(SimTime::ZERO, 1000, 100.0);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1.as_secs_f64(), 10.0);
        // Next flow can start after the 1s occupancy window.
        let (s2, _) = r.reserve_with_rate(SimTime::ZERO, 1000, 100.0);
        assert_eq!(s2.as_secs_f64(), 1.0);
    }

    #[test]
    fn flow_rate_clamped_to_capacity() {
        let mut r = Resource::new(100.0);
        let (_, e) = r.reserve_with_rate(SimTime::ZERO, 100, 1e12);
        assert_eq!(e.as_secs_f64(), 1.0);
    }

    #[test]
    fn reset_queue_clears_backlog() {
        let mut r = Resource::new(1.0);
        r.reserve(SimTime::ZERO, 1_000_000); // huge backlog
        r.reset_queue(SimTime::from_nanos(7));
        let (s, _) = r.reserve(SimTime::ZERO, 1);
        assert_eq!(s.as_nanos(), 7);
    }
}
