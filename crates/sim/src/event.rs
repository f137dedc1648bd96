//! The kernel event queue.
//!
//! Events are totally ordered by `(time, seq)`. The sequence number is
//! assigned when the event is scheduled; because simulated execution is
//! sequential and cooperative, scheduling order — and therefore tie-breaking
//! among same-time events — is deterministic. Any other order of a tied
//! instant is a [`SchedulePolicy`](crate::SchedulePolicy)'s choice, made by
//! the kernel over [`EventQueue::pop_ready_keys`]; the queue itself has no
//! other mode.
//!
//! The order is kept by a monotone radix heap of 24-byte [`Key`]s. The
//! kernel clamps every schedule to its clock, so no key lands below the last
//! popped instant, `last`. Keys at `last` sit in a small binary heap ordered
//! by `seq`; a later key lives in radix bucket *i*, where *i* is the highest
//! bit at which its time differs from `last`. When the same-instant heap
//! empties, the lowest non-empty bucket is drained: its earliest time
//! becomes `last`, and each of its keys moves into the heap or
//! into a strictly lower bucket. A key therefore moves at most 64 times in
//! its life, and a far-future timer stays untouched until `last` reaches its
//! top differing bit — whether the pending set is a same-instant marker
//! storm at 64 ranks or 10⁵ checkpoint timers seconds ahead.
//!
//! Buckets keep their keys in fixed-size chunks drawn from one shared free
//! pool, and a drained bucket returns its chunks, so key storage tracks the
//! peak key count rather than the sum of every bucket's high-water mark.
//! Event payloads (boxed model closures) live in an
//! [`EventArena`](crate::arena::EventArena) addressed by slot, so no closure
//! is ever moved by a sift or a re-bucketing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use crate::arena::EventArena;
use crate::hash::FxBuildHasher;
use crate::kernel::SimCtx;
use crate::process::Pid;
use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

pub(crate) enum EventKind {
    /// Run a model closure on the kernel loop.
    Call(Box<dyn FnOnce(&SimCtx)>),
    /// Wake (or kill) a parked process.
    Resume(Pid, crate::process::WakeKind),
    /// Apply a scheduled network-fault transition (link down / degrade /
    /// restore, partition start / heal). Dispatched exactly like `Call`;
    /// kept as its own variant so the lane audit can prove that fault
    /// transitions — which race with every flow chunk touching the same
    /// link — are never scheduled laneless.
    LinkFault(Box<dyn FnOnce(&SimCtx)>),
}

pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

/// Scheduling key: the total event order `(time, seq)` plus the arena slot
/// of the payload. Sifts and re-bucketing move only this 24-byte `Copy`
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    pub time_ns: u64,
    pub seq: u64,
    pub slot: u32,
}

/// Default tombstone count below which [`EventQueue::cancel`] never
/// compacts; keeps small queues (the common case: a handful of pending
/// timers) from paying rebuild costs for no win. Configurable per queue for
/// the kernel microbenchmark ([`EventQueue::set_compact_min_tombstones`]).
const COMPACT_MIN_TOMBSTONES: usize = 64;

/// Keys per bucket chunk (2 KiB of keys).
const CHUNK: usize = 64;

/// One radix bucket per bit of a `u64` time.
const BUCKETS: usize = 64;

/// A radix bucket: an unordered bag of keys in chunks, every chunk but the
/// last one full.
struct Bucket {
    chunks: Vec<Vec<Key>>,
    /// Earliest time in the bag; `u64::MAX` while it is empty.
    min: u64,
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket {
            chunks: Vec::new(),
            min: u64::MAX,
        }
    }
}

impl Bucket {
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * CHUNK + c.len())
    }

    /// Drop the keys `keep` rejects, packing the survivors to the front so
    /// every chunk but the last stays full; emptied chunks go to `free`.
    fn retain(&mut self, keep: &mut impl FnMut(&Key) -> bool, free: &mut Vec<Vec<Key>>) {
        let mut kept = 0;
        self.min = u64::MAX;
        for r in 0..self.len() {
            let k = self.chunks[r / CHUNK][r % CHUNK];
            if keep(&k) {
                self.chunks[kept / CHUNK][kept % CHUNK] = k;
                self.min = self.min.min(k.time_ns);
                kept += 1;
            }
        }
        let used = kept.div_ceil(CHUNK);
        free.extend(self.chunks.drain(used..).map(|mut c| {
            c.clear();
            c
        }));
        if let Some(c) = self.chunks.last_mut() {
            c.truncate(kept - (used - 1) * CHUNK);
        }
    }
}

/// Min-queue of pending events plus a tombstone set for cancellation.
pub(crate) struct EventQueue {
    /// Keys at the current instant `last`, ordered by `seq`.
    heap: BinaryHeap<Reverse<Key>>,
    /// The current instant: the time of the latest refill. Every pending
    /// key is at or after it.
    last: u64,
    /// Keys after `last`, in bucket *i* when bit *i* is the highest bit at
    /// which their time differs from `last`.
    buckets: [Bucket; BUCKETS],
    /// Bit *i* is set iff bucket *i* holds a key.
    occupied: u64,
    /// Number of keys in `buckets`.
    bucketed: usize,
    /// Empty chunks, shared by every bucket.
    free_chunks: Vec<Vec<Key>>,
    arena: EventArena,
    next_seq: u64,
    cancelled: HashSet<u64, FxBuildHasher>,
    compact_min_tombstones: usize,
    /// Total number of events ever scheduled (for run reports).
    pub scheduled_total: u64,
    /// Side-map `seq → lane`, maintained only under a schedule policy
    /// ([`EventQueue::record_lanes`]): the policy hook needs each pending
    /// event's tiebreak lane to build per-lane candidate fronts, and `Key`
    /// deliberately does not carry it. Empty (and untouched) in ordinary
    /// runs, so the hot push/pop paths pay nothing.
    lanes: Option<HashMap<u64, Option<u64>, FxBuildHasher>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            last: 0,
            buckets: std::array::from_fn(|_| Bucket::default()),
            occupied: 0,
            bucketed: 0,
            free_chunks: Vec::new(),
            arena: EventArena::default(),
            next_seq: 0,
            cancelled: HashSet::default(),
            compact_min_tombstones: COMPACT_MIN_TOMBSTONES,
            scheduled_total: 0,
            lanes: None,
        }
    }
}

impl EventQueue {
    /// Start recording each event's tiebreak lane (for a schedule policy).
    /// Must be enabled before the first push so every pending event is
    /// covered ([`Sim::set_schedule_policy`](crate::Sim::set_schedule_policy)
    /// asserts that).
    pub fn record_lanes(&mut self) {
        self.lanes = Some(HashMap::default());
    }

    /// The recorded lane of a pending event (under a schedule policy only).
    pub fn lane_of(&self, seq: u64) -> Option<u64> {
        self.lanes.as_ref().and_then(|m| m.get(&seq).copied())?
    }

    /// Override the compaction trigger (kernel microbenchmark knob; the
    /// default is [`COMPACT_MIN_TOMBSTONES`]).
    #[allow(dead_code)] // microbench / tests
    pub fn set_compact_min_tombstones(&mut self, n: usize) {
        self.compact_min_tombstones = n.max(1);
    }

    /// Schedule an event. `lane` groups events that race on shared state
    /// (e.g. everything targeting one process): same-time events in the same
    /// lane always pop in scheduling order, under any schedule policy,
    /// because their relative order is defined model semantics. Unkeyed
    /// (`None`) events are treated as independent and permute freely.
    pub fn push(&mut self, time: SimTime, lane: Option<u64>, kind: EventKind) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        if let Some(m) = self.lanes.as_mut() {
            m.insert(seq, lane);
        }
        let slot = self.arena.insert(kind);
        self.insert(Key {
            time_ns: time.as_nanos(),
            seq,
            slot,
        });
        EventId(seq)
    }

    /// File a key at `last` into the same-instant heap, and a later one into
    /// the bucket of the highest bit at which its time differs from `last`.
    fn insert(&mut self, k: Key) {
        debug_assert!(
            k.time_ns >= self.last,
            "event at {} ns pushed below the last popped instant {} ns",
            k.time_ns,
            self.last
        );
        let diff = k.time_ns ^ self.last;
        if diff == 0 {
            self.heap.push(Reverse(k));
            return;
        }
        let i = diff.ilog2() as usize;
        let b = &mut self.buckets[i];
        match b.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(k),
            _ => {
                let mut c = self
                    .free_chunks
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(CHUNK));
                c.push(k);
                b.chunks.push(c);
            }
        }
        b.min = b.min.min(k.time_ns);
        self.occupied |= 1 << i;
        self.bucketed += 1;
    }

    /// Refill the empty same-instant heap from the lowest non-empty bucket
    /// *i*: its earliest time becomes `last`, and each of its keys moves
    /// into the heap or into a strictly lower bucket (they all agree with
    /// the new `last` on every bit from *i* up). Keys in higher buckets stay
    /// put: the new `last` agrees with the old one above bit *i*. The
    /// bucket's minimum is kept up to date on insert, so this is one pass,
    /// and a lone key goes straight into the heap. No-op once every bucket
    /// is empty.
    fn refill(&mut self) {
        debug_assert!(self.heap.is_empty(), "refill over a non-empty instant");
        if self.occupied == 0 {
            return;
        }
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << i);
        let b = &mut self.buckets[i];
        self.last = std::mem::replace(&mut b.min, u64::MAX);
        let mut chunks = std::mem::take(&mut b.chunks);
        for mut c in chunks.drain(..) {
            self.bucketed -= c.len();
            for &k in &c {
                self.insert(k);
            }
            c.clear();
            self.free_chunks.push(c);
        }
        self.buckets[i].chunks = chunks;
    }

    /// Mark an event cancelled; it is skipped when popped.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
        // Once tombstones rival live events, pops spend more time skipping
        // corpses than returning work and `len`/`is_empty` drift (a tombstone
        // for an already-popped event is never reclaimed). Rebuilding is
        // O(queue) but amortized: compaction empties the tombstone set, so it
        // takes as many fresh cancellations as there are live events before
        // it can trigger again.
        if self.cancelled.len() >= self.compact_min_tombstones
            && self.cancelled.len() * 2 >= self.stored()
        {
            self.compact();
        }
    }

    /// Keys physically held: live events plus not-yet-reclaimed corpses.
    fn stored(&self) -> usize {
        self.heap.len() + self.bucketed
    }

    /// Drop every cancelled event from the heap and the buckets and clear
    /// the tombstone set, reclaiming the corpses' arena slots.
    ///
    /// Tombstones that match nothing in the queue belong to events that
    /// were already executed; discarding them restores exact
    /// `len`/`is_empty` accounting.
    fn compact(&mut self) {
        let cancelled = std::mem::take(&mut self.cancelled);
        let (arena, lanes) = (&mut self.arena, &mut self.lanes);
        let mut keep = |k: &Key| {
            if !cancelled.contains(&k.seq) {
                return true;
            }
            arena.discard(k.slot);
            if let Some(m) = lanes.as_mut() {
                m.remove(&k.seq);
            }
            false
        };
        self.heap.retain(|Reverse(k)| keep(k));
        for (i, b) in self.buckets.iter_mut().enumerate() {
            let before = b.len();
            b.retain(&mut keep, &mut self.free_chunks);
            self.bucketed -= before - b.len();
            if b.chunks.is_empty() {
                self.occupied &= !(1 << i);
            }
        }
    }

    /// Consume the tombstone of `seq`, if any: `true` means the event was
    /// cancelled. The emptiness test spares the common tombstone-free pop
    /// a hash computation.
    fn take_tombstone(&mut self, seq: u64) -> bool {
        !self.cancelled.is_empty() && self.cancelled.remove(&seq)
    }

    /// The earliest key, refilling the same-instant heap if it ran dry.
    fn peek_key(&mut self) -> Option<Key> {
        if self.heap.is_empty() {
            self.refill();
        }
        self.heap.peek().map(|Reverse(k)| *k)
    }

    fn pop_key(&mut self) -> Option<Key> {
        if self.heap.is_empty() {
            self.refill();
        }
        self.heap.pop().map(|Reverse(k)| k)
    }

    /// Forget a key's lane record (the event left the queue).
    fn forget_lane(&mut self, seq: u64) {
        if let Some(m) = self.lanes.as_mut() {
            m.remove(&seq);
        }
    }

    /// Reassemble the event at `k`, taking its payload out of the arena.
    fn assemble(&mut self, k: Key) -> Event {
        self.forget_lane(k.seq);
        Event {
            time: SimTime::from_nanos(k.time_ns),
            seq: k.seq,
            kind: self.arena.take(k.slot),
        }
    }

    /// The live head key, reclaiming cancelled corpses on the way.
    fn live_head(&mut self) -> Option<Key> {
        loop {
            let k = self.peek_key()?;
            if !self.take_tombstone(k.seq) {
                return Some(k);
            }
            self.heap.pop();
            self.discard_key(k);
        }
    }

    pub fn pop(&mut self) -> Option<Event> {
        loop {
            let k = self.pop_key()?;
            if self.take_tombstone(k.seq) {
                self.discard_key(k);
                continue;
            }
            return Some(self.assemble(k));
        }
    }

    /// The time of the next live (non-cancelled) event, without consuming
    /// it. Corpses discovered at the head are reclaimed on the way.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.live_head().map(|k| SimTime::from_nanos(k.time_ns))
    }

    /// Pop every live key at the earliest pending instant, in canonical
    /// pop order (under a schedule policy). The caller inspects them through
    /// [`EventQueue::peek_kind`], executes exactly one via
    /// [`EventQueue::take_key`], and pushes the rest back with
    /// [`EventQueue::unpop`]. Cancelled corpses encountered on the way are
    /// reclaimed.
    ///
    /// Once the head is found, only the same-instant heap is drained: a
    /// refill would move `last` past the instant `unpop` pushes back to.
    pub fn pop_ready_keys(&mut self) -> Vec<Key> {
        let mut out = Vec::new();
        if self.live_head().is_none() {
            return out;
        }
        while let Some(Reverse(k)) = self.heap.pop() {
            if self.take_tombstone(k.seq) {
                self.discard_key(k);
                continue;
            }
            out.push(k);
        }
        out
    }

    /// Borrow the payload behind a popped-but-unconsumed key.
    pub fn peek_kind(&self, k: Key) -> &EventKind {
        self.arena.get(k.slot)
    }

    /// Consume a key popped by [`EventQueue::pop_ready_keys`].
    pub fn take_key(&mut self, k: Key) -> Event {
        self.assemble(k)
    }

    /// Drop a key popped by [`EventQueue::pop_ready_keys`] without running
    /// it (stale resumes for dead processes).
    pub fn discard_key(&mut self, k: Key) {
        self.arena.discard(k.slot);
        self.forget_lane(k.seq);
    }

    /// Return unconsumed ready keys to the queue (they are at `last`, so
    /// they go straight back into the same-instant heap).
    pub fn unpop(&mut self, keys: impl IntoIterator<Item = Key>) {
        for k in keys {
            self.insert(k);
        }
    }

    #[allow(dead_code)] // used by tests and future schedulers
    pub fn is_empty(&self) -> bool {
        // Cancelled-but-unpopped events don't count as pending work.
        self.stored() <= self.cancelled.len()
    }

    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.stored().saturating_sub(self.cancelled.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> EventKind {
        EventKind::Call(Box::new(|_| {}))
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_nanos(20), None, call());
        q.push(SimTime::from_nanos(10), None, call());
        q.push(SimTime::from_nanos(10), None, call());
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        assert_eq!(a.time, SimTime::from_nanos(10));
        assert_eq!(b.time, SimTime::from_nanos(10));
        assert!(a.seq < b.seq, "same-time events pop in scheduling order");
        assert_eq!(c.time, SimTime::from_nanos(20));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::default();
        let id = q.push(SimTime::from_nanos(5), None, call());
        q.push(SimTime::from_nanos(6), None, call());
        q.cancel(id);
        assert_eq!(q.len(), 1);
        let ev = q.pop().unwrap();
        assert_eq!(ev.time, SimTime::from_nanos(6));
    }

    #[test]
    fn peek_time_reports_the_live_head_without_consuming() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        let a = q.push(SimTime::from_nanos(5), None, call());
        q.push(SimTime::from_nanos(8), None, call());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.len(), 2, "peek consumes nothing");
        q.cancel(a);
        // The corpse at the head is reclaimed on the way to the answer.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 8);
    }

    #[test]
    fn empty_accounts_for_cancellations() {
        let mut q = EventQueue::default();
        let id = q.push(SimTime::from_nanos(5), None, call());
        assert!(!q.is_empty());
        q.cancel(id);
        assert!(q.is_empty());
    }

    #[test]
    fn compaction_drops_tombstones_and_keeps_len_exact() {
        let mut q = EventQueue::default();
        let ids: Vec<EventId> = (0..200)
            .map(|i| q.push(SimTime::from_nanos(i), None, call()))
            .collect();
        // Cancelling half the queue crosses both thresholds (>= 64 tombstones
        // and tombstones >= half the backend) exactly at the 100th cancel.
        for id in &ids[..100] {
            q.cancel(*id);
        }
        assert!(q.cancelled.is_empty(), "compaction should clear tombstones");
        assert_eq!(q.stored(), 100, "cancelled events physically removed");
        assert_eq!(q.arena.len(), 100, "corpse payloads reclaimed");
        // Below-threshold cancels stay lazy but len() remains exact.
        for id in &ids[100..150] {
            q.cancel(*id);
        }
        assert_eq!(q.cancelled.len(), 50);
        assert_eq!(q.len(), 50);
        // Survivors pop in order with no skipped corpses in between.
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|ev| ev.time.as_nanos())
            .collect();
        assert_eq!(times, (150u64..200).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.arena.len(), 0, "every payload taken or reclaimed");
    }

    #[test]
    fn compaction_threshold_is_configurable() {
        let mut q = EventQueue::default();
        q.set_compact_min_tombstones(2);
        let a = q.push(SimTime::from_nanos(1), None, call());
        let b = q.push(SimTime::from_nanos(2), None, call());
        q.push(SimTime::from_nanos(3), None, call());
        q.push(SimTime::from_nanos(4), None, call());
        q.cancel(a);
        assert_eq!(q.cancelled.len(), 1, "below the lowered threshold");
        q.cancel(b);
        assert!(q.cancelled.is_empty(), "2 tombstones vs 4 events compacts");
        assert_eq!(q.stored(), 2);
    }

    #[test]
    fn compaction_purges_stale_tombstones_from_executed_events() {
        let mut q = EventQueue::default();
        let stale: Vec<EventId> = (0..super::COMPACT_MIN_TOMBSTONES as u64)
            .map(|i| q.push(SimTime::from_nanos(i), None, call()))
            .collect();
        while q.pop().is_some() {}
        // Cancelling already-popped events leaves tombstones that match
        // nothing; without compaction they would make len() undercount the
        // live events pushed afterwards.
        for id in &stale {
            q.cancel(*id);
        }
        assert!(q.cancelled.is_empty(), "stale tombstones purged");
        for i in 0..10 {
            q.push(SimTime::from_nanos(1_000 + i), None, call());
        }
        assert_eq!(q.len(), 10);
        assert!(!q.is_empty());
    }

    #[test]
    fn keys_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn ready_keys_collect_the_tied_instant_and_unpop_restores_order() {
        let mut q = EventQueue::default();
        q.record_lanes();
        // Pop an early event first, so the tied instant (t=10) and the
        // next one (t=20) sit in radix buckets 3 and 4 above `last` = 5,
        // and the ready set arrives through a refill.
        q.push(SimTime::from_nanos(5), Some(9), call());
        let a = q.push(SimTime::from_nanos(10), Some(1), call());
        let b = q.push(SimTime::from_nanos(10), None, call());
        let c = q.push(SimTime::from_nanos(10), Some(1), call());
        let d = q.push(SimTime::from_nanos(20), Some(2), call());
        let corpse = q.push(SimTime::from_nanos(10), None, call());
        q.cancel(corpse);
        assert_eq!(q.pop().map(|e| e.time.as_nanos()), Some(5));
        let ready = q.pop_ready_keys();
        assert_eq!(
            ready.iter().map(|k| k.seq).collect::<Vec<_>>(),
            [a.0, b.0, c.0],
            "ready set is the live t=10 instant in pop order"
        );
        assert_eq!(q.lane_of(a.0), Some(1));
        assert_eq!(q.lane_of(b.0), None);
        assert!(matches!(q.peek_kind(ready[0]), EventKind::Call(_)));
        // Execute the *middle* candidate, push the rest back: the queue
        // must accept keys at the instant it just drained, and still file
        // later pushes at and after that instant ahead of t=20 — so the
        // drain must not have refilled past t=10.
        let ev = q.take_key(ready[1]);
        assert_eq!(ev.seq, b.0);
        q.unpop([ready[0], ready[2]]);
        let e = q.push(SimTime::from_nanos(10), Some(3), call());
        let f = q.push(SimTime::from_nanos(12), Some(3), call());
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(
            order,
            [a.0, c.0, e.0, f.0, d.0],
            "unpopped keys keep their order"
        );
        assert_eq!(q.lane_of(d.0), None, "consumed events forget lanes");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the last popped instant")]
    fn push_below_the_last_popped_instant_panics() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_nanos(10), None, call());
        q.pop();
        q.push(SimTime::from_nanos(9), None, call());
    }

    /// Key capacity the queue holds on to: every chunk, in a bucket or in
    /// the free pool, plus the same-instant heap.
    fn retained_keys(q: &EventQueue) -> usize {
        let chunks = q.buckets.iter().flat_map(|b| &b.chunks);
        chunks
            .chain(&q.free_chunks)
            .map(Vec::capacity)
            .sum::<usize>()
            + q.heap.capacity()
    }

    #[test]
    fn retained_memory_tracks_the_peak_key_count() {
        let mut q = EventQueue::default();
        let mut rng = XorShift(0x5EED_0003);
        let (mut now, mut peak) = (0u64, 0usize);
        // Each round lands 10⁵ keys in a different set of buckets: spans
        // from 2 s down to 61 µs, each starting wherever the last ended.
        for round in 0..6 {
            let span = 2_000_000_000u64 >> (3 * round);
            for _ in 0..100_000 {
                q.push(SimTime::from_nanos(now + rng.next() % span), None, call());
            }
            peak = peak.max(q.len());
            while let Some(ev) = q.pop() {
                now = ev.time.as_nanos();
            }
            let held = retained_keys(&q);
            assert!(
                held <= peak + BUCKETS * CHUNK,
                "round {round}: {held} keys of capacity for a peak of {peak}"
            );
        }
    }

    #[test]
    fn discard_key_reclaims_without_running() {
        let mut q = EventQueue::default();
        q.record_lanes();
        q.push(SimTime::from_nanos(5), Some(3), call());
        let ready = q.pop_ready_keys();
        assert_eq!(ready.len(), 1);
        q.discard_key(ready[0]);
        assert_eq!(q.arena.len(), 0, "payload reclaimed");
        assert!(q.is_empty());
        assert_eq!(q.lane_of(ready[0].seq), None);
    }

    #[test]
    fn small_queues_skip_compaction() {
        let mut q = EventQueue::default();
        let id = q.push(SimTime::from_nanos(1), None, call());
        q.cancel(id);
        // Below the compaction threshold the tombstone stays; lazily skipped
        // on pop as before.
        assert_eq!(q.cancelled.len(), 1);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    /// Deterministic xorshift64* generator for the model test (no external
    /// RNG crates in the offline build).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// The queue's contract, stated as brute force: the live events as an
    /// ordered set of `(time, seq)`.
    #[derive(Default)]
    struct Model {
        live: std::collections::BTreeSet<(u64, u64)>,
        next_seq: u64,
    }

    impl Model {
        fn push(&mut self, t: u64) -> (u64, u64) {
            let k = (t, self.next_seq);
            self.next_seq += 1;
            self.live.insert(k);
            k
        }
    }

    /// One pseudo-random op against both the queue and the model.
    fn model_step(
        rng: &mut XorShift,
        now: &mut u64,
        pushed: &mut Vec<(EventId, (u64, u64))>,
        q: &mut EventQueue,
        m: &mut Model,
    ) {
        let digest = |ev: &Event| (ev.time.as_nanos(), ev.seq);
        let mut push = |t: u64, lane: Option<u64>, q: &mut EventQueue, m: &mut Model| {
            let id = q.push(SimTime::from_nanos(t), lane, call());
            let k = m.push(t);
            assert_eq!(id.0, k.1, "event ids are scheduling sequence numbers");
            pushed.push((id, k));
        };
        match rng.next() % 10 {
            // Pushes dominate, with a gap spectrum from exact ties to
            // 2⁴⁰ ns ahead, plus times one before, on and one past a
            // power-of-two boundary of `now` — where a key's radix bucket
            // changes.
            0..=4 => {
                let r = rng.next();
                let gap = match r % 20 {
                    0..=6 => 0,
                    7..=9 => r % 1_000,
                    10..=11 => r % 1_000_000,
                    12..=13 => r % 2_000_000_000,
                    14..=15 => r % (1 << 40),
                    _ => {
                        let bit = (r >> 8) % 41;
                        let boundary = ((*now >> bit) + 1) << bit;
                        boundary - *now + (r >> 16) % 3 - 1
                    }
                };
                let lane = match rng.next() % 4 {
                    0 => None,
                    l => Some(l),
                };
                push(*now + gap, lane, q, m);
            }
            // A same-instant burst across lanes: the marker-storm shape.
            5 => {
                let t = *now + rng.next() % 50;
                for lane in 0..8u64 {
                    push(t, Some(lane), q, m);
                }
            }
            6 | 7 => {
                let got = q.pop().map(|ev| digest(&ev));
                assert_eq!(got, m.live.pop_first(), "pop order left the model");
                if let Some((t, _)) = got {
                    *now = t;
                }
            }
            8 => {
                // Peek, then pop: the live head the peek reports is the one
                // the pop takes.
                let head = m.live.first().copied();
                assert_eq!(q.peek_time().map(|t| t.as_nanos()), head.map(|k| k.0));
                let got = q.pop().map(|ev| digest(&ev));
                assert_eq!(got, m.live.pop_first());
                if let Some((t, _)) = head {
                    *now = t;
                }
            }
            _ => {
                // Cancel a pending event (stale cancellations are covered
                // by the compaction tests; here `len` must stay exact).
                if !pushed.is_empty() {
                    let (id, k) = pushed.swap_remove((rng.next() % pushed.len() as u64) as usize);
                    if m.live.remove(&k) {
                        q.cancel(id);
                    }
                }
            }
        }
        assert_eq!(q.len(), m.live.len(), "len accounting left the model");
    }

    #[test]
    fn queue_matches_a_brute_force_model_over_1e5_mixed_ops() {
        for seed in [0x5EED_0001u64, 0x5EED_0002] {
            let mut q = EventQueue::default();
            let mut m = Model::default();
            let mut rng = XorShift(seed);
            let mut now = 0u64;
            let mut pushed = Vec::new();
            for _ in 0..100_000 {
                model_step(&mut rng, &mut now, &mut pushed, &mut q, &mut m);
            }
            // Drain the survivors: the tails must agree too.
            let tail: Vec<_> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.time.as_nanos(), e.seq))
                .collect();
            assert_eq!(tail, m.live.into_iter().collect::<Vec<_>>());
            assert_eq!(q.arena.len(), 0, "every payload taken or reclaimed");
        }
    }
}
