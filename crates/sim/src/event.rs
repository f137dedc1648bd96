//! The kernel event queue.
//!
//! Events are totally ordered by `(time, seq)`. The sequence number is
//! assigned when the event is scheduled; because simulated execution is
//! sequential and cooperative, scheduling order — and therefore tie-breaking
//! among same-time events — is deterministic. The kernel's one pop takes
//! index 0 of the earliest instant ([`EventQueue::instant`]) unless a
//! [`SchedulePolicy`](crate::SchedulePolicy) picks another of its lane
//! fronts; the queue itself has no other mode.
//!
//! The order is kept by a monotone radix heap of 16-byte [`Key`]s. The
//! kernel clamps every schedule to its clock, so no key lands below the last
//! popped instant, `last`. Keys at `last` sit in the same-instant *tier*, a
//! FIFO; a later key lives in radix bucket *i*, where *i* is the highest
//! bit at which its time differs from `last`. When the tier empties, the
//! lowest non-empty bucket is drained: its earliest time becomes `last`,
//! and each of its keys moves into the tier or into a strictly lower
//! bucket. A key therefore moves at most 64 times in its life, and a
//! far-future timer stays untouched until `last` reaches its top differing
//! bit — whether the pending set is a same-instant marker storm at 64 ranks
//! or 10⁵ checkpoint timers seconds ahead.
//!
//! The tier needs no ordering of its own, because every bucket and the tier
//! hold their keys in increasing `seq`. A push carries the largest `seq` yet
//! and goes to the back of the tier or of its bucket. A refill walks the
//! lowest non-empty bucket in order into the tier and the buckets below it,
//! and all of those are empty. Removing a key by a policy's pick keeps the
//! rest in order. So the front of the tier is always the canonical next
//! event, and a pick never puts anything back.
//!
//! The queue removes nothing but what it hands out. An event aimed at a
//! process that has since died — a wake, or the op or sleep call of its
//! pending interaction — stays queued, and the kernel's pop drops it at
//! the head (see `is_stale` in the kernel).
//!
//! A bucket is a small vector: its first [`INLINE`] keys sit in place, and
//! the rest go to fixed-size chunks drawn from one shared free pool. A
//! drained bucket returns its chunks, so key storage tracks the peak key
//! count rather than the sum of every bucket's high-water mark, and a
//! bucket holding a handful of keys, as most do in a protocol run, never
//! touches the pool.
//!
//! Event payloads and their tiebreak lanes live in an
//! [`EventArena`](crate::arena::EventArena) addressed by slot, so no payload
//! is ever moved by a re-bucketing. A payload is data on the hot path — a
//! wake, a posted op, or two words for the run's one data handler — and a
//! boxed closure only for rare control events ([`EventKind`]).

use std::collections::VecDeque;

use crate::arena::{EventArena, NO_LANE};
use crate::kernel::SimCtx;
use crate::process::Pid;
use crate::time::SimTime;

/// The tag is a full word: an arena slot keeps its `None` in it, and with a
/// byte tag the compiler moves a payload out of its slot in byte-sized
/// pieces, which slows every pop.
#[repr(u64)]
pub(crate) enum EventKind {
    /// Run a model closure on the kernel loop: a rare control event, or a
    /// network-fault transition (`Sim::schedule_link_fault`, always laned).
    Call(Box<dyn FnOnce(&SimCtx)>),
    /// Wake or kill a parked process, or answer its sleep
    /// (`ProcCtx::sleep_until_local`). It rides the process's lane and is
    /// stale once the process is dead.
    Resume(Pid, crate::process::WakeKind),
    /// The op a process posted (`ProcCtx::post_op`), for the run's data
    /// handler. It rides the process's lane and, like `Resume`, is stale
    /// once the process is dead.
    Op(Pid),
    /// Two model-defined words for the run's data handler (a message
    /// arrival, a flow chunk). Never stale.
    Data([u64; 2]),
}

pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

/// Bits of a [`Key`]'s `id` that hold the arena slot; `seq` takes the rest.
const SLOT_BITS: u32 = 24;

/// The largest arena slot a key can carry (2²⁴ − 1): about 16.7 M events
/// pending at once, 80 times the 10⁵-rank ring's peak.
const MAX_SLOT: u32 = (1 << SLOT_BITS) - 1;

/// The largest `seq` a key can carry (2⁴⁰ − 1): about 1.1 × 10¹² events
/// scheduled in one run.
const MAX_SEQ: u64 = u64::MAX >> SLOT_BITS;

/// Scheduling key: the total event order `(time, seq)` plus the arena slot
/// of the payload, packed as `seq << SLOT_BITS | slot` so `id` orders like
/// `seq`. Re-bucketing and the tier move only this 16-byte `Copy` value.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Key {
    pub time_ns: u64,
    id: u64,
}

impl Key {
    fn new(time_ns: u64, seq: u64, slot: u32) -> Key {
        assert!(
            seq <= MAX_SEQ,
            "event seq {seq} does not fit the key's {}-bit seq field",
            64 - SLOT_BITS
        );
        assert!(
            slot <= MAX_SLOT,
            "arena slot {slot} does not fit the key's {SLOT_BITS}-bit slot field"
        );
        Key {
            time_ns,
            id: seq << SLOT_BITS | u64::from(slot),
        }
    }

    fn seq(self) -> u64 {
        self.id >> SLOT_BITS
    }

    fn slot(self) -> u32 {
        (self.id & u64::from(MAX_SLOT)) as u32
    }
}

/// Keys a bucket holds in place before it draws chunks from the pool. A
/// protocol run keeps 60–110 keys pending, spread over a dozen or so
/// buckets, so most filings stay inline.
const INLINE: usize = 8;

/// Keys per pool chunk (1 KiB of keys).
const CHUNK: usize = 64;

/// One radix bucket per bit of a `u64` time.
const BUCKETS: usize = 64;

/// A radix bucket: a small vector of keys in increasing `seq` (see the
/// module docs). Key *r* sits at `inline[r]` for the first [`INLINE`], and
/// at offset `r - INLINE` of the chunks after that, every chunk but the
/// last one full.
struct Bucket {
    inline: [Key; INLINE],
    chunks: Vec<Vec<Key>>,
    len: usize,
    /// Earliest time in the bag; `u64::MAX` while it is empty.
    min: u64,
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket {
            inline: [Key::default(); INLINE],
            chunks: Vec::new(),
            len: 0,
            min: u64::MAX,
        }
    }
}

impl Bucket {
    /// Append a key.
    #[inline(always)]
    fn push(&mut self, k: Key, free: &mut Vec<Vec<Key>>) {
        if self.len < INLINE {
            self.inline[self.len] = k;
        } else {
            self.spill(k, free);
        }
        self.len += 1;
        self.min = self.min.min(k.time_ns);
    }

    /// Append a key past the inline ones, drawing a chunk from `free` when
    /// the last one is full. Kept out of line so the inline path stays small
    /// where it is inlined into every filing.
    #[inline(never)]
    fn spill(&mut self, k: Key, free: &mut Vec<Vec<Key>>) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(k),
            _ => {
                let mut c = free.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
                c.push(k);
                self.chunks.push(c);
            }
        }
    }
}

/// File `k` at the back of the tier if it is at `last`, else into the
/// bucket of the highest bit at which its time differs from `last`.
#[inline(always)]
fn file(
    k: Key,
    last: u64,
    tier: &mut VecDeque<Key>,
    buckets: &mut [Bucket],
    occupied: &mut u64,
    free: &mut Vec<Vec<Key>>,
) {
    let diff = k.time_ns ^ last;
    if diff == 0 {
        debug_assert!(
            tier.back().is_none_or(|b| b.id < k.id),
            "seq {} filed behind seq {} in the same-instant tier",
            k.seq(),
            tier.back().map_or(0, |b| b.seq())
        );
        tier.push_back(k);
        return;
    }
    let i = diff.ilog2() as usize;
    buckets[i].push(k, free);
    *occupied |= 1 << i;
}

/// Min-queue of pending events.
pub(crate) struct EventQueue {
    /// The same-instant tier: keys at the current instant `last`, in
    /// increasing `seq`.
    tier: VecDeque<Key>,
    /// The current instant: the time of the latest refill. Every pending
    /// key is at or after it.
    last: u64,
    /// Keys after `last`, in bucket *i* when bit *i* is the highest bit at
    /// which their time differs from `last`.
    buckets: [Bucket; BUCKETS],
    /// Bit *i* is set iff bucket *i* holds a key.
    occupied: u64,
    /// Empty chunks, shared by every bucket.
    free_chunks: Vec<Vec<Key>>,
    arena: EventArena,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            tier: VecDeque::new(),
            last: 0,
            buckets: std::array::from_fn(|_| Bucket::default()),
            occupied: 0,
            free_chunks: Vec::new(),
            arena: EventArena::default(),
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// Schedule an event. `lane` groups events that race on shared state
    /// (e.g. everything targeting one process): same-time events in the same
    /// lane always pop in scheduling order, under any schedule policy,
    /// because their relative order is defined model semantics. Unkeyed
    /// (`None`) events are treated as independent and permute freely. The
    /// lane is stored with the payload; `u64::MAX` is reserved for "none".
    #[inline(always)]
    pub fn push(&mut self, time: SimTime, lane: Option<u64>, kind: EventKind) {
        assert!(
            lane != Some(NO_LANE),
            "lane {NO_LANE:#x} is reserved for laneless events"
        );
        debug_assert!(
            time.as_nanos() >= self.last,
            "event at {} ns pushed below the last popped instant {} ns",
            time.as_nanos(),
            self.last
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.arena.insert(kind, lane);
        file(
            Key::new(time.as_nanos(), seq, slot),
            self.last,
            &mut self.tier,
            &mut self.buckets,
            &mut self.occupied,
            &mut self.free_chunks,
        );
    }

    /// Refill the empty tier from the lowest non-empty bucket *i*: its
    /// earliest time becomes `last`, and each of its keys, in order, moves
    /// into the tier or into a strictly lower bucket (they all agree with
    /// the new `last` on every bit from *i* up). Keys in higher buckets stay
    /// put: the new `last` agrees with the old one above bit *i*. The
    /// bucket's minimum is kept up to date on insert, so this is one pass,
    /// and a lone key goes straight into the tier. No-op once every bucket
    /// is empty.
    fn refill(&mut self) {
        debug_assert!(self.tier.is_empty(), "refill over a non-empty instant");
        if self.occupied == 0 {
            return;
        }
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << i);
        let (lower, rest) = self.buckets.split_at_mut(i);
        let b = &mut rest[0];
        let last = std::mem::replace(&mut b.min, u64::MAX);
        self.last = last;
        let n = std::mem::take(&mut b.len);
        let (tier, occupied, free) = (&mut self.tier, &mut self.occupied, &mut self.free_chunks);
        for &k in &b.inline[..n.min(INLINE)] {
            file(k, last, tier, lower, occupied, free);
        }
        for mut c in b.chunks.drain(..) {
            for &k in &c {
                file(k, last, tier, lower, occupied, free);
            }
            c.clear();
            free.push(c);
        }
    }

    /// The head: the least-`seq` key of the earliest instant, at tier
    /// index 0, refilling the tier if it ran dry.
    fn head_key(&mut self) -> Option<Key> {
        if self.tier.is_empty() {
            self.refill();
        }
        self.tier.front().copied()
    }

    /// The head's time and payload, without consuming it. It is index 0
    /// of [`EventQueue::instant`].
    pub fn head(&mut self) -> Option<(SimTime, &EventKind)> {
        let k = self.head_key()?;
        let (kind, _) = self.arena.get(k.slot());
        Some((SimTime::from_nanos(k.time_ns), kind))
    }

    /// The time of the next event, without consuming it.
    #[cfg(test)]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head().map(|(t, _)| t)
    }

    /// The tier after [`EventQueue::head`]: each key of the earliest
    /// instant in canonical pop order, as its tier index, `seq`, lane and
    /// payload.
    pub fn instant(&self) -> impl Iterator<Item = (usize, u64, Option<u64>, &EventKind)> {
        self.tier.iter().enumerate().map(|(i, k)| {
            let (kind, lane) = self.arena.get(k.slot());
            (i, k.seq(), lane, kind)
        })
    }

    /// Remove the key at tier index `i` (0 is the head) and hand out its
    /// event. The keys behind it close up in order.
    pub fn take(&mut self, i: usize) -> Event {
        let k = if i == 0 {
            self.tier.pop_front()
        } else {
            self.tier.remove(i)
        };
        let k = k.expect("take past the end of the instant");
        Event {
            time: SimTime::from_nanos(k.time_ns),
            seq: k.seq(),
            kind: self.arena.take(k.slot()),
        }
    }

    /// The canonical pop: the head, taken at index 0.
    pub fn pop(&mut self) -> Option<Event> {
        self.head_key()?;
        Some(self.take(0))
    }

    /// Pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.tier.len() + self.buckets.iter().map(|b| b.len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> EventKind {
        EventKind::Call(Box::new(|_| {}))
    }

    /// Push a no-op call, returning the `seq` the queue gave it.
    fn push(q: &mut EventQueue, t: u64, lane: Option<u64>) -> u64 {
        let seq = q.next_seq;
        q.push(SimTime::from_nanos(t), lane, call());
        seq
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
    fn peek_time_reports_the_live_head_without_consuming() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        push(&mut q, 8, None);
        push(&mut q, 5, None);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.len(), 2, "peek consumes nothing");
        assert_eq!(q.pop().unwrap().time.as_nanos(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn keys_are_16_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 16);
    }

    #[test]
    fn packed_keys_round_trip_at_both_limits() {
        let k = Key::new(u64::MAX, MAX_SEQ, MAX_SLOT);
        assert_eq!(
            (k.time_ns, k.seq(), k.slot()),
            (u64::MAX, MAX_SEQ, MAX_SLOT)
        );
        let k = Key::new(7, 0, MAX_SLOT);
        assert_eq!(
            (k.seq(), k.slot()),
            (0, MAX_SLOT),
            "a full slot spills into no seq bit"
        );
        let k = Key::new(7, MAX_SEQ, 0);
        assert_eq!(
            (k.seq(), k.slot()),
            (MAX_SEQ, 0),
            "a full seq spills into no slot bit"
        );
        // The queue hands the largest legal seq out and back intact.
        let mut q = EventQueue {
            next_seq: MAX_SEQ,
            ..EventQueue::default()
        };
        push(&mut q, 3, None);
        assert_eq!(q.pop().map(|e| e.seq), Some(MAX_SEQ));
    }

    #[test]
    #[should_panic(expected = "does not fit the key's 40-bit seq field")]
    fn a_seq_past_the_packing_limit_panics() {
        let mut q = EventQueue {
            next_seq: MAX_SEQ + 1,
            ..EventQueue::default()
        };
        q.push(SimTime::from_nanos(3), None, call());
    }

    #[test]
    #[should_panic(expected = "does not fit the key's 24-bit slot field")]
    fn a_slot_past_the_packing_limit_panics() {
        Key::new(3, 0, MAX_SLOT + 1);
    }

    #[test]
    fn arena_slots_are_32_bytes() {
        assert_eq!(std::mem::size_of::<crate::arena::Slot>(), 32);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn pushing_in_the_reserved_lane_panics() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_nanos(1), Some(u64::MAX), call());
    }

    /// The current instant as [`EventQueue::instant`] lists it.
    fn instant_of(q: &EventQueue) -> Vec<(u64, Option<u64>)> {
        q.instant().map(|(_, seq, lane, _)| (seq, lane)).collect()
    }

    #[test]
    fn a_refilled_instant_lists_its_live_keys_in_seq_order_with_their_lanes() {
        let mut q = EventQueue::default();
        // Pop an early event first, so the tied instant (t=10) and the
        // next one (t=20) sit in radix buckets 3 and 4 above `last` = 5,
        // and the instant arrives through a refill. It spans its bucket's
        // inline keys and two chunks.
        push(&mut q, 5, Some(9));
        let (mut want, mut next) = (Vec::new(), None);
        for i in 0..2 * CHUNK as u64 + 1 {
            let lane = (i % 3 != 0).then_some(i % 4);
            want.push((push(&mut q, 10, lane), lane));
            if i == CHUNK as u64 {
                next = Some(push(&mut q, 20, Some(2)));
            }
        }
        assert_eq!(q.pop().map(|e| e.time.as_nanos()), Some(5));
        assert_eq!(q.head().map(|(t, _)| t.as_nanos()), Some(10));
        assert_eq!(
            instant_of(&q),
            want,
            "the keys in seq order, each with the lane it was pushed in"
        );
        assert!(q
            .instant()
            .all(|(_, _, _, kind)| matches!(kind, EventKind::Call(_))));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        let canonical: Vec<u64> = want.iter().map(|&(s, _)| s).chain(next).collect();
        assert_eq!(order, canonical, "canonical pops follow the listed order");
    }

    #[test]
    fn taking_a_middle_key_keeps_the_rest_in_seq_order_ahead_of_later_ties() {
        let mut q = EventQueue::default();
        let ids: Vec<u64> = (0..5).map(|l| push(&mut q, 10, Some(l))).collect();
        let later = push(&mut q, 20, None);
        assert!(q.head().is_some());
        // Take the second key, as a policy's pick does: the others close up
        // in order...
        assert_eq!(q.take(1).seq, ids[1]);
        let rest = [ids[0], ids[2], ids[3], ids[4]];
        let seqs = |q: &EventQueue| q.instant().map(|(_, s, _, _)| s).collect::<Vec<_>>();
        assert_eq!(seqs(&q), rest);
        // ...and a later push at the same instant queues behind them, still
        // ahead of the next instant.
        let e = push(&mut q, 10, None);
        assert_eq!(seqs(&q), [ids[0], ids[2], ids[3], ids[4], e]);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, [ids[0], ids[2], ids[3], ids[4], e, later]);
        assert_eq!(q.arena.len(), 0, "every payload taken");
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

    /// Key capacity the queue holds on to: every bucket's inline keys,
    /// every chunk, in a bucket or in the free pool, and the same-instant
    /// tier.
    fn retained_keys(q: &EventQueue) -> usize {
        let chunks = q.buckets.iter().flat_map(|b| &b.chunks);
        chunks
            .chain(&q.free_chunks)
            .map(Vec::capacity)
            .sum::<usize>()
            + BUCKETS * INLINE
            + q.tier.capacity()
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

    /// The queue's contract, stated as brute force: the pending events as
    /// an ordered set of `(time, seq)`.
    #[derive(Default)]
    struct Model {
        live: std::collections::BTreeSet<(u64, u64)>,
        next_seq: u64,
    }

    impl Model {
        fn push(&mut self, t: u64) {
            self.live.insert((t, self.next_seq));
            self.next_seq += 1;
        }
    }

    /// One pseudo-random op against both the queue and the model.
    fn model_step(rng: &mut XorShift, now: &mut u64, q: &mut EventQueue, m: &mut Model) {
        let digest = |ev: &Event| (ev.time.as_nanos(), ev.seq);
        let push = |t: u64, lane: Option<u64>, q: &mut EventQueue, m: &mut Model| {
            q.push(SimTime::from_nanos(t), lane, call());
            m.push(t);
        };
        match rng.next() % 9 {
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
            _ => {
                // Peek, then take a random key of the earliest instant, as a
                // policy's pick does: the instant lists exactly the model's
                // keys at the peeked time, in `seq` order.
                let head = m.live.first().copied();
                assert_eq!(q.peek_time().map(|t| t.as_nanos()), head.map(|k| k.0));
                if let Some((t, _)) = head {
                    let tied: Vec<(u64, u64)> =
                        m.live.range((t, 0)..=(t, u64::MAX)).copied().collect();
                    let listed: Vec<(usize, u64)> =
                        q.instant().map(|(i, seq, _, _)| (i, seq)).collect();
                    let seqs: Vec<(u64, u64)> = listed.iter().map(|&(_, s)| (t, s)).collect();
                    assert_eq!(seqs, tied, "the instant left the model");
                    let (i, seq) = listed[(rng.next() % listed.len() as u64) as usize];
                    assert_eq!(digest(&q.take(i)), (t, seq));
                    m.live.remove(&(t, seq));
                    *now = t;
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
            for _ in 0..100_000 {
                model_step(&mut rng, &mut now, &mut q, &mut m);
            }
            // Drain the survivors: the tails must agree too.
            let tail: Vec<_> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.time.as_nanos(), e.seq))
                .collect();
            assert_eq!(tail, m.live.into_iter().collect::<Vec<_>>());
            assert_eq!(q.arena.len(), 0, "every payload taken");
        }
    }
}
