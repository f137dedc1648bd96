//! Slab arena for event payloads.
//!
//! The event queue orders events by a small `Copy` key; the payload of an
//! event — a wake, a posted op, two data words, or a boxed closure for a
//! rare control event ([`EventKind`]) — lives here with the event's
//! tiebreak lane, addressed by slot. Every payload is at most two words
//! behind a one-word tag, so a slot stays 32 bytes. Moving keys between radix
//! buckets and through the same-instant tier therefore copies 16-byte keys
//! instead of whole events, and a schedule policy reads each candidate's
//! lane from the slot the kernel already visits for its payload. A slot is
//! freed only when its event is taken. The layout follows the `QueuedEvent` /
//! side-table idiom of trainspotting's scheduler.

use crate::event::EventKind;

/// The lane stored for an event scheduled without one. No real lane takes
/// this value (`EventQueue::push` asserts it), so a slot spends 8 bytes on
/// its lane where an `Option<u64>` would spend 16.
pub(crate) const NO_LANE: u64 = u64::MAX;

/// One arena slot: when occupied, the payload and the lane it was
/// scheduled in ([`NO_LANE`] for none).
pub(crate) type Slot = Option<(EventKind, u64)>;

/// Slab of event payloads with a free list. Slots are reused, so a long run
/// holds roughly `queue depth` payloads regardless of how many events it
/// schedules in total.
#[derive(Default)]
pub(crate) struct EventArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl EventArena {
    /// Store a payload with its lane, returning its slot.
    #[inline(always)]
    pub fn insert(&mut self, kind: EventKind, lane: Option<u64>) -> u32 {
        let lane = lane.unwrap_or(NO_LANE);
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                // Past this check the assignment has nothing to drop, so no
                // drop call sits between building the entry and storing it.
                assert!(s.is_none(), "free slot occupied");
                *s = Some((kind, lane));
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event arena slot overflow");
                self.slots.push(Some((kind, lane)));
                slot
            }
        }
    }

    /// Take a payload out, freeing the slot.
    pub fn take(&mut self, slot: u32) -> EventKind {
        let (kind, _) = self.slots[slot as usize]
            .take()
            .expect("event arena slot taken twice");
        self.free.push(slot);
        kind
    }

    /// Borrow a payload and its lane without freeing the slot.
    pub fn get(&self, slot: u32) -> (&EventKind, Option<u64>) {
        let &(ref kind, lane) = self.slots[slot as usize]
            .as_ref()
            .expect("event arena slot empty");
        (kind, (lane != NO_LANE).then_some(lane))
    }

    /// Number of live payloads.
    #[allow(dead_code)] // invariant checks in tests
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> EventKind {
        EventKind::Call(Box::new(|_| {}))
    }

    #[test]
    fn slots_are_reused_after_take() {
        let mut a = EventArena::default();
        let s0 = a.insert(call(), None);
        let s1 = a.insert(call(), Some(7));
        assert_ne!(s0, s1);
        assert_eq!(a.get(s1).1, Some(7), "the lane is stored with the payload");
        assert_eq!(a.len(), 2);
        let _ = a.take(s0);
        assert_eq!(a.len(), 1);
        let s2 = a.insert(call(), None);
        assert_eq!(s2, s0, "freed slot reused");
        let _ = a.take(s1);
        let _ = a.take(s2);
        assert_eq!(a.len(), 0);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut a = EventArena::default();
        let s = a.insert(call(), None);
        let _ = a.take(s);
        let _ = a.take(s);
    }
}
