//! A slab: entries addressed by a small index that a data event carries.
//!
//! The runtime parks what an in-flight event needs — a message on the
//! wire, a flow's state — in a slab and schedules a two-word data event
//! naming the slot, instead of boxing a closure per event. Freed slots are
//! reused, so a slab holds as many entries as were ever pending at once.

/// Entries with a free list of vacated slots.
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Store `value`, returning its slot.
    pub fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Take the entry out of slot `i`, freeing the slot.
    pub fn take(&mut self, i: usize) -> T {
        let value = self.slots[i].take().expect("slab slot taken twice");
        self.free.push(i);
        value
    }

    /// The entry in slot `i`.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        self.slots[i].as_mut().expect("slab slot empty")
    }

    /// Entries held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_slots_are_reused() {
        let mut s = Slab::default();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.take(a), "a");
        assert_eq!(s.insert("c"), a, "the freed slot comes back");
        *s.get_mut(b) = "b2";
        assert_eq!((s.take(b), s.take(a)), ("b2", "c"));
        assert_eq!(s.len(), 0);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn a_double_take_panics() {
        let mut s = Slab::default();
        let a = s.insert(1);
        s.take(a);
        s.take(a);
    }
}
