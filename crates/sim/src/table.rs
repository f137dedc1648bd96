//! Dense process table.
//!
//! [`Pid`]s are sequential `u64`s allocated by the kernel and never reused,
//! so the table is a plain `Vec` indexed by pid: O(1) lookup with no
//! hashing on the kernel hot path (every resume, kill and op does at
//! least one lookup). Entries are never removed — a dead process keeps its
//! slot (marked dead by the kernel) so stale pids still resolve and report
//! not-alive instead of aliasing a later process.

use crate::process::Pid;

/// Vec-backed map from [`Pid`] to `T` for densely allocated pids.
///
/// `Option` slots tolerate out-of-order inserts (a pid is allocated before
/// its entry is constructed, so a lower pid's insert can theoretically land
/// after a higher pid's) and make lookups of not-yet-inserted pids return
/// `None` just like a map.
#[derive(Debug)]
pub(crate) struct ProcTable<T> {
    entries: Vec<Option<T>>,
}

impl<T> Default for ProcTable<T> {
    fn default() -> Self {
        ProcTable {
            entries: Vec::new(),
        }
    }
}

impl<T> ProcTable<T> {
    /// Insert the entry for `pid`, growing the table as needed.
    pub fn insert(&mut self, pid: Pid, entry: T) {
        let i = pid.0 as usize;
        if i >= self.entries.len() {
            self.entries.resize_with(i + 1, || None);
        }
        debug_assert!(self.entries[i].is_none(), "pid {pid} inserted twice");
        self.entries[i] = Some(entry);
    }

    pub fn get(&self, pid: Pid) -> Option<&T> {
        self.entries.get(pid.0 as usize)?.as_ref()
    }

    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut T> {
        self.entries.get_mut(pid.0 as usize)?.as_mut()
    }

    /// All inserted entries with their pids, in pid order.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (Pid, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (Pid(i as u64), e)))
    }

    /// All inserted entries, in pid order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_before_insert_is_none() {
        let t: ProcTable<&str> = ProcTable::default();
        assert!(t.get(Pid(0)).is_none());
        assert!(t.get(Pid(17)).is_none());
    }

    #[test]
    fn insert_and_lookup_round_trip() {
        let mut t = ProcTable::default();
        t.insert(Pid(0), "a");
        t.insert(Pid(1), "b");
        assert_eq!(t.get(Pid(0)), Some(&"a"));
        assert_eq!(t.get(Pid(1)), Some(&"b"));
        assert!(t.get(Pid(2)).is_none());
        *t.get_mut(Pid(1)).unwrap() = "b2";
        assert_eq!(t.get(Pid(1)), Some(&"b2"));
    }

    #[test]
    fn out_of_order_insert_leaves_holes_as_none() {
        let mut t = ProcTable::default();
        t.insert(Pid(5), "later");
        assert!(t.get(Pid(3)).is_none());
        assert_eq!(t.get(Pid(5)), Some(&"later"));
        t.insert(Pid(3), "backfill");
        assert_eq!(t.get(Pid(3)), Some(&"backfill"));
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn iter_yields_pid_order() {
        let mut t = ProcTable::default();
        for i in [2u64, 0, 1] {
            t.insert(Pid(i), i);
        }
        let pids: Vec<u64> = t.iter().map(|(p, _)| p.0).collect();
        assert_eq!(pids, vec![0, 1, 2]);
        *t.get_mut(Pid(2)).expect("inserted") += 10;
        assert_eq!(t.get(Pid(2)), Some(&12));
    }
}
