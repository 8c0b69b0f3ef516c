//! The event calendar behind [`crate::events::EventQueue`]: an implicit
//! 4-ary min-heap of compact `(at, seq, slot)` keys over a payload slab.
//!
//! Contract (shared with [`crate::events::HeapCalendar`] and enforced by
//! a differential proptest): events pop **earliest first**, ties at the
//! same instant broken by insertion order (a monotonically increasing
//! sequence number).
//!
//! Sifts move only the 24-byte keys. A payload is written into its slab
//! slot once at insert and taken out once at pop, however large it is,
//! and freed slots are recycled through a free list, so a calendar that
//! has reached its peak depth allocates nothing more. Four children per
//! node halve the tree depth of a binary heap and keep each node's
//! children in one or two cache lines.

use crate::time::SimTime;
use std::collections::HashSet;

/// Children per heap node.
const ARITY: usize = 4;

/// A heap entry: ordered by `(at, seq)`; `slot` indexes the payload in
/// the slab and never decides an order, because seqs are unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

/// A deterministic `(time, seq)`-ordered event calendar.
#[derive(Debug)]
pub struct Calendar<E> {
    /// The implicit 4-ary heap: node `i`'s children are `4i+1 ..= 4i+4`.
    keys: Vec<Key>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Tombstones for cancelled-but-still-resident events, keyed by the
    /// unique insertion `seq`. Entries are purged lazily as pops and
    /// peeks reach them; `len` excludes them from the moment of
    /// cancellation.
    cancelled: HashSet<u64>,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            cancelled: HashSet::new(),
        }
    }

    /// Number of pending (non-cancelled) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len() - self.cancelled.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events, keeping the allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.slab.clear();
        self.free.clear();
        self.cancelled.clear();
    }

    /// Insert an event with an explicit tie-break sequence number, which
    /// must be unique among resident events.
    pub fn insert(&mut self, at: SimTime, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("more than 2^32 pending events");
                self.slab.push(Some(event));
                slot
            }
        };
        self.keys.push(Key {
            at: at.0,
            seq,
            slot,
        });
        self.sift_up(self.keys.len() - 1);
    }

    /// Cancel a pending event by its insertion `seq`. The event stays
    /// resident as a tombstone and is purged lazily when a pop or peek
    /// reaches it; `len` drops immediately. The `seq` must belong to an
    /// event that is currently pending — cancelling one that already
    /// popped is a caller logic error; a double cancel is absorbed
    /// (returns `false`).
    pub fn cancel(&mut self, seq: u64) -> bool {
        self.cancelled.insert(seq)
    }

    /// Remove and return the earliest `(at, seq)` event, purging any
    /// cancelled tombstones on the way.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let (key, event) = self.pop_key()?;
            if !self.cancelled.is_empty() && self.cancelled.remove(&key.seq) {
                continue;
            }
            return Some((SimTime(key.at), event));
        }
    }

    /// Timestamp of the earliest pending event without popping it.
    /// Purges cancelled tombstones off the top so peek and pop agree.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let top = *self.keys.first()?;
            if self.cancelled.is_empty() || !self.cancelled.contains(&top.seq) {
                return Some(SimTime(top.at));
            }
            self.pop_key();
            self.cancelled.remove(&top.seq);
        }
    }

    /// Remove the heap's top key and take its payload out of the slab.
    fn pop_key(&mut self) -> Option<(Key, E)> {
        let last = self.keys.pop()?;
        let top = match self.keys.first_mut() {
            Some(root) => {
                let top = std::mem::replace(root, last);
                self.sift_down(0);
                top
            }
            None => last,
        };
        let event = self.slab[top.slot as usize].take().expect("live slot");
        self.free.push(top.slot);
        Some((top, event))
    }

    /// Move the key at `i` up until its parent is earlier.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = key;
    }

    /// Move the key at `i` down until no child is earlier.
    fn sift_down(&mut self, mut i: usize) {
        let key = self.keys[i];
        let n = self.keys.len();
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            for c in first + 1..n.min(first + ARITY) {
                if self.keys[c] < self.keys[best] {
                    best = c;
                }
            }
            if key <= self.keys[best] {
                break;
            }
            self.keys[i] = self.keys[best];
            i = best;
        }
        self.keys[i] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(c: &mut Calendar<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| c.pop().map(|(t, e)| (t.0, e))).collect()
    }

    #[test]
    fn same_instant_ties_pop_in_seq_order() {
        let mut c = Calendar::new();
        let t = SimTime(123_456_789);
        for seq in 0..50 {
            c.insert(t, seq, seq);
        }
        let order: Vec<u64> = drain(&mut c).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn insert_during_drain() {
        let mut c = Calendar::new();
        c.insert(SimTime(100), 0, 0);
        c.insert(SimTime(10_000_000), 1, 1);
        assert_eq!(c.pop().map(|(_, e)| e), Some(0));
        // A nearer event inserted after a pop still beats the far one,
        // and one at the instant just popped is accepted too.
        c.insert(SimTime(200), 2, 2);
        c.insert(SimTime(100), 3, 3);
        assert_eq!(c.pop().map(|(_, e)| e), Some(3));
        assert_eq!(c.pop().map(|(_, e)| e), Some(2));
        assert_eq!(c.pop().map(|(_, e)| e), Some(1));
    }

    #[test]
    fn peek_matches_pop_without_disturbing_order() {
        let mut c = Calendar::new();
        for &t in &[5_000_000u64, 42, 1 << 33, 77, 42] {
            c.insert(SimTime(t), c.keys.len() as u64, t);
        }
        let mut last = 0;
        while let Some(pt) = c.peek_time() {
            let (t, _) = c.pop().unwrap();
            assert_eq!(pt, t);
            assert!(t.0 >= last);
            last = t.0;
        }
    }

    #[test]
    fn cancel_purges_lazily() {
        let mut c = Calendar::new();
        let times = [5u64, 5000, 1 << 30, 1 << 50];
        for (seq, &t) in times.iter().enumerate() {
            c.insert(SimTime(t), seq as u64, t);
        }
        // Cancel the earliest and the latest.
        assert!(c.cancel(0));
        assert!(c.cancel(3));
        assert!(!c.cancel(3), "double cancel must be absorbed");
        assert_eq!(c.len(), 2);
        // Peek skips the cancelled front event.
        assert_eq!(c.peek_time(), Some(SimTime(5000)));
        assert_eq!(drain(&mut c), vec![(5000, 5000), (1 << 30, 1 << 30)]);
        assert!(c.is_empty());
    }

    #[test]
    fn cancel_during_drain() {
        let mut c = Calendar::new();
        let t = SimTime(123);
        for seq in 0..4u64 {
            c.insert(t, seq, seq);
        }
        assert_eq!(c.pop().map(|(_, e)| e), Some(0));
        // Cancel two of the remaining tied events mid-drain.
        assert!(c.cancel(1));
        assert!(c.cancel(2));
        assert_eq!(c.peek_time(), Some(t));
        assert_eq!(c.pop().map(|(_, e)| e), Some(3));
        assert!(c.pop().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties_and_stays_usable() {
        let mut c = Calendar::new();
        c.insert(SimTime(1 << 30), 0, 0);
        c.insert(SimTime(1 << 50), 1, 1);
        assert!(c.cancel(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.peek_time(), None);
        assert_eq!(c.pop(), None);
        c.insert(SimTime(9), 2, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.pop().map(|(_, e)| e), Some(2));
    }
}
