//! The event calendar behind [`crate::events::EventQueue`]: an implicit
//! 4-ary min-heap of 16-byte keys over a payload slab.
//!
//! Contract (shared with [`crate::events::HeapCalendar`] and enforced by
//! a differential proptest): events pop **earliest first**, ties at the
//! same instant broken by insertion order (a monotonically increasing
//! sequence number).
//!
//! A key is one `u128`, `at << 64 | seq << 24 | slot`. Seqs are unique,
//! so integer order is `(at, seq)` order, and the low word both names
//! the event (it is the cancel token) and locates its payload. Sifts
//! move only the keys. A pop walks the hole left at the root down to a
//! leaf, taking the earliest of each 4-child group by a tournament (two
//! compares, then one), and then sifts the heap's last key up from that
//! leaf: the last key is a leaf key, so the climb is short. Four
//! children per node halve the depth of a binary heap and keep a node's
//! children in one or two cache lines.
//!
//! A payload is written into its slab slot once at insert and taken out
//! once at pop, however large it is, and freed slots are recycled
//! through a free list, so a calendar that has reached its peak depth
//! allocates nothing more. Each slot also holds the low key word of its
//! live occupant. Cancelling clears that word, in O(1), and leaves the
//! key in the heap as a tombstone that pops and peeks skip and free.
//! A token whose event has popped or been cancelled no longer matches
//! its slot's word, so a stale cancel is a no-op.

use crate::time::SimTime;

/// Children per heap node.
const ARITY: usize = 4;

/// Bits of a key's low word that hold the payload's slab slot.
const SLOT_BITS: u32 = 24;
/// Pending events are limited to 2^24 (16.7 M) slots.
const SLOT_LIMIT: usize = 1 << SLOT_BITS;
/// Seqs are limited to 2^40, the bits left above the slot.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// The slab slot named by a key's low word (a cancel token).
#[inline]
fn slot_of(token: u64) -> usize {
    (token & (SLOT_LIMIT as u64 - 1)) as usize
}

/// The instant in a key's high word.
#[inline]
fn at_of(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// A payload slot of the slab.
#[derive(Debug)]
struct Slot<E> {
    /// The low key word of the live occupant. A slot without one holds
    /// the complement of its last occupant's word instead, whose slot
    /// bits name another slot, so it matches no token.
    word: u64,
    /// The payload; `None` marks a free slot. A cancelled event keeps
    /// its payload until its key leaves the heap.
    event: Option<E>,
}

/// A deterministic `(time, seq)`-ordered event calendar.
#[derive(Debug)]
pub struct Calendar<E> {
    /// The implicit 4-ary heap: node `i`'s children are `4i+1 ..= 4i+4`.
    keys: Vec<u128>,
    /// Payloads by slot.
    slab: Vec<Slot<E>>,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Cancelled events whose keys are still in the heap. Pops and
    /// peeks purge them lazily; `len` excludes them from the moment of
    /// cancellation.
    cancelled: usize,
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
            cancelled: 0,
        }
    }

    /// Number of pending (non-cancelled) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len() - self.cancelled
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
        self.cancelled = 0;
    }

    /// Insert an event with an explicit tie-break sequence number and
    /// return its cancel token. Seqs must be unique and below 2^40; a
    /// token stays unique as long as seqs are never reused.
    ///
    /// # Panics
    ///
    /// If `seq` is 2^40 or more, or 2^24 (16.7 M) events are already
    /// resident.
    pub fn insert(&mut self, at: SimTime, seq: u64, event: E) -> u64 {
        let slot = self.free.last().map_or(self.slab.len(), |&s| s as usize);
        assert!(
            seq < SEQ_LIMIT && slot < SLOT_LIMIT,
            "calendar limits exceeded: seq {seq} must be below 2^40 and \
             resident events below 2^24 (16.7 M)"
        );
        let token = seq << SLOT_BITS | slot as u64;
        let entry = Slot {
            word: token,
            event: Some(event),
        };
        if self.free.pop().is_some() {
            self.slab[slot] = entry;
        } else {
            self.slab.push(entry);
        }
        self.keys.push(u128::from(at.0) << 64 | u128::from(token));
        self.sift_up(self.keys.len() - 1);
        token
    }

    /// Cancel a pending event by the token [`Calendar::insert`]
    /// returned. The event stays resident as a tombstone and is purged
    /// lazily when a pop or peek reaches it; `len` drops immediately.
    /// Returns `false`, changing nothing, when the event has already
    /// popped or been cancelled.
    pub fn cancel(&mut self, token: u64) -> bool {
        match self.slab.get_mut(slot_of(token)) {
            Some(entry) if entry.word == token => {
                entry.word = !token;
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest `(at, seq)` event, purging any
    /// cancelled tombstones on the way.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let key = self.pop_key()?;
            let token = key as u64;
            let live = self.slab[slot_of(token)].word == token;
            let event = self.vacate(token);
            if live {
                return Some((at_of(key), event));
            }
            self.cancelled -= 1;
        }
    }

    /// Timestamp of the earliest pending event without popping it.
    /// Purges cancelled tombstones off the top so peek and pop agree.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let key = *self.keys.first()?;
            let token = key as u64;
            if self.cancelled == 0 || self.slab[slot_of(token)].word == token {
                return Some(at_of(key));
            }
            self.pop_key();
            self.vacate(token);
            self.cancelled -= 1;
        }
    }

    /// Check the calendar's books, panicking on the first inconsistency:
    /// the heap order holds; every key names an occupied slot and every
    /// occupied slot has exactly one key, so every cancelled entry still
    /// has its key in the heap; a slot's word is its key's low word
    /// (live) or that word's complement (cancelled); the live slots
    /// number `len()`; and the free list holds exactly the empty slots.
    /// O(resident events), for tests.
    pub fn audit(&self) {
        for (i, &key) in self.keys.iter().enumerate().skip(1) {
            assert!(self.keys[(i - 1) / ARITY] < key, "heap order broken at {i}");
        }
        let mut keyed = vec![false; self.slab.len()];
        let (mut live, mut dead) = (0, 0);
        for &key in &self.keys {
            let token = key as u64;
            let slot = slot_of(token);
            let entry = self.slab.get(slot).expect("a key names a slab slot");
            assert!(!keyed[slot], "two keys name slot {slot}");
            keyed[slot] = true;
            assert!(entry.event.is_some(), "a key names empty slot {slot}");
            if entry.word == token {
                live += 1;
            } else {
                assert_eq!(entry.word, !token, "slot {slot} holds a foreign word");
                dead += 1;
            }
        }
        assert_eq!(live, self.len(), "live slots differ from len()");
        assert_eq!(dead, self.cancelled, "tombstones differ from the count");
        for (slot, entry) in self.slab.iter().enumerate() {
            assert!(
                keyed[slot] || entry.event.is_none(),
                "occupied slot {slot} has no key in the heap"
            );
        }
        let mut free: Vec<u32> = self.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), self.free.len(), "a slot is freed twice");
        assert_eq!(
            free.len() + self.keys.len(),
            self.slab.len(),
            "free list differs from the empty slots"
        );
        assert!(
            free.iter().all(|&s| !keyed[s as usize]),
            "a keyed slot is free"
        );
    }

    /// Take the payload out of the slot `token` names, clear the slot's
    /// word and put the slot on the free list.
    fn vacate(&mut self, token: u64) -> E {
        let slot = slot_of(token);
        let entry = &mut self.slab[slot];
        entry.word = !token;
        self.free.push(slot as u32);
        entry.event.take().expect("a key's slot is occupied")
    }

    /// Remove the heap's top key: walk the hole it leaves down to a
    /// leaf, then put the last key there and sift it up.
    fn pop_key(&mut self) -> Option<u128> {
        let last = self.keys.pop()?;
        let Some(&top) = self.keys.first() else {
            return Some(last);
        };
        let hole = self.sift_hole_down();
        self.keys[hole] = last;
        self.sift_up(hole);
        Some(top)
    }

    /// Move the hole at the root down to a leaf, filling each hole with
    /// the earliest of its children, and return the leaf.
    fn sift_hole_down(&mut self) -> usize {
        let keys = &mut self.keys[..];
        let n = keys.len();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            let best = if let Some(g) = keys.get(first..first + ARITY) {
                let left = usize::from(g[1] < g[0]);
                let right = 2 + usize::from(g[3] < g[2]);
                first + if g[right] < g[left] { right } else { left }
            } else if first < n {
                // A partial last group: its members are leaves.
                (first + 1..n).fold(first, |b, c| if keys[c] < keys[b] { c } else { b })
            } else {
                return hole;
            };
            keys[hole] = keys[best];
            hole = best;
        }
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
    fn keys_order_by_time_then_seq_across_all_bits() {
        // Times and seqs at the edges of their fields: the packed key
        // must order exactly as `(at, seq)` does.
        let mut c = Calendar::new();
        let times = [u64::MAX, 0, 1 << 63, 1, u64::MAX, 0];
        let seqs = [SEQ_LIMIT - 1, SEQ_LIMIT - 2, 7, 1 << 39, 3, 0];
        for (&t, &seq) in times.iter().zip(&seqs) {
            c.insert(SimTime(t), seq, seq);
            c.audit();
        }
        let order: Vec<u64> = drain(&mut c).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, SEQ_LIMIT - 2, 1 << 39, 7, 3, SEQ_LIMIT - 1]);
    }

    #[test]
    fn cancel_purges_lazily() {
        let mut c = Calendar::new();
        let times = [5u64, 5000, 1 << 30, 1 << 50];
        let tokens: Vec<u64> = times
            .iter()
            .enumerate()
            .map(|(seq, &t)| c.insert(SimTime(t), seq as u64, t))
            .collect();
        // Cancel the earliest and the latest.
        assert!(c.cancel(tokens[0]));
        assert!(c.cancel(tokens[3]));
        assert!(!c.cancel(tokens[3]), "double cancel must be absorbed");
        assert_eq!(c.len(), 2);
        c.audit();
        // Peek skips the cancelled front event.
        assert_eq!(c.peek_time(), Some(SimTime(5000)));
        c.audit();
        assert_eq!(drain(&mut c), vec![(5000, 5000), (1 << 30, 1 << 30)]);
        assert!(c.is_empty());
        c.audit();
    }

    #[test]
    fn cancel_during_drain() {
        let mut c = Calendar::new();
        let t = SimTime(123);
        let tokens: Vec<u64> = (0..4u64).map(|seq| c.insert(t, seq, seq)).collect();
        assert_eq!(c.pop().map(|(_, e)| e), Some(0));
        // Cancel two of the remaining tied events mid-drain.
        assert!(c.cancel(tokens[1]));
        assert!(c.cancel(tokens[2]));
        assert_eq!(c.peek_time(), Some(t));
        assert_eq!(c.pop().map(|(_, e)| e), Some(3));
        assert!(c.pop().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn stale_cancel_is_a_no_op() {
        let mut c = Calendar::new();
        let popped = c.insert(SimTime(10), 0, 0);
        c.insert(SimTime(20), 1, 1);
        assert_eq!(c.pop(), Some((SimTime(10), 0)));
        // The popped event's token is stale: refused, and nothing moves.
        assert!(!c.cancel(popped));
        assert_eq!(c.len(), 1);
        c.audit();
        // A new event recycles the popped event's slot and stays live,
        // even against the stale token.
        let fresh = c.insert(SimTime(15), 2, 2);
        assert_eq!(slot_of(fresh), slot_of(popped));
        assert!(!c.cancel(popped));
        assert_eq!(c.len(), 2);
        c.audit();
        assert_eq!(drain(&mut c), vec![(15, 2), (20, 1)]);
        // With nothing pending, a stale cancel leaves the length at 0.
        assert!(!c.cancel(fresh));
        assert_eq!(c.len(), 0);
        c.audit();
    }

    #[test]
    fn clear_empties_and_stays_usable() {
        let mut c = Calendar::new();
        c.insert(SimTime(1 << 30), 0, 0);
        let far = c.insert(SimTime(1 << 50), 1, 1);
        assert!(c.cancel(far));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.peek_time(), None);
        assert_eq!(c.pop(), None);
        assert!(!c.cancel(far), "a token from before the clear is stale");
        c.insert(SimTime(9), 2, 2);
        assert_eq!(c.len(), 1);
        c.audit();
        assert_eq!(c.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn largest_seq_is_accepted() {
        let mut c = Calendar::new();
        let token = c.insert(SimTime(1), SEQ_LIMIT - 1, ());
        assert!(c.cancel(token));
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(
        expected = "seq 1099511627776 must be below 2^40 and resident events below 2^24"
    )]
    fn seq_at_the_limit_is_rejected() {
        Calendar::new().insert(SimTime(1), SEQ_LIMIT, ());
    }

    #[test]
    #[should_panic(expected = "must be below 2^40 and resident events below 2^24")]
    fn largest_u64_seq_is_rejected() {
        Calendar::new().insert(SimTime(1), u64::MAX, ());
    }
}
