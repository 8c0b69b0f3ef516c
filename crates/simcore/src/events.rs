//! The event calendar: a time-ordered priority queue of scheduled events.
//!
//! Ties at the same instant are broken by insertion order (a monotonically
//! increasing sequence number), which makes simulations fully deterministic
//! regardless of calendar internals.
//!
//! [`EventQueue`] runs on [`crate::calendar::Calendar`], a 4-ary heap of
//! 16-byte keys over a payload slab whose slots carry the cancel
//! tokens. [`HeapCalendar`], the original `BinaryHeap` calendar, is
//! simple and obviously correct and is kept only as the
//! differential-testing oracle: a proptest
//! (`tests/calendar_differential.rs`) holds the two to bit-identical pop
//! order over arbitrary schedules and cancels.

use crate::calendar::Calendar;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The binary-heap calendar: the reference implementation of the
/// `(time, seq)` earliest-first contract.
///
/// [`EventQueue`] does not use it; it stays `pub` so the differential
/// tests can drive it and [`Calendar`] with identical `(at, seq)`
/// streams.
#[derive(Debug)]
pub struct HeapCalendar<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Tombstones for cancelled-but-still-resident events by `seq`,
    /// purged lazily as pops/peeks reach them. `len` excludes them.
    cancelled: HashSet<u64>,
}

impl<E> Default for HeapCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapCalendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
        }
    }

    /// Insert an event with an explicit tie-break sequence number.
    pub fn insert(&mut self, at: SimTime, seq: u64, event: E) {
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Cancel a pending event by its insertion `seq` (the oracle of
    /// [`Calendar::cancel`], which takes the token `insert` returned):
    /// the entry becomes a tombstone purged lazily by pops/peeks, and
    /// `len` drops now. The `seq` must be pending; a double cancel is
    /// absorbed (`false`).
    pub fn cancel(&mut self, seq: u64) -> bool {
        self.cancelled.insert(seq)
    }

    /// Remove and return the earliest `(at, seq)` event, purging
    /// cancelled tombstones on the way.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let s = self.heap.pop()?;
            if !self.cancelled.is_empty() && self.cancelled.remove(&s.seq) {
                continue;
            }
            return Some((s.at, s.event));
        }
    }

    /// Timestamp of the earliest pending event without popping it.
    /// Purges cancelled tombstones off the front so peek and pop agree.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let top = self.heap.peek()?;
            if !self.cancelled.is_empty() && self.cancelled.contains(&top.seq) {
                let s = self.heap.pop().expect("peeked");
                self.cancelled.remove(&s.seq);
                continue;
            }
            return Some(top.at);
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }
}

/// A deterministic discrete-event calendar.
///
/// ```
/// use lass_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    calendar: Calendar<E>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar positioned at `t = 0`.
    pub fn new() -> Self {
        Self {
            calendar: Calendar::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event (or zero).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past (i.e.
    /// before the last popped event) is a logic error and panics in debug
    /// builds; in release it is clamped to `now` to keep the clock monotone.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_cancellable(at, event);
    }

    /// Schedule `event` at `at`, as [`EventQueue::schedule`] does, and
    /// return a cancellation token for it: the calendar's token, unique
    /// because sequence numbers are never reused. Pass it to
    /// [`EventQueue::cancel`] to remove the event without it ever
    /// firing.
    pub fn schedule_cancellable(&mut self, at: SimTime, event: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let token = self.calendar.insert(at.max(self.now), self.seq, event);
        self.seq += 1;
        token
    }

    /// Cancel an event by the token [`EventQueue::schedule_cancellable`]
    /// returned. Returns whether it was still pending: a token whose
    /// event has already popped or been cancelled is refused and
    /// changes nothing.
    pub fn cancel(&mut self, token: u64) -> bool {
        self.calendar.cancel(token)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.calendar.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// Timestamp of the next event without popping it. Takes `&mut`
    /// because cancelled tombstones are purged off the front so the
    /// answer always matches what `pop` would return.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.calendar.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.calendar.is_empty()
    }

    /// Drop all pending events (the clock is kept).
    pub fn clear(&mut self) {
        self.calendar.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 5);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.schedule(SimTime::from_secs(4), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
        // Scheduling relative to now is the common idiom.
        let later = q.now() + SimDuration::from_secs(1);
        q.schedule(later, ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(3));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(9), ());
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_into_past_clamps_to_now_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), "a");
        q.schedule(SimTime::from_secs(3), "c");
        q.pop();
        q.schedule(SimTime::from_secs(1), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok), "double cancel must be absorbed");
        assert_eq!(q.len(), 1);
        // Peek must not report the tombstoned front event.
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancelling_everything_empties_the_queue() {
        let mut q = EventQueue::new();
        let toks: Vec<u64> = (0..10)
            .map(|i| q.schedule_cancellable(SimTime::from_secs(i), i))
            .collect();
        for t in toks {
            assert!(q.cancel(t));
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // The queue stays usable afterwards.
        q.schedule(SimTime::from_secs(20), 99);
        assert_eq!(q.pop(), Some((SimTime::from_secs(20), 99)));
    }

    #[test]
    fn heap_calendar_cancel_matches_calendar_semantics() {
        let mut h = HeapCalendar::new();
        h.insert(SimTime::from_secs(1), 0, "a");
        h.insert(SimTime::from_secs(2), 1, "b");
        h.insert(SimTime::from_secs(3), 2, "c");
        assert!(h.cancel(1));
        assert_eq!(h.len(), 2);
        assert_eq!(h.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(h.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(h.pop(), Some((SimTime::from_secs(3), "c")));
        assert!(h.is_empty());
    }

    #[test]
    fn heap_calendar_matches_contract() {
        // The oracle backend honors the same (time, seq) contract.
        let mut h = HeapCalendar::new();
        let t = SimTime::from_secs(1);
        h.insert(t, 1, "b");
        h.insert(t, 0, "a");
        h.insert(SimTime::from_secs(2), 2, "c");
        assert_eq!(h.peek_time(), Some(t));
        assert_eq!(h.len(), 3);
        assert_eq!(h.pop(), Some((t, "a")));
        assert_eq!(h.pop(), Some((t, "b")));
        assert_eq!(h.pop(), Some((SimTime::from_secs(2), "c")));
        assert!(h.is_empty());
    }
}
