//! Differential test: the slab-backed 4-ary heap calendar against the
//! binary-heap oracle.
//!
//! Both promise the same observable contract — pop earliest
//! `(time, seq)` first — and every fixed-seed golden in the workspace
//! leans on it. This harness drives [`Calendar`] and [`HeapCalendar`]
//! with identical operation sequences (schedules interleaved with pops,
//! i.e. schedule-during-pop, and cancels) and requires bit-identical pop
//! streams. [`Calendar`] cancels by the token `insert` returned, the
//! oracle by seq; [`Calendar::audit`] checks the calendar's books after
//! every operation.
//!
//! Offsets span zero (same-instant ties) through nanoseconds to >2⁴⁸ ns,
//! so keys of every magnitude meet in one heap.

use lass_simcore::{Calendar, HeapCalendar, RequestTable, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delta` ns after the last popped timestamp.
    Schedule(u64),
    /// Pop one event from both calendars and compare.
    Pop,
    /// Cancel a still-pending event (picked by index into the live
    /// set) on both calendars; both must acknowledge, and a second
    /// cancel of the same event must be absorbed identically.
    Cancel(usize),
    /// Cancel a pending event and immediately reschedule its payload
    /// under a fresh seq `delta` ns after the last popped timestamp —
    /// the hedge loser-requeue pattern.
    Reschedule(usize, u64),
    /// Cancel, on [`Calendar`] alone, by the token of an event that has
    /// already popped or been cancelled (picked by index): refused, and
    /// the length is unchanged.
    StaleCancel(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Pop),
        Just(Op::Pop),
        // Same-instant tie with whatever else lands at `now`.
        Just(Op::Schedule(0)),
        // A few microseconds: near-ties.
        (1u64..4096).prop_map(Op::Schedule),
        // Up to about a quarter millisecond.
        (4096u64..1 << 18).prop_map(Op::Schedule),
        // A quarter millisecond to about an hour.
        ((1u64 << 18)..(1 << 42)).prop_map(Op::Schedule),
        // The far future: days to weeks.
        ((1u64 << 42)..(1 << 52)).prop_map(Op::Schedule),
        (0usize..1 << 16).prop_map(Op::Cancel),
        (0usize..1 << 16, 0u64..1 << 44).prop_map(|(i, d)| Op::Reschedule(i, d)),
        (0usize..1 << 16).prop_map(Op::StaleCancel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn calendar_matches_heap_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut cal = Calendar::new();
        let mut heap = HeapCalendar::new();
        let mut seq = 0u64;
        let mut now = 0u64; // timestamp of the last pop, like EventQueue
        // `(seq, token)` of events scheduled but not yet popped or
        // cancelled: the oracle's cancel requires a pending seq, so
        // `Cancel` and `Reschedule` only pick from here.
        let mut live: Vec<(u64, u64)> = Vec::new();
        // Tokens of events that have popped or been cancelled.
        let mut stale: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Schedule(delta) => {
                    let at = SimTime(now.saturating_add(delta));
                    live.push((seq, cal.insert(at, seq, seq)));
                    heap.insert(at, seq, seq);
                    seq += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    let (c, h) = (cal.pop(), heap.pop());
                    prop_assert_eq!(c, h, "pop diverged after seq {}", seq);
                    if let Some((t, e)) = c {
                        now = t.0;
                        let i = live
                            .iter()
                            .position(|&(s, _)| s == e)
                            .expect("popped a live event");
                        stale.push(live.swap_remove(i).1);
                    }
                }
                Op::Cancel(idx) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (victim, token) = live.swap_remove(idx % live.len());
                    prop_assert!(cal.cancel(token));
                    prop_assert!(heap.cancel(victim));
                    prop_assert!(!cal.cancel(token), "double cancel absorbed");
                    prop_assert!(!heap.cancel(victim), "double cancel absorbed");
                    stale.push(token);
                }
                Op::Reschedule(idx, delta) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (victim, token) = live.swap_remove(idx % live.len());
                    prop_assert!(cal.cancel(token));
                    prop_assert!(heap.cancel(victim));
                    stale.push(token);
                    let at = SimTime(now.saturating_add(delta));
                    live.push((seq, cal.insert(at, seq, seq)));
                    heap.insert(at, seq, seq);
                    seq += 1;
                }
                Op::StaleCancel(idx) => {
                    if stale.is_empty() {
                        continue;
                    }
                    let len = cal.len();
                    prop_assert!(!cal.cancel(stale[idx % stale.len()]), "stale cancel refused");
                    prop_assert_eq!(cal.len(), len);
                }
            }
            cal.audit();
            prop_assert_eq!(cal.len(), live.len());
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Drain the rest: the full residual streams must match too.
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h);
            cal.audit();
            if c.is_none() {
                break;
            }
        }
    }
}

/// Directed regression: cancelling tied events *while* draining their
/// instant keeps both calendars on the same pop stream — the first-response-wins path
/// cancels a loser at exactly the instant the winner's completion pops.
#[test]
fn cancel_during_pop_matches_heap_oracle() {
    let mut cal = Calendar::new();
    let mut heap = HeapCalendar::new();
    let t = SimTime(1 << 21);
    let mut tokens = Vec::new();
    for seq in 0..8u64 {
        tokens.push(cal.insert(t, seq, seq));
        heap.insert(t, seq, seq);
    }
    // Pop one of the tie burst, then cancel two mid-drain: the next in
    // line (seq 1) and the last of the burst (seq 7).
    assert_eq!(cal.pop(), heap.pop());
    for victim in [1u64, 7] {
        assert!(cal.cancel(tokens[victim as usize]));
        assert!(heap.cancel(victim));
    }
    assert_eq!(cal.peek_time(), heap.peek_time());
    // Reschedule one victim's payload at the same instant under a new
    // seq, mid-drain: it must still come out after the survivors.
    cal.insert(t, 8, 8);
    heap.insert(t, 8, 8);
    let mut drained = Vec::new();
    loop {
        let (c, h) = (cal.pop(), heap.pop());
        assert_eq!(c, h);
        match c {
            Some((_, e)) => drained.push(e),
            None => break,
        }
    }
    assert_eq!(drained, vec![2, 3, 4, 5, 6, 8]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A slot token taken before a request retires must go stale the
    /// moment the slot is reused — however many inserts and removes
    /// happen in between. This is the guard that makes a late hedge
    /// cancel (or timer) a no-op instead of killing an unrelated
    /// request that recycled the slot.
    #[test]
    fn stale_generation_cancel_never_fires_after_slot_reuse(
        pre in 1usize..16,
        victim_pick in 0usize..16,
        churn in prop::collection::vec(0u8..4, 1..64),
    ) {
        let mut table = RequestTable::new();
        let mut next_rid = 0u64;
        let mut resident: Vec<u64> = Vec::new();
        for _ in 0..pre {
            table.insert(next_rid, 0, SimTime(next_rid));
            resident.push(next_rid);
            next_rid += 1;
        }
        let victim = resident.swap_remove(victim_pick % resident.len());
        let token = table.slot_token(victim).unwrap();
        prop_assert!(table.token_live(victim, token));

        // Retire the victim, then churn the table: its slot is on top
        // of the free list, so the very next insert recycles it.
        table.remove(victim);
        prop_assert!(!table.token_live(victim, token), "retired yet live");
        let successor = next_rid;
        for (i, op) in churn.iter().enumerate() {
            if *op == 3 && !resident.is_empty() {
                let rid = resident.swap_remove(i % resident.len());
                table.remove(rid);
            } else {
                table.insert(next_rid, 1, SimTime(next_rid));
                resident.push(next_rid);
                next_rid += 1;
            }
            // The stale token must stay dead at every point of the
            // churn — a late cancel can land at any time.
            prop_assert!(!table.token_live(victim, token));
        }

        // The successor recycled the victim's slot under a bumped
        // generation: its token is live, distinct, and the victim's
        // stale token never validates against either rid.
        if let Some(fresh) = table.slot_token(successor) {
            prop_assert!(fresh != token, "recycled slot kept the stale generation");
            prop_assert!(table.token_live(successor, fresh));
            prop_assert!(!table.token_live(successor, token));
        }
        prop_assert!(table.get(victim).is_none());
    }
}

/// Directed regression: a burst of same-instant events scheduled *while*
/// draining that instant keeps insertion order.
#[test]
fn schedule_during_pop_preserves_tie_order() {
    let mut cal = Calendar::new();
    let mut heap = HeapCalendar::new();
    let t = SimTime(1 << 21);
    for seq in 0..8u64 {
        cal.insert(t, seq, seq);
        heap.insert(t, seq, seq);
    }
    for seq in 8u64..16 {
        assert_eq!(cal.pop(), heap.pop());
        // New work at the very same instant, mid-drain.
        cal.insert(t, seq, seq);
        heap.insert(t, seq, seq);
    }
    loop {
        let (c, h) = (cal.pop(), heap.pop());
        assert_eq!(c, h);
        if c.is_none() {
            break;
        }
    }
}

/// Pop both calendars to empty, requiring identical streams; returns the
/// payloads in pop order.
fn drain_both(cal: &mut Calendar<u64>, heap: &mut HeapCalendar<u64>) -> Vec<u64> {
    let mut drained = Vec::new();
    loop {
        assert_eq!(cal.peek_time(), heap.peek_time());
        let (c, h) = (cal.pop(), heap.pop());
        assert_eq!(c, h);
        match c {
            Some((_, e)) => drained.push(e),
            None => return drained,
        }
    }
}

/// Slab churn: every pop frees a slot that a later insert reuses,
/// thousands of times over. The depth swings between 16 and 128, so
/// freed slots are handed out in a shifting order, and the scrambled
/// times give reused slots keys of every rank.
#[test]
fn slab_slot_recycling_churn_matches_heap_oracle() {
    let mut cal = Calendar::new();
    let mut heap = HeapCalendar::new();
    let mut seq = 0u64;
    let mut insert = |cal: &mut Calendar<u64>, heap: &mut HeapCalendar<u64>, now: u64| {
        let at = SimTime(now + seq.wrapping_mul(104_729) % 5000);
        cal.insert(at, seq, seq);
        heap.insert(at, seq, seq);
        seq += 1;
    };
    for _ in 0..16 {
        insert(&mut cal, &mut heap, 0);
    }
    for round in 0..20_000u64 {
        let (c, h) = (cal.pop(), heap.pop());
        assert_eq!(c, h, "round {round}");
        let now = c.expect("depth stays at 16 or more").0 .0;
        // 112 rounds of two inserts per pop, then 112 of none.
        if (round / 112).is_multiple_of(2) {
            insert(&mut cal, &mut heap, now);
            insert(&mut cal, &mut heap, now);
        }
        assert_eq!(cal.len(), heap.len());
    }
    drain_both(&mut cal, &mut heap);
}

/// A cancelled event's slot is recycled by a later insert once the
/// tombstone is purged. The old event's tombstone must not follow the
/// slot: the new event fires, the old token stays refused, and
/// cancelling the newcomer by its own token works.
#[test]
fn recycled_slot_of_cancelled_event_keeps_new_event_live() {
    let mut cal = Calendar::new();
    let mut heap = HeapCalendar::new();
    let mut tokens = Vec::new();
    for seq in 0..3u64 {
        tokens.push(cal.insert(SimTime(10 * (seq + 1)), seq, seq));
        heap.insert(SimTime(10 * (seq + 1)), seq, seq);
    }
    // Cancel the front event and purge its tombstone with a peek.
    assert!(cal.cancel(tokens[0]));
    assert!(heap.cancel(0));
    assert_eq!(cal.peek_time(), heap.peek_time());
    // The next insert reuses the freed slot at a time that beats the
    // survivors; it must pop, not vanish under seq 0's old tombstone.
    cal.insert(SimTime(5), 3, 3);
    heap.insert(SimTime(5), 3, 3);
    assert!(!cal.cancel(tokens[0]), "the purged event's token is stale");
    assert_eq!(cal.len(), 3);
    cal.audit();
    assert_eq!(cal.pop(), Some((SimTime(5), 3)));
    assert_eq!(heap.pop(), Some((SimTime(5), 3)));
    // Recycle the same slot again and cancel the newcomer by its token.
    let newcomer = cal.insert(SimTime(15), 4, 4);
    heap.insert(SimTime(15), 4, 4);
    assert!(cal.cancel(newcomer));
    assert!(heap.cancel(4));
    cal.audit();
    assert_eq!(drain_both(&mut cal, &mut heap), vec![1, 2]);
}

/// `peek_time` over a cancelled top: it must report the earliest live
/// event, and a later insert below the purged tombstone's time must
/// still take the top.
#[test]
fn peek_time_skips_cancelled_top() {
    let mut cal = Calendar::new();
    let mut heap = HeapCalendar::new();
    let mut tokens = Vec::new();
    for (seq, at) in [(0u64, 100u64), (1, 100), (2, 300), (3, 200)] {
        tokens.push(cal.insert(SimTime(at), seq, seq));
        heap.insert(SimTime(at), seq, seq);
    }
    for victim in [0u64, 1] {
        assert!(cal.cancel(tokens[victim as usize]));
        assert!(heap.cancel(victim));
    }
    assert_eq!(cal.peek_time(), Some(SimTime(200)));
    assert_eq!(heap.peek_time(), Some(SimTime(200)));
    // Peeking again is idempotent, and len never counted the tombstones.
    assert_eq!(cal.peek_time(), Some(SimTime(200)));
    assert_eq!(cal.len(), 2);
    cal.insert(SimTime(150), 4, 4);
    heap.insert(SimTime(150), 4, 4);
    assert_eq!(drain_both(&mut cal, &mut heap), vec![4, 3, 2]);
}

/// Depth beyond any perfbench workload: 2·10⁵ pending events (scrambled
/// times, a tenth of them cancelled) drain in the oracle's order.
#[test]
fn hundred_thousand_pending_match_heap_oracle() {
    const N: u64 = 200_000;
    let mut cal = Calendar::new();
    let mut heap = HeapCalendar::new();
    let mut tokens = Vec::new();
    for seq in 0..N {
        // A multiplicative scramble over ~2^40 ns with plenty of ties.
        let at = SimTime((seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) % (1 << 40) / 1000);
        tokens.push(cal.insert(at, seq, seq));
        heap.insert(at, seq, seq);
    }
    for victim in (0..N).step_by(10) {
        assert!(cal.cancel(tokens[victim as usize]));
        assert!(heap.cancel(victim));
    }
    cal.audit();
    assert_eq!(cal.len(), heap.len());
    assert!(cal.len() >= 100_000);
    let drained = drain_both(&mut cal, &mut heap);
    assert_eq!(drained.len() as u64, N - N / 10);
}
