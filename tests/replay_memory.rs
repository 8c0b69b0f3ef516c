//! Memory-regression guard for the million-function replay stack: the
//! streaming statistics path must hold a *bounded* footprint per
//! function — one fixed-size sketch, never retained samples — and its
//! steady-state record path must be allocation-free, as must the event
//! calendar's schedule/pop cycle once it has reached its depth.
//!
//! The probe is a counting `#[global_allocator]` (integration tests
//! compile as standalone binaries, so the allocator swap is scoped to
//! this file) that counts each thread's allocations separately: the
//! harness runs tests, and starts the next one, on other threads, so
//! their allocations never land in a measured region. We assert on
//! *deltas* around the measured region, not absolute numbers.

use lass_simcore::{EventQueue, SampleStats, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations and bytes allocated by this thread.
    static THREAD_COUNTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count_thread(n: usize) {
    // `try_with`: a thread that is being torn down may still allocate.
    let _ = THREAD_COUNTS.try_with(|c| {
        let (allocs, bytes) = c.get();
        c.set((allocs + 1, bytes + n));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_thread(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_thread(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` this thread has made so far.
fn thread_counts() -> (usize, usize) {
    THREAD_COUNTS.with(Cell::get)
}

fn thread_bytes() -> usize {
    thread_counts().1
}

/// 10⁵ functions' worth of streaming stats: warm them past the lazy
/// quantile-estimator boot, then assert the steady-state record path
/// performs zero allocation and retains zero samples.
#[test]
fn streaming_stats_footprint_is_bounded_at_100k_functions() {
    const FUNCTIONS: usize = 100_000;
    let mut stats: Vec<SampleStats> = (0..FUNCTIONS).map(|_| SampleStats::streaming()).collect();

    // Warm-up: the first few records may allocate (each stat boots its
    // sketch's bucket block lazily) — that is the *bounded* footprint.
    let warm_bytes_before = thread_bytes();
    for (i, s) in stats.iter_mut().enumerate() {
        for k in 0..10u32 {
            s.record(f64::from(k) + i as f64 * 1e-6);
        }
    }
    let warm_bytes = thread_bytes() - warm_bytes_before;
    // Bounded footprint: O(1) per function. 1 KiB each is above the
    // sketch's 648-byte bucket block — a retained-sample representation
    // (8 B/sample growing forever) blows through this within the
    // warm-up alone.
    assert!(
        warm_bytes < FUNCTIONS * 1024,
        "streaming warm-up allocated {warm_bytes} bytes for {FUNCTIONS} stats"
    );

    // Steady state: recording into warm streaming stats must not touch
    // the allocator at all.
    let (a0, b0) = thread_counts();
    for (i, s) in stats.iter_mut().enumerate() {
        for k in 0..20u32 {
            s.record(f64::from(k) * 0.5 + (i % 97) as f64);
        }
    }
    let (a1, b1) = thread_counts();
    let (da, db) = (a1 - a0, b1 - b0);
    assert_eq!(
        da, 0,
        "steady-state streaming record performed {da} allocations ({db} bytes)"
    );

    // And nothing is retained: the whole point of the streaming path.
    for s in &stats {
        assert_eq!(s.retained(), 0);
        assert_eq!(s.count(), 30);
    }
    // Estimates stay sane after 3M total records.
    let p95 = stats[0].percentile(0.95).unwrap();
    assert!(p95.is_finite() && p95 >= 0.0);
}

/// Most instruments of a Zipf-popularity replay see only zeros (the
/// waits of an idle site) or a few distinct latencies: the former
/// allocate nothing, the latter one small block of sorted buckets.
#[test]
fn sparse_streaming_stats_stay_small() {
    const FUNCTIONS: usize = 10_000;
    let mut stats: Vec<SampleStats> = (0..FUNCTIONS).map(|_| SampleStats::streaming()).collect();

    let b0 = thread_bytes();
    for s in &mut stats {
        for _ in 0..50 {
            s.record(0.0);
        }
    }
    let db = thread_bytes() - b0;
    assert_eq!(db, 0, "all-zero instruments allocated {db} bytes");

    // Eight distinct buckets each (doubling values are ~17 buckets
    // apart), recorded many times: at most 128 bytes per instrument.
    let b0 = thread_bytes();
    for (i, s) in stats.iter_mut().enumerate() {
        for k in 0..64u32 {
            s.record(1e-3 * f64::from(1u32 << (k % 8)) * (1.0 + (i % 7) as f64 * 1e-3));
        }
    }
    let db = thread_bytes() - b0;
    assert!(
        db <= FUNCTIONS * 128,
        "instruments with 8 buckets allocated {} bytes each",
        db / FUNCTIONS
    );
    for s in &stats {
        assert_eq!(s.count(), 114);
        assert_eq!(s.retained(), 0);
    }
}

/// The exact (golden-pinned) representation *does* retain samples —
/// the probe must see the difference, or it is not measuring anything.
#[test]
fn exact_stats_retain_and_allocate() {
    let mut s = SampleStats::new();
    let (a0, _) = thread_counts();
    for k in 0..10_000u32 {
        s.record(f64::from(k));
    }
    assert_eq!(s.retained(), 10_000);
    assert!(
        thread_counts().0 - a0 > 0,
        "exact stats grew a 10k-sample vec without allocating?"
    );
}

/// The event calendar reuses its key heap and payload slab, and a
/// cancel only rewrites a slab slot: once a run has reached its peak
/// depth, schedule/pop cycles (with cancels mixed in) allocate nothing.
#[test]
fn event_queue_steady_state_is_allocation_free() {
    const DEPTH: u64 = 10_000;
    let mut q: EventQueue<[u64; 8]> = EventQueue::new();
    // Scrambled offsets up to ~1 s so keys land all over the heap.
    let offset =
        |i: u64| SimDuration((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 34) % 1_000_000_000);
    let cycle = |q: &mut EventQueue<[u64; 8]>, i: u64| {
        let (now, e) = q.pop().expect("queue stays at depth");
        if i.is_multiple_of(4) {
            // A timer cancelled before it fires: a tombstone at the
            // front, purged by the next pop.
            let tok = q.schedule_cancellable(now, e);
            assert!(q.cancel(tok));
        }
        let at = now + offset(i);
        q.schedule(at, [i; 8]);
    };
    for i in 0..DEPTH {
        q.schedule(q.now() + offset(i), [i; 8]);
    }
    // Warm-up: the heap, slab and free list reach their working size.
    for i in 0..100_000 {
        cycle(&mut q, i);
    }
    let (a0, b0) = thread_counts();
    for i in 100_000..400_000 {
        cycle(&mut q, i);
    }
    let (a1, b1) = thread_counts();
    let (da, db) = (a1 - a0, b1 - b0);
    assert_eq!(
        da, 0,
        "steady-state calendar cycles performed {da} allocations ({db} bytes)"
    );
    assert_eq!(q.len() as u64, DEPTH);
}
