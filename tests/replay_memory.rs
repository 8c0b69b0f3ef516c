//! Memory-regression guard for the million-function replay stack: the
//! streaming statistics path must hold a *bounded* footprint per
//! function — one fixed-size sketch, never retained samples — and its
//! steady-state record path must be allocation-free, as must the event
//! calendar's schedule/pop cycle once it has reached its depth.
//!
//! The probe is a counting `#[global_allocator]` (integration tests
//! compile as standalone binaries, so the allocator swap is scoped to
//! this file). It is deliberately coarse: we assert on *deltas* around
//! the measured region, not absolute numbers, so allocator internals
//! and test-harness noise cannot trip it.

use lass_simcore::{EventQueue, SampleStats, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes allocated by this thread: unlike the process-wide counters,
    /// blind to the harness starting the next test's thread.
    static THREAD_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count_thread_bytes(n: usize) {
    // `try_with`: a thread that is being torn down may still allocate.
    let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + n));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        count_thread_bytes(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        count_thread_bytes(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn bytes() -> usize {
    BYTES.load(Ordering::Relaxed)
}

fn thread_bytes() -> usize {
    THREAD_BYTES.with(Cell::get)
}

/// The counters are process-wide and the harness runs tests on parallel
/// threads: each test that measures a region holds this lock, so no
/// other test's allocations land in its deltas.
fn measuring() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// 10⁵ functions' worth of streaming stats: warm them past the lazy
/// quantile-estimator boot, then assert the steady-state record path
/// performs zero allocation and retains zero samples.
#[test]
fn streaming_stats_footprint_is_bounded_at_100k_functions() {
    let _measuring = measuring();
    const FUNCTIONS: usize = 100_000;
    let mut stats: Vec<SampleStats> = (0..FUNCTIONS).map(|_| SampleStats::streaming()).collect();

    // Warm-up: the first few records may allocate (each stat boots its
    // sketch's bucket block lazily) — that is the *bounded* footprint.
    let warm_bytes_before = bytes();
    for (i, s) in stats.iter_mut().enumerate() {
        for k in 0..10u32 {
            s.record(f64::from(k) + i as f64 * 1e-6);
        }
    }
    let warm_bytes = bytes() - warm_bytes_before;
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
    let (a0, b0) = (allocs(), bytes());
    for (i, s) in stats.iter_mut().enumerate() {
        for k in 0..20u32 {
            s.record(f64::from(k) * 0.5 + (i % 97) as f64);
        }
    }
    let (da, db) = (allocs() - a0, bytes() - b0);
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
    let _measuring = measuring();
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
    let _measuring = measuring();
    let mut s = SampleStats::new();
    let (a0, _) = (allocs(), bytes());
    for k in 0..10_000u32 {
        s.record(f64::from(k));
    }
    assert_eq!(s.retained(), 10_000);
    assert!(
        allocs() - a0 > 0,
        "exact stats grew a 10k-sample vec without allocating?"
    );
}

/// The event calendar reuses its key heap, payload slab and tombstone
/// set: once a run has reached its peak depth, schedule/pop cycles
/// (with cancels mixed in) allocate nothing.
#[test]
fn event_queue_steady_state_is_allocation_free() {
    let _measuring = measuring();
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
    // Warm-up: the free list and the tombstone set reach their working
    // size.
    for i in 0..100_000 {
        cycle(&mut q, i);
    }
    let (a0, b0) = (allocs(), bytes());
    for i in 100_000..400_000 {
        cycle(&mut q, i);
    }
    let (da, db) = (allocs() - a0, bytes() - b0);
    assert_eq!(
        da, 0,
        "steady-state calendar cycles performed {da} allocations ({db} bytes)"
    );
    assert_eq!(q.len() as u64, DEPTH);
}
