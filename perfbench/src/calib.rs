//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! tens of percent, sometimes by 2–3×, over minutes, as other tenants
//! come and go. Two things drift. The hypervisor takes the virtual CPU
//! away for a while (steal), which lengthens wall time but not the CPU
//! time the guest accounts to the process; and the CPU runs slower while
//! it has it (shared caches, memory bandwidth), which lengthens both.
//! Host times are therefore measured as CPU time, which leaves out the
//! first, and every repetition is bracketed by a fixed reference kernel
//! timed the same way, which measures the second. Times are reported in
//! *reference CPU seconds*: divided by how much slower than its reference
//! time the kernel ran around the repetition. The kernel lives here, not
//! in the repository, so a change to the simulator cannot move it.
//!
//! The kernel has two parts:
//!
//! * a compute pass that mixes what the simulator does per event: pops
//!   and pushes on a binary-heap calendar, hash-map and B-tree updates,
//!   random read-modify-writes in an 8 MiB table (memory-bound) and in a
//!   256 KiB one (cache-bound), and a dependent integer chain
//!   (core-bound). Each kind alone tracks the simulator's slowdowns only
//!   partly; the mix tracks them best of those tried;
//! * a hand-off pass, timed only for runs on more than one thread: two
//!   threads meeting at a [`Barrier`] over and over, as the windowed
//!   parallel executor's threads do every window. Its cost is the system
//!   calls that park and wake a thread on another CPU, which drift on a
//!   virtual machine independently of compute speed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::Barrier;

use crate::stats;

/// Typical CPU time of one compute pass on the host the bounds in
/// `README.md` were set on (2-vCPU KVM guest, Intel Xeon), ns.
pub const COMPUTE_REFERENCE_NS: f64 = 85e6;
/// Typical CPU time of one hand-off pass, both threads, on the same host,
/// ns.
pub const HANDOFF_REFERENCE_NS: f64 = 60e6;

const ITERATIONS: u32 = 200_000;
const PENDING: u32 = 4_096;
const BIG_WORDS: usize = 1 << 20;
const SMALL_WORDS: usize = 1 << 15;
const TREE_KEYS: u64 = 50_000;
const MAP_CAP: usize = 100_000;
const HANDOFFS: u32 = 10_000;

/// CPU time of one timing of the kernel, ns. `handoff_ns` is 0 when the
/// hand-off pass was not timed.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    compute_ns: f64,
    handoff_ns: f64,
}

/// The host's slowdown around a run on `threads` threads, from the kernel
/// timings just before and just after it: the compute pass's CPU time
/// over its reference, and for more than one thread the geometric mean of
/// that and the hand-off pass's CPU time over its reference. 1 on the
/// reference host, above 1 on a slower one.
pub fn slowdown(before: Timing, after: Timing, threads: usize) -> f64 {
    let compute = (before.compute_ns + after.compute_ns) / 2.0 / COMPUTE_REFERENCE_NS;
    if threads < 2 {
        return compute;
    }
    let handoff = (before.handoff_ns + after.handoff_ns) / 2.0 / HANDOFF_REFERENCE_NS;
    (compute * handoff).sqrt()
}

/// The reference kernel with its buffers, allocated and touched once so
/// every timed pass does the same work on warm memory.
pub struct Kernel {
    handoff: bool,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    map: HashMap<u64, u64>,
    tree: BTreeMap<u64, u64>,
    big: Vec<u64>,
    small: Vec<u64>,
}

impl Kernel {
    /// Allocate the buffers and run one untimed pass. With `handoff`,
    /// every timing also times the hand-off pass.
    pub fn new(handoff: bool) -> Self {
        let mut k = Self {
            handoff,
            heap: BinaryHeap::with_capacity(PENDING as usize + 1),
            map: HashMap::with_capacity(MAP_CAP + 1),
            tree: BTreeMap::new(),
            big: vec![0; BIG_WORDS],
            small: vec![0; SMALL_WORDS],
        };
        k.compute();
        k
    }

    /// Time the compute pass, and the hand-off pass if this kernel has
    /// one, in CPU time.
    pub fn time(&mut self) -> Timing {
        let cpu0 = stats::thread_cpu_ns();
        black_box(self.compute());
        let compute_ns = (stats::thread_cpu_ns() - cpu0) as f64;
        Timing {
            compute_ns,
            handoff_ns: if self.handoff { handoff() } else { 0.0 },
        }
    }

    fn compute(&mut self) -> u64 {
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        self.heap.clear();
        self.map.clear();
        self.tree.clear();
        self.big.fill(0);
        self.small.fill(0);
        for id in 0..PENDING {
            self.heap.push(Reverse((xorshift(&mut s) % 1_000, id)));
        }
        let mut acc = 0u64;
        for _ in 0..ITERATIONS {
            let Reverse((t, id)) = self.heap.pop().expect("the calendar never empties");
            let r = xorshift(&mut s);
            *self.map.entry(u64::from(id) ^ (r & 0xffff)).or_default() += t;
            if self.map.len() > MAP_CAP {
                self.map.clear();
            }
            let key = r % TREE_KEYS;
            if let Some(v) = self.tree.remove(&key) {
                acc ^= v;
            } else {
                self.tree.insert(key, acc);
            }
            let b = (r >> 20) as usize % BIG_WORDS;
            self.big[b] = self.big[b].wrapping_add(t);
            acc = acc.wrapping_add(self.big[(b * 7) % BIG_WORDS]);
            let i = (r >> 40) as usize % SMALL_WORDS;
            self.small[i] = self.small[i].wrapping_add(acc);
            let mut x = r | 1;
            for _ in 0..8 {
                acc = acc.wrapping_add(xorshift(&mut x) % 977);
            }
            self.heap.push(Reverse((t + r % 1_000, id)));
        }
        acc ^ self.map.len() as u64 ^ self.tree.len() as u64
    }
}

/// Two threads meet at a barrier [`HANDOFFS`] times; returns the CPU
/// time both used, ns.
fn handoff() -> f64 {
    let barrier = Barrier::new(2);
    let meet = || {
        let cpu0 = stats::thread_cpu_ns();
        for _ in 0..HANDOFFS {
            barrier.wait();
        }
        stats::thread_cpu_ns() - cpu0
    };
    std::thread::scope(|s| {
        let other = s.spawn(meet);
        let mine = meet();
        (mine + other.join().expect("hand-off thread panicked")) as f64
    })
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass starts from the same state whatever ran before it, so every
    /// timed pass does the same work.
    #[test]
    fn every_compute_pass_does_the_same_work() {
        let mut k = Kernel::new(false);
        let first = k.compute();
        assert_eq!(first, k.compute());
        assert!(k.time().compute_ns > 0.0);
        assert_eq!(first, k.compute());
    }

    #[test]
    fn slowdown_is_one_at_reference_speed() {
        let at_reference = Timing {
            compute_ns: COMPUTE_REFERENCE_NS,
            handoff_ns: HANDOFF_REFERENCE_NS,
        };
        assert_eq!(slowdown(at_reference, at_reference, 1), 1.0);
        assert_eq!(slowdown(at_reference, at_reference, 2), 1.0);
        // Compute twice as slow, hand-offs at reference speed: the
        // single-thread slowdown is 2, the parallel one √2.
        let slow = Timing {
            compute_ns: 2.0 * COMPUTE_REFERENCE_NS,
            ..at_reference
        };
        assert_eq!(slowdown(slow, slow, 1), 2.0);
        assert_eq!(slowdown(slow, slow, 2), 2f64.sqrt());
        // Each side of the run counts half.
        assert_eq!(slowdown(at_reference, slow, 1), 1.5);
    }
}
