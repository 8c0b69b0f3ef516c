//! Arrival processes.
//!
//! The LaSS workload generator supports three modes (§6.1): a *static*
//! arrival rate, *discrete changes* at given instants, and *continuous
//! change* after every request — plus replay of per-minute trace counts
//! (the Azure Functions 2019 dataset format, §6.7). All modes produce
//! Poisson arrivals (the paper's modeling assumption) with the requested
//! time-varying intensity.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime, NANOS_PER_SEC};
use std::sync::Arc;

/// A (possibly time-varying) stochastic arrival process.
pub trait ArrivalProcess {
    /// The first arrival strictly after `now`, or `None` when the process
    /// has ended.
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime>;
}

/// Homogeneous Poisson arrivals at a fixed rate (req/s), optionally ending
/// at a horizon.
#[derive(Debug, Clone)]
pub struct StaticPoisson {
    rate: f64,
    end: Option<SimTime>,
}

impl StaticPoisson {
    /// Unbounded process at `rate` requests/second.
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite());
        Self { rate, end: None }
    }

    /// Process at `rate` requests/second until `end`.
    pub fn until(rate: f64, end: SimTime) -> Self {
        assert!(rate >= 0.0 && rate.is_finite());
        Self {
            rate,
            end: Some(end),
        }
    }
}

impl ArrivalProcess for StaticPoisson {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        if self.rate <= 0.0 {
            return None;
        }
        let t = now + SimDuration::from_secs_f64(rng.exp(self.rate));
        match self.end {
            Some(end) if t >= end => None,
            _ => Some(t),
        }
    }
}

/// Piecewise-constant Poisson arrivals: the rate changes at discrete
/// instants and stays constant in between (the paper's "discrete change"
/// generator). Thanks to memorylessness, the sampler simply restarts the
/// exponential draw at each segment boundary it crosses.
///
/// Arrivals only move forward, so the process keeps a cursor on the
/// segment its last draw ended in: a draw reads the rate and the segment
/// end in O(1) and steps the cursor past each boundary it crosses. A
/// `now` before the cursor's segment rewinds it.
#[derive(Debug, Clone)]
pub struct PiecewiseConstantPoisson {
    /// `(segment start, rate)` — must be sorted by start, first at t=0.
    segments: Vec<(SimTime, f64)>,
    end: SimTime,
    /// Index of the segment containing the last instant drawn from.
    cursor: usize,
}

impl PiecewiseConstantPoisson {
    /// Build from `(start, rate)` breakpoints (sorted ascending; the first
    /// breakpoint must be at `t = 0`) and an end horizon.
    pub fn new(segments: Vec<(SimTime, f64)>, end: SimTime) -> Self {
        assert!(!segments.is_empty(), "at least one segment required");
        assert_eq!(
            segments[0].0,
            SimTime::ZERO,
            "first segment must start at 0"
        );
        for w in segments.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "segment starts must be strictly increasing"
            );
        }
        assert!(segments.iter().all(|&(_, r)| r >= 0.0 && r.is_finite()));
        Self {
            segments,
            end,
            cursor: 0,
        }
    }

    /// The rate in force at instant `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let idx = match self.segments.binary_search_by(|&(s, _)| s.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        self.segments[idx].1
    }
}

impl ArrivalProcess for PiecewiseConstantPoisson {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        if now < self.segments[self.cursor].0 {
            self.cursor = 0;
        }
        let mut t = now;
        loop {
            if t >= self.end {
                return None;
            }
            while self
                .segments
                .get(self.cursor + 1)
                .is_some_and(|&(s, _)| s <= t)
            {
                self.cursor += 1;
            }
            let rate = self.segments[self.cursor].1;
            let seg_end = self
                .segments
                .get(self.cursor + 1)
                .map_or(self.end, |&(s, _)| s.min(self.end));
            if rate <= 0.0 {
                t = seg_end;
                continue;
            }
            let cand = t + SimDuration::from_secs_f64(rng.exp(rate));
            if cand < seg_end {
                return if cand >= self.end { None } else { Some(cand) };
            }
            t = seg_end; // memoryless restart at the boundary
        }
    }
}

/// Non-homogeneous Poisson arrivals with an arbitrary rate function,
/// sampled by Lewis–Shedler thinning (the paper's "continuous change"
/// generator, where the rate is adjusted after each request).
pub struct ModulatedPoisson {
    rate_fn: Box<dyn Fn(f64) -> f64 + Send>,
    rate_max: f64,
    end: SimTime,
}

impl std::fmt::Debug for ModulatedPoisson {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModulatedPoisson")
            .field("rate_max", &self.rate_max)
            .field("end", &self.end)
            .finish_non_exhaustive()
    }
}

impl ModulatedPoisson {
    /// `rate_fn(t_secs)` gives the instantaneous rate; `rate_max` must
    /// dominate it everywhere on `[0, end]`.
    pub fn new(rate_fn: impl Fn(f64) -> f64 + Send + 'static, rate_max: f64, end: SimTime) -> Self {
        assert!(rate_max > 0.0 && rate_max.is_finite());
        Self {
            rate_fn: Box::new(rate_fn),
            rate_max,
            end,
        }
    }
}

impl ArrivalProcess for ModulatedPoisson {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let mut t = now;
        loop {
            t += SimDuration::from_secs_f64(rng.exp(self.rate_max));
            if t >= self.end {
                return None;
            }
            let r = (self.rate_fn)(t.as_secs_f64());
            debug_assert!(
                r <= self.rate_max * (1.0 + 1e-9),
                "rate function exceeds its stated bound at t={t}"
            );
            if rng.uniform() < r / self.rate_max {
                return Some(t);
            }
        }
    }
}

/// Replay of per-minute invocation counts (the Azure Functions trace
/// format): within each minute, arrivals are Poisson at `count/60` req/s —
/// the paper's load generator "adjusts the arrival rate each minute" in
/// discrete-change mode when driven by these traces.
#[derive(Debug, Clone)]
pub struct PerMinuteTrace {
    inner: PiecewiseConstantPoisson,
}

impl PerMinuteTrace {
    /// Build from one count per minute.
    pub fn new(per_minute_counts: &[u64]) -> Self {
        assert!(!per_minute_counts.is_empty());
        let segments: Vec<(SimTime, f64)> = per_minute_counts
            .iter()
            .enumerate()
            .map(|(m, &c)| (SimTime::from_secs(m as u64 * 60), c as f64 / 60.0))
            .collect();
        let end = SimTime::from_secs(per_minute_counts.len() as u64 * 60);
        Self {
            inner: PiecewiseConstantPoisson::new(segments, end),
        }
    }

    /// The per-second rate in force at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.inner.rate_at(t)
    }
}

impl ArrivalProcess for PerMinuteTrace {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        self.inner.next_after(now, rng)
    }
}

/// Per-minute trace replay sharing one rate *shape* across many functions.
///
/// Replaying 10⁴–10⁶ distinct functions with a private segment table per
/// function costs O(minutes) memory each; popularity in such traces is
/// Zipf-like, so most functions can share a handful of temporal shapes
/// and differ only in magnitude. The shape — per-second rates for a
/// scale of 1.0, one entry per minute — lives once behind an `Arc`, and
/// each function's process is just `(shared shape, scale)`: a few words
/// of private state regardless of trace length. Arrivals are Poisson at
/// `shape[minute] × scale` within each minute, the same
/// piecewise-constant semantics as [`PerMinuteTrace`].
#[derive(Debug, Clone)]
pub struct ScaledShapeTrace {
    shape: Arc<[f64]>,
    scale: f64,
    end: SimTime,
}

impl ScaledShapeTrace {
    /// Build from a shared per-minute rate shape (req/s at scale 1.0)
    /// and this function's scale factor. The process ends with the
    /// shape's last minute.
    pub fn new(shape: Arc<[f64]>, scale: f64) -> Self {
        assert!(!shape.is_empty(), "shape needs at least one minute");
        assert!(scale >= 0.0 && scale.is_finite(), "invalid scale");
        assert!(shape.iter().all(|&r| r >= 0.0 && r.is_finite()));
        let end = SimTime::from_secs(shape.len() as u64 * 60);
        Self { shape, scale, end }
    }

    /// The per-second rate in force at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let minute = (t.0 / (60 * NANOS_PER_SEC)) as usize;
        self.shape.get(minute).map_or(0.0, |r| r * self.scale)
    }
}

impl ArrivalProcess for ScaledShapeTrace {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        const MINUTE: u64 = 60 * NANOS_PER_SEC;
        let mut t = now;
        loop {
            if t >= self.end {
                return None;
            }
            let minute = t.0 / MINUTE;
            let rate = self.shape[minute as usize] * self.scale;
            let seg_end = SimTime((minute + 1) * MINUTE);
            if rate <= 0.0 {
                t = seg_end;
                continue;
            }
            let cand = t + SimDuration::from_secs_f64(rng.exp(rate));
            if cand < seg_end {
                return if cand >= self.end { None } else { Some(cand) };
            }
            t = seg_end; // memoryless restart at the minute boundary
        }
    }
}

/// Drain a process into a vector of arrival instants (test/analysis helper).
pub fn collect_arrivals(
    p: &mut dyn ArrivalProcess,
    rng: &mut SimRng,
    limit: usize,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    while out.len() < limit {
        match p.next_after(now, rng) {
            Some(t) => {
                now = t;
                out.push(t);
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_poisson_rate_recovers() {
        let mut p = StaticPoisson::new(20.0);
        let mut rng = SimRng::from_seed(1);
        let arr = collect_arrivals(&mut p, &mut rng, 50_000);
        let span = arr.last().unwrap().as_secs_f64();
        let rate = arr.len() as f64 / span;
        assert!((rate - 20.0).abs() < 0.5, "rate={rate}");
    }

    #[test]
    fn static_poisson_interarrivals_are_exponential() {
        let mut p = StaticPoisson::new(10.0);
        let mut rng = SimRng::from_seed(2);
        let arr = collect_arrivals(&mut p, &mut rng, 20_000);
        let gaps: Vec<f64> = arr
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        // CV of an exponential is 1.
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 0.1).abs() < 0.005, "mean={mean}");
        assert!((cv - 1.0).abs() < 0.05, "cv={cv}");
    }

    #[test]
    fn static_poisson_respects_horizon() {
        let mut p = StaticPoisson::until(100.0, SimTime::from_secs(2));
        let mut rng = SimRng::from_seed(3);
        let arr = collect_arrivals(&mut p, &mut rng, usize::MAX);
        assert!(!arr.is_empty());
        assert!(arr.iter().all(|&t| t < SimTime::from_secs(2)));
    }

    #[test]
    fn zero_rate_yields_nothing() {
        let mut p = StaticPoisson::new(0.0);
        let mut rng = SimRng::from_seed(4);
        assert!(p.next_after(SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn piecewise_rates_match_per_segment() {
        // 0-100s at 5/s, 100-200s at 50/s.
        let mut p = PiecewiseConstantPoisson::new(
            vec![(SimTime::ZERO, 5.0), (SimTime::from_secs(100), 50.0)],
            SimTime::from_secs(200),
        );
        let mut rng = SimRng::from_seed(5);
        let arr = collect_arrivals(&mut p, &mut rng, usize::MAX);
        let in_first = arr.iter().filter(|&&t| t < SimTime::from_secs(100)).count();
        let in_second = arr.len() - in_first;
        assert!(
            (in_first as f64 - 500.0).abs() < 90.0,
            "first segment count {in_first}"
        );
        assert!(
            (in_second as f64 - 5000.0).abs() < 300.0,
            "second segment count {in_second}"
        );
    }

    #[test]
    fn piecewise_skips_zero_rate_segment() {
        let mut p = PiecewiseConstantPoisson::new(
            vec![
                (SimTime::ZERO, 10.0),
                (SimTime::from_secs(10), 0.0),
                (SimTime::from_secs(20), 10.0),
            ],
            SimTime::from_secs(30),
        );
        let mut rng = SimRng::from_seed(6);
        let arr = collect_arrivals(&mut p, &mut rng, usize::MAX);
        assert!(arr
            .iter()
            .all(|&t| t < SimTime::from_secs(10) || t >= SimTime::from_secs(20)));
        assert!(arr.len() > 100);
    }

    #[test]
    fn piecewise_rate_at_boundaries() {
        let p = PiecewiseConstantPoisson::new(
            vec![(SimTime::ZERO, 1.0), (SimTime::from_secs(60), 2.0)],
            SimTime::from_secs(120),
        );
        assert_eq!(p.rate_at(SimTime::ZERO), 1.0);
        assert_eq!(p.rate_at(SimTime::from_secs(59)), 1.0);
        assert_eq!(p.rate_at(SimTime::from_secs(60)), 2.0);
        assert_eq!(p.rate_at(SimTime::from_secs(100)), 2.0);
    }

    #[test]
    fn modulated_ramp_has_increasing_density() {
        // Rate ramps 0 -> 100 over 100 s.
        let mut p = ModulatedPoisson::new(|t| t, 100.0, SimTime::from_secs(100));
        let mut rng = SimRng::from_seed(7);
        let arr = collect_arrivals(&mut p, &mut rng, usize::MAX);
        let first_half = arr.iter().filter(|&&t| t < SimTime::from_secs(50)).count();
        let second_half = arr.len() - first_half;
        // Integral of rate: 1250 vs 3750 -> 3x more in the second half.
        let ratio = second_half as f64 / first_half as f64;
        assert!((ratio - 3.0).abs() < 0.5, "ratio={ratio}");
    }

    #[test]
    fn per_minute_trace_counts_roughly_replay() {
        let counts = vec![600u64, 0, 1200];
        let mut p = PerMinuteTrace::new(&counts);
        let mut rng = SimRng::from_seed(8);
        let arr = collect_arrivals(&mut p, &mut rng, usize::MAX);
        let m0 = arr.iter().filter(|&&t| t < SimTime::from_secs(60)).count();
        let m1 = arr
            .iter()
            .filter(|&&t| t >= SimTime::from_secs(60) && t < SimTime::from_secs(120))
            .count();
        let m2 = arr.len() - m0 - m1;
        assert!((m0 as f64 - 600.0).abs() < 100.0, "m0={m0}");
        assert_eq!(m1, 0);
        assert!((m2 as f64 - 1200.0).abs() < 140.0, "m2={m2}");
        assert_eq!(p.rate_at(SimTime::from_secs(61)), 0.0);
    }

    #[test]
    fn scaled_shape_shares_one_table() {
        // Two functions, same shape, 10x apart in scale.
        let shape: Arc<[f64]> = Arc::from(vec![10.0, 0.0, 5.0].into_boxed_slice());
        let mut small = ScaledShapeTrace::new(shape.clone(), 0.1);
        let mut big = ScaledShapeTrace::new(shape, 1.0);
        assert_eq!(small.rate_at(SimTime::ZERO), 1.0);
        assert_eq!(big.rate_at(SimTime::from_secs(61)), 0.0);
        assert_eq!(big.rate_at(SimTime::from_secs(121)), 5.0);
        assert_eq!(big.rate_at(SimTime::from_secs(300)), 0.0);

        let mut rng = SimRng::from_seed(9);
        let arr_b = collect_arrivals(&mut big, &mut rng, usize::MAX);
        let mut rng = SimRng::from_seed(9);
        let arr_s = collect_arrivals(&mut small, &mut rng, usize::MAX);
        // Minute 1 has rate zero for both; everything ends at minute 3.
        for arr in [&arr_b, &arr_s] {
            assert!(arr
                .iter()
                .all(|&t| t < SimTime::from_secs(60) || t >= SimTime::from_secs(120)));
            assert!(arr.iter().all(|&t| t < SimTime::from_secs(180)));
        }
        // 10 req/s for 60 s + 5 req/s for 60 s ≈ 900 arrivals at scale 1.
        assert!(
            (arr_b.len() as f64 - 900.0).abs() < 120.0,
            "{}",
            arr_b.len()
        );
        assert!((arr_s.len() as f64 - 90.0).abs() < 40.0, "{}", arr_s.len());
    }

    #[test]
    #[should_panic(expected = "first segment must start at 0")]
    fn piecewise_requires_zero_start() {
        PiecewiseConstantPoisson::new(vec![(SimTime::from_secs(5), 1.0)], SimTime::from_secs(10));
    }
}
