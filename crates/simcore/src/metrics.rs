//! Measurement instruments for simulations.
//!
//! * [`SampleStats`] — per-function latency statistics, in one of two
//!   representations: **exact** (every sample retained; arbitrary
//!   percentiles, byte-stable serialization — the default, used by the
//!   figure-repro simulations and all fixed-seed goldens) or
//!   **streaming** (O(1) memory per instrument: the mean plus a
//!   [`LatencySketch`] — log-bucketed, relative accuracy α = 2 %,
//!   samples at or below 1 ns counted as zero — that answers
//!   p50/p95/p99 and keeps the exact min/max; used by trace replay at
//!   10⁴–10⁶ distinct functions, where retaining samples would grow
//!   without bound). An instrument is 48 bytes; one that has seen only
//!   zeros allocates nothing, one with at most 8 distinct buckets a
//!   64-byte block, and any other a 644-byte window of 160 `u32`
//!   buckets.
//! * [`TimeWeightedGauge`] — integrates a piecewise-constant value over
//!   simulated time (container counts, allocated CPU, utilization).
//! * [`TimeSeries`] — timestamped observations for plotting allocation
//!   timelines (Figs. 6, 8, 9).

use crate::time::SimTime;
use lass_queueing::LatencySketch;
use serde::{Deserialize, Error, Map, Serialize, Value};

#[derive(Debug, Clone)]
enum Repr {
    Exact { samples: Vec<f64>, sorted: bool },
    Streaming { sum: f64, sketch: LatencySketch },
}

/// Sample statistics: exact (retained samples) or streaming (bounded).
#[derive(Debug, Clone)]
pub struct SampleStats {
    repr: Repr,
}

impl Default for SampleStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SampleStats {
    /// Empty exact instrument: every sample retained, percentiles exact,
    /// serialization byte-stable (`{"samples": [...]}`).
    pub fn new() -> Self {
        Self {
            repr: Repr::Exact {
                samples: Vec::new(),
                sorted: false,
            },
        }
    }

    /// Empty streaming instrument: O(1) memory; the mean, the exact
    /// min/max and sketched percentiles. [`Self::samples`] returns `&[]` and
    /// [`Self::fraction_within`] `None` — callers that need raw samples
    /// must use the exact representation.
    pub fn streaming() -> Self {
        Self {
            repr: Repr::Streaming {
                sum: 0.0,
                sketch: LatencySketch::new(),
            },
        }
    }

    /// Whether this instrument streams (no retained samples).
    pub fn is_streaming(&self) -> bool {
        matches!(self.repr, Repr::Streaming { .. })
    }

    /// Number of samples retained in memory (0 when streaming) — the
    /// memory-regression probe.
    pub fn retained(&self) -> usize {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.len(),
            Repr::Streaming { .. } => 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        match &mut self.repr {
            Repr::Exact { samples, sorted } => {
                samples.push(x);
                *sorted = false;
            }
            Repr::Streaming { sum, sketch } => {
                *sum += x;
                sketch.record(x);
            }
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.len(),
            Repr::Streaming { sketch, .. } => sketch.count(),
        }
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sample mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        match &self.repr {
            Repr::Exact { samples, .. } => {
                if samples.is_empty() {
                    None
                } else {
                    Some(samples.iter().sum::<f64>() / samples.len() as f64)
                }
            }
            Repr::Streaming { sum, sketch } => {
                let n = sketch.count();
                (n > 0).then(|| sum / n as f64)
            }
        }
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.iter().copied().reduce(f64::max),
            Repr::Streaming { sketch, .. } => sketch.max(),
        }
    }

    /// Percentile, `p ∈ [0, 1]`: exact (linear interpolation) for the
    /// exact representation; for streaming, the sketch's estimate
    /// (within 2 % of the sample at rank `⌊p·(n − 1)⌋`), with `p = 0` /
    /// `p = 1` served from the tracked min/max.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p));
        match &mut self.repr {
            Repr::Exact { samples, sorted } => {
                if samples.is_empty() {
                    return None;
                }
                if !*sorted {
                    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                    *sorted = true;
                }
                let s = &samples[..];
                if s.len() == 1 {
                    return Some(s[0]);
                }
                let rank = p * (s.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                Some(if lo == hi {
                    s[lo]
                } else {
                    let w = rank - lo as f64;
                    s[lo] * (1.0 - w) + s[hi] * w
                })
            }
            Repr::Streaming { sketch, .. } => sketch.quantile(p),
        }
    }

    /// Fraction of samples `≤ bound` (`None` when empty **or
    /// streaming** — the streaming representation keeps no sample set to
    /// count over).
    pub fn fraction_within(&self, bound: f64) -> Option<f64> {
        match &self.repr {
            Repr::Exact { samples, .. } => {
                if samples.is_empty() {
                    return None;
                }
                let n = samples.iter().filter(|&&x| x <= bound).count();
                Some(n as f64 / samples.len() as f64)
            }
            Repr::Streaming { .. } => None,
        }
    }

    /// Raw samples (insertion or sorted order, unspecified); empty when
    /// streaming.
    pub fn samples(&self) -> &[f64] {
        match &self.repr {
            Repr::Exact { samples, .. } => samples,
            Repr::Streaming { .. } => &[],
        }
    }
}

// Hand-written (de)serialization: the exact representation must keep the
// `{"samples": [...]}` shape the previous derive emitted — every
// fixed-seed golden hashes the serialized report bytes. Streaming
// serializes its summary (the sketch is not round-trippable).
impl Serialize for SampleStats {
    fn serialize(&self) -> Value {
        match &self.repr {
            Repr::Exact { samples, .. } => {
                let mut m = Map::new();
                m.insert("samples".to_string(), samples.serialize());
                Value::Object(m)
            }
            Repr::Streaming { sum, sketch } => {
                let n = sketch.count();
                let mut m = Map::new();
                m.insert("count".to_string(), n.serialize());
                m.insert("max".to_string(), sketch.max().serialize());
                m.insert(
                    "mean".to_string(),
                    (n > 0).then(|| sum / n as f64).serialize(),
                );
                m.insert("min".to_string(), sketch.min().serialize());
                for (k, p) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                    m.insert(k.to_string(), sketch.quantile(p).serialize());
                }
                Value::Object(m)
            }
        }
    }
}

impl Deserialize for SampleStats {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let m = v
            .as_object()
            .ok_or_else(|| Error::custom("SampleStats: expected object"))?;
        match m.get("samples") {
            Some(s) => Ok(Self {
                repr: Repr::Exact {
                    samples: Vec::<f64>::deserialize(s)?,
                    sorted: false,
                },
            }),
            None => Err(Error::custom(
                "SampleStats: streaming summaries are not round-trippable",
            )),
        }
    }
}

/// Integrates a piecewise-constant value over simulated time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeightedGauge {
    start: SimTime,
    last_t: SimTime,
    value: f64,
    integral: f64,
}

impl TimeWeightedGauge {
    /// Gauge starting at `t0` with initial `value`.
    pub fn new(t0: SimTime, value: f64) -> Self {
        Self {
            start: t0,
            last_t: t0,
            value,
            integral: 0.0,
        }
    }

    /// Set the gauge to `value` at time `t` (accumulates the previous value
    /// over `[last, t)`).
    pub fn set(&mut self, t: SimTime, value: f64) {
        debug_assert!(t >= self.last_t, "gauge updated out of order");
        self.integral += self.value * (t.saturating_since(self.last_t)).as_secs_f64();
        self.last_t = t;
        self.value = value;
    }

    /// Current (instantaneous) value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Time-weighted average over `[t0, t]`.
    pub fn average_until(&self, t: SimTime) -> f64 {
        let span = t.saturating_since(self.start).as_secs_f64();
        if span <= 0.0 {
            return self.value;
        }
        let total = self.integral + self.value * t.saturating_since(self.last_t).as_secs_f64();
        total / span
    }

    /// The raw integral `∫ value dt` over `[t0, t]`.
    pub fn integral_until(&self, t: SimTime) -> f64 {
        self.integral + self.value * t.saturating_since(self.last_t).as_secs_f64()
    }
}

/// Accumulates the total time a component spends unavailable.
///
/// Chaos layers flip a site between reachable and unreachable many times
/// over a run (crashes, recoveries, partitions); this instrument sums the
/// closed down-intervals and lets an open interval be closed at the
/// report boundary. Idempotent: repeated `mark_down`/`mark_up` calls in
/// the same state are no-ops, so overlapping fault processes (a crash
/// during a partition, say) can share one clock.
#[derive(Debug, Clone, Default)]
pub struct DowntimeClock {
    total_secs: f64,
    down_since: Option<SimTime>,
}

impl DowntimeClock {
    /// A clock that has never been down.
    pub fn new() -> Self {
        Self::default()
    }

    /// The component became unavailable at `t` (no-op if already down).
    pub fn mark_down(&mut self, t: SimTime) {
        if self.down_since.is_none() {
            self.down_since = Some(t);
        }
    }

    /// The component became available at `t` (no-op if already up).
    pub fn mark_up(&mut self, t: SimTime) {
        if let Some(since) = self.down_since.take() {
            self.total_secs += t.saturating_since(since).as_secs_f64();
        }
    }

    /// Whether the clock is currently in a down interval.
    pub fn is_down(&self) -> bool {
        self.down_since.is_some()
    }

    /// Total downtime in seconds up to `t`, closing any open interval at
    /// `t` for the measurement (without mutating the clock).
    pub fn total_until(&self, t: SimTime) -> f64 {
        match self.down_since {
            Some(since) => self.total_secs + t.saturating_since(since).as_secs_f64(),
            None => self.total_secs,
        }
    }
}

/// A timestamped series of observations, for timeline plots.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `(t, value)`.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.points.push((t.as_secs_f64(), value));
    }

    /// All `(seconds, value)` points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }

    /// Mean of the values between `t0` and `t1` (unweighted across points).
    pub fn mean_between(&self, t0: f64, t1: f64) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| *t >= t0 && *t < t1)
            .map(|(_, v)| *v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stats_basics() {
        let mut s = SampleStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.percentile(0.5), None);
        for i in 1..=100 {
            s.record(f64::from(i));
        }
        assert_eq!(s.count(), 100);
        assert!((s.mean().unwrap() - 50.5).abs() < 1e-9);
        assert_eq!(s.max().unwrap(), 100.0);
        assert!((s.percentile(0.95).unwrap() - 95.05).abs() < 0.1);
        assert!((s.fraction_within(50.0).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sample_stats_resorts_after_new_samples() {
        let mut s = SampleStats::new();
        s.record(5.0);
        assert_eq!(s.percentile(1.0), Some(5.0));
        s.record(10.0);
        assert_eq!(s.percentile(1.0), Some(10.0));
    }

    #[test]
    fn streaming_stats_bounded_memory_close_estimates() {
        let mut s = SampleStats::streaming();
        assert!(s.is_streaming());
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.95), None);
        for i in 1..=10_000 {
            s.record(f64::from(i));
        }
        // No retained samples, ever.
        assert_eq!(s.retained(), 0);
        assert!(s.samples().is_empty());
        assert_eq!(s.count(), 10_000);
        assert!((s.mean().unwrap() - 5000.5).abs() < 1e-9);
        assert_eq!(s.max(), Some(10_000.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(1.0), Some(10_000.0));
        // Sketched estimates land within 2 % of the exact quantiles.
        for p in [0.5, 0.95, 0.99] {
            let exact = (p * 9_999.0f64).floor() + 1.0;
            let est = s.percentile(p).unwrap();
            assert!(
                (est - exact).abs() <= 0.02 * exact,
                "p{p}: {est} vs {exact}"
            );
        }
        // No sample set to count over.
        assert_eq!(s.fraction_within(5000.0), None);
    }

    /// Trace replay keeps three instruments per function per site and
    /// in the aggregate: the streaming form must not make them larger
    /// than the exact one.
    #[test]
    fn sample_stats_stay_48_bytes() {
        assert!(std::mem::size_of::<SampleStats>() <= 48);
        assert!(std::mem::size_of::<LatencySketch>() <= 40);
    }

    #[test]
    fn exact_serialization_shape_is_stable_and_round_trips() {
        use serde::{Deserialize as _, Serialize as _};
        let mut s = SampleStats::new();
        s.record(1.5);
        s.record(0.25);
        // The golden-pinned byte shape.
        assert_eq!(
            serde_json::to_string(&s.serialize()).unwrap(),
            r#"{"samples":[1.5,0.25]}"#
        );
        let back = SampleStats::deserialize(&s.serialize()).unwrap();
        assert_eq!(back.samples(), s.samples());

        let mut t = SampleStats::streaming();
        t.record(2.0);
        let v = t.serialize();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("count").and_then(|c| c.as_f64()), Some(1.0));
        assert_eq!(obj.get("mean").and_then(|c| c.as_f64()), Some(2.0));
        // Streaming summaries don't round-trip.
        assert!(SampleStats::deserialize(&v).is_err());
    }

    #[test]
    fn gauge_integrates_steps() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 2.0);
        g.set(SimTime::from_secs(10), 4.0); // 2.0 for 10s = 20
        g.set(SimTime::from_secs(20), 0.0); // 4.0 for 10s = 40
        let avg = g.average_until(SimTime::from_secs(40)); // 0.0 for 20s
        assert!((avg - 60.0 / 40.0).abs() < 1e-12, "avg={avg}");
        assert!((g.integral_until(SimTime::from_secs(40)) - 60.0).abs() < 1e-12);
        assert_eq!(g.current(), 0.0);
    }

    #[test]
    fn gauge_average_at_start_is_value() {
        let g = TimeWeightedGauge::new(SimTime::from_secs(5), 7.0);
        assert_eq!(g.average_until(SimTime::from_secs(5)), 7.0);
    }

    #[test]
    fn downtime_clock_accumulates_and_is_idempotent() {
        let mut c = DowntimeClock::new();
        assert!(!c.is_down());
        assert_eq!(c.total_until(SimTime::from_secs(100)), 0.0);
        c.mark_down(SimTime::from_secs(10));
        c.mark_down(SimTime::from_secs(12)); // no-op: already down
        assert!(c.is_down());
        // Open interval measured without closing it.
        assert!((c.total_until(SimTime::from_secs(15)) - 5.0).abs() < 1e-12);
        c.mark_up(SimTime::from_secs(20));
        c.mark_up(SimTime::from_secs(25)); // no-op: already up
        assert!(!c.is_down());
        assert!((c.total_until(SimTime::from_secs(100)) - 10.0).abs() < 1e-12);
        c.mark_down(SimTime::from_secs(90));
        assert!((c.total_until(SimTime::from_secs(100)) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn timeseries_push_and_query() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(SimTime::from_secs(1), 10.0);
        ts.push(SimTime::from_secs(2), 20.0);
        ts.push(SimTime::from_secs(3), 30.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.last(), Some((3.0, 30.0)));
        assert_eq!(ts.mean_between(1.5, 3.5), Some(25.0));
        assert_eq!(ts.mean_between(10.0, 20.0), None);
    }
}
