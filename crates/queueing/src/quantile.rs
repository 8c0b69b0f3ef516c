//! Quantile estimation utilities.
//!
//! The online service-time learner (§5: "use an online learning algorithm
//! to learn the service time distribution(s) over time") and the trace
//! replay's per-function statistics need streaming quantiles in bounded
//! memory: [`LatencySketch`] is a log-bucketed sketch after DDSketch with
//! relative accuracy α = 2 %, a 160-bucket window, and a zero count for
//! samples at or below a 1 ns floor. Exact percentiles over stored
//! samples are also provided for the evaluation harnesses (which report
//! P95 waiting times).

use serde::{Deserialize, Map, Serialize, Value};

/// Exact percentile of a **sorted** slice with linear interpolation
/// (the "exclusive" variant used by most plotting tools). `p ∈ [0, 1]`.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// A growable sample set with exact percentile queries. Sorting is deferred
/// and cached between queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExactPercentiles {
    samples: Vec<f64>,
    #[serde(skip)]
    sorted: bool,
}

impl ExactPercentiles {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Exact percentile (`p ∈ [0,1]`); `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        Some(percentile_of_sorted(&self.samples, p))
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Maximum sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A streaming, relative-error quantile sketch for latencies: log-spaced
/// buckets after DDSketch (Masson, Rim and Lee, VLDB 2019).
///
/// A sample `x` above [`Self::FLOOR`] lands in bucket `⌈log_γ x⌉`, with
/// `γ = (1 + α) / (1 − α)` and `α =` [`Self::ALPHA`]; a sample at or
/// below the floor (the common zero wait) is counted apart. Bucket `i`
/// covers `(γ^(i−1), γ^i]` and reports `2γ^i / (γ + 1)`, which is within
/// `±α` (relative) of every sample in it.
///
/// The counts live in a window of [`Self::BUCKETS`] `u32` buckets,
/// allocated on the first record and anchored at the largest bucket
/// seen; a sample below the window folds into its lowest bucket. With
/// `α = 0.02` the window spans `γ^160 ≈ 600×`, so quantiles are
/// `α`-accurate for samples above about 1/600 of the largest one. The
/// state depends only on the multiset of samples, never on their order.
///
/// Memory is 32 bytes until the first record and 680 bytes after it; an
/// update is one `ln` and one increment.
#[derive(Debug, Clone)]
pub struct LatencySketch {
    count: usize,
    min: f64,
    max: f64,
    store: Option<Box<Store>>,
}

/// The counts of a sketch that has seen a sample.
#[derive(Debug, Clone)]
struct Store {
    /// `counts[k]` counts bucket `top + 1 − BUCKETS + k`.
    counts: [u32; LatencySketch::BUCKETS],
    /// Samples at or below the floor.
    zero: u32,
    /// The window's highest bucket: the largest bucket seen, or
    /// `i32::MIN` before the first sample above the floor.
    top: i32,
}

/// `γ = (1 + α) / (1 − α)`, the ratio between adjacent bucket bounds.
const GAMMA: f64 = (1.0 + LatencySketch::ALPHA) / (1.0 - LatencySketch::ALPHA);

impl Store {
    fn new() -> Box<Self> {
        Box::new(Self {
            counts: [0; LatencySketch::BUCKETS],
            zero: 0,
            top: i32::MIN,
        })
    }

    /// Index of the window's lowest bucket.
    fn bottom(&self) -> i64 {
        i64::from(self.top) + 1 - LatencySketch::BUCKETS as i64
    }

    fn add(&mut self, bucket: i32) {
        if bucket > self.top {
            self.raise_top(bucket);
        }
        let k = (i64::from(bucket) - self.bottom()).max(0) as usize;
        self.counts[k] += 1;
    }

    /// Slide the window up so that `top` is its highest bucket, folding
    /// the buckets that drop out of it into its new lowest one.
    #[cold]
    fn raise_top(&mut self, top: i32) {
        let last = LatencySketch::BUCKETS - 1;
        let shift = (i64::from(top) - i64::from(self.top)).min(last as i64) as usize;
        let folded: u32 = self.counts[..=shift].iter().sum();
        self.counts.copy_within(shift + 1.., 1);
        self.counts[last + 1 - shift..].fill(0);
        self.counts[0] = folded;
        self.top = top;
    }
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    /// Relative accuracy `α` of every reported quantile.
    pub const ALPHA: f64 = 0.02;
    /// Buckets in the window.
    pub const BUCKETS: usize = 160;
    /// Samples at or below this value (one nanosecond, for latencies in
    /// seconds) are counted as zero.
    pub const FLOOR: f64 = 1e-9;

    /// An empty sketch. Nothing is allocated until the first record, so
    /// the many instruments a Zipf-popularity trace leaves cold stay
    /// 32 bytes each.
    pub fn new() -> Self {
        Self {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            store: None,
        }
    }

    /// Fold in one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample");
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let store = self.store.get_or_insert_with(Store::new);
        if x <= Self::FLOOR {
            store.zero += 1;
        } else {
            store.add((x.ln() / GAMMA.ln()).ceil() as i32);
        }
    }

    /// Number of samples folded in.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimate of the `p`-quantile (`p ∈ [0, 1]`; `None` when empty):
    /// the representative value of the bucket holding the sample of rank
    /// `⌊p·(n − 1)⌋`, clamped to `[min, max]`. `p = 0` and `p = 1` return
    /// the exact min and max.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1]");
        let store = self.store.as_ref()?;
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 1.0 {
            return Some(self.max);
        }
        let rank = (p * (self.count - 1) as f64).floor() as u64;
        let mut seen = u64::from(store.zero);
        let est = if rank < seen {
            0.0
        } else {
            let k = store
                .counts
                .iter()
                .position(|&c| {
                    seen += u64::from(c);
                    rank < seen
                })
                .expect("the counts sum to the sample count");
            let bucket = (store.bottom() + k as i64) as f64;
            2.0 * (bucket * GAMMA.ln()).exp() / (GAMMA + 1.0)
        };
        Some(est.clamp(self.min, self.max))
    }
}

/// The sketch's whole state: the sample count, the exact extremes, the
/// zero count and each non-empty bucket as `[index, count]` in index
/// order.
impl Serialize for LatencySketch {
    fn serialize(&self) -> Value {
        let mut m = Map::new();
        m.insert("count".to_string(), self.count.serialize());
        m.insert("min".to_string(), self.min().serialize());
        m.insert("max".to_string(), self.max().serialize());
        let (zero, buckets) = match &self.store {
            None => (0, Vec::new()),
            Some(s) => {
                let buckets: Vec<(i64, u32)> = (s.bottom()..)
                    .zip(s.counts)
                    .filter(|&(_, c)| c > 0)
                    .collect();
                (s.zero, buckets)
            }
        };
        m.insert("zero".to_string(), zero.serialize());
        m.insert("buckets".to_string(), buckets.serialize());
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_distr::{Distribution, Exp, Normal};

    #[test]
    fn exact_percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_of_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_of_sorted(&v, 1.0), 5.0);
        assert_eq!(percentile_of_sorted(&v, 0.5), 3.0);
        assert!((percentile_of_sorted(&v, 0.25) - 2.0).abs() < 1e-12);
        assert!((percentile_of_sorted(&v, 0.1) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn exact_percentile_singleton() {
        assert_eq!(percentile_of_sorted(&[42.0], 0.95), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn exact_percentile_rejects_empty() {
        percentile_of_sorted(&[], 0.5);
    }

    #[test]
    fn exact_percentiles_collection() {
        let mut ep = ExactPercentiles::new();
        assert!(ep.percentile(0.5).is_none());
        assert!(ep.mean().is_none());
        for i in (1..=100).rev() {
            ep.add(f64::from(i));
        }
        assert_eq!(ep.len(), 100);
        assert!((ep.percentile(0.5).unwrap() - 50.5).abs() < 1e-9);
        assert!((ep.mean().unwrap() - 50.5).abs() < 1e-9);
        assert_eq!(ep.max().unwrap(), 100.0);
        // Adding after a query invalidates the cache correctly.
        ep.add(1000.0);
        assert_eq!(ep.percentile(1.0).unwrap(), 1000.0);
    }

    /// Every sketch estimate in these tests must sit within `α` of the
    /// exact sample at its rank.
    fn assert_within_alpha(est: f64, exact: f64) {
        let a = LatencySketch::ALPHA;
        assert!(
            exact * (1.0 - a) <= est && est <= exact * (1.0 + a),
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn sketch_counts_zero_and_sub_floor_samples_and_single_samples() {
        let mut s = LatencySketch::new();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        // n = 1: every quantile is the sample itself (clamped).
        s.record(0.25);
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(p), Some(0.25));
        }
        // Exact zeros and sub-floor samples go to the zero count and
        // report as the minimum, never as `ln(0)`'s saturated bucket.
        let mut z = LatencySketch::new();
        z.record(0.0);
        assert_eq!(z.quantile(0.5), Some(0.0));
        for _ in 0..9 {
            z.record(0.0);
        }
        z.record(LatencySketch::FLOOR / 2.0);
        z.record(LatencySketch::FLOOR);
        z.record(0.1);
        assert_eq!(z.count(), 13);
        assert_eq!(z.quantile(0.5), Some(0.0));
        assert_eq!(z.quantile(0.9), Some(0.0));
        assert_eq!(z.quantile(1.0), Some(0.1));
        let v = z.serialize();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("zero").and_then(|c| c.as_f64()), Some(12.0));
        // Only sub-floor samples: the estimate clamps to the true min.
        let mut t = LatencySketch::new();
        t.record(1e-12);
        t.record(2e-12);
        assert_eq!(t.quantile(0.5), Some(1e-12));
    }

    #[test]
    fn sketch_median_of_uniform_stream() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = LatencySketch::new();
        for _ in 0..50_000 {
            q.record(rng.gen::<f64>());
        }
        let est = q.quantile(0.5).unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn sketch_p99_of_exponential_stream() {
        let mut rng = StdRng::seed_from_u64(11);
        let exp = Exp::new(10.0).unwrap(); // mean 0.1, p99 = ln(100)/10 ≈ 0.4605
        let mut q = LatencySketch::new();
        for _ in 0..200_000 {
            q.record(exp.sample(&mut rng));
        }
        let est = q.quantile(0.99).unwrap();
        let truth = (100.0f64).ln() / 10.0;
        assert!(
            (est - truth).abs() / truth < 0.05,
            "p99 estimate {est} vs {truth}"
        );
    }

    #[test]
    fn sketch_p95_of_normal_stream() {
        let mut rng = StdRng::seed_from_u64(13);
        let nd = Normal::new(100.0, 15.0).unwrap();
        let mut q = LatencySketch::new();
        for _ in 0..100_000 {
            q.record(nd.sample(&mut rng));
        }
        let est = q.quantile(0.95).unwrap();
        let truth = 100.0 + 1.6449 * 15.0;
        assert!(
            (est - truth).abs() / truth < 0.03,
            "p95 estimate {est} vs {truth}"
        );
    }

    #[test]
    fn sketch_matches_exact_on_same_stream() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut sketch = LatencySketch::new();
        let mut exact = ExactPercentiles::new();
        for _ in 0..20_000 {
            let x = 0.01 + rng.gen::<f64>() * rng.gen::<f64>(); // triangular-ish
            sketch.record(x);
            exact.add(x);
        }
        let n = exact.len();
        for p in [0.5, 0.9, 0.95, 0.99] {
            let rank = (p * (n - 1) as f64).floor() as usize;
            let at_rank = exact.percentile(rank as f64 / (n - 1) as f64).unwrap();
            assert_within_alpha(sketch.quantile(p).unwrap(), at_rank);
        }
    }

    #[test]
    fn sketch_window_follows_the_largest_sample() {
        let mut s = LatencySketch::new();
        for _ in 0..99 {
            s.record(1e-3);
        }
        assert_within_alpha(s.quantile(0.5).unwrap(), 1e-3);
        // A sample 10⁶× larger moves the window past 1e-3: the small
        // samples fold into its lowest bucket, one window span below
        // the big one.
        s.record(1e3);
        let low = s.quantile(0.5).unwrap();
        let span = GAMMA.powi(LatencySketch::BUCKETS as i32);
        assert!(
            1e3 / span <= low && low <= 1e3 / span * GAMMA * GAMMA,
            "folded estimate {low}"
        );
        assert_eq!(s.quantile(1.0), Some(1e3));
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn sketch_rejects_out_of_range_quantile() {
        let mut s = LatencySketch::new();
        s.record(1.0);
        s.quantile(1.5);
    }
}
