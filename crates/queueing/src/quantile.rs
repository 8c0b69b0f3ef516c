//! Quantile estimation utilities.
//!
//! The online service-time learner (§5: "use an online learning algorithm
//! to learn the service time distribution(s) over time") and the trace
//! replay's per-function statistics need streaming quantiles in bounded
//! memory: [`LatencySketch`] is a log-bucketed sketch after DDSketch with
//! relative accuracy α = 2 %, a 160-bucket window (sorted pairs while at
//! most 8 buckets are in use), and an implicit zero count for samples at
//! or below a 1 ns floor. Exact percentiles over stored
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
/// The counts live in a window of [`Self::BUCKETS`] buckets anchored at
/// the largest bucket seen; a sample below the window folds into its
/// lowest bucket. With `α = 0.02` the window spans `γ^160 ≈ 600×`, so
/// quantiles are `α`-accurate for samples above about 1/600 of the
/// largest one. The state depends only on the multiset of samples,
/// never on their order.
///
/// The zero count is implicit (the sample count minus the bucket
/// total), so a sketch that has seen only zeros allocates nothing. The
/// first 8 distinct buckets are kept as sorted
/// `(bucket, count)` pairs in one 64-byte block; the next distinct
/// bucket moves them into the dense window of `u32` counts (644 bytes).
/// Reads fold sparse pairs below the window exactly as the dense window
/// does, so either form answers every query alike. The sketch itself is
/// 40 bytes; an update is one `ln` and one increment, after a scan of
/// at most 8 pairs while the store is sparse.
#[derive(Debug, Clone)]
pub struct LatencySketch {
    count: usize,
    min: f64,
    max: f64,
    store: Store,
}

/// The bucket counts of a sketch: none until a sample lands above the
/// floor, a few sorted pairs while few buckets are in use, then the
/// dense window.
#[derive(Debug, Clone)]
enum Store {
    Empty,
    /// The non-empty buckets as `(bucket, count)` in bucket order; the
    /// unused tail has count 0. Buckets are kept unfolded, so which
    /// buckets are distinct — and thus when the store goes dense —
    /// does not depend on the order of the samples.
    Sparse(Box<[(i32, u32); LatencySketch::SPARSE]>),
    Dense(Box<Dense>),
}

/// The dense window of bucket counts.
#[derive(Debug, Clone)]
struct Dense {
    /// `counts[k]` counts bucket `top + 1 − BUCKETS + k`.
    counts: [u32; LatencySketch::BUCKETS],
    /// The window's highest bucket: the largest bucket seen.
    top: i32,
}

/// `γ = (1 + α) / (1 − α)`, the ratio between adjacent bucket bounds.
const GAMMA: f64 = (1.0 + LatencySketch::ALPHA) / (1.0 - LatencySketch::ALPHA);

/// Index of the lowest bucket of the window whose highest is `top`.
fn bottom_of(top: i32) -> i64 {
    i64::from(top) + 1 - LatencySketch::BUCKETS as i64
}

impl Dense {
    /// A window over full sparse `pairs`, with one more sample in
    /// `bucket`.
    #[cold]
    fn promote(pairs: &[(i32, u32)], bucket: i32) -> Box<Self> {
        let mut dense = Box::new(Self {
            counts: [0; LatencySketch::BUCKETS],
            top: pairs[pairs.len() - 1].0,
        });
        for &(b, n) in pairs {
            dense.add(b, n);
        }
        dense.add(bucket, 1);
        dense
    }

    fn add(&mut self, bucket: i32, n: u32) {
        if bucket > self.top {
            self.raise_top(bucket);
        }
        let k = (i64::from(bucket) - bottom_of(self.top)).max(0) as usize;
        self.counts[k] += n;
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

impl Store {
    fn add(&mut self, bucket: i32) {
        match self {
            Store::Dense(dense) => dense.add(bucket, 1),
            Store::Sparse(pairs) => {
                if !add_sparse(pairs, bucket) {
                    *self = Store::Dense(Dense::promote(&pairs[..], bucket));
                }
            }
            Store::Empty => {
                let mut pairs = Box::new([(0, 0); LatencySketch::SPARSE]);
                pairs[0] = (bucket, 1);
                *self = Store::Sparse(pairs);
            }
        }
    }

    /// Each non-empty bucket as `(index, count)` in index order, the
    /// buckets below the window folded into its lowest one.
    fn buckets(&self) -> Vec<(i64, u32)> {
        match self {
            Store::Empty => Vec::new(),
            Store::Dense(dense) => (bottom_of(dense.top)..)
                .zip(dense.counts)
                .filter(|&(_, n)| n > 0)
                .collect(),
            Store::Sparse(pairs) => {
                let used = pairs.iter().take_while(|&&(_, n)| n > 0).count();
                let bottom = bottom_of(pairs[used - 1].0);
                let mut out: Vec<(i64, u32)> = Vec::with_capacity(used);
                for &(bucket, n) in &pairs[..used] {
                    let bucket = i64::from(bucket).max(bottom);
                    match out.last_mut() {
                        Some((last, total)) if *last == bucket => *total += n,
                        _ => out.push((bucket, n)),
                    }
                }
                out
            }
        }
    }
}

/// Count one sample in `bucket` among the sorted `pairs`; `false` when
/// that would need one pair more than they hold.
fn add_sparse(pairs: &mut [(i32, u32); LatencySketch::SPARSE], bucket: i32) -> bool {
    const LAST: usize = LatencySketch::SPARSE - 1;
    for i in 0..=LAST {
        let (b, n) = pairs[i];
        if n == 0 {
            pairs[i] = (bucket, 1);
            return true;
        }
        if b == bucket {
            pairs[i].1 += 1;
            return true;
        }
        if b > bucket {
            if pairs[LAST].1 > 0 {
                return false;
            }
            pairs.copy_within(i..LAST, i + 1);
            pairs[i] = (bucket, 1);
            return true;
        }
    }
    false
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
    /// Distinct buckets kept as sorted pairs before the window is
    /// allocated.
    const SPARSE: usize = 8;
    /// Samples at or below this value (one nanosecond, for latencies in
    /// seconds) are counted as zero.
    pub const FLOOR: f64 = 1e-9;

    /// An empty sketch. Nothing is allocated until the first sample
    /// above the floor, so the many instruments a Zipf-popularity trace
    /// leaves cold, or sees only zeros in, stay 40 bytes each.
    pub fn new() -> Self {
        Self {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            store: Store::Empty,
        }
    }

    /// Fold in one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample");
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x > Self::FLOOR {
            self.store.add((x.ln() / GAMMA.ln()).ceil() as i32);
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

    /// The zero count and the non-empty buckets, folded, in index order.
    fn counts(&self) -> (u64, Vec<(i64, u32)>) {
        let buckets = self.store.buckets();
        let above: u64 = buckets.iter().map(|&(_, n)| u64::from(n)).sum();
        (self.count as u64 - above, buckets)
    }

    /// Estimate of the `p`-quantile (`p ∈ [0, 1]`; `None` when empty):
    /// the representative value of the bucket holding the sample of rank
    /// `⌊p·(n − 1)⌋`, clamped to `[min, max]`. `p = 0` and `p = 1` return
    /// the exact min and max.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 1.0 {
            return Some(self.max);
        }
        let rank = (p * (self.count - 1) as f64).floor() as u64;
        let (mut seen, buckets) = self.counts();
        let est = if rank < seen {
            0.0
        } else {
            let &(bucket, _) = buckets
                .iter()
                .find(|&&(_, n)| {
                    seen += u64::from(n);
                    rank < seen
                })
                .expect("the counts sum to the sample count");
            2.0 * (bucket as f64 * GAMMA.ln()).exp() / (GAMMA + 1.0)
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
        let (zero, buckets) = self.counts();
        m.insert("zero".to_string(), zero.serialize());
        m.insert("buckets".to_string(), buckets.serialize());
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy as _;
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

    /// The sketch as it was before the sparse store: an explicit zero
    /// count and the dense window, allocated on the first record. The
    /// compact sketch must answer every query exactly as this does.
    struct DenseOracle {
        count: usize,
        min: f64,
        max: f64,
        store: Option<Box<OracleStore>>,
    }

    struct OracleStore {
        counts: [u32; LatencySketch::BUCKETS],
        zero: u32,
        top: i32,
    }

    impl OracleStore {
        fn bottom(&self) -> i64 {
            i64::from(self.top) + 1 - LatencySketch::BUCKETS as i64
        }

        fn add(&mut self, bucket: i32) {
            if bucket > self.top {
                let last = LatencySketch::BUCKETS - 1;
                let shift = (i64::from(bucket) - i64::from(self.top)).min(last as i64) as usize;
                let folded: u32 = self.counts[..=shift].iter().sum();
                self.counts.copy_within(shift + 1.., 1);
                self.counts[last + 1 - shift..].fill(0);
                self.counts[0] = folded;
                self.top = bucket;
            }
            let k = (i64::from(bucket) - self.bottom()).max(0) as usize;
            self.counts[k] += 1;
        }
    }

    impl DenseOracle {
        fn new() -> Self {
            Self {
                count: 0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                store: None,
            }
        }

        fn record(&mut self, x: f64) {
            self.count += 1;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
            let store = self.store.get_or_insert_with(|| {
                Box::new(OracleStore {
                    counts: [0; LatencySketch::BUCKETS],
                    zero: 0,
                    top: i32::MIN,
                })
            });
            if x <= LatencySketch::FLOOR {
                store.zero += 1;
            } else {
                store.add((x.ln() / GAMMA.ln()).ceil() as i32);
            }
        }

        fn quantile(&self, p: f64) -> Option<f64> {
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
                    .unwrap();
                let bucket = (store.bottom() + k as i64) as f64;
                2.0 * (bucket * GAMMA.ln()).exp() / (GAMMA + 1.0)
            };
            Some(est.clamp(self.min, self.max))
        }

        fn serialize(&self) -> Value {
            let mut m = Map::new();
            m.insert("count".to_string(), self.count.serialize());
            let some = |x: f64| (self.count > 0).then_some(x);
            m.insert("min".to_string(), some(self.min).serialize());
            m.insert("max".to_string(), some(self.max).serialize());
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

    /// Record `samples` into both sketches, checking after every record
    /// that they serialize alike and give bit-identical p50/p95/p99.
    fn assert_matches_oracle(samples: &[f64]) {
        let (mut sketch, mut oracle) = (LatencySketch::new(), DenseOracle::new());
        for &x in samples {
            sketch.record(x);
            oracle.record(x);
            let json = |v: Value| serde_json::to_string(&v).unwrap();
            assert_eq!(json(sketch.serialize()), json(oracle.serialize()));
            for p in [0.5, 0.95, 0.99] {
                assert_eq!(
                    sketch.quantile(p).map(f64::to_bits),
                    oracle.quantile(p).map(f64::to_bits),
                    "p{p} after {} samples",
                    sketch.count()
                );
            }
        }
    }

    /// The representative value of bucket `i`: a sample that lands in it.
    fn in_bucket(i: i32) -> f64 {
        2.0 * (f64::from(i) * GAMMA.ln()).exp() / (GAMMA + 1.0)
    }

    #[test]
    fn sparse_store_promotes_on_the_ninth_bucket() {
        let mut s = LatencySketch::new();
        s.record(0.0);
        s.record(LatencySketch::FLOOR / 2.0);
        assert!(matches!(s.store, Store::Empty));
        // Eight distinct buckets, recorded out of order, some twice.
        for i in [-40, -10, -30, -20, -60, -50, -70, -80, -10, -80] {
            s.record(in_bucket(i));
        }
        assert!(matches!(s.store, Store::Sparse(_)));
        s.record(in_bucket(-35));
        assert!(matches!(s.store, Store::Dense(_)));
        let mut samples = vec![0.0, LatencySketch::FLOOR / 2.0];
        samples.extend([-40, -10, -30, -20, -60, -50, -70, -80, -10, -80, -35].map(in_bucket));
        assert_matches_oracle(&samples);
    }

    #[test]
    fn sparse_reads_fold_buckets_below_the_window() {
        // Buckets 300 and 400 below the top fold into one at the
        // window's bottom, in a store that is still sparse.
        let top = 50;
        let mut samples = vec![0.0];
        samples.extend([top - 400, top - 300, top - 300, top, top - 5].map(in_bucket));
        assert_matches_oracle(&samples);
        let mut s = LatencySketch::new();
        samples.iter().for_each(|&x| s.record(x));
        assert!(matches!(s.store, Store::Sparse(_)));
        let bottom = i64::from(top) + 1 - LatencySketch::BUCKETS as i64;
        let v = s.serialize();
        let buckets = v.as_object().unwrap().get("buckets").unwrap();
        assert_eq!(
            serde_json::to_string(buckets).unwrap(),
            format!("[[{bottom},3],[{},1],[{top},1]]", top - 5)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The compact sketch serializes like the dense oracle and gives
        /// the same p50/p95/p99, bit for bit, after every record: on
        /// zeros, sub-floor samples, a dozen fixed buckets (so runs
        /// cross the 8 → 9 promotion) and spans far wider than the
        /// window.
        #[test]
        fn compact_sketch_matches_the_dense_oracle(
            samples in proptest::collection::vec(proptest::prop_oneof![
                proptest::Just(0.0),
                1e-12f64..1e-9,
                (0i32..12).prop_map(|k| in_bucket(-100 + 7 * k)),
                1e-6f64..1e-2,
                1e-2f64..1e3,
            ], 0..60),
        ) {
            assert_matches_oracle(&samples);
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn sketch_rejects_out_of_range_quantile() {
        let mut s = LatencySketch::new();
        s.record(1.0);
        s.quantile(1.5);
    }
}
