//! Property-based tests for the queueing models.

use lass_queueing::{
    hetero::{required_additional_containers, HeteroMmc},
    mmc::MmcQueue,
    solver::{required_containers_exact, SolverConfig},
    LatencySketch,
};
use proptest::prelude::*;
use serde::Serialize as _;

fn stable_mmc() -> impl Strategy<Value = (f64, f64, u32)> {
    // lambda, mu, c with rho < 0.98 to stay clearly stable.
    (0.5f64..200.0, 0.5f64..50.0, 1u32..200)
        .prop_filter("stable", |(l, m, c)| l / (m * f64::from(*c)) < 0.98)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mmc_probabilities_are_a_distribution((l, m, c) in stable_mmc()) {
        let q = MmcQueue::new(l, m, c).unwrap();
        let mut sum = 0.0;
        for n in 0..500_000u64 {
            let p = q.p_n(n);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
            sum += p;
            if sum > 1.0 - 1e-10 { break; }
        }
        prop_assert!(sum > 1.0 - 1e-6, "sum={sum} for λ={l} μ={m} c={c}");
    }

    #[test]
    fn mmc_cumulative_is_monotone((l, m, c) in stable_mmc()) {
        let q = MmcQueue::new(l, m, c).unwrap();
        let mut last = 0.0;
        for n in 0..200u64 {
            let cum = q.cumulative_p(n);
            prop_assert!(cum + 1e-12 >= last);
            last = cum;
        }
    }

    #[test]
    fn paper_bound_never_exceeds_exact_cdf_by_much(
        (l, m, c) in stable_mmc(),
        t in 0.0f64..2.0,
    ) {
        // The paper's Eq. 3-4 discretized bound and the exact M/M/c wait CDF
        // must be close; the bound is based on *expected* drain so it may
        // slightly exceed the exact tail, but both live in [0,1] and agree
        // at t -> infinity.
        let q = MmcQueue::new(l, m, c).unwrap();
        let b = q.wait_probability_bound(t);
        let e = q.wait_cdf(t);
        prop_assert!((0.0..=1.0).contains(&b));
        prop_assert!((0.0..=1.0).contains(&e));
        // At generous budgets both approach 1.
        let big = q.wait_probability_bound(50.0 / (m * f64::from(c)) + 5.0);
        prop_assert!(big > 0.99, "big-budget bound={big}");
    }

    #[test]
    fn solver_is_minimal_and_feasible(
        lambda in 1.0f64..100.0,
        mu in 1.0f64..20.0,
        t in 0.01f64..1.0,
    ) {
        let cfg = SolverConfig::default();
        let res = required_containers_exact(lambda, mu, t, &cfg).unwrap();
        let q = MmcQueue::new(lambda, mu, res.containers).unwrap();
        prop_assert!(q.wait_probability_bound(t) >= cfg.target_percentile);
        if res.containers > 1 {
            let q1 = MmcQueue::new(lambda, mu, res.containers - 1).unwrap();
            prop_assert!(q1.wait_probability_bound(t) < cfg.target_percentile);
        }
    }

    #[test]
    fn solver_monotone_in_lambda(
        mu in 1.0f64..20.0,
        t in 0.02f64..0.5,
        base in 1.0f64..50.0,
        bump in 0.1f64..50.0,
    ) {
        let cfg = SolverConfig::default();
        let lo = required_containers_exact(base, mu, t, &cfg).unwrap();
        let hi = required_containers_exact(base + bump, mu, t, &cfg).unwrap();
        prop_assert!(hi.containers >= lo.containers);
    }

    #[test]
    fn hetero_equals_homogeneous_when_uniform(
        lambda in 1.0f64..50.0,
        mu in 1.0f64..10.0,
        c in 1usize..40,
    ) {
        prop_assume!(lambda / (mu * c as f64) < 0.98);
        let het = HeteroMmc::new(lambda, vec![mu; c]).unwrap();
        let hom = MmcQueue::new(lambda, mu, c as u32).unwrap();
        for n in 0..20u64 {
            prop_assert!((het.p_n(n) - hom.p_n(n)).abs() < 1e-8);
        }
        prop_assert!((het.wait_probability_bound(0.1) - hom.wait_probability_bound(0.1)).abs() < 1e-8);
    }

    #[test]
    fn hetero_bound_is_conservative_under_spread(
        lambda in 1.0f64..30.0,
        mu in 2.0f64..10.0,
        c in 2usize..20,
        spread in 0.05f64..0.9,
        t in 0.01f64..0.5,
    ) {
        prop_assume!(lambda / (mu * c as f64) < 0.9);
        // Same aggregate capacity, one slow + one fast container.
        let mut mus = vec![mu; c];
        mus[0] = mu * (1.0 - spread);
        mus[c - 1] = mu * (1.0 + spread);
        let het = HeteroMmc::new(lambda, mus).unwrap();
        let hom = MmcQueue::new(lambda, mu, c as u32).unwrap();
        prop_assert!(het.wait_probability_bound(t) <= hom.wait_probability_bound(t) + 1e-9);
    }

    #[test]
    fn hetero_solver_achieves_target(
        lambda in 5.0f64..80.0,
        slow_frac in 0.3f64..1.0,
        n_existing in 0usize..6,
        t in 0.02f64..0.5,
    ) {
        let cfg = SolverConfig::default();
        let standard = 10.0;
        let existing = vec![standard * slow_frac; n_existing];
        let res = required_additional_containers(lambda, &existing, standard, t, &cfg).unwrap();
        prop_assert!(res.achieved >= cfg.target_percentile);
        // Verify independently with a fresh model.
        let mut mus = existing.clone();
        mus.extend(std::iter::repeat_n(standard, res.containers as usize));
        if !mus.is_empty() {
            let model = HeteroMmc::new(lambda, mus).unwrap();
            prop_assert!(model.wait_probability_bound(t) >= cfg.target_percentile - 1e-12);
        }
    }

    /// Differential: a reused `ErlangScratch` walked through an
    /// arbitrary `(λ, μ, c)` sequence — rate changes, fleet
    /// growth/shrink, stable and unstable regimes interleaved — must
    /// agree with a fresh `MmcQueue` per step to the last ULP on every
    /// waiting-time query.
    #[test]
    fn erlang_scratch_walk_is_bit_identical_to_fresh_models(
        params in prop::collection::vec(
            (0.1f64..300.0, 0.1f64..50.0, 1u32..300),
            1..40,
        ),
        p in 0.01f64..0.999,
        t in 0.0f64..2.0,
    ) {
        let mut scratch = lass_queueing::ErlangScratch::new();
        for (l, m, c) in params {
            let q = MmcQueue::new(l, m, c).unwrap();
            let s = scratch.eval(l, m, c).unwrap();
            prop_assert_eq!(
                s.erlang_c().to_bits(), q.erlang_c().to_bits(),
                "erlang_c λ={} μ={} c={}", l, m, c
            );
            prop_assert_eq!(
                s.mean_wait().to_bits(), q.mean_wait().to_bits(),
                "mean_wait λ={} μ={} c={}", l, m, c
            );
            prop_assert_eq!(
                s.wait_percentile(p).to_bits(), q.wait_percentile(p).to_bits(),
                "wait_percentile({}) λ={} μ={} c={}", p, l, m, c
            );
            prop_assert_eq!(
                s.wait_cdf(t).to_bits(), q.wait_cdf(t).to_bits(),
                "wait_cdf({}) λ={} μ={} c={}", t, l, m, c
            );
        }
    }

    /// Differential: driving one predictor through a `ForecastCache`
    /// and a clone of it through the uncached
    /// `WaitForecast` → `MmcQueue` path over the same arbitrary
    /// arrival/service/query stream yields the same `mean_wait` and
    /// `wait_percentile` bits at every query instant.
    #[test]
    fn forecast_cache_walk_is_bit_identical_to_uncached(
        steps in prop::collection::vec(
            (0.001f64..3.0, 0u8..3, 0.001f64..2.0, 1u32..40),
            1..120,
        ),
        p in 0.01f64..0.999,
    ) {
        let mut cached_pred = lass_queueing::WaitPredictor::default();
        let mut uncached_pred = lass_queueing::WaitPredictor::default();
        let mut cache = lass_queueing::ForecastCache::new();
        let mut now = 0.0;
        for (dt, kind, service, servers) in steps {
            now += dt;
            match kind {
                0 => {
                    cached_pred.on_arrival(now);
                    uncached_pred.on_arrival(now);
                }
                1 => {
                    cached_pred.on_service(service);
                    uncached_pred.on_service(service);
                }
                _ => {}
            }
            let cached = cache.evaluate(cached_pred.forecast(now, servers));
            let raw = uncached_pred.forecast(now, servers);
            prop_assert_eq!(cached.lambda().to_bits(), raw.lambda.to_bits());
            prop_assert_eq!(cached.mu().to_bits(), raw.mu.to_bits());
            prop_assert_eq!(
                cached.mean_wait().to_bits(),
                raw.mean_wait().to_bits(),
                "mean_wait at t={}", now
            );
            prop_assert_eq!(
                cached.wait_percentile(p).to_bits(),
                raw.wait_percentile(p).to_bits(),
                "wait_percentile({}) at t={}", p, now
            );
        }
    }

    /// Every p50/p95/p99 estimate lies within the sketch's relative
    /// accuracy of the exact samples bracketing its rank, on data that
    /// mixes exact zeros with samples inside the window's span.
    #[test]
    fn sketch_quantiles_are_within_alpha_of_exact(
        seed in 0u64..1000,
        n in 1usize..3_000,
        zero_share in 0.0f64..0.6,
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sketch = LatencySketch::new();
        let mut s = Vec::with_capacity(n);
        for _ in 0..n {
            // Log-uniform over [1e-3, 0.5]: a 500x span, inside the
            // window's ~600x.
            let x = if rng.gen::<f64>() < zero_share {
                0.0
            } else {
                1e-3 * 500f64.powf(rng.gen::<f64>())
            };
            sketch.record(x);
            s.push(x);
        }
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let a = LatencySketch::ALPHA;
        for p in [0.5, 0.95, 0.99] {
            let rank = p * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let est = sketch.quantile(p).unwrap();
            prop_assert!(
                s[lo] * (1.0 - a) <= est && est <= s[hi] * (1.0 + a),
                "p={} est={} exact=[{}, {}]", p, est, s[lo], s[hi]
            );
        }
    }

    /// The sketch's state is a function of the sample multiset: any
    /// order of the same samples serializes identically, window slides
    /// included.
    #[test]
    fn sketch_state_ignores_input_order(
        samples in prop::collection::vec(prop_oneof![
            Just(0.0),
            1e-12f64..1e-9,
            1e-6f64..1e-2,
            1e-2f64..1e3,
        ], 0..400),
        seed in 0u64..1000,
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled = samples.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let (mut a, mut b) = (LatencySketch::new(), LatencySketch::new());
        samples.iter().for_each(|&x| a.record(x));
        shuffled.iter().for_each(|&x| b.record(x));
        prop_assert_eq!(
            serde_json::to_string(&a.serialize()).unwrap(),
            serde_json::to_string(&b.serialize()).unwrap()
        );
    }
}
