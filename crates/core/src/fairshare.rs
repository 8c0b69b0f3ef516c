//! Weighted fair-share allocation under overload (§4.1, Eq. 7–8).
//!
//! Inputs are each function's model-computed *desired* CPU and its
//! effective weight (from the scheduling tree); output is the *adjusted*
//! CPU each function may use this epoch. Two algorithms are provided:
//!
//! * [`fair_share_paper`] — the paper's single-pass algorithm: functions
//!   whose desire fits their guaranteed share (`well-behaved`) get their
//!   desire; the remaining capacity is split among the rest purely by
//!   weight (Eq. 8). This can hand an overloaded function *more* than it
//!   asked for when another overloaded function's weight share exceeds its
//!   desire.
//! * [`fair_share`] — iterative water-filling that additionally caps every
//!   function at its desire and redistributes the excess. It preserves the
//!   paper's Lemmas 1–2 (every overloaded function receives at least its
//!   guaranteed share) while never wasting capacity; this is what the
//!   controller uses.
//!
//! All quantities are in fractional CPU-milli (`f64`) — rounding to whole
//! containers is the reclamation policies' job.

/// One function's fair-share inputs. The allocation functions return one
/// value per request, in request order.
#[derive(Debug, Clone, Copy)]
pub struct ShareRequest {
    /// Effective weight fraction (see `WeightTree::effective_weights`);
    /// requests' weights need not sum to 1 — they are renormalized.
    pub weight: f64,
    /// Model-computed desired CPU (milli, fractional).
    pub desired: f64,
}

fn normalized_weights(requests: &[ShareRequest]) -> Vec<f64> {
    let total: f64 = requests.iter().map(|r| r.weight).sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    requests.iter().map(|r| r.weight / total).collect()
}

/// The guaranteed minimum share of each request (Eq. 7): its weight
/// fraction of the total capacity. Aligned with `requests`.
pub fn guaranteed_shares(requests: &[ShareRequest], capacity: f64) -> Vec<f64> {
    normalized_weights(requests)
        .into_iter()
        .map(|w| w * capacity)
        .collect()
}

/// The paper's single-pass algorithm (Eq. 7–8), verbatim. The result is
/// aligned with `requests`.
pub fn fair_share_paper(requests: &[ShareRequest], capacity: f64) -> Vec<f64> {
    assert!(capacity >= 0.0);
    let guar = guaranteed_shares(requests, capacity);
    let weights = normalized_weights(requests);

    // Well-behaved functions get their desire.
    let mut adjusted = vec![0.0; requests.len()];
    let mut well_behaved_total = 0.0;
    let mut overloaded: Vec<usize> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        if r.desired <= guar[i] {
            adjusted[i] = r.desired;
            well_behaved_total += r.desired;
        } else {
            overloaded.push(i);
        }
    }
    // Remaining capacity split by weight among overloaded functions (Eq 8).
    let remaining = (capacity - well_behaved_total).max(0.0);
    let over_weight: f64 = overloaded.iter().map(|&i| weights[i]).sum();
    for i in overloaded {
        adjusted[i] = remaining * weights[i] / over_weight;
    }
    adjusted
}

/// Water-filling fair share: like [`fair_share_paper`] but iterated so no
/// function receives more than its desire; freed capacity cascades to the
/// still-constrained functions by weight. Terminates in at most `n` rounds.
/// The result is aligned with `requests`.
///
/// ```
/// use lass_core::fairshare::{fair_share, ShareRequest};
///
/// // Two equal-weight functions on 12 vCPU: one modest, one greedy.
/// let requests = [
///     ShareRequest { weight: 1.0, desired: 2000.0 },
///     ShareRequest { weight: 1.0, desired: 50_000.0 },
/// ];
/// let adjusted = fair_share(&requests, 12_000.0);
/// assert_eq!(adjusted[0], 2000.0);      // well-behaved: full desire
/// assert_eq!(adjusted[1], 10_000.0);    // the rest, >= its 6000 guarantee
/// ```
pub fn fair_share(requests: &[ShareRequest], capacity: f64) -> Vec<f64> {
    assert!(capacity >= 0.0);
    let weights = normalized_weights(requests);
    // Requests left unsatisfied (or starved of capacity) keep 0.
    let mut adjusted = vec![0.0; requests.len()];
    let mut satisfied = vec![false; requests.len()];
    let mut remaining = capacity;

    loop {
        // Weights of the still-unsatisfied set.
        let active_weight: f64 = weights
            .iter()
            .zip(&satisfied)
            .filter(|&(_, done)| !done)
            .map(|(w, _)| w)
            .sum();
        if active_weight <= 0.0 || remaining <= 0.0 {
            break;
        }
        // Tentative proportional split of the remaining capacity.
        let newly_satisfied: Vec<usize> = (0..requests.len())
            .filter(|&i| {
                !satisfied[i] && requests[i].desired <= remaining * weights[i] / active_weight
            })
            .collect();
        if newly_satisfied.is_empty() {
            // Everyone active is constrained: final proportional split.
            for i in 0..requests.len() {
                if !satisfied[i] {
                    adjusted[i] = remaining * weights[i] / active_weight;
                }
            }
            break;
        }
        for i in newly_satisfied {
            adjusted[i] = requests[i].desired;
            remaining -= requests[i].desired;
            satisfied[i] = true;
        }
        if satisfied.iter().all(|&d| d) {
            break;
        }
    }
    adjusted
}

/// Whether the aggregate desire exceeds capacity (the paper's overload
/// condition, `Σ c_new > C`).
pub fn is_overloaded(requests: &[ShareRequest], capacity: f64) -> bool {
    requests.iter().map(|r| r.desired).sum::<f64>() > capacity
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(weight: f64, desired: f64) -> ShareRequest {
        ShareRequest { weight, desired }
    }

    #[test]
    fn no_overload_everyone_gets_desire() {
        let rs = [req(1.0, 3000.0), req(1.0, 4000.0)];
        assert!(!is_overloaded(&rs, 12000.0));
        let adj = fair_share(&rs, 12000.0);
        assert_eq!(adj[0], 3000.0);
        assert_eq!(adj[1], 4000.0);
    }

    #[test]
    fn lemma1_all_overloaded_get_exactly_guaranteed() {
        // Both want more than their guaranteed share -> each gets w_i/Σw·C.
        let rs = [req(1.0, 10_000.0), req(1.0, 9_000.0)];
        for algo in [fair_share, fair_share_paper] {
            let adj = algo(&rs, 12_000.0);
            assert!((adj[0] - 6000.0).abs() < 1e-9);
            assert!((adj[1] - 6000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lemma1_weighted() {
        let rs = [req(1.0, 10_000.0), req(2.0, 10_000.0)];
        for algo in [fair_share, fair_share_paper] {
            let adj = algo(&rs, 12_000.0);
            assert!((adj[0] - 4000.0).abs() < 1e-9);
            assert!((adj[1] - 8000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lemma2_partial_overload_grants_at_least_guaranteed() {
        // f0 well-behaved (desire 2000 <= guar 6000); f1 overloaded.
        let rs = [req(1.0, 2000.0), req(1.0, 50_000.0)];
        for algo in [fair_share, fair_share_paper] {
            let adj = algo(&rs, 12_000.0);
            assert_eq!(adj[0], 2000.0);
            // f1 gets the remainder, which exceeds its guaranteed 6000.
            assert!((adj[1] - 10_000.0).abs() < 1e-9);
            assert!(adj[1] >= 6000.0);
        }
    }

    #[test]
    fn paper_variant_can_overshoot_desire_water_filling_cannot() {
        // Overshoot requires a well-behaved function freeing capacity:
        // guar: f0=7500, f1=3750, f2=750. f0 is well-behaved (desire 1000),
        // so remaining = 11000 is split 5:1 between the overloaded {f1, f2}.
        // The paper's Eq 8 then grants f1 ≈ 9166 — more than its 6000
        // desire; water-filling caps f1 at 6000 and passes the rest to f2.
        let rs = [req(10.0, 1000.0), req(5.0, 6000.0), req(1.0, 50_000.0)];
        let paper = fair_share_paper(&rs, 12_000.0);
        assert!(paper[1] > 6000.0, "paper overshoots: {paper:?}");
        let wf = fair_share(&rs, 12_000.0);
        assert!(
            (wf[1] - 6000.0).abs() < 1e-9,
            "water-filling caps at desire"
        );
        assert!(wf[2] > paper[2], "the overshoot goes to f2");
    }

    #[test]
    fn water_filling_exhausts_capacity_when_demand_exceeds_it() {
        let rs = [req(1.0, 5000.0), req(1.0, 9000.0), req(2.0, 100.0)];
        let adj = fair_share(&rs, 12_000.0);
        let total: f64 = adj.iter().sum();
        assert!(total <= 12_000.0 + 1e-6);
        // Demand (14100) > capacity, so allocation should use it all.
        assert!((total - 12_000.0).abs() < 1e-6, "total={total}");
        // And f2's tiny desire is fully met.
        assert_eq!(adj[2], 100.0);
    }

    #[test]
    fn water_filling_never_exceeds_desire_nor_starves_guarantee() {
        // Randomized-ish grid check of both lemma properties.
        let capacity = 12_000.0;
        for &d0 in &[100.0, 3000.0, 8000.0, 20_000.0] {
            for &d1 in &[100.0, 6000.0, 30_000.0] {
                for &w0 in &[0.5, 1.0, 3.0] {
                    let rs = [req(w0, d0), req(1.0, d1)];
                    let adj = fair_share(&rs, capacity);
                    let guar = guaranteed_shares(&rs, capacity);
                    for (i, r) in rs.iter().enumerate() {
                        let a = adj[i];
                        assert!(a <= r.desired + 1e-9, "over-grant");
                        // Lemma: min(desire, guaranteed) is always granted.
                        let floor = r.desired.min(guar[i]);
                        assert!(
                            a + 1e-9 >= floor,
                            "starved: got {a}, floor {floor} (d0={d0} d1={d1} w0={w0})"
                        );
                    }
                    let total: f64 = adj.iter().sum();
                    assert!(total <= capacity + 1e-6);
                }
            }
        }
    }

    #[test]
    fn zero_capacity_yields_zero_allocations() {
        let rs = [req(1.0, 500.0), req(1.0, 700.0)];
        let adj = fair_share(&rs, 0.0);
        assert_eq!(adj[0], 0.0);
        assert_eq!(adj[1], 0.0);
    }

    #[test]
    fn zero_desire_is_well_behaved() {
        let rs = [req(1.0, 0.0), req(1.0, 50_000.0)];
        let adj = fair_share(&rs, 12_000.0);
        assert_eq!(adj[0], 0.0);
        assert!((adj[1] - 12_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "weights must sum")]
    fn zero_weights_rejected() {
        let rs = [req(0.0, 1.0)];
        fair_share(&rs, 10.0);
    }
}
