//! Differential test: `PiecewiseConstantPoisson`'s segment cursor
//! against a reference that finds the segment from scratch on every
//! draw (a binary search for the rate, a linear scan for the segment
//! end).
//!
//! Both sides draw from their own copy of one RNG stream, so the same
//! draws must give the same arrival instants. The generated processes
//! have zero-rate segments, breakpoints past the horizon, and callers
//! that move `now` backwards as well as forwards.

use lass_simcore::{ArrivalProcess, PiecewiseConstantPoisson, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// The segment search done in full on every draw.
struct Reference {
    segments: Vec<(SimTime, f64)>,
    end: SimTime,
}

impl Reference {
    fn rate_at(&self, t: SimTime) -> f64 {
        let idx = match self.segments.binary_search_by(|&(s, _)| s.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        self.segments[idx].1
    }

    fn segment_end(&self, t: SimTime) -> SimTime {
        for &(s, _) in &self.segments {
            if s > t {
                return s.min(self.end);
            }
        }
        self.end
    }

    fn next_after(&self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let mut t = now;
        loop {
            if t >= self.end {
                return None;
            }
            let rate = self.rate_at(t);
            let seg_end = self.segment_end(t);
            if rate <= 0.0 {
                t = seg_end;
                continue;
            }
            let cand = t + SimDuration::from_secs_f64(rng.exp(rate));
            if cand < seg_end {
                return if cand >= self.end { None } else { Some(cand) };
            }
            t = seg_end;
        }
    }
}

fn rate_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.05f64..2.0, 2.0f64..60.0]
}

/// `None` continues from the last arrival; `Some(t)` asks for the next
/// arrival after `t` ns, which may lie before the last arrival.
fn step_strategy() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        (0u64..40_000_000_000).prop_map(Some),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cursor_matches_full_search(
        seed in 0u64..1 << 32,
        pieces in prop::collection::vec((1u64..3_000_000_000, rate_strategy()), 1..24),
        end_frac in 0.05f64..1.5,
        steps in prop::collection::vec(step_strategy(), 1..300),
    ) {
        let mut segments = Vec::with_capacity(pieces.len());
        let mut start = 0u64;
        for &(gap, rate) in &pieces {
            segments.push((SimTime(start), rate));
            start += gap;
        }
        // Horizons before, among and after the breakpoints.
        let end = SimTime((start as f64 * end_frac) as u64 + 1);
        let reference = Reference { segments: segments.clone(), end };
        let mut cursor = PiecewiseConstantPoisson::new(segments, end);
        let (mut rng_ref, mut rng_cur) = (SimRng::from_seed(seed), SimRng::from_seed(seed));
        let mut now = SimTime::ZERO;
        for step in steps {
            if let Some(t) = step {
                now = SimTime(t);
            }
            let want = reference.next_after(now, &mut rng_ref);
            let got = cursor.next_after(now, &mut rng_cur);
            prop_assert_eq!(got, want, "diverged at now = {:?}", now);
            if let Some(t) = got {
                now = t;
            }
        }
    }
}

#[test]
fn rewinding_redraws_earlier_segments() {
    let segments = vec![
        (SimTime::ZERO, 50.0),
        (SimTime::from_secs(1), 0.0),
        (SimTime::from_secs(2), 50.0),
    ];
    let mut p = PiecewiseConstantPoisson::new(segments, SimTime::from_secs(3));
    let mut rng = SimRng::from_seed(3);
    let late = p.next_after(SimTime::from_millis(2500), &mut rng).unwrap();
    assert!(late > SimTime::from_millis(2500));
    let early = p.next_after(SimTime::ZERO, &mut rng).unwrap();
    assert!(early < SimTime::from_secs(1), "rewound draw at {early:?}");
    let skipped = p.next_after(SimTime::from_millis(1500), &mut rng).unwrap();
    assert!(
        skipped >= SimTime::from_secs(2),
        "zero-rate segment skipped"
    );
}
