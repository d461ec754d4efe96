//! Property-based tests for the simulation engine's core guarantees.

use proptest::prelude::*;
use simcore::dist::{BoundedPareto, Distribution, Exponential, LogNormal, Uniform, Weibull};
use simcore::{Engine, EventQueue, Periodic, SimDuration, SimRng, SimTime};

proptest! {
    /// The event queue pops in exactly the order of a stable sort by time.
    #[test]
    fn queue_matches_stable_sort(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expected.sort_by_key(|&(t, i)| (t, i)); // stable by construction
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_millis(), i));
        }
        prop_assert_eq!(popped, expected);
    }

    /// The engine clock never goes backwards and delivers every event
    /// scheduled before the horizon.
    #[test]
    fn engine_clock_is_monotone(
        times in prop::collection::vec(0u64..100_000, 1..200),
        horizon in 1_000u64..200_000,
    ) {
        let mut e: Engine<usize> = Engine::with_horizon(SimTime::from_millis(horizon));
        let expected = times.iter().filter(|&&t| t < horizon).count();
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut delivered = 0;
        while let Some((t, _)) = e.pop() {
            prop_assert!(t >= last);
            last = t;
            delivered += 1;
        }
        prop_assert_eq!(delivered, expected);
        prop_assert_eq!(e.stats().delivered as usize, expected);
    }

    /// Periodic timers always return grid points strictly in the future.
    #[test]
    fn periodic_next_is_on_grid_and_future(
        start in 0u64..10_000,
        period in 1u64..5_000,
        now in 0u64..100_000,
    ) {
        let p = Periodic::new(SimTime::from_millis(start), SimDuration::from_millis(period));
        let now = SimTime::from_millis(now);
        let next = p.next_after(now);
        prop_assert!(next > now);
        let offset = next.as_millis().checked_sub(start.min(next.as_millis())).unwrap();
        if next.as_millis() >= start {
            prop_assert_eq!(offset % period, 0, "next tick must be on the grid");
        }
    }

    /// Every distribution produces finite, in-range samples for any seed.
    #[test]
    fn distributions_produce_finite_samples(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let u = Uniform::new(5.0, 10.0);
        let e = Exponential::with_mean(100.0);
        let l = LogNormal::with_mean_cv(50.0, 2.0);
        let w = Weibull::new(1.5, 30.0);
        let bp = BoundedPareto::new(1.1, 2.0, 500.0);
        for _ in 0..100 {
            let x = u.sample(&mut rng);
            prop_assert!((5.0..10.0).contains(&x));
            let x = e.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
            let x = l.sample(&mut rng);
            prop_assert!(x.is_finite() && x > 0.0);
            let x = w.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
            let x = bp.sample(&mut rng);
            prop_assert!((2.0..=500.0).contains(&x));
        }
    }

    /// `u64_below` is unbiased enough to hit every residue and never
    /// exceeds its bound.
    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), bound in 1u64..1_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(rng.u64_below(bound) < bound);
        }
    }

    /// Seconds-to-milliseconds conversion is monotone over the whole
    /// range (+inf included), saturates at the top instead of wrapping to
    /// zero, and never rounds a span of half a millisecond or more to
    /// zero — a huge or infinite cost is never free.
    #[test]
    fn secs_to_millis_is_monotone_and_saturating(
        m1 in 0.5f64..10.0,
        e1 in -5i32..25,
        m2 in 0.5f64..10.0,
        e2 in -5i32..25,
    ) {
        let (a, b) = (m1 * 10f64.powi(e1), m2 * 10f64.powi(e2));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (dl, dh) = (SimDuration::from_secs_f64(lo), SimDuration::from_secs_f64(hi));
        prop_assert!(dl <= dh, "{lo} s -> {dl:?} but {hi} s -> {dh:?}");
        prop_assert!(dh <= SimDuration::from_secs_f64(f64::INFINITY));
        prop_assert!(SimTime::from_secs_f64(lo) <= SimTime::from_secs_f64(hi));
        for s in [lo, hi] {
            if s >= 0.0005 {
                prop_assert!(!SimDuration::from_secs_f64(s).is_zero(), "{s} s -> 0 ms");
            }
        }
        prop_assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        prop_assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    /// Forked streams never reproduce their sibling's output prefix.
    #[test]
    fn forks_diverge(seed in any::<u64>()) {
        let mut parent = SimRng::seed_from_u64(seed);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let equal = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(equal < 4, "sibling forks should not track each other");
    }
}
