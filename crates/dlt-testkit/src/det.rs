//! Determinism regression helpers.
//!
//! The static pass (`dlt-lint`) catches hash-order and wall-clock
//! hazards at the source; this module catches whatever slips through
//! at runtime, by running a seeded workload twice and comparing an
//! observable fingerprint (typically `Simulation::dispatch_hash`, but
//! any `PartialEq + Debug` outcome works).

/// Runs `f` twice with the same `seed` and asserts both runs produce
/// the same outcome.
///
/// The closure must build its entire world from the seed — any state
/// shared across the two invocations (caches, statics) can mask or
/// fake nondeterminism.
///
/// # Panics
///
/// Panics when the two runs disagree, printing both outcomes.
pub fn assert_deterministic<T, F>(seed: u64, mut f: F)
where
    T: PartialEq + core::fmt::Debug,
    F: FnMut(u64) -> T,
{
    let first = f(seed);
    let second = f(seed);
    assert_eq!(
        first, second,
        "nondeterministic outcome: two runs with seed {seed} diverged"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngCore;

    #[test]
    fn deterministic_closure_passes() {
        assert_deterministic(42, |seed| {
            let mut rng = crate::SplitMix64::new(seed);
            (0..100).map(|_| rng.next_u64()).collect::<Vec<_>>()
        });
    }

    #[test]
    #[should_panic(expected = "nondeterministic outcome")]
    fn stateful_closure_is_caught() {
        let mut calls = 0u64;
        assert_deterministic(7, |seed| {
            calls += 1;
            seed + calls
        });
    }
}
