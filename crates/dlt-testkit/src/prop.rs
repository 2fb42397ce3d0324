//! A miniature property-testing harness (the `proptest` replacement).
//!
//! Tests are written against a [`Gen`] value source inside the
//! [`crate::prop!`] macro:
//!
//! ```
//! dlt_testkit::prop! {
//!     fn addition_commutes(g, cases = 64) {
//!         let a = g.u64_below(1 << 30);
//!         let b = g.u64_below(1 << 30);
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! ## How shrinking works
//!
//! Every value a test draws comes from a recorded sequence of raw
//! `u64` *choices* (the Hypothesis design). When a case fails, the
//! harness replays the test on simplified copies of that choice
//! sequence — truncating it and moving individual choices toward
//! zero — and keeps any copy that still fails. Because all generators
//! map the choice `0` to their simplest output (minimum of a range,
//! empty collection, `false`), minimising choices minimises the
//! counterexample.
//!
//! ## Environment overrides
//!
//! * `DLT_PROP_CASES` — overrides the per-test case count.
//! * `DLT_PROP_SEED` — pins the base seed (printed on failure), for
//!   reproducing a failing run exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{RngCore, Xoshiro256StarStar};

/// The draw API property tests generate values through.
///
/// All methods bottom out in [`Gen::choice`], so every drawn value is
/// reproducible from (and shrinkable through) the raw choice sequence.
#[derive(Debug)]
pub struct Gen {
    /// Choices replayed before drawing fresh ones (shrink candidates).
    replay: Vec<u64>,
    /// Next replay index.
    cursor: usize,
    /// Fresh source once the replay is exhausted; `None` while
    /// shrinking (exhausted replay then yields zeros — the simplest
    /// value — instead of new randomness).
    fresh: Option<Xoshiro256StarStar>,
    /// Everything drawn this run, in order.
    recorded: Vec<u64>,
}

impl Gen {
    fn from_rng(rng: Xoshiro256StarStar) -> Gen {
        Gen {
            replay: Vec::new(),
            cursor: 0,
            fresh: Some(rng),
            recorded: Vec::new(),
        }
    }

    fn from_choices(choices: Vec<u64>) -> Gen {
        Gen {
            replay: choices,
            cursor: 0,
            fresh: None,
            recorded: Vec::new(),
        }
    }

    /// Draws one raw 64-bit choice.
    pub fn choice(&mut self) -> u64 {
        let value = if self.cursor < self.replay.len() {
            let v = self.replay[self.cursor];
            self.cursor += 1;
            v
        } else {
            match &mut self.fresh {
                Some(rng) => rng.next_u64(),
                None => 0,
            }
        };
        self.recorded.push(value);
        value
    }

    /// Uniform `u64` over the full range. Shrinks toward 0.
    pub fn any_u64(&mut self) -> u64 {
        self.choice()
    }

    /// Uniform `usize` over the full range. Shrinks toward 0.
    pub fn any_usize(&mut self) -> usize {
        self.choice() as usize
    }

    /// Uniform `u8`. Shrinks toward 0.
    pub fn any_u8(&mut self) -> u8 {
        (self.choice() & 0xff) as u8
    }

    /// Boolean with probability 1/2. Shrinks toward `false`.
    pub fn any_bool(&mut self) -> bool {
        self.choice() & 1 == 1
    }

    /// Uniform integer in `[0, bound)`. Shrinks toward 0.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        self.choice() % bound
    }

    /// Uniform integer in `[lo, hi)`. Shrinks toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.choice() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`. Shrinks toward `lo`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform `u8` in `[lo, hi)`. Shrinks toward `lo`.
    pub fn u8_in(&mut self, lo: u8, hi: u8) -> u8 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u8
    }

    /// Uniform `f64` in `[0, 1)`. Shrinks toward 0.
    pub fn unit_f64(&mut self) -> f64 {
        (self.choice() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Shrinks toward `lo`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// A collection length in `[lo, hi)`. Shrinks toward `lo`.
    pub fn len_in(&mut self, lo: usize, hi: usize) -> usize {
        self.usize_in(lo, hi)
    }

    /// A vector with length drawn from `[lo, hi)` and items from
    /// `item`. Shrinks toward fewer, simpler items.
    pub fn vec_in<T>(
        &mut self,
        lo: usize,
        hi: usize,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.len_in(lo, hi);
        (0..len).map(|_| item(self)).collect()
    }

    /// A vector of exactly `len` items.
    pub fn vec_of<T>(&mut self, len: usize, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..len).map(|_| item(self)).collect()
    }

    /// `None` half the time, else `Some(item)`. Shrinks toward `None`.
    pub fn option<T>(&mut self, mut item: impl FnMut(&mut Gen) -> T) -> Option<T> {
        if self.any_bool() {
            Some(item(self))
        } else {
            None
        }
    }

    /// A printable-ASCII string with length in `[lo, hi)`. Shrinks
    /// toward shorter strings of `' '`.
    pub fn ascii_string(&mut self, lo: usize, hi: usize) -> String {
        let len = self.len_in(lo, hi);
        (0..len)
            .map(|_| (b' ' + (self.choice() % 95) as u8) as char)
            .collect()
    }

    /// Arbitrary bytes with length in `[lo, hi)`.
    pub fn bytes_in(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        self.vec_in(lo, hi, Gen::any_u8)
    }
}

/// One failing case, as reported back by [`check`]'s internals.
struct Failure {
    choices: Vec<u64>,
    message: String,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_once(f: &dyn Fn(&mut Gen), mut gen: Gen) -> Result<Vec<u64>, Failure> {
    let recorded = {
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut gen)));
        match result {
            Ok(()) => return Ok(gen.recorded),
            Err(payload) => Failure {
                choices: gen.recorded,
                message: panic_message(payload),
            },
        }
    };
    Err(recorded)
}

/// Replays `f` on simplified copies of the failing choice sequence and
/// returns the smallest still-failing counterexample found.
fn shrink(f: &dyn Fn(&mut Gen), mut failure: Failure) -> Failure {
    let mut budget: u32 = 4096;
    let try_candidate = |candidate: Vec<u64>, failure: &mut Failure, budget: &mut u32| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        if let Err(smaller) = run_once(f, Gen::from_choices(candidate)) {
            *failure = smaller;
            true
        } else {
            false
        }
    };
    let mut progress = true;
    while progress && budget > 0 {
        progress = false;
        // Pass 1: drop the tail (replay pads with zeros, the simplest
        // choices, so truncation both shortens and simplifies).
        let len = failure.choices.len();
        for keep in [
            0,
            len / 4,
            len / 2,
            len.saturating_sub(8),
            len.saturating_sub(1),
        ] {
            if keep >= len {
                continue;
            }
            if try_candidate(failure.choices[..keep].to_vec(), &mut failure, &mut budget) {
                progress = true;
                break;
            }
        }
        // Pass 2: minimise each choice by binary search for the
        // smallest replacement that still fails. (The failure set need
        // not be monotone in the choice; the search then converges to a
        // local boundary — a value that fails while value−1 passes —
        // which is exactly the "minimal counterexample" shape.)
        for index in 0..failure.choices.len() {
            // A successful shrink replaces `failure.choices` with the
            // replay's recording, which can be shorter than the
            // sequence this loop started from.
            if index >= failure.choices.len() {
                break;
            }
            let original = failure.choices[index];
            if original == 0 || budget == 0 {
                continue;
            }
            let with = |choices: &[u64], value: u64| {
                let mut candidate = choices.to_vec();
                candidate[index] = value;
                candidate
            };
            // Fast path: zero works.
            if try_candidate(with(&failure.choices, 0), &mut failure, &mut budget) {
                progress = true;
                continue;
            }
            let mut lo = 0u64;
            let mut hi = original; // `hi` is known to fail.
            while lo < hi && budget > 0 && index < failure.choices.len() {
                let mid = lo + (hi - lo) / 2;
                if try_candidate(with(&failure.choices, mid), &mut failure, &mut budget) {
                    hi = mid;
                    progress = true;
                } else {
                    lo = mid + 1;
                }
            }
        }
    }
    failure
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// FNV-1a, to give every test its own seed stream from its name.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs `cases` random cases of `f`, shrinking and reporting the first
/// failure. This is the engine behind the [`crate::prop!`] macro.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) with the shrunken
/// counterexample when a case fails.
pub fn check(name: &str, cases: u32, f: impl Fn(&mut Gen)) {
    let cases = env_u64("DLT_PROP_CASES").map_or(cases, |n| n as u32);
    let base_seed = env_u64("DLT_PROP_SEED").unwrap_or_else(|| fnv1a(name));
    for case in 0..cases {
        let seed = base_seed.wrapping_add(u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let gen = Gen::from_rng(Xoshiro256StarStar::seed_from_u64(seed));
        if let Err(failure) = run_once(&f, gen) {
            let failure = shrink(&f, failure);
            panic!(
                "property '{name}' failed (case {case}/{cases}, base seed {base_seed}).\n\
                 reproduce with: DLT_PROP_SEED={base_seed} DLT_PROP_CASES={cases}\n\
                 shrunken choices ({} draws): {:?}\n\
                 failure: {}",
                failure.choices.len(),
                failure.choices,
                failure.message,
            );
        }
    }
}

/// Declares a property test. See the [module docs](mod@crate::prop) for
/// the draw API and shrinking semantics.
///
/// Accepts an optional `cases = N` (default 64):
///
/// ```
/// dlt_testkit::prop! {
///     /// Reversal is an involution.
///     fn reverse_involution(g, cases = 32) {
///         let v = g.vec_in(0, 20, |g| g.any_u8());
///         let mut w = v.clone();
///         w.reverse();
///         w.reverse();
///         assert_eq!(v, w);
///     }
/// }
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! prop {
    ($(#[$attr:meta])* fn $name:ident($g:ident) $body:block) => {
        $crate::prop! { $(#[$attr])* fn $name($g, cases = 64) $body }
    };
    ($(#[$attr:meta])* fn $name:ident($g:ident, cases = $cases:expr) $body:block) => {
        $(#[$attr])*
        #[test]
        fn $name() {
            $crate::prop::check(
                concat!(module_path!(), "::", stringify!($name)),
                $cases,
                |$g: &mut $crate::prop::Gen| $body,
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = Gen::from_rng(Xoshiro256StarStar::seed_from_u64(1));
        let mut b = Gen::from_rng(Xoshiro256StarStar::seed_from_u64(1));
        assert_eq!(a.any_u64(), b.any_u64());
        assert_eq!(a.u64_in(5, 50), b.u64_in(5, 50));
        assert_eq!(a.ascii_string(0, 10), b.ascii_string(0, 10));
    }

    #[test]
    fn ranges_respected() {
        let mut g = Gen::from_rng(Xoshiro256StarStar::seed_from_u64(2));
        for _ in 0..1000 {
            let v = g.u64_in(10, 20);
            assert!((10..20).contains(&v));
            let f = g.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            assert!(g.unit_f64() < 1.0);
        }
    }

    #[test]
    fn zero_choices_give_minimal_values() {
        let mut g = Gen::from_choices(Vec::new());
        assert_eq!(g.any_u64(), 0);
        assert_eq!(g.u64_in(7, 30), 7);
        assert!(!g.any_bool());
        assert_eq!(g.vec_in(0, 5, Gen::any_u8), Vec::<u8>::new());
        assert_eq!(g.option(Gen::any_u64), None);
        assert_eq!(g.unit_f64(), 0.0);
    }

    #[test]
    fn passing_property_passes() {
        check("passing", 64, |g| {
            let a = g.u64_below(1000);
            let b = g.u64_below(1000);
            assert_eq!(a + b, b + a);
        });
    }

    #[test]
    fn failing_property_shrinks_to_boundary() {
        // The property "v < 600" fails for v in [600, 1000); the
        // shrinker should walk the counterexample down to exactly 600.
        let failure = std::panic::catch_unwind(|| {
            check("shrinks", 200, |g| {
                let v = g.u64_below(1000);
                assert!(v < 600, "drew {v}");
            });
        })
        .expect_err("property must fail");
        let message = failure
            .downcast_ref::<String>()
            .expect("string panic")
            .clone();
        assert!(message.contains("drew 600"), "not minimal: {message}");
        assert!(
            message.contains("DLT_PROP_SEED="),
            "missing repro line: {message}"
        );
    }

    #[test]
    fn replay_reproduces_failure_values() {
        // A recorded failing sequence replays to the same drawn values.
        let mut g = Gen::from_rng(Xoshiro256StarStar::seed_from_u64(77));
        let v1 = g.u64_in(0, 1 << 40);
        let s1 = g.ascii_string(0, 32);
        let recorded = g.recorded.clone();
        let mut replay = Gen::from_choices(recorded);
        assert_eq!(replay.u64_in(0, 1 << 40), v1);
        assert_eq!(replay.ascii_string(0, 32), s1);
    }

    prop! {
        /// The macro itself works end-to-end.
        fn macro_smoke(g, cases = 16) {
            let v = g.vec_in(0, 10, |g| g.u64_below(100));
            let total: u64 = v.iter().sum();
            assert!(total <= 100 * v.len() as u64);
        }
    }
}
