//! Proof-of-work: the leader-election lottery (paper §III-A-1).
//!
//! Two interchangeable back-ends implement the same Poisson mining
//! process:
//!
//! * [`mine_real`] performs actual partial hash inversion — iterating
//!   the header nonce until the double-SHA-256 of the header meets the
//!   difficulty target. This demonstrates the primitive itself and is
//!   used at low difficulty.
//! * [`sample_mining_time`] draws the time-to-block from the
//!   exponential distribution `Exp(difficulty / hashrate)` — the exact
//!   distribution of the first success of a memoryless search — so
//!   long-horizon experiments (days of simulated mining) run in
//!   milliseconds.
//!
//! The DESIGN.md ablation `e04`/`e05` checks that the two back-ends
//! produce statistically indistinguishable block intervals.

use dlt_sim::rng::SimRng;
use dlt_sim::time::SimTime;

use crate::block::BlockHeader;
use crate::difficulty::target_from_difficulty;

/// Verifies a header's proof-of-work: its hash must be at or below the
/// target implied by its difficulty field.
pub fn pow_valid(header: &BlockHeader) -> bool {
    header.difficulty > 0
        && header
            .id()
            .meets_target(&target_from_difficulty(header.difficulty))
}

/// Mines a header by real partial hash inversion: tries nonces
/// `0, 1, 2, …` until the header hash meets the target or
/// `max_attempts` is exhausted.
///
/// On success the header's `nonce` holds the solution and the number
/// of attempts used is returned.
pub fn mine_real(header: &mut BlockHeader, max_attempts: u64) -> Option<u64> {
    let target = target_from_difficulty(header.difficulty);
    for attempt in 0..max_attempts {
        header.nonce = attempt;
        if header.id().meets_target(&target) {
            return Some(attempt + 1);
        }
    }
    None
}

/// Samples the time for a miner with `hashrate` (hash attempts per
/// second) to find a block at `difficulty` expected attempts:
/// exponentially distributed with mean `difficulty / hashrate` seconds.
///
/// # Panics
///
/// Panics if `hashrate` is not positive and finite or `difficulty`
/// is 0.
pub fn sample_mining_time(rng: &mut SimRng, hashrate: f64, difficulty: u64) -> SimTime {
    assert!(
        hashrate.is_finite() && hashrate > 0.0,
        "hashrate must be positive"
    );
    assert!(difficulty > 0, "difficulty must be at least 1");
    let mean_secs = difficulty as f64 / hashrate;
    SimTime::from_secs_f64(rng.exponential(mean_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testutil::header;
    use dlt_crypto::Digest;

    #[test]
    fn mining_at_difficulty_one_succeeds_immediately() {
        let mut h = header(Digest::ZERO, 0);
        h.difficulty = 1;
        let attempts = mine_real(&mut h, 10).expect("difficulty 1 always succeeds");
        assert_eq!(attempts, 1);
        assert!(pow_valid(&h));
    }

    #[test]
    fn mined_header_passes_validation_and_tampering_fails() {
        let mut h = header(Digest::ZERO, 1);
        h.difficulty = 256; // ~8 leading zero bits; quick to mine
        mine_real(&mut h, 1_000_000).expect("mineable");
        assert!(pow_valid(&h));
        let mut tampered = h.clone();
        tampered.timestamp_micros += 1;
        // Overwhelmingly likely the tampered hash misses the target.
        assert!(!pow_valid(&tampered));
    }

    #[test]
    fn unmined_header_is_invalid_at_high_difficulty() {
        let mut h = header(Digest::ZERO, 1);
        h.difficulty = u64::MAX;
        assert!(!pow_valid(&h));
    }

    #[test]
    fn zero_difficulty_is_invalid() {
        let mut h = header(Digest::ZERO, 1);
        h.difficulty = 0;
        assert!(!pow_valid(&h));
    }

    #[test]
    fn mine_real_respects_attempt_budget() {
        let mut h = header(Digest::ZERO, 1);
        h.difficulty = u64::MAX;
        assert_eq!(mine_real(&mut h, 100), None);
    }

    #[test]
    fn real_attempt_count_matches_difficulty_statistically() {
        // Mining many headers at difficulty d must take ~d attempts on
        // average. d = 64 keeps the test fast.
        let d = 64u64;
        let mut total_attempts = 0u64;
        let runs = 300;
        for i in 0..runs {
            let mut h = header(Digest::ZERO, i);
            h.difficulty = d;
            h.timestamp_micros = i; // vary the preimage
            total_attempts += mine_real(&mut h, 1_000_000).expect("mineable");
        }
        let mean = total_attempts as f64 / runs as f64;
        assert!(
            (mean - d as f64).abs() < d as f64 * 0.25,
            "mean attempts {mean} vs difficulty {d}"
        );
    }

    #[test]
    fn sampled_time_mean_matches_difficulty_over_hashrate() {
        let mut rng = SimRng::new(5);
        let hashrate = 1000.0;
        let difficulty = 600_000; // mean 600 s — Bitcoin's interval
        let n = 5000;
        let total: f64 = (0..n)
            .map(|_| sample_mining_time(&mut rng, hashrate, difficulty).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 600.0).abs() < 20.0, "mean {mean}");
    }

    #[test]
    fn sampled_and_real_distributions_agree() {
        // Ablation: coefficient of variation of an exponential is 1;
        // real mining attempt counts are geometric, which at large
        // difficulty converges to the same. Compare means and CVs.
        let d = 32u64;
        let mut real: Vec<f64> = Vec::new();
        for i in 0..400u64 {
            let mut h = header(Digest::ZERO, i);
            h.difficulty = d;
            h.timestamp_micros = 1_000 + i;
            real.push(mine_real(&mut h, 10_000_000).unwrap() as f64);
        }
        let mut rng = SimRng::new(6);
        let sampled: Vec<f64> = (0..400)
            .map(|_| sample_mining_time(&mut rng, 1.0, d).as_secs_f64())
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let cv = |v: &[f64]| {
            let m = mean(v);
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt() / m
        };
        let (mr, ms) = (mean(&real), mean(&sampled));
        assert!((mr - ms).abs() / ms < 0.3, "means {mr} vs {ms}");
        assert!((cv(&real) - 1.0).abs() < 0.3, "real cv {}", cv(&real));
        assert!(
            (cv(&sampled) - 1.0).abs() < 0.3,
            "sampled cv {}",
            cv(&sampled)
        );
    }
}
