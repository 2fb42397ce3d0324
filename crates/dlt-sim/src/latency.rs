//! Link-latency models.
//!
//! The paper attributes both blockchain fork rate (§IV-A) and Nano's
//! practical throughput ceiling (§VI-B) to "network conditions". The
//! experiments therefore sweep latency models; this module provides the
//! three shapes they use.

use crate::rng::SimRng;
use crate::time::SimTime;

/// A model of one-way message delay on a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(SimTime),
    /// Uniformly distributed delay in `[min, max]`.
    Uniform {
        /// Minimum delay.
        min: SimTime,
        /// Maximum delay (inclusive).
        max: SimTime,
    },
    /// Log-normal delay: long-tailed, the conventional WAN model.
    LogNormal {
        /// Median delay.
        median: SimTime,
        /// Log-space standard deviation (0.3–0.6 is WAN-like).
        sigma: f64,
    },
}

impl LatencyModel {
    /// A convenience WAN-ish default: log-normal, 80 ms median.
    pub fn wan() -> Self {
        LatencyModel::LogNormal {
            median: SimTime::from_millis(80),
            sigma: 0.4,
        }
    }

    /// A LAN-ish default: uniform 1–5 ms.
    pub fn lan() -> Self {
        LatencyModel::Uniform {
            min: SimTime::from_millis(1),
            max: SimTime::from_millis(5),
        }
    }

    /// Samples one message delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimTime {
        match *self {
            LatencyModel::Fixed(delay) => delay,
            LatencyModel::Uniform { min, max } => {
                debug_assert!(min <= max, "uniform latency range inverted");
                let lo = min.as_micros();
                let hi = max.as_micros();
                if lo == hi {
                    min
                } else {
                    SimTime::from_micros(rng.range(lo, hi + 1))
                }
            }
            LatencyModel::LogNormal { median, sigma } => {
                let sampled = rng.log_normal(median.as_micros() as f64, sigma);
                SimTime::from_micros(sampled.max(1.0) as u64)
            }
        }
    }

    /// The model's typical (median) delay, used for coarse analytics.
    pub fn typical(&self) -> SimTime {
        match *self {
            LatencyModel::Fixed(delay) => delay,
            LatencyModel::Uniform { min, max } => {
                SimTime::from_micros((min.as_micros() + max.as_micros()) / 2)
            }
            LatencyModel::LogNormal { median, .. } => median,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn fixed_is_constant() {
        let model = LatencyModel::Fixed(SimTime::from_millis(25));
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(model.sample(&mut rng), SimTime::from_millis(25));
        }
        assert_eq!(model.typical(), SimTime::from_millis(25));
    }

    #[test]
    fn uniform_respects_bounds() {
        let model = LatencyModel::Uniform {
            min: SimTime::from_millis(10),
            max: SimTime::from_millis(20),
        };
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let s = model.sample(&mut rng);
            assert!(s >= SimTime::from_millis(10) && s <= SimTime::from_millis(20));
        }
        assert_eq!(model.typical(), SimTime::from_millis(15));
    }

    #[test]
    fn uniform_degenerate_range() {
        let model = LatencyModel::Uniform {
            min: SimTime::from_millis(7),
            max: SimTime::from_millis(7),
        };
        let mut rng = SimRng::new(3);
        assert_eq!(model.sample(&mut rng), SimTime::from_millis(7));
    }

    #[test]
    fn log_normal_median_roughly_correct() {
        let model = LatencyModel::LogNormal {
            median: SimTime::from_millis(80),
            sigma: 0.4,
        };
        let mut rng = SimRng::new(4);
        let mut samples: Vec<u64> = (0..9999)
            .map(|_| model.sample(&mut rng).as_micros())
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64 / 1000.0;
        assert!((median - 80.0).abs() < 5.0, "median {median}ms");
        // Long tail exists:
        assert!(*samples.last().unwrap() > 160_000);
    }

    #[test]
    fn samples_are_never_zero_for_lognormal() {
        let model = LatencyModel::LogNormal {
            median: SimTime::from_micros(2),
            sigma: 2.0,
        };
        let mut rng = SimRng::new(5);
        assert!((0..1000).all(|_| model.sample(&mut rng) >= SimTime::from_micros(1)));
    }

    #[test]
    fn presets_have_sane_typicals() {
        assert_eq!(LatencyModel::wan().typical(), SimTime::from_millis(80));
        assert_eq!(LatencyModel::lan().typical(), SimTime::from_millis(3));
    }
}
