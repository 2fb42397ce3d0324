//! Simulated time.
//!
//! [`SimTime`] is both a point in simulated time and a duration
//! (microsecond resolution, starting at zero). The experiments span
//! twelve orders of magnitude — sub-millisecond vote propagation up to
//! multi-day ledger-growth projections — which comfortably fits in a
//! `u64` of microseconds (~584 000 years).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (or a duration), in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The farthest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Constructs from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Constructs from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000_000)
    }

    /// Constructs from fractional seconds, saturating at zero for
    /// negative inputs.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e6).round() as u64)
    }

    /// Value in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Duration scaled by an integer factor.
    #[allow(clippy::should_implement_trait)] // u64 scaling, not Mul<SimTime>
    pub fn mul(self, factor: u64) -> SimTime {
        SimTime(self.0 * factor)
    }

    /// Duration divided by an integer factor.
    #[allow(clippy::should_implement_trait)] // u64 division, not Div<SimTime>
    pub fn div(self, divisor: u64) -> SimTime {
        SimTime(self.0 / divisor)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let micros = self.0;
        if micros >= 60_000_000 {
            write!(f, "{:.2}min", micros as f64 / 60e6)
        } else if micros >= 1_000_000 {
            write!(f, "{:.3}s", micros as f64 / 1e6)
        } else if micros >= 1_000 {
            write!(f, "{:.2}ms", micros as f64 / 1e3)
        } else {
            write!(f, "{micros}µs")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1500));
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a + b, SimTime::from_secs(4));
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(a.mul(2), SimTime::from_secs(6));
        assert_eq!(a.div(3), SimTime::from_secs(1));
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_secs(4));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimTime::from_secs(1)),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimTime::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn conversions() {
        let t = SimTime::from_millis(1500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.as_millis(), 1500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_micros(5).to_string(), "5µs");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.00ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
        assert_eq!(SimTime::from_mins(5).to_string(), "5.00min");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(999) < SimTime::from_secs(1));
    }
}
