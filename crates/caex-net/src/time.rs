//! Virtual time for the discrete-event simulator.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in integer microseconds.
///
/// Integer micros keep the event queue total order exact (no float
/// comparison issues) while still expressing realistic network latencies
/// (the paper stresses that "the time of message passing is not
/// negligible", §2.1).
///
/// # Examples
///
/// ```
/// use caex_net::SimTime;
///
/// let t = SimTime::ZERO + SimTime::from_micros(150);
/// assert_eq!(t.as_micros(), 150);
/// assert_eq!(t - SimTime::from_micros(50), SimTime::from_micros(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point / duration from microseconds.
    #[must_use]
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time point / duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is more than `u64::MAX` microseconds, in
    /// every build profile.
    #[must_use]
    pub fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000) {
            Some(micros) => SimTime(micros),
            None => panic!("SimTime::from_millis overflow: {millis}ms"),
        }
    }

    /// Returns the value in microseconds.
    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the value in (truncated) milliseconds.
    #[must_use]
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating subtraction: goes to zero instead of underflowing.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if the sum passes `u64::MAX` microseconds, in every build
    /// profile: a wrapped sum would put a far-future time before now.
    fn add(self, rhs: SimTime) -> SimTime {
        match self.0.checked_add(rhs.0) {
            Some(micros) => SimTime(micros),
            None => panic!("SimTime addition overflow: {self} + {rhs}"),
        }
    }
}

impl AddAssign for SimTime {
    /// # Panics
    ///
    /// As [`SimTime::add`](Add::add).
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`, in every build profile:
    /// a wrapped difference would be some 584,000 years of virtual time.
    fn sub(self, rhs: SimTime) -> SimTime {
        match self.0.checked_sub(rhs.0) {
            Some(micros) => SimTime(micros),
            None => panic!("SimTime subtraction overflow: {self} - {rhs}"),
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_micros(100);
        let b = SimTime::from_micros(40);
        assert_eq!((a + b).as_micros(), 140);
        assert_eq!((a - b).as_micros(), 60);
        let mut c = a;
        c += b;
        assert_eq!(c.as_micros(), 140);
    }

    #[test]
    fn millis_conversion() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(2_500).as_millis(), 2);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    fn max_picks_later() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a.max(b), b);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        let _ = SimTime::from_micros(u64::MAX) + SimTime::from_micros(1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_assign_overflow_panics() {
        let mut t = SimTime::from_micros(u64::MAX - 1);
        t += SimTime::from_micros(2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn from_millis_overflow_panics() {
        let _ = SimTime::from_millis(u64::MAX / 1_000 + 1);
    }

    #[test]
    fn the_largest_sums_and_millis_are_exact() {
        let max = SimTime::from_micros(u64::MAX);
        assert_eq!(SimTime::from_micros(u64::MAX - 1) + SimTime::from_micros(1), max);
        assert_eq!(SimTime::from_millis(u64::MAX / 1_000).as_micros(), u64::MAX / 1_000 * 1_000);
    }
}
