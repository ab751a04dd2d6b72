//! Explicit simulated time.
//!
//! The whole workspace runs on simulated time: the workload generator
//! schedules requests at [`SimTime`]s, the discrete-event simulator advances
//! a clock of the same type, and the analysis reads timestamps back out of
//! the logs. There is deliberately no conversion to wall-clock types —
//! everything is microseconds since the start of the simulated epoch.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (microseconds since the simulated epoch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulated epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Constructs from float seconds (negative or non-finite clamps to 0).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(s).as_micros())
    }

    /// Raw microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float (for signal processing).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One microsecond.
    pub const MICROSECOND: SimDuration = SimDuration(1);
    /// One millisecond.
    pub const MILLISECOND: SimDuration = SimDuration(1_000);
    /// One second.
    pub const SECOND: SimDuration = SimDuration(1_000_000);
    /// One minute.
    pub const MINUTE: SimDuration = SimDuration(60_000_000);
    /// One hour.
    pub const HOUR: SimDuration = SimDuration(3_600_000_000);
    /// One (simulated) day.
    pub const DAY: SimDuration = SimDuration(86_400_000_000);

    /// Constructs from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Constructs from float seconds (negative or non-finite clamps to 0).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "float → u64 saturates; input is checked finite and positive"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_finite() && s > 0.0 {
            SimDuration((s * 1e6).round() as u64)
        } else {
            SimDuration(0)
        }
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "Sub cannot return Result; a backwards clock is a caller bug"
    )]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("time went backwards"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 60_000_000 && us.is_multiple_of(60_000_000) {
            write!(f, "{}m", us / 60_000_000)
        } else if us >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if us >= 1_000 {
            write!(f, "{}ms", us / 1_000)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors_agree() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::MINUTE.as_secs(), 60);
        assert_eq!(SimDuration::DAY.as_secs(), 86_400);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 10_500_000);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
        assert_eq!(
            SimDuration::SECOND + SimDuration::MILLISECOND,
            SimDuration::from_micros(1_001_000)
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn subtracting_later_time_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn float_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_micros(), 1_250_000);
        assert_eq!(d.as_secs_f64(), 1.25);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimDuration::from_secs(90).to_string(), "90.000s");
        assert_eq!(SimDuration::from_secs(120).to_string(), "2m");
        assert_eq!(SimDuration::from_millis(30).to_string(), "30ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
    }
}
