//! Simulated time, durations, and throughput arithmetic.
//!
//! All timing models in the reproduction use nanosecond-resolution simulated
//! time. Two newtypes keep instants and spans from being confused
//! ([`SimTime`] vs [`SimDuration`]), and [`Throughput`] centralizes the
//! bytes-over-time conversions that bandwidth models perform constantly.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant on the simulated clock, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and only supports the arithmetic that makes
/// sense for instants: adding/subtracting a [`SimDuration`], and subtracting
/// another `SimTime` to obtain the span between them.
///
/// # Example
///
/// ```
/// use nds_sim::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_micros(30);
/// assert_eq!(t1 - t0, SimDuration::from_micros(30));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `nanos` nanoseconds after the epoch. Banned
    /// outside `nds-sim` by rule D3 (`clippy.toml`).
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the simulation epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation epoch, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use nds_sim::SimDuration;
///
/// let page_read = SimDuration::from_micros(50);
/// assert_eq!(page_read * 4, SimDuration::from_micros(200));
/// assert_eq!(page_read.as_secs_f64(), 50e-6);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(pub(crate) u64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span of `nanos` nanoseconds.
    ///
    /// Outside `nds-sim` this runtime constructor is banned by rule D3
    /// (`clippy.toml`): modeled time is built from the typed operators, and
    /// a calibration constant comes from [`nanos`](Self::nanos).
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// A span of `NANOS` nanoseconds, fixed at compile time: how a
    /// calibration constant enters modeled time.
    ///
    /// ```
    /// use nds_sim::SimDuration;
    ///
    /// assert_eq!(SimDuration::nanos::<3_400>(), SimDuration::from_nanos(3_400));
    /// ```
    pub const fn nanos<const NANOS: u64>() -> Self {
        SimDuration(NANOS)
    }

    /// A span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// A span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// A span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// A span from a float second count, rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in seconds, as a float (for rate computations and reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the longer of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is longer.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// True if this is the zero span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

/// A data rate, used to convert between byte volumes and time spans.
///
/// Bandwidth models in the reproduction constantly answer two questions —
/// "how long does moving N bytes take at rate R?" and "what rate did moving
/// N bytes in time T achieve?" — and `Throughput` answers both without unit
/// mistakes.
///
/// # Example
///
/// ```
/// use nds_sim::{SimDuration, Throughput};
///
/// let bw = Throughput::mib_per_sec(4096); // 4 GiB/s-class link
/// let t = bw.time_for_bytes(32 * 1024);
/// assert!(t > SimDuration::ZERO);
/// let back = Throughput::from_bytes_over(32 * 1024, t);
/// assert!((back.bytes_per_sec_f64() - bw.bytes_per_sec_f64()).abs() / bw.bytes_per_sec_f64() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Throughput {
    bytes_per_sec: f64,
}

impl Throughput {
    /// A rate of `bps` bytes per second.
    pub fn bytes_per_sec(bps: u64) -> Self {
        Throughput {
            bytes_per_sec: bps as f64,
        }
    }

    /// A rate of `mib` MiB per second.
    pub const fn mib_per_sec(mib: u64) -> Self {
        Throughput {
            bytes_per_sec: mib as f64 * 1_048_576.0,
        }
    }

    /// The rate achieved by moving `bytes` bytes in `span` time.
    ///
    /// A zero span yields an infinite rate; callers that can produce zero
    /// spans should guard for it.
    pub fn from_bytes_over(bytes: u64, span: SimDuration) -> Self {
        Throughput {
            bytes_per_sec: bytes as f64 / span.as_secs_f64(),
        }
    }

    /// The rate in bytes per second.
    pub fn bytes_per_sec_f64(self) -> f64 {
        self.bytes_per_sec
    }

    /// The rate in MiB per second (for reporting).
    pub fn as_mib_per_sec(self) -> f64 {
        self.bytes_per_sec / (1024.0 * 1024.0)
    }

    /// Time needed to move `bytes` at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero or non-finite.
    pub fn time_for_bytes(self, bytes: u64) -> SimDuration {
        assert!(
            self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0,
            "throughput must be positive and finite, got {}",
            self.bytes_per_sec
        );
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Scales the rate by a dimensionless factor (e.g. an efficiency < 1.0).
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Throughput {
            bytes_per_sec: self.bytes_per_sec * factor,
        }
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MiB/s", self.as_mib_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_instants_order_and_subtract() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(250);
        assert!(b > a);
        assert_eq!(b - a, SimDuration::from_nanos(150));
        assert_eq!(a.max(b), b);
        assert_eq!(b.saturating_since(a), SimDuration::from_nanos(150));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
        assert_eq!(d + d, SimDuration::from_micros(20));
        assert_eq!((d + d) - d, d);
        assert_eq!(d.saturating_sub(d * 5), SimDuration::ZERO);
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, d * 3);
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn throughput_round_trips() {
        let bw = Throughput::mib_per_sec(100);
        let t = bw.time_for_bytes(100 * 1024 * 1024);
        // 100 MiB at 100 MiB/s is one second.
        assert_eq!(t, SimDuration::from_secs(1));
        let measured = Throughput::from_bytes_over(100 * 1024 * 1024, t);
        assert!((measured.as_mib_per_sec() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_scaling() {
        let bw = Throughput::bytes_per_sec(1000);
        assert_eq!(bw.scaled(0.5).bytes_per_sec_f64(), 500.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_throughput_rejected() {
        let _ = Throughput::bytes_per_sec(0).time_for_bytes(1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
