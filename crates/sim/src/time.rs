//! Virtual time types.
//!
//! Virtual time is a `u64` count of nanoseconds since the start of the
//! simulation — enough for ~584 simulated years, far beyond any experiment in
//! this workspace. Durations are a separate type so that adding two absolute
//! times is a compile error.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the virtual clock (nanoseconds since start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to (lossy) floating-point seconds — for reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`; saturates at zero if `earlier` is
    /// actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from floating-point seconds (rounds to nanoseconds;
    /// negative and non-finite inputs clamp to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration(round_nanos(s * 1e9))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to (lossy) floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// `true` if this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time a transfer of `bytes` takes at `bytes_per_sec` throughput.
    ///
    /// A zero or non-finite rate yields `ZERO` (infinitely fast resources are
    /// how models disable a stage of a path).
    pub fn for_transfer(bytes: u64, bytes_per_sec: f64) -> SimDuration {
        if bytes == 0 || bytes_per_sec.is_nan() || bytes_per_sec <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }
}

/// `x.round() as u64` for a positive `x`, without the call: the default
/// x86-64 target has no rounding instruction, so `f64::round` is a software
/// routine, and this sits under every transfer time. Below 2⁵² the
/// truncation `t` and the fraction `x - t` are exact, so the tie test is
/// exact; from 2⁵² on `x` is already whole and the fraction is 0. The cast
/// saturates at `u64::MAX` (infinity included), and so does the increment.
fn round_nanos(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs > self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k.max(1))
    }
}

/// Exact to the nanosecond, like [`SimDuration`]'s `Debug`.
impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:?}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

/// Exact to the nanosecond: `Debug` text keys the sweep memo cache, so two
/// spans a nanosecond apart must not print alike. `Display` rounds.
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (secs, nanos) = (self.0 / 1_000_000_000, self.0 % 1_000_000_000);
        write!(f, "{secs}.{nanos:09}s")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_nanos(100);
        let t2 = t + SimDuration::from_nanos(50);
        assert_eq!(t2.as_nanos(), 150);
        assert_eq!(t2 - t, SimDuration::from_nanos(50));
        assert_eq!(t.saturating_since(t2), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time() {
        // 1000 bytes at 1000 B/s = 1 second.
        assert_eq!(
            SimDuration::for_transfer(1000, 1000.0),
            SimDuration::from_secs(1)
        );
        // Infinitely fast resource.
        assert_eq!(SimDuration::for_transfer(1000, 0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::for_transfer(0, 100.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 2, SimDuration::from_secs(5));
        assert_eq!(d / 0, d); // divide-by-zero guards to identity
    }

    #[test]
    fn debug_is_exact_to_the_nanosecond() {
        let d = |ns| format!("{:?}", SimDuration::from_nanos(ns));
        assert_ne!(d(1), d(2));
        assert_eq!(d(1), "0.000000001s");
        assert_eq!(
            format!("{:?}", SimDuration::from_secs_f64(1.5)),
            "1.500000000s"
        );
        assert_eq!(
            format!("{:?}", SimTime::from_nanos(1_500_000_000)),
            "t=1.500000000s"
        );
        assert_ne!(
            format!("{:?}", SimTime::from_nanos(1)),
            format!("{:?}", SimTime::from_nanos(2))
        );
        // `Display` keeps its microsecond rounding.
        assert_eq!(SimDuration::from_nanos(1).to_string(), "0.000000");
    }

    /// `round_nanos` agrees with `f64::round` (then the saturating cast)
    /// wherever the truncation trick could slip: on every half-nanosecond
    /// tie and the floats either side of it, at the 2⁵², 2⁵³ and 2⁶⁴
    /// boundaries, on subnormals and at the top of the range, and on a
    /// seeded sweep across every binade up to 2⁷⁰.
    #[test]
    fn round_nanos_matches_f64_round() {
        let check = |x: f64| {
            assert_eq!(
                round_nanos(x),
                x.round() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        };
        let around = |x: f64| {
            for y in [x.next_down(), x, x.next_up()] {
                if y > 0.0 {
                    check(y);
                }
            }
        };
        // Ties k + 0.5 (exact below 2⁵²) at small k and just under 2⁵².
        for k in (0..100_000u64).chain((1u64 << 52) - 100_000..1 << 52) {
            around(k as f64 + 0.5);
        }
        for bit in [52, 53, 63, 64] {
            let b = (1u64 << 52) as f64 * (1u64 << (bit - 52)) as f64;
            around(b);
            around(b - 0.5);
            around(b + 0.5);
        }
        around(u64::MAX as f64);
        for x in [
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_down(),
            f64::MAX,
            f64::INFINITY,
        ] {
            check(x);
        }
        assert_eq!(round_nanos(f64::MAX), u64::MAX, "saturates, never wraps");
        assert_eq!(round_nanos(f64::INFINITY), u64::MAX);
        // Seeded sweep: a random mantissa in every binade from 2⁻²⁰ to 2⁷⁰.
        let mut state = 0x5EED_2026u64;
        for _ in 0..(1 << 20) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let exp = 1023 - 20 + (state >> 52) % 91;
            check(f64::from_bits(exp << 52 | state & ((1 << 52) - 1)));
        }
        // And through the public constructor.
        assert_eq!(SimDuration::from_secs_f64(2.5e-9).as_nanos(), 3);
        assert_eq!(
            SimDuration::from_secs_f64(1e300),
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn saturation_at_extremes() {
        let big = SimDuration::from_nanos(u64::MAX);
        assert_eq!(big + big, big);
        assert_eq!(SimTime::MAX + big, SimTime::MAX);
    }
}
