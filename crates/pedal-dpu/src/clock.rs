//! Virtual time for the simulated DPU world.
//!
//! All performance results in the benchmark harnesses are expressed in
//! *virtual nanoseconds* produced by the calibrated cost model, so every
//! figure is reproducible bit-for-bit on any host. Real compression work
//! still happens (the codecs run for real); only *time* is virtual.

use std::sync::atomic::{AtomicU64, Ordering};

/// A virtual-time duration in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }
    pub fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }
    pub fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }
    /// Convert a (possibly fractional) millisecond figure.
    pub fn from_millis_f64(ms: f64) -> Self {
        debug_assert!(ms >= 0.0);
        Self((ms * 1e6).round() as u64)
    }
    pub fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn saturating_sub(self, other: Self) -> Self {
        Self(self.0.saturating_sub(other.0))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

/// Adaptive unit rendering shared by [`SimDuration`] and [`SimInstant`]:
/// `742ns`, `12.50µs`, `1.24ms`, `2.50s`.
fn fmt_ns(ns: u64, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    if ns < 1_000 {
        write!(f, "{ns}ns")
    } else if ns < 1_000_000 {
        write!(f, "{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        write!(f, "{:.2}ms", ns as f64 / 1e6)
    } else {
        write!(f, "{:.2}s", ns as f64 / 1e9)
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_ns(self.0, f)
    }
}

/// Instants render as time since the simulation epoch.
impl std::fmt::Display for SimInstant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_ns(self.0, f)
    }
}

/// An absolute virtual-time instant (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimInstant(pub u64);

impl SimInstant {
    pub const EPOCH: SimInstant = SimInstant(0);

    pub fn elapsed_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

/// Per-entity virtual clock. Each MPI rank / DPU owns one; message
/// timestamps merge clocks in the usual Lamport fashion (`merge` takes the
/// max), which is sufficient because our communication patterns are
/// deterministic.
#[derive(Debug)]
pub struct SimClock {
    now: AtomicU64,
}

impl SimClock {
    pub fn new() -> Self {
        Self { now: AtomicU64::new(0) }
    }

    pub fn now(&self) -> SimInstant {
        SimInstant(self.now.load(Ordering::Acquire))
    }

    /// Advance by a duration, returning the new now.
    pub fn advance(&self, d: SimDuration) -> SimInstant {
        SimInstant(self.now.fetch_add(d.0, Ordering::AcqRel) + d.0)
    }

    /// Merge an external timestamp: now = max(now, t). Returns the new now.
    pub fn merge(&self, t: SimInstant) -> SimInstant {
        let mut cur = self.now.load(Ordering::Acquire);
        while cur < t.0 {
            match self.now.compare_exchange_weak(cur, t.0, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return SimInstant(t.0),
                Err(actual) => cur = actual,
            }
        }
        SimInstant(cur)
    }

    /// Reset to the epoch (between benchmark repetitions).
    pub fn reset(&self) {
        self.now.store(0, Ordering::Release);
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_convert() {
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert!((SimDuration::from_millis_f64(1.5).as_millis_f64() - 1.5).abs() < 1e-9);
        assert_eq!(
            SimDuration::from_millis(1) + SimDuration::from_micros(500),
            SimDuration::from_micros(1_500)
        );
    }

    #[test]
    fn clock_advances_and_merges() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimInstant::EPOCH);
        c.advance(SimDuration::from_millis(10));
        assert_eq!(c.now().0, 10_000_000);
        // Merge with an older timestamp: no change.
        c.merge(SimInstant(5));
        assert_eq!(c.now().0, 10_000_000);
        // Merge with a newer one: jumps forward.
        c.merge(SimInstant(42_000_000));
        assert_eq!(c.now().0, 42_000_000);
    }

    #[test]
    fn merge_is_monotonic_under_contention() {
        let c = std::sync::Arc::new(SimClock::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    c.merge(SimInstant(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now().0, 7999);
    }

    #[test]
    fn instant_arithmetic() {
        let a = SimInstant(100);
        let b = a + SimDuration(50);
        assert_eq!(b.elapsed_since(a), SimDuration(50));
        assert_eq!(a.elapsed_since(b), SimDuration(0)); // saturating
    }

    #[test]
    fn display_picks_adaptive_units() {
        assert_eq!(SimDuration(742).to_string(), "742ns");
        assert_eq!(SimDuration(12_500).to_string(), "12.50µs");
        assert_eq!(SimDuration(1_240_000).to_string(), "1.24ms");
        assert_eq!(SimDuration(2_500_000_000).to_string(), "2.50s");
        assert_eq!(SimDuration::ZERO.to_string(), "0ns");
        assert_eq!(SimInstant(1_240_000).to_string(), "1.24ms");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = [SimDuration(1), SimDuration(2), SimDuration(3)].into_iter().sum();
        assert_eq!(total, SimDuration(6));
    }
}
