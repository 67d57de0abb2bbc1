//! Simulated time.
//!
//! Everything in `adcast` runs on **virtual** microsecond timestamps: the
//! workload generator stamps events, the engines read event time, and the
//! benchmark harness measures wall time separately. Keeping simulated time
//! explicit makes every experiment replayable bit-for-bit.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since the stream epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Timestamp {
    /// The stream epoch.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self − earlier`.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// From whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// From whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Microseconds.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        self.since(rhs)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A monotonically advancing virtual clock.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Timestamp,
}

impl VirtualClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advance by `d` and return the new time.
    pub fn advance(&mut self, d: Duration) -> Timestamp {
        self.now += d;
        self.now
    }

    /// Jump to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time — simulated time is
    /// monotone by contract, and silently moving backwards would corrupt
    /// every decayed accumulator downstream.
    pub fn advance_to(&mut self, t: Timestamp) {
        assert!(
            t >= self.now,
            "clock moved backwards: {} -> {}",
            self.now,
            t
        );
        self.now = t;
    }
}

// ---------------------------------------------------------------------------
// Measurement time (nanoseconds)
// ---------------------------------------------------------------------------
//
// Simulated *event* time above is what the engines reason about; the items
// below are the *measurement* clock for latency spans, fsync timing, and
// admission deadlines. [`now_ns`] is monotonic wall time everywhere, the
// simulator included. [`SimClock`] is the simulated disk's own counter:
// `MemBackend` charges virtual fsync cost to it, and nothing else reads it.
// The `no-wallclock` lint bans raw `Instant::now()` in `core`/`durability`/
// `net` so every measurement goes through [`now_ns`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A manually advanced nanosecond counter for deterministic simulation.
/// Shared via `Arc`; the simulated disk advances it on every fsync.
#[derive(Debug, Default)]
pub struct SimClock {
    ns: AtomicU64,
}

impl SimClock {
    /// A clock at zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Jump to `ns` (saturating forward: never moves backwards).
    pub fn set_ns(&self, ns: u64) {
        self.ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Advance by `d` nanoseconds and return the new time.
    pub fn advance_ns(&self, d: u64) -> u64 {
        self.ns.fetch_add(d, Ordering::Relaxed) + d
    }
}

/// Monotonic wall nanoseconds since the first call in this process. This
/// is the sanctioned replacement for `Instant::now()` in
/// `core`/`durability`/`net`: span cost is `now_ns().saturating_sub(t0)`.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(std::time::Instant::now);
    origin.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10) + Duration::from_millis(500);
        assert_eq!(t.micros(), 10_500_000);
        assert_eq!(t - Timestamp::from_secs(10), Duration::from_millis(500));
        assert_eq!(
            Timestamp::from_secs(1) - Timestamp::from_secs(5),
            Duration::ZERO
        );
        assert_eq!(
            Duration::from_micros(3) + Duration::from_micros(4),
            Duration(7)
        );
    }

    #[test]
    fn float_conversions() {
        assert!((Timestamp::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
        assert!((Duration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn clock_advances() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), Timestamp::EPOCH);
        c.advance(Duration::from_secs(1));
        c.advance_to(Timestamp::from_secs(5));
        assert_eq!(c.now(), Timestamp::from_secs(5));
        c.advance_to(Timestamp::from_secs(5)); // equal is allowed
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn clock_rejects_backwards() {
        let mut c = VirtualClock::new();
        c.advance_to(Timestamp::from_secs(5));
        c.advance_to(Timestamp::from_secs(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Timestamp::from_secs(1)), "1.000s");
        assert_eq!(format!("{}", Duration::from_millis(250)), "0.250s");
    }

    #[test]
    fn wall_clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_advances_and_never_retreats() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance_ns(500), 500);
        c.set_ns(1_000);
        assert_eq!(c.now_ns(), 1_000);
        c.set_ns(400); // backwards set is a no-op
        assert_eq!(c.now_ns(), 1_000);
    }
}
