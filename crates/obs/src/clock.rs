//! The repo's single wall-clock authority.
//!
//! Every timing read in the instrumented crates (tensor, models,
//! tokenizers, eval, recipedb, serving, ratatouille) goes through
//! [`Clock`]; `clippy.toml` bans `std::time::Instant::now` and
//! `SystemTime` there (`scripts/ci.sh` lints those crates and not obs),
//! so this module is the one place a wall clock can enter the system. Telemetry
//! derived from it (metrics, request traces) is write-only from the computation's
//! point of view — nothing downstream of a [`Stamp`] can feed back into
//! losses, weights or generated tokens, which is what keeps the §4b
//! determinism contract intact with instrumentation always on.
//!
//! Stamps are nanoseconds since a lazily-initialized process epoch, so
//! they are plain `u64`s: cheap to move across channels (the worker pools
//! send enqueue stamps with each job) and directly usable as histogram
//! samples.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process epoch (the first clock read).
pub fn epoch_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The process-wide monotonic clock. Stateless; exists so call sites read
/// as `Clock::now()` and grep for exactly one timing idiom.
pub struct Clock;

impl Clock {
    /// Take a monotonic stamp.
    pub fn now() -> Stamp {
        Stamp { at_ns: epoch_ns() }
    }
}

/// A moment taken from [`Clock::now`], as ns since the process epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    at_ns: u64,
}

impl Stamp {
    /// Nanoseconds since the process epoch at stamp time.
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// Nanoseconds elapsed since this stamp was taken.
    pub fn elapsed_ns(&self) -> u64 {
        epoch_ns().saturating_sub(self.at_ns)
    }

    /// Seconds elapsed since this stamp was taken.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_monotonic() {
        let a = Clock::now();
        let b = Clock::now();
        assert!(b.at_ns() >= a.at_ns());
        assert!(a.elapsed_ns() >= b.at_ns() - a.at_ns());
    }

    #[test]
    fn elapsed_advances() {
        let s = Clock::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(s.elapsed_ns() >= 1_000_000, "{}", s.elapsed_ns());
        assert!(s.elapsed_secs() > 0.0);
    }
}
