//! Client-side retry with exponential backoff and decorrelated jitter.
//!
//! Transient service errors — [`QueueFull`](crate::ServeError::QueueFull)
//! under load, an injected-fault window failure — are worth one or a few
//! spaced retries before giving up. [`RetryPolicy`] describes the spacing:
//! the classic decorrelated-jitter scheme (`sleep = min(cap,
//! uniform(base, 3 × previous))`), bounded both by an attempt count and by
//! a total sleep *budget* so a saturated service sheds clients instead of
//! accumulating an unbounded convoy of sleepers.
//!
//! Jitter draws come from the seeded [`splitmix64`](crate::faults) mixer,
//! so a retried workload is exactly reproducible — the property the chaos
//! suite leans on. [`Session`](crate::Session) and the `loadgen` bench
//! client both route their requests through
//! [`ServiceHandle::execute_with_retry`](crate::ServiceHandle::execute_with_retry) /
//! [`submit_with_retry`](crate::ServiceHandle::submit_with_retry), which
//! own the `retries` accounting.

use crate::faults::splitmix64;
use std::time::Duration;

/// Backoff shape and limits for retried requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Minimum (and first) sleep between attempts.
    pub base: Duration,
    /// Ceiling on any single sleep.
    pub cap: Duration,
    /// Maximum number of *retries* (attempts − 1). `0` disables retrying.
    pub max_retries: u32,
    /// Total sleep budget across all retries of one request; once spent,
    /// the request fails with its last error.
    pub budget: Duration,
    /// Seed for the jitter stream (deterministic per policy value).
    pub seed: u64,
}

impl RetryPolicy {
    /// A modest default: up to 4 retries, 1 ms base, 50 ms cap, 250 ms
    /// total budget.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            max_retries: 4,
            budget: Duration::from_millis(250),
            seed,
        }
    }

    /// A policy that never retries (single attempt).
    #[must_use]
    pub fn none() -> Self {
        Self {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            max_retries: 0,
            budget: Duration::ZERO,
            seed: 0,
        }
    }

    /// The sleep sequence this policy prescribes: at most
    /// [`max_retries`](Self::max_retries) delays, each in
    /// `[base, cap]`, summing to at most [`budget`](Self::budget).
    pub(crate) fn delays(&self) -> Backoff {
        Backoff {
            base: self.base,
            cap: self.cap,
            prev: self.base,
            left: self.max_retries,
            budget: self.budget,
            state: self.seed,
        }
    }
}

/// Iterator over decorrelated-jitter delays (see [`RetryPolicy::delays`]).
#[derive(Debug)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    left: u32,
    budget: Duration,
    state: u64,
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.left == 0 || self.budget.is_zero() {
            return None;
        }
        self.left -= 1;
        self.state = splitmix64(self.state);
        let base_us = self.base.as_micros() as u64;
        let upper_us = (self.prev.as_micros() as u64)
            .saturating_mul(3)
            .max(base_us);
        // uniform in [base, upper] — the decorrelated-jitter draw.
        let span = upper_us - base_us + 1;
        let sleep_us = (base_us + self.state % span).min(self.cap.as_micros() as u64);
        let sleep = Duration::from_micros(sleep_us).min(self.budget);
        self.prev = sleep.max(self.base);
        self.budget -= sleep;
        Some(sleep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_per_seed() {
        let a: Vec<_> = RetryPolicy::new(7).delays().collect();
        let b: Vec<_> = RetryPolicy::new(7).delays().collect();
        let c: Vec<_> = RetryPolicy::new(8).delays().collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds jitter differently");
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn delays_respect_base_cap_and_budget() {
        let policy = RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(10),
            max_retries: 100,
            budget: Duration::from_millis(40),
            seed: 123,
        };
        let delays: Vec<_> = policy.delays().collect();
        let total: Duration = delays.iter().sum();
        assert!(total <= policy.budget, "{total:?} > {:?}", policy.budget);
        // Every delay before budget exhaustion honours [base, cap].
        for d in &delays[..delays.len() - 1] {
            assert!(*d >= policy.base && *d <= policy.cap, "{d:?}");
        }
        assert!(delays.len() < 100, "budget stops the sequence early");
    }

    #[test]
    fn none_never_sleeps() {
        assert_eq!(RetryPolicy::none().delays().count(), 0);
    }
}
