// mqo-lint: allow-file(wall-clock) -- the benchmark's one clock site: every time it reports is read here.
//! The clock and the summary statistics every reported time goes through.
//!
//! All wall-clock reads of the benchmark happen in this module, so a
//! reader can audit in one place what is timed and how it is summarized.

use std::time::{Duration, Instant};

/// The current instant.
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds between two instants (`0` if `b` precedes `a`).
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Sleeps until `t`; returns at once when `t` has passed.
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// `t` shifted forward by `secs` seconds.
pub fn after(t: Instant, secs: f64) -> Instant {
    t + Duration::from_secs_f64(secs)
}

/// Cores the process may run on (`std::thread::available_parallelism`).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Count, extremes and percentiles of a sample. Percentiles interpolate
/// linearly between the two nearest ranks, so a small sample still gives
/// a value that moves smoothly with its members.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n {} min {:.3} p50 {:.3} p90 {:.3} p99 {:.3} max {:.3}",
            self.n, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

impl Summary {
    /// Summarizes `samples` (all zeros when empty).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            min: v[0],
            p50: quantile(&v, 0.50),
            p90: quantile(&v, 0.90),
            p99: quantile(&v, 0.99),
            max: v[v.len() - 1],
        }
    }
}

/// The median of `samples` (`0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.min, s.p50, s.max), (3, 1.0, 2.0, 3.0));
        assert!((s.p90 - 2.8).abs() < 1e-12);
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
