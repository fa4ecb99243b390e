//! The timing layer of the paper-figure bench targets (`opt_time`,
//! `bc_oracle`, `memo_expand`) and the `ablations` bin: the workspace's
//! only bench-side wall-clock reads, and the one writer of their
//! `BENCH_*.json` records.
//!
//! The build is offline, so the workspace cannot pull in criterion. A
//! bench opens a [`Record`], times each series with [`Record::sample`]
//! (one untimed warmup call, then `n` timed ones), and pushes the
//! resulting [`Stats`]. Every entry prints one line and, when
//! `MQO_BENCH_JSON=<path>` is set, lands in a JSON record at `path` with
//! its sample count `n`, its spread (`min`, `median`, `max`, in seconds),
//! the engine's `threads` and the machine's `cores`
//! ([`std::thread::available_parallelism`]).
//!
//! `MQO_BENCH_SAMPLES` sets `n` (default 5; values below 1 or
//! unparsable fall back to the default). Set it to 1 for a smoke run.

use std::time::{Duration, Instant};

/// Runs `f` once and returns its result with the wall-clock it took.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The spread of one series' samples.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Number of timed samples.
    pub n: usize,
    /// Fastest sample.
    pub min: Duration,
    /// Median sample (the upper median for even `n`).
    pub median: Duration,
    /// Slowest sample.
    pub max: Duration,
}

impl Stats {
    /// Summarizes a non-empty set of samples.
    pub fn of(mut samples: Vec<Duration>) -> Self {
        assert!(!samples.is_empty(), "a series needs at least one sample");
        samples.sort_unstable();
        Stats {
            n: samples.len(),
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
        }
    }
}

/// Formats a duration with a unit that keeps three significant decimals.
fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// One bench target's record: its series, printed as they are pushed and
/// written to `MQO_BENCH_JSON` by [`Record::finish`].
pub struct Record {
    bench: &'static str,
    samples: usize,
    cores: usize,
    entries: Vec<String>,
}

impl Record {
    /// Opens the record of bench `bench`; the sample count comes from
    /// `MQO_BENCH_SAMPLES`.
    pub fn new(bench: &'static str) -> Self {
        Record {
            bench,
            samples: std::env::var("MQO_BENCH_SAMPLES")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(5),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            entries: Vec::new(),
        }
    }

    /// Calls `f` once untimed, then `n` times, and summarizes the spans
    /// the timed calls return. Each call reports its own span, so a body
    /// can keep setup out of it (with [`measure`]) or hand back a time
    /// the library measured itself, such as `RunReport::opt_time`.
    pub fn sample(&self, mut f: impl FnMut() -> Duration) -> Stats {
        f();
        Stats::of((0..self.samples).map(|_| f()).collect())
    }

    /// Adds one series. `labels` name it (`("mode", "extract")`, ...),
    /// `counts` carry its deterministic sizes (`("evals", 6105)`, ...)
    /// and `threads` is the engine's worker count.
    pub fn push(
        &mut self,
        labels: &[(&str, &str)],
        counts: &[(&str, usize)],
        threads: usize,
        stats: Stats,
    ) {
        let id: Vec<&str> = labels.iter().map(|&(_, v)| v).collect();
        let sizes: String = counts.iter().map(|(k, v)| format!(" {k}={v}")).collect();
        println!(
            "{}/{}@{threads}: median {} [min {}, max {}] over {}{sizes}",
            self.bench,
            id.join("/"),
            fmt_duration(stats.median),
            fmt_duration(stats.min),
            fmt_duration(stats.max),
            stats.n,
        );
        let mut fields: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        fields.extend(counts.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        fields.push(format!("\"threads\": {threads}"));
        fields.push(format!("\"cores\": {}", self.cores));
        fields.push(format!("\"n\": {}", stats.n));
        for (k, d) in [
            ("min", stats.min),
            ("median", stats.median),
            ("max", stats.max),
        ] {
            fields.push(format!("\"{k}\": {:.9}", d.as_secs_f64()));
        }
        self.entries.push(format!("    {{{}}}", fields.join(", ")));
    }

    /// The JSON text of the record.
    fn json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"unit\": \"s\",\n  \"results\": [\n{}\n  ]\n}}\n",
            self.bench,
            self.entries.join(",\n")
        )
    }

    /// Writes the record to `MQO_BENCH_JSON` when it is set.
    pub fn finish(self) {
        if let Ok(path) = std::env::var("MQO_BENCH_JSON") {
            std::fs::write(&path, self.json()).expect("write MQO_BENCH_JSON record");
            println!("{}: record written to {path}", self.bench);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_at_least_once_and_reports() {
        let mut calls = 0usize;
        let mut rec = Record::new("timing_smoke");
        let stats = rec.sample(|| {
            calls += 1;
            Duration::from_micros(calls as u64)
        });
        // warmup + at least one sample
        assert!(calls >= 2, "{calls}");
        assert_eq!(stats.n, calls - 1);
        rec.push(&[("mode", "count")], &[("calls", calls)], 1, stats);
        let json = rec.json();
        for field in [
            "\"mode\": \"count\"",
            "\"threads\": 1",
            "\"cores\": ",
            "\"n\": ",
            "\"median\": ",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }

    #[test]
    fn stats_spread_is_ordered() {
        let s = Stats::of([3, 1, 2].map(Duration::from_millis).to_vec());
        assert_eq!(s.n, 3);
        assert_eq!(
            (s.min, s.median, s.max),
            (
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(3)
            )
        );
    }
}
