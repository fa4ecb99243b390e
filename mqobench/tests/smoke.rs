//! Smoke test of the benchmark: every workload at smoke size on a seed
//! other than the default prints every metric `BENCHMARK.json` names, each
//! finite, and a corrupted reference cost makes the run fail.
//!
//! Run with `cargo test --release --manifest-path mqobench/Cargo.toml`.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["batch-10k", "batch-stream", "serve-churn"];

fn run(workload: &str, trace: bool, corrupt: bool) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mqobench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--smoke", "1", "--corrupt", if corrupt { "1" } else { "0" }])
        .output()
        .expect("run the benchmark binary")
}

/// Metric names of one `BENCHMARK.json` section: every `"name"` between
/// the section's key and the next section's.
fn names(section: &str, next: Option<&str>) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let from = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let to = next.map_or(text.len(), |n| {
        text.find(&format!("\"{n}\"")).expect("next section")
    });
    text[from..to]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The value printed for `metric` on the result line.
fn value(result: &str, metric: &str) -> f64 {
    let key = format!("\"{metric}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("{metric} missing"));
    let rest = &result[at + key.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .unwrap_or_else(|_| panic!("{metric} is not a number"))
}

#[test]
fn every_metric_is_printed_and_finite() {
    for (trace, section, next) in [
        (false, "end_to_end", Some("per_layer")),
        (true, "per_layer", None),
    ] {
        let expected = names(section, next);
        assert!(!expected.is_empty());
        for w in WORKLOADS {
            let out = run(w, trace, false);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().expect("result line");
            assert!(result.starts_with("{\"correct\": true"), "{result}");
            for m in &expected {
                assert!(value(result, m).is_finite(), "{w}: {m}");
            }
        }
    }
}

#[test]
fn a_corrupted_expected_cost_fails_the_run() {
    for w in WORKLOADS {
        let out = run(w, false, true);
        assert!(!out.status.success(), "{w} passed with a corrupted check");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout
            .lines()
            .last()
            .unwrap_or("")
            .starts_with("{\"correct\": false"));
    }
}
