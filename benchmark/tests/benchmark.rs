//! Self-tests of the benchmark, driving the built binary in `--smoke`
//! mode.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["table1", "ring", "va_fault", "cluster"];

/// Units of metrics that must repeat exactly for a given seed.
const EXACT_UNITS: [&str; 4] = ["sim_us", "count", "ratio", "%"];

struct Run {
    /// Every `METRIC` line: name → (value, unit).
    metrics: BTreeMap<String, (f64, String)>,
    /// The last stdout line.
    summary: String,
    success: bool,
}

fn bench(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_udma-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut metrics = BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with("METRIC ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 5, "malformed metric line {line}");
        metrics.insert(f[2].to_string(), (f[3].parse().expect("numeric value"), f[4].to_string()));
    }
    let summary = stdout.lines().last().unwrap_or_default().to_string();
    Run { metrics, summary, success: out.status.success() }
}

fn smoke(workload: &str, seed: u64, trace: bool) -> Run {
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let run = bench(&["--workload", workload, "--seed", &seed, "--trace", trace, "--smoke"]);
    assert!(run.success, "{workload} seed {seed} trace {trace} failed: {}", run.summary);
    assert!(run.summary.starts_with("{\"correct\":true,"), "{}", run.summary);
    run
}

/// The metrics of `run` that are a pure function of the seed.
fn exact(run: &Run) -> BTreeMap<String, f64> {
    let host_derived = |name: &str| name == "trace.overhead_pct" || name.contains("host");
    run.metrics
        .iter()
        .filter(|(name, (_, unit))| EXACT_UNITS.contains(&unit.as_str()) && !host_derived(name))
        .map(|(name, (v, _))| (name.clone(), *v))
        .collect()
}

fn sim(run: &Run) -> BTreeMap<String, f64> {
    let keys = ["sim_init_us", "sim_xfer_p50_us", "sim_xfer_p99_us"];
    keys.iter().map(|k| (k.to_string(), run.metrics[*k].0)).collect()
}

#[test]
fn same_seed_repeats_sim_metrics_and_layer_counters() {
    for w in WORKLOADS {
        assert_eq!(sim(&smoke(w, 11, false)), sim(&smoke(w, 11, false)), "{w}");
        let (a, b) = (smoke(w, 11, true), smoke(w, 11, true));
        assert!(exact(&a).len() > 30, "{w}: too few exact per-layer metrics");
        assert_eq!(exact(&a), exact(&b), "{w}");
    }
}

#[test]
fn another_seed_changes_inputs_and_still_passes_checks() {
    for w in WORKLOADS {
        assert_ne!(sim(&smoke(w, 11, false)), sim(&smoke(w, 12, false)), "{w}");
    }
}

#[test]
fn traced_run_reproduces_untraced_sim_metrics() {
    for w in WORKLOADS {
        let traced = smoke(w, 3, true);
        assert_eq!(sim(&traced), sim(&smoke(w, 3, false)), "{w}");
        assert!(traced.metrics.contains_key("trace.overhead_pct"), "{w}");
        let trace = format!("target/benchmark/trace-{w}-3.json");
        assert!(Path::new(&trace).is_file(), "{trace} not written");
    }
}

/// Names in `"name": "..."` fields of `text`.
fn names(text: &str) -> Vec<String> {
    text.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

/// Metric names in a result line's `"metrics"` object.
fn summary_names(summary: &str) -> Vec<String> {
    let metrics = summary.split("\"metrics\":").nth(1).expect("metrics object");
    let pieces: Vec<&str> = metrics.split(":{\"value\"").collect();
    let keys = &pieces[..pieces.len() - 1];
    keys.iter().filter_map(|s| s.rsplit('"').nth(1).map(str::to_string)).collect()
}

#[test]
fn emitted_names_match_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let (head, per_layer) = spec.split_once("\"per_layer\"").expect("per_layer section");
    let (workloads, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end section");
    assert_eq!(names(workloads), WORKLOADS);
    for w in WORKLOADS {
        assert_eq!(summary_names(&smoke(w, 1, false).summary), names(end_to_end), "{w}");
        assert_eq!(summary_names(&smoke(w, 1, true).summary), names(per_layer), "{w}");
    }
}

#[test]
fn smoke_runs_stay_under_ten_seconds() {
    let start = Instant::now();
    let run = bench(&["--workload", "all", "--smoke"]);
    assert!(run.success, "{}", run.summary);
    assert!(start.elapsed() < Duration::from_secs(10), "all smoke runs took {:?}", start.elapsed());
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--workload", "ring", "--trace", "2"]] {
        let run = bench(args);
        assert!(!run.success);
        assert!(!run.summary.contains("\"correct\""));
    }
}

#[test]
fn source_is_rustfmt_clean() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let status = Command::new(env!("CARGO"))
        .args(["fmt", "--check", "--manifest-path", manifest])
        .status()
        .expect("cargo fmt runs");
    assert!(status.success(), "run `cargo fmt --manifest-path benchmark/Cargo.toml`");
}

#[test]
fn source_is_clippy_clean() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let target = concat!(env!("CARGO_MANIFEST_DIR"), "/target/clippy");
    let status = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--all-targets", "--manifest-path", manifest])
        .args(["--", "-D", "warnings"])
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("cargo clippy runs");
    assert!(status.success(), "clippy warnings in the benchmark crate");
}
