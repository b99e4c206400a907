//! `udma-benchmark`: the repository's seeded benchmark.
//!
//! ```text
//! udma-benchmark --workload table1|ring|va_fault|cluster|all [--seed N]
//!                [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One workload per process, single-threaded. Every metric prints as
//! `METRIC <workload> <name> <value> <unit>`; the last stdout line is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (untraced) or the per-layer metrics (traced).
//! Results land in `target/benchmark/`. The exit code is non-zero if any
//! output check failed. `--workload all` runs each workload in a child
//! process of its own, one after another.

mod json;
mod metrics;
mod rng;
mod sut;
mod trace;
mod workloads;

use metrics::{quantile, ratio, sorted, Values, END_TO_END, PER_LAYER};
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{Recorder, Round};
use workloads::{Acc, Tally, Workload, WORKLOADS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Host seconds one run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// A host-rate sample covers at least this much timed-call time.
const BATCH_S: f64 = 0.010;
/// A full run takes at least this many host-rate samples.
const MIN_BATCHES: usize = 100;
/// A run stops here even if it has not reached its sample targets.
const HARD_CAP_S: f64 = 150.0;
/// Words the host reference fills and folds (256 KiB).
const REFERENCE_WORDS: usize = 32 * 1024;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => o.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if o.workload != "all" && !WORKLOADS.iter().any(|w| w.name == o.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {} or all", names.join(", ")));
    }
    if o.smoke {
        o.seconds = o.seconds.min(0.3);
    }
    Ok(o)
}

/// The host reference: a fixed piece of plain integer and memory work
/// (fill 256 KiB from a splitmix64 stream, then fold it), timed next to
/// every host sample. The machine the benchmark shares runs everything
/// slower for seconds at a time; a transfer rate multiplied by the
/// reference's duration measured at the same moment cancels most of
/// that drift.
struct Reference(Vec<u64>);

impl Reference {
    fn seconds(&mut self) -> f64 {
        let start = Instant::now();
        let mut rng = rng::Rng::for_round(0, 0);
        self.0.iter_mut().for_each(|w| *w = rng.next_u64());
        let folded = self.0.iter().fold(0u64, |a, &w| a.rotate_left(5) ^ w);
        black_box(folded);
        start.elapsed().as_secs_f64()
    }
}

/// Host samples: consecutive rounds grouped until their timed calls add
/// up to [`BATCH_S`]. Each batch yields a transfer rate, that rate in
/// transfers per reference duration, and the mean per-round set-up
/// time, so memory stays bounded by run time.
#[derive(Default)]
struct Batcher {
    run_s: f64,
    setup_s: f64,
    xfers: u64,
    rounds: u64,
    rates: Vec<f64>,
    per_ref: Vec<f64>,
    reference_s: Vec<f64>,
    setups: Vec<f64>,
}

impl Batcher {
    fn add(&mut self, run_s: f64, setup_s: f64, xfers: u64, reference: &mut Reference) {
        self.run_s += run_s;
        self.setup_s += setup_s;
        self.xfers += xfers;
        self.rounds += 1;
        if self.run_s >= BATCH_S {
            let rate = self.xfers as f64 / self.run_s;
            let ref_s = reference.seconds();
            self.rates.push(rate);
            self.per_ref.push(rate * ref_s);
            self.reference_s.push(ref_s);
            self.setups.push(self.setup_s / self.rounds as f64);
            (self.run_s, self.setup_s, self.xfers, self.rounds) = (0.0, 0.0, 0, 0);
        }
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.iter().copied()), 0.5)
}

/// Host-side totals of the traced rounds.
#[derive(Default)]
struct TracedHost {
    rounds: u64,
    setup_s: f64,
    verify_s: f64,
    tally: Tally,
}

struct Outcome {
    acc: Acc,
    /// Untraced rounds' host-rate samples.
    plain: Batcher,
    /// Traced rounds' host-rate samples (trace mode only).
    traced: Batcher,
    rounds: u64,
    host: TracedHost,
    recorder: Option<Recorder>,
}

/// Runs rounds of `w` until the time and sample targets are met. In
/// trace mode odd rounds are traced and even rounds are not, so the two
/// rates compare like with like.
fn run(w: &Workload, o: &Options) -> Outcome {
    let start = Instant::now();
    let mut recorder = o.trace.then(|| Recorder::new(start));
    let mut out = Outcome {
        acc: Acc::default(),
        plain: Batcher::default(),
        traced: Batcher::default(),
        rounds: 0,
        host: TracedHost::default(),
        recorder: None,
    };
    let min_batches = if o.smoke { 2 } else { MIN_BATCHES };
    let mut reference = Reference(vec![0; REFERENCE_WORDS]);
    for index in 0.. {
        let traced = o.trace && index % 2 == 1;
        let in_sim_set = index < w.sim_rounds;
        let rec = if traced { recorder.as_mut() } else { None };
        let mut rd = Round::new(index, in_sim_set, o.trace && in_sim_set, rec);
        let tally = (w.round)(&mut rd, &mut out.acc, o.seed);
        let (setup_s, run_s, verify_s) = (rd.setup_s, rd.run_s, rd.verify_s);
        drop(rd);
        out.rounds += 1;
        if traced {
            out.traced.add(run_s, setup_s, tally.xfers, &mut reference);
            let h = &mut out.host;
            h.rounds += 1;
            h.setup_s += setup_s;
            h.verify_s += verify_s;
            h.tally.xfers += tally.xfers;
            h.tally.faults += tally.faults;
            h.tally.events += tally.events;
        } else {
            out.plain.add(run_s, setup_s, tally.xfers, &mut reference);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let sampled = out.plain.rates.len() >= min_batches
            && (!o.trace || out.traced.rates.len() >= min_batches);
        let done = index + 1 >= w.sim_rounds
            && ((elapsed >= o.seconds && sampled) || elapsed >= HARD_CAP_S);
        if done {
            break;
        }
    }
    out.recorder = recorder;
    out
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn end_to_end(o: &Outcome, values: &mut Values, extra: &mut Values) -> Result<(), String> {
    metrics::sim_metrics(&o.acc, values);
    let b = &o.plain;
    values.insert("host_xfers_per_ref", median(&b.per_ref));
    values.insert("setup_s", median(&b.setups));
    values.insert("peak_rss_mib", peak_rss_mib().ok_or("cannot read VmHWM")?);
    extra.insert("host_xfers_per_ref.p10", quantile(&sorted(b.per_ref.iter().copied()), 0.1));
    extra.insert("host_xfers_per_s", median(&b.rates));
    extra.insert("host.reference_us", 1e6 * median(&b.reference_s));
    extra.insert("host.samples", b.rates.len() as f64);
    extra.insert("sim_xfer.samples", o.acc.latencies_ps.len() as f64);
    if o.acc.row_xfers.iter().all(|&n| n > 0) {
        extra.insert("table1_err_pct", metrics::table1_err_pct(&o.acc));
    }
    Ok(())
}

fn per_layer(o: &Outcome, values: &mut Values) {
    metrics::layer_metrics(&o.acc, values);
    let times = &o.recorder.as_ref().expect("traced runs keep a recorder").layers;
    let self_ns = |layer: &str| times.get(layer).map_or(0.0, |t| t.1 as f64);
    let h = &o.host;
    let (rounds, xfers) = (h.rounds as f64, h.tally.xfers as f64);
    values.insert("bus.sim.host_ns_per_event", ratio(self_ns("core.run"), h.tally.events as f64));
    values.insert("core.setup.host_ms_per_round", ratio(1e3 * h.setup_s, rounds));
    values.insert("core.run.host_us_per_xfer", ratio(self_ns("core.run") / 1e3, xfers));
    values.insert("core.post.host_us_per_xfer", ratio(self_ns("core.post") / 1e3, xfers));
    let fault_us = self_ns("os.fault_service") / 1e3;
    values.insert("os.fault_service.host_us_per_fault", ratio(fault_us, h.tally.faults as f64));
    values.insert("verify.host_ms_per_round", ratio(1e3 * h.verify_s, rounds));
    let (plain, traced) = (median(&o.plain.per_ref), median(&o.traced.per_ref));
    values.insert("trace.overhead_pct", 100.0 * ratio(plain - traced, plain));
}

/// Prints the per-layer self-time rollup of a traced run.
fn print_self_times(name: &str, rec: &Recorder) {
    let total: u64 = rec.layers.values().map(|t| t.1).sum();
    println!("# {name}: host self time by layer over traced rounds");
    for (layer, (all, own)) in &rec.layers {
        let share = 100.0 * ratio(*own as f64, total as f64);
        println!(
            "#   {layer:<18} self {:>10.3} ms ({share:5.1}%)  total {:>10.3} ms",
            *own as f64 / 1e6,
            *all as f64 / 1e6
        );
    }
}

fn run_one(w: &Workload, o: &Options) -> Result<bool, String> {
    let outcome = run(w, o);
    let acc = &outcome.acc;
    let correct = acc.failed == 0 && acc.attempted > 0;
    let mut values = Values::new();
    let mut extra = Values::new();
    extra.insert("fail_frac", ratio(acc.failed as f64, acc.attempted as f64));
    extra.insert("rounds", outcome.rounds as f64);
    let defs: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    if o.trace {
        per_layer(&outcome, &mut values);
        values.extend(extra.remove_entry("fail_frac"));
        metrics::sim_metrics(acc, &mut extra);
    } else {
        end_to_end(&outcome, &mut values, &mut extra)?;
    }
    for (name, unit) in defs {
        println!("METRIC {} {name} {} {unit}", w.name, values[name]);
    }
    for (name, value) in &extra {
        println!("METRIC {} {name} {value} -", w.name);
    }
    let summary = json::summary(correct, acc.attempted, acc.failed, defs, &values);
    let dir = Path::new("target").join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (path, body) = match &outcome.recorder {
        Some(rec) => {
            print_self_times(w.name, rec);
            let path = dir.join(format!("trace-{}-{}.json", w.name, o.seed));
            (path, json::trace(w.name, o.seed, rec, &values))
        }
        None => {
            let b = &outcome.plain;
            let series: [(&str, &[f64]); 4] = [
                ("host_xfers_per_s", &b.rates),
                ("host_xfers_per_ref", &b.per_ref),
                ("reference_s", &b.reference_s),
                ("setup_s", &b.setups),
            ];
            let path = dir.join(format!("{}.json", w.name));
            (path, json::results(w.name, o.seed, &summary, &extra, &series))
        }
    };
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{summary}");
    Ok(correct)
}

/// Runs every workload in a child process of its own, one at a time.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.as_str());
        }
    }
    let mut ok = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(&rest)
            .args(["--workload", w.name])
            .status()
            .map_err(|e| e.to_string())?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|o| match WORKLOADS.iter().find(|w| w.name == o.workload) {
        Some(w) => run_one(w, &o),
        None => run_all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("udma-benchmark: output checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("udma-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
