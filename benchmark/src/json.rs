//! Hand-rolled JSON for the result line, the results file and the trace.

use crate::metrics::Values;
use crate::trace::Recorder;
use std::fmt::Write;

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metric_map(defs: &[(&str, &str)], values: &Values) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(values[name]))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The last stdout line.
pub fn summary(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[(&str, &str)],
    values: &Values,
) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metric_map(defs, values)
    )
}

/// `target/benchmark/<workload>.json`: the result line, the extra
/// diagnostics, and every host sample series.
pub fn results(
    workload: &str,
    seed: u64,
    summary: &str,
    extra: &Values,
    series: &[(&str, &[f64])],
) -> String {
    let extra: Vec<String> = extra.iter().map(|(k, v)| format!("\"{k}\":{}", num(*v))).collect();
    let series: Vec<String> = series
        .iter()
        .map(|(name, v)| {
            let v: Vec<String> = v.iter().map(|&x| num(x)).collect();
            format!("  \"{name}\":[{}]", v.join(","))
        })
        .collect();
    format!(
        "{{\n  \"workload\":\"{workload}\",\n  \"seed\":{seed},\n  \"result\":{summary},\n  \
         \"extra\":{{{}}},\n{}\n}}\n",
        extra.join(","),
        series.join(",\n")
    )
}

/// `target/benchmark/trace-<workload>-<seed>.json`: every span, the
/// per-layer self-time rollup, and the per-layer metrics.
pub fn trace(workload: &str, seed: u64, rec: &Recorder, values: &Values) -> String {
    let mut out = format!("{{\n\"workload\":\"{workload}\",\n\"seed\":{seed},\n\"spans\":[\n");
    for (id, s) in rec.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if id + 1 == rec.spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"round\":{}}}{sep}",
            s.name, s.layer, s.start_ns, s.end_ns, s.round
        );
    }
    let layers: Vec<String> = rec
        .layers
        .iter()
        .map(|(l, (all, own))| format!("\"{l}\":{{\"total_ns\":{all},\"self_ns\":{own}}}"))
        .collect();
    let metrics: Vec<String> = values.iter().map(|(k, v)| format!("\"{k}\":{}", num(*v))).collect();
    let _ = write!(
        out,
        "],\n\"self_time\":{{{}}},\n\"metrics\":{{{}}}\n}}\n",
        layers.join(","),
        metrics.join(",")
    );
    out
}
