//! Host-time spans around the benchmark's calls into the simulator.
//!
//! A [`Round`] times every call a workload makes, adding its duration
//! to the round's set-up, run or verify total; in a traced round it also
//! records a [`Span`] per call, each a child of the round's own span.

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept for the trace file; later spans still count in the
/// per-layer totals.
const MAX_SPANS: usize = 20_000;

/// Which host total a call counts toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Building machines or clusters, spawning, registering, granting,
    /// pinning and posting ahead of the run: `setup_s`.
    Setup,
    /// The timed calls: `host_xfers_per_ref`.
    Run,
    /// Output checks and record reads.
    Verify,
    /// The benchmark's own work: input generation, stats reads.
    Bench,
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Nanoseconds since the run started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub round: u64,
}

/// The spans of a traced run, kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    /// The first [`MAX_SPANS`] spans.
    pub spans: Vec<Span>,
    /// Per layer: (total ns, self ns) over every span, kept or not. Self
    /// time is a span's duration minus the part its children cover.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder { origin, spans: Vec::new(), layers: BTreeMap::new() }
    }

    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Keeps `span` if there is room; returns its index.
    fn keep(&mut self, span: Span) -> Option<usize> {
        (self.spans.len() < MAX_SPANS).then(|| {
            self.spans.push(span);
            self.spans.len() - 1
        })
    }

    fn account(&mut self, layer: &'static str, total: u64, children: u64) {
        let e = self.layers.entry(layer).or_default();
        e.0 += total;
        e.1 += total.saturating_sub(children);
    }
}

/// A traced round's own span, open until the round ends.
struct RoundSpan<'a> {
    rec: &'a mut Recorder,
    start_ns: u64,
    kept: Option<usize>,
    children_ns: u64,
}

/// One round's host timing, and its spans when traced.
pub struct Round<'a> {
    pub index: u64,
    /// This round's results enter the sim-clock metrics.
    pub in_sim_set: bool,
    /// Read every layer's stats accessors after the timed region.
    pub read_stats: bool,
    pub setup_s: f64,
    pub run_s: f64,
    pub verify_s: f64,
    span: Option<RoundSpan<'a>>,
}

impl<'a> Round<'a> {
    pub fn new(
        index: u64,
        in_sim_set: bool,
        read_stats: bool,
        recorder: Option<&'a mut Recorder>,
    ) -> Round<'a> {
        let span = recorder.map(|rec| {
            let start_ns = rec.ns();
            let round = Span {
                name: "round",
                layer: "bench",
                start_ns,
                end_ns: start_ns,
                parent: None,
                round: index,
            };
            let kept = rec.keep(round);
            RoundSpan { rec, start_ns, kept, children_ns: 0 }
        });
        Round { index, in_sim_set, read_stats, setup_s: 0.0, run_s: 0.0, verify_s: 0.0, span }
    }

    /// Runs `f` — one call into the simulator, or one check — and
    /// charges its host time to `phase` (and to a span when traced).
    pub fn call<T>(
        &mut self,
        phase: Phase,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.span.as_ref().map(|s| s.rec.ns());
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if let (Some(s), Some(start_ns)) = (self.span.as_mut(), start_ns) {
            let end_ns = s.rec.ns();
            let span = Span { name, layer, start_ns, end_ns, parent: s.kept, round: self.index };
            s.rec.keep(span);
            s.rec.account(layer, end_ns - start_ns, 0);
            s.children_ns += end_ns - start_ns;
        }
        match phase {
            Phase::Setup => self.setup_s += secs,
            Phase::Run => self.run_s += secs,
            Phase::Verify => self.verify_s += secs,
            Phase::Bench => {}
        }
        out
    }
}

impl Drop for Round<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.span.as_mut() {
            let end_ns = s.rec.ns();
            if let Some(id) = s.kept {
                s.rec.spans[id].end_ns = end_ns;
            }
            s.rec.account("bench", end_ns - s.start_ns, s.children_ns);
        }
    }
}
