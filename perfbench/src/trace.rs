//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (no instrumentation inside the library): name, start, end and the
//! span that caused it. They stay in memory until the run ends, then
//! [`Tracer::dump`] writes them out. A span's self time is its duration
//! minus the part of its interval that its child spans cover.
//!
//! *Probe* spans re-run one layer in isolation after the job that caused
//! them has finished (for example, `explore` re-explores the root a
//! `valence.build` span explored, so the build can be split into its
//! exploration and its post-processing). Their parent is the causing
//! span, but they lie outside its interval, so they never reduce its
//! self time and never count towards the job's wall time.

use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or stage name (see [`LAYER_SPANS`]).
    pub name: &'static str,
    /// The job this span belongs to (shared by every span of one job).
    pub job: usize,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Offsets from the recorder's origin.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub explore_states: u64,
    pub explore_edges: u64,
    pub explore_peak_frontier: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub orbit_mass: u64,
    pub representatives: u64,
    pub valence_builds: u64,
    pub valence_states: u64,
    pub valence_bytes: u64,
    pub hook_tasks: u64,
    pub run_steps: u64,
    pub passes_forward: u64,
    pub passes_backward: u64,
}

/// The span recorder of one benchmark run. A recorder that is off
/// records nothing: its spans just run their closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: usize,
    pub counts: Counts,
}

impl Tracer {
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
            counts: Counts::default(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new job: later spans carry its identifier.
    pub fn next_job(&mut self) {
        self.job += 1;
    }

    /// Number of spans recorded so far (the index the next one gets).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Runs `f` inside a span nested under the currently open one.
    /// Returns `f`'s result and the span's index.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, usize) {
        let parent = self.stack.last().copied();
        self.record(name, parent, f)
    }

    /// Runs `f` as a probe span caused by span `cause` (see the module
    /// docs).
    pub fn probe<R>(&mut self, name: &'static str, cause: usize, f: impl FnOnce() -> R) -> R {
        self.record(name, Some(cause), |_| f()).0
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, usize) {
        if !self.enabled {
            return (f(self), usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed();
        (out, idx)
    }

    /// The spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Writes every span as one line of JSON to `out`.
    pub fn dump(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.job,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        Ok(())
    }
}

/// Span names whose self time is charged to a layer. Every other span
/// (a job, a stage) is structure, and its self time is unattributed.
pub const LAYER_SPANS: [&str; 10] = [
    "explore",
    "canon",
    "valence.build",
    "valence.drop",
    "init",
    "hook",
    "similarity",
    "refute",
    "prop",
    "census",
];

/// The layer spans that are probes (outside the job's wall time).
pub const PROBE_SPANS: [&str; 2] = ["explore", "canon"];

/// Self time of every span in `spans` (indices relative to the slice's
/// first span at `base`): duration minus the part of the interval the
/// span's children cover.
pub fn self_times(spans: &[Span], base: usize) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) else {
            continue;
        };
        let parent = &spans[p];
        let start = s.start.max(parent.start);
        let end = s.end.min(parent.end);
        if end > start {
            out[p] -= (end - start).as_secs_f64();
        }
    }
    out
}
