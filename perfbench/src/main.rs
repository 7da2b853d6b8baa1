//! Theorem-pipeline benchmark: time to verdict on three workloads, and
//! a traced replay that splits it layer by layer.
//!
//! ```text
//! perfbench --workload witness-suite|registers-check|atomic-quotient --seed N
//!           --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! One process, one thread. A workload is a closed loop of passes; a
//! pass runs every job of the workload once, one at a time, each job
//! starting after the previous verdict, in an order drawn from the
//! seed. Passes repeat while the next one is predicted to end within
//! `--seconds`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured
//! untraced. With `--trace 1` each untraced pass is followed by a
//! traced replay, and the metrics are the per-layer ones (medians over
//! the replays); the spans go to standard error. A job whose verdict
//! fails the gate is counted in `failed`, and the command exits 1. See
//! README.md for the metrics and the layer map.

mod trace;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{self_times, Tracer, LAYER_SPANS, PROBE_SPANS};
use workload::{Candidate, Job, Plan, Scale, Workload};

/// Variables the library reads as defaults. An inherited value would
/// silently change the program being measured, so the benchmark
/// refuses to run under any of them.
const REFUSED_ENV: [&str; 3] = ["SYMMETRY", "IOA_EXPLORE_THREADS", "IOA_EXPLORE_FRONTIER"];

/// Set-up builds the candidate systems, which takes microseconds, so it
/// is repeated this many times before the first pass, and `setup_s` is
/// the median repetition. Every pass runs on the candidates of the last.
const SETUP_REPS: usize = 1001;

struct Config {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload witness-suite|registers-check|atomic-quotient \
                     --seed N --seconds S --trace 0|1 [--scale full|tiny]";

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} wants a whole number"))
    };
    let config = Config {
        workload: Workload::parse(get("workload")?)
            .ok_or_else(|| format!("unknown workload {:?}", flags["workload"]))?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        },
        scale: match flags.get("scale").copied().unwrap_or("full") {
            "full" => Scale::Full,
            "tiny" => Scale::Tiny,
            other => return Err(format!("--scale wants full or tiny, got {other:?}")),
        },
    };
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "scale"].contains(k))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(config)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resets the kernel's peak-RSS mark of this process (`VmHWM`).
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!(
            "note: cannot reset the peak-RSS mark ({e}); peak_rss_mb covers the whole process"
        );
    }
}

/// The process's peak resident memory (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Job tallies and per-job verdict lines of a run.
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, job: &Job, verdict: &Result<String, String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("FAILED {}: {why}", job.label);
        }
    }
}

/// Runs every job once in `order`; returns the pass's wall time and
/// each job's verdict (indexed like `jobs`).
fn pass(
    jobs: &[Job],
    order: &[usize],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> (f64, Vec<Result<String, String>>) {
    let mut verdicts = vec![Err(String::new()); jobs.len()];
    let start = Instant::now();
    for &i in order {
        verdicts[i] = workload::run(&jobs[i], tr);
    }
    let secs = start.elapsed().as_secs_f64();
    for (job, verdict) in jobs.iter().zip(&verdicts) {
        tally.record(job, verdict);
    }
    (secs, verdicts)
}

/// Whether another round, as long as the median of the `rounds` so far,
/// still ends within the measuring window that began at `start`.
fn another_round(start: Instant, window: Duration, rounds: &[f64]) -> bool {
    rounds.is_empty() || start.elapsed().as_secs_f64() + median(rounds) <= window.as_secs_f64()
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The timed set-up: builds every planned job's candidate
/// [`SETUP_REPS`] times. Returns the median repetition's time and the
/// jobs on the last repetition's candidates.
fn setup(plans: &[Plan]) -> (f64, Vec<Job>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut candidates = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built: Vec<Candidate> = black_box(plans.iter().map(Plan::build).collect());
        times.push(start.elapsed().as_secs_f64());
        // The previous repetition's candidates drop here, untimed.
        candidates = built;
    }
    let jobs = plans.iter().zip(candidates).map(|(p, c)| p.job(c));
    (median(&times), jobs.collect())
}

/// The end-to-end run: untraced passes.
fn end_to_end(
    jobs: &[Job],
    order_rng: &mut ioa::rng::SplitMix64,
    window: Duration,
    setup_s: f64,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    reset_peak_rss();
    let mut off = Tracer::off();
    let mut passes = Vec::new();
    let start = Instant::now();
    while another_round(start, window, &passes) {
        let order = shuffled(jobs.len(), order_rng);
        passes.push(pass(jobs, &order, &mut off, tally).0);
    }
    eprintln!("passes: {} ({:?} s)", passes.len(), passes);
    Ok(vec![
        ("verdict_s", median(&passes), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("setup_s", setup_s, "s"),
    ])
}

/// The per-layer run: each untraced pass is followed by a traced replay
/// of the same jobs in the same order. Every metric is the median over
/// the rounds of its per-pass value.
fn per_layer(
    jobs: &[Job],
    order_rng: &mut ioa::rng::SplitMix64,
    window: Duration,
    tally: &mut Tally,
) -> Metrics {
    let mut off = Tracer::off();
    let mut tr = Tracer::on();
    let mut rounds: Vec<f64> = Vec::new();
    let mut per_round: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    while another_round(start, window, &rounds) {
        let round = Instant::now();
        let order = shuffled(jobs.len(), order_rng);
        let (untraced_s, untraced) = pass(jobs, &order, &mut off, tally);
        let mark = tr.mark();
        tr.counts = trace::Counts::default();
        let (traced_s, traced) = pass(jobs, &order, &mut tr, tally);
        for ((job, a), b) in jobs.iter().zip(&untraced).zip(&traced) {
            if let (Ok(a), Ok(b)) = (a, b) {
                if a != b {
                    // The replay reached another verdict than the call it
                    // replays: count it as a failed job.
                    tally.attempted += 1;
                    tally.failed += 1;
                    eprintln!("FAILED {}: replay diverged: {b} vs {a}", job.label);
                }
            }
        }
        per_round.push(layer_metrics(&tr, mark, untraced_s, traced_s));
        rounds.push(round.elapsed().as_secs_f64());
    }
    eprintln!("rounds: {} ({:?} s)", rounds.len(), rounds);
    let mut out = Vec::new();
    for (k, &(name, _, unit)) in per_round[0].iter().enumerate() {
        let values: Vec<f64> = per_round.iter().map(|m| m[k].1).collect();
        out.push((name, median(&values), unit));
    }
    if let Err(e) = tr.dump(&mut std::io::stderr().lock()) {
        eprintln!("cannot write the spans: {e}");
    }
    out
}

/// The per-layer metrics of one traced pass (spans from `mark` on).
fn layer_metrics(tr: &Tracer, mark: usize, untraced_s: f64, traced_s: f64) -> Metrics {
    let spans = tr.since(mark);
    let selfs = self_times(spans, mark);
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut job_s = 0.0;
    let mut covered = 0.0;
    for (s, own) in spans.iter().zip(&selfs) {
        if s.name == "job" {
            job_s += s.secs();
        }
        if LAYER_SPANS.contains(&s.name) {
            *layer.entry(s.name).or_insert(0.0) += own;
            if !PROBE_SPANS.contains(&s.name) {
                covered += own;
            }
        }
    }
    let busy = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| layer.get(n))
            .fold(0.0, |a, b| a + b)
    };
    let c = tr.counts;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    #[allow(clippy::cast_precision_loss)]
    let f = |x: u64| x as f64;
    let explore_s = busy(&["explore"]);
    vec![
        ("explore.busy_s", explore_s, "s"),
        ("explore.states", f(c.explore_states), "count"),
        ("explore.edges", f(c.explore_edges), "count"),
        (
            "explore.states_per_s",
            ratio(f(c.explore_states), explore_s),
            "1/s",
        ),
        ("explore.peak_frontier", f(c.explore_peak_frontier), "count"),
        (
            "effect_cache.hit_rate",
            ratio(f(c.cache_hits), f(c.cache_lookups)),
            "ratio",
        ),
        ("canon.busy_s", busy(&["canon"]), "s"),
        (
            "quotient.compression",
            ratio(f(c.orbit_mass), f(c.representatives)),
            "ratio",
        ),
        // Each `explore` probe re-runs the exploration inside one
        // `valence.build` span; the rest of the build is valence's own.
        (
            "valence.self_s",
            busy(&["valence.build", "valence.drop"]) - explore_s,
            "s",
        ),
        ("valence.builds", f(c.valence_builds), "count"),
        ("valence.states_total", f(c.valence_states), "count"),
        ("valence.bytes", f(c.valence_bytes), "bytes"),
        ("init.busy_s", busy(&["init"]), "s"),
        ("hook.busy_s", busy(&["hook"]), "s"),
        ("hook.tasks", f(c.hook_tasks), "count"),
        ("similarity.busy_s", busy(&["similarity"]), "s"),
        ("refute.busy_s", busy(&["refute"]), "s"),
        ("refute.run_steps", f(c.run_steps), "count"),
        ("prop.busy_s", busy(&["prop"]), "s"),
        ("prop.passes_forward", f(c.passes_forward), "count"),
        ("prop.passes_backward", f(c.passes_backward), "count"),
        ("census.busy_s", busy(&["census"]), "s"),
        ("trace.replay_ratio", ratio(job_s, untraced_s), "ratio"),
        ("trace.coverage", ratio(covered, job_s), "ratio"),
        ("trace.overhead_s", traced_s - untraced_s, "s"),
    ]
}

fn shuffled(n: usize, rng: &mut ioa::rng::SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "error: {var} is set; unset it, the benchmark passes its configuration explicitly"
        );
        return ExitCode::from(2);
    }

    let (setup_s, jobs) = setup(&workload::plan(config.workload, config.scale));

    // The job order of every pass: a stream of its own, derived from
    // the seed.
    let mut order_rng = ioa::rng::SplitMix64::seed_from_u64(config.seed).split();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let window = Duration::from_secs(config.seconds);
    let metrics = if config.trace {
        per_layer(&jobs, &mut order_rng, window, &mut tally)
    } else {
        match end_to_end(&jobs, &mut order_rng, window, setup_s, &mut tally) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
