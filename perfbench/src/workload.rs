//! The three workloads, their jobs, and the verdict gate.
//!
//! A job is one theorem-pipeline call on one candidate system. Every
//! job starts from a fresh clone of a candidate built at set-up, so the
//! per-system symmetry-audit memo and every effect cache start cold, as
//! they do for one `repro` invocation. Every job passes `threads = 1`
//! and `SymmetryMode::Full` explicitly.
//!
//! Untraced, a `find_witness` job makes the one library call. Traced,
//! it replays the pipeline's five stages from public calls with a span
//! around each (see [`replay_witness`]), and its verdict must match
//! the untraced one.

use crate::trace::Tracer;
use analysis::audit::effective_symmetry;
use analysis::graph::census;
use analysis::hook::{find_hook, HookOutcome};
use analysis::init::{find_bivalent_init_sym, InitOutcome};
use analysis::prop::{
    atoms, evaluate_batch, parse_props, system_vocab, Prop, SystemGraph, Verdict, Witness,
};
use analysis::similarity::{
    analyze_hook, refute_adjacent_pair, refute_similar_pair, HookSimilarity, Refutation,
};
use analysis::valence::ValenceMap;
use analysis::witness::{find_witness, Bounds, ImpossibilityWitness, WitnessError};
use ioa::automaton::Automaton;
use ioa::canon::SymmetryMode;
use ioa::explore::{ExploreOptions, ExploredGraph};
use protocols::doomed::{RegisterThenObject, TobConsensus};
use protocols::fd_boost::RotatingCoordinator;
use spec::{ProcId, Val};
use std::hint::black_box;
use system::build::{CompleteSystem, SystemState};
use system::consensus::{check_safety, InputAssignment, SafetyViolation};
use system::packed::{orbit_size, PackedSystem};
use system::process::direct::DirectConsensus;
use system::process::ProcessAutomaton;
use system::sched::initialize;

/// The state budget of every exploration (the `repro` default). A job
/// that would need more is truncated, and fails.
pub const MAX_STATES: usize = 2_000_000;

/// The `registers-check` property batch; every property must hold.
pub const CHECK_BATCH: &str =
    "always(safe); ef(decided(0)) & ef(decided(1)); af_fair(decided); leads_to(bivalent, decided)";

/// The pipeline bounds of every `find_witness` job: the `repro`
/// defaults, with the thread count and symmetry mode spelled out so no
/// environment variable can change them.
pub fn bounds() -> Bounds {
    Bounds {
        max_states: MAX_STATES,
        max_hook_iterations: 20_000,
        max_run_steps: 500_000,
        threads: 1,
        symmetry: SymmetryMode::Full,
    }
}

/// The workloads, by the name the command line gives them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WitnessSuite,
    RegistersCheck,
    AtomicQuotient,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WitnessSuite,
        Workload::RegistersCheck,
        Workload::AtomicQuotient,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WitnessSuite => "witness-suite",
            Workload::RegistersCheck => "registers-check",
            Workload::AtomicQuotient => "atomic-quotient",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes: `Full` is the benchmark, `Tiny` (n = 2/3) is for the
/// smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// A candidate system claiming `(f+1)`-resilient consensus.
#[derive(Clone)]
pub enum Candidate {
    Atomic(CompleteSystem<DirectConsensus>),
    Registers(CompleteSystem<RegisterThenObject>),
    Oblivious(CompleteSystem<TobConsensus>),
    General(CompleteSystem<RotatingCoordinator>),
}

/// The doomed candidate classes of `protocols::doomed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Atomic,
    Registers,
    Oblivious,
    General,
}

/// Which witness the theorems predict for a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Theorems 2/9: bivalent initialization → hook → similar pair.
    Hook,
    /// Theorem 10 on the FD candidate: every initialization is
    /// univalent, and the Lemma 4 adjacent pair is refuted directly.
    Adjacent,
}

/// What a job runs.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// `find_witness`; the refutation must fail exactly `f + 1`
    /// processes.
    Witness { f: usize, expect: Expect },
    /// `ValenceMap::build_with_symmetry` + `evaluate_batch` of
    /// [`CHECK_BATCH`] from the root where exactly the processes in
    /// `ones` start with input 1; every property must hold.
    Check { ones: Vec<usize> },
    /// `find_bivalent_init_sym` + `census`: a bivalent initialization
    /// whose graph has bivalent states and no undecided state.
    Census,
}

/// A job before set-up: what it runs, and on which candidate.
#[derive(Clone, Debug)]
pub struct Plan {
    pub label: String,
    pub kind: JobKind,
    class: Class,
    n: usize,
    f: usize,
}

impl Plan {
    /// Builds the job's candidate system: the work `setup_s` times.
    pub fn build(&self) -> Candidate {
        use protocols::doomed::{
            doomed_atomic, doomed_atomic_with_registers, doomed_general, doomed_oblivious,
        };
        let (n, f) = (self.n, self.f);
        match self.class {
            Class::Atomic => Candidate::Atomic(doomed_atomic(n, f)),
            Class::Registers => Candidate::Registers(doomed_atomic_with_registers(n, f)),
            Class::Oblivious => Candidate::Oblivious(doomed_oblivious(n, f)),
            Class::General => Candidate::General(doomed_general(n, f)),
        }
    }

    /// The job, on a candidate [`Plan::build`] made.
    pub fn job(&self, candidate: Candidate) -> Job {
        Job {
            label: self.label.clone(),
            candidate,
            kind: self.kind.clone(),
        }
    }
}

/// One job of a workload.
#[derive(Clone)]
pub struct Job {
    pub label: String,
    pub candidate: Candidate,
    pub kind: JobKind,
}

fn plan_of(class: Class, n: usize, f: usize, kind: JobKind) -> Plan {
    let name = match class {
        Class::Atomic => "atomic",
        Class::Registers => "registers",
        Class::Oblivious => "oblivious",
        Class::General => "general",
    };
    let label = match &kind {
        JobKind::Witness { .. } => format!("{name} n={n} f={f}"),
        JobKind::Check { ones } => format!("check {name} n={n} f={f} ones={ones:?}"),
        JobKind::Census => format!("census {name} n={n} f={f}"),
    };
    Plan {
        label,
        kind,
        class,
        n,
        f,
    }
}

fn witness(class: Class, n: usize, f: usize) -> Plan {
    let expect = match class {
        Class::General => Expect::Adjacent,
        Class::Atomic | Class::Registers | Class::Oblivious => Expect::Hook,
    };
    plan_of(class, n, f, JobKind::Witness { f, expect })
}

/// The jobs of `workload`, in a fixed order, before set-up.
pub fn plan(workload: Workload, scale: Scale) -> Vec<Plan> {
    use Class::{Atomic, General, Oblivious, Registers};
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::WitnessSuite if tiny => vec![
            witness(Registers, 2, 0),
            witness(General, 2, 0),
            witness(Oblivious, 2, 0),
        ],
        Workload::WitnessSuite => vec![
            witness(Registers, 3, 1),
            witness(Registers, 4, 2),
            witness(General, 3, 1),
            witness(General, 4, 2),
            witness(Oblivious, 3, 1),
        ],
        Workload::RegistersCheck => {
            let (n, f) = if tiny { (3, 1) } else { (5, 3) };
            let ones = vec![0, 1];
            vec![plan_of(Registers, n, f, JobKind::Check { ones })]
        }
        Workload::AtomicQuotient => {
            let ((wn, wf), (cn, cf)) = if tiny {
                ((3, 1), (4, 2))
            } else {
                ((8, 6), (10, 8))
            };
            vec![
                witness(Atomic, wn, wf),
                plan_of(Atomic, cn, cf, JobKind::Census),
            ]
        }
    }
}

/// Runs one job on a fresh clone of its candidate and returns its
/// verdict line, or why it failed the gate.
pub fn run(job: &Job, tr: &mut Tracer) -> Result<String, String> {
    match &job.candidate {
        Candidate::Atomic(sys) => run_on(sys, &job.kind, tr),
        Candidate::Registers(sys) => run_on(sys, &job.kind, tr),
        Candidate::Oblivious(sys) => run_on(sys, &job.kind, tr),
        Candidate::General(sys) => run_on(sys, &job.kind, tr),
    }
}

/// A valence map the job built, kept for the probes that split its
/// time into exploration and post-processing.
struct Build<P: ProcessAutomaton> {
    cause: usize,
    root: SystemState<P::State>,
    symmetry: SymmetryMode,
}

fn run_on<P: ProcessAutomaton + Clone>(
    template: &CompleteSystem<P>,
    kind: &JobKind,
    tr: &mut Tracer,
) -> Result<String, String> {
    tr.next_job();
    let mut builds = Vec::new();
    let ((sys, verdict), _) = tr.span("job", |tr| {
        let sys = template.clone();
        let verdict = match kind {
            JobKind::Witness { f, expect } => {
                let w = if tr.enabled() {
                    replay_witness(&sys, *f, tr, &mut builds)
                } else {
                    find_witness(&sys, *f, bounds())
                };
                w.map_err(|e| format!("pipeline error: {e}"))
                    .and_then(|w| gate_witness(&w, *f, *expect).map(|()| w.headline()))
            }
            JobKind::Check { ones } => check(&sys, ones, tr, &mut builds),
            JobKind::Census => census_job(&sys, tr),
        };
        (sys, verdict)
    });
    if tr.enabled() {
        probe(&sys, &builds, tr);
    }
    verdict
}

/// The verdict gate for `find_witness`: the witness kind the theorems
/// predict, refuted by a termination violation failing exactly `f + 1`
/// processes.
pub fn gate_witness<P: ProcessAutomaton>(
    w: &ImpossibilityWitness<P>,
    f: usize,
    expect: Expect,
) -> Result<(), String> {
    let refutation = match (w, expect) {
        (ImpossibilityWitness::HookRefutation { refutation, .. }, Expect::Hook)
        | (ImpossibilityWitness::AdjacentRefutation { refutation, .. }, Expect::Adjacent) => {
            refutation
        }
        _ => {
            return Err(format!(
                "expected a {expect:?} refutation, got: {}",
                w.headline()
            ))
        }
    };
    match refutation {
        Refutation::TerminationViolation { failed, .. } if failed.len() == f + 1 => Ok(()),
        Refutation::TerminationViolation { failed, .. } => Err(format!(
            "termination violation fails {} processes, expected f + 1 = {}",
            failed.len(),
            f + 1
        )),
        _ => Err(format!(
            "expected a termination violation, got: {}",
            w.headline()
        )),
    }
}

/// Records the size of a map the pipeline handed back: one the job
/// built, or the bivalent map `find_bivalent_init_sym` returns.
fn record_valence<P: ProcessAutomaton>(tr: &mut Tracer, map: &ValenceMap<P>) {
    if tr.enabled() {
        let c = &mut tr.counts;
        c.valence_builds += 1;
        c.valence_states += map.state_count() as u64;
        c.valence_bytes += map.footprint().1;
    }
}

/// Records the exploration counts of a map the job built.
fn record_explore<P: ProcessAutomaton>(tr: &mut Tracer, map: &ValenceMap<P>) {
    let stats = map.stats();
    let c = &mut tr.counts;
    c.explore_states += stats.states as u64;
    c.explore_edges += stats.edges as u64;
    c.explore_peak_frontier = c.explore_peak_frontier.max(stats.peak_frontier as u64);
    if let Some(cache) = stats.cache {
        c.cache_hits += cache.hits;
        c.cache_lookups += cache.lookups();
    }
}

/// `ValenceMap::build_with_symmetry` inside a `valence.build` span.
fn build_map<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    root: &SystemState<P::State>,
    symmetry: SymmetryMode,
    tr: &mut Tracer,
    builds: &mut Vec<Build<P>>,
) -> Result<ValenceMap<P>, WitnessError> {
    let (map, cause) = tr.span("valence.build", |_| {
        ValenceMap::build_with_symmetry(sys, root.clone(), MAX_STATES, 1, symmetry)
    });
    let map = map?;
    record_valence(tr, &map);
    if tr.enabled() {
        record_explore(tr, &map);
        builds.push(Build {
            cause,
            root: root.clone(),
            symmetry,
        });
    }
    Ok(map)
}

fn drop_map<P: ProcessAutomaton>(map: ValenceMap<P>, tr: &mut Tracer) {
    tr.span("valence.drop", |_| drop(map));
}

/// The witness pipeline's failure-free safety scan: `always(safe)`
/// over the map, and the violation at the end of its counterexample.
fn safety_scan<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    assignment: &InputAssignment,
    map: &ValenceMap<P>,
    tr: &mut Tracer,
) -> Option<SafetyViolation> {
    let (report, _) = tr.span("prop", |_| {
        let graph = SystemGraph::new(sys, map);
        let invariant = Prop::always(atoms::safe(assignment.clone()));
        evaluate_batch(&graph, std::slice::from_ref(&invariant))
    });
    tr.counts.passes_forward += u64::from(report.passes.forward);
    tr.counts.passes_backward += u64::from(report.passes.backward);
    match &report.results.first()?.witness {
        Some(Witness::Path(path)) => check_safety(sys, map.resolve(*path.last()?), assignment),
        _ => None,
    }
}

/// `find_witness`, replayed stage by stage from public calls with a
/// span around each layer call. Mirrors the library's control flow, so
/// it reaches the same witness; the caller checks that it does.
fn replay_witness<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    f: usize,
    tr: &mut Tracer,
    builds: &mut Vec<Build<P>>,
) -> Result<ImpossibilityWitness<P>, WitnessError> {
    let b = bounds();
    let n = sys.process_count();

    // Stage 1: failure-free safety from every monotone initialization.
    let (unsafe_init, _) = tr.span("stage1", |tr| {
        for ones in 0..=n {
            let assignment = InputAssignment::monotone(n, ones);
            let root = initialize(sys, &assignment);
            let map = build_map(sys, &root, b.symmetry.value_blind(), tr, builds)?;
            let violation = safety_scan(sys, &assignment, &map, tr);
            drop_map(map, tr);
            if let Some(violation) = violation {
                return Ok(Some(ImpossibilityWitness::Safety {
                    assignment,
                    violation,
                }));
            }
        }
        Ok::<_, WitnessError>(None)
    });
    if let Some(w) = unsafe_init? {
        return Ok(w);
    }

    // Stage 2: Lemma 4.
    let (init, _) = tr.span("init", |_| {
        find_bivalent_init_sym(sys, b.max_states, b.threads, b.symmetry)
    });
    match init? {
        InitOutcome::Bivalent { assignment, map } => {
            record_valence(tr, &map);
            // Stage 3: Lemma 5 / Fig. 3.
            let (outcome, _) = tr.span("hook", |_| find_hook(sys, &map, b.max_hook_iterations));
            let witness = match outcome {
                HookOutcome::Hook(hook) => {
                    tr.counts.hook_tasks += hook.alpha_tasks.len() as u64;
                    // Stage 4: Lemma 8 case analysis.
                    let (similar, _) = tr.span("similarity", |_| {
                        let similarity = analyze_hook(sys, &hook);
                        let pair = match &similarity {
                            HookSimilarity::Direct(kind) => {
                                Some((hook.s0.clone(), hook.s1.clone(), *kind))
                            }
                            HookSimilarity::AfterEPrime(kind) => {
                                let (_, after) = sys
                                    .succ_det(&hook.e_prime, &hook.s0)
                                    .expect("e' applicable at s0 for this case");
                                Some((after, hook.s1.clone(), *kind))
                            }
                            HookSimilarity::Commute | HookSimilarity::None => None,
                        };
                        (similarity, pair)
                    });
                    let (similarity, pair) = similar;
                    let Some((x0, x1, kind)) = pair else {
                        return Err(WitnessError::Inconclusive(format!(
                            "no usable similarity between hook endpoints: {similarity:?}"
                        )));
                    };
                    // Stage 5: Lemma 6/7, executed.
                    let (refutation, _) = tr.span("refute", |_| {
                        refute_similar_pair(
                            sys,
                            &x0,
                            &x1,
                            kind,
                            (hook.v, hook.v.opposite()),
                            f,
                            b.max_run_steps,
                        )
                    });
                    count_run(tr, &refutation);
                    ImpossibilityWitness::HookRefutation {
                        assignment,
                        hook,
                        similarity,
                        refutation,
                    }
                }
                HookOutcome::EndlessBivalence { state, .. } => {
                    ImpossibilityWitness::EndlessBivalence { assignment, state }
                }
                HookOutcome::UndecidedRegion { .. } => {
                    ImpossibilityWitness::FailureFreeNonTermination { assignment }
                }
            };
            drop_map(map, tr);
            Ok(witness)
        }
        InitOutcome::AdjacentContradiction {
            zero,
            one,
            differing,
        } => {
            let (refutation, _) = tr.span("refute", |_| {
                refute_adjacent_pair(sys, &zero, &one, differing, f, b.max_run_steps)
            });
            count_run(tr, &refutation);
            Ok(ImpossibilityWitness::AdjacentRefutation {
                zero,
                one,
                differing,
                refutation,
            })
        }
        InitOutcome::Undecided { assignment } => {
            Ok(ImpossibilityWitness::FailureFreeNonTermination { assignment })
        }
        InitOutcome::ValidityBroken { assignment, .. } => {
            let root = initialize(sys, &assignment);
            let map = build_map(sys, &root, b.symmetry, tr, builds)?;
            let violation = safety_scan(sys, &assignment, &map, tr);
            drop_map(map, tr);
            let violation = violation.ok_or_else(|| {
                WitnessError::Inconclusive(
                    "valence says validity broken but no state violates it".into(),
                )
            })?;
            Ok(ImpossibilityWitness::Safety {
                assignment,
                violation,
            })
        }
    }
}

fn count_run<P: ProcessAutomaton>(tr: &mut Tracer, refutation: &Refutation<P>) {
    if let Refutation::TerminationViolation { run, .. } = refutation {
        tr.counts.run_steps += run.exec.len() as u64;
    }
}

/// The `registers-check` job: one map, one fused property batch.
fn check<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    ones: &[usize],
    tr: &mut Tracer,
    builds: &mut Vec<Build<P>>,
) -> Result<String, String> {
    let n = sys.process_count();
    let assignment =
        InputAssignment::of((0..n).map(|i| (ProcId(i), Val::Int(i64::from(ones.contains(&i))))));
    let root = initialize(sys, &assignment);
    let map = build_map(sys, &root, SymmetryMode::Full, tr, builds)
        .map_err(|e| format!("pipeline error: {e}"))?;
    let (report, _) = tr.span("prop", |_| {
        let graph = SystemGraph::new(sys, &map);
        let vocab = system_vocab::<P>(assignment.clone());
        let props = parse_props(CHECK_BATCH, &vocab).expect("the batch parses");
        evaluate_batch(&graph, &props)
    });
    tr.counts.passes_forward += u64::from(report.passes.forward);
    tr.counts.passes_backward += u64::from(report.passes.backward);
    let states = map.state_count();
    drop_map(map, tr);
    let holds = report
        .results
        .iter()
        .filter(|e| e.verdict == Verdict::Holds)
        .count();
    if report.results.len() == 4 && holds == 4 {
        Ok(format!("{states} states: all 4 properties hold"))
    } else {
        Err(format!(
            "{holds} of {} properties hold, expected all 4",
            report.results.len()
        ))
    }
}

/// The `atomic-quotient` census job.
fn census_job<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    tr: &mut Tracer,
) -> Result<String, String> {
    let (init, _) = tr.span("init", |_| {
        find_bivalent_init_sym(sys, MAX_STATES, 1, SymmetryMode::Full)
    });
    let map = match init {
        Ok(InitOutcome::Bivalent { map, .. }) => map,
        Ok(other) => return Err(format!("expected a bivalent initialization, got {other:?}")),
        Err(e) => return Err(format!("pipeline error: {e}")),
    };
    record_valence(tr, &map);
    let (c, _) = tr.span("census", |_| census(&map));
    drop_map(map, tr);
    if c.bivalent > 0 && c.undecided == 0 {
        Ok(format!("census: {c}"))
    } else {
        Err(format!(
            "expected bivalent states and no undecided state, got {c}"
        ))
    }
}

/// The probes of a finished job: for each map it built, re-explore the
/// root with the options `ValenceMap` uses over a fresh packed system
/// (the `explore` share of the build), canonicalize every interned
/// state (the `canon` cost), and weigh each representative by its
/// orbit size (the quotient's compression).
fn probe<P: ProcessAutomaton>(sys: &CompleteSystem<P>, builds: &[Build<P>], tr: &mut Tracer) {
    for b in builds {
        let packed = PackedSystem::with_symmetry(sys, effective_symmetry(sys, b.symmetry));
        let mut opts = ExploreOptions::with_budget(MAX_STATES)
            .with_threads(1)
            .with_symmetry(packed.symmetry_mode());
        opts.skip_self_loops = true;
        let graph = tr.probe("explore", b.cause, || {
            ExploredGraph::explore_with(&packed, vec![packed.encode(&b.root)], opts)
        });
        tr.probe("canon", b.cause, || {
            for id in graph.ids() {
                black_box(packed.canonical_with_sym(graph.resolve(id)));
            }
        });
        let reps = graph.len() as u64;
        tr.counts.representatives += reps;
        tr.counts.orbit_mass += match packed.symmetry_group() {
            Some(group) => graph
                .ids()
                .map(|id| orbit_size(group, &packed.decode(graph.resolve(id))))
                .sum(),
            None => reps,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload) -> Vec<Job> {
        plan(workload, Scale::Tiny)
            .iter()
            .map(|p| p.job(p.build()))
            .collect()
    }

    #[test]
    fn tiny_jobs_pass_the_gate_traced_and_untraced() {
        for workload in Workload::ALL {
            for job in tiny(workload) {
                let untraced = run(&job, &mut Tracer::off());
                let traced = run(&job, &mut Tracer::on());
                assert!(untraced.is_ok(), "{}: {untraced:?}", job.label);
                assert_eq!(untraced, traced, "{}: replay diverged", job.label);
            }
        }
    }

    #[test]
    fn a_planted_wrong_expectation_is_caught() {
        let mut jobs = tiny(Workload::WitnessSuite);
        for job in &mut jobs {
            if let JobKind::Witness { expect, .. } = &mut job.kind {
                *expect = match expect {
                    Expect::Hook => Expect::Adjacent,
                    Expect::Adjacent => Expect::Hook,
                };
            }
        }
        for job in &jobs {
            assert!(
                run(job, &mut Tracer::off()).is_err(),
                "{} passed",
                job.label
            );
            assert!(run(job, &mut Tracer::on()).is_err(), "{} passed", job.label);
        }
    }

    #[test]
    fn a_wrong_failure_count_is_caught() {
        let job = &tiny(Workload::AtomicQuotient)[0];
        let JobKind::Witness { f, expect } = job.kind else {
            panic!("the first atomic-quotient job is a witness job");
        };
        let Candidate::Atomic(sys) = &job.candidate else {
            panic!("atomic candidate");
        };
        let w = find_witness(sys, f, bounds()).expect("the pipeline runs");
        assert!(gate_witness(&w, f, expect).is_ok());
        assert!(gate_witness(&w, f + 1, expect).is_err());
    }
}
