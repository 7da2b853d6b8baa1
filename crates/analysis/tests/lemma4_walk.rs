//! Differential tests for the build-once Lemma 4 walk and the packed-id
//! valence map.
//!
//! * `find_witness` builds each monotone root's map once and answers
//!   both the failure-free safety scan and the Lemma 4 classification
//!   from it. It must return exactly the witness of the staged
//!   pipeline it replaced — one map per root for the scan, then
//!   `find_bivalent_init_sym` rebuilding them, then `find_hook` — run
//!   here from public calls.
//! * The system atoms that answer from decision lanes and packed words
//!   must agree with their deep-state definitions on every state.
//! * Passes that only ask lane questions must decode no deep state.

use analysis::hook::{find_hook, HookOutcome};
use analysis::init::{find_bivalent_init_sym, InitOutcome};
use analysis::prop::{
    atoms, evaluate, evaluate_batch, parse_props, system_vocab, Prop, PropGraph, SystemGraph,
    Verdict, Witness,
};
use analysis::similarity::{
    analyze_hook, refute_adjacent_pair, refute_similar_pair, HookSimilarity,
};
use analysis::valence::ValenceMap;
use analysis::witness::{find_witness, Bounds, ImpossibilityWitness, WitnessError};
use ioa::automaton::Automaton;
use ioa::canon::SymmetryMode;
use protocols::doomed::{
    doomed_atomic, doomed_atomic_with_registers, doomed_general, doomed_oblivious,
};
use spec::{ProcId, Val};
use system::build::CompleteSystem;
use system::consensus::{check_safety, InputAssignment, SafetyViolation};
use system::process::ProcessAutomaton;
use system::sched::initialize;

const MODES: [SymmetryMode; 3] = [SymmetryMode::Off, SymmetryMode::Full, SymmetryMode::Values];

fn bounds(symmetry: SymmetryMode) -> Bounds {
    Bounds {
        max_states: 2_000_000,
        max_hook_iterations: 20_000,
        max_run_steps: 500_000,
        threads: 1,
        symmetry,
    }
}

/// The stage-1 scan of the staged pipeline: `always(safe)` over the
/// map, and the violation at the end of its counterexample.
fn safety_scan<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    assignment: &InputAssignment,
    map: &ValenceMap<P>,
) -> Option<SafetyViolation> {
    let graph = SystemGraph::new(sys, map);
    match evaluate(&graph, &Prop::always(atoms::safe(assignment.clone()))).witness {
        Some(Witness::Path(path)) => check_safety(sys, map.resolve(*path.last()?), assignment),
        _ => None,
    }
}

/// The pipeline as it ran before the build-once walk: stage 1 builds
/// one value-blind map per monotone root and scans it, then stage 2
/// (`find_bivalent_init_sym`) builds the roots again under the
/// requested mode, and stages 3–5 run on the bivalent map it returns.
fn staged<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    f: usize,
    b: Bounds,
) -> Result<ImpossibilityWitness<P>, WitnessError> {
    let n = sys.process_count();
    for ones in 0..=n {
        let assignment = InputAssignment::monotone(n, ones);
        let root = initialize(sys, &assignment);
        let map = ValenceMap::build_with_symmetry(
            sys,
            root,
            b.max_states,
            b.threads,
            b.symmetry.value_blind(),
        )?;
        if let Some(violation) = safety_scan(sys, &assignment, &map) {
            return Ok(ImpossibilityWitness::Safety {
                assignment,
                violation,
            });
        }
    }
    match find_bivalent_init_sym(sys, b.max_states, b.threads, b.symmetry)? {
        InitOutcome::Bivalent { assignment, map } => {
            match find_hook(sys, &map, b.max_hook_iterations) {
                HookOutcome::Hook(hook) => {
                    let similarity = analyze_hook(sys, &hook);
                    let (x0, x1, kind) = match &similarity {
                        HookSimilarity::Direct(kind) => (hook.s0.clone(), hook.s1.clone(), *kind),
                        HookSimilarity::AfterEPrime(kind) => {
                            let (_, after) = sys
                                .succ_det(&hook.e_prime, &hook.s0)
                                .expect("e' applicable at s0 for this case");
                            (after, hook.s1.clone(), *kind)
                        }
                        other => {
                            return Err(WitnessError::Inconclusive(format!("{other:?}")));
                        }
                    };
                    let refutation = refute_similar_pair(
                        sys,
                        &x0,
                        &x1,
                        kind,
                        (hook.v, hook.v.opposite()),
                        f,
                        b.max_run_steps,
                    );
                    Ok(ImpossibilityWitness::HookRefutation {
                        assignment,
                        hook,
                        similarity,
                        refutation,
                    })
                }
                HookOutcome::EndlessBivalence { state, .. } => {
                    Ok(ImpossibilityWitness::EndlessBivalence { assignment, state })
                }
                HookOutcome::UndecidedRegion { .. } => {
                    Ok(ImpossibilityWitness::FailureFreeNonTermination { assignment })
                }
            }
        }
        InitOutcome::AdjacentContradiction {
            zero,
            one,
            differing,
        } => {
            let refutation = refute_adjacent_pair(sys, &zero, &one, differing, f, b.max_run_steps);
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
        other => Err(WitnessError::Inconclusive(format!("{other:?}"))),
    }
}

/// Headline, hook tasks and refutation run of a witness.
fn fingerprint<P: ProcessAutomaton>(w: &ImpossibilityWitness<P>) -> String {
    let detail = match w {
        ImpossibilityWitness::HookRefutation {
            assignment,
            hook,
            similarity,
            refutation,
        } => format!(
            "{assignment} alpha={:?} e={} e'={} v={:?} {similarity:?} {refutation:?}",
            hook.alpha_tasks, hook.e, hook.e_prime, hook.v
        ),
        ImpossibilityWitness::AdjacentRefutation {
            zero,
            one,
            differing,
            refutation,
        } => format!("{zero} {one} {differing} {refutation:?}"),
        other => format!("{other:?}"),
    };
    format!("{}\n{detail}", w.headline())
}

fn same_witness<P: ProcessAutomaton>(name: &str, sys: &CompleteSystem<P>, f: usize) {
    for mode in MODES {
        let b = bounds(mode);
        let new = find_witness(sys, f, b).map(|w| fingerprint(&w));
        let old = staged(sys, f, b).map(|w| fingerprint(&w));
        assert!(new.is_ok(), "{name} {mode:?}: {new:?}");
        assert_eq!(
            new, old,
            "{name} {mode:?}: witness differs from the staged pipeline"
        );
    }
}

#[test]
fn build_once_witness_matches_the_staged_pipeline_atomic_and_registers() {
    for (n, f) in [(2, 0), (3, 1)] {
        same_witness(&format!("atomic n={n}"), &doomed_atomic(n, f), f);
        same_witness(
            &format!("registers n={n}"),
            &doomed_atomic_with_registers(n, f),
            f,
        );
    }
}

#[test]
fn build_once_witness_matches_the_staged_pipeline_tob_and_fd() {
    for (n, f) in [(2, 0), (3, 1)] {
        same_witness(&format!("tob n={n}"), &doomed_oblivious(n, f), f);
        same_witness(&format!("fd n={n}"), &doomed_general(n, f), f);
    }
}

/// Every lane-answered atom against its deep-state definition, on
/// every state of the map, plus lane applicability against the deep
/// transition relation.
fn lane_atoms_agree<P: ProcessAutomaton>(name: &str, sys: &CompleteSystem<P>) {
    let n = sys.process_count();
    for mode in MODES {
        for ones in 0..=n {
            let assignment = InputAssignment::monotone(n, ones);
            let root = initialize(sys, &assignment);
            let map = ValenceMap::build_with_symmetry(sys, root, 2_000_000, 1, mode)
                .expect("small maps fit the budget");
            let g = SystemGraph::new(sys, &map);
            // Lane questions first: none of them may decode.
            let mut lane = Vec::new();
            let others: Vec<InputAssignment> =
                (0..=n).map(|k| InputAssignment::monotone(n, k)).collect();
            for id in map.ids() {
                let mut row = vec![
                    atoms::decided().holds_at(&g, id),
                    atoms::no_failures().holds_at(&g, id),
                ];
                for v in [0, 1, 2] {
                    row.push(atoms::decided_value(v).holds_at(&g, id));
                }
                for i in 0..=n {
                    row.push(atoms::proc_decided(i).holds_at(&g, id));
                    row.push(atoms::failed(i).holds_at(&g, id));
                }
                for a in &others {
                    row.push(atoms::safe(a.clone()).holds_at(&g, id));
                }
                for lane_idx in 0..g.task_count() {
                    row.push(g.task_applicable(lane_idx, id));
                }
                lane.push(row);
            }
            assert_eq!(
                map.decoded_count(),
                0,
                "{name} {mode:?}: lane atoms decoded"
            );
            let tasks = sys.tasks();
            for (id, row) in map.ids().zip(&lane) {
                let s = map.resolve(id);
                let decided = sys.decided_values(s);
                let mut deep = vec![!decided.is_empty(), s.failed.is_empty()];
                for v in [0, 1, 2] {
                    deep.push(decided.contains(&Val::Int(v)));
                }
                for i in 0..=n {
                    deep.push(i < n && sys.decision(s, ProcId(i)).is_some());
                    deep.push(s.failed.contains(&ProcId(i)));
                }
                for a in &others {
                    deep.push(check_safety(sys, s, a).is_none());
                }
                for t in &tasks {
                    deep.push(sys.applicable(t, s));
                }
                assert_eq!(
                    row, &deep,
                    "{name} {mode:?} ones={ones} {id:?}: lane atoms differ from deep atoms"
                );
            }
        }
    }
}

#[test]
fn lane_atoms_match_deep_atoms() {
    for (n, f) in [(2, 0), (3, 1)] {
        lane_atoms_agree(&format!("atomic n={n}"), &doomed_atomic(n, f));
        lane_atoms_agree(
            &format!("registers n={n}"),
            &doomed_atomic_with_registers(n, f),
        );
        lane_atoms_agree(&format!("tob n={n}"), &doomed_oblivious(n, f));
        lane_atoms_agree(&format!("fd n={n}"), &doomed_general(n, f));
    }
}

/// The stage-1 scan on every monotone root decodes nothing on a safe
/// candidate, and exactly the counterexample state on an unsafe one.
#[test]
fn safety_scans_decode_only_the_counterexample() {
    fn scan_all<P: ProcessAutomaton>(sys: &CompleteSystem<P>) -> Vec<(bool, usize)> {
        let n = sys.process_count();
        (0..=n)
            .map(|ones| {
                let assignment = InputAssignment::monotone(n, ones);
                let root = initialize(sys, &assignment);
                let map =
                    ValenceMap::build_with_symmetry(sys, root, 2_000_000, 1, SymmetryMode::Full)
                        .expect("small maps fit the budget");
                let violation = safety_scan(sys, &assignment, &map);
                (violation.is_some(), map.decoded_count())
            })
            .collect()
    }
    for (n, f) in [(2, 0), (3, 1)] {
        for (unsafe_root, decoded) in scan_all(&doomed_atomic_with_registers(n, f)) {
            assert!(!unsafe_root);
            assert_eq!(decoded, 0, "registers n={n}: a safe scan decoded");
        }
        for (unsafe_root, decoded) in scan_all(&doomed_atomic(n, f)) {
            assert!(!unsafe_root);
            assert_eq!(decoded, 0, "atomic n={n}: a safe scan decoded");
        }
    }
    // P0 of the lying candidate turns every input into 0, so the
    // all-ones root decides a value nobody proposed.
    let scans = scan_all(&protocols::broken::lying_symmetry(2, 0));
    assert!(scans.iter().any(|(bad, _)| *bad), "the liar is unsafe");
    for (unsafe_root, decoded) in scans {
        assert_eq!(
            decoded,
            usize::from(unsafe_root),
            "only the counterexample decodes"
        );
    }
}

/// A `registers-check`-style fused batch on registers n=3 answers
/// every atom from lanes: no deep state is decoded.
#[test]
fn property_batch_decodes_nothing() {
    let sys = doomed_atomic_with_registers(3, 1);
    let assignment = InputAssignment::of((0..3).map(|i| (ProcId(i), Val::Int(i64::from(i < 2)))));
    let root = initialize(&sys, &assignment);
    let map = ValenceMap::build_with_symmetry(&sys, root, 2_000_000, 1, SymmetryMode::Full)
        .expect("registers n=3 fits the budget");
    let graph = SystemGraph::new(&sys, &map);
    let vocab = system_vocab::<_>(assignment.clone());
    let props = parse_props(
        "always(safe); ef(decided(0)) & ef(decided(1)); af_fair(decided); \
         leads_to(bivalent, decided); always(no_failures); !ef(failed(0)); \
         ef(proc_decided(2))",
        &vocab,
    )
    .expect("the batch parses");
    let report = evaluate_batch(&graph, &props);
    for (p, e) in props.iter().zip(&report.results) {
        assert_eq!(e.verdict, Verdict::Holds, "{p}");
    }
    assert_eq!(map.decoded_count(), 0, "the batch decoded deep states");
}
