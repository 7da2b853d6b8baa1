//! Valence of finite failure-free input-first executions
//! (paper Sections 3.2–3.3).
//!
//! An execution `α` is 0-valent if some failure-free extension decides
//! 0 and none decides 1 (symmetrically 1-valent); bivalent if both
//! decisions are reachable. Because decisions are recorded in process
//! states (Section 2.2.1), "some extension contains `decide(v)_i`" is
//! equivalent to "some state reachable by task steps records `v`" —
//! so valence is computed by one sweep over the reachable portion of
//! the graph `G(C)` (Section 3.3) followed by a backward fixpoint.
//!
//! The reachable graph is interned once per root as an
//! [`ExploredGraph`] over dense [`StateId`]s, and the decided-set and
//! valence tables are flat `Vec`s indexed by id. Every downstream pass
//! — the Lemma 4 initialization scan, the Lemma 5 hook construction,
//! the `G(C)` census, the witness safety scan — shares this one graph
//! instead of re-hashing and re-cloning full `SystemState`s.

use ioa::automaton::Automaton;
use ioa::canon::{SymGroup, SymmetryMode};
use ioa::explore::{ExploreOptions, ExploreStats, ExploredGraph, FrontierMode, GraphParts};
use ioa::store::{fx_hash, CompId, StateId, StateStore};
use ioa::Csr;
use spec::{ProcId, RelabelValues, Val, ValuePerm};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};
use system::build::{CompleteSystem, SystemState};
use system::packed::{canonical_system_state_with, Arenas, PackedState, PackedSystem};
use system::process::ProcessAutomaton;
use system::{Action, Task};

/// The valence of a finite failure-free input-first execution
/// (equivalently, of its final state — the extension set depends only
/// on the state).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Valence {
    /// Only `decide(0)` is reachable failure-free.
    Zero,
    /// Only `decide(1)` is reachable failure-free.
    One,
    /// Both decisions are reachable: the pivotal situation the
    /// impossibility proof chases.
    Bivalent,
    /// No decision is reachable failure-free at all — already a
    /// violation of the consensus termination condition (Lemma 3 rules
    /// this out for genuine consensus implementations).
    Undecided,
}

impl Valence {
    /// Whether this is 0-valent or 1-valent.
    pub fn is_univalent(self) -> bool {
        matches!(self, Valence::Zero | Valence::One)
    }

    /// The decided value this univalent class pins down.
    pub fn decided_value(self) -> Option<Val> {
        match self {
            Valence::Zero => Some(Val::Int(0)),
            Valence::One => Some(Val::Int(1)),
            _ => None,
        }
    }

    /// The opposite univalent class.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not univalent.
    pub fn opposite(self) -> Valence {
        match self {
            Valence::Zero => Valence::One,
            Valence::One => Valence::Zero,
            other => panic!("{other:?} has no opposite"),
        }
    }
}

/// The error returned when the reachable space exceeds the state
/// budget, making exhaustive valence claims unsound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Truncated {
    /// The number of states explored before giving up.
    pub states_explored: usize,
}

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "state budget exhausted after {} states; valence undecidable at this bound",
            self.states_explored
        )
    }
}

impl std::error::Error for Truncated {}

/// The interned failure-free reachable graph from a root state, with
/// each state's set of reachable decision values — the executable form
/// of `G(C)` (Section 3.3) restricted to what valence needs.
///
/// Self-loop transitions are skipped at exploration time: a stuttering
/// step never changes the decisions reachable from a configuration.
///
/// The graph is explored and kept over the component-interned
/// representation ([`PackedState`], DESIGN §2.1.2): the map holds the
/// explorer's packed store plus a shared handle to the component
/// arenas, never the packed system's effect cache or symmetry tables.
/// Decisions are `u64` lane masks over the map's decision-value
/// universe, one own mask and one reachable mask per state. The deep
/// [`SystemState`] view is decoded lazily, once per id, on the first
/// [`ValenceMap::resolve`] of that id — so a pass that only asks
/// valence, decision, failure or applicability questions decodes
/// nothing. Ids, edges, parents and stats are bit-identical to
/// exploring the deep representation directly (pinned by the
/// differential tests).
#[derive(Debug)]
pub struct ValenceMap<P: ProcessAutomaton> {
    store: StateStore<PackedState>,
    /// The process count: slots `0..n` of every packed state.
    n: usize,
    /// The component arenas the packed states index into.
    arenas: Arc<Arenas<P::State>>,
    /// `decoded[id]`: the deep view of `id`, filled on first use.
    decoded: Vec<OnceLock<Box<SystemState<P::State>>>>,
    root: StateId,
    /// Flat CSR adjacency: row `id` holds the `(task, action,
    /// successor)` transitions out of `id`, in task order. One
    /// contiguous edge arena instead of a `Vec` per state, so the
    /// census scan, the hook BFS and the witness safety sweep walk
    /// contiguous memory.
    edges: Csr<(Task, Action, StateId)>,
    /// Reverse CSR: row `id` holds the predecessors of `id`, one entry
    /// per forward edge, in `(source, position)` order. Drives the
    /// backward valence fixpoint and is exposed via
    /// [`ValenceMap::predecessors`].
    preds: Csr<StateId>,
    /// BFS tree: the step that first discovered each non-root state.
    parent: Vec<Option<(StateId, Task, Action)>>,
    stats: ExploreStats,
    /// The decision values with a lane, in `Val` order: lane `j` is
    /// bit `1 << j` of every decision mask.
    universe: Vec<Val>,
    /// `proc_lane[pc]` = the lane of the decision recorded in process
    /// component `pc`, or [`NO_LANE`] when it records none. Memoized
    /// once per distinct process component of the map.
    proc_lane: Vec<u8>,
    /// `own[id]` = the decisions recorded in `id` itself.
    own: Vec<u64>,
    /// `reach[id]` = the decisions reachable failure-free from `id`.
    reach: Vec<u64>,
    /// `valence[id]`, precomputed from `reach` — the census becomes a
    /// flat array scan.
    valence: Vec<Valence>,
    /// Every distinct reachable mask (and, in a value quotient, its
    /// relabeled image) with its value set, sorted by mask: the few
    /// sets [`ValenceMap::reachable_decisions`] hands out by reference.
    decision_sets: Vec<(u64, BTreeSet<Val>)>,
    /// The symmetry group the explored graph was quotiented by
    /// (`None` when exploration ran concretely). When present, every
    /// non-root state in the map is an orbit representative, and
    /// lookups canonicalize their argument on a raw miss.
    sym: Option<SymGroup>,
    /// `swap_lane[j]` = the lane of `ν` applied to lane `j`'s value —
    /// present exactly when the quotient composed the value relabeling
    /// group. A concrete state whose canonicalization swapped 0 ↔ 1
    /// answers through it: if `rep = σ·ν·s` then the decisions
    /// reachable from `s` are `ν` applied to those reachable from
    /// `rep`.
    swap_lane: Option<Vec<u8>>,
}

/// The `proc_lane` entry of an undeciding component.
const NO_LANE: u8 = u8::MAX;

/// The bit of lane `lane` (none for [`NO_LANE`]).
#[inline]
fn bit_of_lane(lane: u8) -> u64 {
    if lane == NO_LANE {
        0
    } else {
        1 << lane
    }
}

impl<P: ProcessAutomaton> ValenceMap<P> {
    /// Explores every failure-free extension of `root` (at most
    /// `max_states` distinct states) and computes each state's
    /// reachable-decisions set.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build(
        sys: &CompleteSystem<P>,
        root: SystemState<P::State>,
        max_states: usize,
    ) -> Result<Self, Truncated> {
        Self::build_with(sys, root, max_states, 0)
    }

    /// [`ValenceMap::build`] with an explicit exploration worker-thread
    /// count (`0` = auto, see [`ExploreOptions::threads`]). The
    /// resulting map is bit-identical for every thread count; the knob
    /// only trades wall-clock time for cores during the `G(C)` sweep.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_with(
        sys: &CompleteSystem<P>,
        root: SystemState<P::State>,
        max_states: usize,
        threads: usize,
    ) -> Result<Self, Truncated> {
        // Explore over the packed representation: successors are flat
        // component-id copies, and each distinct component state pays
        // its deep hash/clone exactly once in the sub-arenas.
        let packed = PackedSystem::new(sys);
        Self::build_in(sys, &packed, root, max_states, threads)
    }

    /// [`ValenceMap::build_with`] with an explicit symmetry mode:
    /// under [`SymmetryMode::Full`] (and a symmetric system) the
    /// reachable graph is the orbit quotient — every successor is
    /// canonicalized to its orbit representative before interning, so
    /// the map holds one state per orbit plus the raw root.
    ///
    /// The requested mode is laundered through
    /// [`crate::audit::effective_symmetry`] first: a substrate whose
    /// claimed `id_symmetric`/`endpoint_symmetric` flags fail the
    /// component-local symmetry-honesty audit is explored concretely
    /// (with a warning on stderr) instead of being trusted — a lying
    /// flag degrades the quotient, it cannot corrupt valence verdicts.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_with_symmetry(
        sys: &CompleteSystem<P>,
        root: SystemState<P::State>,
        max_states: usize,
        threads: usize,
        symmetry: SymmetryMode,
    ) -> Result<Self, Truncated> {
        let symmetry = crate::audit::effective_symmetry(sys, symmetry);
        let packed = PackedSystem::with_symmetry(sys, symmetry);
        Self::build_in(sys, &packed, root, max_states, threads)
    }

    /// [`ValenceMap::build_with`] over a caller-provided
    /// [`PackedSystem`]. The packed system's component sub-arenas and
    /// transition-effect cache persist across calls, so building
    /// several maps of the *same* system (the Lemma 4 walk builds
    /// `n + 1`) pays each distinct component transition once globally
    /// instead of once per map — after the first build the rest run
    /// almost entirely out of the cache.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_in(
        sys: &CompleteSystem<P>,
        packed: &PackedSystem<'_, P>,
        root: SystemState<P::State>,
        max_states: usize,
        threads: usize,
    ) -> Result<Self, Truncated> {
        Self::build_in_with(sys, packed, root, max_states, threads, FrontierMode::Auto)
    }

    /// [`ValenceMap::build_in`] with an explicit frontier discipline.
    /// Complete explorations renumber to the identical graph under
    /// every [`FrontierMode`], so the resulting map is bit-identical
    /// either way; the knob exists so differential suites can pin the
    /// work-stealing path explicitly instead of routing through the
    /// process-global [`ioa::explore::FRONTIER_ENV`].
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_in_with(
        sys: &CompleteSystem<P>,
        packed: &PackedSystem<'_, P>,
        root: SystemState<P::State>,
        max_states: usize,
        threads: usize,
        frontier: FrontierMode,
    ) -> Result<Self, Truncated> {
        let packed_root = packed.encode(&root);
        let graph = ExploredGraph::explore_with(
            packed,
            vec![packed_root],
            ExploreOptions {
                max_states,
                skip_self_loops: true,
                threads,
                // Quotient exactly when the packed system's orbit
                // canonicalizer is active; roots stay raw either way.
                symmetry: packed.symmetry_mode(),
                frontier,
            },
        );
        if graph.stats().truncated() {
            return Err(Truncated {
                states_explored: graph.len(),
            });
        }
        let parts = graph.into_parts();
        let twists = value_twists(packed, &parts);
        let arenas = Arc::clone(packed.arenas());
        let n = sys.process_count();

        // Own decisions, memoized per distinct process component: each
        // component's recorded decision is read once, then every
        // state's own mask is an OR over its process slots.
        let (universe, proc_lane) = {
            let procs = arenas.procs();
            let mut seen: Vec<Option<Option<Val>>> = vec![None; procs.len()];
            for ps in parts.store.states() {
                for &pc in &ps.comps()[..n] {
                    let slot = &mut seen[pc as usize];
                    if slot.is_none() {
                        let st = procs.resolve(CompId::from_index(pc as usize));
                        *slot = Some(sys.process_automaton().decision(st));
                    }
                }
            }
            let mut uni: BTreeSet<Val> = seen.iter().flatten().flatten().cloned().collect();
            if twists.is_some() {
                // The twisted fixpoint maps masks through ν, so the
                // lane universe must be ν-closed (Swap is an
                // involution: one closure pass suffices).
                let images: Vec<Val> = uni
                    .iter()
                    .map(|v| v.relabel_values(ValuePerm::Swap))
                    .collect();
                uni.extend(images);
            }
            let universe: Vec<Val> = uni.into_iter().collect();
            assert!(
                universe.len() <= ioa::fixpoint::MAX_LANES,
                "decision-value universe exceeds {} bit lanes",
                ioa::fixpoint::MAX_LANES
            );
            let proc_lane: Vec<u8> = seen
                .iter()
                .map(|d| match d {
                    Some(Some(v)) => lane_index(&universe, v),
                    _ => NO_LANE,
                })
                .collect();
            (universe, proc_lane)
        };
        let own: Vec<u64> = parts
            .store
            .states()
            .iter()
            .map(|ps| {
                ps.comps()[..n]
                    .iter()
                    .fold(0u64, |m, &pc| m | bit_of_lane(proc_lane[pc as usize]))
            })
            .collect();

        let root = parts.roots[0];
        let edges = parts.edges;

        // Reverse CSR: one counting-sort transpose of the flat edge
        // arena (no per-state `Vec` allocations).
        let preds: Csr<StateId> =
            edges.reversed(|e| e.2.index(), |src, _| StateId::from_index(src));

        // Backward fixpoint: reach(s) = own(s) ∪ ⋃ reach(s'), on the
        // shared bit-lane union engine (`ioa::fixpoint::backward_union`,
        // the same machinery the property evaluator batches its
        // backward analyses on).
        let mut reach = own.clone();
        let swap_lane: Option<Vec<u8>> = twists.as_ref().map(|_| {
            universe
                .iter()
                .map(|v| lane_index(&universe, &v.relabel_values(ValuePerm::Swap)))
                .collect()
        });
        match (&twists, &swap_lane) {
            (Some(tw), Some(swap)) => twisted_union(&edges, tw, swap, &mut reach),
            _ => ioa::fixpoint::backward_union(&preds, &mut reach),
        }

        let (zero, one) = (
            lane_bit_of(&universe, &Val::Int(0)),
            lane_bit_of(&universe, &Val::Int(1)),
        );
        let valence = reach
            .iter()
            .map(|&m| classify_bits(m & zero != 0, m & one != 0))
            .collect();
        // Distinct masks are few (at most 2^lanes), so a linear probe
        // beats sorting one mask per state.
        let mut masks: Vec<u64> = Vec::new();
        for &m in &reach {
            if !masks.contains(&m) {
                masks.push(m);
            }
        }
        if let Some(swap) = &swap_lane {
            let images: Vec<u64> = masks.iter().map(|&m| permute_lanes(swap, m)).collect();
            masks.extend(images);
        }
        masks.sort_unstable();
        masks.dedup();
        let decision_sets = masks
            .into_iter()
            .map(|m| (m, values_of(&universe, m)))
            .collect();
        let decoded = (0..parts.store.len()).map(|_| OnceLock::new()).collect();
        Ok(ValenceMap {
            store: parts.store,
            n,
            arenas,
            decoded,
            root,
            edges,
            preds,
            parent: parts.parent,
            stats: parts.stats,
            universe,
            proc_lane,
            own,
            reach,
            valence,
            decision_sets,
            sym: packed.symmetry_group(),
            swap_lane,
        })
    }

    /// Moves the map onto fresh component arenas holding only its own
    /// components. A map built on a packed system shared with other
    /// explorations (the Lemma 4 walk) otherwise keeps every component
    /// those explorations interned alive for as long as it lives. Ids,
    /// edges, decisions and valences are unchanged.
    pub(crate) fn compact(&mut self) {
        let (arenas, states, old_procs) = self.arenas.compacted(self.store.states());
        let mut store = StateStore::with_capacity(states.len());
        for ps in states {
            let h = fx_hash(&ps);
            let (_, fresh) = store.intern_prehashed(ps, h);
            debug_assert!(fresh, "re-packing is injective");
        }
        self.proc_lane = old_procs
            .iter()
            .map(|&pc| self.proc_lane[pc as usize])
            .collect();
        self.store = store;
        self.arenas = Arc::new(arenas);
    }

    /// The root state the map was built from.
    pub fn root(&self) -> &SystemState<P::State> {
        self.resolve(self.root)
    }

    /// The root's id.
    pub fn root_id(&self) -> StateId {
        self.root
    }

    /// The number of reachable states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// All ids in discovery (BFS) order.
    pub fn ids(&self) -> impl Iterator<Item = StateId> {
        self.store.ids()
    }

    /// Exploration census: states, edges, peak frontier, truncation.
    pub fn stats(&self) -> &ExploreStats {
        &self.stats
    }

    /// A deterministic accounting of the retained graph arenas:
    /// `(peak_interned_states, arena_bytes)`. The state store only ever
    /// grows, so the final count *is* the peak. Bytes sum the inline
    /// sizes of every retained per-map table — packed state headers and
    /// their id words, both CSR edge arenas, the BFS tree, the valence
    /// array, the decision masks and lane memo, the lazy-decode cells
    /// and the deep states decoded so far. The shared component arenas
    /// and heap owned *behind* component states (service buffers, deep
    /// `Val`s) are deliberately not traversed: the figure is a stable,
    /// allocator-independent lower bound for regression tracking, not
    /// an RSS report.
    #[must_use]
    pub fn footprint(&self) -> (u64, u64) {
        use std::mem::size_of;
        let words: usize = self.store.states().iter().map(|s| s.comps().len()).sum();
        let bytes = self.state_count() * size_of::<PackedState>()
            + words * size_of::<u32>()
            + self.edges.entry_count() * size_of::<(Task, Action, StateId)>()
            + self.preds.entry_count() * size_of::<StateId>()
            + self.parent.len() * size_of::<Option<(StateId, Task, Action)>>()
            + self.valence.len() * size_of::<Valence>()
            + (self.own.len() + self.reach.len()) * size_of::<u64>()
            + self
                .decision_sets
                .iter()
                .map(|(_, d)| size_of::<(u64, BTreeSet<Val>)>() + d.len() * size_of::<Val>())
                .sum::<usize>()
            + self.proc_lane.len()
            + self.decoded.len() * size_of::<OnceLock<Box<SystemState<P::State>>>>()
            + self.decoded_count() * size_of::<SystemState<P::State>>();
        (self.state_count() as u64, bytes as u64)
    }

    /// How many ids have had their deep state decoded so far — the
    /// lazy-decode census the differential tests pin.
    #[must_use]
    pub fn decoded_count(&self) -> usize {
        self.decoded.iter().filter(|c| c.get().is_some()).count()
    }

    /// The BFS-tree step that first discovered `id` (`None` for roots).
    pub fn discovered_by(&self, id: StateId) -> Option<&(StateId, Task, Action)> {
        self.parent[id.index()].as_ref()
    }

    /// Whether the map is an orbit quotient (built under a reducing
    /// [`SymmetryMode`] over a symmetric system).
    pub fn symmetric(&self) -> bool {
        self.sym.is_some()
    }

    /// The symmetry group the quotient was taken by, when any.
    pub fn sym(&self) -> Option<SymGroup> {
        self.sym
    }

    /// Whether `s` (or, in a quotient map, any state in its orbit) is
    /// in the explored space.
    pub fn contains(&self, s: &SystemState<P::State>) -> bool {
        self.id_of(s).is_some()
    }

    /// The id of `s` within the explored space, if present. In a
    /// quotient map the raw lookup (which covers the non-canonical
    /// root) falls back to the orbit representative, so any concrete
    /// state whose orbit was explored resolves.
    pub fn id_of(&self, s: &SystemState<P::State>) -> Option<StateId> {
        self.lookup(s).map(|(id, _)| id)
    }

    /// Resolves `s` to its interned id plus the value twist relating
    /// the two: `rep = σ·ν·s` for the returned `ν`, so every
    /// value-dependent answer read off the representative must be
    /// mapped back through `ν`. Raw hits (the non-canonical root, and
    /// every state of a concrete map) answer with the identity.
    ///
    /// The lookup encodes read-only against the component arenas: a
    /// component never interned means the state was never explored.
    fn lookup(&self, s: &SystemState<P::State>) -> Option<(StateId, ValuePerm)> {
        let raw = self
            .arenas
            .encode_existing(s)
            .and_then(|ps| self.store.get(&ps));
        if let Some(id) = raw {
            return Some((id, ValuePerm::Id));
        }
        let group = self.sym?;
        let (rep, _, nu) = canonical_system_state_with(group, s);
        let id = self.store.get(&self.arenas.encode_existing(&rep)?)?;
        Some((id, nu))
    }

    /// Resolve an id back to its deep state, decoding it on first use.
    #[inline]
    pub fn resolve(&self, id: StateId) -> &SystemState<P::State> {
        self.decoded[id.index()]
            .get_or_init(|| Box::new(self.arenas.decode(self.store.resolve(id))))
    }

    fn require(&self, s: &SystemState<P::State>) -> (StateId, ValuePerm) {
        self.lookup(s)
            .unwrap_or_else(|| panic!("state not in the explored space"))
    }

    /// The value set of a mask some state of the map reaches.
    fn decision_set(&self, mask: u64) -> &BTreeSet<Val> {
        let k = self
            .decision_sets
            .binary_search_by_key(&mask, |(m, _)| *m)
            .expect("every reachable mask has its value set");
        &self.decision_sets[k].1
    }

    /// The decision values reachable failure-free from `s`.
    ///
    /// In a value-composed quotient, a state whose canonicalization
    /// swapped 0 ↔ 1 answers through the lane relabeling: the
    /// decisions reachable from `s` are `ν` applied to those reachable
    /// from its representative.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not in the explored space (check with
    /// [`ValenceMap::contains`]).
    pub fn reachable_decisions(&self, s: &SystemState<P::State>) -> &BTreeSet<Val> {
        let (id, nu) = self.require(s);
        let mask = self.reach[id.index()];
        if nu.is_identity() {
            self.decision_set(mask)
        } else {
            let swap = self
                .swap_lane
                .as_ref()
                .expect("swap lookups only occur in value-composed quotients");
            self.decision_set(permute_lanes(swap, mask))
        }
    }

    /// The decision values reachable failure-free from `id`.
    #[inline]
    pub fn reachable_decisions_id(&self, id: StateId) -> &BTreeSet<Val> {
        self.decision_set(self.reach[id.index()])
    }

    /// The lane bit of decision value `v`: `0` when no state of the map
    /// records `v` (so no mask can contain it).
    #[must_use]
    pub(crate) fn lane_bit(&self, v: &Val) -> u64 {
        lane_bit_of(&self.universe, v)
    }

    /// The decisions recorded in `id` itself, as a lane mask (see
    /// [`ValenceMap::lane_bit`]).
    #[inline]
    pub(crate) fn own_decisions(&self, id: StateId) -> u64 {
        self.own[id.index()]
    }

    /// Whether process `i` has decided in `id` — one memo read, no
    /// decode.
    #[inline]
    pub(crate) fn proc_decided(&self, id: StateId, i: ProcId) -> bool {
        i.0 < self.n && self.proc_lane[self.store.resolve(id).comps()[i.0] as usize] != NO_LANE
    }

    /// The failed-set bitmask of `id` (bit `i` set iff `fail_i` has
    /// occurred).
    #[inline]
    pub(crate) fn failed_mask(&self, id: StateId) -> u32 {
        self.store.resolve(id).failed_mask()
    }

    /// Whether task `t` is applicable at `id`, read off the component
    /// arenas without decoding.
    pub(crate) fn applicable(&self, sys: &CompleteSystem<P>, t: &Task, id: StateId) -> bool {
        self.arenas.applicable(sys, t, self.store.resolve(id))
    }

    /// The valence of `s` (Section 3.2). In a value-composed quotient
    /// the representative's valence is mapped back through the lookup's
    /// value twist: 0-valent and 1-valent exchange under `ν = Swap`,
    /// bivalent and undecided are `ν`-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not in the explored space.
    pub fn valence(&self, s: &SystemState<P::State>) -> Valence {
        let (id, nu) = self.require(s);
        let v = self.valence_id(id);
        if nu.is_identity() {
            v
        } else {
            match v {
                Valence::Zero => Valence::One,
                Valence::One => Valence::Zero,
                other => other,
            }
        }
    }

    /// The valence of `id` (Section 3.2) — O(1) array access.
    #[inline]
    pub fn valence_id(&self, id: StateId) -> Valence {
        self.valence[id.index()]
    }

    /// Every state's valence, indexed by id — the census's input.
    pub fn valences(&self) -> &[Valence] {
        &self.valence
    }

    /// The `(task, action, successor)` edges out of `id` in `G(C)`
    /// (self-loops excluded) — a slice of the contiguous CSR arena.
    #[inline]
    pub fn successors(&self, id: StateId) -> &[(Task, Action, StateId)] {
        self.edges.row(id.index())
    }

    /// The predecessors of `id` in `G(C)`: one entry per incoming
    /// edge, in `(source id, edge position)` order. Sources with
    /// parallel edges to `id` appear once per edge.
    #[inline]
    pub fn predecessors(&self, id: StateId) -> &[StateId] {
        self.preds.row(id.index())
    }

    /// The deterministic successor of `s` under task `t` within the
    /// explored graph, if `t` is applicable (the `e(α)` operation of
    /// Section 3.1, restricted to non-self-loop progress edges).
    ///
    /// Resolved against the graph's own edge lists, not the system's
    /// transition function: a task whose only move is a self-loop (a
    /// stutter, pruned at exploration time) and a state outside the
    /// explored space both answer `None`, so the successor is always
    /// safe to feed back into [`ValenceMap::valence`].
    ///
    /// In a quotient map the returned successor is the *orbit
    /// representative* of the concrete successor — and when `s` itself
    /// resolved via its representative, the edge followed is the
    /// representative's. Callers that need a concrete (per-path) walk,
    /// like the hook search, must step with the system's own
    /// transition function and use the map only as a valence oracle.
    pub fn apply(&self, t: &Task, s: &SystemState<P::State>) -> Option<SystemState<P::State>> {
        let id = self.id_of(s)?;
        self.successors(id)
            .iter()
            .find(|(t2, _, _)| t2 == t)
            .map(|(_, _, s2)| self.resolve(*s2).clone())
    }
}

/// Per-edge value twists, present exactly when the quotient composed
/// the 0 ↔ 1 relabeling (`SymmetryMode::Values`). The explorer
/// canonicalizes successors without recording which group element did
/// it, so each edge's value component is re-derived by re-expanding
/// every source against the now-warm effect cache in exactly the
/// explorer's (task order, branch order) discipline, including its
/// two-stage self-loop pruning. `twists[k] = true` for flat-arena edge
/// `k` means the edge's concrete successor canonicalized through
/// `ValuePerm::Swap`: if `rep' = σ·ν·s'` then the decisions reachable
/// from the concrete successor `s'` are `ν` applied to those of
/// `rep'`, so the backward fixpoint must pull each edge's contribution
/// back through its twist.
fn value_twists<P: ProcessAutomaton>(
    packed: &PackedSystem<'_, P>,
    parts: &GraphParts<PackedSystem<'_, P>>,
) -> Option<Vec<bool>> {
    if !packed.symmetry_group()?.values {
        return None;
    }
    let tasks = Automaton::tasks(packed);
    let mut twists = Vec::new();
    for (idx, ps) in parts.store.states().iter().enumerate() {
        let row = parts.edges.row(idx);
        let mut k = 0usize;
        for t in &tasks {
            for (_, s2) in Automaton::succ_all(packed, t, ps) {
                if &s2 == ps {
                    continue;
                }
                let (rep, _, nu) = packed.canonical_with_sym(&s2);
                if &rep == ps {
                    continue;
                }
                debug_assert_eq!(&row[k].0, t, "re-expansion must mirror the explorer");
                debug_assert_eq!(
                    parts.store.get(&rep),
                    Some(row[k].2),
                    "re-expansion must rediscover the recorded successor"
                );
                twists.push(!nu.is_identity());
                k += 1;
            }
        }
        debug_assert_eq!(k, row.len(), "edge rows must be re-derived exactly");
    }
    Some(twists)
}

/// The ν-twisted backward fixpoint:
///   `D(r) = own(r) ∪ ⋃_{edges e: r → r'} ν_e(D(r'))`.
/// The untwisted bit-lane engine cannot express the per-edge lane
/// permutation, so the twisted quotient runs a worklist over a reverse
/// adjacency that carries each edge's twist bit. Set union is
/// confluent and ν is a lane bijection, so the least fixpoint is
/// reached regardless of processing order.
fn twisted_union(
    edges: &Csr<(Task, Action, StateId)>,
    twists: &[bool],
    swap: &[u8],
    masks: &mut [u64],
) {
    let n = masks.len();
    let mut rev: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n];
    let mut k = 0usize;
    for u in 0..n {
        for (_, _, v) in edges.row(u) {
            rev[v.index()].push((u as u32, twists[k]));
            k += 1;
        }
    }
    debug_assert_eq!(k, twists.len(), "one twist per flat-arena edge");
    let mut queue: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(v) = queue.pop_front() {
        queued[v] = false;
        let m = masks[v];
        if m == 0 {
            continue;
        }
        for &(u, sw) in &rev[v] {
            let contrib = if sw { permute_lanes(swap, m) } else { m };
            let u = u as usize;
            if masks[u] | contrib != masks[u] {
                masks[u] |= contrib;
                if !queued[u] {
                    queued[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
}

/// `mask` with lane `j` moved to lane `perm[j]`.
fn permute_lanes(perm: &[u8], mask: u64) -> u64 {
    perm.iter()
        .enumerate()
        .filter(|(j, _)| mask & (1 << j) != 0)
        .fold(0u64, |out, (_, &pj)| out | 1 << pj)
}

/// The values of the lanes set in `mask`.
fn values_of(universe: &[Val], mask: u64) -> BTreeSet<Val> {
    universe
        .iter()
        .enumerate()
        .filter(|(j, _)| mask & (1 << j) != 0)
        .map(|(_, v)| v.clone())
        .collect()
}

/// The lane of `v` in a sorted universe that contains it.
fn lane_index(universe: &[Val], v: &Val) -> u8 {
    let j = universe.binary_search(v).expect("value interned");
    u8::try_from(j).expect("at most 64 lanes")
}

/// The lane bit of `v`, or `0` when `v` has no lane.
fn lane_bit_of(universe: &[Val], v: &Val) -> u64 {
    universe.binary_search(v).map_or(0, |j| 1 << j)
}

fn classify_bits(zero: bool, one: bool) -> Valence {
    match (zero, one) {
        (true, true) => Valence::Bivalent,
        (true, false) => Valence::Zero,
        (false, true) => Valence::One,
        (false, false) => Valence::Undecided,
    }
}

/// Classifies a reachable-decisions set (binary consensus values).
pub fn classify(d: &BTreeSet<Val>) -> Valence {
    classify_bits(d.contains(&Val::Int(0)), d.contains(&Val::Int(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioa::automaton::Automaton;
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use spec::{ProcId, SvcId};
    use std::sync::Arc;
    use system::consensus::InputAssignment;
    use system::process::direct::DirectConsensus;
    use system::sched::initialize;

    fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    #[test]
    fn unanimous_initializations_are_univalent() {
        let sys = direct(2, 0);
        let s0 = initialize(&sys, &InputAssignment::monotone(2, 0));
        let map = ValenceMap::build(&sys, s0.clone(), 100_000).unwrap();
        assert_eq!(map.valence(&s0), Valence::Zero);
        let s1 = initialize(&sys, &InputAssignment::monotone(2, 2));
        let map = ValenceMap::build(&sys, s1.clone(), 100_000).unwrap();
        assert_eq!(map.valence(&s1), Valence::One);
    }

    #[test]
    fn mixed_initialization_is_bivalent_and_resolves() {
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        let map = ValenceMap::build(&sys, s.clone(), 100_000).unwrap();
        assert_eq!(map.valence(&s), Valence::Bivalent);
        // Let P0 (input 1) reach the object first: commits to 1.
        let s = map.apply(&Task::Proc(ProcId(0)), &s).expect("invoke step");
        let s = map
            .apply(&Task::Perform(SvcId(0), ProcId(0)), &s)
            .expect("perform step");
        assert_eq!(map.valence(&s), Valence::One);
    }

    #[test]
    fn valence_helpers() {
        assert!(Valence::Zero.is_univalent());
        assert!(!Valence::Bivalent.is_univalent());
        assert_eq!(Valence::Zero.opposite(), Valence::One);
        assert_eq!(Valence::One.decided_value(), Some(Val::Int(1)));
        assert_eq!(Valence::Bivalent.decided_value(), None);
    }

    #[test]
    fn truncation_is_an_error() {
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        assert!(ValenceMap::build(&sys, s, 3).is_err());
    }

    #[test]
    fn cache_stats_are_scoped_per_exploration() {
        // Regression: per-exploration cache stats used to be derived by
        // subtracting snapshots of the shared `PackedSystem`'s
        // cumulative counters, which drifts as soon as one packed
        // system serves several explorations (the `build_in` warm-walk
        // pattern). Each exploration now accounts through its own
        // scoped sink, so back-to-back and interleaved builds must
        // report exactly their own lookups.
        let sys = direct(2, 0);
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Off);
        let root_a = initialize(&sys, &InputAssignment::monotone(2, 1));
        let root_b = initialize(&sys, &InputAssignment::monotone(2, 0));

        let a1 = ValenceMap::build_in(&sys, &packed, root_a.clone(), 100_000, 1).unwrap();
        let c_a1 = a1.stats().cache.expect("packed builds track cache stats");
        assert!(c_a1.lookups() > 0);
        assert!(c_a1.misses > 0, "cold cache must record misses");

        // Interleave a different root, then rebuild the first: the
        // rebuild runs fully warm and its scoped stats must show the
        // same lookup count as the cold run, now all hits — regardless
        // of the α_0 exploration in between.
        let b = ValenceMap::build_in(&sys, &packed, root_b, 100_000, 1).unwrap();
        let c_b = b.stats().cache.expect("cache stats present");
        let a2 = ValenceMap::build_in(&sys, &packed, root_a, 100_000, 1).unwrap();
        let c_a2 = a2.stats().cache.expect("cache stats present");

        assert_eq!(
            c_a2.lookups(),
            c_a1.lookups(),
            "same exploration, same expansions, same lookups"
        );
        assert_eq!(c_a2.misses, 0, "warm rebuild must be all hits");
        assert_eq!(c_a2.hits, c_a1.lookups());
        // The interleaved exploration's stats belong to it alone: its
        // lookups reflect its own (smaller, unanimous-root) space, not
        // a drifted window over the shared counters.
        assert_eq!(c_b.lookups(), c_b.hits + c_b.misses);
        assert!(c_b.lookups() < c_a1.lookups() + c_a2.lookups());
    }

    #[test]
    fn compaction_keeps_every_answer() {
        // Two roots on one packed system: the second map's components
        // share the arenas with the first. Compacting the first must
        // leave ids, lookups, decisions and decoded states unchanged.
        let sys = direct(3, 1);
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Off);
        let root = initialize(&sys, &InputAssignment::monotone(3, 1));
        let reference = ValenceMap::build_in(&sys, &packed, root.clone(), 100_000, 1).unwrap();
        let mut map = ValenceMap::build_in(&sys, &packed, root, 100_000, 1).unwrap();
        let other = initialize(&sys, &InputAssignment::monotone(3, 3));
        let _ = ValenceMap::build_in(&sys, &packed, other, 100_000, 1).unwrap();
        map.compact();
        for id in reference.ids() {
            let s = reference.resolve(id);
            assert_eq!(map.resolve(id), s);
            assert_eq!(map.id_of(s), Some(id));
            assert_eq!(map.valence_id(id), reference.valence_id(id));
            assert_eq!(map.own_decisions(id), reference.own_decisions(id));
            for i in 0..3 {
                assert_eq!(
                    map.proc_decided(id, ProcId(i)),
                    reference.proc_decided(id, ProcId(i))
                );
            }
        }
    }

    #[test]
    fn decided_states_stay_decided() {
        // Once a decision is recorded it persists in every extension —
        // the monotonicity the Section 2.2.1 technicality buys.
        let sys = direct(2, 1);
        let s = initialize(&sys, &InputAssignment::monotone(2, 2));
        let map = ValenceMap::build(&sys, s.clone(), 100_000).unwrap();
        for id in map.ids() {
            let own = sys.decided_values(map.resolve(id));
            if !own.is_empty() {
                assert!(map.reachable_decisions_id(id).is_superset(&own));
            }
        }
    }

    #[test]
    fn id_and_state_lookups_agree() {
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        let map = ValenceMap::build(&sys, s.clone(), 100_000).unwrap();
        assert_eq!(map.root(), &s);
        assert_eq!(map.id_of(&s), Some(map.root_id()));
        for id in map.ids() {
            let st = map.resolve(id).clone();
            assert_eq!(map.valence(&st), map.valence_id(id));
            assert_eq!(map.reachable_decisions(&st), map.reachable_decisions_id(id));
        }
        assert_eq!(map.valences().len(), map.state_count());
    }

    #[test]
    fn apply_answers_none_on_stutters_and_off_graph() {
        // Regression: apply used to call sys.succ_det directly, so a
        // task whose only move is a Skip self-loop (pruned from G(C))
        // produced a "successor", and a foreign state produced one
        // whose valence() lookup then panicked.
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        let map = ValenceMap::build(&sys, s, 100_000).unwrap();
        let terminal = map
            .ids()
            .find(|&id| map.successors(id).is_empty())
            .expect("a fully decided state has no progress edges");
        let term_state = map.resolve(terminal).clone();
        let t = Task::Proc(ProcId(0));
        assert!(
            sys.succ_det(&t, &term_state).is_some(),
            "the stutter transition itself still exists"
        );
        assert_eq!(map.apply(&t, &term_state), None);
        let foreign = initialize(&sys, &InputAssignment::monotone(2, 2));
        assert_eq!(map.apply(&t, &foreign), None);
    }

    #[test]
    #[should_panic(expected = "not in the explored space")]
    fn foreign_states_panic() {
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        let map = ValenceMap::build(&sys, s, 100_000).unwrap();
        let other = initialize(&sys, &InputAssignment::monotone(2, 2));
        let _ = map.valence(&other);
    }
}
