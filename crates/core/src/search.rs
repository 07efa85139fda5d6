//! The heuristic MATE search (step 2+3 of the paper, Section 4).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mate_netlist::{CellId, FaultCone, NetCube, NetId, Netlist, SoaNetlist, Topology};

use crate::gmt::GmtCache;
use crate::mates::{summarize, Mate, MateSet};
use crate::paths::enumerate_paths;
use crate::propagate::{ConeSession, Mark, PropagationScratch};

/// Tuning knobs of the heuristic search.  The defaults are the paper's
/// evaluation parameters: depth 8, at most 4 gate-masking terms per MATE,
/// at most 100 000 candidates per faulty wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchConfig {
    /// How many gates deep to enumerate fault-propagation paths.
    pub depth: usize,
    /// Maximum number of gate-masking terms conjoined into one MATE.
    pub max_terms: usize,
    /// Candidate budget per faulty wire.
    pub max_candidates: usize,
    /// Path budget per faulty wire (exceeding it marks the wire
    /// unmaskable — conservative, the paper's prototype behaves likewise by
    /// aborting).
    pub max_paths: usize,
    /// Worker threads for [`search_design`]; `0` = one per CPU.
    pub threads: usize,
    /// How MATE candidates are constructed.
    pub strategy: SearchStrategy,
}

/// Candidate-construction strategies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// The paper's scheme: enumerate combinations of up to `max_terms`
    /// gate-masking cubes over the path gates, prefilter by path cover,
    /// verify by trust propagation.
    Exhaustive,
    /// Verifier-guided repair (this library's refinement): start from the
    /// empty cube, run trust propagation, and branch over masking cubes of
    /// the topologically earliest still-faulty gates until all endpoints are
    /// trusted.  Finds multi-cut MATEs that the blind combination search
    /// misses within the same budget.
    #[default]
    Repair,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            depth: 8,
            max_terms: 4,
            max_candidates: 100_000,
            max_paths: 4096,
            threads: 0,
            strategy: SearchStrategy::Repair,
        }
    }
}

impl SearchConfig {
    /// The paper's exact evaluation parameters (Section 5.2): depth 8, at
    /// most 4 terms, 100 000 candidates per wire, combination search.
    pub fn paper() -> Self {
        Self {
            strategy: SearchStrategy::Exhaustive,
            ..Self::default()
        }
    }
}

/// Outcome of the search for one faulty wire.
#[derive(Clone, Debug)]
pub struct WireSearchResult {
    /// The faulty wire.
    pub wire: NetId,
    /// Gates in the fault cone (the paper's cone-size statistic).
    pub cone_gates: usize,
    /// Number of MATE candidates tried.
    pub candidates_tried: usize,
    /// `true` when no MATE can exist (a propagation path without masking
    /// gates, a directly observable wire, or a burst path budget).
    pub unmaskable: bool,
    /// The discovered MATEs (each masking exactly this wire; deduplicated
    /// and free of subsumed cubes).
    pub mates: Vec<Mate>,
    /// Wall-clock time spent on this wire (cone sizes vary wildly, so
    /// per-wire times expose scheduler load imbalance).
    pub search_time: Duration,
}

/// Aggregate search statistics — the rows of Table 1.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Number of faulty wires searched.
    pub faulty_wires: usize,
    /// Mean fault-cone size in gates.
    pub avg_cone: f64,
    /// Median fault-cone size in gates.
    pub median_cone: usize,
    /// Wires proven unmaskable.
    pub unmaskable: usize,
    /// Total candidates tried.
    pub candidates: u64,
    /// Total per-wire MATEs before cross-wire deduplication.
    pub num_mates: usize,
    /// Wall-clock search time.
    pub run_time: Duration,
    /// Memoized gate-masking-term entries in the shared [`GmtCache`].
    pub gmt_entries: usize,
    /// The slowest single wire — together with `total_wire_time` this makes
    /// scheduler load imbalance observable without re-profiling.
    pub max_wire_time: Duration,
    /// Sum of per-wire search times across all workers (≥ `run_time` when
    /// the parallel search scales).
    pub total_wire_time: Duration,
}

/// A whole-design search result: per-wire detail plus aggregates.
#[derive(Clone, Debug)]
pub struct DesignSearch {
    /// Per-wire results, in input order.
    pub results: Vec<WireSearchResult>,
    /// Aggregate statistics.
    pub stats: SearchStats,
}

impl DesignSearch {
    /// Summarizes all per-wire MATEs into a deduplicated [`MateSet`].
    pub fn into_mate_set(self) -> MateSet {
        summarize(self.results.into_iter().flat_map(|r| r.mates))
    }
}

/// Searches MATEs for one faulty wire.
///
/// Follows the paper: build the fault cone, enumerate propagation paths,
/// collect gate-masking cubes for the path gates (mistrusting every cone
/// wire), abort early if some path has no masking-capable gate, then try
/// conjunctions of up to `max_terms` cubes from distinct gates and keep
/// those that cut every path.
pub fn search_wire(
    netlist: &Netlist,
    topo: &Topology,
    wire: NetId,
    config: &SearchConfig,
) -> WireSearchResult {
    let soa = SoaNetlist::build(netlist, topo);
    search_wire_scratch(
        netlist,
        topo,
        &soa,
        wire,
        config,
        &GmtCache::new(),
        &mut PropagationScratch::new(),
        Engine::Session,
    )
}

/// Which trust-propagation engine verifies candidates.  Production always
/// runs the incremental [`ConeSession`]; the from-scratch reference exists
/// only in test builds, as the oracle the session is compared against.
#[derive(Clone, Copy)]
enum Engine {
    /// Reusable [`PropagationScratch`]: dense generation-stamped state,
    /// memoized gate outcomes, incremental re-propagation along repair
    /// branches.
    Session,
    /// Per-candidate from-scratch propagation
    /// ([`propagate_cube_reference`]).
    #[cfg(test)]
    Reference,
}

/// The per-wire search behind [`search_wire`] and [`search_design`]:
/// shares a gate-masking-term cache and reuses one [`PropagationScratch`]
/// across wires, so steady-state candidate verification allocates nothing.
/// Worker threads of [`search_design`] each own one scratch for their whole
/// share of the design; the [`SoaNetlist`] arena is built once per design
/// and shared read-only by every worker.
#[allow(clippy::too_many_arguments)]
fn search_wire_scratch(
    netlist: &Netlist,
    topo: &Topology,
    soa: &SoaNetlist,
    wire: NetId,
    config: &SearchConfig,
    cache: &GmtCache,
    scratch: &mut PropagationScratch,
    engine: Engine,
) -> WireSearchResult {
    let start = Instant::now();
    let cone = FaultCone::compute(netlist, topo, wire);
    let mut result = WireSearchResult {
        wire,
        cone_gates: cone.num_gates(),
        candidates_tried: 0,
        unmaskable: false,
        mates: Vec::new(),
        search_time: Duration::ZERO,
    };

    let paths = enumerate_paths(netlist, topo, &cone, config.depth, config.max_paths);
    if paths.hopeless() || paths.paths.is_empty() {
        // No paths at all means the fault dies by itself only if the cone
        // has no endpoints — which cannot happen for validated netlists, so
        // treat both cases as unmaskable (empty-path sets arise only for
        // dangling wires).
        result.unmaskable = paths.hopeless();
        result.search_time = start.elapsed();
        return result;
    }

    // Sound early abort (the paper's "path where no gate can mask"):
    // walking each path with its *local* direct faulty pins (the pins fed by
    // the path predecessor), a gate whose gate-masking terms are empty even
    // for this minimal faulty set can never cut the path — if a whole path
    // consists of such gates, the wire is unmaskable.
    for path in &paths.paths {
        let mut prev = wire;
        let mut cuttable = false;
        for &cell in path {
            let mut local = 0u8;
            for (pin, &net) in netlist.cell(cell).inputs().iter().enumerate() {
                if net == prev {
                    local |= 1 << pin;
                }
            }
            if cache.can_mask(netlist.library(), netlist.cell(cell).type_id(), local) {
                cuttable = true;
                break;
            }
            prev = netlist.cell(cell).output();
        }
        if !cuttable {
            result.unmaskable = true;
            result.search_time = start.elapsed();
            return result;
        }
    }

    let budget = config.max_candidates;
    let mut found: Vec<NetCube> = Vec::new();
    match config.strategy {
        SearchStrategy::Exhaustive => {
            // For candidate generation, each path gate is assigned its
            // *direct* faulty-pin set: the union over paths of the pins fed
            // by its predecessor (or the origin).  Whether a chosen cube
            // really stops the whole fault is decided by the
            // trust-propagation verifier, which accounts for reconvergence
            // through deeper logic.
            let mut direct_mask: std::collections::HashMap<CellId, u8> =
                std::collections::HashMap::new();
            let mut order: Vec<CellId> = Vec::new();
            for path in &paths.paths {
                let mut prev = wire;
                for &cell in path {
                    let mut mask = 0u8;
                    for (pin, &net) in netlist.cell(cell).inputs().iter().enumerate() {
                        if net == prev {
                            mask |= 1 << pin;
                        }
                    }
                    let entry = direct_mask.entry(cell).or_insert_with(|| {
                        order.push(cell);
                        0
                    });
                    *entry |= mask;
                    prev = netlist.cell(cell).output();
                }
            }

            // Collect per-gate masking cubes translated from pins to nets.
            let mut gates: Vec<CellId> = Vec::new();
            let mut gate_cubes: Vec<Vec<NetCube>> = Vec::new();
            let mut gate_slot: std::collections::HashMap<CellId, usize> =
                std::collections::HashMap::new();
            for &cell in &order {
                let faulty = direct_mask[&cell];
                let ty = netlist.cell(cell).type_id();
                let cubes = cache.cubes(netlist.library(), ty, faulty);
                let inputs = netlist.cell(cell).inputs();
                let net_cubes: Vec<NetCube> = cubes
                    .iter()
                    .filter_map(|pc| {
                        NetCube::from_literals(pc.literals().map(|(pin, pol)| (inputs[pin], pol)))
                    })
                    .collect();
                gate_slot.insert(cell, gates.len());
                gates.push(cell);
                gate_cubes.push(net_cubes);
            }

            // Bitmask of maskable gates per path; 128 maskable gates is far
            // beyond any depth-8 cone's useful set — gates beyond that are
            // ignored (conservative).
            let maskable: Vec<usize> = (0..gates.len())
                .filter(|&g| !gate_cubes[g].is_empty())
                .take(128)
                .collect();
            let bit_of: std::collections::HashMap<usize, u32> = maskable
                .iter()
                .enumerate()
                .map(|(bit, &g)| (g, bit as u32))
                .collect();
            let mut path_masks: Vec<u128> = Vec::with_capacity(paths.paths.len());
            let mut coverable = true;
            for path in &paths.paths {
                let mut mask = 0u128;
                for &cell in path {
                    if let Some(&bit) = bit_of.get(&gate_slot[&cell]) {
                        mask |= 1 << bit;
                    }
                }
                if mask == 0 {
                    // Under the union masks this path has no candidate cut
                    // point; the combination search cannot cover it.
                    coverable = false;
                    break;
                }
                path_masks.push(mask);
            }
            if coverable {
                path_masks.sort_unstable();
                path_masks.dedup();
                match engine {
                    Engine::Session => {
                        let readers = cone.reader_index(netlist);
                        let session = scratch.session(netlist, soa, &cone, &readers, &[wire]);
                        run_combos(
                            &maskable,
                            &gate_cubes,
                            &path_masks,
                            config.max_terms,
                            &mut found,
                            &mut result.candidates_tried,
                            budget,
                            &mut SessionVerifier::new(session),
                        );
                    }
                    #[cfg(test)]
                    Engine::Reference => run_combos(
                        &maskable,
                        &gate_cubes,
                        &path_masks,
                        config.max_terms,
                        &mut found,
                        &mut result.candidates_tried,
                        budget,
                        &mut ReferenceCandidates {
                            netlist,
                            cone: &cone,
                            wire,
                        },
                    ),
                }
            }
        }
        SearchStrategy::Repair => match engine {
            Engine::Session => {
                let readers = cone.reader_index(netlist);
                let session = scratch.session(netlist, soa, &cone, &readers, &[wire]);
                repair_all(
                    netlist,
                    cache,
                    config.max_terms,
                    budget,
                    &mut found,
                    &mut result.candidates_tried,
                    &mut SessionVerifier::new(session),
                );
            }
            #[cfg(test)]
            Engine::Reference => repair_all(
                netlist,
                cache,
                config.max_terms,
                budget,
                &mut found,
                &mut result.candidates_tried,
                &mut ReferenceVerifier::start(netlist, &cone, &[wire]),
            ),
        },
    }

    result.mates = minimize_cubes(found)
        .into_iter()
        .map(|cube| Mate::single(cube, wire))
        .collect();
    result.search_time = start.elapsed();
    result
}

/// How the exhaustive strategy judges complete candidate cubes.  `push` /
/// `pop` bracket each conjoined gate cube during expansion so an
/// incremental engine keeps its state warm; the test-only reference
/// implements them as no-ops and propagates from scratch at the leaf.
trait CandidateVerifier {
    fn push(&mut self, next: &NetCube, prev: &NetCube) -> usize;
    fn pop(&mut self, mark: usize);
    fn masked_candidate(&mut self, candidate: &NetCube) -> bool;
}

/// From-scratch verification at the leaf only — the test oracle of the
/// exhaustive strategy.
#[cfg(test)]
struct ReferenceCandidates<'a> {
    netlist: &'a Netlist,
    cone: &'a FaultCone,
    wire: NetId,
}

#[cfg(test)]
impl CandidateVerifier for ReferenceCandidates<'_> {
    fn push(&mut self, _next: &NetCube, _prev: &NetCube) -> usize {
        0
    }

    fn pop(&mut self, _mark: usize) {}

    fn masked_candidate(&mut self, candidate: &NetCube) -> bool {
        cube_masks_wire(self.netlist, self.cone, self.wire, candidate)
    }
}

impl CandidateVerifier for SessionVerifier<'_> {
    fn push(&mut self, next: &NetCube, prev: &NetCube) -> usize {
        RepairVerifier::push(self, next, prev)
    }

    fn pop(&mut self, mark: usize) {
        RepairVerifier::pop(self, mark);
    }

    fn masked_candidate(&mut self, _candidate: &NetCube) -> bool {
        // The expansion already pushed every literal of the candidate; the
        // session holds its settled fixpoint.
        self.session.masked()
    }
}

/// Iterative deepening over combination size for the exhaustive strategy
/// (cheap, small MATEs first — the paper's preference for early masking).
#[allow(clippy::too_many_arguments)]
fn run_combos<V: CandidateVerifier>(
    maskable: &[usize],
    gate_cubes: &[Vec<NetCube>],
    path_masks: &[u128],
    max_terms: usize,
    found: &mut Vec<NetCube>,
    tried: &mut usize,
    budget: usize,
    verify: &mut V,
) {
    // Enumerate gate combinations of increasing size; for covering
    // combinations, expand the cube choices and keep the cubes the
    // trust-propagation check confirms.  Skip combinations that are
    // supersets of an already-successful one — their MATEs are subsumed.
    let mut covering: Vec<u128> = Vec::new();
    for size in 1..=max_terms.min(maskable.len()) {
        if *tried >= budget {
            break;
        }
        let mut combo: Vec<usize> = Vec::with_capacity(size);
        combo_rec(
            maskable,
            gate_cubes,
            path_masks,
            &mut covering,
            found,
            &mut combo,
            0,
            size,
            0u128,
            tried,
            budget,
            verify,
        );
    }
}

/// De-duplicates and drops subsumed cubes (keeps the most general ones).
///
/// A strictly-subsuming cube always has fewer literals, so after a stable
/// sort by literal count each cube only needs checking against the shorter
/// kept cubes — `O(n·k)` subsumption tests instead of the quadratic
/// all-pairs scan (equal-length distinct cubes can never subsume each
/// other, and duplicates are removed up front).
fn minimize_cubes(mut found: Vec<NetCube>) -> Vec<NetCube> {
    found.sort();
    found.dedup();
    found.sort_by_key(NetCube::len);
    let mut minimal: Vec<NetCube> = Vec::new();
    for cube in found {
        let dominated = minimal
            .iter()
            .take_while(|kept| kept.len() < cube.len())
            .any(|kept| kept.subsumes(&cube));
        if !dominated {
            minimal.push(cube);
        }
    }
    minimal.sort();
    minimal
}

/// Runs the goal-directed repair search over a joint fault cone with
/// several simultaneous origins (used by [`crate::multi::search_wire_set`]).
pub(crate) fn repair_multi(
    netlist: &Netlist,
    soa: &SoaNetlist,
    cone: &mate_netlist::FaultCone,
    origins: &[NetId],
    cache: &GmtCache,
    config: &SearchConfig,
    tried: &mut usize,
) -> Vec<NetCube> {
    let readers = cone.reader_index(netlist);
    let mut scratch = PropagationScratch::new();
    let session = scratch.session(netlist, soa, cone, &readers, origins);
    let mut found = Vec::new();
    repair_all(
        netlist,
        cache,
        config.max_terms,
        config.max_candidates,
        &mut found,
        tried,
        &mut SessionVerifier::new(session),
    );
    minimize_cubes(found)
}

/// Recursive gate-combination enumeration with cube expansion.
#[allow(clippy::too_many_arguments)]
fn combo_rec<V: CandidateVerifier>(
    maskable: &[usize],
    gate_cubes: &[Vec<NetCube>],
    path_masks: &[u128],
    covering: &mut Vec<u128>,
    found: &mut Vec<NetCube>,
    combo: &mut Vec<usize>,
    start: usize,
    size: usize,
    mask: u128,
    tried: &mut usize,
    budget: usize,
    verify: &mut V,
) {
    if *tried >= budget {
        return;
    }
    if combo.len() == size {
        // Every complete combination counts against the budget, covering or
        // not — otherwise large `max_terms` values explode the enumeration
        // on uncoverable path sets.
        *tried += 1;
        // Prefilter: every enumerated path must run through a chosen gate.
        let all = path_masks.iter().all(|&p| p & mask != 0);
        if !all {
            return;
        }
        // A superset of an already-successful combination only yields
        // subsumed cubes.
        if covering.iter().any(|&c| c & mask == c && c != mask) {
            return;
        }
        // Expand the cartesian product of cube choices.
        let before = found.len();
        expand_cubes(
            gate_cubes,
            combo,
            0,
            &NetCube::top(),
            found,
            tried,
            budget,
            verify,
        );
        if found.len() > before {
            covering.push(mask);
        }
        return;
    }
    let remaining = size - combo.len();
    for (i, &g) in maskable.iter().enumerate().skip(start) {
        if maskable.len() - i < remaining {
            break;
        }
        combo.push(g);
        combo_rec(
            maskable,
            gate_cubes,
            path_masks,
            covering,
            found,
            combo,
            i + 1,
            size,
            mask | (1 << (i as u32)),
            tried,
            budget,
            verify,
        );
        combo.pop();
        if *tried >= budget {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn expand_cubes<V: CandidateVerifier>(
    gate_cubes: &[Vec<NetCube>],
    combo: &[usize],
    idx: usize,
    acc: &NetCube,
    found: &mut Vec<NetCube>,
    tried: &mut usize,
    budget: usize,
    verify: &mut V,
) {
    if *tried >= budget {
        return;
    }
    if idx == combo.len() {
        *tried += 1;
        if verify.masked_candidate(acc) {
            found.push(acc.clone());
        }
        return;
    }
    for cube in &gate_cubes[combo[idx]] {
        if *tried >= budget {
            return;
        }
        match acc.conjoin(cube) {
            Some(next) => {
                let mark = verify.push(&next, acc);
                expand_cubes(
                    gate_cubes,
                    combo,
                    idx + 1,
                    &next,
                    found,
                    tried,
                    budget,
                    verify,
                );
                verify.pop(mark);
            }
            None => {
                // Contradictory literals — an unsatisfiable candidate still
                // counts against the budget.
                *tried += 1;
            }
        }
    }
}

/// The trust-propagation verifier: decides whether fixing the cube's border
/// literals provably masks a fault on `wire` within one cycle.
///
/// Walks the fault cone in topological order maintaining the set of
/// *possibly-faulty* nets (initially the origin).  A gate output stays
/// trusted iff, for every assignment of its unconstrained trusted pins (and
/// the cube-fixed pins at their required values), the output is independent
/// of the possibly-faulty pins.  The fault is masked iff no cone endpoint
/// (flip-flop data pin or primary output) is possibly faulty.
///
/// This check is sound against reconvergence: a pin is treated as trusted
/// only if *no* route can deliver the fault to it given the cuts established
/// by topologically earlier gates.
pub fn cube_masks_wire(
    netlist: &Netlist,
    cone: &mate_netlist::FaultCone,
    wire: NetId,
    cube: &NetCube,
) -> bool {
    propagate_cube_reference(netlist, cone, &[wire], cube).masked
}

/// Result of one reference trust-propagation pass.
#[derive(Clone, Debug)]
pub struct PropagationOutcome {
    /// `true` iff no endpoint is possibly faulty under the cube.
    pub masked: bool,
    /// The set of possibly-faulty nets.
    pub possibly: mate_netlist::BitSet,
    /// The first (in endpoint order) still-faulty endpoint net, if any.
    pub first_faulty_endpoint: Option<NetId>,
}

/// The paper-faithful from-scratch trust propagation.
///
/// This is the executable specification of the optimized engine in
/// [`crate::propagate`]: it allocates a fresh possibly-faulty bit set and
/// known-constant map per call and re-enumerates every free pin assignment
/// of every cone gate.  Kept verbatim so the equivalence tests can diff the
/// fast path against it.
pub fn propagate_cube_reference(
    netlist: &Netlist,
    cone: &mate_netlist::FaultCone,
    origins: &[NetId],
    cube: &NetCube,
) -> PropagationOutcome {
    let mut possibly = mate_netlist::BitSet::new(netlist.num_nets());
    for &origin in origins {
        possibly.insert(origin.index());
    }
    // Known constant values: the cube's literals, extended by 3-valued
    // constant propagation through the cone (so `we = 0` is derived from
    // the state literals that force it, and one literal can disable a whole
    // bank of write muxes).
    let mut known: std::collections::HashMap<NetId, bool> = cube.literals().collect();
    for &cell in cone.cells() {
        let inputs = netlist.cell(cell).inputs();
        let out = netlist.cell(cell).output();
        let mut p_mask = 0u8;
        let mut fixed_mask = 0u8;
        let mut fixed_vals = 0u8;
        for (pin, &net) in inputs.iter().enumerate() {
            if possibly.contains(net.index()) {
                p_mask |= 1 << pin;
            } else if let Some(&v) = known.get(&net) {
                fixed_mask |= 1 << pin;
                if v {
                    fixed_vals |= 1 << pin;
                }
            }
        }
        let tt = netlist
            .cell_type_of(cell)
            .truth_table()
            .expect("cone cells are combinational");
        let all_pins = ((1u16 << tt.inputs()) - 1) as u8;
        // Enumerate the free (unknown-but-unfaulty) assignments once,
        // deciding both masking (output independent of the possibly-faulty
        // pins everywhere) and constant-ness (output identical everywhere).
        let free_mask = all_pins & !p_mask & !fixed_mask;
        let mut masked = true;
        let mut constant: Option<bool> = None;
        let mut constant_valid = true;
        let mut free = free_mask as usize;
        loop {
            let base = free | fixed_vals as usize;
            if p_mask != 0 && !tt.masks_fault(p_mask, base) {
                masked = false;
                break;
            }
            if constant_valid {
                // Output for this assignment (faulty pins at 0 — they do
                // not matter when masked; when unmasked we bail anyway).
                let v = tt.eval(base & !(p_mask as usize));
                match constant {
                    None => constant = Some(v),
                    Some(prev) if prev != v => constant_valid = false,
                    _ => {}
                }
            }
            if free == 0 {
                break;
            }
            free = (free - 1) & free_mask as usize;
        }
        if !masked {
            possibly.insert(out.index());
            continue;
        }
        if constant_valid {
            if let Some(v) = constant {
                known.insert(out, v);
            }
        }
    }
    let mut first_faulty_endpoint = None;
    for ep in cone.endpoints() {
        let net = match *ep {
            mate_netlist::ConeEndpoint::SeqPin { cell, pin } => netlist.cell(cell).inputs()[pin],
            mate_netlist::ConeEndpoint::Output(net) => net,
        };
        if possibly.contains(net.index()) {
            first_faulty_endpoint = Some(net);
            break;
        }
    }
    PropagationOutcome {
        masked: first_faulty_endpoint.is_none(),
        possibly,
        first_faulty_endpoint,
    }
}

/// Branch width of the repair search: how many cuttable still-faulty gates
/// are considered as the next cut point at each level.
const REPAIR_BRANCH_WIDTH: usize = 6;

/// How many gates the backward walk from a faulty endpoint may visit while
/// collecting cut candidates.
const REPAIR_BACKWALK_LIMIT: usize = 96;

/// The propagation engine the repair search runs against.  `push` extends
/// the current candidate by the literals of `next` that `prev` lacks and
/// re-propagates; `pop` restores the parent state.  Both implementations
/// answer queries about the *current* candidate's propagation fixpoint.
trait RepairVerifier {
    fn push(&mut self, next: &NetCube, prev: &NetCube) -> usize;
    fn pop(&mut self, mark: usize);
    fn masked(&self) -> bool;
    fn first_faulty_endpoint(&self) -> Option<NetId>;
    fn possibly(&self, net: NetId) -> bool;
}

/// From-scratch propagation per candidate (a stack of full
/// [`PropagationOutcome`]s) — the test oracle of the repair strategy.
#[cfg(test)]
struct ReferenceVerifier<'a> {
    netlist: &'a Netlist,
    cone: &'a FaultCone,
    origins: &'a [NetId],
    stack: Vec<PropagationOutcome>,
}

#[cfg(test)]
impl<'a> ReferenceVerifier<'a> {
    fn start(netlist: &'a Netlist, cone: &'a FaultCone, origins: &'a [NetId]) -> Self {
        let root = propagate_cube_reference(netlist, cone, origins, &NetCube::top());
        Self {
            netlist,
            cone,
            origins,
            stack: vec![root],
        }
    }
}

#[cfg(test)]
impl RepairVerifier for ReferenceVerifier<'_> {
    fn push(&mut self, next: &NetCube, _prev: &NetCube) -> usize {
        let mark = self.stack.len();
        self.stack.push(propagate_cube_reference(
            self.netlist,
            self.cone,
            self.origins,
            next,
        ));
        mark
    }

    fn pop(&mut self, mark: usize) {
        self.stack.truncate(mark);
    }

    fn masked(&self) -> bool {
        self.stack.last().expect("root outcome present").masked
    }

    fn first_faulty_endpoint(&self) -> Option<NetId> {
        self.stack
            .last()
            .expect("root outcome present")
            .first_faulty_endpoint
    }

    fn possibly(&self, net: NetId) -> bool {
        self.stack
            .last()
            .expect("root outcome present")
            .possibly
            .contains(net.index())
    }
}

/// Incremental propagation via a [`ConeSession`] — the fast path.
struct SessionVerifier<'a> {
    session: ConeSession<'a>,
    marks: Vec<Mark>,
}

impl<'a> SessionVerifier<'a> {
    fn new(session: ConeSession<'a>) -> Self {
        Self {
            session,
            marks: Vec::new(),
        }
    }
}

impl RepairVerifier for SessionVerifier<'_> {
    fn push(&mut self, next: &NetCube, prev: &NetCube) -> usize {
        let delta = next
            .literals()
            .filter(|&(net, _)| prev.polarity_of(net).is_none());
        let mark = self.session.assume(delta);
        self.marks.push(mark);
        self.marks.len() - 1
    }

    fn pop(&mut self, mark: usize) {
        let restore = self.marks[mark];
        self.session.undo(restore);
        self.marks.truncate(mark);
    }

    fn masked(&self) -> bool {
        self.session.masked()
    }

    fn first_faulty_endpoint(&self) -> Option<NetId> {
        self.session.first_faulty_endpoint()
    }

    fn possibly(&self, net: NetId) -> bool {
        self.session.possibly(net)
    }
}

/// Reusable buffers for the backward cut walk: a flat FIFO plus a
/// generation-stamped visited set, so each repair node allocates neither a
/// queue nor a hash set.  Also carries a dense per-search mirror of the
/// shared [`GmtCache`] — the walk queries masking cubes for every visited
/// cell, and a direct `(type, faulty-mask)` slot lookup beats hashing into
/// the `RwLock`-guarded table on every probe.
struct CutWalk {
    queue: Vec<CellId>,
    stamp: Vec<u32>,
    gen: u32,
    gmt: Vec<Option<std::sync::Arc<[mate_netlist::PinCube]>>>,
}

impl CutWalk {
    fn new(netlist: &Netlist) -> Self {
        Self {
            queue: Vec::new(),
            stamp: vec![0; netlist.num_cells()],
            gen: 0,
            // One slot per (cell type, 8-bit faulty-pin mask).
            gmt: vec![None; netlist.library().len() * 256],
        }
    }

    /// The masking cubes for `(ty, p_mask)`, memoized locally and filled
    /// from the shared cache on first use.
    fn cubes(
        &mut self,
        cache: &GmtCache,
        library: &mate_netlist::Library,
        ty: mate_netlist::CellTypeId,
        p_mask: u8,
    ) -> std::sync::Arc<[mate_netlist::PinCube]> {
        let slot = &mut self.gmt[ty.index() * 256 + p_mask as usize];
        match slot {
            Some(hit) => std::sync::Arc::clone(hit),
            None => std::sync::Arc::clone(slot.insert(cache.cubes(library, ty, p_mask))),
        }
    }

    fn begin(&mut self) {
        self.queue.clear();
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// Marks a cell visited; `true` when it was not seen this walk.
    fn mark(&mut self, cell: CellId) -> bool {
        let slot = &mut self.stamp[cell.index()];
        if *slot == self.gen {
            false
        } else {
            *slot = self.gen;
            true
        }
    }
}

/// Collects cut candidates for the first still-faulty endpoint: a backward
/// breadth-first walk from the endpoint's driver over possibly-faulty nets,
/// keeping the gates whose current faulty-pin set has masking cubes.
/// Nearest-to-the-endpoint cuts come first — those are the choke points
/// where many fault routes have already merged.  The memoized cube slice is
/// returned alongside each cut so the branch ordering and expansion below
/// reuse it instead of re-querying the shared cache.
fn relevant_cuts<V: RepairVerifier>(
    netlist: &Netlist,
    verifier: &V,
    endpoint: NetId,
    cache: &GmtCache,
    walk: &mut CutWalk,
) -> Vec<(CellId, std::sync::Arc<[mate_netlist::PinCube]>)> {
    walk.begin();
    if let mate_netlist::NetDriver::Cell(driver) = netlist.net(endpoint).driver() {
        walk.mark(driver);
        walk.queue.push(driver);
    }
    let mut out = Vec::new();
    let mut visited = 0usize;
    let mut head = 0usize;
    while head < walk.queue.len() {
        let cell = walk.queue[head];
        head += 1;
        visited += 1;
        if visited > REPAIR_BACKWALK_LIMIT {
            break;
        }
        if netlist.is_seq_cell(cell) {
            continue;
        }
        let inputs = netlist.cell(cell).inputs();
        let mut p_mask = 0u8;
        for (pin, &net) in inputs.iter().enumerate() {
            if verifier.possibly(net) {
                p_mask |= 1 << pin;
            }
        }
        if p_mask != 0 {
            let cubes = walk.cubes(
                cache,
                netlist.library(),
                netlist.cell(cell).type_id(),
                p_mask,
            );
            if !cubes.is_empty() {
                out.push((cell, cubes));
                if out.len() >= 2 * REPAIR_BRANCH_WIDTH {
                    break;
                }
            }
        }
        for (pin, &net) in inputs.iter().enumerate() {
            if p_mask & (1 << pin) == 0 {
                continue;
            }
            if let mate_netlist::NetDriver::Cell(driver) = netlist.net(net).driver() {
                if walk.mark(driver) {
                    walk.queue.push(driver);
                }
            }
        }
    }
    out
}

/// Iterative deepening over the term limit: cheap single-cut MATEs are
/// found first across *all* branches before expensive multi-cut ones
/// consume budget — this both mirrors the paper's preference for early
/// masking and yields a diverse MATE set.
fn repair_all<V: RepairVerifier>(
    netlist: &Netlist,
    cache: &GmtCache,
    max_terms: usize,
    budget: usize,
    found: &mut Vec<NetCube>,
    tried: &mut usize,
    verifier: &mut V,
) {
    let mut walk = CutWalk::new(netlist);
    for limit in 1..=max_terms {
        if *tried >= budget {
            break;
        }
        repair_rec(
            netlist,
            cache,
            &NetCube::top(),
            limit,
            found,
            tried,
            budget,
            verifier,
            &mut walk,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn repair_rec<V: RepairVerifier>(
    netlist: &Netlist,
    cache: &GmtCache,
    candidate: &NetCube,
    terms_left: usize,
    found: &mut Vec<NetCube>,
    tried: &mut usize,
    budget: usize,
    verifier: &mut V,
    walk: &mut CutWalk,
) {
    if *tried >= budget {
        return;
    }
    *tried += 1;
    if verifier.masked() {
        found.push(candidate.clone());
        return;
    }
    if terms_left == 0 {
        return;
    }
    // A MATE extending an already-found cube is subsumed; skip such
    // branches early.
    if found.iter().any(|f| f.subsumes(candidate)) {
        return;
    }
    // Goal-directed branching: collect cuts that can sever the fault flow
    // into the first still-faulty endpoint, preferring cheap cubes (a mux
    // select or an enable is both more likely to verify and more likely to
    // trigger at run time than a multi-literal operand condition).
    let endpoint = verifier
        .first_faulty_endpoint()
        .expect("unmasked propagation names an endpoint");
    let mut cuttable = relevant_cuts(netlist, verifier, endpoint, cache, walk);
    cuttable.sort_by_key(|(_, cubes)| {
        cubes
            .first()
            .map_or(usize::MAX, mate_netlist::PinCube::num_literals)
    });
    cuttable.truncate(REPAIR_BRANCH_WIDTH);
    for (cell, cubes) in cuttable {
        let inputs = netlist.cell(cell).inputs();
        for pc in cubes.iter() {
            let Some(gate_cube) =
                NetCube::from_literals(pc.literals().map(|(pin, pol)| (inputs[pin], pol)))
            else {
                continue;
            };
            let Some(next) = candidate.conjoin(&gate_cube) else {
                *tried += 1;
                continue;
            };
            if next.len() == candidate.len() {
                // No new information (literals already present) — would
                // recurse forever.
                continue;
            }
            let mark = verifier.push(&next, candidate);
            repair_rec(
                netlist,
                cache,
                &next,
                terms_left - 1,
                found,
                tried,
                budget,
                verifier,
                walk,
            );
            verifier.pop(mark);
            if *tried >= budget {
                return;
            }
        }
    }
}

/// Runs the MATE search for every wire in `wires`, in parallel.
///
/// The per-wire searches are independent; the paper parallelizes over faulty
/// flip-flops the same way.  Fault-cone sizes vary by orders of magnitude,
/// so the workers self-schedule over a shared atomic wire index (work
/// stealing by competitive claiming) instead of static chunking — a thread
/// that drew cheap wires immediately claims more.  Results land in input
/// order and are bit-identical for every thread count.
pub fn search_design(
    netlist: &Netlist,
    topo: &Topology,
    wires: &[NetId],
    config: &SearchConfig,
) -> DesignSearch {
    let start = Instant::now();
    let cache = GmtCache::new();
    // One compile-once arena for the whole design: every worker's
    // propagation sessions gather cone geometry from its flat arrays.
    let soa = SoaNetlist::build(netlist, topo);
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        config.threads
    }
    .max(1)
    .min(wires.len().max(1));

    let mut results: Vec<Option<WireSearchResult>> = vec![None; wires.len()];
    if threads <= 1 || wires.len() < 2 {
        let mut scratch = PropagationScratch::new();
        for (slot, &wire) in results.iter_mut().zip(wires) {
            *slot = Some(search_wire_scratch(
                netlist,
                topo,
                &soa,
                wire,
                config,
                &cache,
                &mut scratch,
                Engine::Session,
            ));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let cache = &cache;
                    let next = &next;
                    let soa = &soa;
                    scope.spawn(move || {
                        let mut scratch = PropagationScratch::new();
                        let mut claimed: Vec<(usize, WireSearchResult)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= wires.len() {
                                break;
                            }
                            claimed.push((
                                i,
                                search_wire_scratch(
                                    netlist,
                                    topo,
                                    soa,
                                    wires[i],
                                    config,
                                    cache,
                                    &mut scratch,
                                    Engine::Session,
                                ),
                            ));
                        }
                        claimed
                    })
                })
                .collect();
            for worker in workers {
                for (i, r) in worker.join().expect("search worker panicked") {
                    results[i] = Some(r);
                }
            }
        });
    }
    let results: Vec<WireSearchResult> = results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect();

    let mut cones: Vec<usize> = results.iter().map(|r| r.cone_gates).collect();
    cones.sort_unstable();
    let stats = SearchStats {
        faulty_wires: results.len(),
        avg_cone: if cones.is_empty() {
            0.0
        } else {
            cones.iter().sum::<usize>() as f64 / cones.len() as f64
        },
        median_cone: cones.get(cones.len() / 2).copied().unwrap_or(0),
        unmaskable: results.iter().filter(|r| r.unmaskable).count(),
        candidates: results.iter().map(|r| r.candidates_tried as u64).sum(),
        num_mates: results.iter().map(|r| r.mates.len()).sum(),
        run_time: start.elapsed(),
        gmt_entries: cache.len(),
        max_wire_time: results
            .iter()
            .map(|r| r.search_time)
            .max()
            .unwrap_or_default(),
        total_wire_time: results.iter().map(|r| r.search_time).sum(),
    };
    DesignSearch { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_netlist::examples::{figure1, figure1b, tmr_register};

    fn find(netlist: &Netlist, name: &str) -> NetId {
        netlist.find_net(name).unwrap()
    }

    #[test]
    fn figure1_wire_d_yields_paper_mate() {
        let (n, topo) = figure1();
        let r = search_wire(&n, &topo, find(&n, "d"), &SearchConfig::default());
        assert!(!r.unmaskable);
        assert_eq!(r.cone_gates, 3);
        assert_eq!(r.mates.len(), 1);
        let cube = &r.mates[0].cube;
        assert_eq!(
            cube.literals().collect::<Vec<_>>(),
            vec![(find(&n, "f"), false), (find(&n, "h"), true)]
        );
    }

    #[test]
    fn figure1_wire_e_is_unmaskable() {
        let (n, topo) = figure1();
        let r = search_wire(&n, &topo, find(&n, "e"), &SearchConfig::default());
        assert!(r.unmaskable, "path through INV to output h cannot be cut");
        assert!(r.mates.is_empty());
    }

    #[test]
    fn figure1_wire_c_is_unmaskable_via_xor() {
        // c feeds XOR gate B: no masking capability, so the c fault reaches
        // D and E mistrusted; D and E can be cut — wait: the path c->B->D
        // can be cut at D, and c->B->E at E. So c *is* maskable like d.
        let (n, topo) = figure1();
        let r = search_wire(&n, &topo, find(&n, "c"), &SearchConfig::default());
        assert!(!r.unmaskable);
        assert_eq!(r.mates.len(), 1);
    }

    #[test]
    fn figure1b_state_bits_match_expectation() {
        let (n, topo) = figure1b();
        let cfg = SearchConfig::default();
        // a is masked by ¬b; b by ¬a.
        let ra = search_wire(&n, &topo, find(&n, "a"), &cfg);
        assert_eq!(ra.mates.len(), 1);
        assert_eq!(
            ra.mates[0].cube.literals().collect::<Vec<_>>(),
            vec![(find(&n, "b"), false)]
        );
        let rb = search_wire(&n, &topo, find(&n, "b"), &cfg);
        assert_eq!(
            rb.mates[0].cube.literals().collect::<Vec<_>>(),
            vec![(find(&n, "a"), false)]
        );
        // c feeds the OR gate: masked when the other OR input d is 1.
        let rc = search_wire(&n, &topo, find(&n, "c"), &cfg);
        assert_eq!(
            rc.mates[0].cube.literals().collect::<Vec<_>>(),
            vec![(find(&n, "d"), true)]
        );
        // d is a primary output and feeds an XOR: unmaskable.
        assert!(search_wire(&n, &topo, find(&n, "d"), &cfg).unmaskable);
        // e feeds an XOR and an inverter chain into ff_a: unmaskable.
        assert!(search_wire(&n, &topo, find(&n, "e"), &cfg).unmaskable);
    }

    #[test]
    fn tmr_replica_masked_when_voting() {
        let (n, topo) = tmr_register();
        let cfg = SearchConfig::default();
        let r0 = find(&n, "r0");
        let r = search_wire(&n, &topo, r0, &cfg);
        assert!(!r.unmaskable);
        // Masked when the other two replicas agree AND the vote output is
        // still... the MAJ3 gate masks r0 when r1 == r2; the vote net also
        // reaches the primary output, so cubes must cut the voter itself.
        assert!(!r.mates.is_empty());
        for mate in &r.mates {
            // All MATE inputs are border wires (not in r0's cone).
            let cone = FaultCone::compute(&n, &topo, r0);
            for (net, _) in mate.cube.literals() {
                assert!(!cone.contains_net(net));
            }
        }
    }

    #[test]
    fn candidate_budget_limits_work() {
        let (n, topo) = figure1();
        let cfg = SearchConfig {
            max_candidates: 1,
            ..SearchConfig::default()
        };
        let r = search_wire(&n, &topo, find(&n, "d"), &cfg);
        assert!(r.candidates_tried <= 1);
    }

    #[test]
    fn design_search_aggregates() {
        let (n, topo) = figure1b();
        let wires = crate::ff_wires(&n, &topo);
        let ds = search_design(&n, &topo, &wires, &SearchConfig::default());
        assert_eq!(ds.stats.faulty_wires, 5);
        assert_eq!(ds.stats.unmaskable, 2); // d (observable), e (XOR path)
        assert_eq!(ds.stats.num_mates, 3); // a, b, c each have one MATE
        assert!(ds.stats.gmt_entries > 0);
        assert!(ds.stats.total_wire_time >= ds.stats.max_wire_time);
        let set = ds.into_mate_set();
        assert!(!set.is_empty());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (n, topo) = tmr_register();
        let wires = crate::ff_wires(&n, &topo);
        let serial = search_design(
            &n,
            &topo,
            &wires,
            &SearchConfig {
                threads: 1,
                ..SearchConfig::default()
            },
        );
        for threads in [2, 3, 8] {
            let parallel = search_design(
                &n,
                &topo,
                &wires,
                &SearchConfig {
                    threads,
                    ..SearchConfig::default()
                },
            );
            let a: Vec<_> = serial.results.iter().map(|r| r.mates.clone()).collect();
            let b: Vec<_> = parallel.results.iter().map(|r| r.mates.clone()).collect();
            assert_eq!(a, b, "{threads}-thread work stealing diverged");
        }
    }

    /// Per-wire search of every wire in `wires` on one thread, verifying
    /// candidates with `engine`.
    fn search_with(
        n: &Netlist,
        topo: &Topology,
        wires: &[NetId],
        config: &SearchConfig,
        engine: Engine,
    ) -> Vec<WireSearchResult> {
        let soa = SoaNetlist::build(n, topo);
        let cache = GmtCache::new();
        let mut scratch = PropagationScratch::new();
        wires
            .iter()
            .map(|&w| search_wire_scratch(n, topo, &soa, w, config, &cache, &mut scratch, engine))
            .collect()
    }

    /// The from-scratch reference search and the production session search
    /// agree per wire — MATEs, candidate counts, unmaskable verdicts — for
    /// both strategies.
    fn assert_engines_agree(label: &str, n: &Netlist, topo: &Topology, config: SearchConfig) {
        let wires = crate::ff_wires(n, topo);
        for strategy in [SearchStrategy::Repair, SearchStrategy::Exhaustive] {
            let config = SearchConfig { strategy, ..config };
            let reference = search_with(n, topo, &wires, &config, Engine::Reference);
            let session = search_with(n, topo, &wires, &config, Engine::Session);
            for (r, s) in reference.iter().zip(&session) {
                assert_eq!(r.wire, s.wire, "{label}/{strategy:?}: wire order diverges");
                assert_eq!(
                    r.mates, s.mates,
                    "{label}/{strategy:?}: MATEs diverge on {:?}",
                    r.wire
                );
                assert_eq!(
                    r.candidates_tried, s.candidates_tried,
                    "{label}/{strategy:?}: candidate counts diverge on {:?}",
                    r.wire
                );
                assert_eq!(
                    r.unmaskable, s.unmaskable,
                    "{label}/{strategy:?}: unmaskable verdicts diverge on {:?}",
                    r.wire
                );
            }
        }
    }

    #[test]
    fn reference_and_optimized_agree_on_examples() {
        for (label, (n, topo)) in [
            ("figure1", figure1()),
            ("figure1b", figure1b()),
            ("tmr_register", tmr_register()),
        ] {
            assert_engines_agree(label, &n, &topo, SearchConfig::default());
        }
    }

    /// The real cores at the quick bench budgets: 4 terms, 100 candidates
    /// per wire.
    #[test]
    fn reference_and_optimized_agree_on_cores() {
        let config = SearchConfig {
            max_terms: 4,
            max_candidates: 100,
            ..SearchConfig::default()
        };
        let avr = mate_cores::AvrSystem::new();
        assert_engines_agree("avr", avr.netlist(), avr.topology(), config);
        let msp = mate_cores::Msp430System::new();
        assert_engines_agree("msp430", msp.netlist(), msp.topology(), config);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The propagation engine is verdict-invisible on random circuits.
        #[test]
        fn reference_and_optimized_agree_on_random_circuits(seed in 0u64..10_000) {
            let circuit = mate_netlist::random::RandomCircuitConfig {
                inputs: 4,
                ffs: 8,
                gates: 36,
                outputs: 3,
            };
            let (n, topo) = mate_netlist::random::random_circuit(circuit, seed);
            let config = SearchConfig {
                depth: 5,
                max_terms: 3,
                max_candidates: 300,
                max_paths: 256,
                ..SearchConfig::default()
            };
            assert_engines_agree(&format!("seed {seed}"), &n, &topo, config);
        }
    }

    /// SplitMix-style stream for the seeded minimize workload.
    fn mix(seed: u64, tag: u64, index: u64) -> u64 {
        let mut x = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag << 32 | index);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// The pre-optimization all-pairs subsumption scan, kept as the
    /// specification for `minimize_cubes`.
    fn minimize_cubes_reference(mut found: Vec<NetCube>) -> Vec<NetCube> {
        found.sort();
        found.dedup();
        let mut minimal: Vec<NetCube> = Vec::new();
        for cube in &found {
            if !minimal
                .iter()
                .any(|kept| kept != cube && kept.subsumes(cube))
            {
                minimal.retain(|kept| !cube.subsumes(kept) || kept == cube);
                minimal.push(cube.clone());
            }
        }
        minimal
    }

    #[test]
    fn minimize_cubes_matches_reference_on_seeded_workload() {
        for seed in 0..32u64 {
            // Cubes over a small net universe with 1–4 literals so subsumed
            // pairs, duplicates, and unrelated cubes all occur.
            let cubes: Vec<NetCube> = (0..120)
                .filter_map(|i| {
                    let nlits = 1 + (mix(seed, 1, i) % 4) as usize;
                    NetCube::from_literals((0..nlits).map(|l| {
                        let r = mix(seed, 2 + i, l as u64);
                        (NetId::from_index((r % 10) as usize), r >> 32 & 1 == 1)
                    }))
                })
                .collect();
            assert_eq!(
                minimize_cubes(cubes.clone()),
                minimize_cubes_reference(cubes),
                "seed {seed}"
            );
        }
    }
}
