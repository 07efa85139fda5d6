//! Independent MATE soundness verifier.
//!
//! A MATE for wire `w` claims: *whenever the MATE cube holds in a clock
//! cycle, a single-event upset on `w` in that cycle is masked before it
//! reaches any flip-flop input or primary output*.  This module re-proves
//! that claim sharing **zero** code with the propagation engines that
//! produced the MATE (`mate::search` / `mate::propagate`): it compiles the
//! fault cone to CNF ([`crate::encode`]) and decides the masking condition
//! exactly with the CDCL solver in [`crate::sat`].  Every verdict is a
//! certificate ([`Verdict::Proved`] carries a replay-checked UNSAT answer,
//! [`Verdict::Refuted`] a re-simulated model) unless the conflict budget
//! fires.
//!
//! [`verify_mate_wire_enum`] is the test oracle the solver is compared
//! against; no configuration selects it.  It brute-forces the claim:
//!
//! 1. Rebuild the fault cone of `w` and its border wires.
//! 2. Specialize every cone gate by [`TruthTable::cofactor`]-ing out the
//!    border pins the cube pins to constants.
//! 3. Enumerate all remaining free border-wire assignments (up to a cap,
//!    64 assignments per word via [`TruthTable::eval_wide`]); for each
//!    assignment consistent with the cube, require every cone endpoint to
//!    take the same value for both origin polarities.
//!
//! The proof obligation is checked against the *fault-free* circuit
//! semantics: for origin value `o` and border assignment `B`, the cube must
//! be re-checked on the cone values implied by `(o, B)` (a cube may contain
//! literals on cone-internal wires, not just border wires).  Literals on
//! wires outside the cone and its border are ignored, which only *widens*
//! the set of assignments we demand masking for — a refutation under the
//! widened cube is reported as [`Verdict::Refuted`], and a proof is still a
//! proof of the original claim.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mate::{Mate, MateSet};
use mate_netlist::{
    ConeEndpoint, FaultCone, NetCube, NetId, Netlist, SoaNetlist, Topology, TruthTable,
};

use crate::encode::{FaultConeCnf, MateProof};
use crate::sat::SolveStats;

/// Limits for [`verify_mate_wire`] / [`verify_mates`].
#[derive(Clone, Copy, Debug)]
pub struct VerifyConfig {
    /// Worker threads for [`verify_mates`]; `0` means all available cores.
    pub threads: usize,
    /// Conflict budget per solver call; a call that exhausts it comes back
    /// [`Verdict::Bounded`].
    pub conflict_budget: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            conflict_budget: 1_000_000,
        }
    }
}

/// A concrete assignment demonstrating that a MATE does not mask a fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The fault-free value of the faulty wire in the violating cycle.
    pub origin_value: bool,
    /// The full border-wire assignment (cube-pinned and free wires alike),
    /// sorted by net id.
    pub assignment: Vec<(NetId, bool)>,
    /// The endpoint net that takes different values with and without the
    /// fault.
    pub endpoint: NetId,
}

/// Outcome of verifying one (MATE, wire) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every border assignment consistent with the cube masks the fault.
    Proved {
        /// Number of assignments enumerated (the full space).
        checked: u64,
    },
    /// No violation found, but the space was not decided: the solver's
    /// conflict budget fired (then `checked` is 0 and
    /// [`MateVerdict::stats`] records the effort), or the enumeration
    /// oracle's cap truncated it.
    Bounded {
        /// Number of assignments enumerated.
        checked: u64,
    },
    /// The MATE is unsound: a consistent assignment propagates the fault.
    Refuted {
        /// The violating assignment.
        counterexample: Counterexample,
    },
}

impl Verdict {
    /// Lower-case label used by renderers and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Proved { .. } => "proved",
            Verdict::Bounded { .. } => "bounded",
            Verdict::Refuted { .. } => "refuted",
        }
    }
}

/// One verified (MATE, wire) pair inside a [`MateSet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MateVerdict {
    /// Index of the MATE in the verified set.
    pub mate_index: usize,
    /// The faulty wire the MATE claims to mask.
    pub wire: NetId,
    /// The verification outcome.
    pub verdict: Verdict,
    /// Solver counters.  Deterministic (no wall time), so verdict lists
    /// stay bit-identical across runs and thread counts.
    pub stats: SolveStats,
}

/// Proved / Bounded / Refuted counts over a verdict list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Pairs proved over the full assignment space.
    pub proved: usize,
    /// Pairs left undecided.
    pub bounded: usize,
    /// Unsound pairs.
    pub refuted: usize,
}

/// Tallies verdicts.
pub fn count_verdicts(verdicts: &[MateVerdict]) -> VerdictCounts {
    let mut c = VerdictCounts::default();
    for v in verdicts {
        match v.verdict {
            Verdict::Proved { .. } => c.proved += 1,
            Verdict::Bounded { .. } => c.bounded += 1,
            Verdict::Refuted { .. } => c.refuted += 1,
        }
    }
    c
}

/// A cone gate with its cube-pinned border pins cofactored away.
struct SpecGate {
    /// Truth table over the remaining (free) pins.
    tt: TruthTable,
    /// Source net per remaining pin, in pin order.
    srcs: Vec<NetId>,
    /// Output net.
    out: NetId,
}

/// The 64-lane enumeration constants: lane `l` of word `j` holds bit `j` of
/// the lane index, so the six words together enumerate all 64 assignments of
/// six free wires in one pass.
const LANE_WORDS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Verifies that `cube` masks a fault on `wire` within one clock cycle.
///
/// This builds a fresh [`SoaNetlist`] per call; batch callers should
/// prefer [`verify_mates`], which builds the arena once.
pub fn verify_mate_wire(
    netlist: &Netlist,
    topo: &Topology,
    wire: NetId,
    cube: &NetCube,
    config: &VerifyConfig,
) -> Verdict {
    let soa = SoaNetlist::build(netlist, topo);
    verify_mate_wire_sat(netlist, &soa, wire, cube, config.conflict_budget).0
}

/// The SAT proof path for one (MATE, wire) pair: compiles the fault cone
/// to CNF ([`FaultConeCnf`]) and decides the masking condition exactly,
/// returning the verdict together with the solver counters.
///
/// * UNSAT (replay-checked) ⇒ [`Verdict::Proved`] over the full
///   `2^free`-assignment space.
/// * SAT ⇒ [`Verdict::Refuted`] with a counterexample — the least escaping
///   border assignment in border order — that has been re-simulated
///   through the cone independently of the CNF.
/// * Budget exhausted ⇒ [`Verdict::Bounded`] with `checked = 0` (nothing
///   was exhaustively covered; the counters record the effort).
pub fn verify_mate_wire_sat(
    netlist: &Netlist,
    soa: &SoaNetlist,
    wire: NetId,
    cube: &NetCube,
    conflict_budget: u64,
) -> (Verdict, SolveStats) {
    let cnf = FaultConeCnf::new(netlist, soa, wire);
    match cnf.prove_mate(cube, conflict_budget) {
        MateProof::Masked { free, stats } => {
            let checked = if free >= 63 { u64::MAX } else { 1u64 << free };
            (Verdict::Proved { checked }, stats)
        }
        MateProof::Escape {
            counterexample,
            stats,
        } => (Verdict::Refuted { counterexample }, stats),
        MateProof::Undecided { stats } => (Verdict::Bounded { checked: 0 }, stats),
    }
}

/// Verifies that `cube` masks a fault on `wire` within one clock cycle, by
/// exhaustive enumeration of at most `cap` of the fault cone's free border
/// assignments; a larger space comes back [`Verdict::Bounded`].
///
/// The test oracle of the SAT path ([`verify_mate_wire_sat`]): it shares
/// neither the cone encoding nor the solver, so agreement between the two
/// is evidence for both.  Production verification never runs it.
pub fn verify_mate_wire_enum(
    netlist: &Netlist,
    topo: &Topology,
    wire: NetId,
    cube: &NetCube,
    cap: u64,
) -> Verdict {
    let cone = FaultCone::compute(netlist, topo, wire);
    let border = cone.border_nets(netlist);

    // Split the cube: border literals pin wires during enumeration,
    // cone-net literals become satisfaction checks on computed values,
    // anything else is dropped (see module docs for why that is sound).
    let mut pinned: Vec<(NetId, bool)> = Vec::new();
    let mut checked_literals: Vec<(NetId, bool)> = Vec::new();
    for (net, polarity) in cube.literals() {
        if border.binary_search(&net).is_ok() {
            pinned.push((net, polarity));
        } else if cone.contains_net(net) {
            checked_literals.push((net, polarity));
        }
    }
    let free: Vec<NetId> = border
        .iter()
        .copied()
        .filter(|n| cube.polarity_of(*n).is_none())
        .collect();

    // Specialize each cone gate: cofactor pinned border pins out, highest
    // pin first so lower pin indices stay stable while cofactoring.
    let gates: Vec<SpecGate> = cone
        .cells()
        .iter()
        .map(|&c| {
            let cell = netlist.cell(c);
            let mut tt = *netlist
                .cell_type_of(c)
                .truth_table()
                .expect("fault cones contain only combinational cells");
            let mut srcs: Vec<NetId> = cell.inputs().to_vec();
            for pin in (0..srcs.len()).rev() {
                if let Some(value) = cube.polarity_of(srcs[pin]) {
                    if !cone.contains_net(srcs[pin]) {
                        tt = tt.cofactor(pin, value);
                        srcs.remove(pin);
                    }
                }
            }
            SpecGate {
                tt,
                srcs,
                out: cell.output(),
            }
        })
        .collect();

    // Endpoint nets, deduplicated: FF data-input nets and primary outputs.
    let mut endpoint_nets: Vec<NetId> = cone
        .endpoints()
        .iter()
        .map(|e| match *e {
            ConeEndpoint::SeqPin { cell, pin } => netlist.cell(cell).inputs()[pin],
            ConeEndpoint::Output(net) => net,
        })
        .collect();
    endpoint_nets.sort_unstable();
    endpoint_nets.dedup();

    // Assignment space: `free.len()` wires, capped.
    let cap = cap.max(1);
    let total: u64 = if free.len() >= 63 {
        u64::MAX
    } else {
        1u64 << free.len()
    };
    let limit = total.min(cap);
    let blocks = limit.div_ceil(64);

    let mut values: Vec<u64> = vec![0; netlist.num_nets()];
    for &(net, value) in &pinned {
        values[net.index()] = if value { !0 } else { 0 };
    }
    let mut endpoint_words: [Vec<u64>; 2] =
        [vec![0; endpoint_nets.len()], vec![0; endpoint_nets.len()]];
    let mut rows: Vec<u64> = Vec::with_capacity(6);

    for block in 0..blocks {
        // Free wires: the low six index bits vary within the word, the rest
        // come from the block number.
        for (j, &net) in free.iter().enumerate() {
            values[net.index()] = if j < 6 {
                LANE_WORDS[j]
            } else {
                let bit = j - 6;
                // Free counts beyond 63+6 cannot be reached by any block the
                // cap admits; those high bits are always zero.
                let set = bit < 63 && (block >> bit) & 1 == 1;
                if set {
                    !0
                } else {
                    0
                }
            };
        }
        // Lanes past the enumeration limit are ignored.
        let base = block * 64;
        let lanes_left = limit - base;
        let lane_valid: u64 = if lanes_left >= 64 {
            !0
        } else {
            (1u64 << lanes_left) - 1
        };

        let mut cube_ok = [0u64; 2];
        for (o, origin_value) in [(0usize, 0u64), (1, !0u64)] {
            values[cone.origin().index()] = origin_value;
            for gate in &gates {
                rows.clear();
                rows.extend(gate.srcs.iter().map(|s| values[s.index()]));
                values[gate.out.index()] = if rows.is_empty() {
                    // Fully pinned gate: a constant.
                    if gate.tt.eval(0) {
                        !0
                    } else {
                        0
                    }
                } else {
                    gate.tt.eval_wide(&rows)
                };
            }
            let mut ok = !0u64;
            for &(net, polarity) in &checked_literals {
                let v = values[net.index()];
                ok &= if polarity { v } else { !v };
            }
            cube_ok[o] = ok;
            for (slot, &net) in endpoint_words[o].iter_mut().zip(&endpoint_nets) {
                *slot = values[net.index()];
            }
        }

        // A lane violates the MATE claim if the cube holds for either origin
        // polarity there and some endpoint differs between the polarities.
        let consistent = (cube_ok[0] | cube_ok[1]) & lane_valid;
        for (e, &endpoint) in endpoint_nets.iter().enumerate() {
            let bad = (endpoint_words[0][e] ^ endpoint_words[1][e]) & consistent;
            if bad != 0 {
                let lane = bad.trailing_zeros() as u64;
                let origin_value = cube_ok[1] >> lane & 1 == 1;
                let mut assignment: Vec<(NetId, bool)> = pinned.clone();
                for (j, &net) in free.iter().enumerate() {
                    let bit = if j < 6 {
                        lane >> j & 1 == 1
                    } else {
                        let b = j - 6;
                        b < 63 && (block >> b) & 1 == 1
                    };
                    assignment.push((net, bit));
                }
                assignment.sort_unstable();
                return Verdict::Refuted {
                    counterexample: Counterexample {
                        origin_value,
                        assignment,
                        endpoint,
                    },
                };
            }
        }
    }

    if limit == total {
        Verdict::Proved { checked: total }
    } else {
        Verdict::Bounded { checked: limit }
    }
}

/// Verifies every (MATE, masked wire) pair in `mates`, in parallel, returning
/// verdicts sorted by (mate index, wire) — byte-stable for any thread count.
pub fn verify_mates(
    netlist: &Netlist,
    topo: &Topology,
    mates: &MateSet,
    config: &VerifyConfig,
) -> Vec<MateVerdict> {
    let tasks: Vec<(usize, NetId, &Mate)> = mates
        .iter()
        .enumerate()
        .flat_map(|(i, m)| m.masked.iter().map(move |&w| (i, w, m)))
        .collect();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        config.threads
    }
    .min(tasks.len().max(1));

    // The encoder reads the cone out of the arena; build it once and share
    // it read-only across the workers.
    let soa = SoaNetlist::build(netlist, topo);

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<MateVerdict>> = Mutex::new(Vec::with_capacity(tasks.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(mate_index, wire, mate)) = tasks.get(i) else {
                        break;
                    };
                    let (verdict, stats) = verify_mate_wire_sat(
                        netlist,
                        &soa,
                        wire,
                        &mate.cube,
                        config.conflict_budget,
                    );
                    local.push(MateVerdict {
                        mate_index,
                        wire,
                        verdict,
                        stats,
                    });
                }
                results
                    .lock()
                    .expect("verifier workers do not panic while holding the lock")
                    .extend(local);
            });
        }
    });
    let mut verdicts = results
        .into_inner()
        .expect("all workers joined before the scope ended");
    verdicts.sort_by_key(|v| (v.mate_index, v.wire));
    verdicts
}

/// Renders verdicts as one line each.
pub fn render_verdicts_text(netlist: &Netlist, verdicts: &[MateVerdict]) -> String {
    let mut out = String::new();
    for v in verdicts {
        let wire = netlist.net(v.wire).name();
        match &v.verdict {
            Verdict::Proved { checked } => {
                out.push_str(&format!(
                    "proved  mate {} wire {wire}: {checked} assignments\n",
                    v.mate_index
                ));
            }
            Verdict::Bounded { .. } => {
                out.push_str(&format!(
                    "bounded mate {} wire {wire}: undecided after {} conflicts\n",
                    v.mate_index, v.stats.conflicts
                ));
            }
            Verdict::Refuted { counterexample } => {
                let assign = counterexample
                    .assignment
                    .iter()
                    .map(|&(n, b)| format!("{}={}", netlist.net(n).name(), u8::from(b)))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!(
                    "REFUTED mate {} wire {wire}: origin={} endpoint {} differs under {}\n",
                    v.mate_index,
                    u8::from(counterexample.origin_value),
                    netlist.net(counterexample.endpoint).name(),
                    assign
                ));
            }
        }
    }
    out
}

/// Renders verdicts as a JSON array (hand-rolled, byte-stable for sorted
/// input).
pub fn render_verdicts_json(netlist: &Netlist, verdicts: &[MateVerdict]) -> String {
    use crate::diag::json_escape;
    let mut out = String::from("[\n");
    for (i, v) in verdicts.iter().enumerate() {
        let wire = json_escape(netlist.net(v.wire).name());
        let body = match &v.verdict {
            Verdict::Proved { checked } | Verdict::Bounded { checked } => {
                format!("\"checked\":{checked}")
            }
            Verdict::Refuted { counterexample } => {
                let assign = counterexample
                    .assignment
                    .iter()
                    .map(|&(n, b)| {
                        format!(
                            "{{\"net\":\"{}\",\"value\":{}}}",
                            json_escape(netlist.net(n).name()),
                            u8::from(b)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "\"origin_value\":{},\"endpoint\":\"{}\",\"assignment\":[{}]",
                    u8::from(counterexample.origin_value),
                    json_escape(netlist.net(counterexample.endpoint).name()),
                    assign
                )
            }
        };
        let s = v.stats;
        let stats = format!(
            ",\"solver\":{{\"conflicts\":{},\"decisions\":{},\"propagations\":{},\
             \"learned\":{},\"restarts\":{}}}",
            s.conflicts, s.decisions, s.propagations, s.learned, s.restarts
        );
        out.push_str(&format!(
            "  {{\"mate\":{},\"wire\":\"{}\",\"verdict\":\"{}\",{}{}}}{}\n",
            v.mate_index,
            wire,
            v.verdict.label(),
            body,
            stats,
            if i + 1 == verdicts.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}
