//! Tseitin compilation of fault cones into CNF for the SAT proof backend.
//!
//! [`FaultConeCnf`] gathers the fault cone of one wire from the
//! structure-of-arrays arena ([`SoaNetlist::cone_rows`] /
//! [`SoaNetlist::cone_support`] — deliberately *not* the graph-side
//! [`mate_netlist::FaultCone`] the enumeration oracle uses, so the two
//! verifiers share no cone-extraction code) and compiles two copies of the
//! cone into clauses over shared border variables:
//!
//! * copy 0 pins the origin wire to `0`, copy 1 pins it to `1` — the two
//!   fault-free circuits whose endpoint disagreement is exactly "a
//!   single-event upset on the origin propagates to state";
//! * every cone gate becomes its truth-table Tseitin clauses (one clause
//!   per input row, at most `2^6` rows per gate) in each copy;
//! * border wires are shared free variables, optionally pinned to
//!   constants by a MATE cube.
//!
//! Two queries are built on this skeleton:
//!
//! * [`FaultConeCnf::prove_mate`] — the *soundness* query: "the cube holds
//!   (for at least one origin polarity) AND some endpoint differs between
//!   the copies".  UNSAT is a proof the MATE masks every assignment; a
//!   model decodes into a [`Counterexample`] which is then re-simulated
//!   scalar-style through the cone before being trusted.
//! * [`FaultConeCnf::prove_coverage`] — the *completeness* query for a
//!   wire and its selected MATE set: "every endpoint agrees between the
//!   copies (the fault point is benign) AND no selected cube matches the
//!   fault-free circuit".  UNSAT certifies the selected MATEs cover every
//!   benign point on the wire.
//!
//! Cube literals are lifted exactly as the enumeration verifier treats
//! them, with one deliberate asymmetry for literals on wires outside the
//! cone and its border: the soundness query *drops* them (widening the
//! assignment set we demand masking for — sound, and required for verdict
//! equivalence with `verify_mate_wire`), while the completeness query
//! gives them *fresh free variables* (dropping them there would shrink the
//! cube and could mark a gap "covered" by a literal the circuit might
//! falsify — anti-conservative).

use mate_netlist::{NetCube, NetId, Netlist, SoaNetlist};

use crate::sat::{BudgetExhausted, Lit, SatOutcome, SolveStats, Solver};
use crate::verify::Counterexample;

/// Outcome of the per-MATE soundness query.
#[derive(Clone, Debug)]
pub enum MateProof {
    /// UNSAT: the cube masks every consistent assignment.  The answer
    /// passed the solver's resolution replay check.
    Masked {
        /// Free border wires (the proved space is `2^free`).
        free: usize,
        /// Solver counters.
        stats: SolveStats,
    },
    /// SAT: a consistent assignment propagates the fault.  The witness has
    /// been re-simulated through the cone independently of the CNF.
    Escape {
        /// The decoded, replay-checked witness.
        counterexample: Counterexample,
        /// Solver counters.
        stats: SolveStats,
    },
    /// The conflict budget fired before a verdict.
    Undecided {
        /// Solver counters at the moment the budget fired.
        stats: SolveStats,
    },
}

/// Outcome of the per-wire completeness query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverageProof {
    /// UNSAT: every benign fault point on the wire is matched by a
    /// selected cube.  The answer passed the resolution replay check.
    Complete {
        /// Solver counters.
        stats: SolveStats,
    },
    /// SAT: a benign border assignment no selected cube matches.
    Gap {
        /// Fault-free origin value of the uncovered point.
        origin_value: bool,
        /// Border (and cube out-of-scope) wire values, sorted by net id.
        assignment: Vec<(NetId, bool)>,
        /// Solver counters.
        stats: SolveStats,
    },
    /// The conflict budget fired before a verdict.
    Undecided {
        /// Solver counters at the moment the budget fired.
        stats: SolveStats,
    },
}

/// The compiled fault cone of one wire (see the module docs).
pub struct FaultConeCnf<'a> {
    soa: &'a SoaNetlist,
    origin: NetId,
    /// Cone rows in ascending (levelized, hence topological) order.
    rows: Vec<u32>,
    /// Border nets: support minus the cone, sorted.
    border: Vec<NetId>,
    /// Cone net indices (origin plus every cone-row output), sorted.
    cone_nets: Vec<u32>,
    /// Endpoint nets (flip-flop D inputs and primary outputs inside the
    /// cone), sorted and deduplicated — always cone nets.
    endpoints: Vec<NetId>,
}

/// How a cube literal participates in a query.
enum Lifted {
    /// On a border wire: pins / reads the shared variable.
    Border(NetId),
    /// On a cone wire: reads the copy-specific variable.
    Cone(NetId),
    /// Outside the cone and its border.
    OutOfScope(NetId),
}

impl<'a> FaultConeCnf<'a> {
    /// Extracts and indexes the fault cone of `wire` from the arena.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is out of range for the arena.
    pub fn new(netlist: &Netlist, soa: &'a SoaNetlist, wire: NetId) -> Self {
        let origin = wire.index() as u32;
        let rows = soa.cone_rows(&[origin]);
        let support = soa.cone_support(&[origin]);

        let mut cone_nets: Vec<u32> = rows.iter().map(|&r| soa.row_out(r as usize)).collect();
        cone_nets.push(origin);
        cone_nets.sort_unstable();
        cone_nets.dedup();

        let border: Vec<NetId> = support
            .support
            .iter()
            .filter(|n| cone_nets.binary_search(n).is_err())
            .map(|&n| NetId::from_index(n as usize))
            .collect();

        // Endpoints: flip-flop D nets the cone reaches, plus primary
        // outputs inside the cone — the same net set the enumeration
        // verifier derives from the graph-side cone.
        let mut endpoints: Vec<NetId> = support
            .endpoints
            .iter()
            .map(|&(_, d_net)| NetId::from_index(d_net as usize))
            .collect();
        endpoints.extend(
            netlist
                .outputs()
                .iter()
                .copied()
                .filter(|n| cone_nets.binary_search(&(n.index() as u32)).is_ok()),
        );
        endpoints.sort_unstable();
        endpoints.dedup();

        Self {
            soa,
            origin: wire,
            rows,
            border,
            cone_nets,
            endpoints,
        }
    }

    /// The border wires (sorted).
    pub fn border(&self) -> &[NetId] {
        &self.border
    }

    /// The endpoint nets (sorted).
    pub fn endpoints(&self) -> &[NetId] {
        &self.endpoints
    }

    /// Number of border wires a cube leaves free.
    pub fn free_border(&self, cube: &NetCube) -> usize {
        self.border
            .iter()
            .filter(|&&n| cube.polarity_of(n).is_none())
            .count()
    }

    fn lift(&self, net: NetId) -> Lifted {
        if self.border.binary_search(&net).is_ok() {
            Lifted::Border(net)
        } else if self.cone_nets.binary_search(&(net.index() as u32)).is_ok() {
            Lifted::Cone(net)
        } else {
            Lifted::OutOfScope(net)
        }
    }

    /// Variable of a border net (shared between the copies).
    fn border_var(&self, net: NetId) -> usize {
        self.border.binary_search(&net).expect("border nets only")
    }

    /// Variable of a cone net in copy `copy`.
    fn cone_var(&self, net: NetId, copy: usize) -> usize {
        let i = self
            .cone_nets
            .binary_search(&(net.index() as u32))
            .expect("cone nets only");
        self.border.len() + 2 * i + copy
    }

    /// First variable index free for query-specific auxiliaries.
    fn aux_base(&self) -> usize {
        self.border.len() + 2 * self.cone_nets.len()
    }

    /// Variable of `net` as read by a cone gate pin in copy `copy`.
    fn pin_var(&self, net: NetId, copy: usize) -> usize {
        match self.lift(net) {
            Lifted::Border(n) => self.border_var(n),
            Lifted::Cone(n) => self.cone_var(n, copy),
            Lifted::OutOfScope(n) => {
                unreachable!("cone gate pin {n:?} is neither border nor cone")
            }
        }
    }

    /// Adds the Tseitin clauses of every cone gate in both copies, and the
    /// origin-pinning units (`origin = copy`).
    fn encode_cone(&self, solver: &mut Solver) {
        solver.add_clause(&[Lit::neg(self.cone_var(self.origin, 0))]);
        solver.add_clause(&[Lit::pos(self.cone_var(self.origin, 1))]);
        let mut clause: Vec<Lit> = Vec::with_capacity(7);
        for &row in &self.rows {
            let row = row as usize;
            let tt = *self.soa.row_tt(row);
            let pins = self.soa.row_pins(row);
            let out = NetId::from_index(self.soa.row_out(row) as usize);
            for copy in 0..2 {
                let pin_vars: Vec<usize> = pins
                    .iter()
                    .map(|&p| self.pin_var(NetId::from_index(p as usize), copy))
                    .collect();
                let out_var = self.cone_var(out, copy);
                for a in 0..1usize << pins.len() {
                    clause.clear();
                    for (i, &pv) in pin_vars.iter().enumerate() {
                        // pin_i ≠ a_i escapes this row's obligation.
                        clause.push(Lit::with_value(pv, (a >> i) & 1 == 0));
                    }
                    clause.push(Lit::with_value(out_var, tt.eval(a)));
                    solver.add_clause(&clause);
                }
            }
        }
    }

    /// The soundness query for one MATE cube (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if a SAT model fails the independent cone re-simulation —
    /// that indicates an encoder or solver defect, never an input
    /// property.
    pub fn prove_mate(&self, cube: &NetCube, conflict_budget: u64) -> MateProof {
        // Split the cube exactly as the enumeration verifier does.
        let mut pinned: Vec<(NetId, bool)> = Vec::new();
        let mut checked: Vec<(NetId, bool)> = Vec::new();
        for (net, polarity) in cube.literals() {
            match self.lift(net) {
                Lifted::Border(n) => pinned.push((n, polarity)),
                Lifted::Cone(n) => checked.push((n, polarity)),
                Lifted::OutOfScope(_) => {} // dropped: widens the space
            }
        }
        let free = self.border.len() - pinned.len();

        // Variables: border ∪ cone×2, then c0, c1, then one diff var per
        // endpoint.
        let c_base = self.aux_base();
        let d_base = c_base + 2;
        let num_vars = d_base + self.endpoints.len();
        let mut solver = Solver::new(num_vars);
        self.encode_cone(&mut solver);
        for &(net, value) in &pinned {
            solver.add_clause(&[Lit::with_value(self.border_var(net), value)]);
        }
        // c_o → every checked literal holds in copy o; require c0 ∨ c1.
        for copy in 0..2 {
            for &(net, polarity) in &checked {
                solver.add_clause(&[
                    Lit::neg(c_base + copy),
                    Lit::with_value(self.cone_var(net, copy), polarity),
                ]);
            }
        }
        solver.add_clause(&[Lit::pos(c_base), Lit::pos(c_base + 1)]);
        // d_e → endpoint e differs between the copies; require some d_e.
        // (An empty endpoint list yields the empty clause: no state to
        // corrupt, trivially UNSAT, trivially masked.)
        for (e, &net) in self.endpoints.iter().enumerate() {
            let (v0, v1) = (self.cone_var(net, 0), self.cone_var(net, 1));
            solver.add_clause(&[Lit::neg(d_base + e), Lit::pos(v0), Lit::pos(v1)]);
            solver.add_clause(&[Lit::neg(d_base + e), Lit::neg(v0), Lit::neg(v1)]);
        }
        let any_diff: Vec<Lit> = (0..self.endpoints.len())
            .map(|e| Lit::pos(d_base + e))
            .collect();
        solver.add_clause(&any_diff);

        match solver.solve(conflict_budget) {
            Err(BudgetExhausted { .. }) => MateProof::Undecided {
                stats: solver.stats(),
            },
            Ok(SatOutcome::Unsat) => MateProof::Masked {
                free,
                stats: solver.stats(),
            },
            Ok(SatOutcome::Sat) => {
                let assignment: Vec<(NetId, bool)> = self
                    .border
                    .iter()
                    .map(|&n| (n, solver.model_value(self.border_var(n))))
                    .collect();
                // Re-simulate the cone from the witness, independently of
                // the CNF, and derive origin/endpoint the same way the
                // enumeration verifier does: prefer origin = 1 when the
                // cube holds there, and report the lowest differing
                // endpoint.
                let values = [
                    self.replay(&assignment, false),
                    self.replay(&assignment, true),
                ];
                let holds = |copy: usize| {
                    checked
                        .iter()
                        .all(|&(net, pol)| values[copy][net.index()] == pol)
                };
                assert!(
                    holds(0) || holds(1),
                    "SAT witness replay: cube holds in neither copy"
                );
                let origin_value = holds(1);
                let endpoint = self
                    .endpoints
                    .iter()
                    .copied()
                    .find(|&e| values[0][e.index()] != values[1][e.index()])
                    .expect("SAT witness replay: no endpoint differs");
                MateProof::Escape {
                    counterexample: Counterexample {
                        origin_value,
                        assignment,
                        endpoint,
                    },
                    stats: solver.stats(),
                }
            }
        }
    }

    /// The completeness query: do `cubes` (the selected MATEs of this
    /// wire) cover every benign fault point?  See the module docs.
    ///
    /// # Panics
    ///
    /// Panics if a SAT model fails the independent cone re-simulation.
    pub fn prove_coverage(&self, cubes: &[&NetCube], conflict_budget: u64) -> CoverageProof {
        // Fresh shared variables for cube literals outside the cone and
        // border (see the module docs for why they must not be dropped).
        let mut extras: Vec<NetId> = cubes
            .iter()
            .flat_map(|c| c.literals().map(|(n, _)| n))
            .filter(|&n| matches!(self.lift(n), Lifted::OutOfScope(_)))
            .collect();
        extras.sort_unstable();
        extras.dedup();

        let extra_base = self.aux_base();
        let origin_var = extra_base + extras.len();
        let c_base = origin_var + 1;
        let num_vars = c_base + 2 * cubes.len();
        let mut solver = Solver::new(num_vars);
        self.encode_cone(&mut solver);

        // Benign: every endpoint agrees between the copies.
        for &net in &self.endpoints {
            let (v0, v1) = (self.cone_var(net, 0), self.cone_var(net, 1));
            solver.add_clause(&[Lit::neg(v0), Lit::pos(v1)]);
            solver.add_clause(&[Lit::pos(v0), Lit::neg(v1)]);
        }

        let lit_var = |net: NetId, copy: usize| -> usize {
            match self.lift(net) {
                Lifted::Border(n) => self.border_var(n),
                Lifted::Cone(n) => self.cone_var(n, copy),
                Lifted::OutOfScope(n) => {
                    extra_base + extras.binary_search(&n).expect("collected above")
                }
            }
        };
        // Unmatched: for each cube m and each copy o, c_mo is implied by
        // the cube holding in copy o, and the fault-free copy (selected by
        // the origin variable) must have c_mo false.
        for (m, cube) in cubes.iter().enumerate() {
            for copy in 0..2 {
                let c_m = c_base + 2 * m + copy;
                let mut implies: Vec<Lit> = cube
                    .literals()
                    .map(|(net, pol)| Lit::with_value(lit_var(net, copy), !pol))
                    .collect();
                implies.push(Lit::pos(c_m));
                solver.add_clause(&implies);
            }
            solver.add_clause(&[Lit::pos(origin_var), Lit::neg(c_base + 2 * m)]);
            solver.add_clause(&[Lit::neg(origin_var), Lit::neg(c_base + 2 * m + 1)]);
        }

        match solver.solve(conflict_budget) {
            Err(BudgetExhausted { .. }) => CoverageProof::Undecided {
                stats: solver.stats(),
            },
            Ok(SatOutcome::Unsat) => CoverageProof::Complete {
                stats: solver.stats(),
            },
            Ok(SatOutcome::Sat) => {
                let origin_value = solver.model_value(origin_var);
                let mut assignment: Vec<(NetId, bool)> = self
                    .border
                    .iter()
                    .map(|&n| (n, solver.model_value(self.border_var(n))))
                    .collect();
                for (i, &n) in extras.iter().enumerate() {
                    assignment.push((n, solver.model_value(extra_base + i)));
                }
                assignment.sort_unstable();
                // Replay: the point must be benign, and no cube may match
                // the fault-free circuit under the witness.
                let border_only: Vec<(NetId, bool)> = assignment
                    .iter()
                    .copied()
                    .filter(|&(n, _)| self.border.binary_search(&n).is_ok())
                    .collect();
                let values = [
                    self.replay(&border_only, false),
                    self.replay(&border_only, true),
                ];
                assert!(
                    self.endpoints
                        .iter()
                        .all(|&e| values[0][e.index()] == values[1][e.index()]),
                    "coverage witness replay: point is not benign"
                );
                let fault_free = &values[usize::from(origin_value)];
                for cube in cubes {
                    let matched = cube.eval(|net| match self.lift(net) {
                        Lifted::Border(_) | Lifted::OutOfScope(_) => {
                            let i = assignment
                                .binary_search_by_key(&net, |&(n, _)| n)
                                .expect("witness covers every cube wire");
                            assignment[i].1
                        }
                        Lifted::Cone(n) => fault_free[n.index()],
                    });
                    assert!(
                        !matched,
                        "coverage witness replay: a cube matches the point"
                    );
                }
                CoverageProof::Gap {
                    origin_value,
                    assignment,
                    stats: solver.stats(),
                }
            }
        }
    }

    /// Scalar re-simulation of the cone: returns per-net values with the
    /// border set from `assignment`, the origin forced to `origin_value`,
    /// and every cone row evaluated in levelized order.  Only cone and
    /// border net slots are meaningful.
    fn replay(&self, assignment: &[(NetId, bool)], origin_value: bool) -> Vec<bool> {
        let mut values = vec![false; self.soa.num_nets()];
        for &(net, value) in assignment {
            values[net.index()] = value;
        }
        values[self.origin.index()] = origin_value;
        for &row in &self.rows {
            let row = row as usize;
            let tt = self.soa.row_tt(row);
            let mut a = 0usize;
            for (i, &p) in self.soa.row_pins(row).iter().enumerate() {
                a |= usize::from(values[p as usize]) << i;
            }
            values[self.soa.row_out(row) as usize] = tt.eval(a);
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate::prelude::*;
    use mate_netlist::examples::figure1;
    use mate_netlist::Topology;

    fn searched_figure1() -> (Netlist, Topology, SoaNetlist, NetId, NetCube) {
        let (netlist, topo) = figure1();
        let soa = SoaNetlist::build(&netlist, &topo);
        let d = netlist.find_net("d").unwrap();
        let result = search_wire(&netlist, &topo, d, &SearchConfig::default());
        let cube = result.mates[0].cube.clone();
        (netlist, topo, soa, d, cube)
    }

    #[test]
    fn figure1_mate_is_proved_by_sat() {
        let (netlist, _topo, soa, d, cube) = searched_figure1();
        let cnf = FaultConeCnf::new(&netlist, &soa, d);
        match cnf.prove_mate(&cube, u64::MAX) {
            MateProof::Masked { free, .. } => assert_eq!(free, cnf.free_border(&cube)),
            other => panic!("expected Masked, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_figure1_mate_is_refuted_with_replayable_witness() {
        let (netlist, _topo, soa, d, cube) = searched_figure1();
        // Flip one literal: the cube now *selects* a propagating cycle.
        let corrupted = NetCube::from_literals(
            cube.literals()
                .map(|(n, pol)| (n, !pol))
                .take(1)
                .chain(cube.literals().skip(1)),
        )
        .unwrap();
        let cnf = FaultConeCnf::new(&netlist, &soa, d);
        match cnf.prove_mate(&corrupted, u64::MAX) {
            MateProof::Escape { counterexample, .. } => {
                // The witness covers every border wire.
                assert_eq!(counterexample.assignment.len(), cnf.border().len());
            }
            other => panic!("expected Escape, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_undecided() {
        let (netlist, _topo, soa, d, cube) = searched_figure1();
        let cnf = FaultConeCnf::new(&netlist, &soa, d);
        // Corrupt the cube so the query is SAT (needs at least a few
        // conflicts or decisions); a zero budget cannot conclude unless
        // the instance propagates to an answer outright.  Use the sound
        // cube, whose UNSAT proof needs conflicts on figure1's cone.
        match cnf.prove_mate(&cube, 0) {
            MateProof::Undecided { .. } | MateProof::Masked { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
