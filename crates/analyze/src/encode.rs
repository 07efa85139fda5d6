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
//!   per input row, at most `2^6` rows per gate);
//! * border wires are shared free variables, optionally pinned to
//!   constants by a MATE cube.
//!
//! # Shared nets
//!
//! Below the gate where a cube stops the fault, both copies compute the
//! same function.  Two variables per net would leave the solver to
//! rediscover that equality by search, so before it encodes a query the
//! compiler runs a three-valued (0 / 1 / unknown) pass over both copies
//! and gives **one** variable to every cone net that both copies provably
//! compute alike:
//!
//! * **Known values** `t_c(n)` per copy `c`: a border wire takes the
//!   cube's polarity if the cube pins it, else unknown; the origin is `0`
//!   in copy 0 and `1` in copy 1; a cone row's output is `0` (or `1`) when
//!   every truth-table row consistent with its pins' known values gives
//!   `0` (or `1`), else unknown.
//! * **The rule.**  Border wires are shared already (one variable each);
//!   the origin never is.  A cone row's output is shared if and only if,
//!   for every assignment to its shared pins that the known values admit,
//!   every completion of its other pins that copy 0 admits and every
//!   completion that copy 1 admits give one and the same output — at most
//!   `2 × 64` truth-table rows per gate.  "All pins shared" and "the same
//!   constant in both copies" are special cases.  "Independent of the
//!   other pins *within each copy*" is **not** enough: `XOR(origin, s)`
//!   passes that test in each copy, yet the copies differ.
//! * **Encoding.**  A shared gate is encoded once, from its copy-0 pin
//!   variables; unshared gates stay per copy.  Shared endpoints cannot
//!   differ, so they drop out of the endpoint clauses of both queries
//!   (with none left, the soundness query's "some endpoint differs"
//!   clause is empty and the query is UNSAT on input).
//! * **Soundness.**  Known values hold in every model, because the cube's
//!   border pins and the origin are unit clauses.  By induction in row
//!   order, a shared net takes equal values in both copies in every model
//!   of the unshared formula, so every such model is a model of the shared
//!   one: shared-UNSAT implies unshared-UNSAT.  SAT witnesses are still
//!   re-simulated by `replay`, which reads neither CNF.
//! * **Trust.**  The solver's RUP replay checks the shared formula, not
//!   the merges.  A separate checker with its own representation
//!   (`check_merges`: may-be-0 / may-be-1 pairs, and a pairwise loop over
//!   copy-0 and copy-1 pin rows that agree on shared pins) re-derives the
//!   known values and re-checks every merged net before the solver runs;
//!   a failure panics, as the model and RUP checks do.
//!
//! Two queries are built on this skeleton:
//!
//! * [`FaultConeCnf::prove_mate`] — the *soundness* query: "the cube holds
//!   (for at least one origin polarity) AND some endpoint differs between
//!   the copies".  UNSAT is a proof the MATE masks every assignment; a
//!   model decodes into a [`Counterexample`] — made canonical, the least
//!   escaping border assignment in border order, by re-solving with more
//!   border wires pinned — which is then re-simulated scalar-style through
//!   the cone before being trusted.
//! * [`FaultConeCnf::prove_coverage`] — the *completeness* query for a
//!   wire and its selected MATE set: "every endpoint agrees between the
//!   copies (the fault point is benign) AND no selected cube matches the
//!   fault-free circuit".  UNSAT certifies the selected MATEs cover every
//!   benign point on the wire.  It shares nets the same way, with no
//!   border wire pinned.
//!
//! Cube literals are lifted exactly as the enumeration verifier treats
//! them, with one deliberate asymmetry for literals on wires outside the
//! cone and its border: the soundness query *drops* them (widening the
//! assignment set we demand masking for — sound, and required for verdict
//! equivalence with `verify_mate_wire`), while the completeness query
//! gives them *fresh free variables* (dropping them there would shrink the
//! cube and could mark a gap "covered" by a literal the circuit might
//! falsify — anti-conservative).  Literals on cone wires read the layout's
//! variables, so a literal on a shared net reads the one variable both
//! copies use.

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
    /// On a cone wire: reads the layout's variable for each copy.
    Cone(NetId),
    /// Outside the cone and its border.
    OutOfScope(NetId),
}

/// The "unknown" known value of the three-valued pass (`0` and `1` stand
/// for themselves).
const UNKNOWN: u8 = 2;

/// The variables of one query: border nets first, one each, then every
/// cone net in `cone_nets` order with one variable when both copies share
/// it and two (copy 0, copy 1) otherwise.  With nothing shared this is the
/// plain two-copy layout.
struct Layout {
    /// Per cone net (parallel to `cone_nets`): both copies read one
    /// variable.
    shared: Vec<bool>,
    /// Per cone net: its copy-0 variable; copy 1 reads the next one unless
    /// the net is shared.
    var: Vec<usize>,
    /// First variable index free for query-specific auxiliaries.
    aux_base: usize,
}

impl Layout {
    fn new(border: usize, shared: Vec<bool>) -> Self {
        let mut var = Vec::with_capacity(shared.len());
        let mut next = border;
        for &s in &shared {
            var.push(next);
            next += if s { 1 } else { 2 };
        }
        Self {
            shared,
            var,
            aux_base: next,
        }
    }
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

    /// Position of a cone net in `cone_nets`.
    fn cone_index(&self, net: NetId) -> usize {
        self.cone_nets
            .binary_search(&(net.index() as u32))
            .expect("cone nets only")
    }

    /// Variable of a cone net in copy `copy` under `layout`.
    fn cone_var(&self, layout: &Layout, net: NetId, copy: usize) -> usize {
        let i = self.cone_index(net);
        layout.var[i] + if layout.shared[i] { 0 } else { copy }
    }

    /// Variable of `net` as read by a cone gate pin in copy `copy`.
    fn pin_var(&self, layout: &Layout, net: NetId, copy: usize) -> usize {
        match self.lift(net) {
            Lifted::Border(n) => self.border_var(n),
            Lifted::Cone(n) => self.cone_var(layout, n, copy),
            Lifted::OutOfScope(n) => {
                unreachable!("cone gate pin {n:?} is neither border nor cone")
            }
        }
    }

    /// Slot of a border or cone net in the known-value tables: border nets
    /// first, then cone nets.
    fn slot(&self, net: u32) -> usize {
        match self.lift(NetId::from_index(net as usize)) {
            Lifted::Border(n) => self.border_var(n),
            Lifted::Cone(n) => self.border.len() + self.cone_index(n),
            Lifted::OutOfScope(n) => {
                unreachable!("cone gate pin {n:?} is neither border nor cone")
            }
        }
    }

    /// Runs the known-value pass with the border wires in `pins` fixed,
    /// and shares every cone net both copies provably compute alike (the
    /// rule in the module docs).
    fn layout(&self, pins: &[(NetId, bool)]) -> Layout {
        let nb = self.border.len();
        let mut known = [
            vec![UNKNOWN; nb + self.cone_nets.len()],
            vec![UNKNOWN; nb + self.cone_nets.len()],
        ];
        for &(net, value) in pins {
            let i = self.border_var(net);
            known[0][i] = u8::from(value);
            known[1][i] = u8::from(value);
        }
        let origin = nb + self.cone_index(self.origin);
        known[0][origin] = 0;
        known[1][origin] = 1;

        let mut shared = vec![false; self.cone_nets.len()];
        let mut slots: Vec<usize> = Vec::with_capacity(6);
        for &row in &self.rows {
            let row = row as usize;
            let tt = self.soa.row_tt(row);
            slots.clear();
            slots.extend(self.soa.row_pins(row).iter().map(|&p| self.slot(p)));
            let shared_pins = slots
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s < nb || shared[s - nb])
                .fold(0usize, |mask, (i, _)| mask | 1 << i);
            // Per assignment to the shared pins: the outputs seen in either
            // copy (bit 0: a `0`, bit 1: a `1`).
            let mut seen = [0u8; 64];
            let out = self.slot(self.soa.row_out(row));
            for known in &mut known {
                let mut outputs = 0u8;
                for a in 0..1usize << slots.len() {
                    let admitted = slots.iter().enumerate().all(|(i, &s)| {
                        let k = known[s];
                        k == UNKNOWN || usize::from(k) == (a >> i) & 1
                    });
                    if admitted {
                        let bit = 1u8 << u8::from(tt.eval(a));
                        outputs |= bit;
                        seen[a & shared_pins] |= bit;
                    }
                }
                known[out] = match outputs {
                    0b01 => 0,
                    0b10 => 1,
                    _ => UNKNOWN,
                };
            }
            shared[out - nb] = seen.iter().all(|&s| s != 0b11);
        }
        Layout::new(nb, shared)
    }

    /// Re-derives every merge of `layout` for a query whose border wires in
    /// `pins` are fixed, independently of [`Self::layout`]: known values as
    /// may-be-0 / may-be-1 pairs per net, and each merged net re-checked
    /// pairwise over the copy-0 and copy-1 pin rows that agree on shared
    /// pins.  It also checks that exactly the merged nets (and the border)
    /// read one variable in both copies and that no two nets collide.
    ///
    /// # Panics
    ///
    /// Panics if a merge does not hold or the variable map is malformed —
    /// an encoder defect, never an input property.
    fn check_merges(&self, pins: &[(NetId, bool)], layout: &Layout) {
        let n = self.soa.num_nets();
        // Nets both copies read through one variable, and every variable a
        // border or cone net uses.
        let mut one_var = vec![false; n];
        let mut vars: Vec<usize> = Vec::with_capacity(self.border.len() + 2 * self.cone_nets.len());
        for &net in &self.border {
            one_var[net.index()] = true;
            vars.push(self.border_var(net));
        }
        for &net in &self.cone_nets {
            let id = NetId::from_index(net as usize);
            let (v0, v1) = (self.cone_var(layout, id, 0), self.cone_var(layout, id, 1));
            one_var[net as usize] = v0 == v1;
            vars.push(v0);
            if v0 != v1 {
                vars.push(v1);
            }
        }
        vars.sort_unstable();
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]) && vars.iter().all(|&v| v < layout.aux_base),
            "merge check: two nets share a variable"
        );
        assert!(
            !one_var[self.origin.index()],
            "merge check: the origin is shared"
        );

        // may[c][net] = (may be 0, may be 1) in copy c.
        let mut may = [vec![(true, true); n], vec![(true, true); n]];
        for &(net, value) in pins {
            for copy in &mut may {
                copy[net.index()] = (!value, value);
            }
        }
        may[0][self.origin.index()] = (true, false);
        may[1][self.origin.index()] = (false, true);

        for &row in &self.rows {
            let row = row as usize;
            let tt = self.soa.row_tt(row);
            let pins = self.soa.row_pins(row);
            let out = self.soa.row_out(row) as usize;
            let rows: [Vec<usize>; 2] = [0, 1].map(|copy| {
                (0..1usize << pins.len())
                    .filter(|&a| {
                        pins.iter().enumerate().all(|(i, &p)| {
                            let (may0, may1) = may[copy][p as usize];
                            if (a >> i) & 1 == 1 {
                                may1
                            } else {
                                may0
                            }
                        })
                    })
                    .collect()
            });
            for (copy, admitted) in rows.iter().enumerate() {
                may[copy][out] = (
                    admitted.iter().any(|&a| !tt.eval(a)),
                    admitted.iter().any(|&a| tt.eval(a)),
                );
            }
            if one_var[out] {
                let agree_on_shared = |a0: usize, a1: usize| {
                    pins.iter()
                        .enumerate()
                        .all(|(i, &p)| !one_var[p as usize] || (a0 ^ a1) >> i & 1 == 0)
                };
                for &a0 in &rows[0] {
                    for &a1 in &rows[1] {
                        assert!(
                            !agree_on_shared(a0, a1) || tt.eval(a0) == tt.eval(a1),
                            "merge check: net {out} is shared, but copy-0 row {a0:#b} and \
                             copy-1 row {a1:#b} of its gate disagree"
                        );
                    }
                }
            }
        }
    }

    /// Adds the Tseitin clauses of every cone gate — once for a shared
    /// gate, once per copy otherwise — and the origin-pinning units
    /// (`origin = copy`).
    fn encode_cone(&self, layout: &Layout, solver: &mut Solver) {
        solver.add_clause(&[Lit::neg(self.cone_var(layout, self.origin, 0))]);
        solver.add_clause(&[Lit::pos(self.cone_var(layout, self.origin, 1))]);
        let mut clause: Vec<Lit> = Vec::with_capacity(7);
        for &row in &self.rows {
            let row = row as usize;
            let tt = *self.soa.row_tt(row);
            let pins = self.soa.row_pins(row);
            let out = NetId::from_index(self.soa.row_out(row) as usize);
            let copies = if layout.shared[self.cone_index(out)] {
                1
            } else {
                2
            };
            for copy in 0..copies {
                let pin_vars: Vec<usize> = pins
                    .iter()
                    .map(|&p| self.pin_var(layout, NetId::from_index(p as usize), copy))
                    .collect();
                let out_var = self.cone_var(layout, out, copy);
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

    /// Endpoints the copies do not share: the only ones that can differ.
    fn unshared_endpoints(&self, layout: &Layout) -> Vec<NetId> {
        self.endpoints
            .iter()
            .copied()
            .filter(|&e| !layout.shared[self.cone_index(e)])
            .collect()
    }

    /// The soundness query for one MATE cube (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the merge check or the independent re-simulation of a SAT
    /// model fails — that indicates an encoder or solver defect, never an
    /// input property.
    pub fn prove_mate(&self, cube: &NetCube, conflict_budget: u64) -> MateProof {
        self.prove_mate_with(cube, conflict_budget, Self::layout)
    }

    /// [`Self::prove_mate`] over the variable layouts `layout` returns for
    /// the border pins of each solver call.
    fn prove_mate_with(
        &self,
        cube: &NetCube,
        conflict_budget: u64,
        layout: impl Fn(&Self, &[(NetId, bool)]) -> Layout,
    ) -> MateProof {
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

        let (outcome, solver) =
            self.solve_mate(&pinned, &checked, &layout(self, &pinned), conflict_budget);
        let mut stats = solver.stats();
        match outcome {
            Err(BudgetExhausted { .. }) => MateProof::Undecided { stats },
            Ok(SatOutcome::Unsat) => MateProof::Masked { free, stats },
            Ok(SatOutcome::Sat) => {
                let mut model: Vec<bool> = (0..self.border.len())
                    .map(|v| solver.model_value(v))
                    .collect();
                // Canonical witness: the least escaping assignment in border
                // order (`0` before `1`), so the witness depends on the cone
                // and the cube alone, not on the encoding or on the
                // solver's search.  Each free wire the model sets to `1` is
                // re-tried at `0`, with every earlier wire pinned.  Should
                // the budget fire, the last model stands: still a witness.
                for (i, &net) in self.border.iter().enumerate() {
                    if cube.polarity_of(net).is_some() {
                        continue;
                    }
                    pinned.push((net, false));
                    if model[i] {
                        let (outcome, solver) = self.solve_mate(
                            &pinned,
                            &checked,
                            &layout(self, &pinned),
                            conflict_budget,
                        );
                        stats = stats.merge(solver.stats());
                        match outcome {
                            Ok(SatOutcome::Sat) => {
                                for (v, value) in model.iter_mut().enumerate() {
                                    *value = solver.model_value(v);
                                }
                            }
                            Ok(SatOutcome::Unsat) => pinned.last_mut().expect("pushed").1 = true,
                            Err(BudgetExhausted { .. }) => break,
                        }
                    }
                }
                let assignment: Vec<(NetId, bool)> =
                    self.border.iter().copied().zip(model).collect();
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
                    stats,
                }
            }
        }
    }

    /// Builds and solves the soundness query over `layout`, with the
    /// border wires in `pinned` fixed and the cone literals in `checked`
    /// required in at least one copy.  Returns the outcome and the solver,
    /// whose first `border.len()` variables are the border wires.
    ///
    /// # Panics
    ///
    /// Panics if the merge check fails.
    fn solve_mate(
        &self,
        pinned: &[(NetId, bool)],
        checked: &[(NetId, bool)],
        layout: &Layout,
        conflict_budget: u64,
    ) -> (Result<SatOutcome, BudgetExhausted>, Solver) {
        self.check_merges(pinned, layout);
        let diff = self.unshared_endpoints(layout);

        // Variables: the layout's, then c0, c1, then one diff var per
        // unshared endpoint.
        let c_base = layout.aux_base;
        let d_base = c_base + 2;
        let num_vars = d_base + diff.len();
        let mut solver = Solver::new(num_vars);
        self.encode_cone(layout, &mut solver);
        for &(net, value) in pinned {
            solver.add_clause(&[Lit::with_value(self.border_var(net), value)]);
        }
        // c_o → every checked literal holds in copy o; require c0 ∨ c1.
        for copy in 0..2 {
            for &(net, polarity) in checked {
                solver.add_clause(&[
                    Lit::neg(c_base + copy),
                    Lit::with_value(self.cone_var(layout, net, copy), polarity),
                ]);
            }
        }
        solver.add_clause(&[Lit::pos(c_base), Lit::pos(c_base + 1)]);
        // d_e → endpoint e differs between the copies; require some d_e.
        // (No unshared endpoint yields the empty clause: no state the
        // fault can reach, trivially UNSAT, trivially masked.)
        for (e, &net) in diff.iter().enumerate() {
            let (v0, v1) = (self.cone_var(layout, net, 0), self.cone_var(layout, net, 1));
            solver.add_clause(&[Lit::neg(d_base + e), Lit::pos(v0), Lit::pos(v1)]);
            solver.add_clause(&[Lit::neg(d_base + e), Lit::neg(v0), Lit::neg(v1)]);
        }
        let any_diff: Vec<Lit> = (0..diff.len()).map(|e| Lit::pos(d_base + e)).collect();
        solver.add_clause(&any_diff);
        let outcome = solver.solve(conflict_budget);
        (outcome, solver)
    }

    /// The completeness query: do `cubes` (the selected MATEs of this
    /// wire) cover every benign fault point?  See the module docs.
    ///
    /// # Panics
    ///
    /// Panics if the merge check or the independent re-simulation of a SAT
    /// model fails.
    pub fn prove_coverage(&self, cubes: &[&NetCube], conflict_budget: u64) -> CoverageProof {
        self.prove_coverage_with(cubes, conflict_budget, Self::layout)
    }

    /// [`Self::prove_coverage`] over the variable layout `layout` returns
    /// with no border wire pinned.
    fn prove_coverage_with(
        &self,
        cubes: &[&NetCube],
        conflict_budget: u64,
        layout: impl FnOnce(&Self, &[(NetId, bool)]) -> Layout,
    ) -> CoverageProof {
        let layout = layout(self, &[]);
        self.check_merges(&[], &layout);

        // Fresh shared variables for cube literals outside the cone and
        // border (see the module docs for why they must not be dropped).
        let mut extras: Vec<NetId> = cubes
            .iter()
            .flat_map(|c| c.literals().map(|(n, _)| n))
            .filter(|&n| matches!(self.lift(n), Lifted::OutOfScope(_)))
            .collect();
        extras.sort_unstable();
        extras.dedup();

        let extra_base = layout.aux_base;
        let origin_var = extra_base + extras.len();
        let c_base = origin_var + 1;
        let num_vars = c_base + 2 * cubes.len();
        let mut solver = Solver::new(num_vars);
        self.encode_cone(&layout, &mut solver);

        // Benign: every endpoint agrees between the copies (shared ones
        // always do).
        for net in self.unshared_endpoints(&layout) {
            let (v0, v1) = (
                self.cone_var(&layout, net, 0),
                self.cone_var(&layout, net, 1),
            );
            solver.add_clause(&[Lit::neg(v0), Lit::pos(v1)]);
            solver.add_clause(&[Lit::pos(v0), Lit::neg(v1)]);
        }

        let lit_var = |net: NetId, copy: usize| -> usize {
            match self.lift(net) {
                Lifted::Border(n) => self.border_var(n),
                Lifted::Cone(n) => self.cone_var(&layout, n, copy),
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
    use crate::verify::{verify_mate_wire_enum, verify_mate_wire_sat, Verdict};
    use mate::prelude::*;
    use mate_netlist::examples::{figure1, figure1b, tmr_register};
    use mate_netlist::random::{random_circuit, RandomCircuitConfig};
    use mate_netlist::{Library, Topology};
    use proptest::prelude::*;

    /// Free-border ceiling: `2^16` assignments keep the enumeration oracle
    /// exact.
    const MAX_FREE: usize = 16;

    /// Conflict budget for the agreement checks: far above what any
    /// fixture or random cone needs, so no query comes back undecided.
    const BUDGET: u64 = 1_000_000;

    /// The plain two-copy layout, nothing shared: the oracle the shared
    /// encoding is compared against.
    fn unshared(cnf: &FaultConeCnf, _pins: &[(NetId, bool)]) -> Layout {
        Layout::new(cnf.border.len(), vec![false; cnf.cone_nets.len()])
    }

    fn searched_figure1() -> (Netlist, Topology, SoaNetlist, NetId, NetCube) {
        let (netlist, topo) = figure1();
        let soa = SoaNetlist::build(&netlist, &topo);
        let d = netlist.find_net("d").unwrap();
        let result = search_wire(&netlist, &topo, d, &SearchConfig::default());
        let cube = result.mates[0].cube.clone();
        (netlist, topo, soa, d, cube)
    }

    /// Flips the polarity of the first literal, producing a (usually)
    /// unsound cube.
    fn corrupt(cube: &NetCube) -> NetCube {
        let (flip_net, _) = cube.literals().next().expect("cube has literals");
        NetCube::from_literals(cube.literals().map(|(net, pol)| {
            if net == flip_net {
                (net, !pol)
            } else {
                (net, pol)
            }
        }))
        .expect("flipping one literal keeps the cube consistent")
    }

    /// The shared encoding, the unshared encoding and enumeration must give
    /// the same verdict on one (cube, wire): equal `free` and proved space
    /// when masked, identical witnesses when refuted.
    fn assert_mate_layouts_agree(
        n: &Netlist,
        topo: &Topology,
        cnf: &FaultConeCnf,
        wire: NetId,
        cube: &NetCube,
    ) {
        let shared = cnf.prove_mate(cube, BUDGET);
        let plain = cnf.prove_mate_with(cube, BUDGET, unshared);
        let oracle = verify_mate_wire_enum(n, topo, wire, cube, 1 << MAX_FREE);
        match (&shared, &plain, &oracle) {
            (
                MateProof::Masked { free: a, .. },
                MateProof::Masked { free: b, .. },
                Verdict::Proved { checked },
            ) => {
                assert_eq!(a, b, "free border differs on wire {wire:?}");
                assert_eq!(*checked, 1u64 << a, "proved space differs on wire {wire:?}");
            }
            (
                MateProof::Escape {
                    counterexample: a, ..
                },
                MateProof::Escape {
                    counterexample: b, ..
                },
                Verdict::Refuted { .. },
            ) => assert_eq!(a, b, "witnesses differ on wire {wire:?}"),
            _ => panic!(
                "layouts disagree on wire {wire:?}: shared {shared:?}, unshared {plain:?}, \
                 enumeration {oracle:?}"
            ),
        }
    }

    /// Both layouts must reach the same complete / gap / undecided outcome.
    fn assert_coverage_layouts_agree(cnf: &FaultConeCnf, cubes: &[&NetCube]) {
        let shared = cnf.prove_coverage(cubes, BUDGET);
        let plain = cnf.prove_coverage_with(cubes, BUDGET, unshared);
        assert_eq!(
            std::mem::discriminant(&shared),
            std::mem::discriminant(&plain),
            "coverage outcomes differ: shared {shared:?}, unshared {plain:?}"
        );
    }

    /// Runs both agreement checks on every searched MATE of `wires` (and on
    /// each MATE with one literal flipped) whose free border is small
    /// enough for exact enumeration.
    fn assert_all_layouts_agree(n: &Netlist, topo: &Topology, wires: &[NetId]) {
        let soa = SoaNetlist::build(n, topo);
        for &wire in wires {
            let cnf = FaultConeCnf::new(n, &soa, wire);
            let result = search_wire(n, topo, wire, &SearchConfig::default());
            for mate in result.mates.iter().take(4) {
                // An empty cube (an always-masked wire) has nothing to flip.
                let corrupted = (!mate.cube.is_empty()).then(|| corrupt(&mate.cube));
                for cube in std::iter::once(mate.cube.clone()).chain(corrupted) {
                    if cnf.free_border(&cube) <= MAX_FREE {
                        assert_mate_layouts_agree(n, topo, &cnf, wire, &cube);
                    }
                }
            }
            let cubes: Vec<&NetCube> = result.mates.iter().map(|m| &m.cube).collect();
            if !cubes.is_empty() {
                assert_coverage_layouts_agree(&cnf, &cubes);
            }
        }
    }

    /// Flip-flop outputs and primary inputs: every wire a fixture can fault.
    fn fault_wires(n: &Netlist, topo: &Topology) -> Vec<NetId> {
        let mut wires = ff_wires(n, topo);
        wires.extend(n.inputs().iter().copied());
        wires
    }

    /// `y = XOR2(AND2(x, a), AND2(BUF(x), a))`: the fault on `x` always
    /// reconverges and cancels at `y`, but no net of the cone is shared —
    /// both AND2s let the fault through when `a = 1` — so the proof still
    /// needs conflicts.
    fn reconvergent() -> (Netlist, Topology) {
        let mut n = Netlist::new("reconvergent", Library::open15());
        let x = n.add_input("x");
        let a = n.add_input("a");
        let bx = n.add_cell_named("BUF", "buf", &[x], "bx").unwrap();
        let p = n.add_cell_named("AND2", "and_x", &[x, a], "p").unwrap();
        let q = n.add_cell_named("AND2", "and_bx", &[bx, a], "q").unwrap();
        let y = n.add_cell_named("XOR2", "xor", &[p, q], "y").unwrap();
        n.set_output(y);
        let topo = n.validate().unwrap();
        (n, topo)
    }

    /// `y = XOR2(q, s)` and `z = INV(AND2(q, b))`, both primary outputs,
    /// for forging merges on the cone of `q`.
    fn forge_fixture() -> (Netlist, Topology) {
        let mut n = Netlist::new("forge", Library::open15());
        let q = n.add_input("q");
        let s = n.add_input("s");
        let b = n.add_input("b");
        let y = n.add_cell_named("XOR2", "xor", &[q, s], "y").unwrap();
        let g = n.add_cell_named("AND2", "and", &[q, b], "g").unwrap();
        let z = n.add_cell_named("INV", "inv", &[g], "z").unwrap();
        n.set_output(y);
        n.set_output(z);
        let topo = n.validate().unwrap();
        (n, topo)
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
        let (n, topo) = reconvergent();
        let soa = SoaNetlist::build(&n, &topo);
        let x = n.find_net("x").unwrap();
        let empty = NetCube::top();
        let cnf = FaultConeCnf::new(&n, &soa, x);

        match cnf.prove_mate(&empty, 0) {
            MateProof::Undecided { stats } => assert_eq!(stats.conflicts, 1),
            other => panic!("expected Undecided at budget 0, got {other:?}"),
        }
        assert_eq!(
            verify_mate_wire_sat(&n, &soa, x, &empty, 0).0,
            Verdict::Bounded { checked: 0 }
        );
        match cnf.prove_mate(&empty, u64::MAX) {
            MateProof::Masked { free, stats } => {
                assert_eq!(free, 1);
                assert_eq!(stats.conflicts, 2);
            }
            other => panic!("expected Masked, got {other:?}"),
        }
        assert_eq!(
            verify_mate_wire_enum(&n, &topo, x, &empty, 1 << MAX_FREE),
            Verdict::Proved { checked: 2 }
        );
    }

    #[test]
    fn shared_nets_on_figure1_close_the_proof_without_search() {
        // figure1's MATE for `d` pins `f = 0` and `h = 1`: both endpoints
        // (`k = AND2(g, f)` and `l = OR2(g, h)`) are then constants in both
        // copies, so the soundness query is UNSAT on input.
        let (netlist, _topo, soa, d, cube) = searched_figure1();
        let cnf = FaultConeCnf::new(&netlist, &soa, d);
        let pinned: Vec<(NetId, bool)> = cube
            .literals()
            .filter(|&(n, _)| cnf.border().binary_search(&n).is_ok())
            .collect();
        let layout = cnf.layout(&pinned);
        assert!(cnf.unshared_endpoints(&layout).is_empty());
        match cnf.prove_mate(&cube, 0) {
            MateProof::Masked { stats, .. } => assert_eq!(stats, SolveStats::default()),
            other => panic!("expected Masked, got {other:?}"),
        }
    }

    #[test]
    fn layouts_agree_on_figure1_figure1b_and_tmr_register() {
        for (n, topo) in [figure1(), figure1b(), tmr_register()] {
            assert_all_layouts_agree(&n, &topo, &fault_wires(&n, &topo));
        }
    }

    #[test]
    #[should_panic(expected = "merge check")]
    fn checker_rejects_a_shared_xor_of_origin_and_border() {
        let (n, topo) = forge_fixture();
        let soa = SoaNetlist::build(&n, &topo);
        let q = n.find_net("q").unwrap();
        let y = n.find_net("y").unwrap();
        let cnf = FaultConeCnf::new(&n, &soa, q);
        // XOR(origin, s) depends on s alone *within* each copy, yet the
        // copies always differ: marking it shared is unsound.
        let forge = |cnf: &FaultConeCnf, _: &[(NetId, bool)]| {
            let mut shared = vec![false; cnf.cone_nets.len()];
            shared[cnf.cone_index(y)] = true;
            Layout::new(cnf.border.len(), shared)
        };
        cnf.prove_mate_with(&NetCube::top(), BUDGET, forge);
    }

    #[test]
    #[should_panic(expected = "merge check")]
    fn checker_rejects_merges_behind_a_flipped_pin() {
        let (n, topo) = forge_fixture();
        let soa = SoaNetlist::build(&n, &topo);
        let q = n.find_net("q").unwrap();
        let b = n.find_net("b").unwrap();
        let cnf = FaultConeCnf::new(&n, &soa, q);
        // Under `b = 0` the AND2 stops the fault: its output and the INV
        // behind it are shared, and the checker accepts that.
        let stopped = cnf.layout(&[(b, false)]);
        for net in ["g", "z"] {
            assert!(stopped.shared[cnf.cone_index(n.find_net(net).unwrap())]);
        }
        cnf.check_merges(&[(b, false)], &stopped);
        // The same merges under `b = 1` let the fault through.
        let flipped = NetCube::literal(b, true);
        cnf.prove_mate_with(&flipped, BUDGET, |cnf, _| cnf.layout(&[(b, false)]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn shared_unshared_and_enumeration_agree_on_random_cones(
            seed in 0u64..1_000_000,
            inputs in 1usize..5,
            ffs in 1usize..8,
            gates in 1usize..40,
            outputs in 1usize..3,
        ) {
            let cfg = RandomCircuitConfig { inputs, ffs, gates, outputs };
            let (n, topo) = random_circuit(cfg, seed);
            assert_all_layouts_agree(&n, &topo, &ff_wires(&n, &topo));
        }
    }
}
