//! Event-driven differential simulation against a golden trace.
//!
//! The paper's premise is that most SEUs are masked quickly: almost every
//! campaign lane diverges from the golden run inside a small fault cone and
//! re-converges within a few cycles.  A [`WideSimulator`] campaign ignores
//! that sparsity — it re-evaluates every combinational cell of every cycle
//! for every lane chunk, then XOR-scans the full state to detect
//! convergence.  [`DeltaSimulator`] exploits it.
//!
//! Instead of absolute values, each net carries a **delta word**: lane `l`
//! of `delta[net]` is `actual XOR golden` for that net in scenario `l`.
//! Because campaign stimuli equal the golden stimuli by construction, input
//! deltas are identically zero and never need to be applied.  A settle then
//! touches only the *dirty frontier*: the fan-out rows (via the
//! [`SoaNetlist`] fan-out CSR) of nets whose delta is nonzero in any lane,
//! swept in levelized row order through a bitset worklist — the same
//! generation-free forward-sweep pattern as `core/src/propagate.rs`.  A
//! row's absolute input values are recovered on the fly as
//! `golden XOR delta` (one [`TransposedTrace`] bit probe per pin), so the
//! full golden state never has to be materialized per lane.
//!
//! Convergence detection is free: the simulator keeps the exact set of
//! nets with nonzero delta, so "all lanes back on the golden trajectory"
//! is simply [`DeltaSimulator::quiescent`] — no full-state scan.
//!
//! # Soundness
//!
//! A settle at cycle `t` re-evaluates a row iff it is enqueued.  Seeding
//! enqueues (a) every comb reader row of every nonzero-delta net and (b)
//! the driver row of every comb-driven nonzero-delta net; the sweep
//! enqueues the reader rows of any net whose delta *changes*.  Rows are
//! processed in ascending levelized order, and a reader row is always at a
//! strictly higher level than its producer, so one forward sweep reaches a
//! fixed point.  Any skipped row has all-zero input deltas throughout the
//! sweep and a zero output delta — its inputs are exactly the golden
//! values, and the golden trace is itself a settled fixed point, so
//! re-evaluating it would reproduce the golden output.  Rule (b) covers
//! stale deltas: a net left nonzero by an earlier cycle whose cone has gone
//! quiet is recomputed (and cleared) by its driver before any higher row
//! could read it.

use mate_netlist::prelude::*;

use crate::transposed::{CycleView, TransposedTrace};
use crate::wide::WideSimulator;

/// An event-driven differential 64-lane simulator: one XOR-delta word per
/// net, re-evaluating only the dirty fan-out frontier each cycle.
///
/// Mirrors [`WideSimulator`] semantics exactly — lane `l` of
/// `golden XOR delta` is cycle-for-cycle identical to a scalar run with the
/// same flips — under the contract that primary inputs follow the golden
/// trace (which campaign stimuli do by construction).
#[derive(Clone, Debug)]
pub struct DeltaSimulator<'n> {
    netlist: &'n Netlist,
    /// The flattened evaluation schedule.
    soa: SoaNetlist,
    /// One packed delta word per net: lane `l` is `actual XOR golden`.
    delta: Vec<u64>,
    /// Unordered list of nets with nonzero delta.
    nonzero: Vec<u32>,
    /// Position-plus-one of each net in `nonzero` (0 = absent).
    pos: Vec<u32>,
    /// Row worklist bitset for the settle sweep.
    queued: Vec<u64>,
    /// Run index of each row (rows within a run share TT and arity).
    row_run: Vec<u32>,
    /// Reusable input-pin buffer for row evaluation.
    row_buf: [u64; TruthTable::MAX_INPUTS],
    /// Tick dedup stamps, one per flip-flop.
    ff_stamp: Vec<u32>,
    stamp_gen: u32,
    /// Reusable (ff, next-delta) gather buffer for the two-phase tick.
    tick_scratch: Vec<(u32, u64)>,
    cycle: u64,
}

impl<'n> DeltaSimulator<'n> {
    /// Creates a differential simulator with every net on the golden
    /// trajectory (all deltas zero), flattening the netlist into its own
    /// [`SoaNetlist`] arena.
    pub fn new(netlist: &'n Netlist, topo: &'n Topology) -> Self {
        let soa = SoaNetlist::build(netlist, topo);
        let mut row_run = vec![0u32; soa.num_rows()];
        for (ri, run) in soa.runs().iter().enumerate() {
            for r in run.rows() {
                row_run[r] = ri as u32;
            }
        }
        let num_nets = netlist.num_nets();
        let num_rows = soa.num_rows();
        let num_ffs = soa.ff_d().len();
        Self {
            netlist,
            soa,
            delta: vec![0; num_nets],
            nonzero: Vec::new(),
            pos: vec![0u32; num_nets],
            queued: vec![0u64; num_rows.div_ceil(64)],
            row_run,
            row_buf: [0; TruthTable::MAX_INPUTS],
            ff_stamp: vec![0u32; num_ffs],
            stamp_gen: 0,
            tick_scratch: Vec::new(),
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The SoA arena the settle sweep streams.
    pub fn arena(&self) -> &SoaNetlist {
        &self.soa
    }

    /// The current cycle number (the golden-trace cycle deltas are
    /// relative to).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Resets every lane onto the golden trajectory at `cycle` — the
    /// differential analogue of [`WideSimulator::load_from_trace`], but
    /// O(previously dirty nets) instead of O(nets): all deltas become zero,
    /// which *is* the golden state.
    pub fn begin(&mut self, cycle: usize) {
        for &net in &self.nonzero {
            self.delta[net as usize] = 0;
            self.pos[net as usize] = 0;
        }
        self.nonzero.clear();
        self.cycle = cycle as u64;
    }

    /// Flips the stored value of a flip-flop in a single lane — one SEU in
    /// scenario `lane`, leaving all other lanes untouched.  Call between
    /// [`DeltaSimulator::begin`] and the first
    /// [`DeltaSimulator::settle`].
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a sequential cell or `lane >= WORD_LANES`.
    pub fn flip_ff(&mut self, ff: CellId, lane: usize) {
        assert!(
            self.netlist.is_seq_cell(ff),
            "cell {} is not a flip-flop",
            self.netlist.cell(ff).name()
        );
        assert!(lane < WORD_LANES, "lane {lane} out of range");
        let q = self.netlist.cell(ff).output().index();
        self.set_delta(q, self.delta[q] ^ (1u64 << lane));
    }

    /// Nets whose delta is nonzero in at least one lane, in no particular
    /// order.  Empty iff every lane sits exactly on the golden trace.
    pub fn nonzero_nets(&self) -> &[u32] {
        &self.nonzero
    }

    /// `true` iff every lane is back on the golden trajectory — the
    /// frontier-empty convergence test that replaces the full-state XOR
    /// scan of the full-settle engine.
    pub fn quiescent(&self) -> bool {
        self.nonzero.is_empty()
    }

    /// The packed delta word of a net (lane `l` = `actual XOR golden` in
    /// scenario `l`).  Zero for any net on the golden trajectory.
    pub fn delta(&self, net: NetId) -> u64 {
        self.delta[net.index()]
    }

    /// One scan of the nonzero frontier accumulating the lane-wise OR of
    /// deltas into two observation groups: bit `k` of `flags[net]` routes
    /// the net's delta into result `k`.  Every net outside the frontier
    /// equals golden in all lanes, so the accumulators are exact divergence
    /// masks for whatever each flag bit marks (the differential campaign
    /// engine marks primary outputs and architectural state).
    ///
    /// # Panics
    ///
    /// Panics if `flags` is shorter than the net count.
    pub fn scan_flagged(&self, flags: &[u8]) -> [u64; 2] {
        let mut acc = [0u64; 2];
        for &net in &self.nonzero {
            let f = flags[net as usize];
            if f != 0 {
                let d = self.delta[net as usize];
                if f & 1 != 0 {
                    acc[0] |= d;
                }
                if f & 2 != 0 {
                    acc[1] |= d;
                }
            }
        }
        acc
    }

    /// Masks every delta down to the lanes in `keep`, dropping nets whose
    /// remaining delta is zero from the nonzero set.
    ///
    /// This is the retirement hook of the differential campaign engine:
    /// once a lane's fault is classified its delta bits are dead weight —
    /// they keep dirtying the frontier and forcing re-evaluation of a fan
    /// cone nobody reads.  Clearing them lets the frontier collapse to the
    /// cones of the still-undecided lanes, which is where the event-driven
    /// engine's advantage over full re-settling comes from.
    pub fn retain_lanes(&mut self, keep: u64) {
        let mut i = 0;
        while i < self.nonzero.len() {
            let net = self.nonzero[i] as usize;
            let masked = self.delta[net] & keep;
            self.delta[net] = masked;
            if masked == 0 {
                let last = *self.nonzero.last().unwrap();
                self.nonzero.swap_remove(i);
                self.pos[net] = 0;
                if (last as usize) != net {
                    self.pos[last as usize] = i as u32 + 1;
                }
            } else {
                i += 1;
            }
        }
    }

    /// Updates a net's delta and its nonzero-set membership.
    #[inline]
    fn set_delta(&mut self, net: usize, value: u64) {
        Self::set_delta_parts(
            &mut self.delta,
            &mut self.nonzero,
            &mut self.pos,
            net,
            value,
        );
    }

    /// Field-split body of [`DeltaSimulator::set_delta`], callable while
    /// the arena is borrowed.
    #[inline]
    fn set_delta_parts(
        delta: &mut [u64],
        nonzero: &mut Vec<u32>,
        pos: &mut [u32],
        net: usize,
        value: u64,
    ) {
        let present = pos[net] != 0;
        let is_nonzero = value != 0;
        delta[net] = value;
        if is_nonzero && !present {
            nonzero.push(net as u32);
            pos[net] = nonzero.len() as u32;
        } else if !is_nonzero && present {
            let i = (pos[net] - 1) as usize;
            let last = *nonzero.last().unwrap();
            nonzero.swap_remove(i);
            pos[net] = 0;
            if (last as usize) != net {
                pos[last as usize] = i as u32 + 1;
            }
        }
    }

    /// Propagates deltas through the combinational logic at the current
    /// cycle: re-evaluates exactly the dirty fan-out frontier, in levelized
    /// row order.  `golden` must be the transposed golden trace the run was
    /// seeded from.
    ///
    /// # Panics
    ///
    /// Panics if the trace has a different net count or does not cover the
    /// current cycle.
    pub fn settle(&mut self, golden: &TransposedTrace) {
        assert_eq!(
            golden.num_nets(),
            self.netlist.num_nets(),
            "trace incompatible with this netlist"
        );
        let view = golden.cycle_view(self.cycle as usize);
        let soa = &self.soa;
        let num_rows = soa.num_rows();
        // Adaptive sweep selection.  The event sweep touches roughly
        // `fanout + 1` rows per dirty net at a higher per-row cost than a
        // straight-line pass (bitset pops, membership bookkeeping, cascade
        // enqueues), so once the frontier covers more than ~1/8 of the rows
        // a full levelized pass over every row is cheaper — it needs no
        // queue and no per-row membership updates, just one O(nets) rebuild
        // of the nonzero set at the end.  Both sweeps compute the identical
        // fixed point (a clean-input row re-derives its golden output, i.e.
        // delta 0), so the choice is invisible to callers.
        if self.nonzero.len() * 8 >= num_rows {
            self.settle_all_rows(view);
            return;
        }
        // Seed: comb readers of every dirty net, plus the driver row of
        // every comb-driven dirty net (stale-delta clearing).
        for i in 0..self.nonzero.len() {
            let net = self.nonzero[i] as usize;
            // Reader tokens are sorted: comb rows first, D-pin tokens last.
            for &tok in soa.net_readers(net) {
                if tok as usize >= num_rows {
                    break;
                }
                self.queued[tok as usize / 64] |= 1u64 << (tok % 64);
            }
            if let Some(row) = soa.net_driver_row(net) {
                self.queued[row / 64] |= 1u64 << (row % 64);
            }
        }
        // Forward sweep: pop rows lowest-first; cascade enqueues always
        // land at strictly higher rows, so one pass reaches the fixed
        // point.
        let runs = soa.runs();
        let mut run = None;
        let mut run_end = 0usize;
        let mut wi = 0usize;
        while wi < self.queued.len() {
            let word = self.queued[wi];
            if word == 0 {
                wi += 1;
                continue;
            }
            self.queued[wi] = word & (word - 1);
            let row = wi * 64 + word.trailing_zeros() as usize;
            // Rows pop in ascending order and runs tile the row space, so
            // consecutive rows usually share a run — reload only on exit.
            if row >= run_end {
                let r = &runs[self.row_run[row] as usize];
                run_end = r.rows().end;
                run = Some(r);
            }
            let run = run.expect("row belongs to a run");
            let arity = run.arity();
            for (slot, &pin) in self.row_buf.iter_mut().zip(soa.row_pins(row)) {
                let pin = pin as usize;
                // Absolute value = golden XOR delta, lane-wise.  The golden
                // bit is unpredictable, so complement via a branch-free
                // mask instead of a conditional.
                *slot = self.delta[pin] ^ golden_mask(view.value(pin));
            }
            let out = soa.row_out(row) as usize;
            let out_delta =
                run.tt().eval_wide(&self.row_buf[..arity]) ^ golden_mask(view.value(out));
            if out_delta != self.delta[out] {
                Self::set_delta_parts(
                    &mut self.delta,
                    &mut self.nonzero,
                    &mut self.pos,
                    out,
                    out_delta,
                );
                for &tok in soa.net_readers(out) {
                    if tok as usize >= num_rows {
                        break;
                    }
                    debug_assert!(tok as usize > row, "levelized reader order");
                    self.queued[tok as usize / 64] |= 1u64 << (tok % 64);
                }
            }
        }
    }

    /// Dense-frontier sweep: one straight-line levelized pass over every
    /// comb row in delta space, exactly like the full-settle engine's
    /// schedule but on deltas (pin value = delta XOR golden).  A row whose
    /// inputs all sit on golden re-derives its golden output, i.e. delta
    /// zero, so the pass reaches the same fixed point as the event sweep.
    /// The nonzero set is rebuilt afterwards in one pass over the only nets
    /// that can carry a delta: row outputs and flip-flop Q nets (inputs are
    /// clean by construction).
    fn settle_all_rows(&mut self, view: CycleView<'_>) {
        let soa = &self.soa;
        for run in soa.runs() {
            let tt = run.tt();
            let arity = run.arity();
            for row in run.rows() {
                for (slot, &pin) in self.row_buf.iter_mut().zip(soa.row_pins(row)) {
                    let pin = pin as usize;
                    *slot = self.delta[pin] ^ golden_mask(view.value(pin));
                }
                let out = soa.row_out(row) as usize;
                self.delta[out] =
                    tt.eval_wide(&self.row_buf[..arity]) ^ golden_mask(view.value(out));
            }
        }
        // Membership rebuild: drop the stale set, then re-admit every net
        // that can be dirty.
        for &net in &self.nonzero {
            self.pos[net as usize] = 0;
        }
        self.nonzero.clear();
        for row in 0..soa.num_rows() {
            let out = soa.row_out(row) as usize;
            if self.delta[out] != 0 {
                self.nonzero.push(out as u32);
                self.pos[out] = self.nonzero.len() as u32;
            }
        }
        for &q in soa.ff_q() {
            let q = q as usize;
            if self.delta[q] != 0 {
                self.nonzero.push(q as u32);
                self.pos[q] = self.nonzero.len() as u32;
            }
        }
    }

    /// Latches every flip-flop and advances the cycle: the new Q delta is
    /// the settled D delta (golden Q at `t+1` is golden D at `t`, so deltas
    /// latch like values).  Only flip-flops adjacent to a dirty net are
    /// touched; call after [`DeltaSimulator::settle`].
    pub fn tick(&mut self) {
        let soa = &self.soa;
        let num_rows = soa.num_rows();
        self.stamp_gen = self.stamp_gen.wrapping_add(1);
        if self.stamp_gen == 0 {
            self.ff_stamp.fill(0);
            self.stamp_gen = 1;
        }
        // Phase 1: gather next deltas for every affected flip-flop — those
        // with a dirty D input (delta latches in) or a dirty Q output
        // (delta latches out).  Two-phase so a Q-feeds-D chain latches from
        // pre-tick values, exactly like the full-state engines.
        let mut moves = std::mem::take(&mut self.tick_scratch);
        moves.clear();
        for i in 0..self.nonzero.len() {
            let net = self.nonzero[i] as usize;
            // D-pin tokens sit at the sorted tail of the reader list.
            for &tok in soa.net_readers(net).iter().rev() {
                if (tok as usize) < num_rows {
                    break;
                }
                let ff = tok as usize - num_rows;
                if self.ff_stamp[ff] != self.stamp_gen {
                    self.ff_stamp[ff] = self.stamp_gen;
                    moves.push((ff as u32, self.delta[soa.ff_d()[ff] as usize]));
                }
            }
            if let Some(ff) = soa.ff_of_q(net) {
                if self.ff_stamp[ff] != self.stamp_gen {
                    self.ff_stamp[ff] = self.stamp_gen;
                    moves.push((ff as u32, self.delta[soa.ff_d()[ff] as usize]));
                }
            }
        }
        // Phase 2: apply.
        for &(ff, word) in &moves {
            let q = soa.ff_q()[ff as usize] as usize;
            Self::set_delta_parts(&mut self.delta, &mut self.nonzero, &mut self.pos, q, word);
        }
        self.tick_scratch = moves;
        self.cycle += 1;
    }
}

/// All-ones when the golden bit is set, zero otherwise — branch-free,
/// because the golden bit is data-dependent and a conditional would
/// mispredict half the time.
#[inline]
fn golden_mask(bit: bool) -> u64 {
    u64::from(bit).wrapping_neg()
}

/// Asserts that `delta`'s view of the world matches a full-state wide
/// simulator lane for lane: `golden XOR delta == wide` on every net.
/// Test-support helper shared by the sim and campaign test suites.
pub fn assert_matches_block(
    delta: &DeltaSimulator<'_>,
    wide: &mut WideSimulator<'_>,
    golden: &TransposedTrace,
) {
    let cycle = delta.cycle() as usize;
    for i in 0..delta.netlist().num_nets() {
        let net = NetId::from_index(i);
        let absolute = delta.delta(net) ^ golden_mask(golden.value(cycle, net));
        assert_eq!(
            absolute,
            wide.value_word(net),
            "net {net} cycle {cycle} diverged from the full-settle engine"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::trace::WaveTrace;
    use mate_netlist::examples::{counter, tmr_register};

    /// Golden constant-input run of `counter(bits)` with `en` high.
    fn golden_counter(bits: usize, cycles: usize) -> (Netlist, Topology, WaveTrace) {
        let (n, topo) = counter(bits);
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(n.find_net("en").unwrap(), true);
        let mut trace = WaveTrace::new(n.num_nets());
        for _ in 0..cycles {
            trace.capture(&mut sim);
            sim.tick();
        }
        (n, topo, trace)
    }

    #[test]
    fn no_flip_stays_quiescent() {
        let (n, topo, trace) = golden_counter(4, 8);
        let golden = TransposedTrace::from_trace(&trace);
        let mut sim = DeltaSimulator::new(&n, &topo);
        sim.begin(2);
        for _ in 2..7 {
            sim.settle(&golden);
            assert!(sim.quiescent());
            sim.tick();
        }
    }

    #[test]
    fn flip_matches_wide_simulator_per_cycle() {
        let (n, topo, trace) = golden_counter(4, 10);
        let golden = TransposedTrace::from_trace(&trace);
        for (inject, ff_i, lane) in [(1, 0, 0), (3, 2, WORD_LANES - 1), (5, 3, WORD_LANES / 2)] {
            let ff = topo.seq_cells()[ff_i];
            let mut wide = WideSimulator::new(&n, &topo);
            wide.load_from_trace(&trace, inject);
            wide.flip_ff(ff, lane);
            let mut delta = DeltaSimulator::new(&n, &topo);
            delta.begin(inject);
            delta.flip_ff(ff, lane);
            for t in inject..9 {
                wide.load_inputs_from_trace(&trace, t);
                wide.settle();
                delta.settle(&golden);
                assert_matches_block(&delta, &mut wide, &golden);
                wide.tick();
                delta.tick();
            }
        }
    }

    #[test]
    fn retain_lanes_masks_and_matches_fresh_seed() {
        let (n, topo, trace) = golden_counter(4, 10);
        let golden = TransposedTrace::from_trace(&trace);
        let inject = 2;
        let keep_lane = WORD_LANES / 2;
        // Two faulty lanes, then retire all but `keep_lane`.
        let mut masked = DeltaSimulator::new(&n, &topo);
        masked.begin(inject);
        masked.flip_ff(topo.seq_cells()[0], 0);
        masked.flip_ff(topo.seq_cells()[2], keep_lane);
        masked.settle(&golden);
        let keep = 1u64 << keep_lane;
        masked.retain_lanes(keep);
        // No retired bits survive anywhere, and membership is exact.
        for &net in masked.nonzero_nets() {
            let d = masked.delta(NetId::from_index(net as usize));
            assert_ne!(d, 0);
            assert_eq!(d & !keep, 0);
        }
        // The kept lane evolves exactly like a run that never carried the
        // other fault.
        let mut lone = DeltaSimulator::new(&n, &topo);
        lone.begin(inject);
        lone.flip_ff(topo.seq_cells()[2], keep_lane);
        lone.settle(&golden);
        for _ in inject..9 {
            for i in 0..n.num_nets() {
                let net = NetId::from_index(i);
                assert_eq!(masked.delta(net) & keep, lone.delta(net) & keep);
            }
            masked.tick();
            lone.tick();
            masked.settle(&golden);
            lone.settle(&golden);
        }
        // Retiring every lane empties the frontier outright.
        masked.retain_lanes(0);
        assert!(masked.quiescent());
    }

    #[test]
    fn double_flip_cancels() {
        let (n, topo, trace) = golden_counter(3, 4);
        let golden = TransposedTrace::from_trace(&trace);
        let mut sim = DeltaSimulator::new(&n, &topo);
        sim.begin(1);
        let ff = topo.seq_cells()[1];
        sim.flip_ff(ff, 5);
        assert!(!sim.quiescent());
        sim.flip_ff(ff, 5);
        assert!(sim.quiescent());
        sim.settle(&golden);
        assert!(sim.quiescent());
    }

    #[test]
    fn begin_resets_previous_chunk() {
        let (n, topo, trace) = golden_counter(4, 8);
        let golden = TransposedTrace::from_trace(&trace);
        let mut sim = DeltaSimulator::new(&n, &topo);
        sim.begin(1);
        sim.flip_ff(topo.seq_cells()[0], 0);
        sim.settle(&golden);
        assert!(!sim.quiescent());
        // Re-seeding drops all of the first chunk's state.
        sim.begin(3);
        assert!(sim.quiescent());
        assert_eq!(sim.cycle(), 3);
        sim.settle(&golden);
        assert!(sim.quiescent());
    }

    #[test]
    fn tmr_flip_converges_within_one_cycle() {
        // A TMR-protected register masks any single-replica flip: the vote
        // output never diverges and the frontier empties after one tick.
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(load, true);
        sim.set_input(din, true);
        sim.tick();
        sim.set_input(load, false);
        let mut trace = WaveTrace::new(n.num_nets());
        for _ in 0..4 {
            trace.capture(&mut sim);
            sim.tick();
        }
        let golden = TransposedTrace::from_trace(&trace);
        let vote = n.find_net("vote").unwrap();
        let mut delta = DeltaSimulator::new(&n, &topo);
        delta.begin(0);
        delta.flip_ff(topo.seq_cells()[0], 41);
        delta.settle(&golden);
        assert!(!delta.quiescent());
        assert_eq!(delta.delta(vote), 0, "TMR vote must mask the flip");
        // The replica reloads from the voted value, so the flip washes out.
        delta.tick();
        delta.settle(&golden);
        assert!(delta.quiescent());
    }

    #[test]
    #[should_panic(expected = "not a flip-flop")]
    fn flip_comb_cell_panics() {
        let (n, topo) = counter(2);
        let mut sim = DeltaSimulator::new(&n, &topo);
        sim.flip_ff(topo.comb_order()[0], 0);
    }

    #[test]
    #[should_panic(expected = "beyond trace")]
    fn settle_past_trace_panics() {
        let (n, topo, trace) = golden_counter(2, 3);
        let golden = TransposedTrace::from_trace(&trace);
        let mut sim = DeltaSimulator::new(&n, &topo);
        sim.begin(3);
        sim.settle(&golden);
    }
}
