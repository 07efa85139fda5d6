//! Bit-parallel 64-lane simulation over the SoA arena.
//!
//! A [`WideSimulator`] holds one `u64` word per net: bit lane `l` is the
//! value of that net in scenario `l`, so 64 independent fault scenarios
//! advance in lock-step through each combinational settle and clock tick.
//! This is the classic word-level trick of parallel-pattern fault
//! simulators, applied to SEU campaigns: seed all lanes from the golden run
//! at the injection cycle, flip one flip-flop per lane, and compare every
//! lane against the golden trace with plain XOR words.
//!
//! The settle loop streams the compile-once [`SoaNetlist`] arena — levelized
//! per-cell-type runs over flat CSR pin arrays — instead of chasing the
//! pointer-rich netlist graph cell by cell; the schedule is topologically
//! equivalent, so the engine mirrors [`Simulator`](crate::Simulator)
//! semantics exactly (same two-phase latch, settle-order-independent fixed
//! point).  Lane `l` of a wide run is cycle-for-cycle identical to a scalar
//! run with the same initial state, stimuli, and flip.

use mate_netlist::prelude::*;

use crate::trace::WaveTrace;

/// A 64-lane bit-parallel simulator for a validated netlist.
///
/// Lanes share primary-input values (a campaign replays the golden inputs
/// in every lane); they diverge only through [`WideSimulator::flip_ff`] and
/// the propagation that follows.
#[derive(Clone, Debug)]
pub struct WideSimulator<'n> {
    netlist: &'n Netlist,
    /// The flattened evaluation schedule.
    soa: SoaNetlist,
    /// One packed word per net; lane `l` is the net's value in scenario `l`.
    values: Vec<u64>,
    settled: bool,
    /// Reusable input-pin buffer for the settle loop.
    row_buf: [u64; TruthTable::MAX_INPUTS],
    /// Reusable latch buffer for the tick loop.
    latch_scratch: Vec<u64>,
}

impl<'n> WideSimulator<'n> {
    /// Creates a wide simulator with every net at `0` in all lanes,
    /// flattening the netlist into its own [`SoaNetlist`] arena.
    pub fn new(netlist: &'n Netlist, topo: &'n Topology) -> Self {
        Self {
            netlist,
            values: vec![0; netlist.num_nets()],
            soa: SoaNetlist::build(netlist, topo),
            settled: false,
            row_buf: [0; TruthTable::MAX_INPUTS],
            latch_scratch: Vec::with_capacity(topo.seq_cells().len()),
        }
    }

    /// Seeds every lane with the settled values of `trace` at `cycle`.
    ///
    /// Because flip-flop outputs do not change during a combinational
    /// settle, the settled values of cycle `c` carry exactly the flip-flop
    /// state that was live during cycle `c` — so a campaign can inject here
    /// and continue without replaying cycles `0..c`.
    ///
    /// # Panics
    ///
    /// Panics if the trace has a different net count or `cycle` is out of
    /// range.
    pub fn load_from_trace(&mut self, trace: &WaveTrace, cycle: usize) {
        assert_eq!(
            trace.num_nets(),
            self.netlist.num_nets(),
            "trace incompatible with this netlist"
        );
        let words = trace.cycle_words(cycle);
        for (i, value) in self.values.iter_mut().enumerate() {
            let bit = words[i / WORD_LANES] >> (i % WORD_LANES) & 1;
            // Broadcast: all-ones when the golden bit is set, zero otherwise.
            *value = bit.wrapping_neg();
        }
        self.settled = true;
    }

    /// Drives every primary input, in all lanes, to its settled value in
    /// `trace` at `cycle` — a campaign replaying the golden inputs.
    ///
    /// # Panics
    ///
    /// Panics if the trace has a different net count or `cycle` is out of
    /// range.
    pub fn load_inputs_from_trace(&mut self, trace: &WaveTrace, cycle: usize) {
        assert_eq!(
            trace.num_nets(),
            self.netlist.num_nets(),
            "trace incompatible with this netlist"
        );
        let words = trace.cycle_words(cycle);
        for &net in self.netlist.inputs() {
            let i = net.index();
            let word = (words[i / WORD_LANES] >> (i % WORD_LANES) & 1).wrapping_neg();
            if self.values[i] != word {
                self.values[i] = word;
                self.settled = false;
            }
        }
    }

    /// Propagates inputs and flip-flop state through the combinational
    /// logic in all lanes at once, streaming the levelized SoA schedule run
    /// by run.  Idempotent; cheap when already settled.
    pub fn settle(&mut self) {
        if self.settled {
            return;
        }
        let soa = &self.soa;
        for run in soa.runs() {
            let tt = run.tt();
            let arity = run.arity();
            for row in run.rows() {
                for (slot, &net) in self.row_buf.iter_mut().zip(soa.row_pins(row)) {
                    *slot = self.values[net as usize];
                }
                self.values[soa.row_out(row) as usize] = tt.eval_wide(&self.row_buf[..arity]);
            }
        }
        self.settled = true;
    }

    /// The settled packed value word of a net (bit `l` = lane `l`).
    #[inline]
    pub fn value_word(&mut self, net: NetId) -> u64 {
        self.settle();
        self.values[net.index()]
    }

    /// Latches every flip-flop from its data input in all lanes.
    pub fn tick(&mut self) {
        self.settle();
        // Two-phase latch, exactly like the scalar engine, over the flat
        // D/Q index arrays.
        let mut next = std::mem::take(&mut self.latch_scratch);
        next.clear();
        let soa = &self.soa;
        next.extend(soa.ff_d().iter().map(|&d| self.values[d as usize]));
        for (&q, &word) in soa.ff_q().iter().zip(&next) {
            if self.values[q as usize] != word {
                self.values[q as usize] = word;
                self.settled = false;
            }
        }
        self.latch_scratch = next;
    }

    /// Flips the stored value of a flip-flop in a single lane — one SEU in
    /// scenario `lane`, leaving all other lanes untouched.
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
        let q = self.netlist.cell(ff).output();
        self.values[q.index()] ^= 1u64 << lane;
        self.settled = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use mate_netlist::examples::{counter, tmr_register};

    #[test]
    fn broadcast_lanes_match_scalar_run() {
        let (n, topo) = counter(4);
        let en = n.find_net("en").unwrap();

        // Golden scalar trace, with the enable toggling.
        let mut sim = Simulator::new(&n, &topo);
        let mut trace = WaveTrace::new(n.num_nets());
        for cycle in 0..6 {
            sim.set_input(en, cycle % 3 != 1);
            trace.capture(&mut sim);
            sim.tick();
        }

        // Seed wide at cycle 2 and advance in lock-step, replaying the
        // inputs from the trace; with no flips all lanes must reproduce the
        // golden values exactly.
        let mut wide = WideSimulator::new(&n, &topo);
        wide.load_from_trace(&trace, 2);
        for cycle in 2..6 {
            wide.load_inputs_from_trace(&trace, cycle);
            wide.settle();
            for i in 0..n.num_nets() {
                let net = NetId::from_index(i);
                let expect = if trace.value(cycle, net) { u64::MAX } else { 0 };
                assert_eq!(wide.value_word(net), expect, "net {net} cycle {cycle}");
            }
            wide.tick();
        }
    }

    #[test]
    fn flip_affects_only_its_lane() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(load, true);
        sim.set_input(din, true);
        sim.tick();
        sim.set_input(load, false);
        let mut trace = WaveTrace::new(n.num_nets());
        trace.capture(&mut sim);
        // Use the (settled) cycle-0-equivalent row to seed.
        let mut wide = WideSimulator::new(&n, &topo);
        wide.load_from_trace(&trace, 0);
        let ff0 = topo.seq_cells()[0];
        wide.flip_ff(ff0, 7);
        let r0 = n.cell(ff0).output();
        let word = wide.value_word(r0);
        // Lane 7 flipped (replica loaded 1, now 0); all other lanes hold 1.
        assert_eq!(word, !(1u64 << 7));
        // The TMR vote masks the flip in every lane.
        let vote = n.find_net("vote").unwrap();
        assert_eq!(wide.value_word(vote), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "not a flip-flop")]
    fn flip_comb_cell_panics() {
        let (n, topo) = counter(2);
        let mut wide = WideSimulator::new(&n, &topo);
        wide.flip_ff(topo.comb_order()[0], 0);
    }

    #[test]
    #[should_panic(expected = "lane 64 out of range")]
    fn flip_lane_out_of_range_panics() {
        let (n, topo) = counter(2);
        let mut wide = WideSimulator::new(&n, &topo);
        wide.flip_ff(topo.seq_cells()[0], 64);
    }
}
