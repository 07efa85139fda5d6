//! The levelized two-valued simulation engine.

use mate_netlist::prelude::*;

/// A full checkpoint of simulator state: the complete net-value bitmap plus
/// the cycle counter.
///
/// A checkpoint restores the simulator *exactly* — including primary-input
/// levels and the settled flag — so a fault-injection campaign can resume at
/// the injection cycle without replaying the warm-up prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimCheckpoint {
    values: BitSet,
    settled: bool,
    cycle: u64,
}

impl SimCheckpoint {
    /// The cycle counter at capture time.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// A cycle-based simulator for a validated netlist.
///
/// The lifecycle per clock cycle is:
///
/// 1. [`Simulator::set_input`] — drive primary inputs,
/// 2. [`Simulator::settle`] — propagate through the combinational cloud
///    (called implicitly by [`Simulator::value`] and [`Simulator::tick`]),
/// 3. [`Simulator::tick`] — latch all flip-flops and advance the cycle.
///
/// All flip-flops power up to `false`, matching the reset state the RTL
/// layer synthesizes.
///
/// SEU injection uses [`Simulator::flip_ff`] *between* ticks: the flip-flop's
/// stored value is inverted, exactly like a single-event upset that hits the
/// cell at a clock boundary.
#[derive(Clone, Debug)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    topo: &'n Topology,
    /// Current value of every net.
    values: BitSet,
    /// `true` while `values` reflects the current inputs/state.
    settled: bool,
    cycle: u64,
    /// Reusable latch buffer for [`Simulator::tick`], so the per-cycle hot
    /// path allocates nothing.
    latch_scratch: Vec<bool>,
}

impl<'n> Simulator<'n> {
    /// Creates a simulator with all flip-flops and inputs at `false`.
    pub fn new(netlist: &'n Netlist, topo: &'n Topology) -> Self {
        Self {
            netlist,
            topo,
            values: BitSet::new(netlist.num_nets()),
            settled: false,
            cycle: 0,
            latch_scratch: Vec::with_capacity(topo.seq_cells().len()),
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The topology of the netlist under simulation.
    pub fn topology(&self) -> &'n Topology {
        self.topo
    }

    /// The current cycle number (number of completed [`Simulator::tick`]s).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        assert_eq!(
            self.netlist.net(net).driver(),
            NetDriver::Input,
            "{} is not a primary input",
            self.netlist.net(net).name()
        );
        if self.values.contains(net.index()) != value {
            self.values.set(net.index(), value);
            self.settled = false;
        }
    }

    /// Propagates the current inputs and flip-flop state through the
    /// combinational logic.  Idempotent; cheap when already settled.
    pub fn settle(&mut self) {
        if self.settled {
            return;
        }
        for &cell_id in self.topo.comb_order() {
            let cell = self.netlist.cell(cell_id);
            let tt = self
                .netlist
                .cell_type_of(cell_id)
                .truth_table()
                .expect("comb cells have truth tables");
            let mut row = 0usize;
            for (pin, &net) in cell.inputs().iter().enumerate() {
                row |= (self.values.contains(net.index()) as usize) << pin;
            }
            self.values.set(cell.output().index(), tt.eval(row));
        }
        self.settled = true;
    }

    /// Reads the settled value of a net in the current cycle.
    pub fn value(&mut self, net: NetId) -> bool {
        self.settle();
        self.values.contains(net.index())
    }

    /// Direct access to the settled value bitmap (one bit per net).
    pub fn values(&mut self) -> &BitSet {
        self.settle();
        &self.values
    }

    /// Latches every flip-flop from its data input and advances the cycle.
    pub fn tick(&mut self) {
        self.settle();
        // Two-phase: sample all D pins first, then update the Q nets, so
        // FF-to-FF shifts behave like real edge-triggered logic.  The latch
        // buffer is reused across ticks to keep the hot path allocation-free.
        let mut next = std::mem::take(&mut self.latch_scratch);
        next.clear();
        for &ff in self.topo.seq_cells() {
            let d = self.netlist.cell(ff).inputs()[0];
            next.push(self.values.contains(d.index()));
        }
        for (&ff, &v) in self.topo.seq_cells().iter().zip(&next) {
            let q = self.netlist.cell(ff).output();
            if self.values.contains(q.index()) != v {
                self.values.set(q.index(), v);
                self.settled = false;
            }
        }
        self.latch_scratch = next;
        self.cycle += 1;
    }

    /// Flips the stored value of a flip-flop — a single-event upset.
    ///
    /// Call between ticks; the flipped value participates in the following
    /// combinational evaluation and is latched downstream at the next tick.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a sequential cell.
    pub fn flip_ff(&mut self, ff: CellId) {
        assert!(
            self.netlist.is_seq_cell(ff),
            "cell {} is not a flip-flop",
            self.netlist.cell(ff).name()
        );
        let q = self.netlist.cell(ff).output();
        let old = self.values.contains(q.index());
        self.values.set(q.index(), !old);
        self.settled = false;
    }

    /// Reads a multi-bit bus as an integer (`nets[0]` is the LSB).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 nets are given.
    pub fn read_bus(&mut self, nets: &[NetId]) -> u64 {
        assert!(nets.len() <= 64, "bus wider than 64 bits");
        self.settle();
        let mut v = 0u64;
        for (i, &net) in nets.iter().enumerate() {
            v |= (self.values.contains(net.index()) as u64) << i;
        }
        v
    }

    /// Drives a multi-bit input bus from an integer (`nets[0]` is the LSB).
    ///
    /// # Panics
    ///
    /// Panics if a net is not a primary input or more than 64 nets are
    /// given.
    pub fn write_bus(&mut self, nets: &[NetId], value: u64) {
        assert!(nets.len() <= 64, "bus wider than 64 bits");
        for (i, &net) in nets.iter().enumerate() {
            self.set_input(net, value & (1 << i) != 0);
        }
    }

    /// Captures the complete simulator state (every net value, the settled
    /// flag, and the cycle counter).
    pub fn checkpoint(&self) -> SimCheckpoint {
        SimCheckpoint {
            values: self.values.clone(),
            settled: self.settled,
            cycle: self.cycle,
        }
    }

    /// Restores a checkpoint captured by [`Simulator::checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was taken from a netlist with a different
    /// net count.
    pub fn restore_checkpoint(&mut self, checkpoint: &SimCheckpoint) {
        assert_eq!(
            checkpoint.values.capacity(),
            self.values.capacity(),
            "checkpoint incompatible with this netlist"
        );
        self.values.clone_from(&checkpoint.values);
        self.settled = checkpoint.settled;
        self.cycle = checkpoint.cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_netlist::examples::{counter, figure1, tmr_register};

    #[test]
    fn combinational_eval_matches_logic() {
        let (n, topo) = figure1();
        let mut sim = Simulator::new(&n, &topo);
        let get = |name: &str| n.find_net(name).unwrap();
        // a=1 b=1 -> f = NAND = 0; c=0 d=1 -> g = 1; e=0 -> h=1
        for (name, v) in [
            ("a", true),
            ("b", true),
            ("c", false),
            ("d", true),
            ("e", false),
        ] {
            sim.set_input(get(name), v);
        }
        assert!(!sim.value(get("f")));
        assert!(sim.value(get("g")));
        assert!(sim.value(get("h")));
        assert!(!sim.value(get("k"))); // g & f = 0
        assert!(sim.value(get("l"))); // g | h = 1
    }

    #[test]
    fn counter_counts() {
        let (n, topo) = counter(6);
        let mut sim = Simulator::new(&n, &topo);
        let en = n.find_net("en").unwrap();
        sim.set_input(en, true);
        for _ in 0..37 {
            sim.tick();
        }
        let mut value = 0usize;
        for i in 0..6 {
            let q = n.find_net(&format!("q{i}")).unwrap();
            value |= (sim.value(q) as usize) << i;
        }
        assert_eq!(value, 37);
        // Disable: value must hold.
        sim.set_input(en, false);
        for _ in 0..5 {
            sim.tick();
        }
        let mut held = 0usize;
        for i in 0..6 {
            let q = n.find_net(&format!("q{i}")).unwrap();
            held |= (sim.value(q) as usize) << i;
        }
        assert_eq!(held, 37);
    }

    #[test]
    fn tick_is_edge_triggered() {
        // Two chained FFs must shift, not fall through.
        let lib = Library::open15();
        let mut n = Netlist::new("shift", lib);
        let din = n.add_input("din");
        let q0 = n.add_net("q0");
        let q1 = n.add_net("q1");
        n.add_cell_to("DFF", "ff0", &[din], q0).unwrap();
        n.add_cell_to("DFF", "ff1", &[q0], q1).unwrap();
        n.set_output(q1);
        let topo = n.validate().unwrap();
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(din, true);
        sim.tick();
        assert!(sim.value(q0));
        assert!(!sim.value(q1), "value must not fall through both FFs");
        sim.tick();
        assert!(sim.value(q1));
    }

    #[test]
    fn flip_ff_injects_seu() {
        let (n, topo) = counter(4);
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(n.find_net("en").unwrap(), true);
        sim.tick(); // q = 0001
        let ff0 = topo.seq_cells()[0];
        sim.flip_ff(ff0);
        assert!(!sim.value(n.find_net("q0").unwrap()));
    }

    #[test]
    #[should_panic(expected = "not a flip-flop")]
    fn flip_comb_cell_panics() {
        let (n, topo) = counter(2);
        let mut sim = Simulator::new(&n, &topo);
        sim.flip_ff(topo.comb_order()[0]);
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn set_non_input_panics() {
        let (n, topo) = counter(2);
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(n.find_net("q0").unwrap(), true);
    }

    #[test]
    fn checkpoint_restores_exact_state() {
        let (n, topo) = counter(5);
        let mut sim = Simulator::new(&n, &topo);
        let en = n.find_net("en").unwrap();
        sim.set_input(en, true);
        for _ in 0..9 {
            sim.tick();
        }
        let cp = sim.checkpoint();
        assert_eq!(cp.cycle(), 9);
        // Diverge: different input level and more cycles.
        sim.set_input(en, false);
        for _ in 0..6 {
            sim.tick();
        }
        sim.restore_checkpoint(&cp);
        assert_eq!(sim.cycle(), 9);
        // The restored run must continue exactly like the original would
        // have, including the restored input level (en=1 keeps counting).
        for _ in 0..3 {
            sim.tick();
        }
        let mut value = 0usize;
        for i in 0..5 {
            let q = n.find_net(&format!("q{i}")).unwrap();
            value |= (sim.value(q) as usize) << i;
        }
        assert_eq!(value, 12);
    }

    #[test]
    fn tmr_masks_single_upset() {
        let (n, topo) = tmr_register();
        let mut sim = Simulator::new(&n, &topo);
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        // Load 1 into all replicas.
        sim.set_input(load, true);
        sim.set_input(din, true);
        sim.tick();
        // Vote mode.
        sim.set_input(load, false);
        sim.tick();
        let vote = n.find_net("vote").unwrap();
        assert!(sim.value(vote));
        // Flip one replica: the vote must hold and the replica must heal.
        let ff0 = topo.seq_cells()[0];
        sim.flip_ff(ff0);
        assert!(sim.value(vote), "majority still 1");
        sim.tick();
        let r0 = n.cell(ff0).output();
        assert!(sim.value(r0), "replica reloaded from vote");
    }

    #[test]
    fn settle_is_idempotent() {
        let (n, topo) = figure1();
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(n.find_net("a").unwrap(), true);
        let v1 = sim.value(n.find_net("f").unwrap());
        let v2 = sim.value(n.find_net("f").unwrap());
        assert_eq!(v1, v2);
    }
}
