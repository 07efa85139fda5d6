//! Stimulus and device harness around the [`Simulator`].

use mate_netlist::prelude::*;

use crate::engine::{SimCheckpoint, Simulator};
use crate::trace::WaveTrace;
use crate::wide::WideSimulator;

/// A per-cycle stimulus for one primary input: a pure function of the cycle
/// number, so campaigns may sample it at any cycle (out of order,
/// repeatedly) when they seed runs from checkpoints or the golden trace.
pub struct InputWave {
    wave: Box<dyn Fn(u64) -> bool>,
}

impl InputWave {
    /// A constant level.
    pub fn constant(value: bool) -> Self {
        Self {
            wave: Box::new(move |_| value),
        }
    }

    /// High for the first `cycles` cycles, low afterwards (a reset pulse).
    pub fn pulse(cycles: u64) -> Self {
        Self {
            wave: Box::new(move |c| c < cycles),
        }
    }

    /// Values from a vector; the last value is held once exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_vec(values: Vec<bool>) -> Self {
        assert!(!values.is_empty(), "stimulus vector must not be empty");
        Self {
            wave: Box::new(move |c| *values.get(c as usize).unwrap_or(values.last().unwrap())),
        }
    }

    fn sample(&self, cycle: u64) -> bool {
        (self.wave)(cycle)
    }
}

impl std::fmt::Debug for InputWave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InputWave")
    }
}

/// A reactive external device (memory, peripheral) hooked into the cycle
/// loop, whose external state (memory contents, peripheral registers) can be
/// captured and restored.
///
/// [`SnapshotDevice::on_cycle`] runs after the first combinational settle of
/// each cycle: it may read settled outputs (e.g. an address bus) and drive
/// primary inputs (e.g. a read-data bus).  The harness settles again before
/// capturing the trace and latching, so device responses behave like
/// asynchronous-read memories.
///
/// **Contract:** nets driven by a device must not combinationally influence
/// the outputs the device reads, otherwise a second settle round would be
/// required; CPU-style cores (address from registers, data into registers)
/// satisfy this naturally.
///
/// Campaigns checkpoint a golden run at each injection cycle
/// ([`Testbench::checkpoint`]) and seed faulty runs from there instead of
/// replaying the warm-up prefix.
pub trait SnapshotDevice<'n> {
    /// Runs the device for the current cycle: read settled outputs, drive
    /// primary inputs.
    fn on_cycle(&mut self, sim: &mut Simulator<'n>);

    /// Serializes every piece of state mutated by [`Self::on_cycle`].
    /// Read-only devices (ROMs) return an empty vector.
    fn state(&self) -> Vec<u64>;

    /// Restores state previously captured by [`Self::state`].
    ///
    /// # Panics
    ///
    /// Implementations panic when `state` has the wrong shape.
    fn load_state(&mut self, state: &[u64]);
}

/// A full checkpoint of a testbench: simulator state plus the state of every
/// device.  Captured by [`Testbench::checkpoint`].
#[derive(Clone, Debug)]
pub struct TestbenchCheckpoint {
    sim: SimCheckpoint,
    devices: Vec<Vec<u64>>,
}

impl TestbenchCheckpoint {
    /// The cycle counter at capture time.
    pub fn cycle(&self) -> u64 {
        self.sim.cycle()
    }
}

/// Drives a netlist cycle by cycle and records a [`WaveTrace`].
///
/// # Example
///
/// ```
/// use mate_netlist::examples::counter;
/// use mate_sim::{InputWave, Testbench};
///
/// let (n, topo) = counter(3);
/// let mut tb = Testbench::new(&n, &topo);
/// tb.drive(n.find_net("en").unwrap(), InputWave::constant(true));
/// let trace = tb.run(10);
/// assert_eq!(trace.num_cycles(), 10);
/// ```
pub struct Testbench<'n> {
    sim: Simulator<'n>,
    stimuli: Vec<(NetId, InputWave)>,
    devices: Vec<Box<dyn SnapshotDevice<'n> + 'n>>,
}

impl<'n> Testbench<'n> {
    /// Creates a testbench around a fresh simulator.
    pub fn new(netlist: &'n Netlist, topo: &'n Topology) -> Self {
        Self {
            sim: Simulator::new(netlist, topo),
            stimuli: Vec::new(),
            devices: Vec::new(),
        }
    }

    /// Attaches a stimulus to a primary input.
    ///
    /// # Panics
    ///
    /// Panics (at run time) if `net` is not a primary input.
    pub fn drive(&mut self, net: NetId, wave: InputWave) -> &mut Self {
        self.stimuli.push((net, wave));
        self
    }

    /// Attaches a reactive device.
    pub fn attach_snapshot(&mut self, device: Box<dyn SnapshotDevice<'n> + 'n>) -> &mut Self {
        self.devices.push(device);
        self
    }

    /// `true` when the run can be re-created lane-parallel in a
    /// [`WideSimulator`]: no external devices.
    pub fn can_run_wide(&self) -> bool {
        self.devices.is_empty()
    }

    /// Captures a checkpoint of the simulator and all device state.
    pub fn checkpoint(&self) -> TestbenchCheckpoint {
        TestbenchCheckpoint {
            sim: self.sim.checkpoint(),
            devices: self.devices.iter().map(|d| d.state()).collect(),
        }
    }

    /// Restores a checkpoint captured by [`Testbench::checkpoint`] (possibly
    /// on a different testbench instance of the same design).
    ///
    /// # Panics
    ///
    /// Panics if the device count differs or the simulator is incompatible.
    pub fn restore(&mut self, checkpoint: &TestbenchCheckpoint) {
        assert_eq!(
            checkpoint.devices.len(),
            self.devices.len(),
            "checkpoint has a different device count"
        );
        self.sim.restore_checkpoint(&checkpoint.sim);
        for (device, state) in self.devices.iter_mut().zip(&checkpoint.devices) {
            device.load_state(state);
        }
    }

    /// Broadcasts this testbench's stimuli for `cycle` to all 64 lanes of a
    /// wide simulator.
    pub fn apply_stimuli_wide(&self, wide: &mut WideSimulator<'n>, cycle: u64) {
        for (net, wave) in &self.stimuli {
            wide.set_input(*net, wave.sample(cycle));
        }
    }

    /// Access to the underlying simulator (e.g. for fault injection).
    pub fn sim_mut(&mut self) -> &mut Simulator<'n> {
        &mut self.sim
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Simulator<'n> {
        &self.sim
    }

    /// Runs one cycle: stimuli → settle → devices → settle → latch.
    /// Returns after the clock edge.
    pub fn step(&mut self) {
        self.step_observed(|_| {});
    }

    /// Runs one cycle like [`Testbench::step`], calling `observe` on the
    /// fully settled simulator right before the clock edge (the moment a
    /// trace cycle is captured).
    pub fn step_observed(&mut self, observe: impl FnOnce(&mut Simulator<'n>)) {
        let cycle = self.sim.cycle();
        for (net, wave) in &self.stimuli {
            self.sim.set_input(*net, wave.sample(cycle));
        }
        self.sim.settle();
        for device in &mut self.devices {
            device.on_cycle(&mut self.sim);
        }
        self.sim.settle();
        observe(&mut self.sim);
        self.sim.tick();
    }

    /// Runs `cycles` cycles and records the settled wire values of each.
    pub fn run(&mut self, cycles: usize) -> WaveTrace {
        let mut trace = WaveTrace::new(self.sim.netlist().num_nets());
        for _ in 0..cycles {
            self.step_observed(|sim| trace.capture(sim));
        }
        trace
    }
}

impl std::fmt::Debug for Testbench<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Testbench({}, {} stimuli, {} devices)",
            self.sim.netlist().name(),
            self.stimuli.len(),
            self.devices.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_netlist::examples::counter;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn constant_and_pulse_waves() {
        let c = InputWave::constant(true);
        assert!(c.sample(0));
        assert!(c.sample(99));
        let p = InputWave::pulse(2);
        assert!(p.sample(0));
        assert!(p.sample(1));
        assert!(!p.sample(2));
    }

    #[test]
    fn vec_wave_holds_last() {
        let w = InputWave::from_vec(vec![true, false]);
        assert!(w.sample(0));
        assert!(!w.sample(1));
        assert!(!w.sample(100));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_vec_wave_panics() {
        InputWave::from_vec(vec![]);
    }

    #[test]
    fn counter_with_gated_enable() {
        let (n, topo) = counter(4);
        let mut tb = Testbench::new(&n, &topo);
        // Enable only on even cycles.
        tb.drive(
            n.find_net("en").unwrap(),
            InputWave::from_vec((0..10).map(|c| c % 2 == 0).collect()),
        );
        let trace = tb.run(10);
        // 5 enabled cycles -> counter reaches 5.
        let value: usize = (0..4)
            .map(|i| {
                let q = n.find_net(&format!("q{i}")).unwrap();
                (trace.value(9, q) as usize) << i
            })
            .sum();
        assert_eq!(value, 5);
    }

    /// Logs `q0` each cycle and, once it is high, drives `en` low.
    struct Freeze {
        en: NetId,
        q0: NetId,
        log: Rc<RefCell<Vec<bool>>>,
    }

    impl<'n> SnapshotDevice<'n> for Freeze {
        fn on_cycle(&mut self, sim: &mut Simulator<'n>) {
            let v = sim.value(self.q0);
            self.log.borrow_mut().push(v);
            if v {
                sim.set_input(self.en, false);
            }
        }

        fn state(&self) -> Vec<u64> {
            Vec::new()
        }

        fn load_state(&mut self, state: &[u64]) {
            assert!(state.is_empty());
        }
    }

    #[test]
    fn device_reacts_to_outputs() {
        // The device runs after the first settle, reads q0 and overrides
        // the stimulus on `en`, stopping the counter at 1.
        let (n, topo) = counter(3);
        let en = n.find_net("en").unwrap();
        let q0 = n.find_net("q0").unwrap();
        let mut tb = Testbench::new(&n, &topo);
        tb.drive(en, InputWave::constant(true));
        let log: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(Vec::new()));
        tb.attach_snapshot(Box::new(Freeze {
            en,
            q0,
            log: log.clone(),
        }));
        tb.run(6);
        // Counter increments in cycle 0 (q0 becomes 1 in cycle 1), then the
        // device freezes it; q0 stays 1 forever after.
        assert_eq!(
            log.borrow().as_slice(),
            &[false, true, true, true, true, true]
        );
    }

    #[test]
    fn debug_formats() {
        let (n, topo) = counter(2);
        let tb = Testbench::new(&n, &topo);
        assert!(format!("{tb:?}").contains("counter"));
        assert!(format!("{:?}", InputWave::constant(false)).contains("InputWave"));
    }
}
