//! Stimulus and device harness around the [`Simulator`].

use mate_netlist::prelude::*;

use crate::engine::Simulator;
use crate::trace::WaveTrace;

/// A per-cycle stimulus for one primary input: a function of the cycle
/// number.
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
/// loop.
///
/// A device declares the buses it reads and drives (each a list of nets,
/// LSB first), and [`Testbench::attach`] checks the **device contract** on
/// them: every read net is a primary output, every driven net is a primary
/// input, and no read net of any attached device is reachable from a
/// driven input through combinational logic.  The contract lets campaigns
/// replay every primary input from the golden trace: a faulty run whose
/// outputs still match golden has shown its devices only golden values, so
/// the inputs they drive are golden too.
///
/// [`Device::on_cycle`] runs after the first combinational settle of each
/// cycle; the harness settles again before capturing the trace and
/// latching, so device responses behave like asynchronous-read memories.
pub trait Device {
    /// A short name for error messages.
    fn name(&self) -> &str;

    /// The buses [`Device::on_cycle`] reads, addressed there by position.
    fn reads(&self) -> Vec<Vec<NetId>>;

    /// The buses [`Device::on_cycle`] drives, addressed there by position.
    fn drives(&self) -> Vec<Vec<NetId>>;

    /// Runs the device for the current cycle: read settled outputs, drive
    /// primary inputs.
    fn on_cycle(&mut self, port: &mut DevicePort<'_, '_>);
}

/// A device's view of the simulator during [`Device::on_cycle`]: it names
/// buses by their position in the device's own declarations, so it can
/// reach no other net.
pub struct DevicePort<'a, 'n> {
    sim: &'a mut Simulator<'n>,
    reads: &'a [Vec<NetId>],
    drives: &'a [Vec<NetId>],
}

impl DevicePort<'_, '_> {
    /// The settled value of declared read bus number `bus`, as an integer.
    pub fn read(&mut self, bus: usize) -> u64 {
        self.sim.read_bus(&self.reads[bus])
    }

    /// Drives declared bus number `bus` from an integer.
    pub fn write(&mut self, bus: usize, value: u64) {
        self.sim.write_bus(&self.drives[bus], value);
    }
}

/// A device with the buses it declared when it was attached.
struct Attached<'n> {
    device: Box<dyn Device + 'n>,
    reads: Vec<Vec<NetId>>,
    drives: Vec<Vec<NetId>>,
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
    devices: Vec<Attached<'n>>,
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

    /// Attaches a reactive device after checking the device contract (see
    /// [`Device`]) against its declared buses.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Device`], naming the device and the net, if a
    /// read net is not a primary output, a driven net is not a primary
    /// input, a bus is wider than 64 bits, or a read net of any attached
    /// device is reachable from a driven input through combinational logic.
    pub fn attach(&mut self, device: Box<dyn Device + 'n>) -> Result<&mut Self, MateError> {
        let netlist = self.sim.netlist();
        let topo = self.sim.topology();
        let reads = device.reads();
        let drives = device.drives();
        let reject = |net: Option<NetId>, message: &str| MateError::Device {
            device: device.name().to_owned(),
            net: net.map(|net| netlist.net(net).name().to_owned()),
            message: message.to_owned(),
        };
        if reads.iter().chain(&drives).any(|bus| bus.len() > 64) {
            return Err(reject(None, "bus wider than 64 bits"));
        }
        if let Some(&net) = reads
            .iter()
            .flatten()
            .find(|n| !netlist.outputs().contains(n))
        {
            return Err(reject(Some(net), "read net is not a primary output"));
        }
        let not_input = |n: &&NetId| netlist.net(**n).driver() != NetDriver::Input;
        if let Some(&net) = drives.iter().flatten().find(not_input) {
            return Err(reject(Some(net), "driven net is not a primary input"));
        }
        // One forward walk from every driven input, stopping at
        // flip-flops, marks what the drives reach within a cycle.
        let declared: Vec<_> = self
            .devices
            .iter()
            .map(|a| (&a.reads, &a.drives))
            .chain([(&reads, &drives)])
            .collect();
        let mut reached = BitSet::new(netlist.num_nets());
        let mut stack: Vec<NetId> = declared.iter().flat_map(|d| d.1.concat()).collect();
        while let Some(net) = stack.pop() {
            if reached.insert(net.index()) {
                let readers = topo.fanout(net).iter().map(|&(cell, _)| cell);
                let comb = readers.filter(|&cell| !netlist.is_seq_cell(cell));
                stack.extend(comb.map(|cell| netlist.cell(cell).output()));
            }
        }
        let mut read_nets = declared.iter().flat_map(|d| d.0.concat());
        if let Some(net) = read_nets.find(|n| reached.contains(n.index())) {
            return Err(reject(
                Some(net),
                "read net is reachable from a driven input through combinational logic",
            ));
        }
        self.devices.push(Attached {
            device,
            reads,
            drives,
        });
        Ok(self)
    }

    /// Access to the underlying simulator (e.g. for fault injection).
    pub fn sim_mut(&mut self) -> &mut Simulator<'n> {
        &mut self.sim
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
        for attached in &mut self.devices {
            attached.device.on_cycle(&mut DevicePort {
                sim: &mut self.sim,
                reads: &attached.reads,
                drives: &attached.drives,
            });
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
    use mate_netlist::examples::{counter, figure1};
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

    impl Device for Freeze {
        fn name(&self) -> &'static str {
            "freeze"
        }

        fn reads(&self) -> Vec<Vec<NetId>> {
            vec![vec![self.q0]]
        }

        fn drives(&self) -> Vec<Vec<NetId>> {
            vec![vec![self.en]]
        }

        fn on_cycle(&mut self, port: &mut DevicePort<'_, '_>) {
            let v = port.read(0) != 0;
            self.log.borrow_mut().push(v);
            if v {
                port.write(0, 0);
            }
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
        tb.attach(Box::new(Freeze {
            en,
            q0,
            log: log.clone(),
        }))
        .unwrap();
        tb.run(6);
        // Counter increments in cycle 0 (q0 becomes 1 in cycle 1), then the
        // device freezes it; q0 stays 1 forever after.
        assert_eq!(
            log.borrow().as_slice(),
            &[false, true, true, true, true, true]
        );
    }

    /// A device that only declares buses.
    struct Declares {
        name: &'static str,
        reads: Vec<NetId>,
        drives: Vec<NetId>,
    }

    impl Device for Declares {
        fn name(&self) -> &str {
            self.name
        }

        fn reads(&self) -> Vec<Vec<NetId>> {
            vec![self.reads.clone()]
        }

        fn drives(&self) -> Vec<Vec<NetId>> {
            vec![self.drives.clone()]
        }

        fn on_cycle(&mut self, _: &mut DevicePort<'_, '_>) {}
    }

    /// Attaches a [`Declares`] device by net names and returns the
    /// `(device, net)` an error names.
    fn attach_error(
        tb: &mut Testbench<'_>,
        name: &'static str,
        reads: &[&str],
        drives: &[&str],
    ) -> Option<(String, Option<String>)> {
        let n = tb.sim_mut().netlist();
        let nets = |names: &[&str]| names.iter().map(|s| n.find_net(s).unwrap()).collect();
        let device = Declares {
            name,
            reads: nets(reads),
            drives: nets(drives),
        };
        match tb.attach(Box::new(device)) {
            Ok(_) => None,
            Err(MateError::Device { device, net, .. }) => Some((device, net)),
            Err(other) => panic!("untyped attach error: {other}"),
        }
    }

    #[test]
    fn attach_rejects_reads_of_non_outputs() {
        // `d0` is the counter's internal next-state net, not an output.
        let (n, topo) = counter(3);
        let mut tb = Testbench::new(&n, &topo);
        assert_eq!(
            attach_error(&mut tb, "snoop", &["d0"], &["en"]),
            Some(("snoop".into(), Some("d0".into())))
        );
        assert_eq!(
            attach_error(&mut tb, "forcer", &["q0"], &["q1"]),
            Some(("forcer".into(), Some("q1".into())))
        );
        assert_eq!(attach_error(&mut tb, "ok", &["q0", "q1"], &["en"]), None);
    }

    #[test]
    fn attach_rejects_combinational_paths_from_drives_to_reads() {
        // figure1: the output `k` = g & NAND(a, b) depends on `a` within
        // the cycle, while `h` does not.
        let (n, topo) = figure1();
        let mut tb = Testbench::new(&n, &topo);
        assert_eq!(
            attach_error(&mut tb, "loop", &["k"], &["a"]),
            Some(("loop".into(), Some("k".into())))
        );
        assert_eq!(attach_error(&mut tb, "reader", &["h"], &[]), None);
        // A later device's drive may not reach an earlier device's read.
        assert_eq!(
            attach_error(&mut tb, "writer", &[], &["e"]),
            Some(("writer".into(), Some("h".into())))
        );
        assert_eq!(attach_error(&mut tb, "writer", &[], &["a"]), None);
    }

    #[test]
    fn debug_formats() {
        let (n, topo) = counter(2);
        let tb = Testbench::new(&n, &topo);
        assert!(format!("{tb:?}").contains("counter"));
        assert!(format!("{:?}", InputWave::constant(false)).contains("InputWave"));
    }
}
