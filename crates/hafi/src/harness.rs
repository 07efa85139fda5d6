//! Re-runnable design harnesses.
//!
//! Fault-injection campaigns run the same workload many times.  A
//! [`DesignHarness`] packages the netlist together with whatever stimuli and
//! external devices the workload needs, such that every call to
//! [`DesignHarness::testbench`] yields a *fresh, deterministic* run.

use mate_netlist::{MateError, NetId, Netlist, Topology};
use mate_sim::{InputWave, Testbench};

/// A deterministic, repeatable execution environment for a netlist.
pub trait DesignHarness {
    /// The netlist under test.
    fn netlist(&self) -> &Netlist;

    /// Its validated topology.
    fn topology(&self) -> &Topology;

    /// A fresh testbench; each call must produce an identical run.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Device`] when a device of the workload cannot
    /// be attached (see [`mate_sim::Device`]).
    fn testbench(&self) -> Result<Testbench<'_>, MateError>;
}

/// A harness driving primary inputs from fixed per-cycle vectors (no
/// external devices).  Sufficient for combinational designs, counters, and
/// the random circuits used in soundness proofs.
///
/// # Example
///
/// ```
/// use mate_hafi::{DesignHarness, StimulusHarness};
/// use mate_netlist::examples::counter;
///
/// let (n, topo) = counter(3);
/// let en = n.find_net("en").unwrap();
/// let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
/// let mut tb = harness.testbench()?;
/// tb.run(4);
/// # Ok::<(), mate_netlist::MateError>(())
/// ```
#[derive(Debug)]
pub struct StimulusHarness {
    netlist: Netlist,
    topo: Topology,
    stimuli: Vec<(NetId, Vec<bool>)>,
}

impl StimulusHarness {
    /// Wraps a netlist; undriven inputs stay at `false`.
    pub fn new(netlist: Netlist, topo: Topology) -> Self {
        Self {
            netlist,
            topo,
            stimuli: Vec::new(),
        }
    }

    /// Adds a per-cycle stimulus vector for one input (the last value is
    /// held when the run outlives the vector).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn drive(mut self, input: NetId, values: Vec<bool>) -> Self {
        assert!(!values.is_empty(), "stimulus must not be empty");
        self.stimuli.push((input, values));
        self
    }
}

impl DesignHarness for StimulusHarness {
    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn testbench(&self) -> Result<Testbench<'_>, MateError> {
        let mut tb = Testbench::new(&self.netlist, &self.topo);
        for (net, values) in &self.stimuli {
            tb.drive(*net, InputWave::from_vec(values.clone()));
        }
        Ok(tb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_netlist::examples::counter;

    #[test]
    fn repeated_testbenches_are_identical() {
        let (n, topo) = counter(4);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true, false, true]);
        let t1 = harness.testbench().unwrap().run(10);
        let t2 = harness.testbench().unwrap().run(10);
        assert_eq!(t1, t2);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_stimulus_rejected() {
        let (n, topo) = counter(2);
        let en = n.find_net("en").unwrap();
        let _ = StimulusHarness::new(n, topo).drive(en, vec![]);
    }
}
