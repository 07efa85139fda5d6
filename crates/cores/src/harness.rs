//! [`DesignHarness`] adapters: a core plus a fixed workload, re-runnable for
//! fault-injection campaigns.

use mate_hafi::DesignHarness;
use mate_netlist::{MateError, Netlist, Topology};
use mate_sim::Testbench;

use crate::avr::system::AvrSystem;
use crate::msp430::system::Msp430System;

/// An [`AvrSystem`] bound to one program and data image.
///
/// # Example
///
/// ```
/// use mate_cores::avr::programs;
/// use mate_cores::{AvrWorkload, Termination};
/// use mate_hafi::{golden_run, DesignHarness};
///
/// let workload = AvrWorkload::new(programs::fib(Termination::Loop), vec![]);
/// let golden = golden_run(&workload, 64)?;
/// assert_eq!(golden.trace.num_cycles(), 64);
/// # Ok::<(), mate_netlist::MateError>(())
/// ```
#[derive(Debug)]
pub struct AvrWorkload {
    sys: AvrSystem,
    program: Vec<u16>,
    dmem: Vec<u8>,
}

impl AvrWorkload {
    /// Elaborates the core and fixes the workload.
    pub fn new(program: Vec<u16>, dmem: Vec<u8>) -> Self {
        Self {
            sys: AvrSystem::new(),
            program,
            dmem,
        }
    }

    /// The underlying system.
    pub fn system(&self) -> &AvrSystem {
        &self.sys
    }
}

impl DesignHarness for AvrWorkload {
    fn netlist(&self) -> &Netlist {
        self.sys.netlist()
    }

    fn topology(&self) -> &Topology {
        self.sys.topology()
    }

    fn testbench(&self) -> Result<Testbench<'_>, MateError> {
        Ok(self.sys.testbench(&self.program, &self.dmem)?.0)
    }
}

/// A [`Msp430System`] bound to one memory image.
///
/// # Example
///
/// ```
/// use mate_cores::msp430::programs;
/// use mate_cores::{Msp430Workload, Termination};
/// use mate_hafi::{golden_run, DesignHarness};
///
/// let workload = Msp430Workload::new(programs::fib(Termination::Loop));
/// let golden = golden_run(&workload, 64)?;
/// assert_eq!(golden.trace.num_cycles(), 64);
/// # Ok::<(), mate_netlist::MateError>(())
/// ```
#[derive(Debug)]
pub struct Msp430Workload {
    sys: Msp430System,
    image: Vec<u16>,
}

impl Msp430Workload {
    /// Elaborates the core and fixes the memory image.
    pub fn new(image: Vec<u16>) -> Self {
        Self {
            sys: Msp430System::new(),
            image,
        }
    }

    /// The underlying system.
    pub fn system(&self) -> &Msp430System {
        &self.sys
    }
}

impl DesignHarness for Msp430Workload {
    fn netlist(&self) -> &Netlist {
        self.sys.netlist()
    }

    fn topology(&self) -> &Topology {
        self.sys.topology()
    }

    fn testbench(&self) -> Result<Testbench<'_>, MateError> {
        Ok(self.sys.testbench(&self.image)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avr::programs as avr_programs;
    use crate::msp430::programs as msp_programs;
    use crate::Termination;
    use mate_hafi::golden_run;

    #[test]
    fn avr_workload_runs_are_reproducible() {
        let w = AvrWorkload::new(avr_programs::fib(Termination::Loop), vec![]);
        let a = golden_run(&w, 50).unwrap();
        let b = golden_run(&w, 50).unwrap();
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn msp430_workload_runs_are_reproducible() {
        let w = Msp430Workload::new(msp_programs::conv(Termination::Loop));
        let a = golden_run(&w, 50).unwrap();
        let b = golden_run(&w, 50).unwrap();
        assert_eq!(a.trace, b.trace);
    }
}
