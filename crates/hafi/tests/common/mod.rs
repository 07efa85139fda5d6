//! Core harnesses shared by the integration tests.  `mate-cores` depends on
//! this crate, so its `AvrWorkload` and `Msp430Workload` implement another
//! build of `DesignHarness`; the tests wrap the systems themselves.

use mate_cores::avr::system::AvrSystem;
use mate_cores::msp430::system::Msp430System;
use mate_hafi::DesignHarness;
use mate_netlist::{MateError, Netlist, Topology};
use mate_sim::Testbench;

/// The AVR core running `program` with `dmem` preloaded.
pub struct AvrHarness {
    pub sys: AvrSystem,
    pub program: Vec<u16>,
    pub dmem: Vec<u8>,
}

impl DesignHarness for AvrHarness {
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

/// The MSP430 core running `image`.
pub struct MspHarness {
    pub sys: Msp430System,
    pub image: Vec<u16>,
}

impl DesignHarness for MspHarness {
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
