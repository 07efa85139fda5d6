//! Harnesses shared by the campaign tests: random circuits under
//! pseudo-random stimuli, and the two cores.  `mate-cores` depends on this
//! crate, so its `AvrWorkload` and `Msp430Workload` implement another build
//! of `DesignHarness`; the tests wrap the systems themselves.  The
//! integration tests include this file as `mod common` and the unit tests
//! of `src/campaign.rs` by path; not every includer uses every item.
#![allow(dead_code)]

use mate_cores::avr::system::AvrSystem;
use mate_cores::msp430::system::Msp430System;
use mate_hafi::{DesignHarness, StimulusHarness};
use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_netlist::{MateError, Netlist, Topology};
use mate_sim::Testbench;

/// A random circuit from `seed`, every input driven for `cycles` cycles by
/// deterministic pseudo-random values derived from the seed.
pub fn harness_for(seed: u64, cfg: RandomCircuitConfig, cycles: usize) -> StimulusHarness {
    let (netlist, topo) = random_circuit(cfg, seed);
    let inputs = netlist.inputs().to_vec();
    let mut harness = StimulusHarness::new(netlist, topo);
    for (i, input) in inputs.into_iter().enumerate() {
        let values: Vec<bool> = (0..cycles)
            .map(|c| {
                let x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64) << 32 | c as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x >> 37) & 1 == 1
            })
            .collect();
        harness = harness.drive(input, values);
    }
    harness
}

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
