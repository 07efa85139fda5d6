//! Simulation harness binding instruction/data memories to the AVR core.

use mate_netlist::{MateError, Netlist, Topology};
use mate_sim::{Testbench, WaveTrace};

use crate::memory::{Memory, SharedMemory};

use super::core::{build_avr, AvrPorts};
use super::isa::Flags;

/// Size of the data memory in bytes.
pub const DMEM_SIZE: usize = 256;
/// Size of the instruction memory in 16-bit words.
pub const IMEM_SIZE: usize = 4096;

/// The result of running a program on the gate-level core.
#[derive(Clone, Debug)]
pub struct AvrRun {
    /// The recorded wire-level trace (one entry per cycle).
    pub trace: WaveTrace,
    /// Final data-memory contents.
    pub dmem: Vec<u8>,
    /// Final register values `r0..r31`.
    pub regs: [u8; 32],
    /// Final status flags.
    pub flags: Flags,
    /// Whether the core reached `HALT` within the run.
    pub halted: bool,
    /// First cycle in which `halted` was observed high, if any.
    pub halt_cycle: Option<usize>,
    /// Every port write (value of the `OUT` operand), in order.
    pub port_log: Vec<u8>,
}

/// An elaborated AVR core plus the machinery to run programs on it.
///
/// # Example
///
/// ```
/// use mate_cores::avr::{asm::Assembler, system::AvrSystem};
///
/// let sys = AvrSystem::new();
/// let mut a = Assembler::new();
/// a.ldi(16, 21).add(16, 16).out(16).halt();
/// let run = sys.run(&a.assemble(), &[], 50)?;
/// assert!(run.halted);
/// assert_eq!(run.port_log, vec![42]);
/// # Ok::<(), mate_netlist::MateError>(())
/// ```
#[derive(Debug)]
pub struct AvrSystem {
    netlist: Netlist,
    topo: Topology,
    ports: AvrPorts,
}

impl Default for AvrSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl AvrSystem {
    /// Elaborates the core.
    pub fn new() -> Self {
        let (netlist, topo, ports) = build_avr();
        Self {
            netlist,
            topo,
            ports,
        }
    }

    /// The gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The validated topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The architectural bus handles.
    pub fn ports(&self) -> &AvrPorts {
        &self.ports
    }

    /// Builds a testbench with instruction and data memories attached.
    ///
    /// Returns the testbench plus a shared handle on the data memory (the
    /// memory outlives the run so campaigns can diff final contents).
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Device`] if the program or data image exceed
    /// the memory sizes.
    pub fn testbench(
        &self,
        program: &[u16],
        dmem_init: &[u8],
    ) -> Result<(Testbench<'_>, SharedMemory<u8>), MateError> {
        let p = &self.ports;
        let rom = Memory::new(
            "avr-imem",
            IMEM_SIZE,
            program,
            &p.imem_addr,
            &p.imem_data,
            None,
        )?;
        let write = Some((&p.dmem_we, &p.dmem_wdata));
        let ram = Memory::new(
            "avr-dmem",
            DMEM_SIZE,
            dmem_init,
            &p.dmem_addr,
            &p.dmem_rdata,
            write,
        )?;
        let dmem = ram.words();
        let mut tb = Testbench::new(&self.netlist, &self.topo);
        tb.attach(Box::new(rom))?.attach(Box::new(ram))?;
        Ok((tb, dmem))
    }

    /// Runs `program` for exactly `cycles` cycles and collects the results.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Device`] if the program or data image exceed
    /// the memory sizes.
    pub fn run(
        &self,
        program: &[u16],
        dmem_init: &[u8],
        cycles: usize,
    ) -> Result<AvrRun, MateError> {
        let (mut tb, ram) = self.testbench(program, dmem_init)?;
        let trace = tb.run(cycles);
        let dmem = ram.borrow().clone();
        Ok(self.collect(trace, &dmem))
    }

    /// Extracts architectural results from a recorded trace.
    pub fn collect(&self, trace: WaveTrace, dmem: &[u8]) -> AvrRun {
        let last = trace.num_cycles() - 1;
        let p = &self.ports;
        let mut regs = [0u8; 32];
        for (i, q) in p.regs.iter().enumerate() {
            regs[i] = trace.bus_value(last, q.nets()) as u8;
        }
        let flags = Flags::from_bits(trace.bus_value(last, p.sreg.nets()) as u8);
        let halted_net = p.halted.bit(0);
        let halt_cycle = (0..trace.num_cycles()).find(|&c| trace.value(c, halted_net));
        let port_we = p.port_we.bit(0);
        let port_log: Vec<u8> = (0..trace.num_cycles())
            .filter(|&c| trace.value(c, port_we))
            .map(|c| trace.bus_value(c, p.dmem_wdata.nets()) as u8)
            .collect();
        AvrRun {
            dmem: dmem.to_vec(),
            regs,
            flags,
            halted: halt_cycle.is_some(),
            halt_cycle,
            port_log,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avr::asm::Assembler;
    use crate::avr::isa::Ptr;
    use crate::avr::model::AvrModel;

    fn cross_check(build: impl FnOnce(&mut Assembler), dmem: &[u8], cycles: usize) {
        let mut a = Assembler::new();
        build(&mut a);
        let program = a.assemble();

        let mut model = AvrModel::new(&program);
        model.load_dmem(dmem);
        model.run(cycles);
        assert!(model.halted, "model must halt within {cycles} steps");

        let sys = AvrSystem::new();
        let run = sys.run(&program, dmem, cycles + 4).unwrap();
        assert!(run.halted, "netlist must halt");
        assert_eq!(run.regs[..], model.regs[..], "registers diverge");
        assert_eq!(run.dmem, model.dmem, "memory diverges");
        assert_eq!(run.port_log, model.port_log, "port log diverges");
        assert_eq!(run.flags, model.flags, "flags diverge");
    }

    #[test]
    fn quickstart_doc_program() {
        let sys = AvrSystem::new();
        let mut a = Assembler::new();
        a.ldi(16, 21).add(16, 16).out(16).halt();
        let run = sys.run(&a.assemble(), &[], 50).unwrap();
        assert!(run.halted);
        assert_eq!(run.port_log, vec![42]);
        assert_eq!(run.regs[16], 42);
    }

    #[test]
    fn arithmetic_and_flags_match_model() {
        cross_check(
            |a| {
                a.ldi(16, 0xFF).ldi(17, 0x01).ldi(18, 0x7F);
                a.add(16, 17); // carry
                a.adc(18, 17); // 0x7F + 1 + 1 = 0x81, overflow
                a.sub(18, 17);
                a.sbc(16, 18);
                a.inc(17).dec(17).dec(17);
                a.halt();
            },
            &[],
            100,
        );
    }

    #[test]
    fn logic_and_shift_match_model() {
        cross_check(
            |a| {
                a.ldi(16, 0b1010_1100).ldi(17, 0b0110_0101);
                a.and(16, 17);
                a.or(16, 17);
                a.eor(16, 17);
                a.ldi(18, 0b1000_0101);
                a.lsr(18).ror(18).asr(18);
                a.andi(16, 0x0F).ori(16, 0xA0);
                a.halt();
            },
            &[],
            100,
        );
    }

    #[test]
    fn branches_match_model() {
        cross_check(
            |a| {
                // Count down from 7, accumulate into r20.
                a.ldi(16, 7).ldi(20, 0);
                let head = a.new_label();
                a.bind(head);
                a.add(20, 16);
                a.dec(16);
                a.brne(head);
                // Signed comparison branch.
                a.ldi(21, 0xF0); // -16
                a.ldi(22, 0x05);
                let less = a.new_label();
                let done = a.new_label();
                a.cp(21, 22);
                a.brlt(less);
                a.ldi(23, 1);
                a.rjmp(done);
                a.bind(less);
                a.ldi(23, 2);
                a.bind(done);
                a.out(20);
                a.halt();
            },
            &[],
            200,
        );
    }

    #[test]
    fn memory_traffic_matches_model() {
        cross_check(
            |a| {
                // Sum dmem[0..8] into r16 via X+, store at dmem[32] via Y.
                a.ldi(20, 0).mov(26, 20);
                a.ldi(16, 0).ldi(17, 8);
                let head = a.new_label();
                a.bind(head);
                a.ld(0, Ptr::X, true);
                a.add(16, 0);
                a.dec(17);
                a.brne(head);
                a.ldi(20, 32).mov(28, 20);
                a.st(Ptr::Y, false, 16);
                // Z pointer store with post-increment.
                a.ldi(20, 40).mov(30, 20);
                a.st(Ptr::Z, true, 16);
                a.st(Ptr::Z, false, 17);
                a.out(16);
                a.halt();
            },
            &[1, 2, 3, 4, 5, 6, 7, 8],
            300,
        );
    }

    #[test]
    fn ld_postinc_into_pointer_register_prefers_increment() {
        // LD r26, X+ : both the load and the post-increment target r26; the
        // hardware lets the increment win. The model does the same.
        cross_check(
            |a| {
                a.ldi(16, 5).mov(26, 16);
                a.ld(26, Ptr::X, true);
                a.halt();
            },
            &[9, 9, 9, 9, 9, 7],
            50,
        );
    }

    #[test]
    fn branch_flush_squashes_wrong_path() {
        // The instruction after a taken branch must not execute.
        cross_check(
            |a| {
                a.ldi(16, 1);
                let target = a.new_label();
                a.cpi(16, 1);
                a.breq(target);
                a.ldi(17, 0xEE); // must be squashed
                a.bind(target);
                a.halt();
            },
            &[],
            50,
        );
    }

    #[test]
    fn halt_freezes_everything() {
        let sys = AvrSystem::new();
        let mut a = Assembler::new();
        a.ldi(16, 3).halt().ldi(16, 99);
        let run = sys.run(&a.assemble(), &[], 40).unwrap();
        assert!(run.halted);
        assert_eq!(run.regs[16], 3, "post-HALT instruction must not run");
        let halt_at = run.halt_cycle.unwrap();
        // PC frozen after halt.
        let pc_then = run.trace.bus_value(halt_at, sys.ports().pc.nets());
        let pc_end = run
            .trace
            .bus_value(run.trace.num_cycles() - 1, sys.ports().pc.nets());
        assert_eq!(pc_then, pc_end);
    }
}
