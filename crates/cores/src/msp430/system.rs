//! Simulation harness binding the unified memory to the MSP430 core.

use mate_netlist::{MateError, Netlist, Topology};
use mate_sim::{Testbench, WaveTrace};

use crate::memory::{Memory, SharedMemory};

use super::core::{build_msp430, Msp430Ports};
use super::isa::SrFlags;
use super::model::MEM_WORDS;

/// The result of running a program on the gate-level core.
#[derive(Clone, Debug)]
pub struct Msp430Run {
    /// The recorded wire-level trace.
    pub trace: WaveTrace,
    /// Final memory contents (word-addressed).
    pub mem: Vec<u16>,
    /// Final register values R0..R15.
    pub regs: [u16; 16],
    /// Final status flags.
    pub flags: SrFlags,
    /// Whether `CPUOFF` was reached.
    pub halted: bool,
    /// First cycle with `CPUOFF` high, if any.
    pub halt_cycle: Option<usize>,
}

/// An elaborated MSP430 core plus the machinery to run programs on it.
///
/// # Example
///
/// ```
/// use mate_cores::msp430::asm::Assembler;
/// use mate_cores::msp430::isa::{Dst, Src};
/// use mate_cores::msp430::system::Msp430System;
///
/// let sys = Msp430System::new();
/// let mut a = Assembler::new();
/// a.mov(Src::Imm(40), Dst::Reg(4));
/// a.add(Src::Imm(2), Dst::Reg(4));
/// a.halt();
/// let run = sys.run(&a.assemble(), 200)?;
/// assert!(run.halted);
/// assert_eq!(run.regs[4], 42);
/// # Ok::<(), mate_netlist::MateError>(())
/// ```
#[derive(Debug)]
pub struct Msp430System {
    netlist: Netlist,
    topo: Topology,
    ports: Msp430Ports,
}

impl Default for Msp430System {
    fn default() -> Self {
        Self::new()
    }
}

impl Msp430System {
    /// Elaborates the core.
    pub fn new() -> Self {
        let (netlist, topo, ports) = build_msp430();
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
    pub fn ports(&self) -> &Msp430Ports {
        &self.ports
    }

    /// Builds a testbench with the unified memory attached; returns the
    /// shared memory handle.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Device`] if the image exceeds the memory size.
    pub fn testbench(
        &self,
        image: &[u16],
    ) -> Result<(Testbench<'_>, SharedMemory<u16>), MateError> {
        let p = &self.ports;
        let write = Some((&p.mem_we, &p.mem_wdata));
        let mem = Memory::new(
            "msp430-mem",
            MEM_WORDS,
            image,
            &p.mem_addr,
            &p.mem_rdata,
            write,
        )?;
        let words = mem.words();
        let mut tb = Testbench::new(&self.netlist, &self.topo);
        tb.attach(Box::new(mem))?;
        Ok((tb, words))
    }

    /// Runs `image` for exactly `cycles` cycles and collects the results.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Device`] if the image exceeds the memory size.
    pub fn run(&self, image: &[u16], cycles: usize) -> Result<Msp430Run, MateError> {
        let (mut tb, mem) = self.testbench(image)?;
        let trace = tb.run(cycles);
        let words = mem.borrow().clone();
        Ok(self.collect(trace, &words))
    }

    /// Extracts architectural results from a recorded trace.
    pub fn collect(&self, trace: WaveTrace, mem: &[u16]) -> Msp430Run {
        let last = trace.num_cycles() - 1;
        let p = &self.ports;
        let mut regs = [0u16; 16];
        for (i, q) in p.regs.iter().enumerate() {
            regs[i] = trace.bus_value(last, q.nets()) as u16;
        }
        let flags = SrFlags::from_word(regs[2]);
        let halted_net = p.halted.bit(0);
        let halt_cycle = (0..trace.num_cycles()).find(|&c| trace.value(c, halted_net));
        Msp430Run {
            mem: mem.to_vec(),
            regs,
            flags,
            halted: halt_cycle.is_some(),
            halt_cycle,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msp430::asm::Assembler;
    use crate::msp430::isa::{Dst, Src};
    use crate::msp430::model::Msp430Model;

    fn cross_check(build: impl FnOnce(&mut Assembler), cycles: usize) {
        let mut a = Assembler::new();
        build(&mut a);
        let image = a.assemble();

        let mut model = Msp430Model::new(&image);
        model.run(cycles);
        assert!(model.halted(), "model must halt");

        let sys = Msp430System::new();
        let run = sys.run(&image, cycles * 8).unwrap();
        assert!(run.halted, "netlist must halt");
        assert_eq!(run.regs[..], model.regs[..], "registers diverge");
        assert_eq!(run.mem, model.mem, "memory diverges");
    }

    #[test]
    fn quickstart_doc_program() {
        let sys = Msp430System::new();
        let mut a = Assembler::new();
        a.mov(Src::Imm(40), Dst::Reg(4));
        a.add(Src::Imm(2), Dst::Reg(4));
        a.halt();
        let run = sys.run(&a.assemble(), 200).unwrap();
        assert!(run.halted);
        assert_eq!(run.regs[4], 42);
    }

    #[test]
    fn arithmetic_matches_model() {
        cross_check(
            |a| {
                a.mov(Src::Imm(0x7FFF), Dst::Reg(4));
                a.add(Src::Imm(1), Dst::Reg(4)); // overflow
                a.mov(Src::Imm(10), Dst::Reg(5));
                a.sub(Src::Imm(20), Dst::Reg(5)); // borrow
                a.addc(Src::Reg(4), Dst::Reg(5));
                a.subc(Src::Imm(1), Dst::Reg(4));
                a.cmp(Src::Reg(4), Dst::Reg(5));
                a.halt();
            },
            200,
        );
    }

    #[test]
    fn logic_and_format_two_match_model() {
        cross_check(
            |a| {
                a.mov(Src::Imm(0xA5C3), Dst::Reg(4));
                a.and(Src::Imm(0x0FF0), Dst::Reg(4));
                a.bis(Src::Imm(0x8001), Dst::Reg(4));
                a.bic(Src::Imm(0x0001), Dst::Reg(4));
                a.xor(Src::Imm(0xFFFF), Dst::Reg(4));
                a.bit(Src::Imm(0x8000), Dst::Reg(4));
                a.halt();
            },
            200,
        );
    }

    #[test]
    fn one_operand_ops_match_model() {
        cross_check(
            |a| {
                a.mov(Src::Imm(0x8005), Dst::Reg(4));
                a.rra(4);
                a.rrc(4);
                a.mov(Src::Imm(0x12FF), Dst::Reg(5));
                a.swpb(5);
                a.mov(Src::Imm(0x0080), Dst::Reg(6));
                a.sxt(6);
                a.halt();
            },
            200,
        );
    }

    #[test]
    fn memory_modes_match_model() {
        cross_check(
            |a| {
                a.mov(Src::Imm(0x300), Dst::Reg(4));
                a.mov(Src::Imm(0x1111), Dst::Indexed(4, 0));
                a.mov(Src::Imm(0x2222), Dst::Indexed(4, 1));
                a.mov(Src::Indirect(4), Dst::Reg(5));
                a.add(Src::AutoInc(4), Dst::Reg(5));
                a.add(Src::AutoInc(4), Dst::Reg(5));
                a.mov(Src::Imm(0x2FE), Dst::Reg(6));
                a.mov(Src::Indexed(6, 2), Dst::Reg(7));
                a.add(Src::Reg(5), Dst::Indexed(6, 3));
                a.halt();
            },
            400,
        );
    }

    #[test]
    fn loops_and_jumps_match_model() {
        cross_check(
            |a| {
                a.mov(Src::Imm(10), Dst::Reg(4));
                a.mov(Src::Imm(0), Dst::Reg(5));
                let head = a.new_label();
                a.bind(head);
                a.add(Src::Reg(4), Dst::Reg(5));
                a.sub(Src::Imm(1), Dst::Reg(4));
                a.jnz(head);
                // Signed comparisons.
                a.mov(Src::Imm(0xFFFE), Dst::Reg(6)); // -2
                a.cmp(Src::Imm(1), Dst::Reg(6));
                let neg = a.new_label();
                let done = a.new_label();
                a.jl(neg);
                a.mov(Src::Imm(111), Dst::Reg(7));
                a.jmp(done);
                a.bind(neg);
                a.mov(Src::Imm(222), Dst::Reg(7));
                a.bind(done);
                a.halt();
            },
            600,
        );
    }

    #[test]
    fn mov_to_pc_branches_on_netlist() {
        cross_check(
            |a| {
                a.mov(Src::Imm(5), Dst::Reg(0)); // words 0-1; jump to 5
                a.halt(); // words 2-3
                a.nop(); // word 4
                         // word 5:
                a.mov(Src::Imm(0xCAFE), Dst::Reg(10)); // words 5-6
                a.halt();
            },
            200,
        );
    }

    #[test]
    fn halt_parks_fsm_in_fetch() {
        let sys = Msp430System::new();
        let mut a = Assembler::new();
        a.halt();
        let run = sys.run(&a.assemble(), 60).unwrap();
        assert!(run.halted);
        let halt_at = run.halt_cycle.unwrap();
        let state_nets = sys.ports().state.nets();
        for c in halt_at + 2..run.trace.num_cycles() {
            assert_eq!(
                run.trace.bus_value(c, state_nets),
                super::super::core::state::FETCH,
                "cycle {c}"
            );
        }
        // PC frozen.
        let pc = sys.ports().regs[0].nets();
        assert_eq!(
            run.trace.bus_value(halt_at + 1, pc),
            run.trace.bus_value(run.trace.num_cycles() - 1, pc)
        );
    }
}
