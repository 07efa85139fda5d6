//! Randomized program equivalence: the gate-level cores must agree with
//! their ISA reference interpreters on arbitrary (terminating) programs,
//! not just the hand-written workloads.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mate_cores::avr::{isa as avr_isa, model::AvrModel, system::AvrSystem};
use mate_cores::msp430::{isa as msp_isa, model::Msp430Model, system::Msp430System};

// ----------------------------------------------------------------------
// AVR
// ----------------------------------------------------------------------

/// Generates a terminating AVR program: straight-line random instructions
/// with only short *forward* branches, ending in `HALT`.
fn random_avr_program(seed: u64, len: usize) -> Vec<u16> {
    use avr_isa::{Cond, Instr, Ptr};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prog = Vec::with_capacity(len + 1);
    let conds = [
        Cond::Eq,
        Cond::Ne,
        Cond::Cs,
        Cond::Cc,
        Cond::Mi,
        Cond::Pl,
        Cond::Lt,
        Cond::Ge,
    ];
    let ptrs = [Ptr::X, Ptr::Y, Ptr::Z];
    for _ in 0..len {
        let rd = rng.gen_range(0..32u8);
        let rr = rng.gen_range(0..32u8);
        let rdi = rng.gen_range(16..24u8);
        let imm = rng.gen::<u8>();
        let instr = match rng.gen_range(0..22u8) {
            0 => Instr::Ldi { rd: rdi, imm },
            1 => Instr::Mov { rd, rr },
            2 => Instr::Add { rd, rr },
            3 => Instr::Adc { rd, rr },
            4 => Instr::Sub { rd, rr },
            5 => Instr::Sbc { rd, rr },
            6 => Instr::And { rd, rr },
            7 => Instr::Or { rd, rr },
            8 => Instr::Eor { rd, rr },
            9 => Instr::Cp { rd, rr },
            10 => Instr::Cpi { rd: rdi, imm },
            11 => Instr::Subi { rd: rdi, imm },
            12 => Instr::Andi { rd: rdi, imm },
            13 => Instr::Ori { rd: rdi, imm },
            14 => Instr::Inc { rd },
            15 => Instr::Dec { rd },
            16 => Instr::Lsr { rd },
            17 => Instr::Ror { rd },
            18 => Instr::Asr { rd },
            19 => Instr::Ld {
                rd,
                ptr: ptrs[rng.gen_range(0..3)],
                postinc: rng.gen(),
            },
            20 => Instr::St {
                ptr: ptrs[rng.gen_range(0..3)],
                postinc: rng.gen(),
                rr,
            },
            _ => Instr::Br {
                cond: conds[rng.gen_range(0..8)],
                offset: rng.gen_range(1..4i8), // forward only: terminates
            },
        };
        prog.push(instr.encode());
    }
    // Branch landing pads + halt.
    prog.push(Instr::Nop.encode());
    prog.push(Instr::Nop.encode());
    prog.push(Instr::Nop.encode());
    prog.push(Instr::Halt.encode());
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn avr_netlist_matches_model_on_random_programs(seed in 0u64..100_000) {
        let program = random_avr_program(seed, 60);
        let mut dmem = vec![0u8; 64];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
        rng.fill(dmem.as_mut_slice());

        let mut model = AvrModel::new(&program);
        model.load_dmem(&dmem);
        let steps = model.run(400);
        prop_assert!(model.halted, "model must halt within {steps} steps");

        let sys = AvrSystem::new();
        // The pipeline needs at most 2 cycles per instruction (branch
        // bubbles) plus the fill cycle.
        let run = sys.run(&program, &dmem, 2 * steps + 8).unwrap();
        prop_assert!(run.halted, "netlist must halt");
        prop_assert_eq!(&run.regs[..], &model.regs[..], "registers diverge (seed {})", seed);
        prop_assert_eq!(&run.dmem, &model.dmem, "memory diverges (seed {})", seed);
        prop_assert_eq!(run.flags, model.flags, "flags diverge (seed {})", seed);
        prop_assert_eq!(&run.port_log, &model.port_log, "ports diverge (seed {})", seed);
    }
}

// ----------------------------------------------------------------------
// MSP430
// ----------------------------------------------------------------------

/// Generates a terminating MSP430 program: random format-I/II instructions
/// over registers and a scratch memory window, forward jumps only, ending
/// in `HALT` (BIS #CPUOFF, SR).
fn random_msp_program(seed: u64, len: usize) -> Vec<u16> {
    use mate_cores::msp430::asm::Assembler;
    use msp_isa::{Dst, JumpCond, Op1, Op2, Src};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut asm = Assembler::new();

    // Initialize the pointer registers into the scratch window so memory
    // operands stay away from the code.
    for (i, reg) in (12..16u8).enumerate() {
        asm.mov(Src::Imm(0x300 + 0x10 * i as u16), Dst::Reg(reg));
    }

    let ops2 = [
        Op2::Mov,
        Op2::Add,
        Op2::Addc,
        Op2::Sub,
        Op2::Subc,
        Op2::Cmp,
        Op2::Bit,
        Op2::Bic,
        Op2::Bis,
        Op2::Xor,
        Op2::And,
    ];
    let ops1 = [Op1::Rrc, Op1::Rra, Op1::Swpb, Op1::Sxt];
    let conds = [
        JumpCond::Jne,
        JumpCond::Jeq,
        JumpCond::Jnc,
        JumpCond::Jc,
        JumpCond::Jn,
        JumpCond::Jge,
        JumpCond::Jl,
    ];
    // General-purpose destinations exclude PC (R0) and SR (R2) so the
    // program neither jumps wildly nor halts early, and the pointer
    // registers R12..R15 so memory operands stay inside the scratch window
    // (auto-increment drift of ≤ one word per instruction is fine).
    let dst_regs = [1u8, 3, 4, 5, 6, 7, 8, 9, 10, 11];
    let ptr_regs = [12u8, 13, 14, 15];

    let mut pending: Vec<mate_cores::msp430::asm::Label> = Vec::new();
    for i in 0..len {
        // Bind a previously created forward-jump label every other step.
        if !pending.is_empty() && rng.gen_bool(0.6) {
            let label = pending.remove(0);
            asm.bind(label);
        }
        let src = match rng.gen_range(0..5u8) {
            0 => Src::Reg(dst_regs[rng.gen_range(0..dst_regs.len())]),
            1 => Src::Imm(rng.gen()),
            2 => Src::Indirect(ptr_regs[rng.gen_range(0..4)]),
            3 => Src::AutoInc(ptr_regs[rng.gen_range(0..4)]),
            _ => Src::Indexed(ptr_regs[rng.gen_range(0..4)], rng.gen_range(0..8)),
        };
        let dst = if rng.gen_bool(0.7) {
            Dst::Reg(dst_regs[rng.gen_range(0..dst_regs.len())])
        } else {
            Dst::Indexed(ptr_regs[rng.gen_range(0..4)], rng.gen_range(0..8))
        };
        match rng.gen_range(0..10u8) {
            0..=6 => {
                let op = ops2[rng.gen_range(0..ops2.len())];
                asm.emit(msp_isa::Instr::Two { op, src, dst });
            }
            7 | 8 => {
                let op = ops1[rng.gen_range(0..ops1.len())];
                asm.emit(msp_isa::Instr::One {
                    op,
                    reg: dst_regs[rng.gen_range(0..dst_regs.len())],
                });
            }
            _ => {
                if i + 2 < len {
                    let label = asm.new_label();
                    asm.jump(conds[rng.gen_range(0..conds.len())], label);
                    pending.push(label);
                }
            }
        }
    }
    for label in pending {
        asm.bind(label);
    }
    asm.halt();
    asm.assemble()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn msp430_netlist_matches_model_on_random_programs(seed in 0u64..100_000) {
        let image = random_msp_program(seed, 40);

        let mut model = Msp430Model::new(&image);
        let steps = model.run(2_000);
        prop_assert!(model.halted(), "model must halt within {steps} steps");

        let sys = Msp430System::new();
        // Worst case 7 cycles per instruction.
        let run = sys.run(&image, 8 * steps + 16).unwrap();
        prop_assert!(run.halted, "netlist must halt");
        prop_assert_eq!(&run.regs[..], &model.regs[..], "registers diverge (seed {})", seed);
        prop_assert_eq!(&run.mem, &model.mem, "memory diverges (seed {})", seed);
    }
}
