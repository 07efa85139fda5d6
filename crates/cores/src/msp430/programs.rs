//! The two paper workloads for the MSP430 core: `fib()` and `conv()`.

use super::asm::Assembler;
use super::isa::{Dst, Src};
use crate::Termination;

/// Number of Fibonacci iterations per pass.
pub const FIB_ITERATIONS: u16 = 20;
/// Word address of the Fibonacci result array.
pub const FIB_BASE: u16 = 0x300;
/// Convolution input length.
pub const CONV_N: u16 = 8;
/// Convolution kernel length.
pub const CONV_K: u16 = 3;
/// Word address of the convolution input `x`.
pub const CONV_X_BASE: u16 = 0x300;
/// Word address of the kernel `h`.
pub const CONV_H_BASE: u16 = 0x340;
/// Word address of the output `y`.
pub const CONV_Y_BASE: u16 = 0x380;

/// Builds the Fibonacci workload: 16-bit Fibonacci numbers stored to
/// `mem[FIB_BASE..]`.
///
/// Register use: R4 = a, R5 = b, R6 = store pointer, R7 = loop counter.
pub fn fib(termination: Termination) -> Vec<u16> {
    let mut a = Assembler::new();
    let start = a.new_label();
    a.bind(start);
    a.mov(Src::Imm(1), Dst::Reg(4));
    a.mov(Src::Imm(1), Dst::Reg(5));
    a.mov(Src::Imm(FIB_BASE), Dst::Reg(6));
    a.mov(Src::Imm(FIB_ITERATIONS), Dst::Reg(7));
    let head = a.new_label();
    a.bind(head);
    a.mov(Src::Reg(4), Dst::Indexed(6, 0)); // mem[R6] = a
    a.add(Src::Imm(1), Dst::Reg(6));
    a.mov(Src::Reg(4), Dst::Reg(8)); // tmp = a
    a.add(Src::Reg(5), Dst::Reg(4)); // a += b
    a.mov(Src::Reg(8), Dst::Reg(5)); // b = tmp
    a.sub(Src::Imm(1), Dst::Reg(7));
    a.jnz(head);
    match termination {
        Termination::Halt => {
            a.halt();
        }
        Termination::Loop => {
            a.jmp(start);
        }
    }
    a.assemble()
}

/// The memory contents a correct `fib` pass leaves at `FIB_BASE..`.
pub fn fib_expected() -> Vec<u16> {
    let (mut a, mut b) = (1u16, 1u16);
    (0..FIB_ITERATIONS)
        .map(|_| {
            let r = a;
            let next = a.wrapping_add(b);
            b = a;
            a = next;
            r
        })
        .collect()
}

/// Builds the convolution workload `y[n] = Σ_k x[n+k]·h[k]` with a software
/// shift-add multiply (16-bit wrapping arithmetic).  Returns the memory
/// image (program + data).
///
/// Register use: R4 = n, R5 = k, R6 = acc, R7/R8 = multiply operands,
/// R9 = product, R10 = bit counter, R11 = x pointer, R12 = h pointer.
pub fn conv(termination: Termination) -> Vec<u16> {
    let mut a = Assembler::new();
    let start = a.new_label();
    a.bind(start);
    a.mov(Src::Imm(0), Dst::Reg(4)); // n = 0
    let outer = a.new_label();
    a.bind(outer);
    a.mov(Src::Imm(0), Dst::Reg(6)); // acc = 0
    a.mov(Src::Imm(CONV_X_BASE), Dst::Reg(11));
    a.add(Src::Reg(4), Dst::Reg(11)); // R11 = &x[n]
    a.mov(Src::Imm(CONV_H_BASE), Dst::Reg(12)); // R12 = &h[0]
    a.mov(Src::Imm(CONV_K), Dst::Reg(5)); // k = K
    let inner = a.new_label();
    a.bind(inner);
    a.mov(Src::AutoInc(11), Dst::Reg(7)); // R7 = x[n+k]
    a.mov(Src::AutoInc(12), Dst::Reg(8)); // R8 = h[k]
                                          // R9 = R7 * R8 (shift-add, 16 rounds).
    a.mov(Src::Imm(0), Dst::Reg(9));
    a.mov(Src::Imm(16), Dst::Reg(10));
    let mloop = a.new_label();
    let skip = a.new_label();
    a.bind(mloop);
    a.rra(8); // LSB of R8 into C (RRA keeps sign; fine for the bit test)
    let no_add = a.new_label();
    a.jnc(no_add);
    a.add(Src::Reg(7), Dst::Reg(9));
    a.bind(no_add);
    a.add(Src::Reg(7), Dst::Reg(7)); // R7 <<= 1
    a.sub(Src::Imm(1), Dst::Reg(10));
    a.jnz(mloop);
    a.bind(skip);
    a.add(Src::Reg(9), Dst::Reg(6)); // acc += product
    a.sub(Src::Imm(1), Dst::Reg(5));
    a.jnz(inner);
    // y[n] = acc
    a.mov(Src::Imm(CONV_Y_BASE), Dst::Reg(13));
    a.add(Src::Reg(4), Dst::Reg(13));
    a.mov(Src::Reg(6), Dst::Indexed(13, 0));
    a.add(Src::Imm(1), Dst::Reg(4));
    a.cmp(Src::Imm(CONV_N), Dst::Reg(4));
    a.jnz(outer);
    match termination {
        Termination::Halt => {
            a.halt();
        }
        Termination::Loop => {
            a.jmp(start);
        }
    }

    let mut image = a.assemble();
    assert!(image.len() < CONV_X_BASE as usize, "program overlaps data");
    image.resize(CONV_Y_BASE as usize, 0);
    for (i, x) in conv_input().iter().enumerate() {
        image[CONV_X_BASE as usize + i] = *x;
    }
    for (i, h) in conv_kernel().iter().enumerate() {
        image[CONV_H_BASE as usize + i] = *h;
    }
    image
}

/// The convolution input signal `x` (length `CONV_N + CONV_K`).
pub fn conv_input() -> Vec<u16> {
    (0..CONV_N + CONV_K).map(|i| 5 * i + 11).collect()
}

/// The convolution kernel `h`.
pub fn conv_kernel() -> Vec<u16> {
    vec![3, 7, 2]
}

/// The output `y` a correct `conv` pass produces (16-bit wrapping).
pub fn conv_expected() -> Vec<u16> {
    let x = conv_input();
    let h = conv_kernel();
    (0..CONV_N as usize)
        .map(|n| {
            let mut acc = 0u16;
            for (k, &hk) in h.iter().enumerate() {
                acc = acc.wrapping_add(x[n + k].wrapping_mul(hk));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msp430::model::Msp430Model;
    use crate::msp430::system::Msp430System;

    #[test]
    fn fib_model_produces_fibonacci() {
        let mut m = Msp430Model::new(&fib(Termination::Halt));
        m.run(10_000);
        assert!(m.halted());
        let expect = fib_expected();
        let base = FIB_BASE as usize;
        assert_eq!(&m.mem[base..base + expect.len()], &expect[..]);
        assert_eq!(expect[..6], [1, 2, 3, 5, 8, 13]);
    }

    #[test]
    fn conv_model_matches_reference() {
        let mut m = Msp430Model::new(&conv(Termination::Halt));
        m.run(100_000);
        assert!(m.halted());
        let expect = conv_expected();
        let base = CONV_Y_BASE as usize;
        assert_eq!(&m.mem[base..base + expect.len()], &expect[..]);
    }

    #[test]
    fn fib_netlist_matches_model() {
        let image = fib(Termination::Halt);
        let mut model = Msp430Model::new(&image);
        model.run(10_000);
        let sys = Msp430System::new();
        let run = sys.run(&image, 4000).unwrap();
        assert!(run.halted);
        assert_eq!(run.mem, model.mem);
        assert_eq!(run.regs[..], model.regs[..]);
    }

    #[test]
    fn conv_netlist_matches_model() {
        let image = conv(Termination::Halt);
        let mut model = Msp430Model::new(&image);
        model.run(100_000);
        let sys = Msp430System::new();
        let run = sys.run(&image, 40_000).unwrap();
        assert!(run.halted, "conv must finish");
        assert_eq!(run.mem, model.mem);
    }

    #[test]
    fn looping_variant_never_halts() {
        let sys = Msp430System::new();
        let run = sys.run(&fib(Termination::Loop), 3000).unwrap();
        assert!(!run.halted);
    }
}
