//! The two paper workloads for the AVR core: `fib()` and `conv()`.
//!
//! Both exist in a halting flavor (for architectural verification) and a
//! free-running flavor (for recording fixed-length traces like the paper's
//! 8500-cycle runs).

use super::asm::Assembler;
use super::isa::Ptr;
use crate::Termination;

/// Number of Fibonacci iterations per pass.
pub const FIB_ITERATIONS: usize = 20;
/// Convolution input length.
pub const CONV_N: usize = 8;
/// Convolution kernel length.
pub const CONV_K: usize = 3;
/// Data-memory offset of the kernel `h`.
pub const CONV_H_BASE: u8 = 64;
/// Data-memory offset of the output `y`.
pub const CONV_Y_BASE: u8 = 128;

/// Builds the Fibonacci workload: 16-bit Fibonacci numbers computed with
/// `ADD`/`ADC`, low bytes stored to `dmem[0..]` and written to the port.
pub fn fib(termination: Termination) -> Vec<u16> {
    let mut a = Assembler::new();
    let start = a.new_label();
    a.bind(start);
    // a (r16:r17) = 1, b (r18:r19) = 1
    a.ldi(16, 1).ldi(17, 0).ldi(18, 1).ldi(19, 0);
    a.ldi(20, 0).mov(26, 20); // X = store pointer (LDI only reaches r16..r23)
    a.ldi(22, FIB_ITERATIONS as u8);
    let head = a.new_label();
    a.bind(head);
    a.st(Ptr::X, true, 16); // dmem[i] = a.lo
    a.out(16);
    a.mov(4, 16).mov(5, 17); // tmp = a
    a.add(16, 18).adc(17, 19); // a += b
    a.mov(18, 4).mov(19, 5); // b = tmp
    a.dec(22);
    a.brne(head);
    match termination {
        Termination::Halt => {
            a.halt();
        }
        Termination::Loop => {
            a.rjmp(start);
        }
    }
    a.assemble()
}

/// The port log a correct `fib` pass produces.
///
/// The register program emits `a` and then performs `(a, b) ← (a+b, a)`,
/// i.e. the sequence 1, 2, 3, 5, 8, 13, …
pub fn fib_expected_ports() -> Vec<u8> {
    let (mut a, mut b) = (1u16, 1u16);
    (0..FIB_ITERATIONS)
        .map(|_| {
            let r = a as u8;
            let next = a.wrapping_add(b);
            b = a;
            a = next;
            r
        })
        .collect()
}

/// Builds the convolution workload `y[n] = Σ_k x[n+k]·h[k]` (8-bit wrapping
/// arithmetic, software shift-add multiply).  Returns the program and the
/// initial data-memory image.
pub fn conv(termination: Termination) -> (Vec<u16>, Vec<u8>) {
    let mut a = Assembler::new();
    let start = a.new_label();
    a.bind(start);
    a.ldi(19, CONV_H_BASE); // kernel base constant
    a.ldi(20, CONV_Y_BASE).mov(30, 20); // Z = y
    a.ldi(21, 0); // n = 0
    let outer = a.new_label();
    a.bind(outer);
    a.mov(26, 21); // X = &x[n]
    a.mov(28, 19); // Y = &h[0]
    a.eor(16, 16); // acc = 0
    a.ldi(22, CONV_K as u8);
    let inner = a.new_label();
    a.bind(inner);
    a.ld(0, Ptr::X, true); // r0 = x[n+k]
    a.ld(1, Ptr::Y, true); // r1 = h[k]
                           // Inline shift-add multiply: r2 = r0 * r1 (low byte), clobbers r0/r1/r23.
    a.eor(2, 2);
    a.ldi(23, 8);
    let mloop = a.new_label();
    let skip = a.new_label();
    a.bind(mloop);
    a.lsr(1);
    a.brcc(skip);
    a.add(2, 0);
    a.bind(skip);
    a.lsl(0);
    a.dec(23);
    a.brne(mloop);
    a.add(16, 2); // acc += product
    a.dec(22);
    a.brne(inner);
    a.st(Ptr::Z, true, 16); // y[n] = acc
    a.out(16);
    a.inc(21);
    a.cpi(21, CONV_N as u8);
    a.brne(outer);
    match termination {
        Termination::Halt => {
            a.halt();
        }
        Termination::Loop => {
            a.rjmp(start);
        }
    }

    let mut dmem = vec![0u8; 256];
    for (i, x) in conv_input().iter().enumerate() {
        dmem[i] = *x;
    }
    for (i, h) in conv_kernel().iter().enumerate() {
        dmem[CONV_H_BASE as usize + i] = *h;
    }
    (a.assemble(), dmem)
}

/// The convolution input signal `x` (length `CONV_N + CONV_K`).
pub fn conv_input() -> Vec<u8> {
    (0..CONV_N + CONV_K).map(|i| (3 * i + 7) as u8).collect()
}

/// The convolution kernel `h`.
pub fn conv_kernel() -> Vec<u8> {
    vec![2, 5, 3]
}

/// The output `y` a correct `conv` pass produces (8-bit wrapping).
pub fn conv_expected() -> Vec<u8> {
    let x = conv_input();
    let h = conv_kernel();
    (0..CONV_N)
        .map(|n| {
            let mut acc = 0u8;
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
    use crate::avr::model::AvrModel;
    use crate::avr::system::AvrSystem;

    #[test]
    fn fib_model_produces_fibonacci_sequence() {
        let mut m = AvrModel::new(&fib(Termination::Halt));
        m.run(2000);
        assert!(m.halted);
        let expect = fib_expected_ports();
        assert_eq!(m.port_log, expect);
        assert_eq!(&m.dmem[..FIB_ITERATIONS], &expect[..]);
        assert_eq!(m.port_log[..8], [1, 2, 3, 5, 8, 13, 21, 34]);
    }

    #[test]
    fn conv_model_matches_reference() {
        let (program, dmem) = conv(Termination::Halt);
        let mut m = AvrModel::new(&program);
        m.load_dmem(&dmem);
        m.run(10_000);
        assert!(m.halted);
        let expect = conv_expected();
        assert_eq!(m.port_log, expect);
        assert_eq!(
            &m.dmem[CONV_Y_BASE as usize..CONV_Y_BASE as usize + CONV_N],
            &expect[..]
        );
    }

    #[test]
    fn fib_netlist_matches_model() {
        let program = fib(Termination::Halt);
        let mut model = AvrModel::new(&program);
        model.run(2000);
        let sys = AvrSystem::new();
        let run = sys.run(&program, &[], 2100).unwrap();
        assert!(run.halted);
        assert_eq!(run.port_log, model.port_log);
        assert_eq!(run.dmem, model.dmem);
        assert_eq!(run.regs[..], model.regs[..]);
    }

    #[test]
    fn conv_netlist_matches_model() {
        let (program, dmem) = conv(Termination::Halt);
        let mut model = AvrModel::new(&program);
        model.load_dmem(&dmem);
        model.run(10_000);
        let sys = AvrSystem::new();
        let run = sys.run(&program, &dmem, 4000).unwrap();
        assert!(run.halted, "conv must finish within 4000 cycles");
        assert_eq!(run.port_log, model.port_log);
        assert_eq!(run.dmem, model.dmem);
    }

    #[test]
    fn looping_variants_never_halt() {
        let sys = AvrSystem::new();
        let run = sys.run(&fib(Termination::Loop), &[], 1000).unwrap();
        assert!(!run.halted);
        // Multiple passes produce repeated sequences.
        assert!(run.port_log.len() > FIB_ITERATIONS);
    }
}
