//! Gate-level CPU cores for the MATE evaluation.
//!
//! The paper evaluates fault-space pruning on two real-world processor
//! designs: an 8-bit AVR/Atmel-compatible two-stage-pipeline RISC core and a
//! 16-bit multi-cycle MSP430-compatible core.  This crate provides
//! from-scratch equivalents built with [`mate_rtl`]:
//!
//! * [`avr`] — `Avr8`: 32×8-bit register file, 12-bit PC, 5-flag SREG,
//!   two-stage fetch/execute pipeline with branch flushing, Harvard buses.
//! * [`msp430`] — `Msp430`: 16×16-bit register file (R0 = PC, R2 = SR),
//!   7-state multi-cycle FSM, von-Neumann bus, MSP430 format-I/II/jump
//!   instruction encodings with register/indexed/indirect/autoincrement/
//!   immediate addressing.
//!
//! Each core ships with
//!
//! * an instruction encoder/decoder (`isa`),
//! * a programmatic two-pass assembler (`asm`),
//! * an ISA-level reference interpreter (`model`) used to cross-check the
//!   gate-level implementation,
//! * a simulation harness (`system`) binding instruction/data memories (one
//!   shared memory device) to the netlist ports, and
//! * the two paper workloads `fib()` and `conv()` (`programs`).

pub mod avr;
pub mod harness;
mod memory;
pub mod msp430;

pub use avr::system::AvrSystem;
pub use harness::{AvrWorkload, Msp430Workload};
pub use memory::SharedMemory;
pub use msp430::system::Msp430System;

/// How a generated workload ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Termination {
    /// Execute `HALT` (or set the MSP430 `CPUOFF` bit) when done — used for
    /// architectural verification against the ISA models.
    Halt,
    /// Jump back to the start and recompute forever — used to record
    /// fixed-length traces like the paper's 8500-cycle runs.
    Loop,
}
