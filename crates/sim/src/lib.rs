//! Cycle-accurate gate-level simulation for synchronous netlists.
//!
//! The paper records value-change-dump (VCD) traces of fully synthesized
//! processors with a commercial netlist simulator; this crate provides the
//! equivalent substrate:
//!
//! * [`engine`] — a levelized two-valued simulator: evaluate the
//!   combinational cloud in topological order, then latch every flip-flop on
//!   the (implicit) rising clock edge.  Single-bit SEU injection flips a
//!   flip-flop's stored value between two cycles.
//! * [`trace`] — dense per-cycle wire traces ([`trace::WaveTrace`]), the
//!   in-memory analogue of a VCD file.
//! * [`vcd`] — VCD writer and reader, round-trip compatible.
//! * [`testbench`] — drives a netlist with per-cycle input waves and
//!   external devices (instruction/data memories) and records traces.  A
//!   device declares the buses it reads and drives, and attaching it checks
//!   that it reads only primary outputs, drives only primary inputs, and
//!   never reads what it drives within a cycle — the contract that lets
//!   campaigns replay every input from the golden trace.
//! * [`wide`] — a 64-lane bit-parallel engine over the compile-once
//!   [`mate_netlist::SoaNetlist`] arena: one `u64` word per net carries 64
//!   independent fault scenarios.  Campaigns on designs with few
//!   combinational cells run on it.
//! * [`transposed`] — column-major bit-plane traces
//!   ([`transposed::TransposedTrace`]): one packed word covers 64 cycles of
//!   one net, so trace analyses (MATE evaluation, coverage ranking) run
//!   word-parallel on the cycle axis.
//! * [`delta`] — an event-driven differential engine
//!   ([`delta::DeltaSimulator`]): lane words carry XOR-deltas against the
//!   golden trace and only the dirty fan-out frontier is re-evaluated each
//!   cycle, so campaign work scales with fault-cone activity instead of
//!   netlist size.  Campaigns on every larger design run on it.
//!
//! # Example
//!
//! ```
//! use mate_netlist::examples::counter;
//! use mate_sim::Simulator;
//!
//! let (n, topo) = counter(4);
//! let mut sim = Simulator::new(&n, &topo);
//! sim.set_input(n.find_net("en").unwrap(), true);
//! for _ in 0..5 {
//!     sim.tick();
//! }
//! // After 5 enabled cycles the counter holds 5 = 0b0101.
//! assert!(sim.value(n.find_net("q0").unwrap()));
//! assert!(!sim.value(n.find_net("q1").unwrap()));
//! assert!(sim.value(n.find_net("q2").unwrap()));
//! ```

pub mod delta;
pub mod engine;
pub mod testbench;
pub mod trace;
pub mod transposed;
pub mod vcd;
pub mod wide;

pub use delta::DeltaSimulator;
pub use engine::Simulator;
pub use mate_netlist::MateError;
pub use testbench::{Device, DevicePort, InputWave, Testbench};
pub use trace::WaveTrace;
pub use transposed::{CycleView, TransposedTrace};
pub use vcd::{read_vcd, write_vcd};
pub use wide::WideSimulator;
