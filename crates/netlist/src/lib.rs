//! Gate-level netlist infrastructure for fault-space pruning.
//!
//! This crate provides the substrate the DAC'18 *fault-masking term* (MATE)
//! analysis operates on:
//!
//! * [`logic`] — truth tables of up to six inputs, prime-implicant extraction
//!   (Quine–McCluskey), and *gate-masking cube* computation: the per-cell-type
//!   input assignments that stop a fault from propagating through a gate.
//! * [`cube`] — conjunctions of wire literals ([`cube::NetCube`]), the datatype
//!   MATEs are made of.
//! * [`library`] — a standard-cell library in the spirit of the 15nm Open Cell
//!   Library used by the paper (NAND/NOR/AOI/OAI/MUX/XOR/majority/DFF).
//! * [`netlist`] — the flat gate-level netlist: nets, cells, ports.
//! * [`graph`] — levelization, fan-out indices, and fault-cone extraction.
//! * [`lanes`] — the `u64` bit-lane helpers ([`WORD_LANES`],
//!   [`lanes::low_lanes`], [`lanes::for_each_lane`]) of the 64-lane
//!   bit-parallel engines.
//! * [`soa`] — the compile-once structure-of-arrays evaluation arena
//!   ([`soa::SoaNetlist`]): levelized per-cell-type runs over flat CSR pin
//!   arrays, the layout all hot kernels stream.
//! * [`verilog`] — structural-Verilog writer and reader for netlist exchange.
//! * [`random`] — seeded random synchronous circuits for property testing.
//! * [`examples`] — small hand-built circuits, including the example circuit
//!   from Figure 1 of the paper.
//!
//! # Example
//!
//! ```
//! use mate_netlist::prelude::*;
//!
//! let lib = Library::open15();
//! let mut n = Netlist::new("demo", lib);
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let y = n.add_cell("NAND2", "g0", &[a, b])?;
//! n.set_output(y);
//! let topo = n.validate()?;
//! assert_eq!(topo.comb_order().len(), 1);
//! # Ok::<(), mate_netlist::NetlistError>(())
//! ```

pub mod cube;
pub mod error;
pub mod examples;
pub mod graph;
pub mod json;
pub mod lanes;
pub mod library;
pub mod logic;
pub mod netlist;
pub mod random;
pub mod soa;
pub mod stats;
pub mod util;
pub mod verilog;
pub mod yosys;

mod ids;

pub use cube::NetCube;
pub use error::MateError;
pub use graph::{ConeEndpoint, ConeReaders, FaultCone, Topology};
pub use ids::{CellId, CellTypeId, NetId};
pub use lanes::WORD_LANES;
pub use library::{CellFn, CellType, Library};
pub use logic::{masking_cubes, PinCube, TruthTable};
pub use netlist::{Cell, Net, NetDriver, Netlist, NetlistError};
pub use soa::{ConeSupport, SoaNetlist, SoaReader, SoaRun};
pub use util::BitSet;
pub use yosys::{parse_yosys_json, parse_yosys_netlist, read_yosys_file, to_yosys_json};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::cube::NetCube;
    pub use crate::error::MateError;
    pub use crate::graph::{ConeEndpoint, ConeReaders, FaultCone, Topology};
    pub use crate::ids::{CellId, CellTypeId, NetId};
    pub use crate::lanes::WORD_LANES;
    pub use crate::library::{CellFn, CellType, Library};
    pub use crate::logic::{masking_cubes, PinCube, TruthTable};
    pub use crate::netlist::{Cell, Net, NetDriver, Netlist, NetlistError};
    pub use crate::soa::{SoaNetlist, SoaReader, SoaRun};
    pub use crate::util::BitSet;
}
