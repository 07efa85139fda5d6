//! Hardware-assisted fault injection (HAFI), emulated in software.
//!
//! The paper integrates MATEs into FPGA-based fault-injection platforms;
//! this crate provides the functional equivalent of such a platform plus the
//! ground-truth machinery that *proves* the MATE analysis sound:
//!
//! * [`harness`] — the [`harness::DesignHarness`] abstraction: anything that
//!   can repeatedly re-run a design deterministically (stimuli, memories).
//! * [`space`] — the `flip-flops × cycles` fault space and seeded sampling.
//! * [`campaign`] — golden runs, SEU injection at a chosen `(flip-flop,
//!   cycle)` point, and outcome classification against the golden trace.
//!   Every campaign runs 64 points per pass on one of two lane engines,
//!   picked by the design's size (full-settle for small combinational
//!   clouds, differential for the rest); both replay the primary inputs
//!   from the golden trace instead of running the workload's devices (exact
//!   under the device contract that `mate_sim::Testbench::attach` checks).
//!   Every injected point is simulated individually; the fault space is
//!   pruned before the campaign, statically, by MATEs evaluated on the
//!   golden trace (`mate::eval::evaluate`, the per-cycle cube evaluation a
//!   MATE-enriched platform runs online).
//! * [`validate`] — checks that every fault-space point a MATE set prunes is
//!   indeed masked within one clock cycle (exhaustively or sampled).
//! * [`fpga`] — FPGA resource estimation for MATE sets (LUT trees) and the
//!   injection-command bandwidth model from the paper's introduction.

pub mod campaign;
pub mod fpga;
pub mod harness;
pub mod space;
pub mod validate;

// The unit tests share the integration tests' harnesses, which name this
// crate by its package name.
#[cfg(test)]
extern crate self as mate_hafi;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

pub use campaign::{
    classify_points, golden_run, inject, inject_multi, inject_persistent, run_campaign,
    run_campaign_wide, CampaignConfig, CampaignResult, FaultEffect, PruningStats,
};
pub use fpga::{CommandModel, LutCostModel};
pub use harness::{DesignHarness, StimulusHarness};
pub use space::{FaultPoint, FaultSpace};
pub use validate::{validate_mates, ValidationReport};
