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
//!   Designs without devices run 64 points per pass on the wide engines;
//!   the cores, whose memories are devices, resume checkpointed golden
//!   runs.  Every injected point is simulated individually; the fault space
//!   is pruned before the campaign, statically, by MATEs evaluated on the
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

pub use campaign::{
    classify_points, golden_run, inject, inject_multi, inject_persistent, run_campaign,
    run_campaign_wide, CampaignConfig, CampaignEngine, CampaignResult, FaultEffect, PruningStats,
};
pub use fpga::{CommandModel, LutCostModel};
pub use harness::{DesignHarness, StimulusHarness};
pub use space::{FaultPoint, FaultSpace};
pub use validate::{validate_mates, ValidationReport};
