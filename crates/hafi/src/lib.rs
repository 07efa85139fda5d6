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
//! * [`collapse`] — fault-space collapsing: temporal equivalence classes
//!   over golden-trace cone-support fingerprints, probed one representative
//!   at a time, so most benign points are classified without a single
//!   dedicated simulation.
//! * [`validate`] — checks that every fault-space point a MATE set prunes is
//!   indeed masked within one clock cycle (exhaustively or sampled).
//! * [`fpga`] — FPGA resource estimation for MATE sets (LUT trees) and the
//!   injection-command bandwidth model from the paper's introduction.

pub mod campaign;
pub mod collapse;
pub mod fpga;
pub mod harness;
pub mod online;
pub mod space;
pub mod validate;

pub use campaign::{
    classify_multi_points, classify_multi_points_pruned, classify_points, classify_points_engine,
    classify_points_pruned, golden_run, inject, inject_multi, inject_persistent, run_campaign,
    run_campaign_wide, CampaignConfig, CampaignEngine, CampaignResult, FaultEffect,
};
pub use collapse::{CampaignPruning, PruningStats};
pub use fpga::{CommandModel, LutCostModel};
pub use harness::{DesignHarness, StimulusHarness};
pub use online::OnlinePruner;
pub use space::{FaultPoint, FaultSpace};
pub use validate::{validate_mates, ValidationReport};
