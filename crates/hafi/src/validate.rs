//! Ground-truth validation of MATE claims.
//!
//! The central soundness property of the whole approach: **whenever a MATE
//! for wire `w` evaluates true on the fault-free trace of cycle `t`, the
//! SEU `(w, t)` must be masked within one clock cycle.**  This module checks
//! the property by actually injecting every claimed point (or a seeded
//! sample) and comparing against the golden run.

use mate::{EvalReport, MateSet};
use mate_netlist::{MateError, NetId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::campaign::{classify_points_pruned, golden_run, CampaignEngine, FaultEffect};
use crate::collapse::{CampaignPruning, PruningStats};
use crate::harness::DesignHarness;
use crate::space::{FaultPoint, FaultSpace};

/// The outcome of validating a MATE set against injection ground truth.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// Fault-space points the MATE set claimed benign.
    pub claimed: usize,
    /// Claimed points actually injected (≤ `claimed` when sampling).
    pub checked: usize,
    /// Claimed points confirmed masked within one cycle.
    pub confirmed: usize,
    /// Violations: claimed benign but observably *not* masked — must stay
    /// empty for a sound implementation.
    pub violations: Vec<(FaultPoint, FaultEffect)>,
    /// Fault-space collapsing accounting for the injection pass (claimed
    /// points are overwhelmingly masked-within-one-cycle, the class the
    /// collapsing layer decides with one probe per golden context).
    pub pruning: PruningStats,
}

impl ValidationReport {
    /// `true` when every checked claim held.
    pub fn sound(&self) -> bool {
        self.violations.is_empty() && self.confirmed == self.checked
    }
}

/// Validates that every fault-space point pruned by `mates` on the harness's
/// own golden trace is masked within one cycle.
///
/// `sample` bounds the number of injections (`None` = exhaustive over all
/// claimed points); sampling is deterministic in `seed`.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if `wires` contains nets that are not
/// flip-flop outputs, or an injection is invalid.
pub fn validate_mates(
    harness: &dyn DesignHarness,
    mates: &MateSet,
    wires: &[NetId],
    cycles: usize,
    sample: Option<usize>,
    seed: u64,
) -> Result<(EvalReport, ValidationReport), MateError> {
    // One extra golden cycle so claims in the final evaluated cycle can be
    // judged against a `t+1` state.
    let golden = golden_run(harness, cycles + 1);
    let eval_trace = golden.trace.truncated(cycles);
    let report = mate::eval::evaluate(mates, &eval_trace, wires);

    // Map wires back to their flip-flops.
    let space = FaultSpace::for_wires(harness.netlist(), harness.topology(), wires, cycles);
    let ff_of: std::collections::HashMap<NetId, _> =
        space.ffs().map(|(ff, wire)| (wire, ff)).collect();
    for &w in wires {
        if !ff_of.contains_key(&w) {
            return Err(MateError::campaign(format!(
                "wire {w} is not a flip-flop output"
            )));
        }
    }

    let mut claimed_points: Vec<FaultPoint> = Vec::new();
    for cycle in 0..cycles {
        for &wire in wires {
            if report.matrix.is_masked(wire, cycle) {
                claimed_points.push(FaultPoint {
                    ff: ff_of[&wire],
                    wire,
                    cycle,
                });
            }
        }
    }

    let mut validation = ValidationReport {
        claimed: claimed_points.len(),
        ..ValidationReport::default()
    };
    if let Some(limit) = sample {
        if claimed_points.len() > limit {
            let mut rng = StdRng::seed_from_u64(seed);
            claimed_points.shuffle(&mut rng);
            claimed_points.truncate(limit);
        }
    }
    // Batched classification with fault-space collapsing: up to 64
    // claimed points share one run, and — on wide-capable
    // harnesses — temporally equivalent claims collapse onto one
    // representative probe each.  Almost every claimed point is masked
    // within one cycle, so whole equivalence classes die on their first
    // probe and validation work scales with the number of distinct golden
    // contexts rather than the number of claims.
    let (effects, pruning) = classify_points_pruned(
        harness,
        &golden,
        &claimed_points,
        CampaignEngine::default(),
        CampaignPruning::default(),
    )?;
    validation.pruning = pruning;
    for (point, effect) in claimed_points.into_iter().zip(effects) {
        validation.checked += 1;
        if effect.is_masked_one_cycle() {
            validation.confirmed += 1;
        } else {
            validation.violations.push((point, effect));
        }
    }
    Ok((report, validation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StimulusHarness;
    use mate::{ff_wires, search_design, SearchConfig};
    use mate_netlist::examples::{figure1b, tmr_register};

    #[test]
    fn figure1b_claims_are_sound() {
        let (n, topo) = figure1b();
        let wires = ff_wires(&n, &topo);
        let mates = search_design(&n, &topo, &wires, &SearchConfig::default()).into_mate_set();
        let input = n.find_net("in").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(input, vec![false, true, true, false, true, false, false]);
        let (report, validation) = validate_mates(&harness, &mates, &wires, 24, None, 0).unwrap();
        assert!(validation.claimed > 0, "MATEs must trigger on this trace");
        assert!(
            validation.sound(),
            "violations: {:?}",
            validation.violations
        );
        assert!(report.masked_fraction() > 0.0);
    }

    #[test]
    fn tmr_claims_are_sound_and_substantial() {
        let (n, topo) = tmr_register();
        let wires = ff_wires(&n, &topo);
        let mates = search_design(&n, &topo, &wires, &SearchConfig::default()).into_mate_set();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false, false, true, false])
            .drive(din, vec![true, true, false]);
        let (report, validation) = validate_mates(&harness, &mates, &wires, 16, None, 0).unwrap();
        assert!(
            validation.sound(),
            "violations: {:?}",
            validation.violations
        );
        // TMR voting masks replica upsets in most cycles.
        assert!(report.masked_fraction() > 0.5);
    }

    #[test]
    fn sampling_limits_injections() {
        let (n, topo) = tmr_register();
        let wires = ff_wires(&n, &topo);
        let mates = search_design(&n, &topo, &wires, &SearchConfig::default()).into_mate_set();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false])
            .drive(din, vec![true]);
        let (_, validation) = validate_mates(&harness, &mates, &wires, 20, Some(5), 3).unwrap();
        assert_eq!(validation.checked, 5);
        assert!(validation.claimed >= 5);
        assert!(validation.sound());
    }
}
