//! The batched campaign must be a pure performance change: on the engine
//! each design picks, at every thread count, [`classify_points`] and
//! [`run_campaign_wide`] have to produce classifications bit-identical to
//! one [`inject`] call per fault point.  Both engines, each on random
//! circuits and on both cores, are compared with `inject` by the unit tests
//! of `src/campaign.rs`.

use proptest::prelude::*;

mod common;

use common::harness_for;
use mate_hafi::{
    classify_points, golden_run, inject, run_campaign, run_campaign_wide, CampaignConfig,
    CampaignResult, DesignHarness, FaultPoint, FaultSpace,
};
use mate_netlist::random::RandomCircuitConfig;
use mate_netlist::WORD_LANES;

/// Runs the scalar campaign (one `inject` per point) and asserts that the
/// wide campaign at 1 and 3 threads reproduces it record for record.
/// Returns the scalar result.
fn assert_wide_matches_scalar_campaign(
    harness: &(dyn DesignHarness + Sync),
    base: CampaignConfig,
) -> Result<CampaignResult, TestCaseError> {
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), base.cycles);
    let scalar = run_campaign(harness, &space, &base).unwrap();
    for threads in [1, 3] {
        let wide = run_campaign_wide(harness, &space, &CampaignConfig { threads, ..base }).unwrap();
        prop_assert_eq!(&scalar.records, &wide.records, "{} threads", threads);
    }
    Ok(scalar)
}

/// On a design with more than 64 flip-flops one injection cycle spans two
/// lane words, the second one partial, and thread shards cut cycles at
/// arbitrary points: every chunking must keep each point's own verdict.
#[test]
fn wide_campaign_matches_scalar_campaign_across_lane_words() {
    let cfg = RandomCircuitConfig {
        inputs: 4,
        ffs: 80,
        gates: 240,
        outputs: 4,
    };
    let cycles = 8;
    let harness = harness_for(5, cfg, cycles + 1);
    assert!(harness.topology().seq_cells().len() > WORD_LANES);
    let config = CampaignConfig {
        cycles,
        sample: None,
        ..CampaignConfig::default()
    };
    let scalar = assert_wide_matches_scalar_campaign(&harness, config).unwrap();
    // Mixed verdicts, so a point read from another lane would show.
    assert!(scalar.histogram().len() >= 2, "{:?}", scalar.histogram());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive fault space on random circuits: the wide engine classifies
    /// every point exactly like the scalar `inject` path.
    #[test]
    fn wide_classifications_match_scalar_inject(seed in 0u64..5_000) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 7, gates: 24, outputs: 2 };
        let cycles = 14;
        let harness = harness_for(seed, cfg, cycles + 1);
        let golden = golden_run(&harness, cycles + 1).unwrap();
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points: Vec<FaultPoint> = space.iter().collect();

        let batched = classify_points(&harness, &golden, &points).unwrap();
        for (&point, wide_effect) in points.iter().zip(&batched) {
            let scalar_effect = inject(&harness, &golden, point).unwrap();
            prop_assert_eq!(
                *wide_effect,
                scalar_effect,
                "seed {} ff {:?} cycle {}",
                seed, point.ff, point.cycle
            );
        }
    }

    /// The two campaign drivers agree record-for-record.
    #[test]
    fn wide_campaign_matches_scalar_campaign(seed in 0u64..5_000) {
        let cfg = RandomCircuitConfig { inputs: 4, ffs: 6, gates: 20, outputs: 2 };
        let cycles = 10;
        let harness = harness_for(seed.wrapping_add(13), cfg, cycles + 1);
        let config = CampaignConfig { cycles, sample: Some(40), seed, ..CampaignConfig::default() };
        assert_wide_matches_scalar_campaign(&harness, config)?;
    }
}
