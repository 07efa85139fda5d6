//! The batched campaign engines must be pure performance changes: both
//! engines behind [`classify_points`] — differential and full-settle — at
//! every thread count, have to produce classifications bit-identical to one
//! [`inject`] call per fault point, on random circuits and on both cores
//! running `fib()` and `conv()`, where the engines replay the memories'
//! responses from the golden trace and `inject` runs the real memories.

use proptest::prelude::*;

mod common;

use mate_hafi::{
    classify_points, golden_run, inject, run_campaign, run_campaign_wide, CampaignConfig,
    CampaignEngine, CampaignResult, DesignHarness, FaultPoint, FaultSpace, StimulusHarness,
};
use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_netlist::WORD_LANES;

fn harness_for(seed: u64, cfg: RandomCircuitConfig, cycles: usize) -> StimulusHarness {
    let (netlist, topo) = random_circuit(cfg, seed);
    let inputs = netlist.inputs().to_vec();
    let mut harness = StimulusHarness::new(netlist, topo);
    for (i, input) in inputs.into_iter().enumerate() {
        let values: Vec<bool> = (0..cycles)
            .map(|c| {
                let x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64) << 32 | c as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x >> 37) & 1 == 1
            })
            .collect();
        harness = harness.drive(input, values);
    }
    harness
}

/// Runs the scalar campaign (one `inject` per point) and asserts that every
/// engine × 1 and 3 threads of the wide campaign reproduces it record for
/// record.  Returns the scalar result.
fn assert_wide_matches_scalar_campaign(
    harness: &(dyn DesignHarness + Sync),
    base: CampaignConfig,
) -> Result<CampaignResult, TestCaseError> {
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), base.cycles);
    let scalar = run_campaign(harness, &space, &base).unwrap();
    for engine in CampaignEngine::all() {
        for threads in [1, 3] {
            let config = CampaignConfig {
                engine,
                threads,
                ..base
            };
            let wide = run_campaign_wide(harness, &space, &config).unwrap();
            prop_assert_eq!(
                &scalar.records,
                &wide.records,
                "{} engine {} threads",
                engine,
                threads
            );
        }
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

        let batched =
            classify_points(&harness, &golden, &points, CampaignEngine::default()).unwrap();
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

    /// The differential engine is bit-identical to the full-settle engine
    /// AND the scalar classifier on the exhaustive fault space of random
    /// circuits.
    #[test]
    fn differential_matches_full_settle_and_scalar(seed in 0u64..5_000) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 8, gates: 28, outputs: 2 };
        let cycles = 12;
        let harness = harness_for(seed.wrapping_add(101), cfg, cycles + 1);
        let golden = golden_run(&harness, cycles + 1).unwrap();
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points: Vec<FaultPoint> = space.iter().collect();
        let scalar: Vec<_> = points
            .iter()
            .map(|&p| inject(&harness, &golden, p).unwrap())
            .collect();
        for engine in CampaignEngine::all() {
            let batched = classify_points(&harness, &golden, &points, engine).unwrap();
            prop_assert_eq!(&scalar, &batched, "seed {} {} engine", seed, engine);
        }
    }

    /// Thread sharding is invisible per engine: any thread count reproduces
    /// the single-threaded records of the same engine, and both engines
    /// produce the same records.
    #[test]
    fn engines_match_across_threads(seed in 0u64..5_000, threads in 2usize..5) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 6, gates: 22, outputs: 2 };
        let cycles = 10;
        let harness = harness_for(seed.wrapping_add(57), cfg, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let base = CampaignConfig {
            cycles,
            sample: Some(30),
            seed,
            threads: 1,
            engine: CampaignEngine::FullSettle,
        };
        let reference = run_campaign_wide(&harness, &space, &base).unwrap();
        for engine in CampaignEngine::all() {
            let sharded = run_campaign_wide(
                &harness,
                &space,
                &CampaignConfig { threads, engine, ..base },
            ).unwrap();
            prop_assert_eq!(
                &reference.records, &sharded.records,
                "{} engine {} threads", engine, threads
            );
        }
    }

}

/// The cores' memories are devices.  The wide engines replay their
/// responses from the golden trace while `run_campaign` injects through the
/// real memories, so equal records test the replay argument itself.
mod device_replay {
    use super::*;
    use std::collections::HashSet;
    use std::mem::discriminant;

    use mate_cores::avr::programs as avr_programs;
    use mate_cores::avr::system::AvrSystem;
    use mate_cores::msp430::programs as msp_programs;
    use mate_cores::msp430::system::Msp430System;
    use mate_cores::Termination;

    use crate::common::{AvrHarness, MspHarness};

    /// Compares both engines at 1 and 3 threads with scalar injection on a
    /// sample over a 64-cycle window and one over a 256-cycle window (where
    /// latent and late-recovering lanes run long); each sample must cover
    /// at least three effect classes.
    fn assert_replay_matches_inject(harness: &(dyn DesignHarness + Sync)) {
        for (cycles, sample) in [(64, 96), (256, 64)] {
            let config = CampaignConfig {
                cycles,
                sample: Some(sample),
                seed: 42,
                ..CampaignConfig::default()
            };
            let scalar = assert_wide_matches_scalar_campaign(harness, config).unwrap();
            let classes: HashSet<_> = scalar
                .records
                .iter()
                .map(|(_, e)| discriminant(e))
                .collect();
            assert!(
                classes.len() >= 3,
                "{cycles} cycles: {:?}",
                scalar.histogram()
            );
        }
    }

    #[test]
    fn avr_fib_replay_matches_inject() {
        assert_replay_matches_inject(&AvrHarness {
            sys: AvrSystem::new(),
            program: avr_programs::fib(Termination::Loop),
            dmem: Vec::new(),
        });
    }

    #[test]
    fn avr_conv_replay_matches_inject() {
        let (program, dmem) = avr_programs::conv(Termination::Loop);
        assert_replay_matches_inject(&AvrHarness {
            sys: AvrSystem::new(),
            program,
            dmem,
        });
    }

    #[test]
    fn msp430_fib_replay_matches_inject() {
        assert_replay_matches_inject(&MspHarness {
            sys: Msp430System::new(),
            image: msp_programs::fib(Termination::Loop),
        });
    }

    #[test]
    fn msp430_conv_replay_matches_inject() {
        assert_replay_matches_inject(&MspHarness {
            sys: Msp430System::new(),
            image: msp_programs::conv(Termination::Loop),
        });
    }
}
