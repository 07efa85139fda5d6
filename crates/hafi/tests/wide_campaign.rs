//! The batched campaign engines must be pure performance changes: every
//! path through [`classify_points`] — differential, full-settle,
//! checkpointed scalar, and the scalar fallback — at every thread count,
//! has to produce classifications bit-identical to one [`inject`] call per
//! fault point.

use proptest::prelude::*;

use mate_hafi::{
    classify_multi_points, classify_points, golden_run, inject, inject_multi, run_campaign,
    run_campaign_wide, CampaignConfig, CampaignEngine, CampaignResult, DesignHarness, FaultPoint,
    FaultSpace, StimulusHarness,
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
    harness: &StimulusHarness,
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
    assert!(harness.testbench().can_run_wide());
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
        // A stimulus-only harness takes the wide path.
        prop_assert!(harness.testbench().can_run_wide());

        let golden = golden_run(&harness, cycles + 1);
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
        prop_assert!(harness.testbench().can_run_wide());

        let golden = golden_run(&harness, cycles + 1);
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

    /// Batched multi-SEU sets (one whole set per lane) classify exactly
    /// like one scalar `inject_multi` per set — the `core/src/multi.rs`
    /// fault model on the differential engine — including a duplicated
    /// point inside a set, whose two flips cancel.
    #[test]
    fn multi_seu_sets_match_scalar_inject_multi(seed in 0u64..5_000) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 7, gates: 24, outputs: 2 };
        let cycles = 10;
        let harness = harness_for(seed.wrapping_add(23), cfg, cycles + 1);
        prop_assert!(harness.testbench().can_run_wide());

        let golden = golden_run(&harness, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points: Vec<FaultPoint> = space.iter().collect();
        // Pair up points within each cycle into 2- and 3-bit sets, plus the
        // singletons, mimicking the adjacent-FF sets of the multi-SEU
        // search, and one set flipping the same flip-flop twice, which
        // cancels to a no-op.
        let mut sets: Vec<Vec<FaultPoint>> = Vec::new();
        for cycle in 0..cycles {
            let in_cycle: Vec<FaultPoint> =
                points.iter().copied().filter(|p| p.cycle == cycle).collect();
            for pair in in_cycle.windows(2) {
                sets.push(pair.to_vec());
            }
            for triple in in_cycle.windows(3).step_by(3) {
                sets.push(triple.to_vec());
            }
            if let Some(&first) = in_cycle.first() {
                sets.push(vec![first]);
                sets.push(vec![first, first]);
            }
        }
        let scalar: Vec<_> = sets
            .iter()
            .map(|s| inject_multi(&harness, &golden, s).unwrap())
            .collect();
        let batched = classify_multi_points(&harness, &golden, &sets).unwrap();
        prop_assert_eq!(&scalar, &batched, "seed {}", seed);
    }
}

mod checkpoint_path {
    use super::*;
    use mate_cores::avr::programs as avr_programs;
    use mate_cores::avr::system::AvrSystem;
    use mate_cores::msp430::programs as msp_programs;
    use mate_cores::msp430::system::Msp430System;
    use mate_cores::Termination;
    use mate_sim::Testbench;

    struct AvrHarness {
        sys: AvrSystem,
        program: Vec<u16>,
        dmem: Vec<u8>,
    }

    impl DesignHarness for AvrHarness {
        fn netlist(&self) -> &mate_netlist::Netlist {
            self.sys.netlist()
        }
        fn topology(&self) -> &mate_netlist::Topology {
            self.sys.topology()
        }
        fn testbench(&self) -> Testbench<'_> {
            self.sys.testbench(&self.program, &self.dmem).0
        }
    }

    struct MspHarness {
        sys: Msp430System,
        image: Vec<u16>,
    }

    impl DesignHarness for MspHarness {
        fn netlist(&self) -> &mate_netlist::Netlist {
            self.sys.netlist()
        }
        fn topology(&self) -> &mate_netlist::Topology {
            self.sys.topology()
        }
        fn testbench(&self) -> Testbench<'_> {
            self.sys.testbench(&self.image).0
        }
    }

    fn assert_checkpoint_matches_scalar(harness: &dyn DesignHarness, cycles: usize, sample: usize) {
        // The cores carry external memory devices, so the wide path is out —
        // but their memories snapshot, which selects the checkpoint engine.
        let probe = harness.testbench();
        assert!(!probe.can_run_wide(), "cores have devices");
        assert!(probe.can_checkpoint(), "core memories must snapshot");

        let golden = golden_run(harness, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points = space.sample(sample, 42);
        let batched =
            classify_points(harness, &golden, &points, CampaignEngine::default()).unwrap();
        for (&point, checkpointed) in points.iter().zip(&batched) {
            let scalar = inject(harness, &golden, point).unwrap();
            assert_eq!(
                *checkpointed, scalar,
                "ff {:?} cycle {}",
                point.ff, point.cycle
            );
        }
    }

    #[test]
    fn avr_checkpoint_classifications_match_scalar_inject() {
        let harness = AvrHarness {
            sys: AvrSystem::new(),
            program: avr_programs::fib(Termination::Loop),
            dmem: Vec::new(),
        };
        assert_checkpoint_matches_scalar(&harness, 80, 48);
    }

    #[test]
    fn msp430_checkpoint_classifications_match_scalar_inject() {
        let harness = MspHarness {
            sys: Msp430System::new(),
            image: msp_programs::fib(Termination::Loop),
        };
        assert_checkpoint_matches_scalar(&harness, 80, 48);
    }
}
