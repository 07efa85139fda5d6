//! The lane-parallel fast paths must be pure performance changes: the
//! transposed-trace word-parallel `evaluate`, the lazy-greedy
//! (CELF) `rank`, and the thread-sharded `run_campaign_wide` each have to
//! be bit-identical to their scalar/eager/single-threaded references on
//! arbitrary circuits, stimuli, and MATE sets.

use proptest::prelude::*;

use mate::eval::{evaluate, evaluate_scalar};
use mate::mates::{summarize, Mate, MateSet};
use mate::select::{rank, rank_eager};
use mate_hafi::{run_campaign_wide, CampaignConfig, DesignHarness, FaultSpace, StimulusHarness};
use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_netlist::{NetCube, NetId, Netlist, Topology};
use mate_sim::{InputWave, Testbench, WaveTrace};

/// SplitMix-style deterministic stream: one value per (seed, tag, index).
fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag << 32 | index);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn random_trace(netlist: &Netlist, topo: &Topology, seed: u64, cycles: usize) -> WaveTrace {
    let inputs = netlist.inputs().to_vec();
    let mut tb = Testbench::new(netlist, topo);
    for (i, input) in inputs.into_iter().enumerate() {
        let values: Vec<bool> = (0..cycles)
            .map(|c| mix(seed, 1 + i as u64, c as u64) & 1 == 1)
            .collect();
        tb.drive(input, InputWave::from_vec(values));
    }
    tb.run(cycles)
}

/// Synthetic MATE set: random 1–3-literal cubes over arbitrary nets, each
/// masking a random handful of fault wires.  Evaluation and ranking are
/// agnostic to whether a cube came from the real search, so synthetic sets
/// exercise the kernels on far more shapes (contradictions, overlaps,
/// never-triggering cubes, foreign masked wires).
fn random_mates(seed: u64, num_nets: usize, wires: &[NetId], count: usize) -> MateSet {
    let mates = (0..count).filter_map(|m| {
        let m = m as u64;
        let nlits = 1 + (mix(seed, 100 + m, 0) % 3) as usize;
        let cube = NetCube::from_literals((0..nlits).map(|l| {
            let r = mix(seed, 200 + m, l as u64);
            (
                NetId::from_index((r % num_nets as u64) as usize),
                r >> 32 & 1 == 1,
            )
        }))?;
        let nmask = 1 + (mix(seed, 300 + m, 0) % 4) as usize;
        let masked: Vec<NetId> = (0..nmask)
            .map(|k| wires[(mix(seed, 400 + m, k as u64) % wires.len() as u64) as usize])
            .collect();
        Some(Mate { cube, masked })
    });
    summarize(mates)
}

fn setup(seed: u64, cycles: usize) -> (WaveTrace, MateSet, Vec<NetId>) {
    let cfg = RandomCircuitConfig {
        inputs: 4,
        ffs: 12,
        gates: 40,
        outputs: 3,
    };
    let (netlist, topo) = random_circuit(cfg, seed);
    let wires = mate::ff_wires(&netlist, &topo);
    let trace = random_trace(&netlist, &topo, seed, cycles);
    let mates = random_mates(seed, netlist.num_nets(), &wires, 24);
    (trace, mates, wires)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Word-parallel evaluate == per-cycle scalar evaluate, including the
    /// trigger counts and the derived statistics.
    #[test]
    fn word_parallel_evaluate_matches_scalar(seed in 0u64..10_000, cycles in 1usize..150) {
        let (trace, mates, wires) = setup(seed, cycles);
        let word = evaluate(&mates, &trace, &wires);
        let scalar = evaluate_scalar(&mates, &trace, &wires);
        prop_assert_eq!(word.matrix, scalar.matrix);
        prop_assert_eq!(word.triggers, scalar.triggers);
        prop_assert_eq!(word.effective, scalar.effective);
        prop_assert_eq!(word.avg_inputs.to_bits(), scalar.avg_inputs.to_bits());
        prop_assert_eq!(word.std_inputs.to_bits(), scalar.std_inputs.to_bits());
    }

    /// Lazy-greedy (CELF) rank == eager greedy rank: same pick order, same
    /// marginal hit counts.
    #[test]
    fn lazy_rank_matches_eager(seed in 0u64..10_000, cycles in 1usize..150) {
        let (trace, mates, wires) = setup(seed, cycles);
        let eager = rank_eager(&mates, &trace, &wires);
        prop_assert_eq!(&rank(&mates, &trace, &wires), &eager);
    }

    /// Thread sharding is invisible in the records: any thread count gives
    /// the single-threaded campaign, record for record.
    #[test]
    fn sharded_campaign_matches_single_thread(seed in 0u64..5_000, threads in 2usize..6) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 6, gates: 20, outputs: 2 };
        let cycles = 8;
        let (netlist, topo) = random_circuit(cfg, seed);
        let inputs = netlist.inputs().to_vec();
        let mut harness = StimulusHarness::new(netlist, topo);
        for (i, input) in inputs.into_iter().enumerate() {
            let values: Vec<bool> = (0..=cycles)
                .map(|c| mix(seed, 500 + i as u64, c as u64) & 1 == 1)
                .collect();
            harness = harness.drive(input, values);
        }
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let base = CampaignConfig { cycles, sample: Some(30), seed, threads: 1 };
        let single = run_campaign_wide(&harness, &space, &base).unwrap();
        let sharded = run_campaign_wide(&harness, &space, &CampaignConfig { threads, ..base }).unwrap();
        prop_assert_eq!(&single.records, &sharded.records);
    }
}
