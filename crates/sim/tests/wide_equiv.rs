//! Lane-level equivalence of the bit-parallel engine.
//!
//! The wide engine is only sound if each of its 64 lanes behaves exactly
//! like an independent scalar [`Simulator`]: same settle order, same
//! two-phase latch, same fault propagation.  These properties check that on
//! randomly generated synchronous circuits: seed a [`WideSimulator`] from a
//! golden trace, flip one flip-flop in an arbitrary lane, and that lane must
//! track a scalar run with the same flip cycle-for-cycle on *every* net —
//! while all unflipped lanes keep reproducing the golden trace.

use proptest::prelude::*;

use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_netlist::{NetId, SoaNetlist, WORD_LANES};
use mate_sim::{Simulator, WaveTrace, WideSimulator};

/// Deterministic pseudo-random stimulus bit for input `i` at `cycle`.
fn stim_bit(seed: u64, input: usize, cycle: usize) -> bool {
    let x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((input as u64) << 32) | cycle as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 37) & 1 == 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The flipped lane of a wide run with a single flip is cycle-for-cycle
    /// identical to a scalar run with the same flip, and every other
    /// (unflipped) lane keeps reproducing the golden trace.
    #[test]
    fn flipped_lane_tracks_scalar_simulator(seed in 0u64..3_000) {
        let cfg = RandomCircuitConfig { inputs: 4, ffs: 10, gates: 40, outputs: 3 };
        let (n, topo) = random_circuit(cfg, seed);
        let inputs = n.inputs().to_vec();
        let cycles = 12usize;
        let inject_cycle = (seed % cycles as u64) as usize;
        let ff = topo.seq_cells()[(seed / 7 % topo.seq_cells().len() as u64) as usize];
        let flip_lane = (seed / 13 % WORD_LANES as u64) as usize;
        let lane_bit = 1u64 << flip_lane;

        // Golden scalar trace.
        let mut golden = Simulator::new(&n, &topo);
        let mut trace = WaveTrace::new(n.num_nets());
        for c in 0..cycles {
            for (i, &input) in inputs.iter().enumerate() {
                golden.set_input(input, stim_bit(seed, i, c));
            }
            trace.capture(&mut golden);
            golden.tick();
        }

        // Scalar faulty run: replay to the injection cycle, flip, continue.
        let mut scalar = Simulator::new(&n, &topo);
        for c in 0..inject_cycle {
            for (i, &input) in inputs.iter().enumerate() {
                scalar.set_input(input, stim_bit(seed, i, c));
            }
            scalar.settle();
            scalar.tick();
        }
        scalar.flip_ff(ff);

        // Wide faulty run: seed all lanes from the golden trace, flip one.
        let mut wide = WideSimulator::new(&n, &topo);
        wide.load_from_trace(&trace, inject_cycle);
        wide.flip_ff(ff, flip_lane);

        for c in inject_cycle..cycles {
            for (i, &input) in inputs.iter().enumerate() {
                let bit = stim_bit(seed, i, c);
                scalar.set_input(input, bit);
                wide.set_input(input, bit);
            }
            scalar.settle();
            wide.settle();
            for idx in 0..n.num_nets() {
                let net = NetId::from_index(idx);
                let word = wide.value_word(net);
                // The flipped lane must equal the faulty scalar simulator.
                prop_assert_eq!(
                    word & lane_bit != 0,
                    scalar.value(net),
                    "net {} cycle {} lane {} diverged from scalar",
                    n.net(net).name(), c, flip_lane
                );
                // Every other lane was never flipped: it must stay golden.
                let golden_rest = if trace.value(c, net) { !lane_bit } else { 0 };
                prop_assert_eq!(
                    word & !lane_bit,
                    golden_rest,
                    "net {} cycle {}: unflipped lanes diverged from golden",
                    n.net(net).name(), c
                );
            }
            scalar.tick();
            wide.tick();
        }
    }

    /// With no flips at all, every lane reproduces the golden trace from an
    /// arbitrary seed cycle onwards.
    #[test]
    fn broadcast_run_reproduces_golden_trace(seed in 0u64..3_000) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 8, gates: 30, outputs: 2 };
        let (n, topo) = random_circuit(cfg, seed.wrapping_add(91));
        let inputs = n.inputs().to_vec();
        let cycles = 10usize;
        let start = (seed % cycles as u64) as usize;

        let mut golden = Simulator::new(&n, &topo);
        let mut trace = WaveTrace::new(n.num_nets());
        for c in 0..cycles {
            for (i, &input) in inputs.iter().enumerate() {
                golden.set_input(input, stim_bit(seed, i, c));
            }
            trace.capture(&mut golden);
            golden.tick();
        }

        let mut wide = WideSimulator::new(&n, &topo);
        wide.load_from_trace(&trace, start);
        for c in start..cycles {
            for (i, &input) in inputs.iter().enumerate() {
                wide.set_input(input, stim_bit(seed, i, c));
            }
            wide.settle();
            for idx in 0..n.num_nets() {
                let net = NetId::from_index(idx);
                let expect = if trace.value(c, net) { u64::MAX } else { 0 };
                prop_assert_eq!(
                    wide.value_word(net),
                    expect,
                    "net {} cycle {}",
                    n.net(net).name(), c
                );
            }
            wide.tick();
        }
    }

    /// Graph → [`SoaNetlist`] → evaluation round-trip: the arena is
    /// consistent with the graph it was built from, and a scalar sweep over
    /// the flat arrays (`settle_scalar` + a manual FF tick through
    /// `ff_d`/`ff_q`) reproduces the pointer-walking [`Simulator`]
    /// cycle-for-cycle on every net.
    #[test]
    fn soa_arena_round_trips_the_graph_evaluation(seed in 0u64..3_000) {
        let cfg = RandomCircuitConfig { inputs: 4, ffs: 9, gates: 35, outputs: 3 };
        let (n, topo) = random_circuit(cfg, seed.wrapping_add(47));
        let soa = SoaNetlist::build(&n, &topo);
        soa.assert_consistent(&n, &topo);

        let inputs = n.inputs().to_vec();
        let mut sim = Simulator::new(&n, &topo);
        let mut values = vec![false; n.num_nets()];
        for c in 0..10usize {
            for (i, &input) in inputs.iter().enumerate() {
                let bit = stim_bit(seed, i, c);
                sim.set_input(input, bit);
                values[input.index()] = bit;
            }
            sim.settle();
            soa.settle_scalar(&mut values);
            for (idx, &value) in values.iter().enumerate() {
                let net = NetId::from_index(idx);
                prop_assert_eq!(
                    value,
                    sim.value(net),
                    "net {} cycle {c}",
                    n.net(net).name()
                );
            }
            sim.tick();
            // Two-phase FF update over the flat arrays: gather every D,
            // then scatter to the Qs.
            let next: Vec<bool> = soa.ff_d().iter().map(|&d| values[d as usize]).collect();
            for (&q, bit) in soa.ff_q().iter().zip(next) {
                values[q as usize] = bit;
            }
        }
    }
}
