//! The keystone property: every fault-space point the MATE analysis prunes
//! is provably masked within one clock cycle — checked by *exhaustive* fault
//! injection on randomly generated synchronous circuits and on 512-cycle
//! windows of the CPU cores' workloads, and by sampled injection on a
//! further core workload.

use proptest::prelude::*;

mod common;

use common::harness_for;
use mate::{ff_wires, search_design, SearchConfig};
use mate_hafi::{validate_mates, DesignHarness};
use mate_netlist::random::RandomCircuitConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive soundness on small random circuits: every claimed-benign
    /// point is injected and must be masked within one cycle.
    #[test]
    fn mate_claims_hold_under_exhaustive_injection(seed in 0u64..10_000) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 6, gates: 20, outputs: 2 };
        let cycles = 24;
        let harness = harness_for(seed, cfg, cycles + 1);
        let wires = ff_wires(harness.netlist(), harness.topology());
        let mates = search_design(
            harness.netlist(),
            harness.topology(),
            &wires,
            &SearchConfig::default(),
        )
        .into_mate_set();
        let (_, validation) = validate_mates(&harness, &mates, &wires, cycles, None, seed).unwrap();
        prop_assert!(
            validation.sound(),
            "seed {seed}: violations {:?}",
            validation.violations
        );
    }

    /// Same property on beefier circuits with MUX/AOI-rich logic, sampled.
    #[test]
    fn mate_claims_hold_on_larger_random_circuits(seed in 0u64..2_000) {
        let cfg = RandomCircuitConfig { inputs: 5, ffs: 12, gates: 60, outputs: 3 };
        let cycles = 16;
        let harness = harness_for(seed.wrapping_add(77), cfg, cycles + 1);
        let wires = ff_wires(harness.netlist(), harness.topology());
        let mates = search_design(
            harness.netlist(),
            harness.topology(),
            &wires,
            &SearchConfig::default(),
        )
        .into_mate_set();
        let (_, validation) =
            validate_mates(&harness, &mates, &wires, cycles, Some(64), seed).unwrap();
        prop_assert!(
            validation.sound(),
            "seed {seed}: violations {:?}",
            validation.violations
        );
    }
}

mod core_soundness {
    use super::*;
    use mate::ff_wires_filtered;
    use mate_cores::avr::programs as avr_programs;
    use mate_cores::avr::system::AvrSystem;
    use mate_cores::msp430::programs as msp_programs;
    use mate_cores::msp430::system::Msp430System;
    use mate_cores::Termination;
    use mate_netlist::NetId;

    use crate::common::{AvrHarness, MspHarness};

    /// A cheaper search configuration for in-test use; the full paper
    /// parameters run in the benches.
    fn test_config() -> SearchConfig {
        SearchConfig {
            depth: 5,
            max_terms: 3,
            max_candidates: 2_000,
            max_paths: 1024,
            ..SearchConfig::default()
        }
    }

    /// Injects every point the MATEs claim over a 512-cycle window,
    /// unsampled, and requires each one masked within one cycle.
    fn assert_claims_hold_exhaustively(harness: &dyn DesignHarness, wires: &[NetId]) {
        let mates = search_design(harness.netlist(), harness.topology(), wires, &test_config())
            .into_mate_set();
        assert!(!mates.is_empty(), "the core must yield MATEs");
        let (_, validation) = validate_mates(harness, &mates, wires, 512, None, 0).unwrap();
        assert!(validation.claimed > 0, "the MATEs must trigger");
        assert_eq!(validation.checked, validation.claimed, "unsampled");
        assert!(
            validation.violations.is_empty(),
            "violations: {:?}",
            validation.violations
        );
    }

    #[test]
    fn avr_fib_ff_claims_hold_under_exhaustive_injection() {
        let harness = AvrHarness {
            sys: AvrSystem::new(),
            program: avr_programs::fib(Termination::Loop),
            dmem: Vec::new(),
        };
        let wires = ff_wires(harness.netlist(), harness.topology());
        assert_claims_hold_exhaustively(&harness, &wires);
    }

    #[test]
    fn msp430_conv_no_rf_claims_hold_under_exhaustive_injection() {
        let harness = MspHarness {
            sys: Msp430System::new(),
            image: msp_programs::conv(Termination::Loop),
        };
        // The paper's "FF w/o RF" set: register-file flip-flops are `r<N>…`.
        let wires = ff_wires_filtered(harness.netlist(), harness.topology(), |name| {
            !(name.starts_with('r') && name.as_bytes().get(1).is_some_and(u8::is_ascii_digit))
        });
        assert_claims_hold_exhaustively(&harness, &wires);
    }

    #[test]
    fn msp430_fib_claims_hold_under_sampled_injection() {
        let harness = MspHarness {
            sys: Msp430System::new(),
            image: msp_programs::fib(Termination::Loop),
        };
        let wires = ff_wires(harness.netlist(), harness.topology());
        let mates = search_design(
            harness.netlist(),
            harness.topology(),
            &wires,
            &test_config(),
        )
        .into_mate_set();
        assert!(!mates.is_empty(), "MSP430 must yield MATEs");
        let (report, validation) =
            validate_mates(&harness, &mates, &wires, 160, Some(120), 2).unwrap();
        assert!(report.masked_fraction() > 0.0);
        assert!(
            validation.sound(),
            "violations: {:?}",
            validation.violations
        );
    }
}

mod extensions {
    use super::*;
    use mate::multi::search_wire_set;
    use mate_hafi::{golden_run, inject_multi, inject_persistent, FaultPoint};

    /// Section 6.2 extension: multi-bit MATEs.  A 2-bit MATE claims the
    /// *simultaneous* flip of both wires is benign; verify by double
    /// injection on random circuits.
    #[test]
    fn two_bit_mates_hold_under_double_injection() {
        let cfg = RandomCircuitConfig {
            inputs: 3,
            ffs: 6,
            gates: 20,
            outputs: 2,
        };
        let cycles = 16;
        let mut checked = 0usize;
        for seed in 0..40u64 {
            let harness = harness_for(seed.wrapping_mul(31).wrapping_add(5), cfg, cycles + 1);
            let netlist = harness.netlist();
            let topo = harness.topology();
            let golden = golden_run(&harness, cycles + 1).unwrap();
            let ffs: Vec<_> = topo
                .seq_cells()
                .iter()
                .map(|&ff| (ff, netlist.cell(ff).output()))
                .collect();
            for i in 0..ffs.len() {
                for j in (i + 1)..ffs.len() {
                    let wires = [ffs[i].1, ffs[j].1];
                    let result = search_wire_set(netlist, topo, &wires, &SearchConfig::default());
                    for mate in &result.mates {
                        for cycle in 0..cycles {
                            let triggered = mate.cube.eval(|net| golden.trace.value(cycle, net));
                            if !triggered {
                                continue;
                            }
                            let points = [
                                FaultPoint {
                                    ff: ffs[i].0,
                                    wire: ffs[i].1,
                                    cycle,
                                },
                                FaultPoint {
                                    ff: ffs[j].0,
                                    wire: ffs[j].1,
                                    cycle,
                                },
                            ];
                            let effect = inject_multi(&harness, &golden, &points).unwrap();
                            assert!(
                                effect.is_masked_one_cycle(),
                                "seed {seed} pair ({},{}) cycle {cycle}: {effect}",
                                netlist.net(wires[0]).name(),
                                netlist.net(wires[1]).name()
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 20, "only {checked} double-injections exercised");
    }

    /// Section 6.2 extension: upsets that hold several cycles are benign
    /// when the single-bit MATE triggers in every affected cycle.
    #[test]
    fn persistent_upsets_masked_when_mates_cover_every_cycle() {
        let cfg = RandomCircuitConfig {
            inputs: 3,
            ffs: 8,
            gates: 24,
            outputs: 2,
        };
        let cycles = 24;
        let hold = 3usize;
        let mut checked = 0usize;
        for seed in 0..60u64 {
            let harness = harness_for(seed.wrapping_mul(17).wrapping_add(3), cfg, cycles + 1);
            let netlist = harness.netlist();
            let topo = harness.topology();
            let wires = ff_wires(netlist, topo);
            let mates =
                search_design(netlist, topo, &wires, &SearchConfig::default()).into_mate_set();
            let golden = golden_run(&harness, cycles + 1).unwrap();
            let report = mate::eval::evaluate(&mates, &golden.trace.truncated(cycles), &wires);
            let ff_of: std::collections::HashMap<_, _> = topo
                .seq_cells()
                .iter()
                .map(|&ff| (netlist.cell(ff).output(), ff))
                .collect();
            for &wire in &wires {
                for start in 0..cycles.saturating_sub(hold) {
                    let all_masked =
                        (start..start + hold).all(|c| report.matrix.is_masked(wire, c));
                    if !all_masked {
                        continue;
                    }
                    let effect = inject_persistent(
                        &harness,
                        &golden,
                        FaultPoint {
                            ff: ff_of[&wire],
                            wire,
                            cycle: start,
                        },
                        hold,
                    )
                    .unwrap();
                    assert!(
                        effect.is_silent(),
                        "seed {seed} wire {} start {start}: {effect}",
                        netlist.net(wire).name()
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 20, "only {checked} persistent upsets exercised");
    }
}
