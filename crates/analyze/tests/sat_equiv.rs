//! Equivalence of the SAT proof path and the enumeration oracle on random
//! seeded circuits: on every cone with at most 16 free border wires, the
//! CDCL verdict must match exhaustive enumeration — UNSAT ⇔ no escaping
//! assignment exists, SAT ⇔ one does (and the decoded model escapes under
//! enumeration too).
//! The SAT batch verifier must also stay bit-identical across thread
//! counts.

use proptest::prelude::*;

use mate::prelude::*;
use mate_analyze::{
    render_verdicts_json, verify_mate_wire_enum, verify_mate_wire_sat, verify_mates, FaultConeCnf,
    Verdict, VerifyConfig,
};
use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_netlist::{NetCube, SoaNetlist};

/// Free-border ceiling: `2^16` assignments keep the enum reference exact.
const MAX_FREE: usize = 16;

/// Flips the polarity of the first literal, producing a (usually) unsound
/// cube so the equivalence check exercises the SAT/Refuted side too.
fn corrupt(cube: &NetCube) -> NetCube {
    let (flip_net, _) = cube.literals().next().expect("cube has literals");
    NetCube::from_literals(cube.literals().map(|(net, pol)| {
        if net == flip_net {
            (net, !pol)
        } else {
            (net, pol)
        }
    }))
    .expect("flipping one literal keeps the cube consistent")
}

/// Enumeration cap covering every admitted cone exactly.
const ENUM_CAP: u64 = 1 << MAX_FREE;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cdcl_verdicts_match_exhaustive_enumeration(
        seed in 0u64..1_000_000,
        inputs in 1usize..5,
        ffs in 1usize..8,
        gates in 1usize..40,
        outputs in 1usize..3,
    ) {
        let cfg = RandomCircuitConfig { inputs, ffs, gates, outputs };
        let (n, topo) = random_circuit(cfg, seed);
        let soa = SoaNetlist::build(&n, &topo);

        for &wire in &ff_wires(&n, &topo) {
            let cnf = FaultConeCnf::new(&n, &soa, wire);
            let result = search_wire(&n, &topo, wire, &SearchConfig::default());
            for mate in result.mates.iter().take(4) {
                for cube in [mate.cube.clone(), corrupt(&mate.cube)] {
                    if cnf.free_border(&cube) > MAX_FREE {
                        continue;
                    }
                    let enum_v = verify_mate_wire_enum(&n, &topo, wire, &cube, ENUM_CAP);
                    let (sat_v, _) = verify_mate_wire_sat(&n, &soa, wire, &cube, 1_000_000);
                    match (&enum_v, &sat_v) {
                        // UNSAT ⇔ the whole space masks, same space size.
                        (Verdict::Proved { checked: a }, Verdict::Proved { checked: b }) => {
                            prop_assert_eq!(a, b, "certificate space sizes differ");
                        }
                        // SAT ⇔ an escape exists; the decoded model must
                        // itself escape when enumeration is pinned to it.
                        (
                            Verdict::Refuted { .. },
                            Verdict::Refuted { counterexample },
                        ) => {
                            let pinned = NetCube::from_literals(
                                cube.literals()
                                    .chain(counterexample.assignment.iter().copied()),
                            )
                            .expect("witness cannot contradict its cube");
                            let replay =
                                verify_mate_wire_enum(&n, &topo, wire, &pinned, ENUM_CAP);
                            let Verdict::Refuted { counterexample: again } = replay else {
                                return Err(TestCaseError::Fail(format!(
                                    "SAT witness does not escape under enumeration: {replay:?}"
                                )));
                            };
                            prop_assert_eq!(&again, counterexample);
                        }
                        _ => {
                            return Err(TestCaseError::Fail(format!(
                                "SAT/enumeration disagreement on wire {wire:?}: \
                                 enum {enum_v:?} vs sat {sat_v:?}"
                            )));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sat_batch_verifier_is_thread_count_invariant(seed in 0u64..1_000_000) {
        let cfg = RandomCircuitConfig::default();
        let (n, topo) = random_circuit(cfg, seed);
        let wires = ff_wires(&n, &topo);
        let mates = search_design(&n, &topo, &wires, &SearchConfig::default()).into_mate_set();
        if mates.is_empty() {
            return Ok(());
        }

        let single = verify_mates(
            &n,
            &topo,
            &mates,
            &VerifyConfig { threads: 1, ..VerifyConfig::default() },
        );
        for threads in [2, 5] {
            let multi = verify_mates(
                &n,
                &topo,
                &mates,
                &VerifyConfig { threads, ..VerifyConfig::default() },
            );
            prop_assert_eq!(&single, &multi);
            prop_assert_eq!(
                render_verdicts_json(&n, &single),
                render_verdicts_json(&n, &multi)
            );
        }
    }
}
