//! The SAT proof path must agree with the exhaustive enumeration oracle on
//! every certificate it issues: proved MATEs carry the same space size,
//! refuted MATEs carry a counterexample that the enum path reproduces
//! exactly, and a hand-corrupted MATE is refuted by both with matching
//! witnesses.

use mate::prelude::*;
use mate_analyze::{verify_mate_wire_enum, verify_mate_wire_sat, Counterexample, Verdict};
use mate_netlist::examples::{figure1, figure1b};
use mate_netlist::{NetCube, NetId, Netlist, SoaNetlist, Topology};

/// Flips the polarity of the first literal, producing an unsound cube.
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

/// Enumeration cap large enough that nothing in these fixtures is ever
/// `Bounded`.
const ENUM_CAP: u64 = 1 << 20;

/// Replays a SAT counterexample through the enumeration path: the cube
/// strengthened with the full witness assignment pins every border wire,
/// so the enum verifier enumerates exactly that one point — and must
/// refute it with the identical witness.
fn enum_reproduces(
    n: &Netlist,
    topo: &Topology,
    wire: NetId,
    cube: &NetCube,
    witness: &Counterexample,
) {
    let strengthened =
        NetCube::from_literals(cube.literals().chain(witness.assignment.iter().copied()))
            .expect("a satisfying witness cannot contradict its own cube");
    let verdict = verify_mate_wire_enum(n, topo, wire, &strengthened, ENUM_CAP);
    let Verdict::Refuted { counterexample } = verdict else {
        panic!("SAT witness must escape under enumeration, got {verdict:?}");
    };
    assert_eq!(&counterexample, witness, "replayed witness must match");
}

#[test]
fn proved_certificates_cover_the_same_space_as_enumeration() {
    for (n, topo) in [figure1(), figure1b()] {
        let soa = SoaNetlist::build(&n, &topo);
        for &wire in &ff_wires(&n, &topo) {
            let result = search_wire(&n, &topo, wire, &SearchConfig::default());
            for mate in &result.mates {
                let enum_v = verify_mate_wire_enum(&n, &topo, wire, &mate.cube, ENUM_CAP);
                let (sat_v, stats) = verify_mate_wire_sat(&n, &soa, wire, &mate.cube, 1_000_000);
                let Verdict::Proved { checked: want } = enum_v else {
                    panic!("searched MATE must verify exhaustively, got {enum_v:?}");
                };
                assert_eq!(
                    sat_v,
                    Verdict::Proved { checked: want },
                    "SAT certificate must cover the same {want}-assignment space"
                );
                // A proof over 2^free assignments may finish without a
                // single conflict, but propagation always runs.
                assert!(stats.propagations > 0 || want <= 1);
            }
        }
    }
}

#[test]
fn sat_refutations_replay_through_the_enum_path() {
    for (n, topo) in [figure1(), figure1b()] {
        let soa = SoaNetlist::build(&n, &topo);
        for &wire in &ff_wires(&n, &topo) {
            let result = search_wire(&n, &topo, wire, &SearchConfig::default());
            for mate in &result.mates {
                let bad = corrupt(&mate.cube);
                let (sat_v, _) = verify_mate_wire_sat(&n, &soa, wire, &bad, 1_000_000);
                // A flipped literal is not guaranteed to be unsound on
                // every fixture wire; the regression is about the Refuted
                // ones: each witness must reproduce under enumeration.
                if let Verdict::Refuted { counterexample } = sat_v {
                    enum_reproduces(&n, &topo, wire, &bad, &counterexample);
                }
            }
        }
    }
}

#[test]
fn corrupted_figure1_mate_refuted_by_both_backends_with_matching_witnesses() {
    let (n, topo) = figure1();
    let soa = SoaNetlist::build(&n, &topo);
    let d = n.find_net("d").expect("figure1 has wire d");
    let result = search_wire(&n, &topo, d, &SearchConfig::default());
    let bad = corrupt(&result.mates[0].cube);

    let enum_v = verify_mate_wire_enum(&n, &topo, d, &bad, ENUM_CAP);
    let (sat_v, stats) = verify_mate_wire_sat(&n, &soa, d, &bad, 1_000_000);

    let Verdict::Refuted {
        counterexample: enum_cx,
    } = enum_v
    else {
        panic!("enumeration must refute the corrupted MATE, got {enum_v:?}");
    };
    let Verdict::Refuted {
        counterexample: sat_cx,
    } = sat_v
    else {
        panic!("SAT must refute the corrupted MATE, got {sat_v:?}");
    };

    // Both witnesses pin the full 3-wire border and escape; each one
    // reproduces through the enumeration path.
    assert_eq!(enum_cx.assignment.len(), 3);
    assert_eq!(sat_cx.assignment.len(), 3);
    enum_reproduces(&n, &topo, d, &bad, &sat_cx);
    enum_reproduces(&n, &topo, d, &bad, &enum_cx);
    // Deterministic solver, deterministic decode: the witnesses agree.
    assert_eq!(sat_cx, enum_cx);
    let _ = stats;
}
