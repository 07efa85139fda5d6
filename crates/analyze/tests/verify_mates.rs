//! The verifier must prove the paper's MATEs, refute corrupted ones with a
//! concrete counterexample, and produce byte-stable output for any thread
//! count; the enumeration oracle must respect its assignment cap.

use mate::prelude::*;
use mate_analyze::{
    count_verdicts, render_verdicts_json, verify_mate_wire, verify_mate_wire_enum, verify_mates,
    Verdict, VerifyConfig,
};
use mate_netlist::examples::{figure1, figure1b};
use mate_netlist::NetCube;

#[test]
fn figure1_mate_is_proved_exhaustively() {
    let (n, topo) = figure1();
    let d = n.find_net("d").expect("figure1 has wire d");
    let result = search_wire(&n, &topo, d, &SearchConfig::default());
    assert_eq!(result.mates.len(), 1);

    let verdict = verify_mate_wire(
        &n,
        &topo,
        d,
        &result.mates[0].cube,
        &VerifyConfig::default(),
    );
    // Border {c, f, h}; the cube ¬f ∧ h pins two, leaving one free wire:
    // the full space is 2 assignments.
    assert_eq!(verdict, Verdict::Proved { checked: 2 });
}

#[test]
fn corrupted_mate_is_refuted_with_counterexample() {
    let (n, topo) = figure1();
    let d = n.find_net("d").expect("figure1 has wire d");
    let result = search_wire(&n, &topo, d, &SearchConfig::default());
    let good = &result.mates[0].cube;

    // Flip one cube literal: ¬f ∧ h becomes f ∧ h.
    let (flip_net, flip_pol) = good.literals().next().expect("cube has literals");
    let corrupted = NetCube::from_literals(good.literals().map(|(net, pol)| {
        if net == flip_net {
            (net, !pol)
        } else {
            (net, pol)
        }
    }))
    .expect("flipping one literal keeps the cube consistent");
    assert_ne!(&corrupted, good);
    let _ = flip_pol;

    let verdict = verify_mate_wire(&n, &topo, d, &corrupted, &VerifyConfig::default());
    let Verdict::Refuted { counterexample } = verdict else {
        panic!("corrupted MATE must be refuted, got {verdict:?}");
    };
    // The counterexample pins the full border, including the flipped
    // literal, and names a real endpoint net.
    assert_eq!(counterexample.assignment.len(), 3);
    assert_eq!(
        counterexample
            .assignment
            .iter()
            .find(|&&(net, _)| net == flip_net)
            .map(|&(_, v)| v),
        Some(!flip_pol)
    );
    assert!(counterexample.endpoint.index() < n.num_nets());
    // The assignment is sorted by net id (determinism contract).
    let mut sorted = counterexample.assignment.clone();
    sorted.sort_unstable();
    assert_eq!(counterexample.assignment, sorted);
}

#[test]
fn cap_below_space_size_yields_bounded() {
    let (n, topo) = figure1();
    let d = n.find_net("d").expect("figure1 has wire d");
    let result = search_wire(&n, &topo, d, &SearchConfig::default());

    let verdict = verify_mate_wire_enum(&n, &topo, d, &result.mates[0].cube, 1);
    // One free border wire -> 2 assignments total, capped at 1.
    assert_eq!(verdict, Verdict::Bounded { checked: 1 });
}

#[test]
fn searched_design_verifies_clean_any_thread_count() {
    let (n, topo) = figure1b();
    let wires = ff_wires(&n, &topo);
    let mates = search_design(&n, &topo, &wires, &SearchConfig::default()).into_mate_set();
    assert!(!mates.is_empty(), "figure1b search finds MATEs");

    let single = verify_mates(
        &n,
        &topo,
        &mates,
        &VerifyConfig {
            threads: 1,
            ..VerifyConfig::default()
        },
    );
    let counts = count_verdicts(&single);
    assert_eq!(counts.refuted, 0, "search-produced MATEs must verify");
    assert!(counts.proved > 0);

    // Byte-stable across thread counts: the rendered JSON must be identical.
    for threads in [2, 4] {
        let multi = verify_mates(
            &n,
            &topo,
            &mates,
            &VerifyConfig {
                threads,
                ..VerifyConfig::default()
            },
        );
        assert_eq!(single, multi);
        assert_eq!(
            render_verdicts_json(&n, &single),
            render_verdicts_json(&n, &multi)
        );
    }
}
