//! The optimized trust-propagation engine must be a pure performance
//! change: the scratch/memoized one-shot propagation and the incremental
//! re-propagation along repair paths each have to be bit-identical to the
//! from-scratch reference on arbitrary circuits and cubes, and the
//! work-stealing whole-design scheduler to the single-threaded search.
//! (The whole search on the reference engine is compared against the
//! production search by the `search` module's unit tests, which can reach
//! the test-only reference verifiers.)

use proptest::prelude::*;

use mate::propagate::PropagationScratch;
use mate::search::{propagate_cube_reference, search_design, SearchConfig, SearchStrategy};
use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_netlist::{FaultCone, NetCube, NetId, Netlist, SoaNetlist, Topology};

/// SplitMix-style deterministic stream: one value per (seed, tag, index).
fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag << 32 | index);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn circuit(seed: u64) -> (Netlist, Topology) {
    let cfg = RandomCircuitConfig {
        inputs: 4,
        ffs: 8,
        gates: 36,
        outputs: 3,
    };
    random_circuit(cfg, seed)
}

/// A random cube over the whole net universe (border wires, cone-internal
/// wires, even the origin — the reference accepts any of them, so the
/// optimized engine must too).
fn random_cube(seed: u64, tag: u64, num_nets: usize) -> Option<NetCube> {
    let nlits = 1 + (mix(seed, tag, 0) % 4) as usize;
    NetCube::from_literals((0..nlits).map(|l| {
        let r = mix(seed, tag.wrapping_add(1), l as u64);
        (
            NetId::from_index((r % num_nets as u64) as usize),
            r >> 32 & 1 == 1,
        )
    }))
}

/// Compares a session's fixpoint against the from-scratch reference for one
/// accumulated cube: masked verdict, first faulty endpoint, and the full
/// possibly-faulty set.
fn assert_matches_reference(
    session: &mate::propagate::ConeSession<'_>,
    netlist: &Netlist,
    cone: &FaultCone,
    origins: &[NetId],
    cube: &NetCube,
) -> Result<(), TestCaseError> {
    let reference = propagate_cube_reference(netlist, cone, origins, cube);
    prop_assert_eq!(session.masked(), reference.masked);
    prop_assert_eq!(
        session.first_faulty_endpoint(),
        reference.first_faulty_endpoint
    );
    for net in 0..netlist.num_nets() {
        let id = NetId::from_index(net);
        prop_assert_eq!(
            session.possibly(id),
            reference.possibly.contains(net),
            "possibly({}) diverges under {:?}",
            net,
            cube
        );
    }
    Ok(())
}

fn small_config(strategy: SearchStrategy, threads: usize) -> SearchConfig {
    SearchConfig {
        depth: 5,
        max_terms: 3,
        max_candidates: 300,
        max_paths: 256,
        threads,
        strategy,
    }
}

/// Strips the timing field so results compare bit-exactly.
fn comparable(
    ds: &mate::search::DesignSearch,
) -> Vec<(NetId, usize, usize, bool, Vec<mate::Mate>)> {
    ds.results
        .iter()
        .map(|r| {
            (
                r.wire,
                r.cone_gates,
                r.candidates_tried,
                r.unmaskable,
                r.mates.clone(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) One-shot scratch/memoized propagation == the reference, for many
    /// cubes over one reused scratch (generation stamping must isolate
    /// candidates from each other).
    #[test]
    fn session_propagation_matches_reference(seed in 0u64..10_000) {
        let (netlist, topo) = circuit(seed);
        let soa = SoaNetlist::build(&netlist, &topo);
        let mut scratch = PropagationScratch::new();
        for (w, &wire) in mate::ff_wires(&netlist, &topo).iter().enumerate().take(4) {
            let cone = FaultCone::compute(&netlist, &topo, wire);
            let readers = cone.reader_index(&netlist);
            let origins = [wire];
            let mut session = scratch.session(&netlist, &soa, &cone, &readers, &origins);
            assert_matches_reference(&session, &netlist, &cone, &origins, &NetCube::top())?;
            for c in 0..6u64 {
                let Some(cube) = random_cube(seed, 10 + 100 * w as u64 + 2 * c, netlist.num_nets())
                else {
                    continue;
                };
                let mark = session.assume(cube.literals());
                assert_matches_reference(&session, &netlist, &cone, &origins, &cube)?;
                session.undo(mark);
                assert_matches_reference(&session, &netlist, &cone, &origins, &NetCube::top())?;
            }
        }
    }

    /// (b) Incremental re-propagation along random repair paths — literals
    /// conjoined one push at a time with interleaved undos — always equals
    /// propagating the accumulated cube from scratch.
    #[test]
    fn incremental_repropagation_matches_from_scratch(seed in 0u64..10_000) {
        let (netlist, topo) = circuit(seed);
        let wires = mate::ff_wires(&netlist, &topo);
        let wire = wires[(mix(seed, 1, 0) % wires.len() as u64) as usize];
        let soa = SoaNetlist::build(&netlist, &topo);
        let cone = FaultCone::compute(&netlist, &topo, wire);
        let readers = cone.reader_index(&netlist);
        let origins = [wire];
        let mut scratch = PropagationScratch::new();
        let mut session = scratch.session(&netlist, &soa, &cone, &readers, &origins);
        // Stack of (accumulated cube, undo mark) mirroring repair_rec.
        let mut stack: Vec<(NetCube, mate::propagate::Mark)> = Vec::new();
        let mut current = NetCube::top();
        for step in 0..24u64 {
            let r = mix(seed, 2, step);
            if r.is_multiple_of(3) && !stack.is_empty() {
                // Roll back to the cube as it was before the popped push.
                let (parent, mark) = stack.pop().unwrap();
                session.undo(mark);
                current = parent;
            } else {
                let lit_net = NetId::from_index((mix(seed, 3, step) % netlist.num_nets() as u64) as usize);
                let lit = NetCube::literal(lit_net, mix(seed, 4, step) & 1 == 1);
                let Some(next) = current.conjoin(&lit) else { continue };
                if next.len() == current.len() {
                    continue;
                }
                let delta = next
                    .literals()
                    .filter(|&(n, _)| current.polarity_of(n).is_none());
                let mark = session.assume(delta);
                stack.push((current.clone(), mark));
                current = next;
            }
            assert_matches_reference(&session, &netlist, &cone, &origins, &current)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (c) The work-stealing `search_design` is scheduling-invisible: every
    /// thread count gives the single-threaded per-wire results for both
    /// strategies.
    #[test]
    fn design_search_invariant_under_threads(seed in 0u64..10_000) {
        let (netlist, topo) = circuit(seed);
        let wires = mate::ff_wires(&netlist, &topo);
        for strategy in [SearchStrategy::Repair, SearchStrategy::Exhaustive] {
            let baseline = search_design(&netlist, &topo, &wires, &small_config(strategy, 1));
            let expected = comparable(&baseline);
            for threads in [2, 8] {
                let parallel =
                    search_design(&netlist, &topo, &wires, &small_config(strategy, threads));
                prop_assert_eq!(
                    &comparable(&parallel),
                    &expected,
                    "{:?} with {} threads diverges from the 1-thread search",
                    strategy,
                    threads
                );
            }
        }
    }
}
