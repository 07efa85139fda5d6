//! Greedy top-N MATE selection (step 3 of Section 4).
//!
//! Each MATE covers a set of fault-space points on the exemplary trace: the
//! `(wire, cycle)` pairs where the wire is in its masked list and its cube
//! is true.  Selection is greedy maximum coverage: repeatedly pick the MATE
//! with the largest *marginal* gain — the points it covers that no earlier
//! pick already covers — until no MATE adds anything.  The top-N MATEs by
//! pick order form the subset synthesized into the HAFI platform.
//!
//! The production path ([`rank`]) runs lazy-greedy (CELF): coverage lives in
//! packed 64-cycle words (popcount gains, AND-NOT marginals) and a max-heap
//! keeps *stale* gains, re-evaluating only the top candidate — marginal
//! gains never grow as the covered set grows (submodularity), so a stale
//! bound that still tops the heap after refresh is exact.  This removes the O(|MATEs|² · points)
//! rescan of eager greedy while staying bit-identical to the eager scalar
//! reference ([`rank_eager`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use mate_netlist::NetId;
use mate_sim::{TransposedTrace, WaveTrace};

use crate::mates::MateSet;

/// The outcome of rating a MATE set against a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ranking {
    /// MATE indices in greedy pick order: descending marginal hit count,
    /// ties by ascending index; zero-gain MATEs trail in index order.
    pub order: Vec<usize>,
    /// Marginal hit count per MATE at the moment it was picked (indexed
    /// like the input set).
    pub hits: Vec<usize>,
}

impl Ranking {
    /// The indices of the `n` highest-rated MATEs (clamped to the ranked
    /// length, so `n > len` returns everything instead of panicking).
    pub fn top(&self, n: usize) -> &[usize] {
        &self.order[..n.min(self.order.len())]
    }
}

/// Per-mate wire indices restricted to the fault space.
fn masked_indices(mates: &MateSet, wires: &[NetId]) -> Vec<Vec<usize>> {
    let wire_index: HashMap<NetId, usize> =
        wires.iter().enumerate().map(|(i, &w)| (w, i)).collect();
    mates
        .iter()
        .map(|m| {
            m.masked
                .iter()
                .filter_map(|w| wire_index.get(w).copied())
                .collect()
        })
        .collect()
}

/// Appends the never-picked MATEs (zero marginal gain) in index order.
fn drain_zero_gain(order: &mut Vec<usize>, picked: &[bool]) {
    order.extend((0..picked.len()).filter(|&i| !picked[i]));
}

/// Rates every MATE by its marginal fault-space contribution on `trace`
/// (lazy-greedy over packed coverage words, 64 cycles per popcount;
/// transposes the trace once).
pub fn rank(mates: &MateSet, trace: &WaveTrace, wires: &[NetId]) -> Ranking {
    rank_transposed(mates, &TransposedTrace::from_trace(trace), wires)
}

/// Lazy-greedy (CELF) ranking over an already-transposed trace.
///
/// A mate's coverage factorizes: it covers `masked wires × trigger cycles`,
/// so one 64-cycle trigger word per mate and trace word plus one
/// covered-word row per wire is the whole state.  Marginal gain = Σ over
/// the mate's wires of `popcount(trigger & !covered[wire])` — a pure
/// popcount sum.
pub fn rank_transposed(mates: &MateSet, trace: &TransposedTrace, wires: &[NetId]) -> Ranking {
    let indices = masked_indices(mates, wires);
    let num_words = trace.num_words();

    // Trigger bit-planes, only for mates that can cover anything.
    let triggers: Vec<Option<Vec<u64>>> = mates
        .iter()
        .zip(&indices)
        .map(|(m, idx)| {
            if idx.is_empty() {
                return None;
            }
            let words: Vec<u64> = (0..num_words)
                .map(|w| trace.cube_word(&m.cube, w))
                .collect();
            words.iter().any(|&w| w != 0).then_some(words)
        })
        .collect();

    let mut covered = vec![0u64; wires.len() * num_words];
    let gain_of = |i: usize, covered: &[u64]| -> usize {
        let trig = triggers[i].as_ref().expect("gain of coverless mate");
        indices[i]
            .iter()
            .map(|&w| {
                trig.iter()
                    .zip(&covered[w * num_words..(w + 1) * num_words])
                    .map(|(&t, &c)| (t & !c).count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    };

    // CELF heap: (stale gain, index ascending on ties, commit-count stamp).
    // An entry is fresh iff its stamp equals the current number of commits —
    // nothing changed the covered set since the gain was computed.
    let mut heap: BinaryHeap<(usize, Reverse<usize>, usize)> = (0..mates.len())
        .filter(|&i| triggers[i].is_some())
        .map(|i| (gain_of(i, &covered), Reverse(i), 0))
        .filter(|&(g, _, _)| g > 0)
        .collect();

    let mut hits = vec![0usize; mates.len()];
    let mut order = Vec::with_capacity(mates.len());
    let mut picked = vec![false; mates.len()];
    let mut commits = 0usize;

    while let Some((gain, Reverse(i), stamp)) = heap.pop() {
        if stamp != commits {
            // Stale: refresh and re-queue.  Submodularity guarantees the
            // fresh gain is ≤ the stale one, so the heap order stays sound.
            let fresh = gain_of(i, &covered);
            debug_assert!(fresh <= gain);
            if fresh > 0 {
                heap.push((fresh, Reverse(i), commits));
            }
            continue;
        }
        if gain == 0 {
            break;
        }
        // Fresh maximum: commit the pick.
        let trig = triggers[i].as_ref().expect("picked coverless mate");
        for &w in &indices[i] {
            for (c, &t) in covered[w * num_words..(w + 1) * num_words]
                .iter_mut()
                .zip(trig)
            {
                *c |= t;
            }
        }
        hits[i] = gain;
        order.push(i);
        picked[i] = true;
        commits += 1;
    }

    drain_zero_gain(&mut order, &picked);
    Ranking { order, hits }
}

/// Eager greedy scalar reference for [`rank`]: per-cycle cube evaluation,
/// boolean point set, and a full rescan of all candidates on every pick —
/// the O(|MATEs|² · points) baseline of `BENCH_evalrank.json`.  Kept to
/// prove the lazy path exact; both produce identical [`Ranking`]s.
pub fn rank_eager(mates: &MateSet, trace: &WaveTrace, wires: &[NetId]) -> Ranking {
    let indices = masked_indices(mates, wires);
    let cycles = trace.num_cycles();

    // Per-mate triggered cycles, per-cycle scalar evaluation.
    let triggered: Vec<Vec<usize>> = mates
        .iter()
        .zip(&indices)
        .map(|(m, idx)| {
            if idx.is_empty() {
                return Vec::new();
            }
            (0..cycles)
                .filter(|&c| m.cube.eval(trace.cycle_reader(c)))
                .collect()
        })
        .collect();

    let mut covered = vec![false; wires.len() * cycles];
    let gain_of = |i: usize, covered: &[bool]| -> usize {
        indices[i]
            .iter()
            .map(|&w| {
                triggered[i]
                    .iter()
                    .filter(|&&c| !covered[w * cycles + c])
                    .count()
            })
            .sum()
    };

    let mut hits = vec![0usize; mates.len()];
    let mut order = Vec::with_capacity(mates.len());
    let mut picked = vec![false; mates.len()];

    loop {
        // Full rescan: recompute every unpicked candidate's marginal gain.
        let mut best = 0usize;
        let mut best_i = None;
        for (i, &done) in picked.iter().enumerate() {
            if done {
                continue;
            }
            let g = gain_of(i, &covered);
            if g > best {
                best = g;
                best_i = Some(i);
            }
        }
        let Some(i) = best_i else { break };
        for &w in &indices[i] {
            for &c in &triggered[i] {
                covered[w * cycles + c] = true;
            }
        }
        hits[i] = best;
        order.push(i);
        picked[i] = true;
    }

    drain_zero_gain(&mut order, &picked);
    Ranking { order, hits }
}

/// Selects the top-`n` MATEs for `trace` (the paper's "selected for fib()" /
/// "selected for conv()" subsets).
pub fn select_top_n(mates: &MateSet, trace: &WaveTrace, wires: &[NetId], n: usize) -> MateSet {
    let ranking = rank(mates, trace, wires);
    mates.subset(ranking.top(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::mates::{summarize, Mate};
    use mate_netlist::NetCube;

    fn net(i: usize) -> NetId {
        NetId::from_index(i)
    }

    /// Builds a trace over 3 nets with the given per-cycle values.
    fn trace_of(rows: &[[bool; 3]]) -> WaveTrace {
        let mut t = WaveTrace::new(3);
        for row in rows {
            t.push_cycle(row);
        }
        t
    }

    #[test]
    fn hits_count_marginal_coverage() {
        // Two MATEs masking the same wire 2; MATE A triggers on net0, MATE B
        // on net1.  When both trigger, only the bigger one scores.
        let big = Mate {
            cube: NetCube::literal(net(0), true),
            masked: vec![net(2), net(1)],
        };
        let small = Mate {
            cube: NetCube::literal(net(1), true),
            masked: vec![net(2)],
        };
        let mates = summarize([big, small]);
        let wires = [net(1), net(2)];
        // cycle 0: both trigger; cycle 1: only small's net1=1.
        let trace = trace_of(&[[true, true, false], [false, true, false]]);
        let ranking = rank(&mates, &trace, &wires);
        // Mate 0 (big, sorted first by summarize) masks net1+net2 in cycle 0
        // → 2 hits.  Small masks net2 in cycle 1 only → 1 hit.
        assert_eq!(ranking.hits, vec![2, 1]);
        assert_eq!(ranking.order, vec![0, 1]);
    }

    #[test]
    fn lazy_and_eager_agree() {
        // Overlapping coverage forces real marginal updates in the heap.
        let mates = summarize([
            Mate {
                cube: NetCube::literal(net(0), true),
                masked: vec![net(1), net(2)],
            },
            Mate {
                cube: NetCube::literal(net(1), true),
                masked: vec![net(2)],
            },
            Mate {
                cube: NetCube::literal(net(0), false),
                masked: vec![net(1)],
            },
            Mate {
                cube: NetCube::from_literals([(net(0), true), (net(1), false)]).unwrap(),
                masked: vec![net(2), net(1)],
            },
        ]);
        let wires = [net(1), net(2)];
        let trace = trace_of(&[
            [true, true, false],
            [false, true, false],
            [true, false, true],
            [false, false, false],
            [true, true, true],
        ]);
        assert_eq!(
            rank(&mates, &trace, &wires),
            rank_eager(&mates, &trace, &wires)
        );
    }

    #[test]
    fn lazy_and_eager_agree_across_word_boundary() {
        // Overlapping coverage over a horizon straddling the 64-cycle word
        // boundary, so multi-word (and partial-word) popcounts matter.
        let mates = summarize([
            Mate {
                cube: NetCube::literal(net(0), true),
                masked: vec![net(1), net(2)],
            },
            Mate {
                cube: NetCube::literal(net(1), true),
                masked: vec![net(2)],
            },
            Mate {
                cube: NetCube::from_literals([(net(0), true), (net(1), false)]).unwrap(),
                masked: vec![net(2), net(1)],
            },
        ]);
        let wires = [net(1), net(2)];
        let rows: Vec<[bool; 3]> = (0..70)
            .map(|c| [c % 2 == 0, c % 3 == 0, c % 5 == 0])
            .collect();
        let trace = trace_of(&rows);
        let transposed = TransposedTrace::from_trace(&trace);
        let eager = rank_eager(&mates, &trace, &wires);
        assert_eq!(rank_transposed(&mates, &transposed, &wires), eager);
    }

    #[test]
    fn zero_gain_mates_trail_in_index_order() {
        let mates = summarize([
            Mate::single(NetCube::literal(net(0), true), net(2)), // never triggers
            Mate::single(NetCube::literal(net(1), true), net(2)),
            Mate::single(NetCube::literal(net(2), true), net(0)), // net0 not a wire
        ]);
        let trace = trace_of(&[[false, true, true]]);
        let wires = [net(1), net(2)];
        let ranking = rank(&mates, &trace, &wires);
        assert_eq!(ranking, rank_eager(&mates, &trace, &wires));
        // Exactly one pick; the other two drain by ascending index.
        assert_eq!(ranking.hits.iter().filter(|&&h| h > 0).count(), 1);
        assert_eq!(ranking.order.len(), 3);
        let picked = ranking.order[0];
        let mut rest: Vec<usize> = (0..3).filter(|&i| i != picked).collect();
        rest.sort_unstable();
        assert_eq!(&ranking.order[1..], &rest[..]);
    }

    #[test]
    fn top_clamps_to_ranked_length() {
        let ranking = Ranking {
            order: vec![2, 0, 1],
            hits: vec![1, 0, 3],
        };
        assert_eq!(ranking.top(2), &[2, 0]);
        assert_eq!(ranking.top(3), &[2, 0, 1]);
        // Beyond the ranked length: clamped, not a panic.
        assert_eq!(ranking.top(99), &[2, 0, 1]);
        assert_eq!(ranking.top(0), &[] as &[usize]);
        let empty = Ranking {
            order: vec![],
            hits: vec![],
        };
        assert_eq!(empty.top(5), &[] as &[usize]);
    }

    #[test]
    fn top_n_subsets() {
        let a = Mate::single(NetCube::literal(net(0), true), net(2));
        let b = Mate::single(NetCube::literal(net(1), true), net(2));
        let mates = summarize([a, b]);
        let trace = trace_of(&[[false, true, false], [false, true, false]]);
        let wires = [net(2)];
        let top1 = select_top_n(&mates, &trace, &wires, 1);
        assert_eq!(top1.len(), 1);
        // The selected MATE is the net1 one (it triggered twice).
        assert_eq!(
            top1.mates()[0].cube.literals().collect::<Vec<_>>(),
            vec![(net(1), true)]
        );
        // Selecting more than available just returns everything.
        assert_eq!(select_top_n(&mates, &trace, &wires, 99).len(), 2);
    }

    #[test]
    fn top_n_fraction_is_monotone() {
        // More selected MATEs can never prune less.
        let mates = summarize([
            Mate::single(NetCube::literal(net(0), true), net(2)),
            Mate::single(NetCube::literal(net(1), true), net(2)),
            Mate::single(NetCube::literal(net(0), false), net(1)),
        ]);
        let trace = trace_of(&[
            [true, false, false],
            [false, true, false],
            [true, true, false],
            [false, false, false],
        ]);
        let wires = [net(1), net(2)];
        let mut last = 0.0;
        for n in 1..=3 {
            let sel = select_top_n(&mates, &trace, &wires, n);
            let frac = evaluate(&sel, &trace, &wires).masked_fraction();
            assert!(frac >= last, "top-{n}: {frac} < {last}");
            last = frac;
        }
    }

    #[test]
    fn full_set_equals_topn_with_all() {
        let mates = summarize([
            Mate::single(NetCube::literal(net(0), true), net(2)),
            Mate::single(NetCube::literal(net(1), false), net(1)),
        ]);
        let trace = trace_of(&[[true, false, false], [false, true, true]]);
        let wires = [net(1), net(2)];
        let full = evaluate(&mates, &trace, &wires).masked_fraction();
        let all = select_top_n(&mates, &trace, &wires, mates.len());
        let sel = evaluate(&all, &trace, &wires).masked_fraction();
        assert_eq!(full.to_bits(), sel.to_bits());
    }
}
