//! Trace replay and fault-space pruning evaluation (Section 5.3).
//!
//! Evaluation is lane-parallel on the cycle axis: the trace is transposed
//! into per-net bit-planes ([`TransposedTrace`]) once, and every MATE cube
//! then evaluates over 64 cycles with one AND/ANDN per literal
//! ([`TransposedTrace::cube_word`]).  The per-cycle scalar path is kept as
//! [`evaluate_scalar`], the bit-identical reference the equivalence tests
//! and benches compare against.

use std::collections::HashMap;
use std::fmt;

use mate_netlist::{NetId, WORD_LANES};
use mate_sim::{TransposedTrace, WaveTrace};

use crate::mates::{Mate, MateSet};

/// The pruned fault space: for every `(wire, cycle)` point, whether some
/// MATE proved the fault benign.
///
/// This is the data structure rendered as the dot matrix of Figure 1b.
/// Storage is wire-major packed words — bit `c % 64` of word `c / 64` in a
/// wire's row is cycle `c` — so a MATE's 64-cycle trigger word ORs straight
/// into a row ([`PruneMatrix::mark_cycle_word`]) and coverage counts are
/// popcounts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PruneMatrix {
    wires: Vec<NetId>,
    wire_index: HashMap<NetId, usize>,
    cycles: usize,
    words_per_wire: usize,
    words: Vec<u64>,
}

impl PruneMatrix {
    /// Creates an all-unpruned matrix.
    pub fn new(wires: &[NetId], cycles: usize) -> Self {
        let wire_index = wires.iter().enumerate().map(|(i, &w)| (w, i)).collect();
        let words_per_wire = cycles.div_ceil(WORD_LANES);
        Self {
            wires: wires.to_vec(),
            wire_index,
            cycles,
            words_per_wire,
            words: vec![0u64; wires.len() * words_per_wire],
        }
    }

    /// The faulty wires spanning the matrix.
    pub fn wires(&self) -> &[NetId] {
        &self.wires
    }

    /// Number of cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The row position of `wire` in [`PruneMatrix::wires`], if present.
    pub fn wire_position(&self, wire: NetId) -> Option<usize> {
        self.wire_index.get(&wire).copied()
    }

    /// Marks `(wire index, cycle)` as benign.  The index refers to the
    /// position in [`PruneMatrix::wires`].
    ///
    /// # Panics
    ///
    /// Panics when the index or cycle is out of range.
    pub fn mark_index(&mut self, wire_idx: usize, cycle: usize) {
        assert!(wire_idx < self.wires.len() && cycle < self.cycles);
        self.words[wire_idx * self.words_per_wire + cycle / WORD_LANES] |=
            1u64 << (cycle % WORD_LANES);
    }

    /// ORs a 64-cycle trigger word into a wire's row: bit `c` of `mask`
    /// marks cycle `64 * word + c` as benign.  This is the word-parallel
    /// marking path of [`evaluate_transposed`].
    ///
    /// # Panics
    ///
    /// Panics when the index or word is out of range, or `mask` has bits at
    /// cycles beyond the matrix (which would corrupt the popcount-based
    /// [`PruneMatrix::masked_points`]).
    pub fn mark_cycle_word(&mut self, wire_idx: usize, word: usize, mask: u64) {
        assert!(wire_idx < self.wires.len() && word < self.words_per_wire);
        let tail = self.cycles - word * WORD_LANES;
        if tail < WORD_LANES {
            assert_eq!(
                mask >> tail,
                0,
                "mask has bits beyond cycle {}",
                self.cycles
            );
        }
        self.words[wire_idx * self.words_per_wire + word] |= mask;
    }

    /// One wire's packed benign-cycle row (bit `c % 64` of word `c / 64` is
    /// cycle `c`).
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    pub fn row_words(&self, wire_idx: usize) -> &[u64] {
        assert!(wire_idx < self.wires.len());
        &self.words[wire_idx * self.words_per_wire..(wire_idx + 1) * self.words_per_wire]
    }

    /// Whether the fault `(wire, cycle)` was proven benign.
    ///
    /// # Panics
    ///
    /// Panics if the wire is not part of the matrix or the cycle is out of
    /// range.
    pub fn is_masked(&self, wire: NetId, cycle: usize) -> bool {
        assert!(cycle < self.cycles, "cycle out of range");
        let idx = self.wire_index[&wire];
        self.words[idx * self.words_per_wire + cycle / WORD_LANES] & (1u64 << (cycle % WORD_LANES))
            != 0
    }

    /// Number of pruned fault-space points.
    pub fn masked_points(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total fault-space size (`wires × cycles`).
    pub fn total_points(&self) -> usize {
        self.wires.len() * self.cycles
    }

    /// Pruned fraction of the fault space (the paper's "Masked Faults"
    /// percentage, as a ratio in `0.0..=1.0`).
    pub fn masked_fraction(&self) -> f64 {
        if self.total_points() == 0 {
            0.0
        } else {
            self.masked_points() as f64 / self.total_points() as f64
        }
    }

    /// Renders the matrix like Figure 1b: one row per wire, `●` for a
    /// potentially effective fault, `○` for a pruned (benign) one.
    pub fn render(&self, name_of: impl Fn(NetId) -> String) -> String {
        let mut out = String::new();
        for (i, &wire) in self.wires.iter().enumerate() {
            let name = name_of(wire);
            out.push_str(&format!("{name:>8} "));
            let row = self.row_words(i);
            for cycle in 0..self.cycles {
                out.push(
                    if row[cycle / WORD_LANES] & (1u64 << (cycle % WORD_LANES)) != 0 {
                        '○'
                    } else {
                        '●'
                    },
                );
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for PruneMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} fault-space points pruned ({:.2}%)",
            self.masked_points(),
            self.total_points(),
            100.0 * self.masked_fraction()
        )
    }
}

/// Result of replaying a trace against a MATE set.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// The pruned fault space.
    pub matrix: PruneMatrix,
    /// Per-MATE trigger counts (cycles in which the cube was true).
    pub triggers: Vec<usize>,
    /// Number of *effective* MATEs — triggered at least once on this trace.
    pub effective: usize,
    /// Mean input count of the effective MATEs.
    pub avg_inputs: f64,
    /// Standard deviation of the effective MATEs' input counts.
    pub std_inputs: f64,
}

impl EvalReport {
    /// Pruned fraction of the fault space.
    pub fn masked_fraction(&self) -> f64 {
        self.matrix.masked_fraction()
    }
}

/// Restricts each MATE's masked list to wire indices of the fault space and
/// drops MATEs that can never mark a point.
fn relevant_mates<'m>(
    mates: &'m MateSet,
    matrix: &PruneMatrix,
) -> Vec<(usize, &'m Mate, Vec<usize>)> {
    mates
        .iter()
        .enumerate()
        .filter_map(|(i, m)| {
            let indices: Vec<usize> = m
                .masked
                .iter()
                .filter_map(|w| matrix.wire_index.get(w).copied())
                .collect();
            (!indices.is_empty()).then_some((i, m, indices))
        })
        .collect()
}

/// Turns the raw marking state into an [`EvalReport`] with the effective-MATE
/// statistics of the paper's Table 1.
fn finish_report(mates: &MateSet, matrix: PruneMatrix, triggers: Vec<usize>) -> EvalReport {
    let effective_idx: Vec<usize> = (0..mates.len()).filter(|&i| triggers[i] > 0).collect();
    let effective = effective_idx.len();
    let (avg_inputs, std_inputs) = if effective == 0 {
        (0.0, 0.0)
    } else {
        let lens: Vec<f64> = effective_idx
            .iter()
            .map(|&i| mates.mates()[i].num_inputs() as f64)
            .collect();
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        let var = lens.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / lens.len() as f64;
        (mean, var.sqrt())
    };

    EvalReport {
        matrix,
        triggers,
        effective,
        avg_inputs,
        std_inputs,
    }
}

/// Replays `trace` and computes which fault-space points over `wires` are
/// pruned by `mates`.
///
/// MATE cubes are evaluated against the *fault-free* trace of each cycle —
/// border wires are outside the fault cone, so their recorded values are
/// valid even in the presence of the hypothetical fault.
///
/// The trace is transposed once and each cube then evaluates 64 cycles per
/// step; [`evaluate_scalar`] is the bit-identical per-cycle reference.
pub fn evaluate(mates: &MateSet, trace: &WaveTrace, wires: &[NetId]) -> EvalReport {
    evaluate_transposed(mates, &TransposedTrace::from_trace(trace), wires)
}

/// Word-parallel evaluation over an already-transposed trace (use this when
/// the caller also ranks, to share the transposition): each MATE cube
/// evaluates 64 cycles with one AND/ANDN per literal per word.
/// Bit-identical to [`evaluate_scalar`].
pub fn evaluate_transposed(
    mates: &MateSet,
    trace: &TransposedTrace,
    wires: &[NetId],
) -> EvalReport {
    let mut matrix = PruneMatrix::new(wires, trace.num_cycles());
    let mut triggers = vec![0usize; mates.len()];
    let relevant = relevant_mates(mates, &matrix);

    for (i, mate, indices) in &relevant {
        for word in 0..trace.num_words() {
            let hit = trace.cube_word(&mate.cube, word);
            if hit == 0 {
                continue;
            }
            triggers[*i] += hit.count_ones() as usize;
            for &w in indices {
                matrix.mark_cycle_word(w, word, hit);
            }
        }
    }

    finish_report(mates, matrix, triggers)
}

/// The per-cycle scalar reference for [`evaluate`]: one cube probe per
/// `(MATE, cycle)`, exactly the pre-transposition implementation.  Kept for
/// the equivalence proptests and as the baseline of `BENCH_evalrank.json`.
pub fn evaluate_scalar(mates: &MateSet, trace: &WaveTrace, wires: &[NetId]) -> EvalReport {
    let mut matrix = PruneMatrix::new(wires, trace.num_cycles());
    let mut triggers = vec![0usize; mates.len()];
    let relevant = relevant_mates(mates, &matrix);

    for cycle in 0..trace.num_cycles() {
        let read = trace.cycle_reader(cycle);
        for (i, mate, indices) in &relevant {
            if mate.cube.eval(&read) {
                triggers[*i] += 1;
                for &w in indices {
                    matrix.mark_index(w, cycle);
                }
            }
        }
    }

    finish_report(mates, matrix, triggers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search_design, SearchConfig};
    use mate_netlist::examples::figure1b;
    use mate_sim::{InputWave, Testbench};

    fn figure1b_setup(
        stimulus: Vec<bool>,
        cycles: usize,
    ) -> (mate_netlist::Netlist, MateSet, WaveTrace, Vec<NetId>) {
        let (n, topo) = figure1b();
        let wires = crate::ff_wires(&n, &topo);
        let mates = search_design(&n, &topo, &wires, &SearchConfig::default()).into_mate_set();
        let trace = {
            let mut tb = Testbench::new(&n, &topo);
            tb.drive(n.find_net("in").unwrap(), InputWave::from_vec(stimulus));
            tb.run(cycles)
        };
        (n, mates, trace, wires)
    }

    #[test]
    fn all_zero_state_triggers_ab_mates() {
        // With b = 0 forever, faults in a are always masked (MATE ¬b) and
        // vice versa; c is masked whenever d = 1 (never happens while state
        // stays 0... d' = c|d stays 0). So masked points = a-row + b-row.
        let (n, mates, trace, wires) = figure1b_setup(vec![false], 6);
        let report = evaluate(&mates, &trace, &wires);
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let c = n.find_net("c").unwrap();
        for cycle in 0..4 {
            // a/b flip while the other is 0: masked... but note a' = !e
            // turns a to 1 in cycle 1; then a=1 makes ¬a false for b.
            let a_val = trace.value(cycle, a);
            let b_val = trace.value(cycle, b);
            assert_eq!(report.matrix.is_masked(a, cycle), !b_val);
            assert_eq!(report.matrix.is_masked(b, cycle), !a_val);
            assert!(!report.matrix.is_masked(c, cycle)); // d stays 0
        }
        assert!(report.effective >= 2);
    }

    #[test]
    fn masked_fraction_counts_points() {
        let (_, mates, trace, wires) = figure1b_setup(vec![false], 8);
        let report = evaluate(&mates, &trace, &wires);
        let frac = report.masked_fraction();
        assert!(frac > 0.0 && frac < 1.0, "fraction = {frac}");
        assert_eq!(
            report.matrix.total_points(),
            wires.len() * trace.num_cycles()
        );
    }

    #[test]
    fn scalar_and_word_parallel_agree_on_figure1b() {
        // Horizons inside, at and across the 64-cycle word boundaries.
        for (stimulus, cycles) in [
            (vec![false], 6),
            (vec![true, false, true], 70),
            (vec![true, true, false], 257),
        ] {
            let (_, mates, trace, wires) = figure1b_setup(stimulus, cycles);
            let word = evaluate(&mates, &trace, &wires);
            let scalar = evaluate_scalar(&mates, &trace, &wires);
            assert_eq!(word.matrix, scalar.matrix, "{cycles} cycles");
            assert_eq!(word.triggers, scalar.triggers, "{cycles} cycles");
            assert_eq!(word.effective, scalar.effective, "{cycles} cycles");
        }
    }

    #[test]
    fn mark_cycle_word_matches_per_cycle_marks() {
        let wires: Vec<NetId> = (0..3).map(NetId::from_index).collect();
        let mut by_word = PruneMatrix::new(&wires, 70);
        let mut by_bit = PruneMatrix::new(&wires, 70);
        by_word.mark_cycle_word(1, 0, 0b1010_0001);
        by_word.mark_cycle_word(1, 1, 0b10_0000); // cycle 69
        for c in [0usize, 5, 7, 69] {
            by_bit.mark_index(1, c);
        }
        assert_eq!(by_word, by_bit);
        assert_eq!(by_word.masked_points(), 4);
        assert_eq!(by_word.row_words(0), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "bits beyond cycle")]
    fn mark_cycle_word_rejects_tail_bits() {
        let wires = [NetId::from_index(0)];
        let mut m = PruneMatrix::new(&wires, 10);
        m.mark_cycle_word(0, 0, 1 << 10);
    }

    #[test]
    fn render_uses_dots() {
        let (n, mates, trace, wires) = figure1b_setup(vec![false], 4);
        let report = evaluate(&mates, &trace, &wires);
        let picture = report.matrix.render(|w| n.net(w).name().to_owned());
        assert!(picture.contains('●'));
        assert!(picture.contains('○'));
        assert_eq!(picture.lines().count(), wires.len());
    }

    #[test]
    fn empty_mate_set_prunes_nothing() {
        let (_, _, trace, wires) = figure1b_setup(vec![true], 4);
        let report = evaluate(&MateSet::default(), &trace, &wires);
        assert_eq!(report.matrix.masked_points(), 0);
        assert_eq!(report.effective, 0);
        assert_eq!(report.avg_inputs.to_bits(), 0f64.to_bits());
    }

    #[test]
    fn display_formats_percentage() {
        let m = PruneMatrix::new(&[NetId::from_index(0)], 4);
        assert!(format!("{m}").contains("0/4"));
    }
}
