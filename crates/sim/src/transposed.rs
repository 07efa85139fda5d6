//! Column-major bit-plane traces for word-parallel analysis.
//!
//! [`WaveTrace`] stores one row per *cycle* — the natural layout for capture,
//! where the simulator settles a full cycle at a time.  Every trace
//! *consumer* in the MATE pipeline, however, asks the opposite question:
//! "in which cycles does net `n` carry value `v`?"  Answering that on the
//! row-major layout costs one strided bit-probe per cycle.
//!
//! A [`TransposedTrace`] stores one bit-plane per *net*: word `w` of net
//! `n`'s column packs the net's values in cycles `64·w .. 64·w+63`.  A MATE
//! cube (a conjunction of net literals) then evaluates over 64 cycles at
//! once as a handful of AND/ANDN word operations ([`TransposedTrace::
//! cube_word`]) — the same transposition trick bit-parallel fault
//! simulators apply on the stimulus axis, applied to the analysis axis.

use mate_netlist::lanes::low_lanes;
use mate_netlist::prelude::*;

use crate::trace::WaveTrace;

/// A column-major (net-major) bit-plane view of an execution trace.
///
/// Bit `c % 64` of word `c / 64` in net `n`'s column is the value of `n` in
/// cycle `c`.  Bits beyond the recorded cycle count are always zero.
///
/// # Example
///
/// ```
/// use mate_sim::{TransposedTrace, WaveTrace};
/// use mate_netlist::NetId;
///
/// let mut rows = WaveTrace::new(2);
/// rows.push_cycle(&[true, false]);
/// rows.push_cycle(&[true, true]);
/// let cols = TransposedTrace::from_trace(&rows);
/// assert_eq!(cols.column(NetId::from_index(0)), &[0b11]);
/// assert_eq!(cols.column(NetId::from_index(1)), &[0b10]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransposedTrace {
    num_nets: usize,
    cycles: usize,
    /// Words per column: `cycles.div_ceil(64)`.
    words_per_net: usize,
    /// Column-major storage: net `n` occupies words
    /// `n * words_per_net .. (n + 1) * words_per_net`.
    data: Vec<u64>,
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3): afterwards,
/// bit `r` of `a[k]` is the former bit `k` of `a[r]`.
fn transpose64(a: &mut [u64; 64]) {
    // Delta-swap block transpose (Hacker's Delight 7-3, adapted to
    // LSB-first bit numbering: bit `c` is column `c`).  Each stage swaps
    // the high-column half of the upper row block with the low-column half
    // of the lower row block.
    let mut j = 32usize;
    let mut m = 0xFFFF_FFFF_0000_0000u64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k | j] << j)) & m;
            a[k] ^= t;
            a[k | j] ^= t >> j;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m >> j;
    }
}

impl TransposedTrace {
    /// Transposes a recorded row-major trace in one pass of 64×64 block
    /// transposes.
    pub fn from_trace(trace: &WaveTrace) -> Self {
        Self::from_row_words(
            trace.num_nets(),
            trace.num_cycles(),
            trace.raw_words(),
            trace.words_per_cycle(),
        )
    }

    /// Builds the column-major planes from row-major cycle words: `rows`
    /// holds `cycles` consecutive rows of `words_per_cycle` words each, laid
    /// out like [`WaveTrace::cycle_words`] (bit `n % 64` of word `n / 64` is
    /// net `n`).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is shorter than `cycles * words_per_cycle` or
    /// `words_per_cycle` cannot hold `num_nets` bits.
    fn from_row_words(
        num_nets: usize,
        cycles: usize,
        rows: &[u64],
        words_per_cycle: usize,
    ) -> Self {
        assert!(
            rows.len() >= cycles * words_per_cycle,
            "row data shorter than the declared cycle count"
        );
        assert!(
            words_per_cycle >= num_nets.div_ceil(64),
            "cycle rows too narrow for {num_nets} nets"
        );
        let words_per_net = cycles.div_ceil(WORD_LANES);
        let mut data = vec![0u64; num_nets * words_per_net];
        let mut block = [0u64; 64];
        for ci in 0..words_per_net {
            let c0 = ci * 64;
            let nrows = (cycles - c0).min(64);
            for nj in 0..num_nets.div_ceil(64) {
                for (r, slot) in block.iter_mut().enumerate().take(nrows) {
                    *slot = rows[(c0 + r) * words_per_cycle + nj];
                }
                block[nrows..].fill(0);
                transpose64(&mut block);
                // Row `k` of the transposed block is the column word of net
                // `64*nj + k` over cycles `c0 .. c0+64`.
                let nets_here = (num_nets - nj * 64).min(64);
                for (k, &word) in block.iter().enumerate().take(nets_here) {
                    if word != 0 {
                        data[(nj * 64 + k) * words_per_net + ci] = word;
                    }
                }
            }
        }
        Self {
            num_nets,
            cycles,
            words_per_net,
            data,
        }
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of recorded cycles.
    pub fn num_cycles(&self) -> usize {
        self.cycles
    }

    /// Number of valid 64-cycle words per column.
    pub fn num_words(&self) -> usize {
        self.words_per_net
    }

    /// All-ones over the cycles that exist in column word `word` (the last
    /// word of a non-multiple-of-64 trace has a partial mask).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    #[inline]
    pub fn valid_mask(&self, word: usize) -> u64 {
        assert!(word < self.num_words(), "column word {word} beyond trace");
        low_lanes((self.cycles - word * WORD_LANES).min(WORD_LANES))
    }

    /// The bit-plane of one net: bit `c % 64` of word `c / 64` is the value
    /// in cycle `c`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn column(&self, net: NetId) -> &[u64] {
        let i = net.index();
        assert!(i < self.num_nets, "net {net} beyond trace");
        &self.data[i * self.words_per_net..(i + 1) * self.words_per_net]
    }

    /// One column word of a net *literal*: the cycles (within word `word`)
    /// in which the net carries `polarity`.  Negative literals are
    /// complemented and masked to the valid cycle range.
    ///
    /// # Panics
    ///
    /// Panics if `net` or `word` is out of range.
    #[inline]
    pub fn lit_word(&self, net: NetId, word: usize, polarity: bool) -> u64 {
        let w = self.column(net)[word];
        if polarity {
            w
        } else {
            !w & self.valid_mask(word)
        }
    }

    /// Evaluates a cube over 64 cycles at once: bit `c` of the result is
    /// the cube's value in cycle `64 * word + c`.  The empty cube yields the
    /// valid-cycle mask.  This is the word-parallel core of MATE evaluation:
    /// one AND (positive literal) or ANDN (negative literal) per literal.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or the cube mentions a net beyond
    /// the trace.
    #[inline]
    pub fn cube_word(&self, cube: &NetCube, word: usize) -> u64 {
        let mut acc = self.valid_mask(word);
        for (net, polarity) in cube.literals() {
            if acc == 0 {
                break;
            }
            let i = net.index();
            assert!(i < self.num_nets, "net {net} beyond trace");
            let w = self.data[i * self.words_per_net + word];
            acc &= if polarity { w } else { !w };
        }
        acc
    }

    /// The value of `net` in `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` or `net` is out of range.
    pub fn value(&self, cycle: usize, net: NetId) -> bool {
        assert!(cycle < self.cycles, "cycle {cycle} beyond trace");
        self.column(net)[cycle / 64] & (1u64 << (cycle % 64)) != 0
    }

    /// A view of one cycle with the word offset and bit mask hoisted out, so
    /// per-net probes in a hot loop are one load-AND instead of the index
    /// arithmetic [`TransposedTrace::value`] repeats.  This is what the
    /// differential campaign engine uses to compare lane deltas against the
    /// golden run cell by cell.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    #[inline]
    pub fn cycle_view(&self, cycle: usize) -> CycleView<'_> {
        assert!(cycle < self.cycles, "cycle {cycle} beyond trace");
        CycleView {
            trace: self,
            word: cycle / WORD_LANES,
            mask: 1u64 << (cycle % WORD_LANES),
        }
    }
}

/// A single-cycle probe into a [`TransposedTrace`] with the cycle's word
/// index and bit mask precomputed; see [`TransposedTrace::cycle_view`].
#[derive(Clone, Copy)]
pub struct CycleView<'t> {
    trace: &'t TransposedTrace,
    word: usize,
    mask: u64,
}

impl CycleView<'_> {
    /// The value of net index `net` in the viewed cycle.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[inline]
    pub fn value(&self, net: usize) -> bool {
        debug_assert!(net < self.trace.num_nets, "net {net} beyond trace");
        self.trace.data[net * self.trace.words_per_net + self.word] & self.mask != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_netlist::NetCube;

    fn net(i: usize) -> NetId {
        NetId::from_index(i)
    }

    /// Pseudo-random trace over `nets` nets and `cycles` cycles.
    fn random_trace(nets: usize, cycles: usize, seed: u64) -> WaveTrace {
        let mut t = WaveTrace::new(nets);
        for c in 0..cycles {
            let bits: Vec<bool> = (0..nets)
                .map(|n| {
                    let x = seed
                        .wrapping_add(((c as u64) << 32) | n as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (x >> 40) & 1 == 1
                })
                .collect();
            t.push_cycle(&bits);
        }
        t
    }

    #[test]
    fn transpose64_is_a_transpose() {
        let mut a = [0u64; 64];
        for (r, word) in a.iter_mut().enumerate() {
            *word = (r as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (1u64 << (r % 64));
        }
        let orig = a;
        transpose64(&mut a);
        for (r, &row) in orig.iter().enumerate() {
            for (k, &col) in a.iter().enumerate() {
                assert_eq!(col >> r & 1, row >> k & 1, "bit ({r},{k})");
            }
        }
    }

    #[test]
    fn from_trace_matches_row_major_values() {
        // Sizes straddling the 64-bit boundaries on both axes.
        for (nets, cycles) in [(1, 1), (3, 70), (64, 64), (65, 130), (130, 63)] {
            let rows = random_trace(nets, cycles, (nets * 1000 + cycles) as u64);
            let cols = TransposedTrace::from_trace(&rows);
            assert_eq!(cols.num_nets(), nets);
            assert_eq!(cols.num_cycles(), cycles);
            for c in 0..cycles {
                for n in 0..nets {
                    assert_eq!(
                        cols.value(c, net(n)),
                        rows.value(c, net(n)),
                        "({nets}x{cycles}) cycle {c} net {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn cube_word_is_and_over_literals() {
        // Horizons on both sides of the word boundaries, so full, partial
        // and single-cycle tail words are all checked.
        for cycles in [1, 63, 64, 65, 100, 300] {
            let rows = random_trace(12, cycles, cycles as u64);
            let cols = TransposedTrace::from_trace(&rows);
            for cube in [
                NetCube::from_literals([(net(2), true), (net(7), false)]).unwrap(),
                NetCube::from_literals([(net(0), false), (net(5), false), (net(11), true)])
                    .unwrap(),
            ] {
                for wi in 0..cols.num_words() {
                    let word = cols.cube_word(&cube, wi);
                    for b in 0..64 {
                        let c = wi * 64 + b;
                        let expect = c < cycles && cube.eval(rows.cycle_reader(c));
                        assert_eq!(word >> b & 1 != 0, expect, "{cycles} cycles, cycle {c}");
                    }
                }
            }
            // The empty cube is true exactly in the valid cycles.
            let last = cols.num_words() - 1;
            assert_eq!(cols.cube_word(&NetCube::top(), last), cols.valid_mask(last));
            assert_eq!(
                cols.valid_mask(last).count_ones() as usize,
                cycles - last * 64,
                "{cycles} cycles"
            );
        }
    }

    #[test]
    fn lit_word_masks_negative_tail() {
        let mut t = WaveTrace::new(1);
        t.push_cycle(&[false]);
        t.push_cycle(&[true]);
        t.push_cycle(&[false]);
        let cols = TransposedTrace::from_trace(&t);
        assert_eq!(cols.lit_word(net(0), 0, true), 0b010);
        // Negative literal: cycles 0 and 2 only — bits 3..63 stay clear.
        assert_eq!(cols.lit_word(net(0), 0, false), 0b101);
        assert_eq!(cols.valid_mask(0), 0b111);
    }

    #[test]
    fn cycle_view_matches_value() {
        let rows = random_trace(70, 130, 11);
        let cols = TransposedTrace::from_trace(&rows);
        for c in [0, 63, 64, 129] {
            let view = cols.cycle_view(c);
            for n in 0..70 {
                assert_eq!(view.value(n), cols.value(c, net(n)), "cycle {c} net {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond trace")]
    fn cycle_view_out_of_range_panics() {
        let cols = TransposedTrace::from_trace(&random_trace(3, 4, 1));
        cols.cycle_view(4);
    }

    #[test]
    #[should_panic(expected = "beyond trace")]
    fn column_out_of_range_panics() {
        let t = TransposedTrace::from_trace(&random_trace(3, 4, 1));
        t.column(net(3));
    }
}
