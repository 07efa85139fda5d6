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

use crate::engine::Simulator;
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
    /// Allocated words per column (`>= cycles.div_ceil(64)`).
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
    /// Creates an empty transposed trace for `num_nets` nets; cycles are
    /// appended with [`TransposedTrace::push_cycle_words`] or
    /// [`TransposedTrace::capture`].
    pub fn new(num_nets: usize) -> Self {
        Self {
            num_nets,
            cycles: 0,
            words_per_net: 0,
            data: Vec::new(),
        }
    }

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
    pub fn from_row_words(
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
        Self::fill_columns(
            &mut data,
            num_nets,
            cycles,
            words_per_net,
            rows,
            words_per_cycle,
        );
        Self {
            num_nets,
            cycles,
            words_per_net,
            data,
        }
    }

    /// Transposes `rows` into `data` (pre-zeroed, `num_nets * words_per_net`
    /// words, tight column layout) — the shared core of
    /// [`TransposedTrace::from_row_words`] and
    /// [`TransposedTrace::refill_from_row_words`].
    fn fill_columns(
        data: &mut [u64],
        num_nets: usize,
        cycles: usize,
        words_per_net: usize,
        rows: &[u64],
        words_per_cycle: usize,
    ) {
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
        self.cycles.div_ceil(WORD_LANES)
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
        &self.data[i * self.words_per_net..i * self.words_per_net + self.num_words()]
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

    /// Packs the golden values of a net set in one cycle into an exact bit
    /// key: bit `i % 64` of word `i / 64` is the value of `nets[i]` in
    /// `cycle`.  `key` is cleared and refilled, so one buffer can be reused
    /// across calls without reallocating.
    ///
    /// This is the fingerprint primitive of the campaign's fault-space
    /// collapsing layer: two cycles with equal keys over a fault cone's
    /// support nets present *identical* golden values to the cone, so a
    /// delta injected in either evolves identically for one cycle.  The key
    /// is the exact bit vector, not a hash — equality must be sound, since
    /// a collision would silently misclassify a whole equivalence class.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` or any net index is out of range.
    pub fn support_key(&self, nets: &[u32], cycle: usize, key: &mut Vec<u64>) {
        assert!(cycle < self.cycles, "cycle {cycle} beyond trace");
        let word = cycle / WORD_LANES;
        let mask = 1u64 << (cycle % WORD_LANES);
        key.clear();
        key.resize(nets.len().div_ceil(WORD_LANES), 0);
        for (i, &net) in nets.iter().enumerate() {
            let n = net as usize;
            assert!(n < self.num_nets, "net {net} beyond trace");
            if self.data[n * self.words_per_net + word] & mask != 0 {
                key[i / WORD_LANES] |= 1u64 << (i % WORD_LANES);
            }
        }
    }

    /// Appends one cycle from row-packed value words (bit `n % 64` of word
    /// `n / 64` is net `n`, the layout of [`WaveTrace::cycle_words`] and
    /// [`mate_netlist::BitSet::as_words`]).  Columns grow geometrically, so
    /// incremental capture is amortized O(nets/64) words per cycle plus one
    /// bit-scatter.
    ///
    /// # Panics
    ///
    /// Panics if `words` cannot hold `num_nets` bits.
    pub fn push_cycle_words(&mut self, words: &[u64]) {
        assert!(
            words.len() >= self.num_nets.div_ceil(WORD_LANES),
            "cycle row too narrow for {} nets",
            self.num_nets
        );
        if self.cycles == self.words_per_net * WORD_LANES {
            self.grow();
        }
        let (wi, bit) = (self.cycles / WORD_LANES, self.cycles % WORD_LANES);
        for n in 0..self.num_nets {
            let v = words[n / WORD_LANES] >> (n % WORD_LANES) & 1;
            self.data[n * self.words_per_net + wi] |= v << bit;
        }
        self.cycles += 1;
    }

    /// Records the settled simulator values as the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the simulator's netlist has a different net count.
    pub fn capture(&mut self, sim: &mut Simulator<'_>) {
        assert_eq!(
            sim.netlist().num_nets(),
            self.num_nets,
            "transposed trace incompatible with simulator"
        );
        self.push_cycle_words(sim.values().as_words());
    }

    /// Doubles the per-column allocation, re-laying out existing columns.
    fn grow(&mut self) {
        let new_wpn = (self.words_per_net * 2).max(1);
        let mut data = vec![0u64; self.num_nets * new_wpn];
        for n in 0..self.num_nets {
            data[n * new_wpn..n * new_wpn + self.words_per_net]
                .copy_from_slice(&self.data[n * self.words_per_net..(n + 1) * self.words_per_net]);
        }
        self.words_per_net = new_wpn;
        self.data = data;
    }

    /// Drops all recorded cycles, keeping the allocation (for 64-cycle
    /// block reuse in online pruning).
    pub fn clear(&mut self) {
        self.cycles = 0;
        self.data.fill(0);
    }

    /// Refills this trace in place from row-major cycle words, reusing the
    /// allocation when it is already large enough — the scratch-buffer
    /// counterpart of [`TransposedTrace::from_row_words`] for per-block
    /// transposition in the online pruner.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`TransposedTrace::from_row_words`].
    pub fn refill_from_row_words(
        &mut self,
        num_nets: usize,
        cycles: usize,
        rows: &[u64],
        words_per_cycle: usize,
    ) {
        assert!(
            rows.len() >= cycles * words_per_cycle,
            "row data shorter than the declared cycle count"
        );
        assert!(
            words_per_cycle >= num_nets.div_ceil(64),
            "cycle rows too narrow for {num_nets} nets"
        );
        let words_per_net = cycles.div_ceil(WORD_LANES);
        let used = num_nets * words_per_net;
        if used > self.data.len() {
            self.data = vec![0u64; used];
        } else {
            self.data.fill(0);
        }
        self.num_nets = num_nets;
        self.cycles = cycles;
        self.words_per_net = words_per_net;
        Self::fill_columns(
            &mut self.data[..used],
            num_nets,
            cycles,
            words_per_net,
            rows,
            words_per_cycle,
        );
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
    use mate_netlist::examples::counter;
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
    fn support_key_packs_exact_values() {
        let trace = random_trace(100, 150, 77);
        let tt = TransposedTrace::from_trace(&trace);
        // A 70-net support spanning two key words, probed in cycles across
        // both column words.
        let nets: Vec<u32> = (0..70).map(|i| (i * 3 % 100) as u32).collect();
        let mut key = Vec::new();
        for cycle in [0, 1, 63, 64, 149] {
            tt.support_key(&nets, cycle, &mut key);
            assert_eq!(key.len(), 2);
            for (i, &n) in nets.iter().enumerate() {
                assert_eq!(
                    key[i / 64] >> (i % 64) & 1 != 0,
                    tt.value(cycle, net(n as usize)),
                    "net {n} cycle {cycle}"
                );
            }
        }
        // Two cycles with equal keys really do agree on every support net.
        tt.support_key(&nets, 5, &mut key);
        let k5 = key.clone();
        tt.support_key(&nets, 5, &mut key);
        assert_eq!(k5, key);
        // Empty support: empty key, reused buffer cleared.
        tt.support_key(&[], 0, &mut key);
        assert!(key.is_empty());
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
    fn incremental_push_matches_from_trace() {
        let rows = random_trace(70, 200, 7);
        let built = TransposedTrace::from_trace(&rows);
        let mut incr = TransposedTrace::new(70);
        for c in 0..200 {
            incr.push_cycle_words(rows.cycle_words(c));
        }
        assert_eq!(incr.num_cycles(), built.num_cycles());
        for n in 0..70 {
            assert_eq!(incr.column(net(n)), built.column(net(n)), "net {n}");
        }
    }

    #[test]
    fn capture_from_simulator() {
        let (n, topo) = counter(3);
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(n.find_net("en").unwrap(), true);
        let mut rows = WaveTrace::new(n.num_nets());
        let mut cols = TransposedTrace::new(n.num_nets());
        for _ in 0..8 {
            rows.capture(&mut sim);
            cols.capture(&mut sim);
            sim.tick();
        }
        assert_eq!(cols, TransposedTrace::from_trace(&rows));
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
    fn clear_resets_for_block_reuse() {
        let mut t = TransposedTrace::new(5);
        t.push_cycle_words(&[0b10101]);
        t.push_cycle_words(&[0b00011]);
        assert_eq!(t.num_cycles(), 2);
        t.clear();
        assert_eq!(t.num_cycles(), 0);
        t.push_cycle_words(&[0b1]);
        assert!(t.value(0, net(0)));
        assert!(!t.value(0, net(4)));
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
    fn refill_reuses_allocation_and_matches_from_row_words() {
        let big = random_trace(40, 200, 3);
        let mut t = TransposedTrace::from_trace(&big);
        // Refill with a smaller trace: same columns as a fresh build.
        let small = random_trace(40, 70, 4);
        t.refill_from_row_words(40, 70, small.raw_words(), small.words_per_cycle());
        assert_eq!(t.num_cycles(), 70);
        let fresh = TransposedTrace::from_trace(&small);
        for n in 0..40 {
            assert_eq!(t.column(net(n)), fresh.column(net(n)), "net {n}");
        }
        // Growing beyond the allocation also works.
        let bigger = random_trace(40, 300, 5);
        t.refill_from_row_words(40, 300, bigger.raw_words(), bigger.words_per_cycle());
        assert_eq!(t, TransposedTrace::from_trace(&bigger));
    }

    #[test]
    #[should_panic(expected = "beyond trace")]
    fn column_out_of_range_panics() {
        let t = TransposedTrace::from_trace(&random_trace(3, 4, 1));
        t.column(net(3));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn capture_rejects_wrong_net_count() {
        let (n, topo) = counter(3);
        let mut sim = Simulator::new(&n, &topo);
        TransposedTrace::new(1).capture(&mut sim);
    }
}
