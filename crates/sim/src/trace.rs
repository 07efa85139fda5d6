//! Dense per-cycle wire traces.

use std::fmt;

use mate_netlist::prelude::*;

use crate::engine::Simulator;

/// A recorded execution trace: the value of every net in every cycle.
///
/// This is the in-memory analogue of the VCD files the paper's flow records
/// during netlist simulation; the MATE selection and fault-space evaluation
/// replay it cycle by cycle.
///
/// Storage is one bit per (cycle, net), packed in 64-bit words — an
/// 8500-cycle trace of a ~2000-net CPU costs about 2 MiB.
#[derive(Clone, PartialEq, Eq)]
pub struct WaveTrace {
    num_nets: usize,
    words_per_cycle: usize,
    cycles: usize,
    data: Vec<u64>,
}

impl WaveTrace {
    /// Creates an empty trace for circuits with `num_nets` nets.
    pub fn new(num_nets: usize) -> Self {
        Self {
            num_nets,
            words_per_cycle: num_nets.div_ceil(WORD_LANES).max(1),
            cycles: 0,
            data: Vec::new(),
        }
    }

    /// Rebuilds a trace from its [`WaveTrace::raw_words`] storage — the
    /// inverse of that accessor.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Artifact`] unless `words` holds exactly
    /// `cycles` rows of [`WaveTrace::words_per_cycle`] words and every
    /// padding bit above `num_nets` in a row's last word is zero (trace
    /// equality compares those bits).
    pub fn from_raw_words(
        num_nets: usize,
        cycles: usize,
        words: Vec<u64>,
    ) -> Result<Self, MateError> {
        let mut trace = Self::new(num_nets);
        let bad = |message: String| MateError::artifact("wave-trace", message);
        let expected = cycles
            .checked_mul(trace.words_per_cycle)
            .ok_or_else(|| bad(format!("{cycles} cycles overflow the trace size")))?;
        if words.len() != expected {
            return Err(bad(format!(
                "{} words for {cycles} cycles of {num_nets} nets, expected {expected}",
                words.len()
            )));
        }
        let used = num_nets - (trace.words_per_cycle - 1) * WORD_LANES;
        let padding = if used == WORD_LANES { 0 } else { !0u64 << used };
        let stride = trace.words_per_cycle;
        if let Some(cycle) = (0..cycles).find(|c| words[(c + 1) * stride - 1] & padding != 0) {
            return Err(bad(format!("padding bits set in cycle {cycle}")));
        }
        trace.cycles = cycles;
        trace.data = words;
        Ok(trace)
    }

    /// Number of nets per cycle.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of recorded cycles.
    pub fn num_cycles(&self) -> usize {
        self.cycles
    }

    /// Returns `true` when no cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// Records the settled values of the simulator as the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the simulator's netlist has a different net count.
    pub fn capture(&mut self, sim: &mut Simulator<'_>) {
        // Compare against the netlist's logical net count, not the value
        // bitmap's capacity: a bitmap rounded up to its word allocation
        // would spuriously fail (or spuriously pass) a capacity check.
        assert_eq!(
            sim.netlist().num_nets(),
            self.num_nets,
            "trace incompatible with simulator"
        );
        let words = sim.values().as_words();
        self.data.extend_from_slice(words);
        // BitSet stores exactly ceil(num_nets/64) words, except for the
        // degenerate zero-net case.
        self.data
            .resize((self.cycles + 1) * self.words_per_cycle, 0);
        self.cycles += 1;
    }

    /// Appends a cycle from an explicit bit vector (used by the VCD reader).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != num_nets`.
    pub fn push_cycle(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.num_nets);
        let base = self.data.len();
        self.data.resize(base + self.words_per_cycle, 0);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                self.data[base + i / WORD_LANES] |= 1u64 << (i % WORD_LANES);
            }
        }
        self.cycles += 1;
    }

    /// The value of `net` in `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` or `net` is out of range.
    #[inline]
    pub fn value(&self, cycle: usize, net: NetId) -> bool {
        assert!(cycle < self.cycles, "cycle {cycle} beyond trace");
        let i = net.index();
        assert!(i < self.num_nets, "net {net} beyond trace");
        let word = self.data[cycle * self.words_per_cycle + i / WORD_LANES];
        word & (1u64 << (i % WORD_LANES)) != 0
    }

    /// The packed value words of one cycle (bit `i % 64` of word `i / 64`
    /// is net `i`), as stored — the zero-copy input for broadcasting a
    /// golden cycle into a wide simulator.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    pub fn cycle_words(&self, cycle: usize) -> &[u64] {
        assert!(cycle < self.cycles, "cycle {cycle} beyond trace");
        &self.data[cycle * self.words_per_cycle..(cycle + 1) * self.words_per_cycle]
    }

    /// A closure reading net values of one cycle (handy for
    /// [`NetCube::eval`]).
    pub fn cycle_reader(&self, cycle: usize) -> impl Fn(NetId) -> bool + '_ {
        move |net| self.value(cycle, net)
    }

    /// Words per stored cycle row (`>= num_nets.div_ceil(64)`), the stride
    /// of [`WaveTrace::raw_words`].
    pub fn words_per_cycle(&self) -> usize {
        self.words_per_cycle
    }

    /// The raw row-major storage: `num_cycles` consecutive rows of
    /// [`WaveTrace::words_per_cycle`] words each, in
    /// [`WaveTrace::cycle_words`] layout.  This is the zero-copy input for
    /// block-transposing into a [`crate::TransposedTrace`].
    pub fn raw_words(&self) -> &[u64] {
        &self.data
    }

    /// Gathers one net's bit-plane: bit `c % 64` of word `c / 64` is the
    /// net's value in cycle `c`.  This single strided walk backs both
    /// [`WaveTrace::net_history`] and [`WaveTrace::high_cycles`]; bits
    /// beyond the recorded cycles are zero.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn column_words(&self, net: NetId) -> Vec<u64> {
        let i = net.index();
        assert!(i < self.num_nets, "net {net} beyond trace");
        let (word, shift) = (i / WORD_LANES, i % WORD_LANES);
        let mut column = vec![0u64; self.cycles.div_ceil(WORD_LANES)];
        for c in 0..self.cycles {
            let bit = self.data[c * self.words_per_cycle + word] >> shift & 1;
            column[c / WORD_LANES] |= bit << (c % WORD_LANES);
        }
        column
    }

    /// Iterates over the values of one net across all cycles.
    pub fn net_history(&self, net: NetId) -> impl Iterator<Item = bool> + '_ {
        let column = self.column_words(net);
        (0..self.cycles).map(move |c| column[c / WORD_LANES] & (1u64 << (c % WORD_LANES)) != 0)
    }

    /// Counts the cycles in which a net is `true` (one popcount per 64
    /// cycles over the gathered column).
    pub fn high_cycles(&self, net: NetId) -> usize {
        self.column_words(net)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// A copy of the first `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` exceeds the recorded length.
    pub fn truncated(&self, cycles: usize) -> WaveTrace {
        assert!(cycles <= self.cycles, "cannot extend a trace");
        WaveTrace {
            num_nets: self.num_nets,
            words_per_cycle: self.words_per_cycle,
            cycles,
            data: self.data[..cycles * self.words_per_cycle].to_vec(),
        }
    }

    /// Reads a multi-bit bus as an integer in the given cycle (`nets[0]` is
    /// the LSB).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 nets are given or the cycle is out of range.
    pub fn bus_value(&self, cycle: usize, nets: &[NetId]) -> u64 {
        assert!(nets.len() <= WORD_LANES, "bus wider than 64 bits");
        let mut v = 0u64;
        for (i, &net) in nets.iter().enumerate() {
            v |= (self.value(cycle, net) as u64) << i;
        }
        v
    }
}

impl fmt::Debug for WaveTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WaveTrace({} nets x {} cycles, {} KiB)",
            self.num_nets,
            self.cycles,
            self.data.len() * 8 / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_netlist::examples::counter;

    #[test]
    fn capture_records_counter_bits() {
        let (n, topo) = counter(3);
        let mut sim = Simulator::new(&n, &topo);
        sim.set_input(n.find_net("en").expect("counter exposes en"), true);
        let mut trace = WaveTrace::new(n.num_nets());
        for _ in 0..8 {
            trace.capture(&mut sim);
            sim.tick();
        }
        assert_eq!(trace.num_cycles(), 8);
        let q0 = n.find_net("q0").expect("counter exposes q0");
        let q1 = n.find_net("q1").expect("counter exposes q1");
        let q2 = n.find_net("q2").expect("counter exposes q2");
        let values: Vec<usize> = (0..8)
            .map(|c| {
                (trace.value(c, q0) as usize)
                    | (trace.value(c, q1) as usize) << 1
                    | (trace.value(c, q2) as usize) << 2
            })
            .collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn push_cycle_and_value() {
        let mut t = WaveTrace::new(70);
        let mut bits = vec![false; 70];
        bits[0] = true;
        bits[69] = true;
        t.push_cycle(&bits);
        assert!(t.value(0, NetId::from_index(0)));
        assert!(t.value(0, NetId::from_index(69)));
        assert!(!t.value(0, NetId::from_index(35)));
    }

    #[test]
    fn net_history_and_high_cycles() {
        let mut t = WaveTrace::new(2);
        t.push_cycle(&[true, false]);
        t.push_cycle(&[false, false]);
        t.push_cycle(&[true, true]);
        let n0 = NetId::from_index(0);
        assert_eq!(
            t.net_history(n0).collect::<Vec<_>>(),
            vec![true, false, true]
        );
        assert_eq!(t.high_cycles(n0), 2);
        assert_eq!(t.high_cycles(NetId::from_index(1)), 1);
    }

    #[test]
    fn cycle_reader_closure() {
        let mut t = WaveTrace::new(3);
        t.push_cycle(&[false, true, false]);
        let read = t.cycle_reader(0);
        assert!(read(NetId::from_index(1)));
        assert!(!read(NetId::from_index(2)));
    }

    #[test]
    #[should_panic(expected = "trace incompatible")]
    fn capture_rejects_mismatched_net_count() {
        let (n, topo) = counter(3);
        let mut sim = Simulator::new(&n, &topo);
        // A trace sized for a different design must be rejected by net
        // count, regardless of how the value bitmap rounds its allocation.
        let mut trace = WaveTrace::new(n.num_nets() + 1);
        trace.capture(&mut sim);
    }

    #[test]
    fn capture_accepts_non_word_aligned_net_count() {
        // num_nets not a multiple of 64: a capacity-based check would
        // depend on the bitmap's internal rounding here.
        let (n, topo) = counter(5);
        assert_ne!(n.num_nets() % 64, 0);
        let mut sim = Simulator::new(&n, &topo);
        let mut trace = WaveTrace::new(n.num_nets());
        trace.capture(&mut sim);
        assert_eq!(trace.num_cycles(), 1);
    }

    #[test]
    fn column_words_match_per_cycle_values() {
        let mut t = WaveTrace::new(70);
        for c in 0..130usize {
            let bits: Vec<bool> = (0..70).map(|i| (c * 31 + i * 7) % 3 == 0).collect();
            t.push_cycle(&bits);
        }
        for i in [0usize, 35, 63, 64, 69] {
            let net = NetId::from_index(i);
            let column = t.column_words(net);
            assert_eq!(column.len(), 130usize.div_ceil(64));
            for c in 0..130 {
                assert_eq!(
                    column[c / 64] & (1u64 << (c % 64)) != 0,
                    t.value(c, net),
                    "net {i} cycle {c}"
                );
            }
            assert_eq!(
                t.high_cycles(net),
                (0..130).filter(|&c| t.value(c, net)).count()
            );
        }
    }

    #[test]
    fn from_raw_words_inverts_raw_words() {
        for num_nets in [0usize, 1, 63, 64, 70, 128] {
            for cycles in [0usize, 1, 5] {
                let mut t = WaveTrace::new(num_nets);
                for c in 0..cycles {
                    let bits: Vec<bool> = (0..num_nets).map(|i| (c + i) % 3 == 0).collect();
                    t.push_cycle(&bits);
                }
                let back = WaveTrace::from_raw_words(num_nets, cycles, t.raw_words().to_vec())
                    .expect("raw words of a valid trace");
                assert_eq!(back, t, "{num_nets} nets x {cycles} cycles");
            }
        }
    }

    #[test]
    fn from_raw_words_rejects_bad_shapes_and_padding() {
        // Wrong length, and a length product that overflows.
        assert!(WaveTrace::from_raw_words(70, 2, vec![0; 3]).is_err());
        assert!(WaveTrace::from_raw_words(70, usize::MAX, Vec::new()).is_err());
        // Bit 70 lies above the 70 nets of the last cycle's second word.
        assert!(WaveTrace::from_raw_words(70, 2, vec![0, 0, 0, 1 << 6]).is_err());
        assert!(WaveTrace::from_raw_words(70, 2, vec![0, 0, 0, 1 << 5]).is_ok());
        // A zero-net trace still stores one (all-padding) word per cycle.
        assert!(WaveTrace::from_raw_words(0, 1, vec![1]).is_err());
        // Full last words have no padding.
        assert!(WaveTrace::from_raw_words(64, 1, vec![!0]).is_ok());
    }

    #[test]
    #[should_panic(expected = "beyond trace")]
    fn out_of_range_cycle_panics() {
        let t = WaveTrace::new(1);
        t.value(0, NetId::from_index(0));
    }

    #[test]
    fn debug_mentions_dimensions() {
        let mut t = WaveTrace::new(10);
        t.push_cycle(&[false; 10]);
        assert!(format!("{t:?}").contains("10 nets x 1 cycles"));
    }
}
