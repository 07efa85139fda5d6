//! Bit-lane helpers for the bit-parallel kernels.
//!
//! Every hot kernel in this repository — the wide campaign simulator, the
//! word-parallel MATE evaluator, the coverage ranking — packs one fault
//! scenario (or one trace cycle) per *bit lane* of a `u64` word and
//! advances all 64 lanes in lock-step with plain word operations.
//!
//! The lane container is `u64` and nothing else: wider blocks (256 and 512
//! lanes) never won an end-to-end measurement, because a campaign packs
//! only the points that share an injection cycle into one block, so most
//! lanes of a wider block stay empty (see `DESIGN.md`).
//!
//! [`WORD_LANES`] names the one load-bearing `64`; sizing code outside the
//! kernels (trace capture, prune-matrix rows, retirement masks) uses it
//! instead of a magic number so the packing contract has one definition.

/// Number of bit lanes in one `u64` word: the granularity every packed
/// bitmap in the repository (traces, prune matrices, retirement masks) is
/// sized in.
pub const WORD_LANES: usize = u64::BITS as usize;

/// A word with the low `n` lanes set — the active mask of a partially
/// filled word (e.g. the tail chunk of a fault-point list or the last
/// word of a trace column).
///
/// # Panics
///
/// Panics if `n > WORD_LANES`.
#[inline]
pub fn low_lanes(n: usize) -> u64 {
    assert!(n <= WORD_LANES, "lane count {n} exceeds word width");
    if n == WORD_LANES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Calls `f` with the index of every set lane of `word`, in ascending
/// order — the `trailing_zeros` / clear-lowest-bit scan the kernels use to
/// walk failed or converged scenarios.
#[inline]
pub fn for_each_lane(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_lanes_counts() {
        for n in [0usize, 1, 17, 63, 64] {
            let m = low_lanes(n);
            assert_eq!(m.count_ones() as usize, n, "low_lanes({n})");
            for lane in 0..WORD_LANES {
                assert_eq!(m >> lane & 1 != 0, lane < n, "low_lanes({n}) lane {lane}");
            }
        }
        assert_eq!(WORD_LANES, 64);
    }

    #[test]
    fn for_each_lane_walks_set_lanes_in_order() {
        let mut seen = Vec::new();
        for_each_lane(1 | 1 << 2 | 1 << 32 | 1 << 63, |l| seen.push(l));
        assert_eq!(seen, [0, 2, 32, 63]);
        for_each_lane(0, |_| panic!("no lanes set"));
    }

    #[test]
    #[should_panic(expected = "exceeds word width")]
    fn low_lanes_overflow_panics() {
        let _ = low_lanes(65);
    }
}
