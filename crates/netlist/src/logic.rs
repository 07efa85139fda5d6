//! Boolean logic functions of standard cells.
//!
//! Cell behaviour is represented as a [`TruthTable`] over at most
//! [`TruthTable::MAX_INPUTS`] input pins, packed into a single `u64`.  On top
//! of the plain function evaluation this module implements the first step of
//! the MATE pipeline (paper Section 4): for a cell type and a set of *faulty*
//! input pins, [`masking_cubes`] computes all prime *gate-masking terms* —
//! cubes over the remaining trusted pins that force the cell output to be
//! independent of the faulty pins.

use std::fmt;

/// A boolean function of up to six inputs, stored as a packed truth table.
///
/// Row `r` of the table (bit `r` of [`TruthTable::bits`]) holds the output for
/// the input assignment in which input pin `i` carries bit `i` of `r`.
///
/// # Example
///
/// ```
/// use mate_netlist::TruthTable;
///
/// let nand = TruthTable::nand(2);
/// assert!(nand.eval(0b00));
/// assert!(!nand.eval(0b11));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruthTable {
    inputs: u8,
    bits: u64,
}

impl TruthTable {
    /// Maximum number of inputs a truth table can have.
    pub const MAX_INPUTS: usize = 6;

    /// Creates a truth table from a row bitmap.
    ///
    /// Bits beyond row `2^inputs - 1` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > TruthTable::MAX_INPUTS`.
    pub fn new(inputs: usize, bits: u64) -> Self {
        assert!(
            inputs <= Self::MAX_INPUTS,
            "truth table limited to {} inputs, got {inputs}",
            Self::MAX_INPUTS
        );
        Self {
            inputs: inputs as u8,
            bits: bits & Self::row_mask(inputs),
        }
    }

    /// Creates a truth table by evaluating `f` on every input row.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > TruthTable::MAX_INPUTS`.
    pub fn from_fn(inputs: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        assert!(inputs <= Self::MAX_INPUTS);
        let mut bits = 0u64;
        for row in 0..1usize << inputs {
            if f(row) {
                bits |= 1 << row;
            }
        }
        Self::new(inputs, bits)
    }

    fn row_mask(inputs: usize) -> u64 {
        if inputs >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << inputs)) - 1
        }
    }

    /// The constant-zero function of `inputs` inputs.
    pub fn zero(inputs: usize) -> Self {
        Self::new(inputs, 0)
    }

    /// The constant-one function of `inputs` inputs.
    pub fn one(inputs: usize) -> Self {
        Self::new(inputs, u64::MAX)
    }

    /// The identity (buffer) function.
    pub fn buf() -> Self {
        Self::new(1, 0b10)
    }

    /// The inverter function.
    pub fn not() -> Self {
        Self::new(1, 0b01)
    }

    /// N-input AND.
    pub fn and(inputs: usize) -> Self {
        Self::from_fn(inputs, |r| r == (1 << inputs) - 1)
    }

    /// N-input OR.
    pub fn or(inputs: usize) -> Self {
        Self::from_fn(inputs, |r| r != 0)
    }

    /// N-input NAND.
    pub fn nand(inputs: usize) -> Self {
        Self::and(inputs).complement()
    }

    /// N-input NOR.
    pub fn nor(inputs: usize) -> Self {
        Self::or(inputs).complement()
    }

    /// N-input XOR (odd parity).
    pub fn xor(inputs: usize) -> Self {
        Self::from_fn(inputs, |r| r.count_ones() % 2 == 1)
    }

    /// N-input XNOR (even parity).
    pub fn xnor(inputs: usize) -> Self {
        Self::xor(inputs).complement()
    }

    /// 2:1 multiplexer with pin order `[S, A, B]`: output is `A` when `S=0`
    /// and `B` when `S=1`.
    pub fn mux2() -> Self {
        Self::from_fn(3, |r| {
            let s = r & 1 != 0;
            let a = r & 2 != 0;
            let b = r & 4 != 0;
            if s {
                b
            } else {
                a
            }
        })
    }

    /// 3-input majority function (the carry of a full adder).
    pub fn maj3() -> Self {
        Self::from_fn(3, |r| r.count_ones() >= 2)
    }

    /// AND-OR-INVERT 2-1 with pin order `[A1, A2, B]`: `!((A1 & A2) | B)`.
    pub fn aoi21() -> Self {
        Self::from_fn(3, |r| {
            let a1 = r & 1 != 0;
            let a2 = r & 2 != 0;
            let b = r & 4 != 0;
            !((a1 && a2) || b)
        })
    }

    /// AND-OR-INVERT 2-2 with pin order `[A1, A2, B1, B2]`:
    /// `!((A1 & A2) | (B1 & B2))`.
    pub fn aoi22() -> Self {
        Self::from_fn(4, |r| {
            let a1 = r & 1 != 0;
            let a2 = r & 2 != 0;
            let b1 = r & 4 != 0;
            let b2 = r & 8 != 0;
            !((a1 && a2) || (b1 && b2))
        })
    }

    /// OR-AND-INVERT 2-1 with pin order `[A1, A2, B]`: `!((A1 | A2) & B)`.
    pub fn oai21() -> Self {
        Self::from_fn(3, |r| {
            let a1 = r & 1 != 0;
            let a2 = r & 2 != 0;
            let b = r & 4 != 0;
            !((a1 || a2) && b)
        })
    }

    /// OR-AND-INVERT 2-2 with pin order `[A1, A2, B1, B2]`:
    /// `!((A1 | A2) & (B1 | B2))`.
    pub fn oai22() -> Self {
        Self::from_fn(4, |r| {
            let a1 = r & 1 != 0;
            let a2 = r & 2 != 0;
            let b1 = r & 4 != 0;
            let b2 = r & 8 != 0;
            !((a1 || a2) && (b1 || b2))
        })
    }

    /// Number of input pins.
    #[inline]
    pub fn inputs(&self) -> usize {
        self.inputs as usize
    }

    /// The packed row bitmap.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Evaluates the function on input row `row` (bit `i` of `row` is the
    /// value of pin `i`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `row` addresses a non-existent row.
    #[inline]
    pub fn eval(&self, row: usize) -> bool {
        debug_assert!(row < 1 << self.inputs);
        (self.bits >> row) & 1 != 0
    }

    /// Evaluates the function on a slice of pin values.
    ///
    /// # Panics
    ///
    /// Panics if `pins.len()` differs from [`TruthTable::inputs`].
    pub fn eval_pins(&self, pins: &[bool]) -> bool {
        assert_eq!(pins.len(), self.inputs());
        let mut row = 0usize;
        for (i, &v) in pins.iter().enumerate() {
            row |= (v as usize) << i;
        }
        self.eval(row)
    }

    /// Evaluates the function on 64 packed input assignments at once.
    ///
    /// Bit lane `l` of `rows[pin]` carries the value of input `pin` in
    /// scenario `l`; lane `l` of the returned word carries the corresponding
    /// output.  This is the word-level primitive of bit-parallel fault
    /// simulation: one call evaluates the cell for 64 independent fault
    /// scenarios.
    ///
    /// The function is expanded as a sum of minterms over whichever polarity
    /// of the table has fewer rows (complementing at the end when the
    /// off-set was used), so common cells cost only a handful of word ops.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` differs from [`TruthTable::inputs`].
    // The simulators call this once per row per settle from another crate;
    // without `#[inline]` that is an out-of-line call in their hottest loop.
    #[inline]
    pub fn eval_wide(&self, rows: &[u64]) -> u64 {
        assert_eq!(rows.len(), self.inputs(), "one packed word per input pin");
        let num_rows = 1usize << self.inputs;
        let ones = self.bits.count_ones() as usize;
        let (mut remaining, invert) = if ones * 2 <= num_rows {
            (self.bits, false)
        } else {
            (!self.bits & Self::row_mask(self.inputs()), true)
        };
        let mut acc = 0u64;
        while remaining != 0 {
            let row = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let mut term = u64::MAX;
            for (pin, &word) in rows.iter().enumerate() {
                term &= if row & (1 << pin) != 0 { word } else { !word };
            }
            acc |= term;
        }
        if invert {
            !acc
        } else {
            acc
        }
    }

    /// The complemented function.
    pub fn complement(&self) -> Self {
        Self::new(self.inputs(), !self.bits)
    }

    /// Returns `true` if the output depends on input pin `pin`.
    pub fn depends_on(&self, pin: usize) -> bool {
        assert!(pin < self.inputs());
        for row in 0..1usize << self.inputs {
            if row & (1 << pin) == 0 && self.eval(row) != self.eval(row | (1 << pin)) {
                return true;
            }
        }
        false
    }

    /// Bitmask of pins the output actually depends on.
    pub fn support(&self) -> u8 {
        let mut mask = 0u8;
        for pin in 0..self.inputs() {
            if self.depends_on(pin) {
                mask |= 1 << pin;
            }
        }
        mask
    }

    /// Returns `true` if, with the trusted pins fixed to their values in
    /// `row`, the output is the same for **every** assignment of the pins in
    /// `faulty_mask`.
    ///
    /// This is the core test behind gate-masking terms: a trusted assignment
    /// masks a fault iff the output no longer depends on the faulty pins.
    pub fn masks_fault(&self, faulty_mask: u8, row: usize) -> bool {
        let faulty = faulty_mask as usize & ((1 << self.inputs) - 1);
        let base = row & !faulty;
        let reference = self.eval(base);
        // Iterate all non-empty submasks of `faulty`.
        let mut sub = faulty;
        while sub != 0 {
            if self.eval(base | sub) != reference {
                return false;
            }
            sub = (sub - 1) & faulty;
        }
        true
    }

    /// Cofactor: the function with pin `pin` fixed to `value`, over the
    /// remaining `inputs - 1` pins (higher pins shift down by one).
    pub fn cofactor(&self, pin: usize, value: bool) -> Self {
        assert!(pin < self.inputs());
        let n = self.inputs() - 1;
        Self::from_fn(n, |r| {
            let low = r & ((1 << pin) - 1);
            let high = (r >> pin) << (pin + 1);
            self.eval(low | high | ((value as usize) << pin))
        })
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} inputs, {:#x})", self.inputs, self.bits)
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in (0..1usize << self.inputs).rev() {
            write!(f, "{}", self.eval(row) as u8)?;
        }
        Ok(())
    }
}

/// A cube (conjunction of literals) over the input *pins* of a single cell.
///
/// `care` is the bitmask of pins constrained by the cube and `values` holds
/// the required value for each constrained pin (`values ⊆ care`).
///
/// # Example
///
/// ```
/// use mate_netlist::{masking_cubes, TruthTable};
///
/// // AND2 with a faulty pin 0 is masked when pin 1 is zero.
/// let cubes = masking_cubes(&TruthTable::and(2), 0b01);
/// assert_eq!(cubes.len(), 1);
/// assert_eq!(cubes[0].literals().collect::<Vec<_>>(), vec![(1, false)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PinCube {
    care: u8,
    values: u8,
}

impl PinCube {
    /// Creates a cube from a care mask and values.
    ///
    /// # Panics
    ///
    /// Panics if `values` constrains pins outside `care`.
    pub fn new(care: u8, values: u8) -> Self {
        assert_eq!(values & !care, 0, "values must be a subset of care");
        Self { care, values }
    }

    /// The cube with no literals (always true).
    pub fn top() -> Self {
        Self { care: 0, values: 0 }
    }

    /// Bitmask of constrained pins.
    #[inline]
    pub fn care(&self) -> u8 {
        self.care
    }

    /// Required values of the constrained pins.
    #[inline]
    pub fn values(&self) -> u8 {
        self.values
    }

    /// Number of literals in the cube.
    #[inline]
    pub fn num_literals(&self) -> usize {
        self.care.count_ones() as usize
    }

    /// Returns `true` when the input row `row` satisfies the cube.
    #[inline]
    pub fn matches(&self, row: usize) -> bool {
        (row as u8) & self.care == self.values
    }

    /// Iterates over `(pin, polarity)` literals.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..8).filter_map(move |pin| {
            if self.care & (1 << pin) != 0 {
                Some((pin, self.values & (1 << pin) != 0))
            } else {
                None
            }
        })
    }

    /// Returns `true` if `self` is implied by `other` (every row matching
    /// `other` also matches `self`).
    pub fn subsumes(&self, other: &PinCube) -> bool {
        self.care & other.care == self.care && other.values & self.care == self.values
    }
}

impl fmt::Debug for PinCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.care == 0 {
            return write!(f, "⊤");
        }
        let mut first = true;
        for (pin, pol) in self.literals() {
            if !first {
                write!(f, "∧")?;
            }
            first = false;
            if !pol {
                write!(f, "¬")?;
            }
            write!(f, "p{pin}")?;
        }
        Ok(())
    }
}

/// Computes all prime gate-masking cubes for `tt` with the pins in
/// `faulty_mask` considered faulty.
///
/// A returned cube constrains only trusted pins (pins outside `faulty_mask`)
/// and guarantees: whenever the trusted pins satisfy the cube, the cell output
/// is independent of the faulty pins — the fault is *masked* at this gate.
/// The result is the complete set of prime implicants of the masking
/// condition, sorted by literal count (cheapest first) and then
/// lexicographically; it is empty when the gate has no masking capability for
/// this faulty set (e.g. any XOR gate).
///
/// # Panics
///
/// Panics if `faulty_mask` selects no pin of `tt` or only pins outside the
/// table.
///
/// # Example
///
/// ```
/// use mate_netlist::{masking_cubes, TruthTable};
///
/// // The paper's example: MUX(S, A, B) with faulty select S is masked when
/// // both data inputs agree: {(¬A∧¬B), (A∧B)}.
/// let cubes = masking_cubes(&TruthTable::mux2(), 0b001);
/// assert_eq!(cubes.len(), 2);
/// assert!(cubes.iter().all(|c| c.num_literals() == 2));
/// ```
pub fn masking_cubes(tt: &TruthTable, faulty_mask: u8) -> Vec<PinCube> {
    let n = tt.inputs();
    let all = ((1usize << n) - 1) as u8;
    let faulty = faulty_mask & all;
    assert!(faulty != 0, "faulty mask must select at least one pin");
    let trusted = all & !faulty;

    // Collect all trusted assignments under which the fault is masked.
    let mut masked_rows: Vec<u8> = Vec::new();
    let mut t = trusted as usize;
    // Iterate all submasks of `trusted` (including 0), i.e. all trusted
    // assignments, via the standard submask-walk.
    loop {
        if tt.masks_fault(faulty, t) {
            masked_rows.push(t as u8);
        }
        if t == 0 {
            break;
        }
        t = (t - 1) & trusted as usize;
    }

    if masked_rows.is_empty() {
        return Vec::new();
    }

    // Quine–McCluskey merging restricted to trusted pins; faulty pins are
    // don't-care dimensions from the start.
    let mut current: Vec<PinCube> = masked_rows
        .into_iter()
        .map(|v| PinCube::new(trusted, v))
        .collect();
    current.sort();
    current.dedup();

    let mut primes: Vec<PinCube> = Vec::new();
    while !current.is_empty() {
        let mut merged_flag = vec![false; current.len()];
        let mut next: Vec<PinCube> = Vec::new();
        for i in 0..current.len() {
            for j in (i + 1)..current.len() {
                let (a, b) = (current[i], current[j]);
                if a.care != b.care {
                    continue;
                }
                let diff = a.values ^ b.values;
                if diff.is_power_of_two() {
                    merged_flag[i] = true;
                    merged_flag[j] = true;
                    next.push(PinCube::new(a.care & !diff, a.values & !diff));
                }
            }
        }
        for (i, cube) in current.iter().enumerate() {
            if !merged_flag[i] {
                primes.push(*cube);
            }
        }
        next.sort();
        next.dedup();
        current = next;
    }

    primes.sort_by_key(|c| (c.num_literals(), c.care, c.values));
    primes.dedup();
    // Drop non-prime leftovers subsumed by broader cubes (can appear when a
    // cube merges along one dimension but an equal-care sibling does not).
    let mut result: Vec<PinCube> = Vec::new();
    for cube in primes {
        if !result.iter().any(|p| p.subsumes(&cube)) {
            result.push(cube);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_wide_matches_scalar_eval() {
        // Every interesting shape: sparse on-set, sparse off-set, constants,
        // parity (worst case for minterm expansion), and a 6-input table.
        let tables = [
            TruthTable::zero(0),
            TruthTable::one(0),
            TruthTable::buf(),
            TruthTable::not(),
            TruthTable::and(2),
            TruthTable::or(4),
            TruthTable::nand(3),
            TruthTable::nor(2),
            TruthTable::xor(4),
            TruthTable::xnor(3),
            TruthTable::mux2(),
            TruthTable::maj3(),
            TruthTable::new(6, 0xDEAD_BEEF_0123_4567),
        ];
        for tt in tables {
            let pins = tt.inputs();
            // Pack lane l with input row (l * 2654435761) % 2^pins so the 64
            // lanes cover a scrambled spread of assignments.
            let lane_row = |l: usize| (l.wrapping_mul(2654435761)) & ((1 << pins) - 1);
            let mut rows = vec![0u64; pins];
            for (pin, word) in rows.iter_mut().enumerate() {
                for l in 0..64 {
                    if lane_row(l) & (1 << pin) != 0 {
                        *word |= 1u64 << l;
                    }
                }
            }
            let wide = tt.eval_wide(&rows);
            for l in 0..64 {
                assert_eq!(
                    wide & (1 << l) != 0,
                    tt.eval(lane_row(l)),
                    "lane {l} of {tt:?} disagrees with scalar eval"
                );
            }
        }
    }

    #[test]
    fn basic_gates_eval() {
        assert!(TruthTable::and(2).eval(0b11));
        assert!(!TruthTable::and(2).eval(0b01));
        assert!(TruthTable::or(3).eval(0b100));
        assert!(!TruthTable::or(3).eval(0b000));
        assert!(TruthTable::xor(2).eval(0b10));
        assert!(!TruthTable::xor(2).eval(0b11));
        assert!(TruthTable::not().eval(0));
        assert!(!TruthTable::not().eval(1));
        assert!(TruthTable::buf().eval(1));
    }

    #[test]
    fn mux2_selects() {
        let mux = TruthTable::mux2();
        // S=0 -> A
        assert!(mux.eval_pins(&[false, true, false]));
        assert!(!mux.eval_pins(&[false, false, true]));
        // S=1 -> B
        assert!(mux.eval_pins(&[true, false, true]));
        assert!(!mux.eval_pins(&[true, true, false]));
    }

    #[test]
    fn maj3_is_full_adder_carry() {
        let maj = TruthTable::maj3();
        for r in 0..8usize {
            let ones = r.count_ones();
            assert_eq!(maj.eval(r), ones >= 2, "row {r}");
        }
    }

    #[test]
    fn aoi_oai_functions() {
        let aoi21 = TruthTable::aoi21();
        assert!(aoi21.eval(0b000));
        assert!(!aoi21.eval(0b011)); // A1&A2
        assert!(!aoi21.eval(0b100)); // B
        let oai21 = TruthTable::oai21();
        assert!(oai21.eval(0b000));
        assert!(oai21.eval(0b011)); // B=0
        assert!(!oai21.eval(0b101)); // (A1|A2)&B
    }

    #[test]
    fn depends_on_and_support() {
        let and2 = TruthTable::and(2);
        assert!(and2.depends_on(0));
        assert!(and2.depends_on(1));
        assert_eq!(and2.support(), 0b11);
        let constant = TruthTable::one(3);
        assert_eq!(constant.support(), 0);
    }

    #[test]
    fn cofactor_reduces_inputs() {
        let mux = TruthTable::mux2();
        // Fix S=0: remaining function of (A, B) is A (pin 0 after shift).
        let f = mux.cofactor(0, false);
        assert_eq!(f.inputs(), 2);
        for r in 0..4usize {
            assert_eq!(f.eval(r), r & 1 != 0);
        }
        // Fix S=1: function is B.
        let g = mux.cofactor(0, true);
        for r in 0..4usize {
            assert_eq!(g.eval(r), r & 2 != 0);
        }
    }

    #[test]
    fn masks_fault_and_gate() {
        let and2 = TruthTable::and(2);
        // Faulty pin 0 masked when pin 1 = 0.
        assert!(and2.masks_fault(0b01, 0b00));
        assert!(!and2.masks_fault(0b01, 0b10));
    }

    #[test]
    fn masking_cubes_and_or_nand() {
        // AND2, faulty A -> {¬B}
        let cubes = masking_cubes(&TruthTable::and(2), 0b01);
        assert_eq!(cubes, vec![PinCube::new(0b10, 0b00)]);
        // OR2, faulty A -> {B}
        let cubes = masking_cubes(&TruthTable::or(2), 0b01);
        assert_eq!(cubes, vec![PinCube::new(0b10, 0b10)]);
        // NAND3, faulty pin 0 -> {¬B} or {¬C}
        let cubes = masking_cubes(&TruthTable::nand(3), 0b001);
        assert_eq!(
            cubes,
            vec![PinCube::new(0b010, 0b000), PinCube::new(0b100, 0b000)]
        );
    }

    #[test]
    fn masking_cubes_xor_is_empty() {
        assert!(masking_cubes(&TruthTable::xor(2), 0b01).is_empty());
        assert!(masking_cubes(&TruthTable::xor(3), 0b010).is_empty());
        assert!(masking_cubes(&TruthTable::xnor(2), 0b10).is_empty());
    }

    #[test]
    fn masking_cubes_mux_paper_example() {
        // GM(MUX, {S}) = {(¬A∧¬B), (A∧B)}
        let cubes = masking_cubes(&TruthTable::mux2(), 0b001);
        assert_eq!(
            cubes,
            vec![PinCube::new(0b110, 0b000), PinCube::new(0b110, 0b110)]
        );
        // GM(MUX, {A}) = {S} (select the other input).
        let cubes = masking_cubes(&TruthTable::mux2(), 0b010);
        assert_eq!(cubes, vec![PinCube::new(0b001, 0b001)]);
    }

    #[test]
    fn masking_cubes_multiple_faulty_pins() {
        // NAND3 with pins {0,1} faulty is masked when pin 2 = 0.
        let cubes = masking_cubes(&TruthTable::nand(3), 0b011);
        assert_eq!(cubes, vec![PinCube::new(0b100, 0b000)]);
        // MUX with both data pins faulty: never maskable (output always
        // follows one of them).
        assert!(masking_cubes(&TruthTable::mux2(), 0b110).is_empty());
    }

    #[test]
    fn masking_cubes_aoi21() {
        // AOI21 = !((A1&A2)|B); faulty B masked when A1&A2 (output pinned 0).
        let cubes = masking_cubes(&TruthTable::aoi21(), 0b100);
        assert_eq!(cubes, vec![PinCube::new(0b011, 0b011)]);
        // Faulty A1: masked when A2=0 (AND branch dead) or B=1 (output 0).
        let cubes = masking_cubes(&TruthTable::aoi21(), 0b001);
        assert_eq!(
            cubes,
            vec![PinCube::new(0b010, 0b000), PinCube::new(0b100, 0b100)]
        );
    }

    #[test]
    fn masking_cubes_all_faulty_single_input() {
        // Inverter with its only pin faulty can never be masked.
        assert!(masking_cubes(&TruthTable::not(), 0b1).is_empty());
        // But a constant cell of 1 input (degenerate) masks trivially.
        let c = TruthTable::one(1);
        let cubes = masking_cubes(&c, 0b1);
        assert_eq!(cubes, vec![PinCube::top()]);
    }

    #[test]
    fn pin_cube_matching_and_subsume() {
        let c = PinCube::new(0b101, 0b001);
        assert!(c.matches(0b001));
        assert!(c.matches(0b011));
        assert!(!c.matches(0b101));
        assert_eq!(c.num_literals(), 2);
        let broader = PinCube::new(0b001, 0b001);
        assert!(broader.subsumes(&c));
        assert!(!c.subsumes(&broader));
        assert!(PinCube::top().subsumes(&c));
    }

    #[test]
    fn cube_soundness_exhaustive_small() {
        // For every 2- and 3-input function, every returned cube must mask and
        // every masking row must be covered by some cube.
        for n in 2..=3usize {
            let rows = 1usize << (1 << n);
            // Subsample functions for n=3 to keep the test quick but
            // deterministic.
            let step = if n == 2 { 1 } else { 97 };
            for bits in (0..rows).step_by(step) {
                let tt = TruthTable::new(n, bits as u64);
                for faulty in 1..(1u8 << n) {
                    let cubes = masking_cubes(&tt, faulty);
                    let trusted = ((1usize << n) - 1) & !(faulty as usize);
                    let mut t = trusted;
                    loop {
                        let masked = tt.masks_fault(faulty, t);
                        let covered = cubes.iter().any(|c| c.matches(t));
                        assert_eq!(masked, covered, "tt={tt:?} faulty={faulty:#b} t={t:#b}");
                        if t == 0 {
                            break;
                        }
                        t = (t - 1) & trusted;
                    }
                }
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TruthTable::and(2)), "1000");
        assert_eq!(format!("{:?}", PinCube::new(0b11, 0b01)), "p0∧¬p1");
        assert_eq!(format!("{:?}", PinCube::top()), "⊤");
    }
}
