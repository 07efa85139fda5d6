//! FPGA integration cost models (paper Sections 1.1 and 6.1).

use mate::{Mate, MateSet};

/// Estimates the LUT cost of synthesizing MATEs into an FPGA.
///
/// A boolean function of `n` inputs needs one `k`-input LUT when `n ≤ k`,
/// otherwise a LUT tree of `⌈(n−1)/(k−1)⌉` LUTs — the standard capacity
/// estimate.  The paper argues (Section 6.1) that MATEs average fewer than 6
/// inputs, so one or two LUTs each, negligible against fault-injection
/// controllers of 1500–6000 LUTs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LutCostModel {
    /// LUT input width (6 on the paper's Virtex-6 reference device).
    pub lut_inputs: usize,
}

impl Default for LutCostModel {
    fn default() -> Self {
        Self { lut_inputs: 6 }
    }
}

/// LUT budget of the FI controller alone on published HAFI platforms
/// (lower bound; paper Section 6.1, references 9 and 19).
pub const CONTROLLER_LUTS_MIN: usize = 1500;
/// Upper bound of the published FI-controller LUT budgets.
pub const CONTROLLER_LUTS_MAX: usize = 6000;
/// LUT capacity of the paper's mid-range reference FPGA (XC6VLX240T).
pub const MIDRANGE_FPGA_LUTS: usize = 150_000;

impl LutCostModel {
    /// Creates a model for `lut_inputs`-input LUTs.
    ///
    /// # Panics
    ///
    /// Panics if `lut_inputs < 2`.
    pub fn new(lut_inputs: usize) -> Self {
        assert!(lut_inputs >= 2, "LUTs need at least two inputs");
        Self { lut_inputs }
    }

    /// LUTs for one `n`-input AND (a MATE cube is a plain conjunction).
    pub fn luts_for_inputs(&self, n: usize) -> usize {
        if n <= 1 {
            // A constant or a bare wire costs no LUT.
            0
        } else if n <= self.lut_inputs {
            1
        } else {
            (n - 1).div_ceil(self.lut_inputs - 1)
        }
    }

    /// LUTs for one MATE.
    pub fn luts_for_mate(&self, mate: &Mate) -> usize {
        self.luts_for_inputs(mate.num_inputs())
    }

    /// Total LUTs for a MATE set, including the per-faulty-wire OR trees
    /// that combine MATEs masking the same wire into one "prune" signal.
    pub fn luts_for_set(&self, mates: &MateSet) -> usize {
        let mate_luts: usize = mates.iter().map(|m| self.luts_for_mate(m)).sum();
        // Count how many MATEs feed each wire's OR tree.
        let mut per_wire: std::collections::HashMap<mate_netlist::NetId, usize> =
            std::collections::HashMap::new();
        for mate in mates {
            for &w in &mate.masked {
                *per_wire.entry(w).or_insert(0) += 1;
            }
        }
        let or_luts: usize = per_wire
            .values()
            .map(|&fan_in| self.luts_for_inputs(fan_in))
            .sum();
        mate_luts + or_luts
    }

    /// The MATE set's LUT cost relative to the *smallest* published FI
    /// controller — the paper's "negligible overhead" argument.
    pub fn relative_overhead(&self, mates: &MateSet) -> f64 {
        self.luts_for_set(mates) as f64 / CONTROLLER_LUTS_MIN as f64
    }
}

/// Models the injection-command bandwidth argument of Section 1.1: with
/// online pruning, a campaign controller distributing work across FPGAs can
/// send coarse commands (`inject(cycle)`) instead of fine ones
/// (`inject(cycle, wire)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommandModel {
    /// Bits to address a cycle.
    pub cycle_bits: u32,
    /// Bits to address a wire.
    pub wire_bits: u32,
}

impl CommandModel {
    /// A model sized for a fault space of `cycles × wires`.
    pub fn for_space(cycles: usize, wires: usize) -> Self {
        Self {
            cycle_bits: usize::BITS - cycles.next_power_of_two().leading_zeros(),
            wire_bits: usize::BITS - wires.next_power_of_two().leading_zeros(),
        }
    }

    /// Command bits for a fine-grained `inject(cycle, wire)` campaign of
    /// `experiments` injections.
    pub fn fine_bits(&self, experiments: usize) -> u64 {
        (self.cycle_bits + self.wire_bits) as u64 * experiments as u64
    }

    /// Command bits for coarse `inject(cycle)` commands where the FPGA-side
    /// MATE logic picks the wires itself.
    pub fn coarse_bits(&self, experiments: usize) -> u64 {
        self.cycle_bits as u64 * experiments as u64
    }

    /// Bandwidth saved by coarse commands, as a fraction of the fine-grained
    /// bandwidth.
    pub fn savings(&self, experiments: usize) -> f64 {
        let fine = self.fine_bits(experiments);
        if fine == 0 {
            return 0.0;
        }
        1.0 - self.coarse_bits(experiments) as f64 / fine as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate::{summarize, Mate};
    use mate_netlist::{NetCube, NetId};

    fn net(i: usize) -> NetId {
        NetId::from_index(i)
    }

    fn mate_with_inputs(n: usize, wire: usize) -> Mate {
        let cube = NetCube::from_literals((0..n).map(|i| (net(i), true))).unwrap();
        Mate::single(cube, net(wire))
    }

    #[test]
    fn single_lut_up_to_k_inputs() {
        let model = LutCostModel::default();
        for n in 2..=6 {
            assert_eq!(model.luts_for_inputs(n), 1, "n={n}");
        }
        assert_eq!(model.luts_for_inputs(7), 2);
        assert_eq!(model.luts_for_inputs(11), 2);
        assert_eq!(model.luts_for_inputs(12), 3);
        assert_eq!(model.luts_for_inputs(1), 0);
        assert_eq!(model.luts_for_inputs(0), 0);
    }

    #[test]
    fn four_input_luts_cost_more() {
        let model = LutCostModel::new(4);
        assert_eq!(model.luts_for_inputs(6), 2);
        assert_eq!(model.luts_for_inputs(10), 3);
    }

    #[test]
    fn set_cost_includes_or_trees() {
        let model = LutCostModel::default();
        // Two 3-input MATEs masking the same wire: 2 LUTs + 1 OR LUT.
        let set = summarize([
            mate_with_inputs(3, 100),
            Mate::single(
                NetCube::from_literals([(net(5), false), (net(6), true), (net(7), true)]).unwrap(),
                net(100),
            ),
        ]);
        assert_eq!(set.len(), 2);
        assert_eq!(model.luts_for_set(&set), 3);
    }

    #[test]
    fn paper_claim_50_mates_negligible() {
        // 50 MATEs of ≤6 inputs each: well below 5% of the smallest
        // controller.
        let model = LutCostModel::default();
        let set = summarize((0..50).map(|i| mate_with_inputs(5, 200 + i)));
        let luts = model.luts_for_set(&set);
        assert!(luts <= 100);
        assert!(model.relative_overhead(&set) < 0.07);
        assert!(luts < MIDRANGE_FPGA_LUTS / 1000);
    }

    #[test]
    fn command_model_savings() {
        let m = CommandModel::for_space(8500, 383);
        assert!(m.cycle_bits >= 14);
        assert!(m.wire_bits >= 9);
        let savings = m.savings(1000);
        assert!(savings > 0.3, "coarse commands must save bandwidth");
        assert_eq!(m.coarse_bits(0), 0);
        assert_eq!(
            CommandModel::for_space(0, 0).savings(0).to_bits(),
            0f64.to_bits()
        );
    }
}
