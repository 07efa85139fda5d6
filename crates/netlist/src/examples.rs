//! Small hand-built circuits used in documentation, tests, and the
//! reproduction of Figure 1 of the paper.

use crate::graph::Topology;
use crate::library::Library;
use crate::netlist::Netlist;

/// The combinational example circuit from Figure 1a of the paper.
///
/// * inputs `a, b, c, d, e`
/// * gate `A` = NAND2(a, b) → `f`
/// * gate `B` = XOR2(c, d) → `g`
/// * gate `C` = INV(e) → `h` (also a primary output)
/// * gate `D` = AND2(g, f) → `k` (primary output)
/// * gate `E` = OR2(g, h) → `l` (primary output)
///
/// The fault cone of `d` is `{d, g, k, l}` with gates `{B, D, E}` and border
/// wires `{c, f, h}`; MATEs for `d` include `¬f∧h` and (pushed to primary
/// inputs) `a∧b∧¬e`.  Input `e` has no MATE because its fault reaches the
/// primary output `h` straight through the inverter `C`.
///
/// # Panics
///
/// Never panics; the circuit is statically valid.
pub fn figure1() -> (Netlist, Topology) {
    let lib = Library::open15();
    let mut n = Netlist::new("figure1", lib);
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let d = n.add_input("d");
    let e = n.add_input("e");
    let f = n
        .add_cell_named("NAND2", "A", &[a, b], "f")
        .expect("valid cell");
    let g = n
        .add_cell_named("XOR2", "B", &[c, d], "g")
        .expect("valid cell");
    let h = n.add_cell_named("INV", "C", &[e], "h").expect("valid cell");
    let k = n
        .add_cell_named("AND2", "D", &[g, f], "k")
        .expect("valid cell");
    let l = n
        .add_cell_named("OR2", "E", &[g, h], "l")
        .expect("valid cell");
    n.set_output(h);
    n.set_output(k);
    n.set_output(l);
    let topo = n.validate().expect("figure1 circuit is valid");
    (n, topo)
}

/// A 5-flip-flop synchronous circuit in the spirit of Figure 1b.
///
/// State bits `a..e` with next-state logic
///
/// * `c' = a AND b` — faults in `a`/`b` are masked by MATEs `¬b`/`¬a`,
/// * `d' = c OR d` — faults in `c` are masked by MATE `d`,
/// * `e' = d XOR e`, `a' = NOT e` — faults in `d`/`e` are unmaskable
///   (`d` is also directly observable),
/// * `b' = in` (primary input).
///
/// Primary output: `d`.
///
/// # Panics
///
/// Never panics; the circuit is statically valid.
pub fn figure1b() -> (Netlist, Topology) {
    let lib = Library::open15();
    let mut n = Netlist::new("figure1b", lib);
    let input = n.add_input("in");
    let a = n.add_net("a");
    let b = n.add_net("b");
    let c = n.add_net("c");
    let d = n.add_net("d");
    let e = n.add_net("e");
    let c_next = n
        .add_cell_named("AND2", "g_ab", &[a, b], "c_next")
        .expect("valid cell");
    let d_next = n
        .add_cell_named("OR2", "g_cd", &[c, d], "d_next")
        .expect("valid cell");
    let e_next = n
        .add_cell_named("XOR2", "g_de", &[d, e], "e_next")
        .expect("valid cell");
    let a_next = n
        .add_cell_named("INV", "g_e", &[e], "a_next")
        .expect("valid cell");
    n.add_cell_to("DFF", "ff_a", &[a_next], a).expect("ff");
    n.add_cell_to("DFF", "ff_b", &[input], b).expect("ff");
    n.add_cell_to("DFF", "ff_c", &[c_next], c).expect("ff");
    n.add_cell_to("DFF", "ff_d", &[d_next], d).expect("ff");
    n.add_cell_to("DFF", "ff_e", &[e_next], e).expect("ff");
    n.set_output(d);
    let topo = n.validate().expect("figure1b circuit is valid");
    (n, topo)
}

/// An `width`-bit binary up-counter with enable input `en`.
///
/// Built from XOR/AND gates and DFFs; output nets are named `q0..q{w-1}`.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn counter(width: usize) -> (Netlist, Topology) {
    assert!(width > 0, "counter width must be positive");
    let lib = Library::open15();
    let mut n = Netlist::new("counter", lib);
    let en = n.add_input("en");
    let qs: Vec<_> = (0..width).map(|i| n.add_net(&format!("q{i}"))).collect();
    let mut carry = en;
    for (i, &q) in qs.iter().enumerate() {
        let d = n
            .add_cell_named("XOR2", &format!("sum{i}"), &[q, carry], &format!("d{i}"))
            .expect("valid cell");
        n.add_cell_to("DFF", &format!("ff{i}"), &[d], q)
            .expect("ff");
        if i + 1 < width {
            carry = n
                .add_cell_named("AND2", &format!("carry{i}"), &[q, carry], &format!("c{i}"))
                .expect("valid cell");
        }
        n.set_output(q);
    }
    let topo = n.validate().expect("counter circuit is valid");
    (n, topo)
}

/// A triple-modular-redundant register with majority-vote feedback.
///
/// Three flip-flops `r0, r1, r2` each reload `MUX2(load, vote, in)` where
/// `vote = MAJ3(r0, r1, r2)`.  A fault in any single replica is masked within
/// one cycle whenever the circuit votes (i.e. `load = 0` and the other two
/// replicas agree) — the textbook case of state-dependent fault masking.
///
/// # Panics
///
/// Never panics; the circuit is statically valid.
pub fn tmr_register() -> (Netlist, Topology) {
    let lib = Library::open15();
    let mut n = Netlist::new("tmr", lib);
    let load = n.add_input("load");
    let din = n.add_input("din");
    let r: Vec<_> = (0..3).map(|i| n.add_net(&format!("r{i}"))).collect();
    let vote = n
        .add_cell_named("MAJ3", "voter", &[r[0], r[1], r[2]], "vote")
        .expect("valid cell");
    for (i, &q) in r.iter().enumerate() {
        let d = n
            .add_cell_named(
                "MUX2",
                &format!("sel{i}"),
                &[load, vote, din],
                &format!("d{i}"),
            )
            .expect("valid cell");
        n.add_cell_to("DFF", &format!("ff{i}"), &[d], q)
            .expect("ff");
    }
    n.set_output(vote);
    let topo = n.validate().expect("tmr circuit is valid");
    (n, topo)
}

/// A bank of `bits` independent TMR-voted register slices.
///
/// Each slice is a [`tmr_register`]: three replicas reloading
/// `MUX2(load, vote, data)` with `vote = MAJ3(r0, r1, r2)`.  All slices
/// share the `load` and `din` inputs (odd slices store `¬din` so the bank
/// state is not uniform); slice `s` exposes its vote as output `b{s}_vote`.
///
/// This is the masked-heavy campaign workload: nearly every replica upset
/// is voted away within one cycle and each flip-flop's fault cone stays
/// inside its own slice — representative of protected register files in
/// real radiation-hardened designs.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn tmr_bank(bits: usize) -> (Netlist, Topology) {
    assert!(bits > 0, "tmr bank width must be positive");
    let lib = Library::open15();
    let mut n = Netlist::new("tmr_bank", lib);
    let load = n.add_input("load");
    let din = n.add_input("din");
    let ndin = n
        .add_cell_named("INV", "inv_din", &[din], "ndin")
        .expect("valid cell");
    for s in 0..bits {
        let data = if s % 2 == 0 { din } else { ndin };
        let r: Vec<_> = (0..3).map(|i| n.add_net(&format!("b{s}_r{i}"))).collect();
        let vote = n
            .add_cell_named(
                "MAJ3",
                &format!("b{s}_voter"),
                &[r[0], r[1], r[2]],
                &format!("b{s}_vote"),
            )
            .expect("valid cell");
        for (i, &q) in r.iter().enumerate() {
            let d = n
                .add_cell_named(
                    "MUX2",
                    &format!("b{s}_sel{i}"),
                    &[load, vote, data],
                    &format!("b{s}_d{i}"),
                )
                .expect("valid cell");
            n.add_cell_to("DFF", &format!("b{s}_ff{i}"), &[d], q)
                .expect("ff");
        }
        n.set_output(vote);
    }
    let topo = n.validate().expect("tmr bank circuit is valid");
    (n, topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shapes() {
        let (n, topo) = figure1();
        assert_eq!(n.inputs().len(), 5);
        assert_eq!(n.outputs().len(), 3);
        assert_eq!(topo.comb_order().len(), 5);
        assert!(topo.seq_cells().is_empty());
    }

    #[test]
    fn figure1b_shapes() {
        let (n, topo) = figure1b();
        assert_eq!(topo.seq_cells().len(), 5);
        assert_eq!(n.inputs().len(), 1);
        assert_eq!(n.outputs().len(), 1);
    }

    #[test]
    fn counter_shapes() {
        let (n, topo) = counter(4);
        assert_eq!(topo.seq_cells().len(), 4);
        assert_eq!(n.outputs().len(), 4);
        // 4 XORs + 3 carry ANDs.
        assert_eq!(topo.comb_order().len(), 7);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn counter_zero_width_panics() {
        counter(0);
    }

    #[test]
    fn tmr_bank_shapes() {
        let (n, topo) = tmr_bank(8);
        assert_eq!(topo.seq_cells().len(), 24);
        // 1 shared inverter + per slice: 1 voter + 3 muxes.
        assert_eq!(topo.comb_order().len(), 1 + 8 * 4);
        assert_eq!(n.outputs().len(), 8);
        assert_eq!(n.inputs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tmr_bank_zero_width_panics() {
        tmr_bank(0);
    }

    #[test]
    fn tmr_shapes() {
        let (n, topo) = tmr_register();
        assert_eq!(topo.seq_cells().len(), 3);
        // 1 voter + 3 muxes.
        assert_eq!(topo.comb_order().len(), 4);
        assert_eq!(n.outputs().len(), 1);
    }
}
