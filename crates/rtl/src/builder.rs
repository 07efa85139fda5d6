//! The module builder: word-level operators lowered to standard cells.

use std::collections::HashSet;

use mate_netlist::prelude::*;

use crate::signal::Signal;

/// Builds a gate-level netlist from word-level operations.
///
/// All operators instantiate cells of the `open15` library.  Registers are
/// created with [`ModuleBuilder::reg`] (which yields the Q bus immediately so
/// feedback paths can be described) and closed with
/// [`ModuleBuilder::drive_reg`]; [`ModuleBuilder::finish`] checks that every
/// register was driven and validates the netlist.
///
/// # Panics
///
/// Operator methods panic on width mismatches — these are construction-time
/// programming errors, analogous to elaboration errors in an HDL.
#[derive(Debug)]
pub struct ModuleBuilder {
    n: Netlist,
    undriven_regs: HashSet<NetId>,
    tie0: Option<NetId>,
    tie1: Option<NetId>,
}

impl ModuleBuilder {
    /// Creates a builder for a module with the given name.
    pub fn new(name: &str) -> Self {
        Self {
            n: Netlist::new(name, Library::open15()),
            undriven_regs: HashSet::new(),
            tie0: None,
            tie1: None,
        }
    }

    /// Read-only access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.n
    }

    fn cell(&mut self, ty: &str, inputs: &[NetId]) -> NetId {
        self.n
            .add_cell(ty, "", inputs)
            .expect("builder instantiates only known cells with correct arity")
    }

    /// A multi-bit primary input.
    ///
    /// Bit nets are named `name_0 .. name_{w-1}` (single-bit inputs use the
    /// plain name).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn input(&mut self, name: &str, width: usize) -> Signal {
        assert!(width > 0, "input {name} must have at least one bit");
        let bits = (0..width)
            .map(|i| {
                let bit_name = if width == 1 {
                    name.to_owned()
                } else {
                    format!("{name}_{i}")
                };
                self.n.add_input(&bit_name)
            })
            .collect();
        Signal::from_nets(bits)
    }

    /// Marks every bit of `sig` as a primary output.
    pub fn output(&mut self, sig: &Signal) {
        for &b in sig.nets() {
            self.n.set_output(b);
        }
    }

    /// The constant 0 wire (shared TIE0 cell).
    pub fn zero(&mut self) -> Signal {
        if self.tie0.is_none() {
            self.tie0 = Some(self.cell("TIE0", &[]));
        }
        Signal::from_nets(vec![self.tie0.unwrap()])
    }

    /// The constant 1 wire (shared TIE1 cell).
    pub fn one(&mut self) -> Signal {
        if self.tie1.is_none() {
            self.tie1 = Some(self.cell("TIE1", &[]));
        }
        Signal::from_nets(vec![self.tie1.unwrap()])
    }

    /// A `width`-bit constant.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or the value does not fit.
    pub fn constant(&mut self, value: u64, width: usize) -> Signal {
        assert!(width > 0 && width <= 64, "bad constant width {width}");
        assert!(
            width == 64 || value < (1u64 << width),
            "constant {value} does not fit into {width} bits"
        );
        let zero = self.zero().bit(0);
        let one = self.one().bit(0);
        let bits = (0..width)
            .map(|i| if value & (1 << i) != 0 { one } else { zero })
            .collect();
        Signal::from_nets(bits)
    }

    fn bitwise1(&mut self, ty: &str, a: &Signal) -> Signal {
        let bits = a.nets().iter().map(|&x| self.cell(ty, &[x])).collect();
        Signal::from_nets(bits)
    }

    fn bitwise2(&mut self, ty: &str, a: &Signal, b: &Signal) -> Signal {
        assert_eq!(
            a.width(),
            b.width(),
            "width mismatch in {ty}: {} vs {}",
            a.width(),
            b.width()
        );
        let bits = a
            .nets()
            .iter()
            .zip(b.nets())
            .map(|(&x, &y)| self.cell(ty, &[x, y]))
            .collect();
        Signal::from_nets(bits)
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: &Signal) -> Signal {
        self.bitwise1("INV", a)
    }

    /// Bitwise AND.  Panics on width mismatch.
    pub fn and(&mut self, a: &Signal, b: &Signal) -> Signal {
        self.bitwise2("AND2", a, b)
    }

    /// Bitwise OR.  Panics on width mismatch.
    pub fn or(&mut self, a: &Signal, b: &Signal) -> Signal {
        self.bitwise2("OR2", a, b)
    }

    /// Bitwise XOR.  Panics on width mismatch.
    pub fn xor(&mut self, a: &Signal, b: &Signal) -> Signal {
        self.bitwise2("XOR2", a, b)
    }

    /// Bitwise NAND.  Panics on width mismatch.
    pub fn nand(&mut self, a: &Signal, b: &Signal) -> Signal {
        self.bitwise2("NAND2", a, b)
    }

    /// Bitwise NOR.  Panics on width mismatch.
    pub fn nor(&mut self, a: &Signal, b: &Signal) -> Signal {
        self.bitwise2("NOR2", a, b)
    }

    /// Bitwise XNOR.  Panics on width mismatch.
    pub fn xnor(&mut self, a: &Signal, b: &Signal) -> Signal {
        self.bitwise2("XNOR2", a, b)
    }

    /// Per-bit 2:1 multiplexer: `sel = 0` selects `a0`, `sel = 1` selects
    /// `a1`.
    ///
    /// # Panics
    ///
    /// Panics if `sel` is not 1 bit wide or `a0`/`a1` widths differ.
    pub fn mux(&mut self, sel: &Signal, a0: &Signal, a1: &Signal) -> Signal {
        assert_eq!(sel.width(), 1, "mux select must be one bit");
        assert_eq!(a0.width(), a1.width(), "mux arm width mismatch");
        let s = sel.bit(0);
        let bits = a0
            .nets()
            .iter()
            .zip(a1.nets())
            .map(|(&x, &y)| self.cell("MUX2", &[s, x, y]))
            .collect();
        Signal::from_nets(bits)
    }

    /// Ripple-carry addition with explicit carry-in.
    ///
    /// Returns `(sum, carries)` where `carries.bit(i)` is the carry **out**
    /// of bit `i` — flag logic (C, V, H) reads individual carries.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or a non-1-bit carry-in.
    pub fn adder(&mut self, a: &Signal, b: &Signal, cin: &Signal) -> (Signal, Signal) {
        assert_eq!(a.width(), b.width(), "adder width mismatch");
        assert_eq!(cin.width(), 1, "carry-in must be one bit");
        let mut carry = cin.bit(0);
        let mut sum_bits = Vec::with_capacity(a.width());
        let mut carry_bits = Vec::with_capacity(a.width());
        for (&x, &y) in a.nets().iter().zip(b.nets()) {
            sum_bits.push(self.cell("XOR3", &[x, y, carry]));
            carry = self.cell("MAJ3", &[x, y, carry]);
            carry_bits.push(carry);
        }
        (Signal::from_nets(sum_bits), Signal::from_nets(carry_bits))
    }

    /// Addition, discarding carries.
    pub fn add(&mut self, a: &Signal, b: &Signal) -> Signal {
        let cin = self.zero();
        self.adder(a, b, &cin).0
    }

    /// Subtraction `a - b` via two's complement.
    ///
    /// Returns `(difference, carries)`; `carries.msb()` is the **carry** out
    /// (1 = no borrow, i.e. `a >= b` unsigned).
    pub fn subtractor(&mut self, a: &Signal, b: &Signal) -> (Signal, Signal) {
        let nb = self.not(b);
        let one = self.one();
        self.adder(a, &nb, &one)
    }

    /// Subtraction, discarding carries.
    pub fn sub(&mut self, a: &Signal, b: &Signal) -> Signal {
        self.subtractor(a, b).0
    }

    /// Increment by one.
    pub fn inc(&mut self, a: &Signal) -> Signal {
        let zero_w = {
            let z = self.zero().bit(0);
            Signal::from_nets(vec![z; a.width()])
        };
        let one = self.one();
        self.adder(a, &zero_w, &one).0
    }

    /// AND-reduction to a single bit.
    pub fn reduce_and(&mut self, a: &Signal) -> Signal {
        self.reduce_tree("AND2", a)
    }

    /// OR-reduction to a single bit.
    pub fn reduce_or(&mut self, a: &Signal) -> Signal {
        self.reduce_tree("OR2", a)
    }

    fn reduce_tree(&mut self, ty: &str, a: &Signal) -> Signal {
        let mut layer: Vec<NetId> = a.nets().to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.cell(ty, &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        Signal::from_nets(layer)
    }

    /// Equality comparison: 1 iff `a == b`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn eq(&mut self, a: &Signal, b: &Signal) -> Signal {
        let x = self.xnor(a, b);
        self.reduce_and(&x)
    }

    /// 1 iff `a == 0`.
    pub fn is_zero(&mut self, a: &Signal) -> Signal {
        let any = self.reduce_or(a);
        self.bitwise1("INV", &any)
    }

    /// Unsigned comparison: 1 iff `a < b`.
    pub fn ltu(&mut self, a: &Signal, b: &Signal) -> Signal {
        let (_, carries) = self.subtractor(a, b);
        let carry = Signal::from_nets(vec![carries.msb()]);
        self.bitwise1("INV", &carry)
    }

    /// Logical shift left by a constant amount, filling with zero.
    pub fn shl_const(&mut self, a: &Signal, amount: usize) -> Signal {
        let zero = self.zero().bit(0);
        let w = a.width();
        let bits = (0..w)
            .map(|i| if i >= amount { a.bit(i - amount) } else { zero })
            .collect();
        Signal::from_nets(bits)
    }

    /// Logical shift right by a constant amount, filling with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `fill` is not one bit.
    pub fn shr_const(&mut self, a: &Signal, amount: usize, fill: &Signal) -> Signal {
        assert_eq!(fill.width(), 1, "fill must be one bit");
        let f = fill.bit(0);
        let w = a.width();
        let bits = (0..w)
            .map(|i| if i + amount < w { a.bit(i + amount) } else { f })
            .collect();
        Signal::from_nets(bits)
    }

    /// Zero-extends `a` to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width < a.width()`.
    pub fn zext(&mut self, a: &Signal, width: usize) -> Signal {
        assert!(width >= a.width(), "zext target narrower than source");
        let zero = self.zero().bit(0);
        let mut bits = a.nets().to_vec();
        bits.resize(width, zero);
        Signal::from_nets(bits)
    }

    /// Sign-extends `a` to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width < a.width()`.
    pub fn sext(&mut self, a: &Signal, width: usize) -> Signal {
        assert!(width >= a.width(), "sext target narrower than source");
        let msb = a.msb();
        let mut bits = a.nets().to_vec();
        bits.resize(width, msb);
        Signal::from_nets(bits)
    }

    /// Creates a register bus; returns the Q signal immediately so feedback
    /// logic can use it.  Must be completed with [`ModuleBuilder::drive_reg`].
    pub fn reg(&mut self, name: &str, width: usize) -> Signal {
        assert!(width > 0, "register {name} must have at least one bit");
        let bits: Vec<NetId> = (0..width)
            .map(|i| {
                let bit_name = if width == 1 {
                    name.to_owned()
                } else {
                    format!("{name}_{i}")
                };
                let q = self.n.add_net(&bit_name);
                self.undriven_regs.insert(q);
                q
            })
            .collect();
        Signal::from_nets(bits)
    }

    /// Connects the data input of a register created with
    /// [`ModuleBuilder::reg`].
    ///
    /// # Panics
    ///
    /// Panics if widths mismatch or a bit of `q` is not an undriven register
    /// output.
    pub fn drive_reg(&mut self, q: &Signal, d: &Signal) {
        assert_eq!(q.width(), d.width(), "drive_reg width mismatch");
        for (i, (&qb, &db)) in q.nets().iter().zip(d.nets()).enumerate() {
            assert!(
                self.undriven_regs.remove(&qb),
                "bit {i} of register is not an undriven register output"
            );
            let name = format!("ff_{}", self.n.net(qb).name());
            self.n
                .add_cell_to("DFF", &name, &[db], qb)
                .expect("register output is undriven by construction");
        }
    }

    /// Register with load-enable: keeps its value when `en = 0`.
    ///
    /// Lowered as `drive_reg(q, mux(en, q, d))` — the synthesized feedback
    /// mux that makes "FF not overwritten" structurally visible to the MATE
    /// analysis.
    pub fn drive_reg_en(&mut self, q: &Signal, en: &Signal, d: &Signal) {
        let next = self.mux(en, q, d);
        self.drive_reg(q, &next);
    }

    /// Finalizes the module: checks all registers are driven and validates.
    ///
    /// # Errors
    ///
    /// Propagates structural validation errors.
    ///
    /// # Panics
    ///
    /// Panics if a register created with [`ModuleBuilder::reg`] was never
    /// driven.
    pub fn finish(self) -> Result<(Netlist, Topology), NetlistError> {
        if let Some(&q) = self.undriven_regs.iter().next() {
            panic!(
                "register bit `{}` was never driven (drive_reg missing)",
                self.n.net(q).name()
            );
        }
        let topo = self.n.validate()?;
        Ok((self.n, topo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_sim::Simulator;

    /// Elaborates a two-input combinational function and evaluates it for
    /// all (a, b) pairs of the given width.
    fn check_binop(
        width: usize,
        build: impl Fn(&mut ModuleBuilder, &Signal, &Signal) -> Signal,
        expect: impl Fn(u64, u64) -> u64,
    ) {
        let mut m = ModuleBuilder::new("binop");
        let a = m.input("a", width);
        let b = m.input("b", width);
        let y = build(&mut m, &a, &b);
        m.output(&y);
        let (n, topo) = m.finish().unwrap();
        let mut sim = Simulator::new(&n, &topo);
        let mask = (1u64 << width) - 1;
        for av in 0..1u64 << width {
            for bv in 0..1u64 << width {
                sim.write_bus(a.nets(), av);
                sim.write_bus(b.nets(), bv);
                let got = sim.read_bus(y.nets());
                let want = expect(av, bv) & (if y.width() == width { mask } else { 1 });
                assert_eq!(got, want, "a={av} b={bv}");
            }
        }
    }

    #[test]
    fn bitwise_ops() {
        check_binop(3, ModuleBuilder::and, |a, b| a & b);
        check_binop(3, ModuleBuilder::or, |a, b| a | b);
        check_binop(3, ModuleBuilder::xor, |a, b| a ^ b);
        check_binop(3, ModuleBuilder::nand, |a, b| !(a & b));
        check_binop(3, ModuleBuilder::nor, |a, b| !(a | b));
        check_binop(3, ModuleBuilder::xnor, |a, b| !(a ^ b));
    }

    #[test]
    fn add_sub_exhaustive_4bit() {
        check_binop(4, ModuleBuilder::add, u64::wrapping_add);
        check_binop(4, ModuleBuilder::sub, u64::wrapping_sub);
    }

    #[test]
    fn comparisons() {
        check_binop(4, ModuleBuilder::eq, |a, b| (a == b) as u64);
        check_binop(4, ModuleBuilder::ltu, |a, b| (a < b) as u64);
    }

    #[test]
    fn adder_carries_flags() {
        // 8-bit adder: check carry-out and overflow bit positions.
        let mut m = ModuleBuilder::new("flags");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let cin = m.zero();
        let (sum, carries) = m.adder(&a, &b, &cin);
        m.output(&sum);
        m.output(&carries);
        let (n, topo) = m.finish().unwrap();
        let mut sim = Simulator::new(&n, &topo);
        for (av, bv) in [(0x7Fu64, 0x01u64), (0xFF, 0x01), (0x80, 0x80), (0x12, 0x34)] {
            sim.write_bus(a.nets(), av);
            sim.write_bus(b.nets(), bv);
            let s = sim.read_bus(sum.nets());
            let c = sim.read_bus(carries.nets());
            assert_eq!(s, (av + bv) & 0xFF);
            let cout = (av + bv) > 0xFF;
            assert_eq!(c >> 7 & 1 == 1, cout, "carry out for {av:#x}+{bv:#x}");
            // Signed overflow = carry into MSB != carry out of MSB.
            let c6 = ((av & 0x7F) + (bv & 0x7F)) >> 7 & 1 == 1;
            let v = c6 != cout;
            let got_v = (c >> 7 & 1 == 1) != (c >> 6 & 1 == 1);
            assert_eq!(got_v, v, "overflow for {av:#x}+{bv:#x}");
        }
    }

    #[test]
    fn mux_and_constants() {
        let mut m = ModuleBuilder::new("mux");
        let s = m.input("s", 1);
        let k5 = m.constant(5, 4);
        let k9 = m.constant(9, 4);
        let y = m.mux(&s, &k5, &k9);
        m.output(&y);
        let (n, topo) = m.finish().unwrap();
        let mut sim = Simulator::new(&n, &topo);
        sim.write_bus(s.nets(), 0);
        assert_eq!(sim.read_bus(y.nets()), 5);
        sim.write_bus(s.nets(), 1);
        assert_eq!(sim.read_bus(y.nets()), 9);
    }

    #[test]
    fn shifts_and_extensions() {
        let mut m = ModuleBuilder::new("shift");
        let a = m.input("a", 4);
        let fill = m.input("fill", 1);
        let l = m.shl_const(&a, 1);
        let r = m.shr_const(&a, 1, &fill);
        let z = m.zext(&a, 6);
        let sx = m.sext(&a, 6);
        for s in [&l, &r, &z, &sx] {
            m.output(s);
        }
        let (n, topo) = m.finish().unwrap();
        let mut sim = Simulator::new(&n, &topo);
        sim.write_bus(a.nets(), 0b1010);
        sim.write_bus(fill.nets(), 1);
        assert_eq!(sim.read_bus(l.nets()), 0b0100);
        assert_eq!(sim.read_bus(r.nets()), 0b1101);
        assert_eq!(sim.read_bus(z.nets()), 0b001010);
        assert_eq!(sim.read_bus(sx.nets()), 0b111010);
    }

    #[test]
    fn is_zero_and_reductions() {
        let mut m = ModuleBuilder::new("red");
        let a = m.input("a", 5);
        let z = m.is_zero(&a);
        let all = m.reduce_and(&a);
        let any = m.reduce_or(&a);
        for s in [&z, &all, &any] {
            m.output(s);
        }
        let (n, topo) = m.finish().unwrap();
        let mut sim = Simulator::new(&n, &topo);
        for v in [0u64, 1, 0b11111, 0b10110] {
            sim.write_bus(a.nets(), v);
            assert_eq!(sim.read_bus(z.nets()) == 1, v == 0);
            assert_eq!(sim.read_bus(all.nets()) == 1, v == 0b11111);
            assert_eq!(sim.read_bus(any.nets()) == 1, v != 0);
        }
    }

    #[test]
    fn register_with_enable_holds() {
        let mut m = ModuleBuilder::new("regen");
        let en = m.input("en", 1);
        let d = m.input("d", 4);
        let q = m.reg("q", 4);
        m.drive_reg_en(&q, &en, &d);
        m.output(&q);
        let (n, topo) = m.finish().unwrap();
        let mut sim = Simulator::new(&n, &topo);
        sim.write_bus(d.nets(), 0xA);
        sim.write_bus(en.nets(), 1);
        sim.tick();
        assert_eq!(sim.read_bus(q.nets()), 0xA);
        sim.write_bus(d.nets(), 0x5);
        sim.write_bus(en.nets(), 0);
        sim.tick();
        assert_eq!(sim.read_bus(q.nets()), 0xA, "disabled register holds");
        sim.write_bus(en.nets(), 1);
        sim.tick();
        assert_eq!(sim.read_bus(q.nets()), 0x5);
    }

    #[test]
    #[should_panic(expected = "never driven")]
    fn undriven_register_panics_at_finish() {
        let mut m = ModuleBuilder::new("bad");
        let _q = m.reg("q", 2);
        let _ = m.finish();
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut m = ModuleBuilder::new("bad");
        let a = m.input("a", 2);
        let b = m.input("b", 3);
        m.and(&a, &b);
    }

    #[test]
    fn constants_share_tie_cells() {
        let mut m = ModuleBuilder::new("ties");
        let a = m.constant(0b1010, 4);
        let b = m.constant(0b0110, 4);
        m.output(&a);
        m.output(&b);
        let (n, _) = m.finish().unwrap();
        let ties = n
            .cells()
            .iter()
            .filter(|c| {
                let name = n.library().cell_type(c.type_id()).name();
                name == "TIE0" || name == "TIE1"
            })
            .count();
        assert_eq!(ties, 2, "exactly one TIE0 and one TIE1");
    }
}
