//! Structure-of-arrays evaluation arena.
//!
//! The pointer-rich [`Netlist`](crate::Netlist) graph is built for editing
//! and analysis: cells own their pin lists, nets know their names and
//! drivers, everything is reachable from everything.  The evaluation hot
//! loops (wide campaign settle, incremental cone propagation) want the
//! opposite: a compile-once, flat, cache-friendly layout they can stream.
//!
//! [`SoaNetlist`] is that layout.  Built once from a validated netlist and
//! its [`Topology`], it stores the combinational cloud as:
//!
//! * a **levelized schedule** — rows ordered by logic level, so evaluating
//!   rows front-to-back is topologically correct and every level is a
//!   data-parallel batch;
//! * **per-cell-type runs** within each level — consecutive rows sharing one
//!   [`TruthTable`] and input arity, so the evaluation inner loop hoists the
//!   table lookup out of the per-cell work entirely;
//! * **flat CSR pin arrays** — one `u32` net index per pin in one contiguous
//!   array, replacing the per-cell `Vec<NetId>` pointer chase;
//! * **flat flip-flop D/Q index pairs** in [`Topology::seq_cells`] order,
//!   so the clock tick is two parallel array walks;
//! * a **fan-out CSR** — for every net, the rows and flip-flop D-pins that
//!   read it ([`SoaNetlist::net_readers`]), so event-driven consumers (the
//!   differential campaign engine, incremental propagation) can walk "who
//!   must be re-evaluated when this net changes" without touching the
//!   pointer graph.
//!
//! All state indices are plain `u32` net indices into whatever per-net value
//! array the consumer keeps (`Vec<u64>` for a 64-lane engine, packed bits
//! for the scalar reference) — the arena itself holds no values, so one
//! arena serves every engine.

use std::ops::Range;

use crate::graph::Topology;
use crate::ids::CellId;
use crate::logic::TruthTable;
use crate::netlist::Netlist;

/// One reader of a net in the fan-out CSR: either a combinational row
/// (whose output must be re-evaluated when the net changes) or the D-pin of
/// a flip-flop (whose Q latches the net's value at the next tick).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoaReader {
    /// A combinational row index (see [`SoaNetlist::row_pins`]).
    Row(usize),
    /// A flip-flop index in [`Topology::seq_cells`] order whose D input is
    /// the net.
    FfD(usize),
}

/// The support of a fault cone over the arena (see
/// [`SoaNetlist::cone_support`]): the nets whose golden values determine
/// the one-cycle evolution of a delta injected on the cone's origin nets,
/// plus the flip-flop D-pins the delta can latch into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConeSupport {
    /// Sorted, deduplicated net indices: the origin nets plus every
    /// out-of-cone net read by a cone row (the cone border).
    pub support: Vec<u32>,
    /// `(ff_index, d_net)` pairs for every flip-flop D-pin inside the
    /// cone, sorted by flip-flop index ([`Topology::seq_cells`] order).
    /// A nonzero delta on `d_net` after settle means the flip persists
    /// into `ff_index` at the next tick.
    pub endpoints: Vec<(u32, u32)>,
    /// Number of combinational rows inside the cone (diagnostic only).
    pub cone_rows: usize,
}

/// A maximal range of consecutive rows that share one cell type: same
/// truth table, same input arity, same logic level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaRun {
    tt: TruthTable,
    arity: u32,
    level: u32,
    start: u32,
    end: u32,
}

impl SoaRun {
    /// The truth table every row in this run evaluates.
    #[inline]
    pub fn tt(&self) -> &TruthTable {
        &self.tt
    }

    /// Input pin count of every row in this run.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Logic level of the run (1 = fed only by inputs / flip-flops).
    #[inline]
    pub fn level(&self) -> usize {
        self.level as usize
    }

    /// The row range `start..end` this run covers.
    #[inline]
    pub fn rows(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Compile-once structure-of-arrays view of a validated netlist: levelized
/// per-cell-type runs over flat CSR pin arrays (see the module docs).
///
/// Constructed with [`SoaNetlist::build`]; consumed by the wide simulators
/// and the incremental propagation engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaNetlist {
    num_nets: usize,
    num_cells: usize,
    runs: Vec<SoaRun>,
    /// Output net index per row.
    out: Vec<u32>,
    /// CSR offsets into `pins`, one entry per row plus a terminator.
    pin_off: Vec<u32>,
    /// Flat input-pin net indices, rows back to back.
    pins: Vec<u32>,
    /// Cell-type index per row (the memo key of the propagation engine).
    ty: Vec<u32>,
    /// Original cell of each row.
    row_cell: Vec<CellId>,
    /// Row of each cell (`u32::MAX` for sequential cells).
    comb_row: Vec<u32>,
    /// Flip-flop D input net indices, in [`Topology::seq_cells`] order.
    ff_d: Vec<u32>,
    /// Flip-flop Q output net indices, in [`Topology::seq_cells`] order.
    ff_q: Vec<u32>,
    /// Fan-out CSR offsets into `readers`, one entry per net plus a
    /// terminator.
    reader_off: Vec<u32>,
    /// Fan-out CSR payload: tokens `< num_rows` are reader rows; tokens
    /// `>= num_rows` are `num_rows + ff_index` D-pin readers.  Each reader
    /// appears once per net, even when it reads the net on several pins.
    readers: Vec<u32>,
    /// Driving comb row per net (`u32::MAX` for inputs, constants, and
    /// flip-flop outputs).
    net_driver_row: Vec<u32>,
    /// Flip-flop index whose Q output is this net (`u32::MAX` otherwise).
    ff_of_q: Vec<u32>,
}

impl SoaNetlist {
    /// Flattens a validated netlist into the evaluation arena.
    ///
    /// Rows are grouped by (logic level, cell type) and ordered by level, so
    /// a front-to-back sweep of [`SoaNetlist::runs`] is a correct settle
    /// schedule; within a group the original [`Topology::comb_order`] is
    /// preserved, keeping the layout deterministic.
    ///
    /// # Panics
    ///
    /// Panics if a combinational cell lacks a truth table (impossible for a
    /// validated netlist).
    pub fn build(netlist: &Netlist, topo: &Topology) -> Self {
        let num_cells = netlist.num_cells();
        // Logic level per net: inputs, constants, and flip-flop outputs sit
        // at level 0; a gate output is one past its deepest input.
        let mut net_level = vec![0u32; netlist.num_nets()];
        let mut cell_level = vec![0u32; num_cells];
        for &cell_id in topo.comb_order() {
            let cell = netlist.cell(cell_id);
            let lvl = 1 + cell
                .inputs()
                .iter()
                .map(|n| net_level[n.index()])
                .max()
                .unwrap_or(0);
            net_level[cell.output().index()] = lvl;
            cell_level[cell_id.index()] = lvl;
        }

        // Bucket the schedule per level, preserving comb_order within each
        // bucket, then stable-group each bucket by cell type.
        let max_level = topo
            .comb_order()
            .iter()
            .map(|c| cell_level[c.index()] as usize)
            .max()
            .unwrap_or(0);
        let mut per_level: Vec<Vec<CellId>> = vec![Vec::new(); max_level + 1];
        for &cell_id in topo.comb_order() {
            per_level[cell_level[cell_id.index()] as usize].push(cell_id);
        }

        let mut runs = Vec::new();
        let mut out = Vec::with_capacity(topo.comb_order().len());
        let mut pin_off = Vec::with_capacity(topo.comb_order().len() + 1);
        let mut pins = Vec::new();
        let mut ty = Vec::with_capacity(topo.comb_order().len());
        let mut row_cell = Vec::with_capacity(topo.comb_order().len());
        let mut comb_row = vec![u32::MAX; num_cells];
        pin_off.push(0u32);
        for (level, bucket) in per_level.iter().enumerate().skip(1) {
            // Stable group-by-type: order of first appearance in comb_order.
            let mut groups: Vec<(u32, Vec<CellId>)> = Vec::new();
            for &cell_id in bucket {
                let t = netlist.cell(cell_id).type_id().index() as u32;
                match groups.iter_mut().find(|(gt, _)| *gt == t) {
                    Some((_, cells)) => cells.push(cell_id),
                    None => groups.push((t, vec![cell_id])),
                }
            }
            for (t, cells) in groups {
                let tt = *netlist
                    .cell_type_of(cells[0])
                    .truth_table()
                    .expect("comb cells have truth tables");
                let start = out.len() as u32;
                for cell_id in cells {
                    let cell = netlist.cell(cell_id);
                    comb_row[cell_id.index()] = out.len() as u32;
                    out.push(cell.output().index() as u32);
                    ty.push(t);
                    row_cell.push(cell_id);
                    pins.extend(cell.inputs().iter().map(|n| n.index() as u32));
                    pin_off.push(pins.len() as u32);
                }
                runs.push(SoaRun {
                    tt,
                    arity: tt.inputs() as u32,
                    level: level as u32,
                    start,
                    end: out.len() as u32,
                });
            }
        }

        let mut ff_d = Vec::with_capacity(topo.seq_cells().len());
        let mut ff_q = Vec::with_capacity(topo.seq_cells().len());
        let mut ff_of_q = vec![u32::MAX; netlist.num_nets()];
        for (i, &ff) in topo.seq_cells().iter().enumerate() {
            let cell = netlist.cell(ff);
            ff_d.push(cell.inputs()[0].index() as u32);
            ff_q.push(cell.output().index() as u32);
            ff_of_q[cell.output().index()] = i as u32;
        }

        let num_rows = out.len();
        let mut net_driver_row = vec![u32::MAX; netlist.num_nets()];
        for (row, &o) in out.iter().enumerate() {
            net_driver_row[o as usize] = row as u32;
        }

        // Fan-out CSR via counting sort: one (reader, net) edge per distinct
        // net a row or D-pin reads.  Rows reading a net on several pins
        // contribute one edge — event-driven consumers re-evaluate a row
        // once regardless of how many of its pins changed.
        let row_slice = |row: usize| &pins[pin_off[row] as usize..pin_off[row + 1] as usize];
        let mut reader_off = vec![0u32; netlist.num_nets() + 1];
        for row in 0..num_rows {
            let slice = row_slice(row);
            for (i, &net) in slice.iter().enumerate() {
                if !slice[..i].contains(&net) {
                    reader_off[net as usize + 1] += 1;
                }
            }
        }
        for &d in &ff_d {
            reader_off[d as usize + 1] += 1;
        }
        for i in 0..netlist.num_nets() {
            reader_off[i + 1] += reader_off[i];
        }
        let mut cursor = reader_off.clone();
        let mut readers = vec![0u32; reader_off[netlist.num_nets()] as usize];
        for row in 0..num_rows {
            let slice = row_slice(row);
            for (i, &net) in slice.iter().enumerate() {
                if !slice[..i].contains(&net) {
                    readers[cursor[net as usize] as usize] = row as u32;
                    cursor[net as usize] += 1;
                }
            }
        }
        for (i, &d) in ff_d.iter().enumerate() {
            readers[cursor[d as usize] as usize] = (num_rows + i) as u32;
            cursor[d as usize] += 1;
        }

        Self {
            num_nets: netlist.num_nets(),
            num_cells,
            runs,
            out,
            pin_off,
            pins,
            ty,
            row_cell,
            comb_row,
            ff_d,
            ff_q,
            reader_off,
            readers,
            net_driver_row,
            ff_of_q,
        }
    }

    /// Number of nets in the source netlist (the length any per-net value
    /// array must have).
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of combinational rows (= combinational cells).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.out.len()
    }

    /// The levelized per-type runs, in evaluation order.
    #[inline]
    pub fn runs(&self) -> &[SoaRun] {
        &self.runs
    }

    /// Input-pin net indices of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row_pins(&self, row: usize) -> &[u32] {
        &self.pins[self.pin_off[row] as usize..self.pin_off[row + 1] as usize]
    }

    /// Output net index of one row.
    #[inline]
    pub fn row_out(&self, row: usize) -> u32 {
        self.out[row]
    }

    /// Cell-type index of one row (the library index of its type).
    #[inline]
    pub fn row_type(&self, row: usize) -> u32 {
        self.ty[row]
    }

    /// The original cell a row was flattened from.
    #[inline]
    pub fn row_cell(&self, row: usize) -> CellId {
        self.row_cell[row]
    }

    /// The row a combinational cell was flattened to, or `None` for
    /// sequential cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range for the source netlist.
    #[inline]
    pub fn comb_row_of(&self, cell: CellId) -> Option<usize> {
        match self.comb_row[cell.index()] {
            u32::MAX => None,
            row => Some(row as usize),
        }
    }

    /// Flip-flop D-input net indices, in [`Topology::seq_cells`] order.
    #[inline]
    pub fn ff_d(&self) -> &[u32] {
        &self.ff_d
    }

    /// Flip-flop Q-output net indices, in [`Topology::seq_cells`] order.
    #[inline]
    pub fn ff_q(&self) -> &[u32] {
        &self.ff_q
    }

    /// Raw fan-out tokens of one net: everything that reads it, each reader
    /// once.  Tokens `< num_rows` are comb row indices; tokens
    /// `>= num_rows` are `num_rows + ff_index` D-pin readers — decode with
    /// [`SoaNetlist::reader`] when the distinction matters, or compare
    /// against [`SoaNetlist::num_rows`] directly in hot loops.
    ///
    /// The list is sorted ascending, so all comb rows come first (in
    /// evaluation order) and all D-pin tokens last: a forward scan may stop
    /// at the first token `>= num_rows`, a reverse scan at the first token
    /// `< num_rows`.  [`SoaNetlist::assert_consistent`] checks this.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[inline]
    pub fn net_readers(&self, net: usize) -> &[u32] {
        &self.readers[self.reader_off[net] as usize..self.reader_off[net + 1] as usize]
    }

    /// Decodes one fan-out token from [`SoaNetlist::net_readers`].
    #[inline]
    pub fn reader(&self, token: u32) -> SoaReader {
        let t = token as usize;
        if t < self.num_rows() {
            SoaReader::Row(t)
        } else {
            SoaReader::FfD(t - self.num_rows())
        }
    }

    /// The comb row driving a net, or `None` when the net is a primary
    /// input, constant, or flip-flop output.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[inline]
    pub fn net_driver_row(&self, net: usize) -> Option<usize> {
        match self.net_driver_row[net] {
            u32::MAX => None,
            row => Some(row as usize),
        }
    }

    /// The flip-flop index (in [`Topology::seq_cells`] order) whose Q output
    /// is this net, or `None` when the net is not a flip-flop output.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[inline]
    pub fn ff_of_q(&self, net: usize) -> Option<usize> {
        match self.ff_of_q[net] {
            u32::MAX => None,
            ff => Some(ff as usize),
        }
    }

    /// Number of cells (combinational + sequential) in the source netlist.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Checks the structural invariants against the source netlist: every
    /// combinational cell maps to exactly one row carrying its type, output,
    /// and pins; rows are levelized (every pin is produced at a lower
    /// level); runs are homogeneous; flip-flop arrays mirror
    /// [`Topology::seq_cells`].  Used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_consistent(&self, netlist: &Netlist, topo: &Topology) {
        assert_eq!(self.num_nets, netlist.num_nets(), "net count");
        assert_eq!(self.num_rows(), topo.comb_order().len(), "row count");
        assert_eq!(self.ff_d.len(), topo.seq_cells().len(), "ff count");
        let mut seen = vec![false; self.num_rows()];
        for &cell_id in topo.comb_order() {
            let row = self
                .comb_row_of(cell_id)
                .expect("comb cell must have a row");
            assert!(!seen[row], "cell {cell_id:?} mapped to a reused row");
            seen[row] = true;
            let cell = netlist.cell(cell_id);
            assert_eq!(self.row_cell(row), cell_id, "row_cell");
            assert_eq!(self.row_out(row) as usize, cell.output().index(), "out");
            assert_eq!(
                self.row_type(row) as usize,
                cell.type_id().index(),
                "type of {cell_id:?}"
            );
            let pins: Vec<u32> = cell.inputs().iter().map(|n| n.index() as u32).collect();
            assert_eq!(self.row_pins(row), pins.as_slice(), "pins of {cell_id:?}");
        }
        // Levelization: walking rows front to back, every pin must already
        // be defined (driven by an earlier row, an input, or a flip-flop).
        let mut defined = vec![true; self.num_nets];
        for &cell_id in topo.comb_order() {
            defined[netlist.cell(cell_id).output().index()] = false;
        }
        let mut row = 0usize;
        for run in &self.runs {
            assert_eq!(run.rows().start, row, "runs must tile the rows");
            assert_eq!(
                run.tt(),
                netlist
                    .cell_type_of(self.row_cell(row.max(run.rows().start)))
                    .truth_table()
                    .expect("comb"),
                "run truth table"
            );
            for r in run.rows() {
                assert_eq!(self.row_pins(r).len(), run.arity(), "run arity");
                assert_eq!(
                    self.row_type(r),
                    self.row_type(run.rows().start),
                    "run type homogeneity"
                );
                for &pin in self.row_pins(r) {
                    assert!(
                        defined[pin as usize],
                        "row {r} reads net {pin} before it is defined"
                    );
                }
                defined[self.row_out(r) as usize] = true;
            }
            row = run.rows().end;
        }
        assert_eq!(row, self.num_rows(), "runs must cover all rows");
        for (i, &ff) in topo.seq_cells().iter().enumerate() {
            let cell = netlist.cell(ff);
            assert_eq!(self.ff_d[i] as usize, cell.inputs()[0].index(), "ff_d");
            assert_eq!(self.ff_q[i] as usize, cell.output().index(), "ff_q");
            assert_eq!(
                self.ff_of_q(cell.output().index()),
                Some(i),
                "ff_of_q of {ff:?}"
            );
        }
        // Fan-out CSR: every distinct (reader, net) edge appears exactly
        // once, and nothing else does.
        let mut expect: Vec<Vec<u32>> = vec![Vec::new(); self.num_nets];
        for row in 0..self.num_rows() {
            let pins = self.row_pins(row);
            for (i, &net) in pins.iter().enumerate() {
                if !pins[..i].contains(&net) {
                    expect[net as usize].push(row as u32);
                }
            }
        }
        for (i, &d) in self.ff_d.iter().enumerate() {
            expect[d as usize].push((self.num_rows() + i) as u32);
        }
        for (net, expected) in expect.iter_mut().enumerate() {
            let got: Vec<u32> = self.net_readers(net).to_vec();
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "readers of net {net} must be strictly ascending (comb rows \
                 first, D-pin tokens last)"
            );
            expected.sort_unstable();
            assert_eq!(got, *expected, "readers of net {net}");
        }
        for net in 0..self.num_nets {
            match self.net_driver_row(net) {
                Some(row) => assert_eq!(self.row_out(row) as usize, net, "driver of net {net}"),
                None => assert!(
                    !self.out.contains(&(net as u32)),
                    "net {net} is row-driven but has no driver row"
                ),
            }
        }
    }

    /// Fault-cone support of a set of origin nets, computed over the
    /// fan-out CSR: the cone is every net transitively reachable from the
    /// origins through combinational rows, and the **support** is the set
    /// of nets whose golden values fully determine the one-cycle delta
    /// evolution of any flip inside the cone — the origins themselves plus
    /// every out-of-cone net read by a cone row (the cone border).
    ///
    /// The endpoints are the flip-flop D-pins inside the cone: the only
    /// state the flip can persist into, paired with the D net whose delta
    /// decides it.
    ///
    /// This is the arena-side mirror of
    /// [`FaultCone::compute_multi`](crate::FaultCone::compute_multi) +
    /// [`FaultCone::border_nets`](crate::FaultCone::border_nets), used by
    /// the campaign fault-space collapsing layer; a unit test pins the two
    /// against each other.
    ///
    /// # Panics
    ///
    /// Panics if any origin net index is out of range.
    pub fn cone_support(&self, origins: &[u32]) -> ConeSupport {
        let mut in_cone = vec![false; self.num_nets];
        let mut row_seen = vec![false; self.num_rows()];
        let mut queue: Vec<u32> = Vec::with_capacity(origins.len());
        for &net in origins {
            assert!((net as usize) < self.num_nets, "origin net out of range");
            if !in_cone[net as usize] {
                in_cone[net as usize] = true;
                queue.push(net);
            }
        }
        let mut endpoints: Vec<(u32, u32)> = Vec::new();
        let mut cone_rows: Vec<u32> = Vec::new();
        while let Some(net) = queue.pop() {
            for &token in self.net_readers(net as usize) {
                if (token as usize) < self.num_rows() {
                    let row = token as usize;
                    if !row_seen[row] {
                        row_seen[row] = true;
                        cone_rows.push(token);
                        let out = self.out[row];
                        if !in_cone[out as usize] {
                            in_cone[out as usize] = true;
                            queue.push(out);
                        }
                    }
                } else {
                    endpoints.push((token - self.num_rows() as u32, net));
                }
            }
        }
        // Support = origins + border (out-of-cone pins of cone rows).
        let mut support: Vec<u32> = origins.to_vec();
        for &row in &cone_rows {
            for &pin in self.row_pins(row as usize) {
                if !in_cone[pin as usize] {
                    support.push(pin);
                }
            }
        }
        support.sort_unstable();
        support.dedup();
        endpoints.sort_unstable();
        endpoints.dedup();
        ConeSupport {
            support,
            endpoints,
            cone_rows: cone_rows.len(),
        }
    }

    /// The combinational rows inside the fault cone of `origins`, sorted
    /// ascending.  Because [`SoaNetlist::build`] orders rows by logic
    /// level, ascending row order is a valid (re-)evaluation schedule for
    /// the cone — the property the SAT proof backend's Tseitin encoder
    /// relies on when it compiles the cone gate by gate.
    ///
    /// The reached set is the same BFS [`SoaNetlist::cone_support`]
    /// performs; this accessor exposes the rows themselves where
    /// `cone_support` only reports their count.
    ///
    /// # Panics
    ///
    /// Panics if any origin net index is out of range.
    pub fn cone_rows(&self, origins: &[u32]) -> Vec<u32> {
        let mut in_cone = vec![false; self.num_nets];
        let mut row_seen = vec![false; self.num_rows()];
        let mut queue: Vec<u32> = Vec::with_capacity(origins.len());
        for &net in origins {
            assert!((net as usize) < self.num_nets, "origin net out of range");
            if !in_cone[net as usize] {
                in_cone[net as usize] = true;
                queue.push(net);
            }
        }
        let mut rows: Vec<u32> = Vec::new();
        while let Some(net) = queue.pop() {
            for &token in self.net_readers(net as usize) {
                if (token as usize) < self.num_rows() {
                    let row = token as usize;
                    if !row_seen[row] {
                        row_seen[row] = true;
                        rows.push(token);
                        let out = self.out[row];
                        if !in_cone[out as usize] {
                            in_cone[out as usize] = true;
                            queue.push(out);
                        }
                    }
                }
            }
        }
        rows.sort_unstable();
        rows
    }

    /// The truth table of one row (resolved through its run).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_tt(&self, row: usize) -> &TruthTable {
        // Runs tile the row space in ascending order: binary search.
        let i = self.runs.partition_point(|r| (r.end as usize) <= row);
        let run = &self.runs[i];
        debug_assert!(run.rows().contains(&row));
        &run.tt
    }

    /// Scalar settle over the arena: reads and writes per-net `bool` values
    /// in place, sweeping the levelized schedule once.  This is the
    /// reference the packed engines are checked against, and doubles as the
    /// simplest demonstration of the schedule contract.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_nets`.
    pub fn settle_scalar(&self, values: &mut [bool]) {
        assert_eq!(values.len(), self.num_nets, "one value per net");
        for run in &self.runs {
            let tt = run.tt;
            for row in run.rows() {
                let mut r = 0usize;
                for (pin, &net) in self.row_pins(row).iter().enumerate() {
                    r |= usize::from(values[net as usize]) << pin;
                }
                values[self.out[row] as usize] = tt.eval(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{counter, figure1, tmr_register};
    use crate::random::{random_circuit, RandomCircuitConfig};

    #[test]
    fn counter_arena_is_consistent() {
        let (n, topo) = counter(4);
        let soa = SoaNetlist::build(&n, &topo);
        soa.assert_consistent(&n, &topo);
        assert_eq!(soa.num_rows(), topo.comb_order().len());
    }

    #[test]
    fn figure1_arena_is_consistent() {
        let (n, topo) = figure1();
        let soa = SoaNetlist::build(&n, &topo);
        soa.assert_consistent(&n, &topo);
    }

    #[test]
    fn tmr_arena_is_consistent() {
        let (n, topo) = tmr_register();
        let soa = SoaNetlist::build(&n, &topo);
        soa.assert_consistent(&n, &topo);
    }

    #[test]
    fn random_circuits_are_consistent_and_leveled() {
        for seed in 0..8 {
            let (n, topo) = random_circuit(RandomCircuitConfig::default(), seed);
            let soa = SoaNetlist::build(&n, &topo);
            soa.assert_consistent(&n, &topo);
            // Runs are sorted by level and tile the row space.
            let mut prev_level = 0;
            for run in soa.runs() {
                assert!(run.level() >= prev_level, "levels must not decrease");
                assert!(!run.rows().is_empty(), "no empty runs");
                prev_level = run.level();
            }
        }
    }

    #[test]
    fn runs_merge_same_type_within_level() {
        // The 3-bit counter has several XOR/AND cells at the same level; the
        // grouping must put same-type same-level cells in one run.
        let (n, topo) = counter(6);
        let soa = SoaNetlist::build(&n, &topo);
        for w in soa.runs().windows(2) {
            assert!(
                w[0].level() != w[1].level()
                    || soa.row_type(w[0].rows().start) != soa.row_type(w[1].rows().start),
                "adjacent runs with equal level and type must be merged"
            );
        }
        let _ = n;
    }

    #[test]
    fn fanout_csr_decodes_rows_and_ff_dpins() {
        let (n, topo) = counter(3);
        let soa = SoaNetlist::build(&n, &topo);
        // Every edge decodes to a reader that really reads the net.
        for net in 0..soa.num_nets() {
            for &token in soa.net_readers(net) {
                match soa.reader(token) {
                    SoaReader::Row(row) => {
                        assert!(soa.row_pins(row).contains(&(net as u32)));
                    }
                    SoaReader::FfD(ff) => assert_eq!(soa.ff_d()[ff] as usize, net),
                }
            }
        }
        // q0 feeds its own XOR increment logic and at least one D-pin chain;
        // the enable input fans out to every increment gate.
        let q0 = soa.ff_q()[0] as usize;
        assert!(!soa.net_readers(q0).is_empty());
        assert_eq!(soa.ff_of_q(q0), Some(0));
        let en = n.find_net("en").unwrap().index();
        assert!(soa.net_readers(en).len() >= 2);
        assert_eq!(soa.net_driver_row(en), None);
        // Comb-driven nets point back at their producing row.
        for row in 0..soa.num_rows() {
            assert_eq!(soa.net_driver_row(soa.row_out(row) as usize), Some(row));
        }
    }

    #[test]
    fn fanout_csr_dedups_multi_pin_readers() {
        // A gate reading the same net on two pins (XOR2(a, a)) must appear
        // once in the net's reader list.
        use crate::library::Library;
        use crate::netlist::Netlist;
        let lib = Library::open15();
        let mut n = Netlist::new("dup", lib);
        let a = n.add_input("a");
        let x = n.add_cell("XOR2", "g", &[a, a]).unwrap();
        n.set_output(x);
        let topo = n.validate().unwrap();
        let soa = SoaNetlist::build(&n, &topo);
        soa.assert_consistent(&n, &topo);
        assert_eq!(soa.net_readers(a.index()).len(), 1);
    }

    #[test]
    fn cone_support_matches_graph_fault_cone() {
        use crate::graph::{ConeEndpoint, FaultCone};
        use crate::ids::NetId;
        for seed in 0..6 {
            let (n, topo) = random_circuit(RandomCircuitConfig::default(), 100 + seed);
            let soa = SoaNetlist::build(&n, &topo);
            let singles: Vec<Vec<usize>> = topo
                .seq_cells()
                .iter()
                .map(|&ff| vec![n.cell(ff).output().index()])
                .collect();
            let pair: Vec<usize> = singles.iter().take(2).flatten().copied().collect();
            for origin_nets in singles.iter().chain(std::iter::once(&pair)) {
                let origins: Vec<u32> = origin_nets.iter().map(|&q| q as u32).collect();
                let support = soa.cone_support(&origins);
                let ids: Vec<NetId> = origin_nets.iter().map(|&q| NetId::from_index(q)).collect();
                let cone = FaultCone::compute_multi(&n, &topo, &ids);
                // Support = origins ∪ border, in sorted net-index order.
                let mut expect: Vec<u32> = cone
                    .border_nets(&n)
                    .iter()
                    .map(|b| b.index() as u32)
                    .chain(origins.iter().copied())
                    .collect();
                expect.sort_unstable();
                expect.dedup();
                assert_eq!(support.support, expect, "support (seed {seed})");
                // Endpoints = the cone's sequential pins, as ff indices.
                let mut expect_ffs: Vec<u32> = cone
                    .endpoints()
                    .iter()
                    .filter_map(|e| match *e {
                        ConeEndpoint::SeqPin { cell, .. } => {
                            Some(topo.seq_cells().iter().position(|&c| c == cell).unwrap() as u32)
                        }
                        ConeEndpoint::Output(_) => None,
                    })
                    .collect();
                expect_ffs.sort_unstable();
                expect_ffs.dedup();
                let got_ffs: Vec<u32> = support.endpoints.iter().map(|&(ff, _)| ff).collect();
                assert_eq!(got_ffs, expect_ffs, "endpoint ffs (seed {seed})");
                for &(ff, d_net) in &support.endpoints {
                    assert_eq!(soa.ff_d()[ff as usize], d_net, "endpoint d net");
                }
            }
        }
    }

    #[test]
    fn cone_rows_match_graph_fault_cone_cells() {
        use crate::graph::FaultCone;
        for seed in 0..6 {
            let (n, topo) = random_circuit(RandomCircuitConfig::default(), 300 + seed);
            let soa = SoaNetlist::build(&n, &topo);
            for &ff in topo.seq_cells().iter().take(4) {
                let origin = n.cell(ff).output();
                let rows = soa.cone_rows(&[origin.index() as u32]);
                // Ascending (the encoder's settle schedule) and in step
                // with the graph-side cone's cell set.
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
                let mut expect: Vec<u32> = FaultCone::compute(&n, &topo, origin)
                    .cells()
                    .iter()
                    .map(|&c| soa.comb_row_of(c).expect("cone cells are comb") as u32)
                    .collect();
                expect.sort_unstable();
                assert_eq!(rows, expect, "cone rows (seed {seed})");
                // Row count agrees with cone_support's diagnostic count.
                let support = soa.cone_support(&[origin.index() as u32]);
                assert_eq!(rows.len(), support.cone_rows);
                // Levels never decrease along the schedule, and row_tt
                // resolves through the run tiling.
                let level_of = |row: u32| {
                    soa.runs()
                        .iter()
                        .find(|r| r.rows().contains(&(row as usize)))
                        .expect("row in a run")
                        .level()
                };
                assert!(rows.windows(2).all(|w| level_of(w[0]) <= level_of(w[1])));
                for &row in &rows {
                    let run = soa
                        .runs()
                        .iter()
                        .find(|r| r.rows().contains(&(row as usize)))
                        .unwrap();
                    assert_eq!(soa.row_tt(row as usize), run.tt());
                }
            }
        }
    }

    #[test]
    fn scalar_settle_matches_row_semantics() {
        let (n, topo) = counter(3);
        let soa = SoaNetlist::build(&n, &topo);
        let mut values = vec![false; n.num_nets()];
        // Enable the counter and settle: combinational outputs follow.
        values[n.find_net("en").unwrap().index()] = true;
        soa.settle_scalar(&mut values);
        // d0 = q0 XOR en = 0 XOR 1 = 1.
        let d0 = soa.ff_d()[0] as usize;
        assert!(values[d0]);
    }
}
