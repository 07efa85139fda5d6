//! Injection campaigns and outcome classification.
//!
//! Every batched campaign runs on one of two bit-identical 64-lane engines,
//! picked by the design: the full-settle [`WideSimulator`] for small
//! combinational clouds and, for the rest, the event-driven
//! [`DeltaSimulator`], whose work per cycle scales with fault-cone activity
//! instead of netlist size.  Both replay every primary input from the
//! golden trace, which is exact for any harness whose devices attached (see
//! [`classify_points`]); the scalar [`inject`] oracle runs the real devices.

use std::collections::BTreeMap;
use std::fmt;

use mate_netlist::lanes::{for_each_lane, low_lanes};
use mate_netlist::{CellId, MateError, NetId, Netlist, Topology, WORD_LANES};
use mate_sim::{DeltaSimulator, TransposedTrace, WaveTrace, WideSimulator};

use crate::harness::DesignHarness;
use crate::space::{FaultPoint, FaultSpace};

/// The observable effect of one injected fault, judged against the golden
/// run over the campaign horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultEffect {
    /// Outputs stayed golden during the injection cycle and the full state
    /// matched the golden state in the next cycle — the fault class MATEs
    /// prune.
    MaskedWithinOneCycle,
    /// Outputs never diverged and the state re-converged later (at the
    /// recorded cycle offset); benign, but beyond the single-cycle horizon.
    SilentRecovery {
        /// Cycles after injection until the state matched the golden run.
        after: usize,
    },
    /// Outputs never diverged within the horizon but the state never
    /// re-converged: the fault is still latent.
    Latent,
    /// A primary output diverged from the golden run.
    OutputFailure {
        /// Cycles after injection until the first wrong output.
        after: usize,
    },
}

impl FaultEffect {
    /// `true` for the two classes that produced no wrong output.
    pub fn is_silent(self) -> bool {
        !matches!(self, FaultEffect::OutputFailure { .. })
    }

    /// `true` iff the fault was masked within one clock cycle — the
    /// sufficient benign-ness criterion of the paper's Section 2.
    pub fn is_masked_one_cycle(self) -> bool {
        matches!(self, FaultEffect::MaskedWithinOneCycle)
    }
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MaskedWithinOneCycle => write!(f, "masked within one cycle"),
            Self::SilentRecovery { after } => write!(f, "silent recovery after {after} cycles"),
            Self::Latent => write!(f, "latent state corruption"),
            Self::OutputFailure { after } => write!(f, "output failure after {after} cycles"),
        }
    }
}

/// Records the golden (fault-free) execution.
#[derive(Clone, Debug)]
pub struct GoldenRun {
    /// The fault-free trace.
    pub trace: WaveTrace,
    /// Flip-flop output nets (the architectural state vector).
    pub state_nets: Vec<NetId>,
    /// Primary output nets.
    pub output_nets: Vec<NetId>,
}

/// Runs the workload fault-free for `cycles` cycles.
///
/// # Errors
///
/// Returns [`MateError::Device`] when the harness cannot build its
/// testbench.
pub fn golden_run(harness: &dyn DesignHarness, cycles: usize) -> Result<GoldenRun, MateError> {
    let trace = harness.testbench()?.run(cycles);
    Ok(GoldenRun {
        trace,
        state_nets: state_nets(harness.netlist(), harness.topology()),
        output_nets: harness.netlist().outputs().to_vec(),
    })
}

fn state_nets(netlist: &Netlist, topo: &Topology) -> Vec<NetId> {
    topo.seq_cells()
        .iter()
        .map(|&ff| netlist.cell(ff).output())
        .collect()
}

/// Injects a single SEU at `point` and classifies its effect against
/// `golden` over the remaining horizon: the one-cycle hold of
/// [`inject_persistent`].
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if `point.cycle` lies beyond the golden
/// trace or `point` does not name a flip-flop and its output, or
/// [`MateError::Device`] if the harness cannot build its testbench.
pub fn inject(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    point: FaultPoint,
) -> Result<FaultEffect, MateError> {
    inject_persistent(harness, golden, point, 1)
}

/// Rejects a fault point the golden trace cannot judge or the design
/// cannot inject: its cycle must lie inside the trace, its `ff` must be a
/// flip-flop of the netlist and its `wire` that flip-flop's output.
fn check_point(netlist: &Netlist, golden: &GoldenRun, point: FaultPoint) -> Result<(), MateError> {
    let horizon = golden.trace.num_cycles();
    if point.cycle >= horizon {
        return Err(MateError::campaign(format!(
            "injection cycle {} beyond golden trace of {horizon} cycles",
            point.cycle
        )));
    }
    if point.ff.index() >= netlist.num_cells() || !netlist.is_seq_cell(point.ff) {
        return Err(MateError::campaign(format!(
            "fault point {point:?} does not name a flip-flop"
        )));
    }
    if netlist.cell(point.ff).output() != point.wire {
        return Err(MateError::campaign(format!(
            "fault point {point:?}: wire is not the output of flip-flop {}",
            netlist.cell(point.ff).name()
        )));
    }
    Ok(())
}

/// Runs the horizon from `injected_at` and classifies the divergence from
/// golden.  `hold` names a point whose flip-flop is forced to the
/// complement of its golden value at the start of each of its first cycles
/// (in the injection cycle that is the upset itself); a caller that upsets
/// the state itself passes `None`.
fn classify(
    tb: &mut mate_sim::Testbench<'_>,
    golden: &GoldenRun,
    injected_at: usize,
    hold: Option<(FaultPoint, usize)>,
) -> FaultEffect {
    let horizon = golden.trace.num_cycles();
    let mut state_equal_at: Option<usize> = None;
    for cycle in injected_at..horizon {
        if let Some((point, cycles)) = hold {
            let sim = tb.sim_mut();
            if cycle < injected_at + cycles
                && sim.value(point.wire) == golden.trace.value(cycle, point.wire)
            {
                sim.flip_ff(point.ff);
            }
        }
        let mut outputs_ok = true;
        let mut state_ok = true;
        tb.step_observed(|sim| {
            for &net in &golden.output_nets {
                if sim.value(net) != golden.trace.value(cycle, net) {
                    outputs_ok = false;
                    break;
                }
            }
            for &net in &golden.state_nets {
                if sim.value(net) != golden.trace.value(cycle, net) {
                    state_ok = false;
                    break;
                }
            }
        });
        if !outputs_ok {
            return FaultEffect::OutputFailure {
                after: cycle - injected_at,
            };
        }
        if cycle > injected_at {
            if state_ok {
                if state_equal_at.is_none() {
                    state_equal_at = Some(cycle - injected_at);
                }
            } else {
                // Not converged (yet, or again: a re-divergence after the
                // hold would need diverged device state, which the device
                // contract rules out, but the oracle checks rather than
                // assumes it).  A convergence found after a reset has an
                // offset of at least 3, so `Some(1)` below means the state
                // never re-diverged.
                state_equal_at = None;
            }
        }
    }
    match state_equal_at {
        Some(1) => FaultEffect::MaskedWithinOneCycle,
        Some(after) => FaultEffect::SilentRecovery { after },
        None => FaultEffect::Latent,
    }
}

/// Designs with fewer combinational cells than this run the full-settle
/// engine, the rest the differential one.  Below it the whole cloud is a
/// handful of dense runs, and the differential engine's frontier
/// bookkeeping costs more than it saves: forcing it on the
/// `uart_tx-exhaustive` benchmark workload (72 cells) cut the campaign
/// from 410 K to 265 K faults/s.  On the cores (1,570 and 1,749 cells)
/// differential leads full-settle 8–10× on 64-cycle windows.
const FULL_SETTLE_MAX_CELLS: usize = 128;

/// The two batched engines.  Both produce classifications bit-identical to
/// one [`inject`] per point (enforced by the tests below, engine by
/// engine); the design picks one, see [`Engine::for_design`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    /// [`WideSimulator`]: every combinational cell re-evaluated every
    /// cycle, every observed net compared with its golden bit.
    FullSettle,
    /// [`DeltaSimulator`]: lanes carry XOR-deltas against the golden trace
    /// and only the dirty fan-out frontier is re-evaluated; work scales with
    /// fault-cone activity, not netlist size.
    Differential,
}

impl Engine {
    /// The engine a design runs on: full-settle below
    /// [`FULL_SETTLE_MAX_CELLS`] combinational cells, differential at or
    /// above.  A function of the design alone, so every thread shard of
    /// one campaign agrees.
    fn for_design(topo: &Topology) -> Self {
        if topo.comb_order().len() < FULL_SETTLE_MAX_CELLS {
            Self::FullSettle
        } else {
            Self::Differential
        }
    }
}

/// One engine's 64 lanes: seeded from the golden trace at an injection
/// cycle, one flip per lane, then settled, compared and ticked in
/// lock-step.  Inputs come from the golden trace in every lane.
enum Lanes<'n> {
    FullSettle(WideSimulator<'n>),
    Differential {
        sim: DeltaSimulator<'n>,
        /// The golden trace, column-major, for the per-pin golden bits.
        transposed: TransposedTrace,
        /// Per net: bit 0 marks a primary output, bit 1 a state net (the
        /// accumulator order of [`DeltaSimulator::scan_flagged`]).
        observed: Vec<u8>,
    },
}

impl<'n> Lanes<'n> {
    fn new(engine: Engine, harness: &'n dyn DesignHarness, golden: &GoldenRun) -> Self {
        let (netlist, topo) = (harness.netlist(), harness.topology());
        match engine {
            Engine::FullSettle => Self::FullSettle(WideSimulator::new(netlist, topo)),
            Engine::Differential => {
                let mut observed = vec![0u8; netlist.num_nets()];
                for &net in &golden.output_nets {
                    observed[net.index()] |= 1;
                }
                for &net in &golden.state_nets {
                    observed[net.index()] |= 2;
                }
                Self::Differential {
                    sim: DeltaSimulator::new(netlist, topo),
                    transposed: TransposedTrace::from_trace(&golden.trace),
                    observed,
                }
            }
        }
    }

    /// Puts every lane on the golden trajectory at `cycle`.
    fn seed(&mut self, golden: &GoldenRun, cycle: usize) {
        match self {
            Self::FullSettle(sim) => sim.load_from_trace(&golden.trace, cycle),
            Self::Differential { sim, .. } => sim.begin(cycle),
        }
    }

    fn flip(&mut self, ff: CellId, lane: usize) {
        match self {
            Self::FullSettle(sim) => sim.flip_ff(ff, lane),
            Self::Differential { sim, .. } => sim.flip_ff(ff, lane),
        }
    }

    /// Settles cycle `t` and returns the lanes whose primary outputs and
    /// the lanes whose state differ from golden, in that order.
    fn settle(&mut self, golden: &GoldenRun, t: usize) -> [u64; 2] {
        match self {
            Self::FullSettle(sim) => {
                sim.load_inputs_from_trace(&golden.trace, t);
                let words = golden.trace.cycle_words(t);
                let mut diff = |nets: &[NetId]| {
                    nets.iter().fold(0u64, |acc, &net| {
                        let i = net.index();
                        let bit = words[i / WORD_LANES] >> (i % WORD_LANES) & 1;
                        acc | (sim.value_word(net) ^ bit.wrapping_neg())
                    })
                };
                [diff(&golden.output_nets), diff(&golden.state_nets)]
            }
            // Only nets with a nonzero delta can differ from golden.
            Self::Differential {
                sim,
                transposed,
                observed,
            } => {
                sim.settle(transposed);
                sim.scan_flagged(observed)
            }
        }
    }

    /// Drops the lanes outside `active`.  Classified lanes cost the
    /// full-settle engine nothing extra, but their deltas would keep the
    /// differential engine's frontier at their cones until the horizon.
    fn retire(&mut self, active: u64) {
        if let Self::Differential { sim, .. } = self {
            sim.retain_lanes(active);
        }
    }

    fn tick(&mut self) {
        match self {
            Self::FullSettle(sim) => sim.tick(),
            Self::Differential { sim, .. } => sim.tick(),
        }
    }
}

/// Classifies a batch of fault points against `golden`, bit-identically
/// to one [`inject`] per point.
///
/// Up to 64 fault points per injection cycle are packed into the lanes of
/// a batched engine seeded from the golden trace at the injection cycle,
/// then classified in lock-step with per-lane early retirement.  The design
/// picks the engine: the full-settle [`WideSimulator`] for small
/// combinational clouds, the event-driven [`DeltaSimulator`] for the rest.
///
/// Both engines replay every primary input from the golden trace instead
/// of building a testbench and running its devices.  That is exact because
/// the golden run attached every device under the contract
/// [`mate_sim::Testbench::attach`] checks: a lane whose outputs have
/// matched golden so far has shown its devices only golden values, so the
/// inputs they drive are golden too, and its first wrong output retires it
/// as [`FaultEffect::OutputFailure`].
///
/// Results are returned in the order of `points`.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any injection cycle lies beyond the
/// golden trace or any point does not name a flip-flop and its output.
pub fn classify_points(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Result<Vec<FaultEffect>, MateError> {
    classify_points_on(
        Engine::for_design(harness.topology()),
        harness,
        golden,
        points,
    )
}

/// [`classify_points`] on a given engine: groups the points by injection
/// cycle, runs them 64 at a time, and retires each lane at its first wrong
/// output or, from the cycle after injection on, at its first cycle with
/// the golden state.
///
/// Early retirement is sound because inputs are golden by construction:
/// once a lane's full flip-flop state re-converges to the golden state,
/// *every* net of that lane equals golden in all later cycles, so its
/// classification is already decided — `OutputFailure` can no longer occur
/// and the recorded convergence offset is final, exactly as the scalar
/// classifier would conclude after running out the horizon.
fn classify_points_on(
    engine: Engine,
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Result<Vec<FaultEffect>, MateError> {
    for &point in points {
        check_point(harness.netlist(), golden, point)?;
    }
    let horizon = golden.trace.num_cycles();
    let mut lanes = Lanes::new(engine, harness, golden);
    let mut by_cycle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, p) in points.iter().enumerate() {
        by_cycle.entry(p.cycle).or_default().push(idx);
    }

    let mut effects = vec![FaultEffect::Latent; points.len()];
    for (&cycle, indices) in &by_cycle {
        for chunk in indices.chunks(WORD_LANES) {
            lanes.seed(golden, cycle);
            for (lane, &idx) in chunk.iter().enumerate() {
                lanes.flip(points[idx].ff, lane);
            }
            let mut active = low_lanes(chunk.len());
            for t in cycle..horizon {
                let before = active;
                let after = t - cycle;
                let [out_diff, state_diff] = lanes.settle(golden, t);
                // Outputs first, mirroring the scalar classifier's priority.
                let failed = out_diff & active;
                for_each_lane(failed, |lane| {
                    effects[chunk[lane]] = FaultEffect::OutputFailure { after };
                });
                active &= !failed;
                if after > 0 {
                    let converged = active & !state_diff;
                    let effect = if after == 1 {
                        FaultEffect::MaskedWithinOneCycle
                    } else {
                        FaultEffect::SilentRecovery { after }
                    };
                    for_each_lane(converged, |lane| effects[chunk[lane]] = effect);
                    active &= !converged;
                }
                if active == 0 {
                    break;
                }
                if active != before {
                    lanes.retire(active);
                }
                lanes.tick();
            }
            // Lanes still active at the horizon never re-converged: Latent,
            // which `effects` was initialized with.
        }
    }
    Ok(effects)
}

/// Injects a *simultaneous* multi-bit SEU (all points in the same cycle)
/// and classifies it against `golden` — the fault model of the paper's
/// Section 6.2.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if the points lie in different cycles,
/// no point is given, the cycle lies beyond the golden trace or a point
/// does not name a flip-flop and its output, or [`MateError::Device`] if
/// the harness cannot build its testbench.
pub fn inject_multi(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Result<FaultEffect, MateError> {
    let Some(first) = points.first() else {
        return Err(MateError::campaign("need at least one fault point"));
    };
    if points.iter().any(|p| p.cycle != first.cycle) {
        return Err(MateError::campaign(
            "multi-bit upsets are simultaneous: all points must share one cycle",
        ));
    }
    for &point in points {
        check_point(harness.netlist(), golden, point)?;
    }
    let cycle = first.cycle;
    let mut tb = harness.testbench()?;
    for _ in 0..cycle {
        tb.step();
    }
    for point in points {
        tb.sim_mut().flip_ff(point.ff);
    }
    Ok(classify(&mut tb, golden, cycle, None))
}

/// Injects an upset that *holds* for `hold_cycles` cycles: the flip-flop is
/// forced to the complement of its golden value at the start of every
/// affected cycle (an SEU "that holds more than one cycle", Section 6.2).
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if `hold_cycles` is zero, the affected
/// window leaves the golden trace or `point` does not name a flip-flop and
/// its output, or [`MateError::Device`] if the harness cannot build its
/// testbench.
pub fn inject_persistent(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    point: FaultPoint,
    hold_cycles: usize,
) -> Result<FaultEffect, MateError> {
    if hold_cycles == 0 {
        return Err(MateError::campaign(
            "upset must hold for at least one cycle",
        ));
    }
    check_point(harness.netlist(), golden, point)?;
    let horizon = golden.trace.num_cycles();
    if point.cycle + hold_cycles > horizon {
        return Err(MateError::campaign(format!(
            "persistent upset (cycle {} + hold {hold_cycles}) leaves the golden trace of {horizon} cycles",
            point.cycle
        )));
    }
    let mut tb = harness.testbench()?;
    for _ in 0..point.cycle {
        tb.step();
    }
    Ok(classify(
        &mut tb,
        golden,
        point.cycle,
        Some((point, hold_cycles)),
    ))
}

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Number of cycles to run (the golden trace length).
    pub cycles: usize,
    /// Inject only a sample of this many fault points (`None` = exhaustive).
    pub sample: Option<usize>,
    /// Seed for sampling.
    pub seed: u64,
    /// Worker threads for [`run_campaign_wide`]; `0` uses all available
    /// cores (the [`crate::SearchConfig`]-style convention).  Results are
    /// bit-identical for every thread count.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            cycles: 64,
            sample: None,
            seed: 0,
            threads: 0,
        }
    }
}

/// Per-point work accounting of a campaign.
///
/// Every campaign simulates every point individually, so a computed
/// campaign always reports [`PruningStats::unpruned`] and a campaign decoded
/// from a cached artifact reports the all-zero default.  The struct stays
/// only because the end-to-end benchmark (`e2e-bench`) reads it for its
/// `hafi.collapse_*` per-layer metrics; both go together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruningStats {
    /// Fault points fed to the classifier.
    pub points: usize,
    /// Equivalence classes among them (always 0).
    pub classes: usize,
    /// Representative probes executed (always 0).
    pub probes: usize,
    /// Points classified without individual simulation (always 0).
    pub skipped: usize,
    /// Points individually simulated.
    pub fallback: usize,
    /// Probe-memo hits (always 0).
    pub memo_hits: usize,
}

impl PruningStats {
    /// Stats for an unpruned run: every point individually simulated.
    pub fn unpruned(points: usize) -> Self {
        Self {
            points,
            fallback: points,
            ..Self::default()
        }
    }

    /// Fraction of points classified without individual simulation.
    pub fn skip_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.skipped as f64 / self.points as f64
        }
    }
}

/// The outcome of a whole campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// Every injected point with its classified effect.
    pub records: Vec<(FaultPoint, FaultEffect)>,
    /// Work accounting (see [`PruningStats`]).  Diagnostic only, and
    /// therefore not part of any artifact encoding.
    pub pruning: PruningStats,
}

impl CampaignResult {
    /// Number of experiments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no experiment ran.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Histogram of effects (stable order).
    pub fn histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for (_, effect) in &self.records {
            let key = match effect {
                FaultEffect::MaskedWithinOneCycle => "masked-1-cycle",
                FaultEffect::SilentRecovery { .. } => "silent-recovery",
                FaultEffect::Latent => "latent",
                FaultEffect::OutputFailure { .. } => "output-failure",
            };
            *h.entry(key.to_owned()).or_insert(0) += 1;
        }
        h
    }

    /// Fraction of experiments masked within one cycle — the campaign-side
    /// ground truth the MATE prune fraction must stay below.
    pub fn masked_one_cycle_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .filter(|(_, e)| e.is_masked_one_cycle())
            .count() as f64
            / self.records.len() as f64
    }
}

/// Runs a full (or sampled) injection campaign over `space`.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] when an injection is invalid (cannot
/// happen for points drawn from `space` with an in-range cycle filter, but
/// propagated for API uniformity), or [`MateError::Device`] when the
/// harness cannot build its testbench.
pub fn run_campaign(
    harness: &dyn DesignHarness,
    space: &FaultSpace,
    config: &CampaignConfig,
) -> Result<CampaignResult, MateError> {
    // One extra golden cycle so an injection at the last campaign cycle
    // still has a `t+1` state to be judged against.
    let golden = golden_run(harness, config.cycles + 1)?;
    let points: Vec<FaultPoint> = match config.sample {
        Some(count) => space.sample(count, config.seed),
        None => space.iter().collect(),
    };
    let mut result = CampaignResult::default();
    for point in points {
        if point.cycle >= config.cycles {
            continue;
        }
        let effect = inject(harness, &golden, point)?;
        result.records.push((point, effect));
    }
    result.pruning = PruningStats::unpruned(result.records.len());
    Ok(result)
}

/// Resolves a `threads` setting (`0` = all cores) against the work size.
fn effective_threads(threads: usize, points: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    t.min(points).max(1)
}

/// Runs a full (or sampled) injection campaign over `space` on the batched
/// engine the design picks: identical records to [`run_campaign`], at up
/// to 64 fault scenarios per simulation via [`classify_points`], sharded
/// over [`CampaignConfig::threads`] worker threads (threads × 64
/// concurrent fault scenarios).
///
/// Each thread classifies one contiguous chunk of the point list into its
/// slice of the result buffer, so the records come back in the original
/// point order and are bit-identical for every thread count — including the
/// single-threaded path, which skips thread spawning entirely.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] when an injection is invalid, or
/// [`MateError::Device`] when the harness cannot build the testbench of its
/// golden run.
pub fn run_campaign_wide(
    harness: &(dyn DesignHarness + Sync),
    space: &FaultSpace,
    config: &CampaignConfig,
) -> Result<CampaignResult, MateError> {
    run_campaign_wide_on(
        Engine::for_design(harness.topology()),
        harness,
        space,
        config,
    )
}

/// [`run_campaign_wide`] on a given engine.
fn run_campaign_wide_on(
    engine: Engine,
    harness: &(dyn DesignHarness + Sync),
    space: &FaultSpace,
    config: &CampaignConfig,
) -> Result<CampaignResult, MateError> {
    let golden = golden_run(harness, config.cycles + 1)?;
    let points: Vec<FaultPoint> = match config.sample {
        Some(count) => space.sample(count, config.seed),
        None => space.iter().collect(),
    }
    .into_iter()
    .filter(|p| p.cycle < config.cycles)
    .collect();
    let threads = effective_threads(config.threads, points.len());
    let effects = if threads <= 1 {
        classify_points_on(engine, harness, &golden, &points)?
    } else {
        let chunk = points.len().div_ceil(threads);
        let mut shards: Vec<Result<Vec<FaultEffect>, MateError>> =
            points.chunks(chunk).map(|_| Ok(Vec::new())).collect();
        let golden = &golden;
        std::thread::scope(|scope| {
            for (pts, out) in points.chunks(chunk).zip(shards.iter_mut()) {
                scope.spawn(move || {
                    *out = classify_points_on(engine, harness, golden, pts);
                });
            }
        });
        let mut effects = Vec::with_capacity(points.len());
        for shard in shards {
            effects.extend(shard?);
        }
        effects
    };
    Ok(CampaignResult {
        pruning: PruningStats::unpruned(points.len()),
        records: points.into_iter().zip(effects).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StimulusHarness;
    use crate::space::FaultSpace;
    use mate_netlist::examples::{counter, figure1b, tmr_register};
    use mate_netlist::random::{random_circuit, RandomCircuitConfig};
    use proptest::prelude::*;

    use crate::common::harness_for;

    /// Both engines: every test below that compares an engine with the
    /// scalar oracle runs it on each.
    const ENGINES: [Engine; 2] = [Engine::FullSettle, Engine::Differential];

    #[test]
    fn counter_bit_flip_is_persistent_but_silent_only_if_unobserved() {
        // Counter bits are primary outputs: every flip is an immediate
        // output failure.
        let (n, topo) = counter(3);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
        let golden = golden_run(&harness, 10).unwrap();
        let ff0 = harness.topology().seq_cells()[0];
        let wire = harness.netlist().cell(ff0).output();
        let effect = inject(
            &harness,
            &golden,
            FaultPoint {
                ff: ff0,
                wire,
                cycle: 3,
            },
        )
        .unwrap();
        assert_eq!(effect, FaultEffect::OutputFailure { after: 0 });
    }

    #[test]
    fn tmr_flip_is_masked_when_voting() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        // Load 1 in cycle 0, vote afterwards.
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false])
            .drive(din, vec![true]);
        let golden = golden_run(&harness, 8).unwrap();
        let ff1 = harness.topology().seq_cells()[1];
        let wire = harness.netlist().cell(ff1).output();
        let effect = inject(
            &harness,
            &golden,
            FaultPoint {
                ff: ff1,
                wire,
                cycle: 3,
            },
        )
        .unwrap();
        assert_eq!(effect, FaultEffect::MaskedWithinOneCycle);
    }

    #[test]
    fn tmr_flip_during_load_is_also_masked() {
        // While load=1 every replica reloads from din, so a flipped replica
        // is overwritten; the vote output of 2-of-3 still reads golden.
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true])
            .drive(din, vec![true]);
        let golden = golden_run(&harness, 6).unwrap();
        let ff2 = harness.topology().seq_cells()[2];
        let wire = harness.netlist().cell(ff2).output();
        let effect = inject(
            &harness,
            &golden,
            FaultPoint {
                ff: ff2,
                wire,
                cycle: 2,
            },
        )
        .unwrap();
        assert_eq!(effect, FaultEffect::MaskedWithinOneCycle);
    }

    /// Every point of the figure-1b circuit and of the TMR register: a
    /// one-cycle hold is the plain flip that `inject_multi` performs.
    #[test]
    fn one_cycle_hold_is_a_single_flip() {
        let (n, topo) = figure1b();
        let input = n.find_net("in").unwrap();
        let figure = StimulusHarness::new(n, topo)
            .drive(input, (0..=16).map(|c| c % 3 == 1).collect::<Vec<_>>());
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let tmr = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false, false, true])
            .drive(din, vec![true, false]);
        let mut classes = std::collections::HashSet::new();
        for harness in [&figure, &tmr] {
            let golden = golden_run(harness, 17).unwrap();
            let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 16);
            for p in space.iter() {
                let held = inject_persistent(harness, &golden, p, 1).unwrap();
                assert_eq!(held, inject(harness, &golden, p).unwrap(), "{p:?}");
                assert_eq!(held, inject_multi(harness, &golden, &[p]).unwrap(), "{p:?}");
                classes.insert(std::mem::discriminant(&held));
            }
        }
        assert!(classes.len() >= 2, "degenerate workloads");
    }

    #[test]
    fn campaign_histogram_counts_everything() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false])
            .drive(din, vec![true]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 6);
        let result = run_campaign(
            &harness,
            &space,
            &CampaignConfig {
                cycles: 6,
                sample: None,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        assert_eq!(result.len(), space.len());
        let histogram = result.histogram();
        let total: usize = histogram.values().sum();
        assert_eq!(total, result.len());
        // TMR masks every single-replica fault.
        assert_eq!(result.masked_one_cycle_fraction().to_bits(), 1f64.to_bits());
    }

    #[test]
    fn sampled_campaign_is_subset() {
        let (n, topo) = counter(4);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 12);
        let result = run_campaign(
            &harness,
            &space,
            &CampaignConfig {
                cycles: 12,
                sample: Some(9),
                seed: 7,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        assert_eq!(result.len(), 9);
    }

    #[test]
    fn threaded_campaign_matches_single_thread() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false, false, true])
            .drive(din, vec![true, false]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 10);
        let base = CampaignConfig {
            cycles: 10,
            sample: None,
            seed: 0,
            threads: 1,
        };
        let single = run_campaign_wide(&harness, &space, &base).unwrap();
        for threads in [0usize, 2, 4, 7, 1000] {
            let sharded =
                run_campaign_wide(&harness, &space, &CampaignConfig { threads, ..base }).unwrap();
            assert_eq!(single.records, sharded.records, "{threads} threads");
        }
    }

    /// Classifies the exhaustive fault space of `harness` over `cycles`
    /// with both engines, asserts each equals one scalar `inject` per
    /// point, and returns the scalar effects.
    fn assert_engines_match_inject(
        harness: &dyn DesignHarness,
        cycles: usize,
    ) -> Result<Vec<FaultEffect>, TestCaseError> {
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let golden = golden_run(harness, cycles + 1).unwrap();
        let points: Vec<FaultPoint> = space.iter().collect();
        let scalar: Vec<FaultEffect> = points
            .iter()
            .map(|&p| inject(harness, &golden, p).unwrap())
            .collect();
        for engine in ENGINES {
            let batched = classify_points_on(engine, harness, &golden, &points).unwrap();
            prop_assert_eq!(&scalar, &batched, "{:?} engine", engine);
        }
        Ok(scalar)
    }

    /// Runs the scalar campaign (one `inject` per point) and asserts that
    /// both engines at 1 and 3 threads reproduce it record for record.
    /// Returns the scalar result.
    fn assert_engines_match_scalar_campaign(
        harness: &(dyn DesignHarness + Sync),
        base: CampaignConfig,
    ) -> Result<CampaignResult, TestCaseError> {
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), base.cycles);
        let scalar = run_campaign(harness, &space, &base).unwrap();
        for engine in ENGINES {
            for threads in [1, 3] {
                let config = CampaignConfig { threads, ..base };
                let wide = run_campaign_wide_on(engine, harness, &space, &config).unwrap();
                prop_assert_eq!(
                    &scalar.records,
                    &wide.records,
                    "{:?} engine {} threads",
                    engine,
                    threads
                );
            }
        }
        Ok(scalar)
    }

    #[test]
    fn engines_match_scalar_reference() {
        // Both engines classify bit-identically to the scalar `inject`
        // path, including partially filled tail chunks.
        let (n, topo) = counter(5);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true, true, false]);
        assert_engines_match_inject(&harness, 20).unwrap();

        // The paper's figure-1b circuit, whose verdicts are mixed.
        let (n, topo) = figure1b();
        let input = n.find_net("in").unwrap();
        let cycles = 24;
        let harness = StimulusHarness::new(n, topo)
            .drive(input, (0..=cycles).map(|c| c % 3 == 1).collect::<Vec<_>>());
        let scalar = assert_engines_match_inject(&harness, cycles).unwrap();
        let classes: std::collections::HashSet<_> =
            scalar.iter().map(std::mem::discriminant).collect();
        assert!(classes.len() >= 2, "degenerate workload");
    }

    /// Every entry point rejects, as a typed error, a point at the horizon,
    /// a point whose cell is not a flip-flop, a cell id outside the netlist
    /// and a wire that is not the flip-flop's output.
    #[test]
    fn injection_at_horizon_is_rejected() {
        fn rejected<T>(result: Result<T, MateError>) -> bool {
            matches!(result, Err(MateError::Campaign(_)))
        }
        let (n, topo) = counter(3);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
        let netlist = harness.netlist();
        let golden = golden_run(&harness, 5).unwrap();
        let ffs = harness.topology().seq_cells();
        let inside = FaultPoint {
            ff: ffs[0],
            wire: netlist.cell(ffs[0]).output(),
            cycle: 4,
        };
        let comb = (0..netlist.num_cells())
            .map(CellId::from_index)
            .find(|&c| !netlist.is_seq_cell(c))
            .unwrap();
        let bad = [
            FaultPoint { cycle: 5, ..inside },
            FaultPoint {
                ff: comb,
                wire: netlist.cell(comb).output(),
                ..inside
            },
            FaultPoint {
                ff: CellId::from_index(netlist.num_cells()),
                ..inside
            },
            FaultPoint {
                wire: netlist.cell(ffs[1]).output(),
                ..inside
            },
        ];
        assert!(inject(&harness, &golden, inside).is_ok());
        for p in bad {
            assert!(rejected(inject(&harness, &golden, p)), "inject {p:?}");
            assert!(
                rejected(inject_multi(&harness, &golden, &[p])),
                "inject_multi {p:?}"
            );
            assert!(
                rejected(inject_persistent(&harness, &golden, p, 1)),
                "inject_persistent {p:?}"
            );
            assert!(
                rejected(classify_points(&harness, &golden, &[inside, p])),
                "classify_points {p:?}"
            );
            for engine in ENGINES {
                assert!(
                    rejected(classify_points_on(engine, &harness, &golden, &[inside, p])),
                    "{engine:?} engine {p:?}"
                );
            }
        }
    }

    #[test]
    fn engines_match_across_threads() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false, false, true])
            .drive(din, vec![true, false]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 10);
        let base = CampaignConfig {
            cycles: 10,
            threads: 1,
            ..CampaignConfig::default()
        };
        let reference = run_campaign_wide_on(Engine::FullSettle, &harness, &space, &base).unwrap();
        for engine in ENGINES {
            for threads in [1usize, 3] {
                let config = CampaignConfig { threads, ..base };
                let run = run_campaign_wide_on(engine, &harness, &space, &config).unwrap();
                assert_eq!(
                    reference.records, run.records,
                    "{engine:?} engine, {threads} threads"
                );
            }
        }
    }

    /// On a design with more than 64 flip-flops one injection cycle spans
    /// two lane words, the second one partial, and thread shards cut cycles
    /// at arbitrary points: every chunking must keep each point's own
    /// verdict.
    #[test]
    fn engines_match_scalar_campaign_across_lane_words() {
        let cfg = RandomCircuitConfig {
            inputs: 4,
            ffs: 80,
            gates: 240,
            outputs: 4,
        };
        let cycles = 8;
        let harness = harness_for(5, cfg, cycles + 1);
        assert!(harness.topology().seq_cells().len() > WORD_LANES);
        let config = CampaignConfig {
            cycles,
            sample: None,
            ..CampaignConfig::default()
        };
        let scalar = assert_engines_match_scalar_campaign(&harness, config).unwrap();
        // Mixed verdicts, so a point read from another lane would show.
        assert!(scalar.histogram().len() >= 2, "{:?}", scalar.histogram());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Exhaustive fault space on random circuits: both engines classify
        /// every point exactly like the scalar `inject` path.
        #[test]
        fn engines_match_inject_on_random_circuits(seed in 0u64..5_000) {
            let cfg = RandomCircuitConfig { inputs: 3, ffs: 8, gates: 28, outputs: 2 };
            let cycles = 12;
            let harness = harness_for(seed.wrapping_add(101), cfg, cycles + 1);
            assert_engines_match_inject(&harness, cycles)?;
        }

        /// Sampled campaigns: both engines at 1 and 3 threads agree with
        /// the scalar campaign record for record.
        #[test]
        fn engines_match_scalar_campaign(seed in 0u64..5_000) {
            let cfg = RandomCircuitConfig { inputs: 4, ffs: 6, gates: 20, outputs: 2 };
            let cycles = 10;
            let harness = harness_for(seed.wrapping_add(13), cfg, cycles + 1);
            let config = CampaignConfig { cycles, sample: Some(40), seed, ..CampaignConfig::default() };
            assert_engines_match_scalar_campaign(&harness, config)?;
        }

        /// Thread sharding is invisible per engine: any thread count
        /// reproduces the single-threaded full-settle records.
        #[test]
        fn engines_match_across_thread_counts(seed in 0u64..5_000, threads in 2usize..5) {
            let cfg = RandomCircuitConfig { inputs: 3, ffs: 6, gates: 22, outputs: 2 };
            let cycles = 10;
            let harness = harness_for(seed.wrapping_add(57), cfg, cycles + 1);
            let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
            let base = CampaignConfig { cycles, sample: Some(30), seed, threads: 1 };
            let reference = run_campaign_wide_on(Engine::FullSettle, &harness, &space, &base).unwrap();
            for engine in ENGINES {
                let config = CampaignConfig { threads, ..base };
                let sharded = run_campaign_wide_on(engine, &harness, &space, &config).unwrap();
                prop_assert_eq!(
                    &reference.records, &sharded.records,
                    "{:?} engine {} threads", engine, threads
                );
            }
        }
    }

    /// The cores' memories are devices.  The engines replay their responses
    /// from the golden trace while `run_campaign` injects through the real
    /// memories, so equal records test the replay argument itself.
    mod device_replay {
        use super::*;
        use crate::common::{AvrHarness, MspHarness};
        use std::collections::HashSet;
        use std::mem::discriminant;

        use mate_cores::avr::programs as avr_programs;
        use mate_cores::avr::system::AvrSystem;
        use mate_cores::msp430::programs as msp_programs;
        use mate_cores::msp430::system::Msp430System;
        use mate_cores::Termination;

        /// Compares both engines at 1 and 3 threads with scalar injection
        /// on a sample over a 64-cycle window and one over a 256-cycle
        /// window (where latent and late-recovering lanes run long); each
        /// sample must cover at least three effect classes.
        fn assert_replay_matches_inject(harness: &(dyn DesignHarness + Sync)) {
            assert_eq!(Engine::for_design(harness.topology()), Engine::Differential);
            for (cycles, sample) in [(64, 96), (256, 64)] {
                let config = CampaignConfig {
                    cycles,
                    sample: Some(sample),
                    seed: 42,
                    ..CampaignConfig::default()
                };
                let scalar = assert_engines_match_scalar_campaign(harness, config).unwrap();
                let classes: HashSet<_> = scalar
                    .records
                    .iter()
                    .map(|(_, e)| discriminant(e))
                    .collect();
                assert!(
                    classes.len() >= 3,
                    "{cycles} cycles: {:?}",
                    scalar.histogram()
                );
            }
        }

        #[test]
        fn avr_fib_replay_matches_inject() {
            assert_replay_matches_inject(&AvrHarness {
                sys: AvrSystem::new(),
                program: avr_programs::fib(Termination::Loop),
                dmem: Vec::new(),
            });
        }

        #[test]
        fn avr_conv_replay_matches_inject() {
            let (program, dmem) = avr_programs::conv(Termination::Loop);
            assert_replay_matches_inject(&AvrHarness {
                sys: AvrSystem::new(),
                program,
                dmem,
            });
        }

        #[test]
        fn msp430_fib_replay_matches_inject() {
            assert_replay_matches_inject(&MspHarness {
                sys: Msp430System::new(),
                image: msp_programs::fib(Termination::Loop),
            });
        }

        #[test]
        fn msp430_conv_replay_matches_inject() {
            assert_replay_matches_inject(&MspHarness {
                sys: Msp430System::new(),
                image: msp_programs::conv(Termination::Loop),
            });
        }
    }

    #[test]
    fn inject_multi_on_tmr() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false])
            .drive(din, vec![true]);
        let golden = golden_run(&harness, 8).unwrap();
        let ffs = harness.topology().seq_cells().to_vec();
        let point = |ff_i: usize, cycle: usize| {
            let ff = ffs[ff_i];
            FaultPoint {
                ff,
                wire: harness.netlist().cell(ff).output(),
                cycle,
            }
        };
        let effect = |set: &[FaultPoint]| inject_multi(&harness, &golden, set).unwrap();
        // TMR masks one replica and loses to two or three.
        assert_eq!(effect(&[point(0, 3)]), FaultEffect::MaskedWithinOneCycle);
        assert_eq!(
            effect(&[point(0, 3), point(1, 3)]),
            FaultEffect::OutputFailure { after: 0 }
        );
        assert_eq!(
            effect(&[point(0, 2), point(1, 2), point(2, 2)]),
            FaultEffect::OutputFailure { after: 0 }
        );
        assert_eq!(effect(&[point(2, 4)]), FaultEffect::MaskedWithinOneCycle);
        // One flip-flop flipped twice: the flips cancel.
        assert_eq!(
            effect(&[point(0, 3), point(0, 3)]),
            FaultEffect::MaskedWithinOneCycle
        );
    }

    #[test]
    fn inject_multi_rejects_bad_sets() {
        let (n, topo) = counter(3);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
        let golden = golden_run(&harness, 5).unwrap();
        let ff = harness.topology().seq_cells()[0];
        let wire = harness.netlist().cell(ff).output();
        let p = |cycle| FaultPoint { ff, wire, cycle };
        assert!(inject_multi(&harness, &golden, &[]).is_err());
        assert!(inject_multi(&harness, &golden, &[p(1), p(2)]).is_err());
        assert!(inject_multi(&harness, &golden, &[p(99)]).is_err());
    }

    #[test]
    fn engine_follows_comb_cell_count() {
        // counter(3) is tiny: full-settle.
        let (_, topo) = counter(3);
        assert!(topo.comb_order().len() < FULL_SETTLE_MAX_CELLS);
        assert_eq!(Engine::for_design(&topo), Engine::FullSettle);
        // A large random netlist crosses the threshold: differential.
        let (_, big) = random_circuit(
            RandomCircuitConfig {
                inputs: 8,
                ffs: 64,
                gates: 300,
                outputs: 8,
            },
            1,
        );
        assert!(big.comb_order().len() >= FULL_SETTLE_MAX_CELLS);
        assert_eq!(Engine::for_design(&big), Engine::Differential);
    }

    #[test]
    fn stats_accounting_helpers() {
        let un = PruningStats::unpruned(10);
        assert_eq!(un.points, 10);
        assert_eq!(un.fallback, 10);
        assert_eq!(un.skip_rate().to_bits(), 0f64.to_bits());
        assert_eq!(
            PruningStats::default().skip_rate().to_bits(),
            0f64.to_bits()
        );
        let quarter = PruningStats {
            points: 4,
            skipped: 1,
            ..PruningStats::default()
        };
        assert_eq!(quarter.skip_rate().to_bits(), 0.25f64.to_bits());
    }

    #[test]
    fn effective_threads_clamps_to_work() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(3, 0), 1);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn effect_display_and_predicates() {
        assert!(FaultEffect::MaskedWithinOneCycle.is_masked_one_cycle());
        assert!(FaultEffect::Latent.is_silent());
        assert!(!FaultEffect::OutputFailure { after: 2 }.is_silent());
        assert!(format!("{}", FaultEffect::SilentRecovery { after: 3 }).contains('3'));
    }
}
