//! Injection campaigns and outcome classification.
//!
//! Every campaign runs on one of two batched, bit-identical engines
//! selected through [`CampaignEngine`]: the full-settle [`WideSimulator`]
//! reference and the event-driven [`DeltaSimulator`], whose work per cycle
//! scales with fault-cone activity instead of netlist size.  Both replay
//! every primary input from the golden trace, which is exact for any
//! harness whose devices attached (see [`classify_points`]); the scalar
//! [`inject`] oracle runs the real devices.

use std::collections::BTreeMap;
use std::fmt;

use mate_netlist::lanes::{for_each_lane, low_lanes};
use mate_netlist::{MateError, NetId, Netlist, Topology, WORD_LANES};
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
/// `golden` over the remaining horizon.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if `point.cycle` lies beyond the golden
/// trace, or [`MateError::Device`] if the harness cannot build its
/// testbench.
pub fn inject(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    point: FaultPoint,
) -> Result<FaultEffect, MateError> {
    check_horizon(golden, point.cycle)?;
    let mut tb = harness.testbench()?;

    // Advance fault-free to the injection cycle.
    for _ in 0..point.cycle {
        tb.step();
    }
    // Flip the victim flip-flop; its faulty value is live during this cycle.
    tb.sim_mut().flip_ff(point.ff);
    Ok(classify(&mut tb, golden, point.cycle))
}

/// Rejects an injection cycle the golden trace cannot judge.
fn check_horizon(golden: &GoldenRun, cycle: usize) -> Result<(), MateError> {
    let horizon = golden.trace.num_cycles();
    if cycle >= horizon {
        return Err(MateError::campaign(format!(
            "injection cycle {cycle} beyond golden trace of {horizon} cycles"
        )));
    }
    Ok(())
}

/// Runs the remaining horizon and classifies the divergence from golden.
fn classify(
    tb: &mut mate_sim::Testbench<'_>,
    golden: &GoldenRun,
    injected_at: usize,
) -> FaultEffect {
    let horizon = golden.trace.num_cycles();
    let mut state_equal_at: Option<usize> = None;
    for cycle in injected_at..horizon {
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
                // Not converged (yet, or again: a re-divergence would need
                // diverged device state, which the device contract rules
                // out, but the oracle checks rather than assumes it).
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

/// Which batched engine classifies a campaign.
///
/// All choices produce bit-identical [`FaultEffect`] classifications for
/// every thread count (enforced by the campaign proptests); the choice only
/// trades work per cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CampaignEngine {
    /// The full-settle [`WideSimulator`] engine: every combinational cell
    /// re-evaluated every cycle, convergence detected by XOR-scanning the
    /// observed nets.  Kept as the asserted-identical reference.
    FullSettle,
    /// The event-driven [`DeltaSimulator`] engine: lanes carry XOR-deltas
    /// against the golden trace, only the dirty fan-out frontier is
    /// re-evaluated, and convergence falls out of the frontier emptying.
    /// Work scales with fault-cone activity, not netlist size.
    Differential,
    /// Picks per design (the default): [`CampaignEngine::FullSettle`] for
    /// small combinational clouds, where the full sweep is a handful of
    /// dense runs and the differential engine's frontier bookkeeping costs
    /// more than it saves (the honest `figure1b` regression in
    /// `BENCH_campaign.json`), [`CampaignEngine::Differential`] everywhere
    /// else.  Trivially bit-identical: it only ever *selects* one of the
    /// two engines, never mixes them within a run.
    #[default]
    Auto,
}

/// [`CampaignEngine::Auto`] threshold: designs with fewer combinational
/// cells than this settle faster in full — below it the whole cloud fits a
/// few cache lines and dense sweeps beat frontier bookkeeping.
const AUTO_FULL_SETTLE_MAX_CELLS: usize = 128;

impl CampaignEngine {
    /// The two concrete engines, reference first (for equivalence sweeps).
    /// `Auto` is not listed: it always resolves to one of these.
    pub fn all() -> [Self; 2] {
        [Self::FullSettle, Self::Differential]
    }

    /// Resolves `Auto` against a design (concrete engines pass through):
    /// full-settle below [`AUTO_FULL_SETTLE_MAX_CELLS`] combinational
    /// cells, differential at or above.  Deterministic in the design alone,
    /// so every thread shard of one campaign resolves identically.
    pub fn resolve(self, topo: &Topology) -> Self {
        match self {
            Self::Auto if topo.comb_order().len() < AUTO_FULL_SETTLE_MAX_CELLS => Self::FullSettle,
            Self::Auto => Self::Differential,
            concrete => concrete,
        }
    }
}

impl fmt::Display for CampaignEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FullSettle => write!(f, "full-settle"),
            Self::Differential => write!(f, "differential"),
            Self::Auto => write!(f, "auto"),
        }
    }
}

/// Classifies a batch of fault points against `golden`, bit-identically
/// to one [`inject`] per point.
///
/// Up to 64 fault points per injection cycle are packed into the lanes of
/// a batched engine seeded from the golden trace at the injection cycle,
/// then classified in lock-step with per-lane early retirement.  `engine`
/// picks between the event-driven [`CampaignEngine::Differential`] engine
/// and the full-settle [`CampaignEngine::FullSettle`] reference;
/// [`CampaignEngine::Auto`] resolves to one of them from the design.
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
/// golden trace.
pub fn classify_points(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
    engine: CampaignEngine,
) -> Result<Vec<FaultEffect>, MateError> {
    for p in points {
        check_horizon(golden, p.cycle)?;
    }
    Ok(match engine.resolve(harness.topology()) {
        CampaignEngine::FullSettle => classify_points_full_settle(harness, golden, points),
        CampaignEngine::Differential | CampaignEngine::Auto => {
            classify_points_differential(harness, golden, points)
        }
    })
}

/// Per-net observation flags for the classification scans.  The bit
/// positions match the accumulator indices of
/// [`DeltaSimulator::scan_flagged`].
const OBS_OUTPUT: u8 = 1;
const OBS_STATE: u8 = 2;

fn observed_flags(num_nets: usize, golden: &GoldenRun) -> Vec<u8> {
    let mut flags = vec![0u8; num_nets];
    for &net in &golden.output_nets {
        flags[net.index()] |= OBS_OUTPUT;
    }
    for &net in &golden.state_nets {
        flags[net.index()] |= OBS_STATE;
    }
    flags
}

/// Per-cycle partition of the observed nets by their golden value, so the
/// full-settle classification loop needs neither a per-net golden broadcast
/// nor a per-net golden bit probe: a lane diverges on a golden-one net iff
/// its value bit is 0 (`diff |= !v`), on a golden-zero net iff it is 1
/// (`diff |= v`).
struct GoldenPartition {
    out_ones: Vec<Vec<u32>>,
    out_zeros: Vec<Vec<u32>>,
    state_ones: Vec<Vec<u32>>,
    state_zeros: Vec<Vec<u32>>,
}

impl GoldenPartition {
    fn build(golden: &GoldenRun, transposed: &TransposedTrace) -> Self {
        let horizon = golden.trace.num_cycles();
        let mut p = Self {
            out_ones: vec![Vec::new(); horizon],
            out_zeros: vec![Vec::new(); horizon],
            state_ones: vec![Vec::new(); horizon],
            state_zeros: vec![Vec::new(); horizon],
        };
        for t in 0..horizon {
            let view = transposed.cycle_view(t);
            for &net in &golden.output_nets {
                let bucket = if view.value(net.index()) {
                    &mut p.out_ones[t]
                } else {
                    &mut p.out_zeros[t]
                };
                bucket.push(net.index() as u32);
            }
            for &net in &golden.state_nets {
                let bucket = if view.value(net.index()) {
                    &mut p.state_ones[t]
                } else {
                    &mut p.state_zeros[t]
                };
                bucket.push(net.index() as u32);
            }
        }
        p
    }
}

/// The full-settle engine behind [`classify_points`]: groups points
/// by injection cycle, packs up to 64 of them into one lane-parallel run
/// seeded from the golden trace, and compares every lane against golden
/// with word XORs.
///
/// Early retirement is sound because inputs are golden by construction:
/// once a lane's full flip-flop state re-converges to the golden state,
/// *every* net of that lane equals golden in all later cycles, so its
/// classification is already decided — `OutputFailure` can no longer occur
/// and the recorded convergence offset is final, exactly as the scalar
/// classifier would conclude after running out the horizon.
fn classify_points_full_settle(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Vec<FaultEffect> {
    let horizon = golden.trace.num_cycles();
    let mut wide = WideSimulator::new(harness.netlist(), harness.topology());
    // Golden comparisons are precomputed per cycle: the observed nets are
    // partitioned by golden value once, outside the chunk loop, so the
    // per-chunk classification is pure word ops — no per-net broadcast, no
    // per-net trace probe.
    let transposed = TransposedTrace::from_trace(&golden.trace);
    let part = GoldenPartition::build(golden, &transposed);

    let mut by_cycle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, p) in points.iter().enumerate() {
        by_cycle.entry(p.cycle).or_default().push(idx);
    }

    let mut effects = vec![FaultEffect::Latent; points.len()];
    for (&cycle, indices) in &by_cycle {
        for chunk in indices.chunks(WORD_LANES) {
            wide.load_from_trace(&golden.trace, cycle);
            for (lane, &idx) in chunk.iter().enumerate() {
                wide.flip_ff(points[idx].ff, lane);
            }
            let mut active = low_lanes(chunk.len());
            for t in cycle..horizon {
                wide.load_inputs_from_trace(&golden.trace, t);
                wide.settle();
                // Outputs first, mirroring the scalar classifier's priority.
                let mut out_diff = 0u64;
                for &net in &part.out_ones[t] {
                    out_diff |= !wide.value_word(NetId::from_index(net as usize));
                }
                for &net in &part.out_zeros[t] {
                    out_diff |= wide.value_word(NetId::from_index(net as usize));
                }
                let failed = out_diff & active;
                if failed != 0 {
                    for_each_lane(failed, |lane| {
                        effects[chunk[lane]] = FaultEffect::OutputFailure { after: t - cycle };
                    });
                    active &= !failed;
                }
                if t > cycle && active != 0 {
                    let mut state_diff = 0u64;
                    for &net in &part.state_ones[t] {
                        state_diff |= !wide.value_word(NetId::from_index(net as usize));
                    }
                    for &net in &part.state_zeros[t] {
                        state_diff |= wide.value_word(NetId::from_index(net as usize));
                    }
                    let converged = active & !state_diff;
                    if converged != 0 {
                        let after = t - cycle;
                        for_each_lane(converged, |lane| {
                            effects[chunk[lane]] = if after == 1 {
                                FaultEffect::MaskedWithinOneCycle
                            } else {
                                FaultEffect::SilentRecovery { after }
                            };
                        });
                        active &= !converged;
                    }
                }
                if active == 0 {
                    break;
                }
                wide.tick();
            }
            // Lanes still active at the horizon never re-converged: Latent,
            // which `effects` was initialized with.
        }
    }
    effects
}

/// The event-driven engine behind [`classify_points`]: like
/// [`classify_points_full_settle`] in grouping and retirement, but the
/// chunk runs on a [`DeltaSimulator`] — campaign inputs are the golden
/// inputs by construction, so input deltas are identically zero and only
/// the dirty fan-out frontier of each fault cone is ever re-evaluated.  The
/// classification scan walks the simulator's nonzero-delta set rather than
/// all observed nets: any net absent from it matches golden in every lane.
///
/// Early retirement is sound for the same reason as in the full-settle
/// engine; convergence here is simply the lane's bits vanishing from every
/// delta, which the frontier detects without a state scan.
fn classify_points_differential(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Vec<FaultEffect> {
    let horizon = golden.trace.num_cycles();
    let transposed = TransposedTrace::from_trace(&golden.trace);
    let flags = observed_flags(harness.netlist().num_nets(), golden);
    let mut delta = DeltaSimulator::new(harness.netlist(), harness.topology());

    let mut by_cycle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, p) in points.iter().enumerate() {
        by_cycle.entry(p.cycle).or_default().push(idx);
    }

    let mut effects = vec![FaultEffect::Latent; points.len()];
    for (&cycle, indices) in &by_cycle {
        for chunk in indices.chunks(WORD_LANES) {
            delta.begin(cycle);
            for (lane, &idx) in chunk.iter().enumerate() {
                delta.flip_ff(points[idx].ff, lane);
            }
            let mut active = low_lanes(chunk.len());
            for t in cycle..horizon {
                delta.settle(&transposed);
                let before = active;
                // One scan of the (small) nonzero-delta set yields both
                // divergence masks; every other net equals golden in all
                // lanes.
                let [out_diff, state_diff] = delta.scan_flagged(&flags);
                // Outputs first, mirroring the scalar classifier's priority.
                let failed = out_diff & active;
                if failed != 0 {
                    for_each_lane(failed, |lane| {
                        effects[chunk[lane]] = FaultEffect::OutputFailure { after: t - cycle };
                    });
                    active &= !failed;
                }
                if t > cycle && active != 0 {
                    let converged = active & !state_diff;
                    if converged != 0 {
                        let after = t - cycle;
                        for_each_lane(converged, |lane| {
                            effects[chunk[lane]] = if after == 1 {
                                FaultEffect::MaskedWithinOneCycle
                            } else {
                                FaultEffect::SilentRecovery { after }
                            };
                        });
                        active &= !converged;
                    }
                }
                if active == 0 {
                    break;
                }
                if active != before {
                    // Retired lanes' deltas are dead weight (every
                    // classification read is `& active`-masked): dropping
                    // them here shrinks the dirty frontier to the cones of
                    // the undecided lanes, instead of dragging the
                    // classified faults' cones to the horizon.
                    delta.retain_lanes(active);
                }
                delta.tick();
            }
            // Lanes still active at the horizon never re-converged: Latent,
            // which `effects` was initialized with.
        }
    }
    effects
}

/// Injects a *simultaneous* multi-bit SEU (all points in the same cycle)
/// and classifies it against `golden` — the fault model of the paper's
/// Section 6.2.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if the points lie in different cycles,
/// no point is given, or the cycle lies beyond the golden trace, or
/// [`MateError::Device`] if the harness cannot build its testbench.
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
    let cycle = first.cycle;
    check_horizon(golden, cycle)?;
    let mut tb = harness.testbench()?;
    for _ in 0..cycle {
        tb.step();
    }
    for point in points {
        tb.sim_mut().flip_ff(point.ff);
    }
    Ok(classify(&mut tb, golden, cycle))
}

/// Injects an upset that *holds* for `hold_cycles` cycles: the flip-flop is
/// forced to the complement of its golden value at the start of every
/// affected cycle (an SEU "that holds more than one cycle", Section 6.2).
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if `hold_cycles` is zero or the affected
/// window leaves the golden trace, or [`MateError::Device`] if the harness
/// cannot build its testbench.
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
    let mut state_equal_at: Option<usize> = None;
    let mut diverged_again = false;
    for cycle in point.cycle..horizon {
        if cycle < point.cycle + hold_cycles {
            // Force the complement of the golden value for this cycle.
            let sim = tb.sim_mut();
            let want = !golden.trace.value(cycle, point.wire);
            if sim.value(point.wire) != want {
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
            return Ok(FaultEffect::OutputFailure {
                after: cycle - point.cycle,
            });
        }
        if cycle > point.cycle {
            if state_ok {
                if state_equal_at.is_none() {
                    state_equal_at = Some(cycle - point.cycle);
                }
            } else if state_equal_at.is_some() && cycle >= point.cycle + hold_cycles {
                diverged_again = true;
                state_equal_at = None;
            } else if cycle < point.cycle + hold_cycles {
                state_equal_at = None;
            }
        }
    }
    Ok(match state_equal_at {
        Some(1) if !diverged_again => FaultEffect::MaskedWithinOneCycle,
        Some(after) => FaultEffect::SilentRecovery { after },
        None => FaultEffect::Latent,
    })
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
    /// Which batched engine classifies the campaign.  Results are
    /// bit-identical for every choice.
    pub engine: CampaignEngine,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            cycles: 64,
            sample: None,
            seed: 0,
            threads: 0,
            engine: CampaignEngine::default(),
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
/// engine selected by [`CampaignConfig::engine`]: identical records to
/// [`run_campaign`], at up to 64 fault scenarios per simulation via
/// [`classify_points`], sharded over [`CampaignConfig::threads`]
/// worker threads (threads × 64 concurrent fault scenarios).
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
        classify_points(harness, &golden, &points, config.engine)?
    } else {
        let chunk = points.len().div_ceil(threads);
        let mut shards: Vec<Result<Vec<FaultEffect>, MateError>> =
            points.chunks(chunk).map(|_| Ok(Vec::new())).collect();
        let golden = &golden;
        let engine = config.engine;
        std::thread::scope(|scope| {
            for (pts, out) in points.chunks(chunk).zip(shards.iter_mut()) {
                scope.spawn(move || {
                    *out = classify_points(harness, golden, pts, engine);
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
            engine: CampaignEngine::default(),
        };
        let single = run_campaign_wide(&harness, &space, &base).unwrap();
        for threads in [0usize, 2, 4, 7, 1000] {
            let sharded =
                run_campaign_wide(&harness, &space, &CampaignConfig { threads, ..base }).unwrap();
            assert_eq!(single.records, sharded.records, "{threads} threads");
        }
    }

    /// Classifies the exhaustive fault space of `harness` over `cycles`
    /// with both batched engines, asserts each equals one scalar `inject`
    /// per point, and returns the scalar effects.
    fn assert_engines_match_inject(harness: &StimulusHarness, cycles: usize) -> Vec<FaultEffect> {
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let golden = golden_run(harness, cycles + 1).unwrap();
        let points: Vec<FaultPoint> = space.iter().collect();
        let scalar: Vec<FaultEffect> = points
            .iter()
            .map(|&p| inject(harness, &golden, p).unwrap())
            .collect();
        for engine in CampaignEngine::all() {
            let batched = classify_points(harness, &golden, &points, engine).unwrap();
            assert_eq!(scalar, batched, "{engine} engine");
        }
        scalar
    }

    #[test]
    fn engines_match_scalar_reference() {
        // Both batched engines classify bit-identically to the scalar
        // `inject` path, including partially filled tail chunks.
        let (n, topo) = counter(5);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true, true, false]);
        assert_engines_match_inject(&harness, 20);

        // The paper's figure-1b circuit, whose verdicts are mixed.
        let (n, topo) = figure1b();
        let input = n.find_net("in").unwrap();
        let cycles = 24;
        let harness = StimulusHarness::new(n, topo)
            .drive(input, (0..=cycles).map(|c| c % 3 == 1).collect::<Vec<_>>());
        let scalar = assert_engines_match_inject(&harness, cycles);
        let classes: std::collections::HashSet<_> =
            scalar.iter().map(std::mem::discriminant).collect();
        assert!(classes.len() >= 2, "degenerate workload");
    }

    #[test]
    fn injection_at_horizon_is_rejected() {
        let (n, topo) = counter(3);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
        let golden = golden_run(&harness, 5).unwrap();
        let ff = harness.topology().seq_cells()[0];
        let wire = harness.netlist().cell(ff).output();
        let inside = FaultPoint { ff, wire, cycle: 4 };
        let at_horizon = FaultPoint { ff, wire, cycle: 5 };
        assert!(inject(&harness, &golden, inside).is_ok());
        assert!(matches!(
            inject(&harness, &golden, at_horizon),
            Err(MateError::Campaign(_))
        ));
        for engine in CampaignEngine::all() {
            assert!(
                matches!(
                    classify_points(&harness, &golden, &[inside, at_horizon], engine),
                    Err(MateError::Campaign(_))
                ),
                "{engine} engine"
            );
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
            engine: CampaignEngine::FullSettle,
            ..CampaignConfig::default()
        };
        let reference = run_campaign_wide(&harness, &space, &base).unwrap();
        for engine in CampaignEngine::all() {
            for threads in [1usize, 3] {
                let run = run_campaign_wide(
                    &harness,
                    &space,
                    &CampaignConfig {
                        threads,
                        engine,
                        ..base
                    },
                )
                .unwrap();
                assert_eq!(
                    reference.records, run.records,
                    "{engine} engine, {threads} threads"
                );
            }
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
    fn engine_display_and_default() {
        assert_eq!(CampaignEngine::default(), CampaignEngine::Auto);
        assert_eq!(format!("{}", CampaignEngine::FullSettle), "full-settle");
        assert_eq!(format!("{}", CampaignEngine::Differential), "differential");
        assert_eq!(format!("{}", CampaignEngine::Auto), "auto");
        // `all()` lists only the concrete engines, reference first: Auto
        // always resolves to one of them.
        assert_eq!(CampaignEngine::all()[0], CampaignEngine::FullSettle);
        assert!(!CampaignEngine::all().contains(&CampaignEngine::Auto));
    }

    #[test]
    fn auto_engine_resolves_by_comb_cell_count() {
        // counter(3) is tiny: Auto picks the full-settle reference.
        let (n, topo) = counter(3);
        assert!(topo.comb_order().len() < 128);
        assert_eq!(
            CampaignEngine::Auto.resolve(&topo),
            CampaignEngine::FullSettle
        );
        // Concrete engines pass through untouched.
        assert_eq!(
            CampaignEngine::Differential.resolve(&topo),
            CampaignEngine::Differential
        );
        assert_eq!(
            CampaignEngine::FullSettle.resolve(&topo),
            CampaignEngine::FullSettle
        );
        // A large random netlist crosses the threshold: Auto goes
        // differential.
        use mate_netlist::random::{random_circuit, RandomCircuitConfig};
        let (_, big) = random_circuit(
            RandomCircuitConfig {
                inputs: 8,
                ffs: 64,
                gates: 300,
                outputs: 8,
            },
            1,
        );
        assert!(big.comb_order().len() >= 128);
        assert_eq!(
            CampaignEngine::Auto.resolve(&big),
            CampaignEngine::Differential
        );
        let _ = n;
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
