//! Fault-space collapsing: temporal equivalence classes over golden-trace
//! cone-support fingerprints, probed one representative at a time.
//!
//! The paper's core argument is that most `(flip-flop, cycle)` fault points
//! are provably benign and should never be injected.  PRs 1–7 made each
//! injection fast; this layer makes most injections *unnecessary*:
//!
//! 1. **Support extraction** — for a set `S` of flipped flip-flops, the
//!    fault cone is everything combinationally reachable from their Q nets
//!    ([`SoaNetlist::cone_support`]).  Out-of-cone nets carry zero delta, so
//!    the one-cycle evolution of the injected delta — which outputs diverge,
//!    and which flip-flop D inputs latch a wrong bit — is a pure function of
//!    the golden values of the **support**: the Q nets of `S` plus the
//!    cone's border nets.  (Induction over the levelized schedule: every
//!    cone row reads either support nets or earlier cone nets whose value
//!    is itself a function of the support.)
//! 2. **Fingerprinting** — the golden support values in a cycle are packed
//!    into an exact bit key straight out of the [`TransposedTrace`] bit
//!    planes ([`TransposedTrace::support_key`]).  Two points with the same
//!    flip set and equal keys evolve *identically* for one cycle, so they
//!    form one temporal equivalence class.  The key is the exact bit
//!    vector, never a hash: a collision would silently misclassify a whole
//!    class, and the collapsed path must stay bit-identical to the
//!    unpruned reference.
//! 3. **Representative probing** — one [`DeltaSimulator`] settle per class
//!    (lane-batched, up to 64 classes per settle) decides the whole
//!    class: an output delta is an immediate `OutputFailure`; an empty
//!    next-state delta kills the class (the dominant case — the paper
//!    reports most benign faults mask within one cycle); a surviving delta
//!    yields the exact set `S'` of flip-flops latching a wrong bit, and the
//!    class continues as `(S', cycle + 1)` — the same machinery, one cycle
//!    later.  Verdicts are memoized on `(flip set, support key)`, so
//!    recurring golden contexts are never probed twice, across cycles and
//!    across recursion depths.
//! 4. **Fallback** — classes still alive after [`COLLAPSE_WINDOW`] probe
//!    cycles (long recoveries, latent corruptions), and sets whose cone
//!    support exceeds [`MAX_SUPPORT_NETS`] (contexts too wide to ever
//!    repeat), fall back to full per-point simulation on the configured
//!    engine.  `Latent` itself is
//!    *never* concluded class-wide: it depends on the remaining horizon
//!    length, which differs per member, so only per-member reasoning (or
//!    the fallback) may produce it.
//!
//! Soundness of the per-cycle verdicts (mirroring the scalar classifier's
//! priority): outputs are checked in the probe cycle `c` itself; state is
//! judged at `c + 1`.  A dead delta at `c + 1` is a settle fixed point
//! (inputs are golden by construction, zero stays zero), so the state
//! converges at `c + 1` and every later output matches golden — offset
//! `c + 1 - t0` is final, `MaskedWithinOneCycle` iff it is 1.  When
//! `c + 1` reaches the horizon the scalar loop never observes the
//! convergence, so the member is `Latent` regardless of the probe verdict.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use mate_netlist::{ConeSupport, SoaNetlist, WORD_LANES};
use mate_sim::{DeltaSimulator, TransposedTrace};

use crate::campaign::{observed_flags, CampaignEngine, FaultEffect, GoldenRun, OBS_NEXT};
use crate::harness::DesignHarness;
use crate::space::FaultPoint;

/// Whether the campaign collapses the fault space before simulating.
///
/// Both modes produce bit-identical [`FaultEffect`] classifications for
/// every engine and thread count (enforced by the campaign
/// proptests and the CI equivalence gate); collapsing only removes
/// redundant work.  Only wide-capable harnesses (no external devices) can
/// collapse — checkpointed and scalar paths ignore the setting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CampaignPruning {
    /// Simulate every fault point individually — the asserted-identical
    /// reference path.
    Off,
    /// Collapse temporally equivalent points and probe one representative
    /// per class (the default).
    #[default]
    Collapse,
}

impl CampaignPruning {
    /// Both modes, reference first (for equivalence sweeps).
    pub fn all() -> [Self; 2] {
        [Self::Off, Self::Collapse]
    }
}

impl fmt::Display for CampaignPruning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Off => write!(f, "off"),
            Self::Collapse => write!(f, "collapse"),
        }
    }
}

/// Work accounting of the collapsing layer.  Purely diagnostic: the
/// classifications are bit-identical whatever these counters say, so the
/// stats are excluded from pipeline artifact fingerprints (like `threads`
/// and `engine`).  Under thread sharding each worker collapses its own
/// contiguous point range, so the counters depend on the thread count even
/// though the records do not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruningStats {
    /// Fault points (or multi-SEU sets) fed to the classifier.
    pub points: usize,
    /// Temporal equivalence classes among them (same flip set, same
    /// support fingerprint).
    pub classes: usize,
    /// One-cycle representative probes executed, over all recursion
    /// depths.
    pub probes: usize,
    /// Points classified entirely by the collapsing layer — never
    /// individually simulated.
    pub skipped: usize,
    /// Points that fell back to full per-point simulation.
    pub fallback: usize,
    /// Worklist items resolved from the probe memo without a new probe.
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

    /// Merges a worker shard's counters into this one.
    pub fn absorb(&mut self, other: &Self) {
        self.points += other.points;
        self.classes += other.classes;
        self.probes += other.probes;
        self.skipped += other.skipped;
        self.fallback += other.fallback;
        self.memo_hits += other.memo_hits;
    }
}

impl fmt::Display for PruningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points, {} classes, {} probes, {:.1}% skipped, {} fallback, {} memo hits",
            self.points,
            self.classes,
            self.probes,
            100.0 * self.skip_rate(),
            self.fallback,
            self.memo_hits
        )
    }
}

/// Probe recursion depth bound: classes still alive after this many
/// one-cycle probes fall back to full per-point simulation.  Bounds the
/// collapsing overhead on latent-heavy workloads, where the worklist would
/// otherwise chase every class to the horizon one probe at a time.
pub(crate) const COLLAPSE_WINDOW: usize = 4;

/// Cone-support size cap: sets whose support exceeds this many nets are
/// routed straight to the per-point fallback without fingerprinting.  With
/// `2^support` possible golden contexts, a large support almost never
/// repeats within a trace, so fingerprinting it costs transposed-trace
/// gathers and hashing with no collapsing in return — the cap keeps the
/// layer near-free on unstructured netlists while leaving the protected
/// register files it targets (per-slice supports of a handful of nets)
/// fully collapsed.  At this bound a fingerprint is exactly one `u64`.
pub(crate) const MAX_SUPPORT_NETS: usize = 64;

/// One undecided fault point mid-collapse: the original point index and
/// injection cycle, the interned flip set currently carrying its delta,
/// and the cycle that set was latched into.
#[derive(Clone, Copy)]
struct Item {
    point: u32,
    t0: u32,
    set: u32,
    cycle: u32,
}

/// A memoized one-cycle probe verdict for `(flip set, support key)`.
/// Deliberately cycle-free: the delta evolution depends only on the set
/// and the golden support values, so one verdict serves every cycle (and
/// every recursion depth) presenting the same context.
#[derive(Clone, Copy)]
enum Verdict {
    /// A primary output diverges in the probe cycle.
    OutputNow,
    /// The delta reaches no flip-flop D input: the state re-converges one
    /// cycle after the probe cycle.
    DiesNext,
    /// The delta latches into exactly this interned flip set.
    Survives(u32),
}

/// Interned flip sets with lazily computed cone supports.
#[derive(Default)]
struct SetIntern {
    ids: HashMap<Vec<u32>, u32>,
    sets: Vec<Vec<u32>>,
    supports: Vec<Option<ConeSupport>>,
}

impl SetIntern {
    /// Interns a sorted, deduplicated flip-index set.
    fn intern(&mut self, ffs: Vec<u32>) -> u32 {
        debug_assert!(ffs.windows(2).all(|w| w[0] < w[1]), "sets must be sorted");
        if let Some(&id) = self.ids.get(&ffs) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.ids.insert(ffs.clone(), id);
        self.sets.push(ffs);
        self.supports.push(None);
        id
    }

    /// The cone support of a set, computed on first use.
    fn support(&mut self, id: u32, soa: &SoaNetlist) -> &ConeSupport {
        let i = id as usize;
        if self.supports[i].is_none() {
            let origins: Vec<u32> = self.sets[i]
                .iter()
                .map(|&ff| soa.ff_q()[ff as usize])
                .collect();
            self.supports[i] = Some(soa.cone_support(&origins));
        }
        self.supports[i].as_ref().expect("just computed")
    }
}

/// A temporal equivalence class: an interned flip set plus the packed
/// golden fingerprint of its support.  The support-size cap guarantees
/// every fingerprint fits one word, so class and memo keys are plain
/// `(set, u64)` — no per-item allocation.
type ClassKey = (u32, u64);

/// The collapsing core, generic over the initial flip sets: classifies
/// every `(flip set, cycle)` item by class-wide representative probing,
/// handing whatever the window could not decide to `fallback` (called once
/// with the sorted indices of the undecided items, returning their effects
/// in that order).
///
/// Single-SEU points are singleton sets; simultaneous multi-SEU sets ride
/// the same machinery unchanged — the probe flips the whole set into one
/// lane and [`SoaNetlist::cone_support`] unions the cones.
fn collapse_classify(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    initial: Vec<(Vec<u32>, usize)>,
    fallback: impl FnOnce(&[u32]) -> Vec<FaultEffect>,
) -> (Vec<FaultEffect>, PruningStats) {
    let netlist = harness.netlist();
    let topo = harness.topology();
    let soa = SoaNetlist::build(netlist, topo);
    let transposed = TransposedTrace::from_trace(&golden.trace);
    let horizon = golden.trace.num_cycles();
    let seq = topo.seq_cells();

    // Observation flags for the probe scan: primary outputs and flip-flop
    // D inputs (the next-state frontier).
    let mut flags = observed_flags(netlist.num_nets(), golden);
    for &d in soa.ff_d() {
        flags[d as usize] |= OBS_NEXT;
    }

    let mut delta = DeltaSimulator::with_arena(netlist, &soa);
    let mut intern = SetIntern::default();
    let mut memo: HashMap<ClassKey, Verdict> = HashMap::new();

    let mut stats = PruningStats {
        points: initial.len(),
        ..PruningStats::default()
    };
    let mut effects = vec![FaultEffect::Latent; initial.len()];
    let mut items: Vec<Item> = initial
        .into_iter()
        .enumerate()
        .map(|(i, (ffs, cycle))| Item {
            point: i as u32,
            t0: cycle as u32,
            set: intern.intern(ffs),
            cycle: cycle as u32,
        })
        .collect();
    let mut fallback_points: Vec<u32> = Vec::new();
    let mut key_buf: Vec<u64> = Vec::new();

    for depth in 0..=COLLAPSE_WINDOW {
        if items.is_empty() {
            break;
        }
        if depth == COLLAPSE_WINDOW {
            fallback_points.extend(items.iter().map(|it| it.point));
            items.clear();
            break;
        }
        // Group this round's items by (flip set, support fingerprint);
        // memoized contexts resolve without joining any group.
        let mut next_items: Vec<Item> = Vec::new();
        let mut groups: HashMap<ClassKey, Vec<Item>> = HashMap::new();
        for item in items.drain(..) {
            let support = intern.support(item.set, &soa);
            if support.support.len() > MAX_SUPPORT_NETS {
                // A context this wide will not repeat; skip the
                // fingerprinting tax and simulate the point in full.
                fallback_points.push(item.point);
                continue;
            }
            transposed.support_key(&support.support, item.cycle as usize, &mut key_buf);
            let key = (item.set, key_buf.first().copied().unwrap_or(0));
            if let Some(&verdict) = memo.get(&key) {
                stats.memo_hits += 1;
                apply_verdict(verdict, item, horizon, &mut effects, &mut next_items);
            } else {
                groups.entry(key).or_default().push(item);
            }
        }
        if depth == 0 {
            stats.classes = groups.len();
        }
        // Probe one representative per group, lane-batching groups that
        // share their representative's cycle.  The verdict is a pure
        // function of (set, support values), so any member works as the
        // representative; we take the first.
        let mut by_cycle: BTreeMap<u32, Vec<(ClassKey, Vec<Item>)>> = BTreeMap::new();
        for (key, members) in groups {
            by_cycle
                .entry(members[0].cycle)
                .or_default()
                .push((key, members));
        }
        for (cycle, batch) in by_cycle {
            for chunk in batch.chunks(WORD_LANES) {
                delta.begin(cycle as usize);
                for (lane, (key, _)) in chunk.iter().enumerate() {
                    for &ff in &intern.sets[key.0 as usize] {
                        delta.flip_ff(seq[ff as usize], lane);
                    }
                }
                delta.settle(&transposed);
                stats.probes += chunk.len();
                let [out_diff, _, next_diff] = delta.scan_flagged(&flags);
                let in_lane = |word: u64, lane: usize| word >> lane & 1 != 0;
                // Pass 1 (interner borrowed shared): raw per-lane verdicts.
                let raw: Vec<Option<Vec<u32>>> = chunk
                    .iter()
                    .enumerate()
                    .map(|(lane, (key, _))| {
                        if in_lane(out_diff, lane) || !in_lane(next_diff, lane) {
                            None
                        } else {
                            // The surviving set: endpoints whose D delta is
                            // dirty in this lane.  Endpoints are sorted by
                            // flip index, so the set comes out sorted.
                            Some(
                                intern.supports[key.0 as usize]
                                    .as_ref()
                                    .expect("support computed during grouping")
                                    .endpoints
                                    .iter()
                                    .filter(|&&(_, d)| in_lane(delta.delta_raw(d as usize), lane))
                                    .map(|&(ff, _)| ff)
                                    .collect(),
                            )
                        }
                    })
                    .collect();
                // Pass 2 (interner borrowed unique): intern survivors,
                // memoize, and apply to every member of the class.
                for (lane, ((key, members), survivors)) in chunk.iter().zip(raw).enumerate() {
                    let verdict = match survivors {
                        Some(ffs) => Verdict::Survives(intern.intern(ffs)),
                        None if in_lane(out_diff, lane) => Verdict::OutputNow,
                        None => Verdict::DiesNext,
                    };
                    memo.insert(*key, verdict);
                    for &item in members {
                        apply_verdict(verdict, item, horizon, &mut effects, &mut next_items);
                    }
                }
            }
        }
        items = next_items;
    }

    // Whatever the probe window could not decide is simulated in full, on
    // the original per-point path.
    fallback_points.sort_unstable();
    stats.fallback = fallback_points.len();
    stats.skipped = stats.points - stats.fallback;
    if !fallback_points.is_empty() {
        let fb = fallback(&fallback_points);
        debug_assert_eq!(fb.len(), fallback_points.len());
        for (&p, effect) in fallback_points.iter().zip(fb) {
            effects[p as usize] = effect;
        }
    }
    (effects, stats)
}

/// Applies a class verdict to one member, with the member's own injection
/// cycle and remaining horizon (see the module docs for the soundness
/// argument).
fn apply_verdict(
    verdict: Verdict,
    item: Item,
    horizon: usize,
    effects: &mut [FaultEffect],
    next_items: &mut Vec<Item>,
) {
    match verdict {
        Verdict::OutputNow => {
            effects[item.point as usize] = FaultEffect::OutputFailure {
                after: (item.cycle - item.t0) as usize,
            };
        }
        // Convergence (or survival) at `cycle + 1` is only *observed* while
        // the scalar classifier still runs; at the horizon the member stays
        // Latent either way.
        Verdict::DiesNext | Verdict::Survives(_) if (item.cycle + 1) as usize >= horizon => {
            effects[item.point as usize] = FaultEffect::Latent;
        }
        Verdict::DiesNext => {
            let after = (item.cycle + 1 - item.t0) as usize;
            effects[item.point as usize] = if after == 1 {
                FaultEffect::MaskedWithinOneCycle
            } else {
                FaultEffect::SilentRecovery { after }
            };
        }
        Verdict::Survives(set) => next_items.push(Item {
            set,
            cycle: item.cycle + 1,
            ..item
        }),
    }
}

/// Maps each point's flip-flop to its [`Topology::seq_cells`] index.
///
/// [`Topology::seq_cells`]: mate_netlist::Topology::seq_cells
fn ff_indices(harness: &dyn DesignHarness) -> HashMap<mate_netlist::CellId, u32> {
    harness
        .topology()
        .seq_cells()
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect()
}

/// Single-SEU collapsing entry: classifies `points` with class-wide
/// probing, falling back to the resolved `engine` for undecided points.
/// Bit-identical to [`classify_points_engine`] with pruning off.
///
/// [`classify_points_engine`]: crate::campaign::classify_points_engine
pub(crate) fn classify_points_collapse(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
    engine: CampaignEngine,
) -> (Vec<FaultEffect>, PruningStats) {
    let idx = ff_indices(harness);
    let initial: Vec<(Vec<u32>, usize)> =
        points.iter().map(|p| (vec![idx[&p.ff]], p.cycle)).collect();
    collapse_classify(harness, golden, initial, |undecided| {
        let fb: Vec<FaultPoint> = undecided.iter().map(|&i| points[i as usize]).collect();
        crate::campaign::classify_points_wide(harness, golden, &fb, engine)
    })
}

/// Multi-SEU collapsing entry: each set becomes one worklist item carrying
/// its odd-parity flip set (flipping a flip-flop twice cancels, exactly as
/// the scalar injector's sequential XOR flips do).  Bit-identical to
/// [`classify_multi_points`] with pruning off.
///
/// [`classify_multi_points`]: crate::campaign::classify_multi_points
pub(crate) fn classify_multi_collapse(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    sets: &[Vec<FaultPoint>],
) -> (Vec<FaultEffect>, PruningStats) {
    let idx = ff_indices(harness);
    let initial: Vec<(Vec<u32>, usize)> = sets
        .iter()
        .map(|set| {
            let mut ffs: Vec<u32> = set.iter().map(|p| idx[&p.ff]).collect();
            ffs.sort_unstable();
            // Keep odd-multiplicity flips only: XOR parity.
            let mut parity: Vec<u32> = Vec::with_capacity(ffs.len());
            let mut i = 0;
            while i < ffs.len() {
                let run = ffs[i..].iter().take_while(|&&f| f == ffs[i]).count();
                if run % 2 == 1 {
                    parity.push(ffs[i]);
                }
                i += run;
            }
            (parity, set[0].cycle)
        })
        .collect();
    collapse_classify(harness, golden, initial, |undecided| {
        let fb: Vec<Vec<FaultPoint>> = undecided
            .iter()
            .map(|&i| sets[i as usize].clone())
            .collect();
        crate::campaign::classify_multi_differential(harness, golden, &fb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{classify_points_pruned, golden_run, inject};
    use crate::harness::StimulusHarness;
    use crate::space::FaultSpace;
    use mate_netlist::examples::{figure1b, tmr_register};

    #[test]
    fn pruning_display_default_and_order() {
        assert_eq!(CampaignPruning::default(), CampaignPruning::Collapse);
        assert_eq!(format!("{}", CampaignPruning::Off), "off");
        assert_eq!(format!("{}", CampaignPruning::Collapse), "collapse");
        assert_eq!(CampaignPruning::all()[0], CampaignPruning::Off);
    }

    #[test]
    fn stats_accounting_helpers() {
        let un = PruningStats::unpruned(10);
        assert_eq!(un.points, 10);
        assert_eq!(un.fallback, 10);
        assert_eq!(un.skip_rate(), 0.0);
        let mut total = PruningStats {
            points: 4,
            classes: 2,
            probes: 2,
            skipped: 4,
            fallback: 0,
            memo_hits: 1,
        };
        total.absorb(&un);
        assert_eq!(total.points, 14);
        assert_eq!(total.fallback, 10);
        assert!((total.skip_rate() - 4.0 / 14.0).abs() < 1e-12);
        assert_eq!(PruningStats::default().skip_rate(), 0.0);
        let text = format!("{total}");
        assert!(text.contains("14 points") && text.contains("2 classes"));
    }

    /// On a TMR register under periodic stimuli, whole columns of the fault
    /// space share one golden context: the collapsing layer classifies
    /// everything from a handful of representative probes, simulating no
    /// point individually.
    #[test]
    fn tmr_periodic_campaign_collapses_hard() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let cycles = 32;
        let harness = StimulusHarness::new(n, topo)
            .drive(load, (0..=cycles).map(|c| c % 4 == 0).collect::<Vec<_>>())
            .drive(din, (0..=cycles).map(|c| c % 8 < 4).collect::<Vec<_>>());
        let golden = golden_run(&harness, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points: Vec<FaultPoint> = space.iter().collect();

        let (effects, stats) = classify_points_pruned(
            &harness,
            &golden,
            &points,
            CampaignEngine::Differential,
            CampaignPruning::Collapse,
        )
        .unwrap();
        for (&p, &e) in points.iter().zip(&effects) {
            assert_eq!(e, inject(&harness, &golden, p).unwrap(), "{p:?}");
        }
        // Every TMR replica flip is voted away: probes die immediately, no
        // point reaches the fallback, and the periodic stimuli fold the 96
        // points onto a few golden contexts.
        assert_eq!(stats.points, points.len());
        assert_eq!(stats.fallback, 0);
        assert_eq!(stats.skipped, points.len());
        assert!(
            stats.classes <= points.len() / 4,
            "expected heavy collapsing, got {} classes for {} points",
            stats.classes,
            points.len()
        );
        assert_eq!(stats.probes, stats.classes);
    }

    /// The figure-1b example exercises every verdict arm (output failures,
    /// recoveries, latents near the horizon) and still collapses some
    /// classes while falling back for the rest — all bit-identical to
    /// scalar injection.
    #[test]
    fn figure1b_collapse_is_bit_identical_with_mixed_verdicts() {
        let (n, topo) = figure1b();
        let input = n.find_net("in").unwrap();
        let cycles = 24;
        let harness = StimulusHarness::new(n, topo)
            .drive(input, (0..=cycles).map(|c| c % 3 == 1).collect::<Vec<_>>());
        let golden = golden_run(&harness, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points: Vec<FaultPoint> = space.iter().collect();
        let scalar: Vec<FaultEffect> = points
            .iter()
            .map(|&p| inject(&harness, &golden, p).unwrap())
            .collect();
        for engine in CampaignEngine::all() {
            let (pruned, stats) = classify_points_pruned(
                &harness,
                &golden,
                &points,
                engine,
                CampaignPruning::Collapse,
            )
            .unwrap();
            assert_eq!(scalar, pruned, "{engine}");
            assert_eq!(stats.skipped + stats.fallback, stats.points);
        }
        // The trace exhibits more than one outcome class, so the test
        // really covers mixed verdicts.
        let classes: std::collections::HashSet<_> =
            scalar.iter().map(|e| std::mem::discriminant(e)).collect();
        assert!(classes.len() >= 2, "degenerate workload");
    }
}
