//! One repetition: a cold pass over an empty artifact store, then warm
//! passes over the now-full store.  Each repetition runs in a process of
//! its own, so its peak RSS is its own and no in-process cache carries
//! over; it reports back to the parent as tab-separated lines.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mate_analyze::{CoverageCounts, SolveStats, VerdictCounts};
use mate_hafi::{FaultEffect, PruningStats};
use mate_netlist::MateError;
use mate_pipeline::{ArtifactStore, ContentHasher, Flow, TraceSource};

use crate::metrics::{ident, CALLS, STORE_DIRS};
use crate::stats::median;
use crate::workload::{Workload, THREADS};

/// A timed interval: a repetition, a pass, or one `Flow` call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the repetition (`0` is the workload).
    pub id: usize,
    /// The span this one runs inside.
    pub parent: usize,
    /// `rep`, `pass.cold`, `pass.warm<k>`, or a [`CALLS`] name.
    pub name: String,
    /// Start, in nanoseconds since the Unix epoch.
    pub start_ns: u128,
    /// End, in nanoseconds since the Unix epoch.
    pub end_ns: u128,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Wall-clock time in nanoseconds since the Unix epoch.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Records spans against one monotonic clock.
struct Recorder {
    epoch: Instant,
    epoch_ns: u128,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            epoch_ns: unix_ns(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u128 {
        self.epoch_ns + self.epoch.elapsed().as_nanos()
    }

    fn open(&mut self, name: &str, parent: usize) -> usize {
        let id = self.spans.len() + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
        });
        id
    }

    fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id - 1];
        span.end_ns = now;
        span.secs()
    }

    fn call<T>(
        &mut self,
        name: &str,
        parent: usize,
        f: impl FnOnce() -> Result<T, MateError>,
    ) -> Result<T, MateError> {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// What one pass produced, reduced to the counters the report and the
/// correctness gates need.
#[derive(Clone, Debug, Default)]
struct Pass {
    wall_s: f64,
    prune_ready_s: f64,
    /// Seconds per [`CALLS`] entry.
    call_s: Vec<f64>,
    /// Whether each stage record was served from the store.
    cached: Vec<bool>,
    cells: usize,
    ffs: usize,
    search: mate::SearchStats,
    mates: usize,
    effective: usize,
    eval_points: usize,
    eval_masked: usize,
    selected: usize,
    pruned_points: usize,
    pruned_fraction: f64,
    histogram: BTreeMap<String, usize>,
    faults: usize,
    collapse: PruningStats,
    /// Campaign points the selected MATEs prune, and how many of them the
    /// campaign did not classify as masked within one cycle.
    campaign_pruned: usize,
    violations: usize,
    verdicts: usize,
    counts: VerdictCounts,
    coverage: usize,
    coverage_counts: CoverageCounts,
    solver: SolveStats,
}

impl Pass {
    /// The result digest: identical across passes and repetitions of one
    /// seed, whatever the cache state.
    fn digest(&self) -> String {
        let mut h = ContentHasher::new();
        for n in [
            self.mates,
            self.selected,
            self.eval_masked,
            self.pruned_points,
        ] {
            h.usize(n);
        }
        for (effect, n) in &self.histogram {
            h.str(effect);
            h.usize(*n);
        }
        let c = &self.counts;
        let v = &self.coverage_counts;
        for n in [
            c.proved,
            c.bounded,
            c.refuted,
            v.complete,
            v.gaps,
            v.undecided,
        ] {
            h.usize(n);
        }
        h.finish().hex()
    }

    fn secs(&self, call: &str) -> f64 {
        let idx = CALLS.iter().position(|c| *c == call).expect("known call");
        self.call_s[idx]
    }
}

/// Runs the paper's flow once over `store`.
fn run_pass(
    rec: &mut Recorder,
    parent: usize,
    name: &str,
    workload: &Workload,
    source: &TraceSource,
    seed: u64,
    store: &ArtifactStore,
) -> Result<Pass, MateError> {
    let spec = workload.wire_spec();
    let pass = rec.open(name, parent);
    let first_call = rec.spans.len();
    let mut flow = rec.call(CALLS[0], pass, || {
        Flow::new(store.clone(), workload.design_source())
    })?;
    rec.call(CALLS[1], pass, || flow.gmt_library())?;
    let search = rec.call(CALLS[2], pass, || {
        flow.search(spec.clone(), workload.search_config())
    })?;
    let trace = rec.call(CALLS[3], pass, || {
        flow.capture(source.clone(), workload.trace_cycles)
    })?;
    let mates = (&search.value.mates, search.key);
    let full = rec.call(CALLS[4], pass, || {
        flow.evaluate(spec.clone(), mates, trace.part())
    })?;
    let selected = rec.call(CALLS[5], pass, || {
        flow.select(spec.clone(), workload.top_n, mates, trace.part())
    })?;
    let pruned = rec.call(CALLS[6], pass, || {
        flow.evaluate(spec.clone(), selected.part(), trace.part())
    })?;
    let prune_ready_ns = rec.now_ns();
    let campaign = rec.call(CALLS[7], pass, || {
        flow.campaign(
            source.clone(),
            workload.campaign_config(seed),
            Some(spec.clone()),
        )
    })?;
    let analysis = rec.call(CALLS[8], pass, || {
        flow.analyze(selected.part(), Workload::verify_config())
    })?;
    let wall_s = rec.close(pass);
    let start_ns = rec.spans[pass - 1].start_ns;

    let matrix = &pruned.value.matrix;
    let mut campaign_pruned = 0;
    let mut violations = 0;
    for (point, effect) in &campaign.value.records {
        let prunes = matrix.wire_position(point.wire).is_some()
            && point.cycle < matrix.cycles()
            && matrix.is_masked(point.wire, point.cycle);
        if prunes {
            campaign_pruned += 1;
            violations += usize::from(*effect != FaultEffect::MaskedWithinOneCycle);
        }
    }
    let report = &analysis.value;
    let design = flow.design();
    Ok(Pass {
        wall_s,
        prune_ready_s: prune_ready_ns.saturating_sub(start_ns) as f64 * 1e-9,
        call_s: rec.spans[first_call..].iter().map(Span::secs).collect(),
        cached: flow.summary().records.iter().map(|r| r.cached).collect(),
        cells: design.netlist.cells().len(),
        ffs: design.topology.seq_cells().len(),
        search: search.value.stats.clone(),
        mates: search.value.mates.len(),
        effective: full.value.effective,
        eval_points: full.value.matrix.total_points(),
        eval_masked: full.value.matrix.masked_points(),
        selected: selected.value.len(),
        pruned_points: matrix.masked_points(),
        pruned_fraction: matrix.masked_fraction(),
        histogram: campaign.value.histogram(),
        faults: campaign.value.records.len(),
        collapse: campaign.value.pruning,
        campaign_pruned,
        violations,
        verdicts: report.verdicts.len(),
        counts: report.counts(),
        coverage: report.coverage.len(),
        coverage_counts: report.coverage_counts(),
        solver: report.solver_totals(),
    })
}

/// What a repetition reports to the parent process.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepOutcome {
    /// Every end-to-end and per-layer metric, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Correctness checks made.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// The cold pass's result digest.
    pub digest: String,
    /// Spans of the repetition, its passes and their `Flow` calls.
    pub spans: Vec<Span>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, MateError> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| MateError::io("/proc/self/status", e))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| MateError::artifact("e2e", "no VmHWM in /proc/self/status"))
}

/// Bytes under each store directory.
fn artifact_bytes(root: &Path) -> Vec<(String, u64)> {
    STORE_DIRS
        .iter()
        .map(|dir| {
            let bytes = std::fs::read_dir(root.join(dir))
                .map(|entries| {
                    entries
                        .filter_map(|e| e.ok()?.metadata().ok())
                        .map(|m| m.len())
                        .sum()
                })
                .unwrap_or(0);
            (ident(dir), bytes)
        })
        .collect()
}

/// Warm passes per repetition.
pub const WARM_PASSES: usize = 5;

/// Runs one repetition of `workload` over a fresh store at `store_root`:
/// one cold pass, then [`WARM_PASSES`] warm ones.
///
/// # Errors
///
/// Fails when the store is not empty or any `Flow` call fails.
pub fn run_rep(workload: &Workload, seed: u64, store_root: &Path) -> Result<RepOutcome, MateError> {
    let not_empty = std::fs::read_dir(store_root).is_ok_and(|mut d| d.next().is_some());
    if not_empty {
        return Err(MateError::artifact(
            "e2e",
            format!("store {} is not empty", store_root.display()),
        ));
    }
    let source = workload.trace_source(seed);
    let store = ArtifactStore::new(store_root);
    let mut rec = Recorder::new();
    let rep = rec.open("rep", 0);
    let cold = run_pass(&mut rec, rep, "pass.cold", workload, &source, seed, &store)?;
    let warm = (1..=WARM_PASSES)
        .map(|k| {
            let name = format!("pass.warm{k}");
            run_pass(&mut rec, rep, &name, workload, &source, seed, &store)
        })
        .collect::<Result<Vec<_>, _>>()?;
    rec.close(rep);

    let digest = cold.digest();
    let warm_lookups = warm.iter().map(|p| p.cached.len()).sum::<usize>();
    let warm_hits: usize = warm
        .iter()
        .map(|p| p.cached.iter().filter(|&&c| c).count())
        .sum();
    let digest_mismatches = warm.iter().filter(|p| p.digest() != digest).count();
    let attempted = cold.verdicts + cold.campaign_pruned + warm_lookups + warm.len();
    let failed = (cold.verdicts - cold.counts.proved)
        + cold.violations
        + (warm_lookups - warm_hits)
        + digest_mismatches;

    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };
    // End-to-end.
    let mut warm_walls: Vec<f64> = warm.iter().map(|p| p.wall_s).collect();
    let setup_s = cold.secs("load-design") + cold.secs("gmt-library") + cold.secs("trace-capture");
    put("flow_cold_s", cold.wall_s);
    put("flow_warm_s", median(&mut warm_walls));
    put("setup_s", setup_s);
    put("prune_ready_s", cold.prune_ready_s);
    put(
        "campaign_faults_per_s",
        ratio(cold.faults as f64, cold.secs("campaign")),
    );
    put(
        "proofs_per_s",
        ratio((cold.verdicts + cold.coverage) as f64, cold.secs("analyze")),
    );
    put("pruned_fraction", cold.pruned_fraction);
    put("peak_rss_mb", peak_rss_mb()?);

    // Per layer, from the cold pass.
    let s = &cold.search;
    put("netlist.load_s", cold.secs("load-design"));
    put("netlist.cells", cold.cells as f64);
    put("netlist.ffs", cold.ffs as f64);
    put("sim.trace_s", cold.secs("trace-capture"));
    put(
        "sim.trace_cycles_per_s",
        ratio(workload.trace_cycles as f64, cold.secs("trace-capture")),
    );
    put("core.gmt_s", cold.secs("gmt-library"));
    put("core.search_s", cold.secs("mate-search"));
    put("core.search_wires", s.faulty_wires as f64);
    put("core.search_candidates", s.candidates as f64);
    put(
        "core.search_candidates_per_s",
        ratio(s.candidates as f64, cold.secs("mate-search")),
    );
    put("core.search_mates", cold.mates as f64);
    put("core.search_unmaskable", s.unmaskable as f64);
    put("core.search_max_wire_s", s.max_wire_time.as_secs_f64());
    put(
        "core.search_parallel_efficiency",
        ratio(
            s.total_wire_time.as_secs_f64(),
            THREADS as f64 * s.run_time.as_secs_f64(),
        ),
    );
    put("core.evaluate_s", cold.secs("evaluate"));
    put(
        "core.evaluate_points_per_s",
        ratio(cold.eval_points as f64, cold.secs("evaluate")),
    );
    put("core.evaluate_effective_mates", cold.effective as f64);
    put("core.select_s", cold.secs("select"));
    put("core.select_mates", cold.selected as f64);
    put("core.evaluate_selected_s", cold.secs("evaluate-selected"));

    let effect = |key: &str| cold.histogram.get(key).copied().unwrap_or(0) as f64;
    put("hafi.campaign_s", cold.secs("campaign"));
    put("hafi.campaign_faults", cold.faults as f64);
    put("hafi.campaign_masked", effect("masked-1-cycle"));
    put("hafi.campaign_recovery", effect("silent-recovery"));
    put("hafi.campaign_latent", effect("latent"));
    put("hafi.campaign_failure", effect("output-failure"));
    put("hafi.campaign_pruned_points", cold.campaign_pruned as f64);
    let c = &cold.collapse;
    put("hafi.collapse_skip_rate", c.skip_rate());
    put("hafi.collapse_classes", c.classes as f64);
    put("hafi.collapse_probes", c.probes as f64);
    put("hafi.collapse_fallback", c.fallback as f64);
    put("hafi.collapse_memo_hits", c.memo_hits as f64);

    let v = &cold.counts;
    let sat = &cold.solver;
    put("analyze.s", cold.secs("analyze"));
    put("analyze.verdicts", cold.verdicts as f64);
    put("analyze.proved", v.proved as f64);
    put(
        "analyze.coverage_complete",
        cold.coverage_counts.complete as f64,
    );
    put("analyze.coverage_gaps", cold.coverage_counts.gaps as f64);
    put("analyze.sat_conflicts", sat.conflicts as f64);
    put("analyze.sat_decisions", sat.decisions as f64);
    put("analyze.sat_propagations", sat.propagations as f64);
    put("analyze.sat_learned", sat.learned as f64);
    put("analyze.sat_restarts", sat.restarts as f64);

    let sizes = artifact_bytes(store_root);
    put(
        "pipeline.artifact_bytes",
        sizes.iter().map(|(_, b)| *b).sum::<u64>() as f64,
    );
    for (dir, bytes) in &sizes {
        put(&format!("pipeline.artifact_bytes.{dir}"), *bytes as f64);
    }
    for (idx, call) in CALLS.iter().enumerate() {
        let mut times: Vec<f64> = warm.iter().map(|p| p.call_s[idx]).collect();
        put(
            &format!("pipeline.warm.{}_s", ident(call)),
            median(&mut times),
        );
    }
    put("pipeline.warm_hits", warm_hits as f64);
    put(
        "pipeline.unattributed_s",
        (cold.wall_s - cold.call_s.iter().sum::<f64>()).max(0.0),
    );
    put("pipeline.traced_flow_cold_s", cold.wall_s);

    Ok(RepOutcome {
        metrics: m,
        attempted: attempted as u64,
        failed: failed as u64,
        digest,
        spans: rec.spans,
    })
}

impl RepOutcome {
    /// Serializes the outcome as tab-separated lines (spans only when
    /// `spans` is set).
    pub fn render(&self, spans: bool) -> String {
        let mut out = format!(
            "check\t{}\t{}\ndigest\t{}\n",
            self.attempted, self.failed, self.digest
        );
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric\t{name}\t{value}\n"));
        }
        if spans {
            for s in &self.spans {
                out.push_str(&format!(
                    "span\t{}\t{}\t{}\t{}\t{}\n",
                    s.id, s.parent, s.name, s.start_ns, s.end_ns
                ));
            }
        }
        out
    }

    /// Inverse of [`RepOutcome::render`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(field: Option<&str>, line: &str) -> Result<T, String> {
            field
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("malformed line `{line}`"))
        }
        let mut out = Self::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let mut f = line.split('\t');
            match f.next() {
                Some("check") => {
                    out.attempted = num(f.next(), line)?;
                    out.failed = num(f.next(), line)?;
                }
                Some("digest") => out.digest = num(f.next(), line)?,
                Some("metric") => {
                    let name: String = num(f.next(), line)?;
                    out.metrics.insert(name, num(f.next(), line)?);
                }
                Some("span") => out.spans.push(Span {
                    id: num(f.next(), line)?,
                    parent: num(f.next(), line)?,
                    name: num(f.next(), line)?,
                    start_ns: num(f.next(), line)?,
                    end_ns: num(f.next(), line)?,
                }),
                _ => return Err(format!("unknown line `{line}`")),
            }
        }
        if out.digest.is_empty() {
            return Err("no digest line".to_owned());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_lines() {
        let mut metrics = BTreeMap::new();
        metrics.insert("flow_cold_s".to_owned(), 1.234_567_890_123);
        metrics.insert("netlist.ffs".to_owned(), 17.0);
        let outcome = RepOutcome {
            metrics,
            attempted: 40,
            failed: 1,
            digest: "00ff".to_owned(),
            spans: vec![Span {
                id: 1,
                parent: 0,
                name: "rep".to_owned(),
                start_ns: 10,
                end_ns: 25,
            }],
        };
        assert_eq!(
            RepOutcome::parse(&outcome.render(true)),
            Ok(outcome.clone())
        );
        let untraced = RepOutcome::parse(&outcome.render(false)).unwrap();
        assert!(untraced.spans.is_empty());
        assert!(RepOutcome::parse("bogus\t1").is_err());
    }
}
