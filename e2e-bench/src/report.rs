//! Aggregation of repetitions into per-workload results, and the three
//! renderings: the human table, the JSON report and the one-line result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mate_netlist::json::escape_json as quote;

use crate::metrics::{per_layer, END_TO_END};
use crate::rep::RepOutcome;
use crate::stats::Summary;
use crate::workload::{Workload, THREADS};

/// Every repetition of one workload.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Untraced repetitions: the end-to-end metrics come from these.
    pub untraced: Vec<Result<RepOutcome, String>>,
    /// Traced repetitions: the per-layer metrics come from these.
    pub traced: Vec<Result<RepOutcome, String>>,
    /// Start and end of the whole workload, in ns since the Unix epoch.
    pub span_ns: (u128, u128),
}

/// One workload's aggregate.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload name.
    pub name: &'static str,
    /// End-to-end metrics over the untraced repetitions.
    pub end_to_end: Vec<(String, &'static str, Summary)>,
    /// Per-layer metrics over the traced repetitions.
    pub per_layer: Vec<(String, &'static str, Summary)>,
    /// Correctness checks made, including the cross-repetition digest
    /// comparison; a repetition that failed counts one failed check.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// Result digests seen, with how many repetitions produced each.
    pub digests: BTreeMap<String, usize>,
    /// Traced minus untraced median cold-pass time, when both ran.
    pub tracing_overhead_s: Option<f64>,
}

impl WorkloadResult {
    /// `true` when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn summarize<'a>(
    reps: impl Iterator<Item = &'a RepOutcome> + Clone,
    names: impl Iterator<Item = (String, &'static str)>,
) -> Vec<(String, &'static str, Summary)> {
    if reps.clone().next().is_none() {
        return Vec::new();
    }
    names
        .map(|(name, unit)| {
            let values: Vec<f64> = reps
                .clone()
                .filter_map(|r| r.metrics.get(&name).copied())
                .collect();
            let summary = Summary::of(&values);
            (name, unit, summary)
        })
        .collect()
}

impl WorkloadRun {
    /// Aggregates the repetitions and checks the cross-repetition gates.
    pub fn result(&self) -> WorkloadResult {
        let all = || self.untraced.iter().chain(&self.traced);
        let ok = || all().filter_map(|r| r.as_ref().ok());
        let failed_reps = all().filter(|r| r.is_err()).count() as u64;
        let mut digests = BTreeMap::new();
        for rep in ok() {
            *digests.entry(rep.digest.clone()).or_insert(0) += 1;
        }
        let compared = ok().count().saturating_sub(1) as u64;
        let mismatched = ok()
            .count()
            .saturating_sub(digests.values().max().copied().unwrap_or(0));
        let end_to_end = summarize(
            self.untraced.iter().filter_map(|r| r.as_ref().ok()),
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)),
        );
        let per_layer = summarize(
            self.traced.iter().filter_map(|r| r.as_ref().ok()),
            per_layer().into_iter(),
        );
        let cold = |set: &[(String, &'static str, Summary)], name: &str| {
            set.iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, s)| s.median)
        };
        let tracing_overhead_s = cold(&per_layer, "pipeline.traced_flow_cold_s")
            .zip(cold(&end_to_end, "flow_cold_s"))
            .map(|(traced, untraced)| traced - untraced);
        WorkloadResult {
            name: self.workload.name,
            end_to_end,
            per_layer,
            attempted: ok().map(|r| r.attempted).sum::<u64>() + compared + failed_reps,
            failed: ok().map(|r| r.failed).sum::<u64>() + mismatched as u64 + failed_reps,
            digests,
            tracing_overhead_s,
        }
    }
}

/// A finite number as JSON (`null` otherwise).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The human-readable table of one workload.
pub fn render_table(run: &WorkloadRun, result: &WorkloadResult) -> String {
    let mut out = format!(
        "{}: {} untraced + {} traced reps, seed {}, threads {THREADS}\n",
        result.name,
        run.untraced.len(),
        run.traced.len(),
        run.seed
    );
    for rep in run.untraced.iter().chain(&run.traced) {
        if let Err(e) = rep {
            let _ = writeln!(out, "  FAILED rep: {e}");
        }
    }
    let _ = writeln!(
        out,
        "  {:<40} {:>14} {:>14} {:>14} {:>3}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for (name, unit, s) in result.end_to_end.iter().chain(&result.per_layer) {
        let _ = writeln!(
            out,
            "  {name:<40} {:>14.6} {:>14.6} {:>14.6} {:>3}  {unit}",
            s.median, s.q1, s.q3, s.n
        );
    }
    let digests: Vec<&str> = result.digests.keys().map(String::as_str).collect();
    let _ = writeln!(
        out,
        "  checks: {} attempted, {} failed (op_failure_rate {}); digest {}",
        result.attempted,
        result.failed,
        num(failure_rate(result.attempted, result.failed)),
        digests.join(" / ")
    );
    if let Some(overhead) = result.tracing_overhead_s {
        let _ = writeln!(out, "  tracing overhead: {overhead:+.4} s on flow_cold_s");
    }
    out
}

fn failure_rate(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn metrics_json(set: &[(String, &'static str, Summary)]) -> String {
    let items: Vec<String> = set
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                quote(name),
                quote(unit),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The full JSON report over every workload.
pub fn render_report(runs: &[WorkloadRun], results: &[WorkloadResult], seed: u64) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads: Vec<String> = runs
        .iter()
        .zip(results)
        .map(|(run, r)| {
            let w = &run.workload;
            let digests: Vec<String> = r
                .digests
                .iter()
                .map(|(d, n)| format!("\"{d}\": {n}"))
                .collect();
            format!(
                "    {{\"name\": {}, \"why\": {}, \"trace_cycles\": {}, \
                 \"max_candidates\": {}, \"top_n\": {}, \"campaign_cycles\": {}, \
                 \"campaign_sample\": {}, \"untraced_reps\": {}, \"traced_reps\": {}, \
                 \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"op_failure_rate\": {}, \
                 \"digests\": {{{}}}, \"tracing_overhead_s\": {},\n     \
                 \"end_to_end\": {},\n     \"per_layer\": {}}}",
                quote(w.name),
                quote(w.why),
                w.trace_cycles,
                w.max_candidates,
                w.top_n,
                w.campaign_cycles,
                w.campaign_sample
                    .map_or("null".to_owned(), |n| n.to_string()),
                run.untraced.len(),
                run.traced.len(),
                r.correct(),
                r.attempted,
                r.failed,
                num(failure_rate(r.attempted, r.failed)),
                digests.join(", "),
                r.tracing_overhead_s.map_or("null".to_owned(), num),
                metrics_json(&r.end_to_end),
                metrics_json(&r.per_layer),
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"threads\": {THREADS},\n  \"host_cpus\": {host_cpus},\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n")
    )
}

/// The one-line result: end-to-end metrics (or per-layer ones when
/// `per_layer`), prefixed with the workload name when there are several.
pub fn render_line(results: &[WorkloadResult], per_layer: bool) -> String {
    let prefix = results.len() > 1;
    let mut metrics = Vec::new();
    for r in results {
        let set = if per_layer {
            &r.per_layer
        } else {
            &r.end_to_end
        };
        for (name, unit, s) in set {
            let key = if prefix {
                format!("{}.{name}", r.name)
            } else {
                name.clone()
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&key),
                num(s.median),
                quote(unit)
            ));
        }
    }
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// The spans of every traced repetition as JSON lines, each workload
/// wrapped in a span of its own (id 0, no repetition).
pub fn render_spans(runs: &[WorkloadRun]) -> String {
    let mut out = String::new();
    for run in runs {
        let name = quote(run.workload.name);
        let _ = writeln!(
            out,
            "{{\"workload\": {name}, \"rep\": null, \"id\": 0, \"parent\": null, \
             \"name\": \"workload\", \"start_ns\": {}, \"end_ns\": {}}}",
            run.span_ns.0, run.span_ns.1
        );
        for (rep, outcome) in run.traced.iter().enumerate() {
            for s in outcome.iter().flat_map(|o| &o.spans) {
                let _ = writeln!(
                    out,
                    "{{\"workload\": {name}, \"rep\": {rep}, \"id\": {}, \"parent\": {}, \
                     \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    s.parent,
                    quote(&s.name),
                    s.start_ns,
                    s.end_ns
                );
            }
        }
    }
    out
}
