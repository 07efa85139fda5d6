//! Metric names and units — the one table the report, `BENCHMARK.json`
//! and the smoke test agree on.

/// The `Flow` calls of one pass, in order.  `evaluate-selected` is the
/// second `evaluate` call, over the selected top-N set.
pub const CALLS: [&str; 9] = [
    "load-design",
    "gmt-library",
    "mate-search",
    "trace-capture",
    "evaluate",
    "select",
    "evaluate-selected",
    "campaign",
    "analyze",
];

/// The artifact store's stage directories.
pub const STORE_DIRS: [&str; 8] = [
    "load-design",
    "gmt-library",
    "mate-search",
    "trace-capture",
    "evaluate",
    "select",
    "campaign",
    "analyze",
];

/// End-to-end metrics: what a user of the flow sees.  Measured on
/// untraced repetitions only.
pub const END_TO_END: [(&str, &str); 8] = [
    ("flow_cold_s", "s"),
    ("flow_warm_s", "s"),
    ("setup_s", "s"),
    ("prune_ready_s", "s"),
    ("campaign_faults_per_s", "1/s"),
    ("proofs_per_s", "1/s"),
    ("pruned_fraction", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Fixed per-layer metrics, named `<crate>.<metric>`.  Counters that the
/// correctness gates hold at zero (bounded and refuted verdicts, campaign
/// violations, warm misses) are not listed: they surface as failed checks.
const PER_LAYER_FIXED: [(&str, &str); 46] = [
    ("netlist.load_s", "s"),
    ("netlist.cells", "count"),
    ("netlist.ffs", "count"),
    ("sim.trace_s", "s"),
    ("sim.trace_cycles_per_s", "1/s"),
    ("core.gmt_s", "s"),
    ("core.search_s", "s"),
    ("core.search_wires", "count"),
    ("core.search_candidates", "count"),
    ("core.search_candidates_per_s", "1/s"),
    ("core.search_mates", "count"),
    ("core.search_unmaskable", "count"),
    ("core.search_max_wire_s", "s"),
    ("core.search_parallel_efficiency", "ratio"),
    ("core.evaluate_s", "s"),
    ("core.evaluate_points_per_s", "1/s"),
    ("core.evaluate_effective_mates", "count"),
    ("core.select_s", "s"),
    ("core.select_mates", "count"),
    ("core.evaluate_selected_s", "s"),
    ("hafi.campaign_s", "s"),
    ("hafi.campaign_faults", "count"),
    ("hafi.campaign_masked", "count"),
    ("hafi.campaign_recovery", "count"),
    ("hafi.campaign_latent", "count"),
    ("hafi.campaign_failure", "count"),
    ("hafi.campaign_pruned_points", "count"),
    ("hafi.collapse_skip_rate", "ratio"),
    ("hafi.collapse_classes", "count"),
    ("hafi.collapse_probes", "count"),
    ("hafi.collapse_fallback", "count"),
    ("hafi.collapse_memo_hits", "count"),
    ("analyze.s", "s"),
    ("analyze.verdicts", "count"),
    ("analyze.proved", "count"),
    ("analyze.coverage_complete", "count"),
    ("analyze.coverage_gaps", "count"),
    ("analyze.sat_conflicts", "count"),
    ("analyze.sat_decisions", "count"),
    ("analyze.sat_propagations", "count"),
    ("analyze.sat_learned", "count"),
    ("analyze.sat_restarts", "count"),
    ("pipeline.artifact_bytes", "bytes"),
    ("pipeline.warm_hits", "count"),
    ("pipeline.unattributed_s", "s"),
    ("pipeline.traced_flow_cold_s", "s"),
];

/// `load-design` → `load_design`, for metric names.
pub fn ident(stage: &str) -> String {
    stage.replace('-', "_")
}

/// Every per-layer metric with its unit: the fixed ones plus one artifact
/// size per store directory and one warm time per `Flow` call.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    all.extend(
        STORE_DIRS
            .iter()
            .map(|dir| (format!("pipeline.artifact_bytes.{}", ident(dir)), "bytes")),
    );
    all.extend(
        CALLS
            .iter()
            .map(|call| (format!("pipeline.warm.{}_s", ident(call)), "s")),
    );
    all
}
