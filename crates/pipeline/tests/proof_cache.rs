//! The Analyze stage fingerprint: the conflict budget is part of the
//! artifact identity, the thread count is not.  Plants a report under one
//! configuration and probes it with a different thread count (hit), with
//! a budget switch (miss), and with a planted verdict line that lacks
//! solver counters (recomputed).  A truncated or line-dropped artifact
//! still parses record by record, so the header's record counts must
//! catch it: every such artifact is recomputed too.

use std::path::PathBuf;

use mate::SearchConfig;
use mate_analyze::VerifyConfig;
use mate_netlist::examples::figure1b;
use mate_pipeline::{
    AnalysisReport, ArtifactStore, ContentHash, DesignSource, Flow, TraceSource, WireSetSpec,
};

/// A fresh scratch store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mate-proof-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::new(&self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn figure1b_source() -> DesignSource {
    DesignSource::Builder {
        label: "figure1b",
        build: figure1b,
    }
}

/// Runs the full prefix (search → capture → select) and the Analyze stage
/// with `config`; returns the artifact key, the report, and whether the
/// Analyze record was served from the store.
fn run_analyze(store: ArtifactStore, config: VerifyConfig) -> (ContentHash, AnalysisReport, bool) {
    let mut flow = Flow::new(store, figure1b_source()).unwrap();
    let search = flow
        .search(WireSetSpec::AllFfs, SearchConfig::default())
        .unwrap();
    let trace = flow
        .capture(
            TraceSource::Stimuli {
                waves: vec![("in".into(), vec![true, false, false, true])],
            },
            32,
        )
        .unwrap();
    let selected = flow
        .select(
            WireSetSpec::AllFfs,
            search.value.mates.len(),
            (&search.value.mates, search.key),
            trace.part(),
        )
        .unwrap();
    let analysis = flow.analyze(selected.part(), config).unwrap();
    let summary = flow.into_summary();
    let cached = summary.records.last().unwrap().cached;
    (analysis.key, analysis.value, cached)
}

#[test]
fn budget_switch_misses_while_thread_count_hits() {
    let scratch = Scratch::new("budget-key");

    // Plant: the default budget on a single thread.
    let planted_config = VerifyConfig {
        threads: 1,
        ..VerifyConfig::default()
    };
    let (planted_key, planted, cached) = run_analyze(scratch.store(), planted_config);
    assert!(!cached, "first run must compute");
    assert!(
        !planted.coverage.is_empty(),
        "the analyze stage proves per-wire coverage"
    );

    // Probe 1: execution-only change (thread count) — must hit the planted
    // artifact byte-for-byte, coverage certificates and solver stats
    // included.
    let threads_only = VerifyConfig {
        threads: 7,
        ..VerifyConfig::default()
    };
    let (probe_key, probe, cached) = run_analyze(scratch.store(), threads_only);
    assert!(cached, "thread count must not split the analyze cache");
    assert_eq!(probe_key, planted_key);
    assert_eq!(probe, planted);

    // Probe 2: the conflict budget is part of the proof identity.
    let tighter_budget = VerifyConfig {
        threads: 1,
        conflict_budget: 1,
    };
    let (budget_key, _, cached) = run_analyze(scratch.store(), tighter_budget);
    assert!(!cached, "budget change must miss the analyze cache");
    assert_ne!(budget_key, planted_key);

    // Probe 3: a verdict line whose solver counters are `-` (the form the
    // enumeration backend wrote) no longer decodes, so the stage recomputes
    // under the same key and returns the same report.
    let store = scratch.store();
    let text = String::from_utf8(store.load("analyze", &planted_key).unwrap().unwrap()).unwrap();
    let verdict_line = text
        .lines()
        .find(|line| line.starts_with("V\t"))
        .expect("the planted report has a verdict line");
    let (verdict, _counters) = verdict_line.rsplit_once('\t').unwrap();
    let stripped = text.replacen(verdict_line, &format!("{verdict}\t-"), 1);
    store
        .save("analyze", &planted_key, stripped.as_bytes())
        .unwrap();
    let (recomputed_key, recomputed, cached) = run_analyze(scratch.store(), planted_config);
    assert!(
        !cached,
        "a verdict without solver counters must be recomputed"
    );
    assert_eq!(recomputed_key, planted_key);
    assert_eq!(recomputed, planted);
}

#[test]
fn truncated_or_line_dropped_artifacts_are_recomputed() {
    let scratch = Scratch::new("damaged");
    let config = VerifyConfig {
        threads: 1,
        ..VerifyConfig::default()
    };
    let (key, cold, cached) = run_analyze(scratch.store(), config);
    assert!(!cached, "first run must compute");
    let store = scratch.store();
    let valid = store.load("analyze", &key).unwrap().unwrap();
    let text = String::from_utf8(valid.clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.iter().any(|l| l.starts_with("V\t")) && lines.iter().any(|l| l.starts_with("C\t")),
        "the planted report has verdict and coverage lines"
    );

    let joined = |keep: &mut dyn FnMut(usize) -> bool| -> String {
        lines
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(i))
            .flat_map(|(_, l)| [*l, "\n"])
            .collect()
    };
    // Cut at every line boundary short of the whole artifact, then each
    // line deleted in turn, then a header from the previous format.
    let mut damaged: Vec<String> = (0..lines.len())
        .map(|cut| joined(&mut |i| i < cut))
        .collect();
    damaged.extend((0..lines.len()).map(|gone| joined(&mut |i| i != gone)));
    damaged.push(text.replacen("# analyze v4 ", "# analyze v3 ", 1));

    for bytes in damaged {
        store.save("analyze", &key, bytes.as_bytes()).unwrap();
        let (recomputed_key, recomputed, cached) = run_analyze(scratch.store(), config);
        assert!(!cached, "a damaged artifact must be recomputed:\n{bytes}");
        assert_eq!(recomputed_key, key);
        assert_eq!(recomputed, cold);
        assert_eq!(
            store.load("analyze", &key).unwrap().unwrap(),
            valid,
            "the recompute must leave a valid artifact"
        );
    }
}
