//! The `Analyze` pipeline stage: the lint + verification report must be
//! cacheable like every other artifact — byte-faithful across an
//! encode/decode round trip, served from the store on a re-run, and missed
//! again when the conflict budget (part of the stage fingerprint) changes.

use std::path::PathBuf;

use fault_space_pruning::analyze::{Severity, Verdict, VerifyConfig};
use fault_space_pruning::mate::prelude::*;
use fault_space_pruning::netlist::examples::figure1b;
use fault_space_pruning::pipeline::{ArtifactStore, DesignSource, Flow, TraceSource, WireSetSpec};

/// A per-test scratch store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mate-analyze-{}-{tag}", std::process::id()));
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

fn run_analyze(
    flow: &mut Flow,
    config: VerifyConfig,
) -> fault_space_pruning::pipeline::AnalysisReport {
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
    flow.analyze(selected.part(), config).unwrap().value
}

#[test]
fn analyze_stage_caches_and_round_trips() {
    let scratch = Scratch::new("cache");
    let config = VerifyConfig::default();

    let mut first = Flow::new(scratch.store(), figure1b_source()).unwrap();
    let report = run_analyze(&mut first, config);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error),
        "figure1b must lint clean: {:?}",
        report.diagnostics
    );
    assert!(!report.verdicts.is_empty());
    assert_eq!(report.counts().refuted, 0);
    assert!(report.gate_passes(Severity::Error));
    let computed = first.summary().misses();
    assert!(computed >= 4, "first run computes every stage");

    // Second run over the same store: the report decodes from the artifact
    // cache and must equal the computed one field-for-field.
    let mut second = Flow::new(scratch.store(), figure1b_source()).unwrap();
    let cached = run_analyze(&mut second, config);
    assert_eq!(report, cached);
    assert_eq!(
        second.summary().misses(),
        0,
        "second run must be fully cached: {}",
        second.summary().to_json()
    );

    // Changing the conflict budget changes the stage fingerprint: miss,
    // and the budget shows up in the report.  A one-conflict budget may
    // leave verdicts bounded, but it can never turn one into a refutation.
    let mut third = Flow::new(scratch.store(), figure1b_source()).unwrap();
    let starved = run_analyze(
        &mut third,
        VerifyConfig {
            threads: 0,
            conflict_budget: 1,
        },
    );
    assert_eq!(starved.conflict_budget, 1);
    assert!(
        third.summary().misses() > 0,
        "budget change must miss the cache"
    );
    assert!(starved
        .verdicts
        .iter()
        .all(|v| !matches!(v.verdict, Verdict::Refuted { .. })));
}
