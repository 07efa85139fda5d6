//! Acceptance tests for the Yosys JSON frontend: the vendored third core
//! (`vendor/netlists/uart_tx`) ingests through the lint gate, behaves
//! like an 8N1 UART, runs the full pipeline (search → capture → evaluate
//! → select → verify → campaign on every engine), and its
//! artifact cache is keyed by the *bytes* of the external file.

use std::path::{Path, PathBuf};

use mate::SearchConfig;
use mate_analyze::VerifyConfig;
use mate_hafi::{CampaignConfig, CampaignEngine};
use mate_netlist::yosys::parse_yosys_netlist;
use mate_netlist::{Library, MateError};
use mate_pipeline::{ingest_gate, ArtifactStore, DesignSource, Flow, TraceSource, WireSetSpec};
use mate_sim::{InputWave, Testbench};

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mate-ingest-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::new(self.0.join("store"))
    }

    fn file(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn vendored_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../vendor/netlists/uart_tx/uart_tx.json")
}

fn uart_source() -> DesignSource {
    DesignSource::YosysJson {
        path: vendored_path(),
        top: None,
    }
}

/// Stimulus transmitting `byte` once: reset, then a single `wr` pulse.
fn uart_waves(byte: u8) -> TraceSource {
    let mut waves = vec![
        ("rst".to_owned(), vec![true, false]),
        ("wr".to_owned(), vec![false, false, true, false]),
    ];
    for bit in 0..8 {
        waves.push((format!("din[{bit}]"), vec![byte >> bit & 1 == 1]));
    }
    TraceSource::Stimuli { waves }
}

#[test]
fn vendored_uart_transmits_a_frame() {
    let src = std::fs::read_to_string(vendored_path()).unwrap();
    let netlist = parse_yosys_netlist(&src, Library::open15(), None).unwrap();
    ingest_gate(&netlist).unwrap();
    let topo = netlist.validate().unwrap();
    assert_eq!(
        topo.seq_cells().len(),
        17,
        "busy + baud[2] + bitcnt[4] + shift[10]"
    );

    let byte = 0xA5u8;
    let mut tb = Testbench::new(&netlist, &topo);
    let wave = |values: Vec<bool>| InputWave::from_vec(values);
    tb.drive(netlist.find_net("rst").unwrap(), wave(vec![true, false]));
    tb.drive(
        netlist.find_net("wr").unwrap(),
        wave(vec![false, false, true, false]),
    );
    for bit in 0..8 {
        tb.drive(
            netlist.find_net(&format!("din[{bit}]")).unwrap(),
            wave(vec![byte >> bit & 1 == 1]),
        );
    }
    let trace = tb.run(60);

    let tx = netlist.outputs()[0];
    assert!(!netlist.net(tx).name().contains("busy"));
    let busy = netlist.find_net("busy").unwrap();

    // The line idles high, then the start bit pulls it low.
    let first_low = (0..60).find(|&c| !trace.value(c, tx)).expect("start bit");
    assert!(trace.value(0, tx), "line must idle high");

    // 8N1 frame, LSB first, 4 cycles per bit: 0, d0..d7, 1.
    let mut expected = vec![false];
    expected.extend((0..8).map(|bit| byte >> bit & 1 == 1));
    expected.push(true);
    for (k, &bit) in expected.iter().enumerate() {
        for phase in 0..4 {
            let cycle = first_low + 4 * k + phase;
            assert_eq!(
                trace.value(cycle, tx),
                bit,
                "frame bit {k} phase {phase} (cycle {cycle})"
            );
            assert!(trace.value(cycle, busy), "busy during the frame");
        }
    }
    // After the stop bit the line is idle and busy falls.
    let after = first_low + 40;
    assert!(trace.value(after, tx));
    assert!(!trace.value(after, busy), "busy must clear after the frame");
}

/// The full paper pipeline on the external core: MATE search, golden
/// trace, prune-matrix evaluation, top-N selection, independent soundness
/// verification, and the injection campaign on every engine — all
/// bit-identical across engines.
#[test]
fn vendored_core_runs_the_full_pipeline() {
    let scratch = Scratch::new("full-pipeline");
    let search_config = SearchConfig {
        depth: 2,
        max_terms: 2,
        max_candidates: 64,
        max_paths: 1 << 12,
        threads: 1,
        ..SearchConfig::default()
    };

    let mut flow = Flow::new(scratch.store(), uart_source()).unwrap();
    let search = flow.search(WireSetSpec::AllFfs, search_config).unwrap();
    assert_eq!(search.value.stats.faulty_wires, 17);

    let trace = flow.capture(uart_waves(0x5A), 48).unwrap();
    let report = flow
        .evaluate(
            WireSetSpec::AllFfs,
            (&search.value.mates, search.key),
            trace.part(),
        )
        .unwrap();
    assert_eq!(report.value.matrix.wires().len(), 17);

    let selected = flow
        .select(
            WireSetSpec::AllFfs,
            4,
            (&search.value.mates, search.key),
            trace.part(),
        )
        .unwrap();
    assert!(selected.value.mates().len() <= 4);

    // Independent soundness verification: no refuted MATE.
    let analysis = flow
        .analyze(
            (&search.value.mates, search.key),
            VerifyConfig {
                threads: 1,
                ..VerifyConfig::default()
            },
        )
        .unwrap();
    let counts = analysis.value.counts();
    assert_eq!(counts.refuted, 0, "unsound MATE on the vendored core");

    // Campaign: every engine, bit-identical records.
    let mut reference = None;
    for engine in CampaignEngine::all() {
        // A fresh store per engine forces a real recompute on each one
        // (they share one cache key by design — bit-identical invariant).
        let combo_scratch = Scratch::new(&format!("combo-{engine:?}"));
        let mut flow = Flow::new(combo_scratch.store(), uart_source()).unwrap();
        let result = flow
            .campaign(
                uart_waves(0x5A),
                CampaignConfig {
                    cycles: 48,
                    threads: 1,
                    engine,
                    ..CampaignConfig::default()
                },
                None,
            )
            .unwrap();
        assert_eq!(result.value.records.len(), 17 * 48);
        match &reference {
            None => reference = Some(result.value.records.clone()),
            Some(expected) => assert_eq!(
                &result.value.records, expected,
                "{engine:?} diverged from the reference records"
            ),
        }
    }
}

/// The external-file fingerprint covers bytes, not paths: identical bytes
/// at another path hit, touched bytes (even semantics-preserving
/// whitespace) miss.
#[test]
fn external_file_cache_is_keyed_by_bytes() {
    let scratch = Scratch::new("byte-key");
    let text = std::fs::read_to_string(vendored_path()).unwrap();
    let original = scratch.file("core.json", &text);

    let source = |path: &Path| DesignSource::YosysJson {
        path: path.to_path_buf(),
        top: None,
    };

    let flow = Flow::new(scratch.store(), source(&original)).unwrap();
    assert!(!flow.summary().records[0].cached);
    drop(flow);

    // Unchanged file: served from the cache ("0 computed").
    let flow = Flow::new(scratch.store(), source(&original)).unwrap();
    assert!(flow.summary().records[0].cached);
    assert!(flow.summary().all_cached(), "{}", flow.summary());
    drop(flow);

    // Same bytes, different path: still a hit.
    let moved = scratch.file("renamed.json", &text);
    let flow = Flow::new(scratch.store(), source(&moved)).unwrap();
    assert!(flow.summary().records[0].cached, "bytes are the identity");
    drop(flow);

    // Touched bytes (trailing whitespace — same netlist!): recompute.
    let touched = scratch.file("touched.json", &format!("{text}\n"));
    let flow = Flow::new(scratch.store(), source(&touched)).unwrap();
    assert!(
        !flow.summary().records[0].cached,
        "changed bytes must miss even when the parsed netlist is identical"
    );
}

/// Each structural-defect class an external netlist can carry is rejected
/// by the lint gate with a typed, context-carrying error — before any
/// simulation.
#[test]
fn ingest_gate_rejects_ill_formed_external_netlists() {
    let scratch = Scratch::new("gate-reject");
    let load = |path: &Path| {
        Flow::new(
            scratch.store(),
            DesignSource::YosysJson {
                path: path.to_path_buf(),
                top: None,
            },
        )
        .expect_err("ill-formed netlist must be rejected")
    };

    // Undriven net: g's A input is never driven and is not a port.
    let undriven = scratch.file(
        "undriven.json",
        r#"{"modules": {"m": {
            "ports": {"y": {"direction": "output", "bits": [3]}},
            "cells": {"g": {"type": "$_NOT_", "connections": {"A": [2], "Y": [3]}}},
            "netnames": {"mystery": {"bits": [2]}, "y": {"bits": [3]}}
        }}}"#,
    );
    let err = load(&undriven);
    let text = err.to_string();
    assert!(matches!(err, MateError::File { .. }), "{err}");
    assert!(text.contains("undriven-net"), "{text}");
    assert!(text.contains("mystery"), "{text}");
    assert!(text.contains("lint gate"), "{text}");

    // Multiply-driven net: two gates drive bit 4.
    let multi = scratch.file(
        "multi.json",
        r#"{"modules": {"m": {
            "ports": {
                "a": {"direction": "input", "bits": [2]},
                "y": {"direction": "output", "bits": [4]}
            },
            "cells": {
                "g0": {"type": "$_NOT_", "connections": {"A": [2], "Y": [4]}},
                "g1": {"type": "$_BUF_", "connections": {"A": [2], "Y": [4]}}
            },
            "netnames": {"a": {"bits": [2]}, "y": {"bits": [4]}}
        }}}"#,
    );
    let text = load(&multi).to_string();
    assert!(text.contains("multi-driven-net"), "{text}");

    // Combinational loop: two NOTs chasing each other.
    let comb_loop = scratch.file(
        "loop.json",
        r#"{"modules": {"m": {
            "ports": {"y": {"direction": "output", "bits": [2]}},
            "cells": {
                "g0": {"type": "$_NOT_", "connections": {"A": [3], "Y": [2]}},
                "g1": {"type": "$_NOT_", "connections": {"A": [2], "Y": [3]}}
            },
            "netnames": {"p": {"bits": [2]}, "q": {"bits": [3]}}
        }}}"#,
    );
    let text = load(&comb_loop).to_string();
    assert!(text.contains("comb-loop"), "{text}");
}

/// The vendored netlist file itself passes `mate-analyze`-grade scrutiny:
/// zero error- and zero warning-severity findings.
#[test]
fn vendored_netlist_is_lint_clean() {
    let src = std::fs::read_to_string(vendored_path()).unwrap();
    let netlist = parse_yosys_netlist(&src, Library::open15(), None).unwrap();
    let diags = mate_analyze::run_lints(&netlist);
    let errors: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == mate_analyze::Severity::Error)
        .collect();
    assert!(errors.is_empty(), "{errors:?}");
}
