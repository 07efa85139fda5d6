//! Bring your own netlist: prune the fault space of an external gate-level
//! design in Yosys JSON format.
//!
//! The input here is the vendored third core (`vendor/netlists/uart_tx`),
//! but any flattened gate-level `write_json` output works the same way:
//!
//! ```text
//! yosys -p 'synth; abc -g AND,NAND,OR,NOR,XOR,XNOR,MUX; flatten; write_json design.json'
//! cargo run --release --example yosys_ingest            # vendored core
//! cargo run --release --example yosys_ingest design.json # yours
//! ```
//!
//! Ingest runs the `mate-analyze` lint passes as a mandatory gate: undriven
//! or multiply-driven nets, combinational loops, unknown cell types, and
//! clock-discipline violations are rejected with a typed error before any
//! simulation happens.  Stage outputs land in the content-addressed
//! artifact store keyed by the *bytes* of the JSON file, so a second run
//! over an unchanged file computes nothing.

use std::path::PathBuf;

use fault_space_pruning::analyze::VerifyConfig;
use fault_space_pruning::hafi::CampaignConfig;
use fault_space_pruning::mate::SearchConfig;
use fault_space_pruning::netlist::MateError;
use fault_space_pruning::pipeline::{DesignSource, Flow, TraceSource, WireSetSpec};

fn main() -> Result<(), MateError> {
    // 1. The external netlist.  Default: the vendored UART transmitter.
    let path = std::env::args().nth(1).map_or_else(
        || PathBuf::from("vendor/netlists/uart_tx/uart_tx.json"),
        PathBuf::from,
    );
    let mut flow = Flow::open_default(DesignSource::YosysJson {
        path: path.clone(),
        top: None,
    })?;
    println!("ingested {}: {}", path.display(), flow.design().netlist);

    // 2. Offline MATE search over every flip-flop of the foreign design.
    let search_config = SearchConfig {
        depth: 3,
        max_candidates: 256,
        ..SearchConfig::default()
    };
    let search = flow.search(WireSetSpec::AllFfs, search_config)?;
    println!(
        "search: {} MATEs over {} faulty wires",
        search.value.mates.len(),
        search.value.stats.faulty_wires
    );

    // 3. A workload trace: reset, then transmit one byte.  For your own
    //    design, replace the waves with your stimuli (or a VCD capture).
    let mut waves = vec![
        ("rst".to_owned(), vec![true, false]),
        ("wr".to_owned(), vec![false, false, true, false]),
    ];
    for bit in 0..8 {
        waves.push((format!("din[{bit}]"), vec![0xC3u8 >> bit & 1 == 1]));
    }
    let trace = flow.capture(
        TraceSource::Stimuli {
            waves: waves.clone(),
        },
        48,
    )?;

    // 4. Prune matrix + ranking: which faults are provably masked, when.
    let report = flow.evaluate(
        WireSetSpec::AllFfs,
        (&search.value.mates, search.key),
        trace.part(),
    )?;
    println!("fault space: {}", report.value.matrix);

    // 5. Independent soundness check of every MATE claim.
    let analysis = flow.analyze((&search.value.mates, search.key), VerifyConfig::default())?;
    let counts = analysis.value.counts();
    println!(
        "verifier: {} proved / {} bounded / {} refuted",
        counts.proved, counts.bounded, counts.refuted
    );
    assert_eq!(counts.refuted, 0, "refuted MATE on the ingested design");

    // 6. Ground truth by injection campaign over the full fault space.
    let campaign = flow.campaign(
        TraceSource::Stimuli { waves },
        CampaignConfig {
            cycles: 48,
            ..CampaignConfig::default()
        },
        None,
    )?;
    let histogram: Vec<String> = campaign
        .value
        .histogram()
        .into_iter()
        .map(|(effect, n)| format!("{n} {effect}"))
        .collect();
    println!(
        "campaign: {} experiments ({})",
        campaign.value.len(),
        histogram.join(", ")
    );

    // 7. Cache summary: a second run over the unchanged file reports every
    //    stage as served from the artifact cache, 0 computed.
    println!();
    println!("{}", flow.summary());
    Ok(())
}
