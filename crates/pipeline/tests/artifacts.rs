//! Every stage codec: `decode(encode(x)) == x` on the real cores, and for
//! the binary trace and campaign artifacts at the format's edges too.  A
//! trace or campaign written for another net numbering fails to decode.
//! Damage on disk is the store's concern (`damage.rs`).

use std::path::{Path, PathBuf};

use mate::eval::{EvalReport, PruneMatrix};
use mate::{read_mates, SearchConfig, SearchStats};
use mate_analyze::VerifyConfig;
use mate_cores::{avr, msp430, AvrSystem, Msp430System, Termination};
use mate_hafi::{CampaignConfig, CampaignResult, FaultEffect, FaultPoint};
use mate_netlist::verilog::parse_verilog;
use mate_netlist::yosys::to_yosys_json;
use mate_netlist::Library;
use mate_pipeline::{
    Analyze, Campaign, Design, DesignSource, Evaluate, GmtLibrary, LoadDesign, MateSearch, Select,
    Stage, TraceCapture, TraceSource, WireSetSpec,
};

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mate-artifact-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sampled(cycles: usize, points: usize) -> CampaignConfig {
    CampaignConfig {
        cycles,
        sample: Some(points),
        seed: 1,
        ..CampaignConfig::default()
    }
}

/// Runs both stages on `design` and asserts each artifact decodes back to
/// the value it encodes.
fn assert_round_trips(design: &Design, source: TraceSource, cycles: usize, config: CampaignConfig) {
    let capture = TraceCapture {
        source: source.clone(),
        cycles,
    };
    let trace = capture.execute(&design).unwrap();
    assert_eq!(trace.num_cycles(), cycles);
    let bytes = capture.encode(&design, &trace).unwrap();
    assert_eq!(capture.decode(&design, &bytes).unwrap(), trace);

    let campaign = Campaign {
        source,
        config,
        wires: None,
    };
    let result = campaign.execute(&design).unwrap();
    assert!(!result.records.is_empty());
    assert_campaign_round_trips(&campaign, design, &result);
}

fn assert_campaign_round_trips(campaign: &Campaign, design: &Design, result: &CampaignResult) {
    let bytes = campaign.encode(&design, result).unwrap();
    let back = campaign.decode(&design, &bytes).unwrap();
    assert_eq!(back.records, result.records);
}

fn core_design(netlist: &mate_netlist::Netlist, topology: &mate_netlist::Topology) -> Design {
    Design {
        netlist: netlist.clone(),
        topology: topology.clone(),
    }
}

#[test]
fn avr_fib_artifacts_round_trip() {
    let sys = AvrSystem::new();
    let design = core_design(sys.netlist(), sys.topology());
    let source = TraceSource::Avr {
        program: avr::programs::fib(Termination::Loop),
        dmem: Vec::new(),
    };
    assert_round_trips(&design, source, 300, sampled(64, 64));
}

#[test]
fn msp430_conv_artifacts_round_trip() {
    let sys = Msp430System::new();
    let design = core_design(sys.netlist(), sys.topology());
    let source = TraceSource::Msp430 {
        image: msp430::programs::conv(Termination::Loop),
    };
    assert_round_trips(&design, source, 300, sampled(64, 64));
}

fn uart_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../vendor/netlists/uart_tx/uart_tx.json")
}

#[test]
fn uart_tx_artifacts_round_trip_exhaustively() {
    let design = LoadDesign {
        source: DesignSource::YosysJson {
            path: uart_path(),
            top: None,
        },
    }
    .execute(&())
    .unwrap();
    let mut waves = vec![
        ("rst".to_owned(), vec![true, false]),
        ("wr".to_owned(), vec![false, false, true, false]),
    ];
    for bit in 0..8 {
        waves.push((format!("din[{bit}]"), vec![0xA5u8 >> bit & 1 == 1]));
    }
    let config = CampaignConfig {
        cycles: 40,
        ..CampaignConfig::default()
    };
    assert_round_trips(&design, TraceSource::Stimuli { waves }, 300, config);
}

/// A shift register of `ffs` flip-flops from `d` to `q`: `ffs + 1` nets,
/// with the wires declared in `order` (a permutation of `0..ffs - 1`).
fn shift_register(ffs: usize, order: &[usize]) -> Design {
    let mut src = String::from("module chain (d, q);\n  input d;\n  output q;\n");
    for &i in order {
        src.push_str(&format!("  wire s{i};\n"));
    }
    for i in 0..ffs {
        let from = if i == 0 {
            "d".into()
        } else {
            format!("s{}", i - 1)
        };
        let to = if i + 1 == ffs {
            "q".into()
        } else {
            format!("s{i}")
        };
        src.push_str(&format!("  DFF f{i} (.D({from}), .Q({to}));\n"));
    }
    src.push_str("endmodule\n");
    let (netlist, topology) = parse_verilog(&src, Library::open15()).unwrap();
    Design { netlist, topology }
}

fn chain(ffs: usize) -> Design {
    shift_register(ffs, &(0..ffs - 1).collect::<Vec<_>>())
}

fn toggling() -> TraceSource {
    TraceSource::Stimuli {
        waves: vec![("d".into(), vec![true, false, false, true, true, false])],
    }
}

#[test]
fn traces_round_trip_at_word_boundaries_and_zero_cycles() {
    for ffs in [63, 64, 69, 127] {
        let design = chain(ffs);
        let nets = design.netlist.num_nets();
        assert_eq!(nets, ffs + 1);
        for cycles in [0, 1, 77] {
            let capture = TraceCapture {
                source: toggling(),
                cycles,
            };
            let trace = capture.execute(&&design).unwrap();
            let bytes = capture.encode(&&design, &trace).unwrap();
            // Numbering, two shape fields, then whole rows of words.
            assert_eq!(bytes.len(), 8 + 16 + 8 * cycles * nets.div_ceil(64));
            let back = capture.decode(&&design, &bytes).unwrap();
            assert_eq!(back, trace, "{nets} nets x {cycles} cycles");
        }
    }
}

#[test]
fn campaigns_round_trip_every_effect_and_the_empty_set() {
    let design = chain(69);
    let campaign = Campaign {
        source: toggling(),
        config: CampaignConfig::default(),
        wires: None,
    };
    assert_campaign_round_trips(&campaign, &design, &CampaignResult::default());

    let seq = design.topology.seq_cells();
    let point = |ordinal: usize, cycle: usize| {
        let ff = seq[ordinal];
        FaultPoint {
            ff,
            wire: design.netlist.cell(ff).output(),
            cycle,
        }
    };
    let result = CampaignResult {
        records: vec![
            (point(68, 9), FaultEffect::OutputFailure { after: 4 }),
            (point(0, 0), FaultEffect::MaskedWithinOneCycle),
            (point(3, 1), FaultEffect::SilentRecovery { after: 2 }),
            (point(3, u32::MAX as usize), FaultEffect::Latent),
            (point(1, 5), FaultEffect::OutputFailure { after: 0 }),
        ],
        ..CampaignResult::default()
    };
    assert_campaign_round_trips(&campaign, &design, &result);

    // Fields beyond the fixed width are refused, never truncated.
    let mut wide = result.clone();
    wide.records[0].0.cycle = u32::MAX as usize + 1;
    assert!(campaign.encode(&&design, &wide).is_err());
    let mut wide = result;
    wide.records[1].1 = FaultEffect::SilentRecovery {
        after: u32::MAX as usize + 1,
    };
    assert!(campaign.encode(&&design, &wide).is_err());
}

#[test]
fn artifacts_are_rejected_by_a_design_with_permuted_names() {
    let design = chain(40);
    let mut order: Vec<usize> = (0..39).collect();
    order.swap(0, 1);
    let permuted = shift_register(40, &order);
    assert_eq!(permuted.netlist.num_nets(), design.netlist.num_nets());

    let capture = TraceCapture {
        source: toggling(),
        cycles: 20,
    };
    let trace = capture.execute(&&design).unwrap();
    let bytes = capture.encode(&&design, &trace).unwrap();
    assert!(capture.decode(&&design, &bytes).is_ok());
    assert!(capture.decode(&&permuted, &bytes).is_err());

    let campaign = Campaign {
        source: toggling(),
        config: sampled(16, 32),
        wires: None,
    };
    let result = campaign.execute(&&design).unwrap();
    let bytes = campaign.encode(&&design, &result).unwrap();
    assert!(campaign.decode(&&design, &bytes).is_ok());
    assert!(campaign.decode(&&permuted, &bytes).is_err());
}

/// Flip-flops outside the register file (`r<number>_<bit>`): on the AVR
/// core the search finds some 80 MATEs there in a fraction of a second.
fn not_register_file() -> WireSetSpec {
    WireSetSpec::FilteredFfs {
        id: "not-register-file",
        keep: |name| {
            !(name.starts_with('r') && name.as_bytes().get(1).is_some_and(u8::is_ascii_digit))
        },
    }
}

/// The search statistics that are not wall-clock times.
fn counters(s: &SearchStats) -> (usize, u64, usize, usize, u64, usize, usize) {
    (
        s.faulty_wires,
        s.avg_cone.to_bits(),
        s.median_cone,
        s.unmaskable,
        s.candidates,
        s.num_mates,
        s.gmt_entries,
    )
}

/// An evaluation report as comparable values.
fn eval_values(report: &EvalReport) -> (PruneMatrix, Vec<usize>, usize, u64, u64) {
    (
        report.matrix.clone(),
        report.triggers.clone(),
        report.effective,
        report.avg_inputs.to_bits(),
        report.std_inputs.to_bits(),
    )
}

#[test]
fn avr_fib_text_artifacts_round_trip() {
    let sys = AvrSystem::new();
    let design = core_design(sys.netlist(), sys.topology());

    let gmt = GmtLibrary;
    let table = gmt.execute(&&design).unwrap();
    let bytes = gmt.encode(&&design, &table).unwrap();
    assert_eq!(gmt.decode(&&design, &bytes).unwrap(), table);

    let search = MateSearch {
        wires: not_register_file(),
        config: SearchConfig::default(),
    };
    let found = search.execute(&&design).unwrap();
    assert!(found.mates.len() > 20, "{} MATEs", found.mates.len());
    let bytes = search.encode(&&design, &found).unwrap();
    let back = search.decode(&&design, &bytes).unwrap();
    assert_eq!(back.mates, found.mates);
    assert_eq!(counters(&back.stats), counters(&found.stats));
    let (a, b) = (&back.stats, &found.stats);
    for (x, y) in [
        (a.run_time, b.run_time),
        (a.max_wire_time, b.max_wire_time),
        (a.total_wire_time, b.total_wire_time),
    ] {
        assert!(x.abs_diff(y).as_nanos() <= 1, "{x:?} vs {y:?}");
    }

    let trace = TraceCapture {
        source: TraceSource::Avr {
            program: avr::programs::fib(Termination::Loop),
            dmem: Vec::new(),
        },
        cycles: 300,
    }
    .execute(&&design)
    .unwrap();
    let input = (&design, &found.mates, &trace);
    let evaluate = Evaluate {
        wires: not_register_file(),
    };
    let report = evaluate.execute(&input).unwrap();
    assert!(report.matrix.masked_points() > 0);
    let bytes = evaluate.encode(&input, &report).unwrap();
    let back = evaluate.decode(&input, &bytes).unwrap();
    assert_eq!(eval_values(&back), eval_values(&report));

    // Select keeps rank order, which is not the order the search's
    // summarizing reader would give the same text.
    let select = Select {
        wires: not_register_file(),
        top_n: 20,
    };
    let ranked = select.execute(&input).unwrap();
    assert_eq!(ranked.len(), 20);
    let bytes = select.encode(&input, &ranked).unwrap();
    assert_eq!(select.decode(&input, &bytes).unwrap(), ranked);
    assert_ne!(read_mates(&design.netlist, &bytes[..]).unwrap(), ranked);

    let analyze = Analyze {
        config: VerifyConfig::default(),
    };
    let input = (&design, &ranked);
    let report = analyze.execute(&input).unwrap();
    assert!(!report.verdicts.is_empty() && !report.coverage.is_empty());
    let bytes = analyze.encode(&input, &report).unwrap();
    assert_eq!(analyze.decode(&input, &bytes).unwrap(), report);
}

#[test]
fn yosys_json_designs_round_trip() {
    let scratch = Scratch::new("yosys");
    let path = scratch.0.join("avr.json");
    let sys = AvrSystem::new();
    std::fs::write(&path, to_yosys_json(sys.netlist())).unwrap();
    let load = LoadDesign {
        source: DesignSource::YosysJson { path, top: None },
    };
    let design = load.execute(&()).unwrap();
    let bytes = load.encode(&(), &design).unwrap();
    let back = load.decode(&(), &bytes).unwrap();
    let names = |d: &Design| -> Vec<String> {
        d.netlist
            .nets()
            .iter()
            .map(|n| n.name().to_owned())
            .collect()
    };
    assert_eq!(names(&back), names(&design));
    assert_eq!(back.topology.seq_cells(), design.topology.seq_cells());
    assert_eq!(to_yosys_json(&back.netlist), to_yosys_json(&design.netlist));
}
