//! The binary trace and campaign artifacts: `decode(encode(x)) == x` on
//! the real cores and at the format's edges, and a damaged or foreign
//! artifact never changes a result — it fails to decode, the stage reruns
//! and a valid artifact replaces it.  The text MATE sets of the search and
//! select stages carry a MATE count in their header, so a truncated or
//! line-dropped one is recomputed too.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use mate::{MateSet, SearchConfig};
use mate_cores::{avr, msp430, AvrSystem, Msp430System, Termination};
use mate_hafi::{CampaignConfig, CampaignResult, FaultEffect, FaultPoint};
use mate_netlist::examples::{figure1b, tmr_register};
use mate_netlist::verilog::parse_verilog;
use mate_netlist::Library;
use mate_pipeline::{
    ArtifactStore, Campaign, ContentHash, Design, DesignSource, Flow, LoadDesign, Stage,
    TraceCapture, TraceSource, WireSetSpec,
};

/// A fresh scratch store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mate-artifact-test-{}-{tag}", std::process::id()));
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
            // Header, two shape fields, then whole rows of words.
            assert_eq!(bytes.len(), 24 + 16 + 8 * cycles * nets.div_ceil(64));
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

fn tmr_source() -> DesignSource {
    DesignSource::Builder {
        label: "tmr-register",
        build: tmr_register,
    }
}

fn tmr_waves() -> TraceSource {
    TraceSource::Stimuli {
        waves: vec![
            ("load".into(), vec![true, false, false, false, true, false]),
            ("din".into(), vec![true, true, true, true, false]),
        ],
    }
}

/// Byte offsets worth damaging in an artifact whose shape fields end at
/// `data`: one per header field, per shape field, and the first and last
/// data bytes.
fn damage_sites(data: usize, len: usize) -> Vec<usize> {
    let mut sites = vec![0, 8, 16];
    sites.extend((24..data).step_by(8));
    sites.extend([data, len - 1]);
    sites
}

/// Truncation points: every header and shape-field boundary, and one byte
/// short of whole.
fn cut_points(data: usize, len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..=data).step_by(8).collect();
    cuts.push(len - 1);
    cuts
}

/// Plants a warm store, then damages the artifact of `stage` in each way:
/// every case must rerun the stage, return the cold value and leave the
/// cold artifact behind.
fn damaged_artifacts_are_recomputed<T: PartialEq + std::fmt::Debug>(
    tag: &str,
    stage: &str,
    data: usize,
    run: impl Fn(&mut Flow) -> (T, mate_pipeline::ContentHash),
) {
    let scratch = Scratch::new(tag);
    let store = scratch.store();
    let mut flow = Flow::new(store.clone(), tmr_source()).unwrap();
    let (cold, key) = run(&mut flow);
    let good = store.load(stage, &key).unwrap().expect("planted artifact");

    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for at in damage_sites(data, good.len()) {
        let mut bad = good.clone();
        bad[at] ^= 0x10;
        cases.push((format!("bit flip at byte {at}"), bad));
    }
    for cut in cut_points(data, good.len()) {
        cases.push((format!("truncated to {cut} bytes"), good[..cut].to_vec()));
    }
    for (case, bad) in cases {
        store.save(stage, &key, &bad).unwrap();
        let mut flow = Flow::new(store.clone(), tmr_source()).unwrap();
        let (value, again) = run(&mut flow);
        let record = flow.summary().records.last().unwrap();
        assert_eq!(record.stage, stage);
        assert!(
            !record.cached,
            "{stage}, {case}: damaged artifact was served"
        );
        assert_eq!(again, key);
        assert_eq!(value, cold, "{stage}, {case}: result changed");
        let healed = store.load(stage, &key).unwrap();
        assert_eq!(healed.as_ref(), Some(&good), "{stage}, {case}: not healed");
    }

    // The healed store serves the stage again.
    let mut flow = Flow::new(store, tmr_source()).unwrap();
    run(&mut flow);
    assert!(flow.summary().records.last().unwrap().cached);
}

#[test]
fn damaged_trace_artifacts_are_recomputed() {
    // Shape fields: num_nets, cycles.
    damaged_artifacts_are_recomputed("trace", "trace-capture", 40, |flow| {
        let staged = flow.capture(tmr_waves(), 16).unwrap();
        (staged.value, staged.key)
    });
}

#[test]
fn damaged_campaign_artifacts_are_recomputed() {
    // Shape field: the record count.
    damaged_artifacts_are_recomputed("campaign", "campaign", 32, |flow| {
        let config = CampaignConfig {
            cycles: 12,
            ..CampaignConfig::default()
        };
        let staged = flow.campaign(tmr_waves(), config, None).unwrap();
        (staged.value.records, staged.key)
    });
}

/// Search, capture and select (top-N = every MATE) on figure1b; returns the
/// MATE set of `stage` (`mate-search` or `select`), its artifact key, and
/// whether the store served it.
fn figure1b_mates(store: ArtifactStore, stage: &str) -> (MateSet, ContentHash, bool) {
    let source = DesignSource::Builder {
        label: "figure1b",
        build: figure1b,
    };
    let mut flow = Flow::new(store, source).unwrap();
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
    let summary = flow.into_summary();
    let record = summary.records.iter().find(|r| r.stage == stage).unwrap();
    let mates = if stage == "select" {
        selected.value
    } else {
        search.value.mates
    };
    (mates, record.key, record.cached)
}

#[test]
fn truncated_or_line_dropped_mate_sets_are_recomputed() {
    for stage in ["mate-search", "select"] {
        let scratch = Scratch::new(stage);
        let store = scratch.store();
        let (cold, key, cached) = figure1b_mates(store.clone(), stage);
        assert!(!cached, "{stage}: first run must compute");
        assert_eq!(cold.len(), 3, "figure1b has three MATEs");
        let valid = store.load(stage, &key).unwrap().unwrap();
        let text = String::from_utf8(valid.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let joined = |keep: &dyn Fn(usize) -> bool| -> String {
            lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| keep(i))
                .flat_map(|(_, l)| [*l, "\n"])
                .collect()
        };
        // Cut at every line boundary short of the whole artifact, then each
        // line deleted in turn.
        let mut damaged: Vec<String> = (0..lines.len()).map(|cut| joined(&|i| i < cut)).collect();
        damaged.extend((0..lines.len()).map(|gone| joined(&|i| i != gone)));
        for bytes in damaged {
            store.save(stage, &key, bytes.as_bytes()).unwrap();
            let (mates, again, cached) = figure1b_mates(store.clone(), stage);
            assert!(!cached, "{stage}: a damaged artifact was served:\n{bytes}");
            assert_eq!(again, key);
            assert_eq!(mates, cold, "{stage}: result changed");
            // Select is deterministic to the byte; the search header also
            // records the recomputing run's timings.
            let healed = store.load(stage, &key).unwrap().unwrap();
            if stage == "select" {
                assert_eq!(healed, valid, "{stage}: not healed");
            }
            let (mates, _, cached) = figure1b_mates(store.clone(), stage);
            assert!(cached, "{stage}: the recomputed artifact must serve");
            assert_eq!(mates, cold);
        }
    }
}

/// Valid artifacts of both stages on the TMR register, for mutation.
fn tmr_artifacts() -> (Design, TraceCapture, Vec<u8>, Campaign, Vec<u8>) {
    let (netlist, topology) = tmr_register();
    let design = Design { netlist, topology };
    let capture = TraceCapture {
        source: tmr_waves(),
        cycles: 16,
    };
    let trace = capture.execute(&&design).unwrap();
    let trace_bytes = capture.encode(&&design, &trace).unwrap();
    let campaign = Campaign {
        source: tmr_waves(),
        config: sampled(12, 16),
        wires: None,
    };
    let result = campaign.execute(&&design).unwrap();
    let campaign_bytes = campaign.encode(&&design, &result).unwrap();
    (design, capture, trace_bytes, campaign, campaign_bytes)
}

proptest! {
    /// Random bytes never decode, and never panic a decoder.
    #[test]
    fn random_bytes_never_decode(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        valid_header in any::<bool>(),
    ) {
        let (design, capture, trace_bytes, campaign, campaign_bytes) = tmr_artifacts();
        for valid in [&trace_bytes, &campaign_bytes] {
            let mut bytes = bytes.clone();
            if valid_header {
                // Past the tag check: a valid header prefix, random rest.
                let n = bytes.len().min(24);
                bytes[..n].copy_from_slice(&valid[..n]);
            }
            prop_assert!(capture.decode(&&design, &bytes).is_err());
            prop_assert!(campaign.decode(&&design, &bytes).is_err());
        }
    }

    /// Any single changed byte of a valid artifact is refused.
    #[test]
    fn single_byte_mutations_never_decode(at in 0usize..100_000, xor in 1u8..=255) {
        let (design, capture, mut trace_bytes, campaign, mut campaign_bytes) = tmr_artifacts();
        let at_trace = at % trace_bytes.len();
        trace_bytes[at_trace] ^= xor;
        prop_assert!(capture.decode(&&design, &trace_bytes).is_err());
        let at_campaign = at % campaign_bytes.len();
        campaign_bytes[at_campaign] ^= xor;
        prop_assert!(campaign.decode(&&design, &campaign_bytes).is_err());
    }
}
