//! A damaged artifact file never changes a result.  The store seals every
//! artifact, so a file on disk with a flipped bit, a cut or a changed line
//! is a miss: that one stage reruns, the flow returns the cold values, and
//! the file it leaves is served by the next run.  A sealed payload that
//! does not fit its stage's input is a decode error, never a panic, and is
//! recomputed too.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use mate::eval::{EvalReport, PruneMatrix};
use mate::{MateSet, SearchConfig};
use mate_analyze::VerifyConfig;
use mate_cores::{avr, AvrSystem, Termination};
use mate_hafi::{CampaignConfig, FaultEffect, FaultPoint};
use mate_netlist::examples::{figure1b, tmr_register};
use mate_netlist::verilog::to_verilog;
use mate_netlist::yosys::to_yosys_json;
use mate_netlist::{Netlist, Topology};
use mate_pipeline::{
    AnalysisReport, Analyze, ArtifactStore, Campaign, Design, DesignSource, Evaluate, Flow,
    GmtLibrary, GmtReport, LoadDesign, MateSearch, RunSummary, Select, Stage, TraceCapture,
    TraceSource, WireSetSpec,
};
use mate_sim::WaveTrace;

/// A fresh scratch store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mate-damage-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::new(&self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One design and workload the whole flow runs on.
struct Workload {
    source: fn() -> DesignSource,
    trace: fn() -> TraceSource,
    cycles: usize,
    wires: fn() -> WireSetSpec,
    top_n: usize,
    campaign: CampaignConfig,
}

fn tmr() -> Workload {
    Workload {
        source: || DesignSource::Builder {
            label: "tmr-register",
            build: tmr_register,
        },
        trace: || TraceSource::Stimuli {
            waves: vec![
                ("load".into(), vec![true, false, false, false, true, false]),
                ("din".into(), vec![true, true, true, true, false]),
            ],
        },
        cycles: 200,
        wires: || WireSetSpec::AllFfs,
        top_n: 2,
        campaign: CampaignConfig {
            cycles: 12,
            ..CampaignConfig::default()
        },
    }
}

fn figure1b_workload() -> Workload {
    Workload {
        source: || DesignSource::Builder {
            label: "figure1b",
            build: figure1b,
        },
        trace: || TraceSource::Stimuli {
            waves: vec![("in".into(), vec![true, false, false, true])],
        },
        cycles: 32,
        wires: || WireSetSpec::AllFfs,
        top_n: 3,
        campaign: CampaignConfig {
            cycles: 12,
            ..CampaignConfig::default()
        },
    }
}

fn build_avr() -> (Netlist, Topology) {
    let sys = AvrSystem::new();
    (sys.netlist().clone(), sys.topology().clone())
}

/// Flip-flops outside the register file (`r<number>_<bit>`).
fn not_register_file(name: &str) -> bool {
    !(name.starts_with('r') && name.as_bytes().get(1).is_some_and(u8::is_ascii_digit))
}

/// AVR `fib()` with a short trace, searched outside the register file.
fn avr_fib() -> Workload {
    Workload {
        source: || DesignSource::Builder {
            label: "avr-core",
            build: build_avr,
        },
        trace: || TraceSource::Avr {
            program: avr::programs::fib(Termination::Loop),
            dmem: Vec::new(),
        },
        cycles: 200,
        wires: || WireSetSpec::FilteredFfs {
            id: "not-register-file",
            keep: not_register_file,
        },
        top_n: 5,
        campaign: CampaignConfig {
            cycles: 64,
            sample: Some(64),
            seed: 1,
            ..CampaignConfig::default()
        },
    }
}

/// An evaluation report as comparable values.
type Eval = (PruneMatrix, Vec<usize>, usize, u64, u64);

fn eval_values(report: &EvalReport) -> Eval {
    (
        report.matrix.clone(),
        report.triggers.clone(),
        report.effective,
        report.avg_inputs.to_bits(),
        report.std_inputs.to_bits(),
    )
}

/// Every value the flow returns, except the search's wall-clock times.
#[derive(Debug, PartialEq)]
struct Values {
    design: String,
    gmt: GmtReport,
    mates: MateSet,
    search_counters: [u64; 7],
    trace: WaveTrace,
    eval: Eval,
    selected: MateSet,
    eval_selected: Eval,
    campaign: Vec<(FaultPoint, FaultEffect)>,
    analysis: AnalysisReport,
}

/// The stages of one flow run, in order.
const STAGES: [&str; 9] = [
    "load-design",
    "gmt-library",
    "mate-search",
    "trace-capture",
    "evaluate",
    "select",
    "evaluate",
    "campaign",
    "analyze",
];

/// Runs every stage of the paper's flow over `store`.
fn run_flow(store: ArtifactStore, w: &Workload) -> (Values, RunSummary) {
    let mut flow = Flow::new(store, (w.source)()).unwrap();
    let design = to_verilog(&flow.design().netlist);
    let gmt = flow.gmt_library().unwrap().value;
    let search = flow.search((w.wires)(), SearchConfig::default()).unwrap();
    let s = &search.value.stats;
    let search_counters = [
        s.faulty_wires as u64,
        s.avg_cone.to_bits(),
        s.median_cone as u64,
        s.unmaskable as u64,
        s.candidates,
        s.num_mates as u64,
        s.gmt_entries as u64,
    ];
    let mates = (&search.value.mates, search.key);
    let trace = flow.capture((w.trace)(), w.cycles).unwrap();
    let eval = flow.evaluate((w.wires)(), mates, trace.part()).unwrap();
    let selected = flow
        .select((w.wires)(), w.top_n, mates, trace.part())
        .unwrap();
    let eval_selected = flow
        .evaluate((w.wires)(), selected.part(), trace.part())
        .unwrap();
    let campaign = flow
        .campaign((w.trace)(), w.campaign, Some((w.wires)()))
        .unwrap();
    let analysis = flow
        .analyze(selected.part(), VerifyConfig::default())
        .unwrap();
    let summary = flow.into_summary();
    let stages: Vec<&str> = summary.records.iter().map(|r| r.stage.as_str()).collect();
    assert_eq!(stages, STAGES);
    let values = Values {
        design,
        gmt,
        mates: search.value.mates,
        search_counters,
        trace: trace.value,
        eval: eval_values(&eval.value),
        selected: selected.value,
        eval_selected: eval_values(&eval_selected.value),
        campaign: campaign.value.records,
        analysis: analysis.value,
    };
    (values, summary)
}

/// The files of one run's artifacts, in stage order.
fn files(store: &ArtifactStore, summary: &RunSummary) -> Vec<PathBuf> {
    summary
        .records
        .iter()
        .map(|r| store.path(&r.stage, &r.key))
        .collect()
}

/// Bytes of the seal in front of every payload.
const HEADER: usize = 40;

/// Damage cases per file: seven bit flips, then six cuts.
const CASES: usize = 13;

/// Damage case `case` of a sealed `file`: a bit flipped in each seal field
/// (magic, key, payload length, checksum) and in the first, a middle and
/// the last payload byte; then the file cut at every seal boundary and one
/// byte short of whole.
fn damaged(case: usize, file: &[u8]) -> (String, Vec<u8>) {
    let payload = file.len() - HEADER;
    assert!(payload > 0, "every stage writes a payload");
    let flips = [0, 8, 24, 32, HEADER, HEADER + payload / 2, file.len() - 1];
    let cuts = [0, 8, 24, 32, HEADER, file.len() - 1];
    if let Some(&at) = flips.get(case) {
        let mut bad = file.to_vec();
        bad[at] ^= 0x10;
        (format!("bit 4 of byte {at} flipped"), bad)
    } else {
        let cut = cuts[case - flips.len()];
        (format!("cut to {cut} bytes"), file[..cut].to_vec())
    }
}

/// Plants a warm store, then damages each stage's file in each way in
/// turn.  Every run must recompute exactly the damaged stage and return
/// the cold values; since the next run damages another file, it also
/// checks that the recomputed file is served.
fn damage_matrix(tag: &str, w: &Workload) {
    let scratch = Scratch::new(tag);
    let store = scratch.store();
    let (cold, summary) = run_flow(store.clone(), w);
    assert_eq!(
        summary.hits(),
        0,
        "{tag}: the first run computes\n{summary}"
    );
    let files = files(&store, &summary);
    for case in 0..CASES {
        for (target, path) in files.iter().enumerate() {
            let (what, bad) = damaged(case, &fs::read(path).unwrap());
            fs::write(path, bad).unwrap();
            let (values, summary) = run_flow(store.clone(), w);
            for (i, record) in summary.records.iter().enumerate() {
                assert_eq!(
                    record.cached,
                    i != target,
                    "{tag}, {} file {what}: only it may rerun\n{summary}",
                    STAGES[target]
                );
            }
            assert!(
                values == cold,
                "{tag}, {} file {what}: results changed",
                STAGES[target]
            );
        }
    }
    let (values, summary) = run_flow(store, w);
    assert!(summary.all_cached(), "{tag}: {summary}");
    assert!(values == cold);
}

#[test]
fn damaged_files_of_every_stage_are_recomputed_on_tmr() {
    damage_matrix("tmr", &tmr());
}

#[test]
fn damaged_files_of_every_stage_are_recomputed_on_figure1b() {
    damage_matrix("figure1b", &figure1b_workload());
}

#[test]
fn damaged_files_of_every_stage_are_recomputed_on_avr_fib() {
    damage_matrix("avr", &avr_fib());
}

/// The line damage of the text artifacts that used to carry record
/// counts: each `mate-search`, `select` and `analyze` payload cut at every
/// line boundary short of whole, then each line deleted in turn, then (for
/// `analyze`) a header from the previous format — each written to the
/// file behind its original seal.
#[test]
fn truncated_or_line_dropped_text_files_are_recomputed() {
    let w = figure1b_workload();
    let scratch = Scratch::new("lines");
    let store = scratch.store();
    let (cold, summary) = run_flow(store.clone(), &w);
    assert_eq!(cold.mates.len(), 3, "figure1b has three MATEs");
    let files = files(&store, &summary);
    for stage in ["mate-search", "select", "analyze"] {
        let target = STAGES.iter().position(|&s| s == stage).unwrap();
        let valid = fs::read(&files[target]).unwrap();
        let (seal, payload) = valid.split_at(HEADER);
        let text = std::str::from_utf8(payload).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let joined = |keep: &dyn Fn(usize) -> bool| -> String {
            lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| keep(i))
                .flat_map(|(_, l)| [*l, "\n"])
                .collect()
        };
        let mut damaged: Vec<String> = (0..lines.len()).map(|cut| joined(&|i| i < cut)).collect();
        damaged.extend((0..lines.len()).map(|gone| joined(&|i| i != gone)));
        if stage == "analyze" {
            damaged.push(text.replacen("# analyze v4 ", "# analyze v3 ", 1));
        }
        for bad in damaged {
            fs::write(&files[target], [seal, bad.as_bytes()].concat()).unwrap();
            let (values, summary) = run_flow(store.clone(), &w);
            let record = &summary.records[target];
            assert!(!record.cached, "{stage}: a damaged file was served:\n{bad}");
            assert!(values == cold, "{stage}: result changed:\n{bad}");
            // Select and analyze are deterministic to the byte; the search
            // header also records the recomputing run's timings.
            if stage != "mate-search" {
                assert_eq!(fs::read(&files[target]).unwrap(), valid, "{stage}");
            }
            let (values, summary) = run_flow(store.clone(), &w);
            assert!(summary.all_cached(), "{stage}: not healed\n{summary}");
            assert!(values == cold);
        }
    }
}

/// One changed hex word of a cached prune matrix still parses, so only
/// the seal can tell it from the cold matrix of 600 masked points on the
/// TMR register.
#[test]
fn a_changed_prune_matrix_word_on_disk_is_recomputed() {
    let w = tmr();
    let scratch = Scratch::new("hex-word");
    let store = scratch.store();
    let (cold, summary) = run_flow(store.clone(), &w);
    assert_eq!(cold.eval.0.masked_points(), 600);
    let target = STAGES.iter().position(|&s| s == "evaluate").unwrap();
    let path = &files(&store, &summary)[target];
    let text = String::from_utf8(fs::read(path).unwrap()[HEADER..].to_vec()).unwrap();
    let row = text.lines().nth(2).expect("a matrix row");
    let (name, words) = row.split_once(' ').unwrap();
    let changed = format!("{name} {}", words.replacen('f', "a", 1));
    assert_ne!(changed, row);
    let mut file = fs::read(path).unwrap();
    file.truncate(HEADER);
    file.extend_from_slice(text.replacen(row, &changed, 1).as_bytes());
    fs::write(path, file).unwrap();

    let (values, summary) = run_flow(store, &w);
    assert!(!summary.records[target].cached, "{summary}");
    assert_eq!(values.eval.0.masked_points(), 600);
    assert!(values == cold);
}

/// A sealed payload that does not fit the stage's input — planted with
/// `save`, as a faulty encoder would write it — fails to decode without a
/// panic, and the stage recomputes.
#[test]
fn sealed_payloads_that_do_not_fit_are_recomputed() {
    let w = tmr();
    let scratch = Scratch::new("sealed");
    let store = scratch.store();
    let (cold, summary) = run_flow(store.clone(), &w);
    let payload = |target: usize| {
        let record = &summary.records[target];
        let artifact = store.load(&record.stage, &record.key).unwrap().unwrap();
        String::from_utf8(artifact.to_vec()).unwrap()
    };
    let search = STAGES.iter().position(|&s| s == "mate-search").unwrap();
    let evaluate = STAGES.iter().position(|&s| s == "evaluate").unwrap();

    let eval = payload(evaluate);
    let rows: Vec<&str> = eval.lines().skip(2).collect();
    let drop_last_word = |row: &str| row.rsplit_once(' ').unwrap().0.to_owned();
    let mut cases = vec![
        // A word appended to a row: `PruneMatrix::mark_cycle_word` panics
        // on a word past the row's end.
        (
            evaluate,
            eval.replacen(rows[0], &format!("{} 0", rows[0]), 1),
        ),
        // A row one word short.
        (
            evaluate,
            eval.replacen(rows[0], &drop_last_word(rows[0]), 1),
        ),
        // Bits past the trace's last cycle (200 = 3 * 64 + 8).
        (
            evaluate,
            eval.replacen(rows[0], &format!("{} ffff", drop_last_word(rows[0])), 1),
        ),
        // Rows out of order, and a row missing.
        (
            evaluate,
            eval.replacen(rows[0], "@", 1)
                .replacen(rows[1], rows[0], 1)
                .replacen('@', rows[1], 1),
        ),
        (evaluate, eval.replacen(&format!("{}\n", rows[2]), "", 1)),
        // A trigger count dropped.
        (evaluate, {
            let triggers = eval.lines().nth(1).unwrap();
            eval.replacen(triggers, &drop_last_word(triggers), 1)
        }),
    ];
    // Search times `Duration::from_secs_f64` panics on.
    let search_text = payload(search);
    let header = search_text.lines().next().unwrap();
    let run_time = header
        .split_whitespace()
        .find(|f| f.starts_with("run_time="))
        .unwrap();
    for bad in ["run_time=-1", "run_time=1e300", "run_time=NaN"] {
        cases.push((search, search_text.replacen(run_time, bad, 1)));
    }

    for (target, bad) in cases {
        let record = &summary.records[target];
        store
            .save(&record.stage, &record.key, bad.as_bytes())
            .unwrap();
        let (values, again) = run_flow(store.clone(), &w);
        assert!(
            !again.records[target].cached,
            "{}: a payload that does not fit was served:\n{bad}",
            record.stage
        );
        assert!(values == cold, "{}: result changed", record.stage);
    }
}

/// The valid payload of every stage on the TMR register, with what its
/// decoder needs.
struct Fixture {
    design: Design,
    mates: MateSet,
    trace: WaveTrace,
    /// `(stage, payload)`, one per decoder; the design also as Yosys
    /// JSON, under `load-design/json`.
    payloads: Vec<(&'static str, Vec<u8>)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scratch = Scratch::new("fixture");
        let store = scratch.store();
        let w = tmr();
        let (values, summary) = run_flow(store.clone(), &w);
        // The evaluation of the selection (record 6) is left out: it
        // decodes against the selected set, not `mates`.
        let mut payloads: Vec<(&'static str, Vec<u8>)> = summary
            .records
            .iter()
            .zip(STAGES)
            .filter(|&(r, _)| r.key != summary.records[6].key)
            .map(|(r, stage)| (stage, store.load(stage, &r.key).unwrap().unwrap().to_vec()))
            .collect();
        let (netlist, topology) = tmr_register();
        payloads.push(("load-design/json", to_yosys_json(&netlist).into_bytes()));
        Fixture {
            design: Design { netlist, topology },
            mates: values.mates,
            trace: values.trace,
            payloads,
        }
    })
}

/// Decodes `bytes` as a `stage` artifact of the fixture; `true` when it
/// decodes.
fn decodes(f: &Fixture, stage: &str, bytes: &[u8]) -> bool {
    let design = &f.design;
    let joint = (design, &f.mates, &f.trace);
    let spec = WireSetSpec::AllFfs;
    match stage {
        "load-design" => LoadDesign {
            source: DesignSource::Verilog {
                label: String::new(),
                text: String::new(),
            },
        }
        .decode(&(), bytes)
        .is_ok(),
        "load-design/json" => LoadDesign {
            source: DesignSource::YosysJson {
                path: PathBuf::new(),
                top: None,
            },
        }
        .decode(&(), bytes)
        .is_ok(),
        "gmt-library" => GmtLibrary.decode(&design, bytes).is_ok(),
        "mate-search" => MateSearch {
            wires: spec,
            config: SearchConfig::default(),
        }
        .decode(&design, bytes)
        .is_ok(),
        "trace-capture" => TraceCapture {
            source: (tmr().trace)(),
            cycles: 200,
        }
        .decode(&design, bytes)
        .is_ok(),
        "evaluate" => Evaluate { wires: spec }.decode(&joint, bytes).is_ok(),
        "select" => Select {
            wires: spec,
            top_n: 2,
        }
        .decode(&joint, bytes)
        .is_ok(),
        "campaign" => Campaign {
            source: (tmr().trace)(),
            config: tmr().campaign,
            wires: None,
        }
        .decode(&design, bytes)
        .is_ok(),
        "analyze" => Analyze {
            config: VerifyConfig::default(),
        }
        .decode(&(design, &f.mates), bytes)
        .is_ok(),
        other => panic!("no decoder for `{other}`"),
    }
}

#[test]
fn every_valid_payload_decodes() {
    let f = fixture();
    for (stage, payload) in &f.payloads {
        assert!(decodes(f, stage, payload), "{stage}");
    }
}

proptest! {
    /// No decoder panics on a single changed byte of its stage's valid
    /// payload.
    #[test]
    fn mutated_payloads_never_panic_a_decoder(at in 0usize..1_000_000, xor in 1u8..=255) {
        let f = fixture();
        for (stage, payload) in &f.payloads {
            let mut bad = payload.clone();
            let at = at % bad.len();
            bad[at] ^= xor;
            decodes(f, stage, &bad);
        }
    }

    /// No decoder panics on random bytes, behind a valid prefix or not.
    #[test]
    fn random_payloads_never_panic_a_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        prefix in 0usize..64,
    ) {
        let f = fixture();
        for (stage, payload) in &f.payloads {
            let keep = prefix.min(payload.len());
            let bad = [&payload[..keep], &bytes[..]].concat();
            decodes(f, stage, &bad);
        }
    }
}
