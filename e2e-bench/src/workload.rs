//! The benchmark's workloads: which design, program, fault set and flow
//! parameters each one runs, and the inputs it derives from `--seed`.
//!
//! Only the fields that define a workload are set here (trace and campaign
//! length, sampling, seed, thread count, top-N, search budget).  Every other
//! configuration field comes from the library's `Default`, so the benchmark
//! measures the shipped defaults.

use std::path::PathBuf;

use mate::SearchConfig;
use mate_analyze::VerifyConfig;
use mate_cores::{avr, msp430, AvrSystem, Msp430System, Termination};
use mate_hafi::CampaignConfig;
use mate_netlist::{Netlist, Topology};
use mate_pipeline::{DesignSource, TraceSource, WireSetSpec};

/// The evaluated design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// The AVR-like 2-stage core, elaborated in process.
    Avr,
    /// The MSP430-like multi-cycle core, elaborated in process.
    Msp430,
    /// The vendored 17-FF UART transmitter, ingested from Yosys JSON.
    UartTx,
}

/// The program (or stimulus) driving the design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    /// The looping `fib()` workload of the paper.
    Fib,
    /// The looping `conv()` workload of the paper.
    Conv,
    /// 8N1 frames whose bytes are drawn from `--seed`.
    Frames,
}

/// The faulty-wire set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireSet {
    /// Every flip-flop output ("FF").
    Ff,
    /// Flip-flops outside the register file ("FF w/o RF").
    FfNoRf,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in reports.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// The design under test.
    pub design: Design,
    /// The program driving it.
    pub program: Program,
    /// The fault set searched, evaluated and injected.
    pub wires: WireSet,
    /// Golden-trace length (the paper's 8500 cycles on the cores).
    pub trace_cycles: usize,
    /// Per-wire candidate budget of the MATE search.
    pub max_candidates: usize,
    /// How many MATEs the greedy selection keeps.
    pub top_n: usize,
    /// Campaign window: faults are injected in cycles `0..campaign_cycles`
    /// and classified within it.
    pub campaign_cycles: usize,
    /// Campaign points sampled with the seed (`None` = exhaustive).
    pub campaign_sample: Option<usize>,
}

/// MATE search depth (gates) for every workload.
const SEARCH_DEPTH: usize = 8;
/// Gate-masking terms per MATE for every workload.
const SEARCH_TERMS: usize = 8;
/// Cycles between two UART write strobes: one 40-cycle frame plus idle.
const FRAME_PERIOD: usize = 48;
/// Worker threads of every stage.  One, not two, on purpose: on a shared
/// 2-CPU host a stage split over both CPUs waits for whichever thread a
/// neighbour slowed, and at a fixed seed the cold pass then varied 13.5%
/// between runs (interquartile range over median) against 1.9% on one.
pub const THREADS: usize = 1;

/// The benchmark workloads, in report order.
///
/// Each is sized so that one repetition (a cold pass and five warm ones)
/// takes 2–5 s on one thread, which lets a 25 s run hold several.  The core
/// campaigns use the library's default 64-cycle window, because a latent
/// point is simulated to the end of the window.  The core selections keep
/// 2–5 MATEs, because each selected MATE costs seconds of SAT proof on the
/// MSP430; for the same reason the search-heavy workload runs on the AVR,
/// whose proofs are cheap.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "avr-fib-ff",
        why:
            "AVR fib() on the FF set: the campaign, which runs the checkpointed scalar injection path on a real core, does most of the work",
        design: Design::Avr,
        program: Program::Fib,
        wires: WireSet::Ff,
        trace_cycles: 8500,
        max_candidates: 1000,
        top_n: 5,
        campaign_cycles: 64,
        campaign_sample: Some(1536),
    },
    Workload {
        name: "avr-conv-ff",
        why: "AVR conv() on the FF set with a deep search budget: the MATE search, the paper's own algorithm, does most of the work",
        design: Design::Avr,
        program: Program::Conv,
        wires: WireSet::Ff,
        trace_cycles: 8500,
        max_candidates: 4000,
        top_n: 3,
        campaign_cycles: 64,
        campaign_sample: Some(256),
    },
    Workload {
        name: "msp430-conv-norf",
        why: "MSP430 conv() on FF w/o RF: SAT certification of the selected MATEs does most of the work",
        design: Design::Msp430,
        program: Program::Conv,
        wires: WireSet::FfNoRf,
        trace_cycles: 8500,
        max_candidates: 2000,
        top_n: 2,
        campaign_cycles: 64,
        campaign_sample: Some(512),
    },
    Workload {
        name: "uart_tx-exhaustive",
        why: "ingested Yosys uart_tx, exhaustive campaign on the wide collapse engine; search and proofs are near zero, store traffic is heavy",
        design: Design::UartTx,
        program: Program::Frames,
        wires: WireSet::Ff,
        trace_cycles: 32_768,
        max_candidates: 2000,
        top_n: 20,
        campaign_cycles: 32_768,
        campaign_sample: None,
    },
];

/// The reduced workload `--smoke` runs: the UART at 1024 cycles.
pub const SMOKE: Workload = Workload {
    name: "uart_tx-smoke",
    why: "fast self-check of the benchmark itself",
    trace_cycles: 1024,
    campaign_cycles: 1024,
    ..WORKLOADS[3]
};

/// Looks a workload up by name (the smoke workload included).
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS
        .iter()
        .chain(std::iter::once(&SMOKE))
        .find(|w| w.name == name)
        .copied()
}

fn build_avr() -> (Netlist, Topology) {
    let sys = AvrSystem::new();
    (sys.netlist().clone(), sys.topology().clone())
}

fn build_msp430() -> (Netlist, Topology) {
    let sys = Msp430System::new();
    (sys.netlist().clone(), sys.topology().clone())
}

/// `true` for general-purpose register-file nets (`r<number>_<bit>`).
fn is_register_file(name: &str) -> bool {
    name.starts_with('r') && name.as_bytes().get(1).is_some_and(u8::is_ascii_digit)
}

fn keep_no_rf(name: &str) -> bool {
    !is_register_file(name)
}

/// Path of the vendored UART netlist.
fn uart_tx_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../vendor/netlists/uart_tx/uart_tx.json"
    ))
}

/// SplitMix64: a tiny deterministic generator for seed-derived inputs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// UART stimulus: reset, then one write strobe per [`FRAME_PERIOD`] cycles,
/// each carrying the next byte of a stream drawn from `seed`.
fn uart_frames(cycles: usize, seed: u64) -> Vec<(String, Vec<bool>)> {
    let mut state = seed;
    let bytes: Vec<u8> = (0..=cycles / FRAME_PERIOD)
        .map(|_| splitmix64(&mut state) as u8)
        .collect();
    let mut waves = vec![
        ("rst".to_owned(), vec![true, false]),
        (
            "wr".to_owned(),
            (0..=cycles)
                .map(|c| c >= 2 && (c - 2) % FRAME_PERIOD == 0)
                .collect(),
        ),
    ];
    for bit in 0..8 {
        waves.push((
            format!("din[{bit}]"),
            (0..=cycles)
                .map(|c| bytes[c / FRAME_PERIOD] >> bit & 1 == 1)
                .collect(),
        ));
    }
    waves
}

impl Workload {
    /// The design as a pipeline source.
    pub fn design_source(&self) -> DesignSource {
        match self.design {
            Design::Avr => DesignSource::Builder {
                label: "avr-core",
                build: build_avr,
            },
            Design::Msp430 => DesignSource::Builder {
                label: "msp430-core",
                build: build_msp430,
            },
            Design::UartTx => DesignSource::YosysJson {
                path: uart_tx_path(),
                top: None,
            },
        }
    }

    /// The program or stimulus, derived from `seed` where it has free inputs.
    pub fn trace_source(&self, seed: u64) -> TraceSource {
        match (self.design, self.program) {
            (Design::Avr, Program::Fib) => TraceSource::Avr {
                program: avr::programs::fib(Termination::Loop),
                dmem: Vec::new(),
            },
            (Design::Avr, _) => {
                let (program, dmem) = avr::programs::conv(Termination::Loop);
                TraceSource::Avr { program, dmem }
            }
            (Design::Msp430, Program::Fib) => TraceSource::Msp430 {
                image: msp430::programs::fib(Termination::Loop),
            },
            (Design::Msp430, _) => TraceSource::Msp430 {
                image: msp430::programs::conv(Termination::Loop),
            },
            (Design::UartTx, _) => TraceSource::Stimuli {
                waves: uart_frames(self.trace_cycles.max(self.campaign_cycles), seed),
            },
        }
    }

    /// The fault set as a pipeline spec.
    pub fn wire_spec(&self) -> WireSetSpec {
        match self.wires {
            WireSet::Ff => WireSetSpec::AllFfs,
            WireSet::FfNoRf => WireSetSpec::FilteredFfs {
                id: "no-register-file",
                keep: keep_no_rf,
            },
        }
    }

    /// The MATE search configuration.
    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            depth: SEARCH_DEPTH,
            max_terms: SEARCH_TERMS,
            max_candidates: self.max_candidates,
            threads: THREADS,
            ..SearchConfig::default()
        }
    }

    /// The campaign configuration; the sample is drawn with `seed`.
    pub fn campaign_config(&self, seed: u64) -> CampaignConfig {
        CampaignConfig {
            cycles: self.campaign_cycles,
            sample: self.campaign_sample,
            seed,
            threads: THREADS,
            ..CampaignConfig::default()
        }
    }

    /// The proof configuration of the analyze stage.
    pub fn verify_config() -> VerifyConfig {
        VerifyConfig {
            threads: THREADS,
            ..VerifyConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_file_filter() {
        assert!(is_register_file("r0_0"));
        assert!(is_register_file("r15_7"));
        assert!(!is_register_file("res_0"));
        assert!(!is_register_file("pc_1"));
    }

    #[test]
    fn uart_frames_follow_the_seed() {
        let a = uart_frames(512, 1);
        assert_eq!(a, uart_frames(512, 1));
        assert_ne!(a, uart_frames(512, 2));
        assert!(a.iter().all(|(_, v)| v.len() >= 2));
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
