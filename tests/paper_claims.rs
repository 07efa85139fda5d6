//! Qualitative claims of the paper's evaluation, asserted as tests (with a
//! reduced search budget and shorter traces so they run inside `cargo
//! test`; the full-scale numbers live in the `table1`..`table3` binaries and
//! EXPERIMENTS.md).

use fault_space_pruning::cores::avr::programs as avr_programs;
use fault_space_pruning::cores::msp430::programs as msp_programs;
use fault_space_pruning::cores::{AvrSystem, Msp430System, Termination};
use fault_space_pruning::hafi::LutCostModel;
use fault_space_pruning::mate::eval::evaluate;
use fault_space_pruning::mate::prelude::*;
use mate_bench::is_register_file;

const CYCLES: usize = 1200;

fn test_config() -> SearchConfig {
    SearchConfig {
        max_terms: 8,
        max_candidates: 3_000,
        ..SearchConfig::default()
    }
}

struct CoreEval {
    masked_all: f64,
    masked_norf: f64,
    effective: usize,
    avg_inputs: f64,
    mates: MateSet,
    trace: mate_sim::WaveTrace,
    conv_trace: mate_sim::WaveTrace,
    wires_all: Vec<mate_netlist::NetId>,
    wires_norf: Vec<mate_netlist::NetId>,
}

fn eval_avr() -> &'static CoreEval {
    static CACHE: std::sync::OnceLock<CoreEval> = std::sync::OnceLock::new();
    CACHE.get_or_init(eval_avr_uncached)
}

fn eval_avr_uncached() -> CoreEval {
    let sys = AvrSystem::new();
    let wires_all = ff_wires(sys.netlist(), sys.topology());
    let wires_norf = ff_wires_filtered(sys.netlist(), sys.topology(), |n| !is_register_file(n));
    let mates =
        search_design(sys.netlist(), sys.topology(), &wires_all, &test_config()).into_mate_set();
    let fib = sys
        .run(&avr_programs::fib(Termination::Loop), &[], CYCLES)
        .unwrap();
    let (conv_prog, conv_dmem) = avr_programs::conv(Termination::Loop);
    let conv = sys.run(&conv_prog, &conv_dmem, CYCLES).unwrap();
    let all = evaluate(&mates, &fib.trace, &wires_all);
    let norf = evaluate(&mates, &fib.trace, &wires_norf);
    CoreEval {
        masked_all: all.masked_fraction(),
        masked_norf: norf.masked_fraction(),
        effective: all.effective,
        avg_inputs: all.avg_inputs,
        mates,
        trace: fib.trace,
        conv_trace: conv.trace,
        wires_all,
        wires_norf,
    }
}

fn eval_msp() -> &'static CoreEval {
    static CACHE: std::sync::OnceLock<CoreEval> = std::sync::OnceLock::new();
    CACHE.get_or_init(eval_msp_uncached)
}

fn eval_msp_uncached() -> CoreEval {
    let sys = Msp430System::new();
    let wires_all = ff_wires(sys.netlist(), sys.topology());
    let wires_norf = ff_wires_filtered(sys.netlist(), sys.topology(), |n| !is_register_file(n));
    let mates =
        search_design(sys.netlist(), sys.topology(), &wires_all, &test_config()).into_mate_set();
    let fib = sys
        .run(&msp_programs::fib(Termination::Loop), CYCLES)
        .unwrap();
    let conv = sys
        .run(&msp_programs::conv(Termination::Loop), CYCLES)
        .unwrap();
    let all = evaluate(&mates, &fib.trace, &wires_all);
    let norf = evaluate(&mates, &fib.trace, &wires_norf);
    CoreEval {
        masked_all: all.masked_fraction(),
        masked_norf: norf.masked_fraction(),
        effective: all.effective,
        avg_inputs: all.avg_inputs,
        mates,
        trace: fib.trace,
        conv_trace: conv.trace,
        wires_all,
        wires_norf,
    }
}

/// Section 6.3: "the number of faults masked within one clock cycle is
/// considerably higher if we exclude the register-file flip-flops" — on
/// both cores.
#[test]
fn excluding_register_file_raises_masked_fraction() {
    let avr = eval_avr();
    assert!(
        avr.masked_norf > 2.0 * avr.masked_all,
        "AVR: {} vs {}",
        avr.masked_norf,
        avr.masked_all
    );
    assert!(avr.masked_all > 0.01, "AVR must prune a nontrivial share");

    let msp = eval_msp();
    assert!(
        msp.masked_norf > 2.0 * msp.masked_all,
        "MSP430: {} vs {}",
        msp.masked_norf,
        msp.masked_all
    );
    assert!(msp.masked_all > 0.01);
    assert!(msp.effective > 0 && avr.effective > 0);
}

/// Section 6.1: effective MATEs average fewer inputs than a LUT6 provides,
/// and a 50-MATE subset costs a negligible number of LUTs compared to the
/// published FI controllers.
#[test]
fn mate_hardware_cost_is_negligible() {
    let avr = eval_avr();
    assert!(
        avr.avg_inputs < 8.5,
        "avg inputs {} must stay small",
        avr.avg_inputs
    );
    let top50 = select_top_n(&avr.mates, &avr.trace, &avr.wires_norf, 50);
    let model = LutCostModel::default();
    let luts = model.luts_for_set(&top50);
    assert!(luts <= 200, "50 MATEs cost {luts} LUTs");
    assert!(model.relative_overhead(&top50) < 0.15);
}

/// Section 5.3: a small top-N subset achieves most of the full-set pruning,
/// and subsets transfer across programs.
#[test]
fn top50_approaches_full_set_and_transfers() {
    let avr = eval_avr();
    let full = evaluate(&avr.mates, &avr.trace, &avr.wires_norf).masked_fraction();
    let top50 = select_top_n(&avr.mates, &avr.trace, &avr.wires_norf, 50);
    let small = evaluate(&top50, &avr.trace, &avr.wires_norf).masked_fraction();
    assert!(
        small > 0.6 * full,
        "top-50 ({small}) must recover most of the full set ({full})"
    );

    // Cross-validation: the subset selected on fib() still prunes conv().
    let on_conv = evaluate(&top50, &avr.conv_trace, &avr.wires_norf).masked_fraction();
    assert!(
        on_conv > 0.3 * small,
        "fib-selected subset must transfer to conv ({on_conv} vs {small})"
    );
}

/// Increasing top-N can never reduce the pruned fraction, and selection is
/// deterministic.
#[test]
fn selection_is_monotone_and_deterministic() {
    let msp = eval_msp();
    let mut last = 0.0;
    for n in [5, 20, 80] {
        let sel = select_top_n(&msp.mates, &msp.trace, &msp.wires_all, n);
        let frac = evaluate(&sel, &msp.trace, &msp.wires_all).masked_fraction();
        assert!(frac >= last, "top-{n}: {frac} < {last}");
        last = frac;
    }
    let a = select_top_n(&msp.mates, &msp.trace, &msp.wires_all, 10);
    let b = select_top_n(&msp.mates, &msp.trace, &msp.wires_all, 10);
    assert_eq!(a, b);
}
