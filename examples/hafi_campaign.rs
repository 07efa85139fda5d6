//! A complete hardware-assisted fault-injection campaign, with and without
//! MATE pruning: the end-to-end use case the paper targets.
//!
//! The campaign injects SEUs into the AVR core running `fib()`; MATE
//! pruning removes the points that are provably benign *before* any
//! experiment runs, and the remaining experiments are classified against
//! the golden run.  The offline half (search, trace, prune matrix) runs
//! through the artifact-cached pipeline; the injection loop itself calls the
//! batched engine directly, which replays the memories' responses from the
//! golden trace.
//!
//! ```text
//! cargo run --release --example hafi_campaign
//! ```

use fault_space_pruning::cores::avr::programs;
use fault_space_pruning::cores::{AvrWorkload, Termination};
use fault_space_pruning::hafi::{classify_points, golden_run, CommandModel, FaultSpace};
use fault_space_pruning::mate::prelude::*;
use fault_space_pruning::netlist::MateError;
use fault_space_pruning::pipeline::{Flow, WireSetSpec};
use mate_bench::Core;

fn main() -> Result<(), MateError> {
    let cycles = 300;
    let sample = 400; // experiments to run from the (pruned) space

    let mut flow = Flow::open_default(Core::Avr.design_source())?;
    let wires = WireSetSpec::AllFfs.resolve(flow.design())?;
    let space = FaultSpace::all_ffs(&flow.design().netlist, &flow.design().topology, cycles);
    println!(
        "fault space: {} flip-flops x {} cycles = {} points",
        wires.len(),
        cycles,
        space.len()
    );

    // Offline analysis + golden trace, served from the artifact store on
    // re-runs.
    let config = SearchConfig {
        max_terms: 8,
        max_candidates: 5_000,
        ..SearchConfig::default()
    };
    let search = flow.search(WireSetSpec::AllFfs, config)?;
    let mates = &search.value.mates;
    let trace = flow.capture(Core::Avr.fib(), cycles)?;
    let report = flow
        .evaluate(WireSetSpec::AllFfs, (mates, search.key), trace.part())?
        .value;
    println!(
        "MATE pruning: {} ({} MATEs, {} effective)",
        report.matrix,
        mates.len(),
        report.effective
    );

    // The campaign: sample points, skip pruned ones, classify the rest in
    // one batch, 64 points per lane word.
    let workload = AvrWorkload::new(programs::fib(Termination::Loop), vec![]);
    let golden = golden_run(&workload, cycles + 1)?;
    let points = space.sample(sample, 2026);
    let (pruned, to_run): (Vec<_>, Vec<_>) = points
        .into_iter()
        .partition(|point| report.matrix.is_masked(point.wire, point.cycle));
    let skipped = pruned.len();
    let mut histogram = std::collections::BTreeMap::<&str, usize>::new();
    for effect in classify_points(&workload, &golden, &to_run)? {
        let key = match effect {
            fault_space_pruning::hafi::FaultEffect::MaskedWithinOneCycle => "masked-1-cycle",
            fault_space_pruning::hafi::FaultEffect::SilentRecovery { .. } => "silent-recovery",
            fault_space_pruning::hafi::FaultEffect::Latent => "latent",
            fault_space_pruning::hafi::FaultEffect::OutputFailure { .. } => "output-failure",
        };
        *histogram.entry(key).or_insert(0) += 1;
    }

    println!();
    println!("campaign over {sample} sampled points:");
    println!("  skipped by MATE pruning : {skipped}");
    for (k, v) in &histogram {
        println!("  {k:<24}: {v}");
    }
    let saved = 100.0 * skipped as f64 / sample as f64;
    println!("  => {saved:.1}% of the experiments never had to run");

    // The distributed-campaign bandwidth argument from Section 1.1.
    let cmd = CommandModel::for_space(cycles, wires.len());
    println!();
    println!(
        "command bandwidth: coarse inject(cycle) commands save {:.0}% over \
         inject(cycle, wire) when the FPGA prunes online",
        100.0 * cmd.savings(sample)
    );
    println!();
    println!("{}", flow.summary());
    Ok(())
}
