//! MATE search and cross-program transfer on the MSP430 core: MATEs are
//! selected on the `fib()` trace and applied to the `conv()` trace — the
//! paper's cross-validation experiment (Table 3).
//!
//! Search and both traces come from the artifact-cached pipeline, so only
//! the first run pays for them.
//!
//! ```text
//! cargo run --release --example msp430_conv
//! ```

use fault_space_pruning::cores::msp430::programs;
use fault_space_pruning::cores::{Msp430System, Termination};
use fault_space_pruning::mate::prelude::*;
use fault_space_pruning::netlist::MateError;
use fault_space_pruning::pipeline::{Flow, WireSetSpec};
use mate_bench::Core;

fn main() -> Result<(), MateError> {
    let cycles = 8500;
    let mut flow = Flow::open_default(Core::Msp430.design_source())?;
    println!("core: {}", flow.design().netlist);

    let wires = WireSetSpec::AllFfs.resolve(flow.design())?;
    let config = SearchConfig {
        max_terms: 8,
        max_candidates: 20_000,
        ..SearchConfig::default()
    };
    println!("searching MATEs for {} flip-flops ...", wires.len());
    let search = flow.search(WireSetSpec::AllFfs, config)?;
    let mates = &search.value.mates;
    println!("  {} MATEs", mates.len());

    println!("running fib() and conv() for {cycles} cycles each ...");
    let fib = flow.capture(Core::Msp430.fib(), cycles)?;
    let conv = flow.capture(Core::Msp430.conv(), cycles)?;

    // Sanity: the convolution program computes the right outputs in its
    // first pass (check the memory region once it has been written).
    let halted_run = Msp430System::new()
        .run(&programs::conv(Termination::Halt), 40_000)
        .unwrap();
    let base = programs::CONV_Y_BASE as usize;
    assert_eq!(
        &halted_run.mem[base..base + programs::CONV_N as usize],
        &programs::conv_expected()[..],
        "conv() must compute the reference convolution"
    );

    for n in [10, 50, 100, 200] {
        // Select on fib(), evaluate on both traces (cross-validation).
        let subset = flow.select(WireSetSpec::AllFfs, n, (mates, search.key), fib.part())?;
        let on_fib = flow
            .evaluate(WireSetSpec::AllFfs, (&subset.value, subset.key), fib.part())?
            .value;
        let on_conv = flow
            .evaluate(
                WireSetSpec::AllFfs,
                (&subset.value, subset.key),
                conv.part(),
            )?
            .value;
        println!(
            "top-{n:<3} selected on fib(): prunes {:>5.2}% of fib() and {:>5.2}% of conv()",
            100.0 * on_fib.masked_fraction(),
            100.0 * on_conv.masked_fraction()
        );
    }
    println!();
    println!(
        "=> MATE subsets transfer between programs: the pruning a subset \
         achieves on the trace it was selected for carries over to the \
         other workload (the paper's portability claim)."
    );
    println!();
    println!("{}", flow.summary());
    Ok(())
}
