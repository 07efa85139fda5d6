//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! * path-enumeration depth (paper parameter 1),
//! * maximum terms per MATE (paper parameter 2),
//! * candidate budget (paper parameter 3),
//! * candidate-construction strategy (paper's combination search vs. this
//!   library's goal-directed repair),
//! * masked% as a function of the selected top-N (the saturation claim of
//!   Section 5.3).
//!
//! Runs on the AVR core with fib(); pass `--fast` for a reduced sweep.
//! Every search runs through the artifact-cached pipeline, so re-running
//! the sweep (or any table binary sharing the store) reuses prior results.
//! Each sweep's search times print on one `# ` line after its table, which
//! the results drift check skips.
//!
//! ```text
//! cargo run -p mate-bench --bin ablation --release
//! ```

use mate::eval::evaluate;
use mate::{select_top_n, SearchConfig, SearchStrategy};
use mate_bench::{table_search_config, Core, WireSets};
use mate_pipeline::{Flow, WireSetSpec};

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let cycles = if fast { 2000 } else { 8500 };

    let mut flow = Flow::open_default(Core::Avr.design_source()).expect("pipeline failure");
    let sets = {
        let design = flow.design();
        WireSets::of(&design.netlist, &design.topology)
    };
    let run = flow
        .capture(Core::Avr.fib(), cycles)
        .expect("pipeline failure")
        .value;
    let base = SearchConfig {
        max_candidates: if fast { 5_000 } else { 20_000 },
        ..table_search_config()
    };

    let mut measure = |cfg: &SearchConfig| -> (usize, usize, f64, f64, f64) {
        let out = flow
            .search(WireSetSpec::AllFfs, *cfg)
            .expect("pipeline failure")
            .value;
        let unmaskable = out.stats.unmaskable;
        let secs = out.stats.run_time.as_secs_f64();
        let all = 100.0 * evaluate(&out.mates, &run, &sets.all).masked_fraction();
        let norf = 100.0 * evaluate(&out.mates, &run, &sets.no_rf).masked_fraction();
        (out.mates.len(), unmaskable, all, norf, secs)
    };

    println!("## Ablations (AVR, fib(), {cycles} cycles)");
    println!("baseline config: {base:?}");
    println!();

    println!("### Path-enumeration depth");
    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>12}",
        "depth", "#MATEs", "#unmaskable", "FF %", "w/o RF %"
    );
    let depths: &[usize] = if fast { &[2, 5, 8] } else { &[2, 4, 6, 8, 10] };
    let mut times = Vec::new();
    for &depth in depths {
        let (m, u, all, norf, secs) = measure(&SearchConfig { depth, ..base });
        println!("{depth:>6} {m:>8} {u:>12} {all:>9.2}% {norf:>11.2}%");
        times.push(secs);
    }
    print_times(&times);

    println!();
    println!("### Maximum gate-masking terms per MATE");
    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>12}",
        "terms", "#MATEs", "#unmaskable", "FF %", "w/o RF %"
    );
    let terms: &[usize] = if fast {
        &[2, 4, 8]
    } else {
        &[1, 2, 4, 6, 8, 10]
    };
    let mut times = Vec::new();
    for &max_terms in terms {
        let (m, u, all, norf, secs) = measure(&SearchConfig { max_terms, ..base });
        println!("{max_terms:>6} {m:>8} {u:>12} {all:>9.2}% {norf:>11.2}%");
        times.push(secs);
    }
    print_times(&times);

    println!();
    println!("### Candidate budget per wire");
    println!(
        "{:>8} {:>8} {:>10} {:>12}",
        "budget", "#MATEs", "FF %", "w/o RF %"
    );
    let budgets: &[usize] = if fast {
        &[500, 2_000, 5_000]
    } else {
        &[1_000, 5_000, 20_000, 50_000]
    };
    let mut times = Vec::new();
    for &max_candidates in budgets {
        let (m, _, all, norf, secs) = measure(&SearchConfig {
            max_candidates,
            ..base
        });
        println!("{max_candidates:>8} {m:>8} {all:>9.2}% {norf:>11.2}%");
        times.push(secs);
    }
    print_times(&times);

    println!();
    println!("### Strategy: paper-style combination search vs. goal-directed repair");
    println!(
        "{:>12} {:>8} {:>12} {:>10} {:>12}",
        "strategy", "#MATEs", "#unmaskable", "FF %", "w/o RF %"
    );
    let mut times = Vec::new();
    for (name, strategy) in [
        ("exhaustive", SearchStrategy::Exhaustive),
        ("repair", SearchStrategy::Repair),
    ] {
        let (m, u, all, norf, secs) = measure(&SearchConfig { strategy, ..base });
        println!("{name:>12} {m:>8} {u:>12} {all:>9.2}% {norf:>11.2}%");
        times.push(secs);
    }
    print_times(&times);

    println!();
    println!("### Masked%% vs. selected top-N (w/o RF wire set)");
    let mates = flow
        .search(WireSetSpec::AllFfs, base)
        .expect("pipeline failure")
        .value
        .mates;
    let full = 100.0 * evaluate(&mates, &run, &sets.no_rf).masked_fraction();
    println!("{:>6} {:>10}", "N", "w/o RF %");
    for n in [1, 5, 10, 25, 50, 100, 200, 400] {
        let sel = select_top_n(&mates, &run, &sets.no_rf, n);
        let pct = 100.0 * evaluate(&sel, &run, &sets.no_rf).masked_fraction();
        println!("{n:>6} {pct:>9.2}%");
    }
    println!(
        "{:>6} {full:>9.2}%  (full set of {} MATEs)",
        "all",
        mates.len()
    );

    eprintln!("{}", flow.summary());
}

/// Prints one sweep's search times, in row order, on a `# ` line.
fn print_times(secs: &[f64]) {
    let times: Vec<String> = secs.iter().map(|s| format!("{s:.1}s")).collect();
    println!("# search time per row: {}", times.join(" "));
}
