//! Regenerates Table 1: statistics of the heuristic MATE search for both
//! processors and both faulty-wire sets.
//!
//! Searches run through the artifact-cached pipeline, so re-runs (and the
//! other table binaries sharing the store) reuse the persisted results;
//! cached timing rows report the run that produced the artifact.  The
//! wall-clock rows print on `# ` lines, which the results drift check skips.
//!
//! ```text
//! cargo run -p mate-bench --bin table1 --release
//! ```

use mate_bench::{no_rf_spec, table_search_config, Core};
use mate_netlist::stats::NetlistStats;
use mate_pipeline::{Design, Flow, WireSetSpec};

fn main() {
    let config = table_search_config();
    println!("## Table 1: Statistic for the heuristic MATE search");
    println!("search parameters: {config:?}");
    println!();
    println!(
        "{:<26} {:>12} {:>12} {:>12} {:>12}",
        "", "AVR FF", "AVR w/o RF", "MSP430 FF", "MSP430 w/o RF"
    );

    let mut rows: Vec<[String; 4]> = vec![
        Default::default(), // faulty wires
        Default::default(), // avg cone
        Default::default(), // median cone
        Default::default(), // run time
        Default::default(), // unmaskable
        Default::default(), // candidates
        Default::default(), // mates
        Default::default(), // gmt entries
        Default::default(), // max wire time
        Default::default(), // total wire time
    ];

    let mut designs: Vec<(&'static str, Design)> = Vec::new();
    let mut col = 0usize;
    for core in [Core::Avr, Core::Msp430] {
        let mut flow = Flow::open_default(core.design_source()).expect("pipeline failure");
        for wires in [WireSetSpec::AllFfs, no_rf_spec()] {
            let s = flow
                .search(wires, config)
                .expect("pipeline failure")
                .value
                .stats;
            rows[0][col] = s.faulty_wires.to_string();
            rows[1][col] = format!("{:.0}", s.avg_cone);
            rows[2][col] = s.median_cone.to_string();
            rows[3][col] = format!("{:.1}s", s.run_time.as_secs_f64());
            rows[4][col] = s.unmaskable.to_string();
            rows[5][col] = format!("{:.1e}", s.candidates as f64);
            rows[6][col] = s.num_mates.to_string();
            rows[7][col] = s.gmt_entries.to_string();
            rows[8][col] = format!("{:.2}s", s.max_wire_time.as_secs_f64());
            rows[9][col] = format!("{:.1}s", s.total_wire_time.as_secs_f64());
            col += 1;
        }
        eprintln!("{}", flow.summary());
        designs.push((core.label(), flow.design().clone()));
    }

    // `true` marks a wall-clock row.
    for ((label, wall_clock), row) in [
        ("Faulty Wires", false),
        ("Avg. Cone [#gates]", false),
        ("Med. Cone [#gates]", false),
        ("Run Time", true),
        ("#Unmaskable", false),
        ("#MATE candidates", false),
        ("#MATE (per wire)", false),
        ("#GMT entries", false),
        ("Max Wire Time", true),
        ("Σ Wire Time", true),
    ]
    .iter()
    .zip(&rows)
    {
        let (prefix, width) = if *wall_clock { ("# ", 24) } else { ("", 26) };
        println!(
            "{prefix}{label:<width$} {:>12} {:>12} {:>12} {:>12}",
            row[0], row[1], row[2], row[3]
        );
    }

    println!();
    println!("netlist characteristics:");
    for (name, design) in &designs {
        let stats = NetlistStats::compute(&design.netlist, &design.topology);
        println!("  {name:<7} {stats}");
    }
}
