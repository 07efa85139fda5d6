//! MATE-search throughput of the production engine (incremental
//! trust propagation over a reusable scratch), per strategy, on the AVR and
//! MSP430 cores.
//!
//! Besides the criterion reporting, the bench emits a machine-readable
//! `BENCH_search.json` at the workspace root.  The search is timed on a
//! single thread so the rate measures the propagation engine, not the
//! scheduler; `host_cpus` is recorded for honesty even though the timed
//! runs do not use the extra cores.  The from-scratch reference engine is
//! compared against this search by the `mate` crate's unit tests, not
//! here.

use std::time::Instant;

use criterion::{is_quick_test, Criterion, Throughput};

use mate::{ff_wires, search_design, SearchConfig, SearchStrategy};
use mate_cores::{AvrSystem, Msp430System};
use mate_netlist::{NetId, Netlist, Topology};
use mate_pipeline::ENGINE_LAYOUT_VERSION;

/// Best-of-`reps` wall-clock seconds.
fn best_secs(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct StrategyMeasured {
    strategy: &'static str,
    wires: usize,
    candidates: u64,
    mates: usize,
    candidates_per_sec: f64,
}

fn bench_config(strategy: SearchStrategy, quick: bool) -> SearchConfig {
    SearchConfig {
        max_terms: if quick { 4 } else { 8 },
        max_candidates: if quick { 100 } else { 2_000 },
        threads: 1,
        strategy,
        ..SearchConfig::default()
    }
}

fn measure_design(
    c: &mut Criterion,
    name: &str,
    netlist: &Netlist,
    topo: &Topology,
    wires: &[NetId],
    quick: bool,
) -> Vec<StrategyMeasured> {
    let mut measured = Vec::new();
    for (label, strategy) in [
        ("repair", SearchStrategy::Repair),
        ("exhaustive", SearchStrategy::Exhaustive),
    ] {
        let config = bench_config(strategy, quick);
        let stats = search_design(netlist, topo, wires, &config).stats;

        let group_name = format!("search_{name}_{label}");
        let mut group = c.benchmark_group(&group_name);
        group.sample_size(10);
        group.throughput(Throughput::Elements(stats.candidates));
        group.bench_function("optimized", |b| {
            b.iter(|| search_design(netlist, topo, wires, &config));
        });
        group.finish();

        let reps = if quick { 1 } else { 3 };
        let secs = best_secs(reps, || {
            search_design(netlist, topo, wires, &config);
        });
        measured.push(StrategyMeasured {
            strategy: label,
            wires: wires.len(),
            candidates: stats.candidates,
            mates: stats.num_mates,
            candidates_per_sec: stats.candidates as f64 / secs,
        });
    }
    measured
}

fn json_block(name: &str, measured: &[StrategyMeasured]) -> String {
    let rows: Vec<String> = measured
        .iter()
        .map(|m| {
            format!(
                "    {{\"strategy\": \"{}\", \"wires\": {}, \"candidates\": {}, \"mates\": {}, \
                 \"optimized_candidates_per_sec\": {:.1}}}",
                m.strategy, m.wires, m.candidates, m.mates, m.candidates_per_sec,
            )
        })
        .collect();
    format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n"))
}

fn write_json(host_cpus: usize, avr: &[StrategyMeasured], msp: &[StrategyMeasured]) {
    let out = format!(
        "{{\n  \"bench\": \"search\",\n  \"host_cpus\": {host_cpus},\n  \
         \"engine_layout_version\": {ENGINE_LAYOUT_VERSION},\n  \
         \"note\": \"single-thread best-of-3 timings of the production search (incremental \
         trust propagation over the SoA arena), max_terms 8, max_candidates 2000 per wire\",\n\
         {},\n{}\n}}\n",
        json_block("avr", avr),
        json_block("msp430", msp),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    std::fs::write(path, out).expect("write BENCH_search.json");
    eprintln!("wrote {path}");
}

fn main() {
    let quick = is_quick_test();
    let mut c = Criterion::default();

    let avr = AvrSystem::new();
    let avr_wires = ff_wires(avr.netlist(), avr.topology());
    let msp = Msp430System::new();
    let msp_wires = ff_wires(msp.netlist(), msp.topology());

    let avr_m = measure_design(
        &mut c,
        "avr",
        avr.netlist(),
        avr.topology(),
        &avr_wires,
        quick,
    );
    let msp_m = measure_design(
        &mut c,
        "msp430",
        msp.netlist(),
        msp.topology(),
        &msp_wires,
        quick,
    );

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for (name, measured) in [("avr", &avr_m), ("msp430", &msp_m)] {
        for m in measured {
            eprintln!(
                "{name}/{}: {} wires, {} candidates — {:.0} cand/s",
                m.strategy, m.wires, m.candidates, m.candidates_per_sec
            );
        }
    }
    if quick {
        eprintln!("quick test mode: skipping BENCH_search.json");
    } else {
        write_json(host_cpus, &avr_m, &msp_m);
    }
}
