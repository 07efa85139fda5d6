//! Campaign throughput: scalar per-point `inject` vs. the batched 64-lane
//! campaign (`run_campaign_wide`, on the engine each design picks), in
//! faults per second.
//!
//! Seven circuits: the paper's Figure-1b example, a random ≥200-FF netlist
//! (the scale where bit-parallel packing pays off), a random ≥1000-FF
//! netlist, a 64-slice TMR register bank under periodic stimuli — the
//! masked-heavy workload where every upset is voted away within one cycle —
//! the ingested `uart_tx` core, and the AVR and MSP430 cores with their
//! memories attached, whose campaigns replay the memories' responses from
//! the golden trace.  Figure 1b and `uart_tx` fall below the full-settle
//! threshold of combinational cells, the rest run the differential engine.
//! Besides the criterion reporting, the bench emits a machine-readable
//! `BENCH_campaign.json` at the workspace root with all numbers, the
//! speedups over scalar and the host CPU count.

use std::time::Instant;

use criterion::{is_quick_test, Criterion, Throughput};

use mate_cores::{avr, msp430, AvrWorkload, Msp430Workload, Termination};
use mate_hafi::{
    run_campaign, run_campaign_wide, CampaignConfig, DesignHarness, FaultSpace, StimulusHarness,
};
use mate_netlist::examples::{figure1b, tmr_bank};
use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_pipeline::ENGINE_LAYOUT_VERSION;

/// Deterministic pseudo-random stimulus, same scheme as the soundness tests.
fn drive_all_inputs(mut harness: StimulusHarness, seed: u64, cycles: usize) -> StimulusHarness {
    let inputs = harness.netlist().inputs().to_vec();
    for (i, input) in inputs.into_iter().enumerate() {
        let values: Vec<bool> = (0..cycles)
            .map(|c| {
                let x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64) << 32 | c as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x >> 37) & 1 == 1
            })
            .collect();
        harness = harness.drive(input, values);
    }
    harness
}

struct Measured {
    name: &'static str,
    ffs: usize,
    /// Combinational cells: the design picks its engine by this count.
    comb_cells: usize,
    points: usize,
    cycles: usize,
    scalar_fps: f64,
    wide_fps: f64,
}

/// Best-of-`reps` wall-clock for one full campaign, in faults/second.
fn faults_per_sec(reps: usize, points: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    points as f64 / best
}

fn measure(
    c: &mut Criterion,
    name: &'static str,
    harness: &(dyn DesignHarness + Sync),
    config: &CampaignConfig,
) -> Measured {
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), config.cycles);

    // The scalar oracle runs once: its records are the sanity reference the
    // wide campaign must reproduce before anything is timed, and its wall
    // time is the scalar row.  In quick mode (CI bench-smoke) the assert
    // IS the test.
    let start = Instant::now();
    let scalar = run_campaign(harness, &space, config).unwrap();
    let scalar_s = start.elapsed().as_secs_f64();
    let wide = run_campaign_wide(harness, &space, config).unwrap();
    assert_eq!(
        scalar.records, wide.records,
        "wide campaign diverges on {name}"
    );
    let points = scalar.len();

    let mut group = c.benchmark_group(&format!("campaign/{name}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(points as u64));
    group.bench_function("wide", |b| {
        b.iter(|| run_campaign_wide(harness, &space, config).unwrap());
    });
    group.finish();

    let reps = if is_quick_test() { 1 } else { 3 };
    let wide_fps = faults_per_sec(reps, points, || {
        run_campaign_wide(harness, &space, config).unwrap();
    });
    Measured {
        name,
        ffs: harness.topology().seq_cells().len(),
        comb_cells: harness.topology().comb_order().len(),
        points,
        cycles: config.cycles,
        scalar_fps: points as f64 / scalar_s,
        wide_fps,
    }
}

fn write_json(results: &[Measured]) {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = format!(
        "{{\n  \"bench\": \"campaign\",\n  \"host_cpus\": {host_cpus},\n  \
         \"engine_layout_version\": {ENGINE_LAYOUT_VERSION},\n  \"circuits\": [\n"
    );
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ffs\": {}, \"comb_cells\": {}, \"points\": {}, \
             \"cycles\": {}, \"scalar_faults_per_sec\": {:.1}, \"faults_per_sec\": {:.1}, \
             \"speedup_vs_scalar\": {:.2}}}{}\n",
            m.name,
            m.ffs,
            m.comb_cells,
            m.points,
            m.cycles,
            m.scalar_fps,
            m.wide_fps,
            m.wide_fps / m.scalar_fps,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(path, out).expect("write BENCH_campaign.json");
    eprintln!("wrote {path}");
}

fn main() {
    let mut c = Criterion::default();
    let mut results = Vec::new();

    // The paper's Figure-1b example: 5 FFs, exhaustive space.  Small
    // enough to run the full-settle engine.
    {
        let cycles = 64;
        let (n, topo) = figure1b();
        let harness = drive_all_inputs(StimulusHarness::new(n, topo), 2018, cycles + 1);
        let config = CampaignConfig {
            cycles,
            sample: None,
            ..CampaignConfig::default()
        };
        results.push(measure(&mut c, "figure1b", &harness, &config));
    }

    // A random ≥200-FF netlist — campaign scale (shrunk in quick mode).
    // 2048 faults sampled from a 256-cycle trace: the sparse-sampling
    // regime real campaigns run in (few faults per injection cycle), where
    // the differential engine's event frontier stays far below the full
    // row count and latent faults cost it only their small live cones.
    {
        let cycles = 256;
        let cfg = if is_quick_test() {
            RandomCircuitConfig {
                inputs: 8,
                ffs: 24,
                gates: 80,
                outputs: 8,
            }
        } else {
            RandomCircuitConfig {
                inputs: 8,
                ffs: 220,
                gates: 800,
                outputs: 8,
            }
        };
        let (n, topo) = random_circuit(cfg, 424_242);
        let harness = drive_all_inputs(StimulusHarness::new(n, topo), 77, cycles + 1);
        let config = CampaignConfig {
            cycles,
            sample: Some(2048),
            seed: 9,
            ..CampaignConfig::default()
        };
        results.push(measure(&mut c, "random_220ff", &harness, &config));
    }

    // A random ≥1000-FF netlist: the differential engine pays only for the
    // live fault cones, not the cell count (shrunk in quick mode).
    {
        let cycles = 64;
        let cfg = if is_quick_test() {
            RandomCircuitConfig {
                inputs: 16,
                ffs: 32,
                gates: 120,
                outputs: 16,
            }
        } else {
            RandomCircuitConfig {
                inputs: 16,
                ffs: 1000,
                gates: 4000,
                outputs: 16,
            }
        };
        let (n, topo) = random_circuit(cfg, 434_343);
        let harness = drive_all_inputs(StimulusHarness::new(n, topo), 78, cycles + 1);
        let config = CampaignConfig {
            cycles,
            sample: Some(1024),
            seed: 11,
            ..CampaignConfig::default()
        };
        results.push(measure(&mut c, "random_1000ff", &harness, &config));
    }

    // A TMR register bank under periodic stimuli: 192 FFs whose upsets the
    // voters mask within one cycle, with fault cones confined to their own
    // slice — the masked-heavy workload the paper's pruning argument is
    // about.  Sparse sampling (16 of 192 FFs per cycle on average), like
    // the random workloads (shrunk in quick mode).
    {
        let (bits, cycles, sample) = if is_quick_test() {
            (8, 32, None)
        } else {
            (64, 256, Some(4096))
        };
        let (n, topo) = tmr_bank(bits);
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, (0..=cycles).map(|c| c % 4 == 0).collect::<Vec<_>>())
            .drive(din, (0..=cycles).map(|c| c % 8 < 4).collect::<Vec<_>>());
        let config = CampaignConfig {
            cycles,
            sample,
            seed: 13,
            ..CampaignConfig::default()
        };
        results.push(measure(&mut c, "tmr_bank_64", &harness, &config));
    }

    // The vendored third core: an external Yosys JSON netlist (17-FF UART
    // transmitter) ingested through the frontend — the evaluation target
    // this repository's builders did not produce.  Exhaustive fault space
    // over several transmitted frames (shrunk in quick mode).
    {
        let cycles = if is_quick_test() { 32 } else { 192 };
        let (n, topo) = mate_bench::uart_tx_design();
        let mut harness = StimulusHarness::new(n, topo);
        for (name, values) in mate_bench::uart_tx_waves(cycles) {
            let net = harness.netlist().find_net(&name).unwrap();
            harness = harness.drive(net, values);
        }
        let config = CampaignConfig {
            cycles,
            sample: None,
            ..CampaignConfig::default()
        };
        results.push(measure(&mut c, "uart_tx", &harness, &config));
    }

    // The CPU cores with their memories attached: 64-cycle windows like
    // the end-to-end core workloads, sampled so the scalar row, which
    // re-runs the memories from cycle 0 for every point, takes a few
    // seconds (shrunk in quick mode).
    {
        let sample = if is_quick_test() { 32 } else { 640 };
        let config = CampaignConfig {
            cycles: 64,
            sample: Some(sample),
            seed: 17,
            ..CampaignConfig::default()
        };
        let harness = AvrWorkload::new(avr::programs::fib(Termination::Loop), Vec::new());
        results.push(measure(&mut c, "avr_fib", &harness, &config));
        let harness = Msp430Workload::new(msp430::programs::conv(Termination::Loop));
        results.push(measure(&mut c, "msp430_conv", &harness, &config));
    }

    for m in &results {
        eprintln!(
            "{}: scalar {:.0} faults/s, wide {:.0}/s ({:.1}x)",
            m.name,
            m.scalar_fps,
            m.wide_fps,
            m.wide_fps / m.scalar_fps
        );
    }
    if is_quick_test() {
        eprintln!("quick test mode: skipping BENCH_campaign.json");
    } else {
        write_json(&results);
    }
}
