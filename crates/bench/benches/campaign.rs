//! Campaign-engine throughput: scalar per-point `inject` vs. the batched
//! 64-lane engines, in faults per second — for both the full-settle
//! reference engine and the event-driven differential engine.
//!
//! Five circuits: the paper's Figure-1b example, a random ≥200-FF netlist
//! (the scale where bit-parallel packing pays off), a random ≥1000-FF
//! netlist showing how the differential engine's advantage grows with
//! netlist size, a 64-slice TMR register bank under periodic stimuli — the
//! masked-heavy workload where every upset is voted away within one cycle —
//! and the ingested `uart_tx` core.  Besides the criterion reporting, the
//! bench emits a machine-readable `BENCH_campaign.json` at the workspace
//! root with all numbers, the per-row speedups, the engine the `auto`
//! policy resolves to per circuit, and the host CPU count.

use std::time::Instant;

use criterion::{is_quick_test, Criterion, Throughput};

use mate_hafi::{
    run_campaign, run_campaign_wide, CampaignConfig, CampaignEngine, DesignHarness, FaultSpace,
    StimulusHarness,
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

/// One measured engine.
struct Row {
    engine: CampaignEngine,
    fps: f64,
}

struct Measured {
    name: &'static str,
    ffs: usize,
    points: usize,
    cycles: usize,
    /// What [`CampaignEngine::Auto`] resolves to on this circuit.
    auto_engine: CampaignEngine,
    scalar_fps: f64,
    rows: Vec<Row>,
}

impl Measured {
    /// The full-settle faults/second, the reference the differential row
    /// is compared against.
    fn full_settle_fps(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.engine == CampaignEngine::FullSettle)
            .map(|r| r.fps)
    }
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
    harness: &StimulusHarness,
    config: &CampaignConfig,
) -> Measured {
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), config.cycles);

    // Sanity: every engine must produce identical records before we
    // compare their speed.  In quick mode (CI bench-smoke) this loop IS the
    // test.
    let scalar = run_campaign(harness, &space, config).unwrap();
    for engine in CampaignEngine::all() {
        let wide =
            run_campaign_wide(harness, &space, &CampaignConfig { engine, ..*config }).unwrap();
        assert_eq!(
            scalar.records, wide.records,
            "{engine} engine diverges on {name}"
        );
    }
    let points = scalar.len();

    let mut group = c.benchmark_group(&format!("campaign/{name}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(points as u64));
    group.bench_function("scalar", |b| {
        b.iter(|| run_campaign(harness, &space, config).unwrap());
    });
    for engine in CampaignEngine::all() {
        let cfg = CampaignConfig { engine, ..*config };
        group.bench_function(format!("{engine}"), |b| {
            b.iter(|| run_campaign_wide(harness, &space, &cfg).unwrap());
        });
    }
    group.finish();

    let reps = if is_quick_test() { 1 } else { 3 };
    let scalar_fps = faults_per_sec(reps, points, || {
        run_campaign(harness, &space, config).unwrap();
    });
    let rows = CampaignEngine::all()
        .into_iter()
        .map(|engine| {
            let cfg = CampaignConfig { engine, ..*config };
            let fps = faults_per_sec(reps, points, || {
                run_campaign_wide(harness, &space, &cfg).unwrap();
            });
            Row { engine, fps }
        })
        .collect();
    Measured {
        name,
        ffs: harness.topology().seq_cells().len(),
        points,
        cycles: config.cycles,
        auto_engine: CampaignEngine::Auto.resolve(harness.topology()),
        scalar_fps,
        rows,
    }
}

fn write_json(results: &[Measured]) {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = format!(
        "{{\n  \"bench\": \"campaign\",\n  \"host_cpus\": {host_cpus},\n  \
         \"engine_layout_version\": {ENGINE_LAYOUT_VERSION},\n  \"circuits\": [\n"
    );
    for (i, m) in results.iter().enumerate() {
        let rows: Vec<String> = m
            .rows
            .iter()
            .map(|r| {
                let vs_full = m.full_settle_fps().map_or(String::new(), |reference| {
                    format!(", \"speedup_vs_full_settle\": {:.2}", r.fps / reference)
                });
                format!(
                    "{{\"engine\": \"{}\", \"faults_per_sec\": {:.1}, \
                     \"speedup_vs_scalar\": {:.2}{vs_full}}}",
                    r.engine,
                    r.fps,
                    r.fps / m.scalar_fps
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ffs\": {}, \"points\": {}, \"cycles\": {}, \
             \"auto_engine\": \"{}\", \"scalar_faults_per_sec\": {:.1}, \"engines\": [\n      {}\n    ]}}{}\n",
            m.name,
            m.ffs,
            m.points,
            m.cycles,
            m.auto_engine,
            m.scalar_fps,
            rows.join(",\n      "),
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
    // enough that the auto policy picks the full-settle engine.
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

    // A random ≥1000-FF netlist: the full-settle engine pays the full cell
    // count every cycle, the differential engine only the live fault
    // cones, so the gap widens with size (shrunk in quick mode).
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

    for m in &results {
        eprintln!(
            "{}: scalar {:.0} faults/s (auto engine: {})",
            m.name, m.scalar_fps, m.auto_engine
        );
        for r in &m.rows {
            let vs_full = m.full_settle_fps().map_or(String::new(), |x| {
                format!(", {:.1}x vs full-settle", r.fps / x)
            });
            eprintln!(
                "  {}: {:.0}/s ({:.1}x vs scalar{vs_full})",
                r.engine,
                r.fps,
                r.fps / m.scalar_fps
            );
        }
    }
    if is_quick_test() {
        eprintln!("quick test mode: skipping BENCH_campaign.json");
    } else {
        write_json(&results);
    }
}
