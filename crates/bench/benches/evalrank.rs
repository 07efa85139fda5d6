//! Trace-analysis throughput: scalar per-cycle MATE evaluation vs. the
//! word-parallel transposed path, eager greedy ranking vs. lazy-greedy
//! (CELF), and 1-thread vs. N-thread wide campaigns.
//!
//! Besides the criterion reporting, the bench emits a machine-readable
//! `BENCH_evalrank.json` at the workspace root.  Every fast path is
//! asserted bit-identical to its reference before any timing starts.
//! `host_cpus` is recorded because the campaign-sharding speedup is bounded
//! by the physical core count of the machine running the bench.

use std::time::Instant;

use criterion::{is_quick_test, Criterion, Throughput};

use mate::eval::{evaluate_scalar, evaluate_transposed};
use mate::mates::{summarize, Mate, MateSet};
use mate::select::{rank_eager, rank_transposed};
use mate_hafi::{
    run_campaign_wide, CampaignConfig, CampaignEngine, DesignHarness, FaultSpace, StimulusHarness,
};
use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_netlist::{NetCube, NetId};
use mate_pipeline::ENGINE_LAYOUT_VERSION;
use mate_sim::{TransposedTrace, WaveTrace};

/// SplitMix-style deterministic stream, same scheme as the soundness tests.
fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag << 32 | index);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn drive_all_inputs(mut harness: StimulusHarness, seed: u64, cycles: usize) -> StimulusHarness {
    let inputs = harness.netlist().inputs().to_vec();
    for (i, input) in inputs.into_iter().enumerate() {
        let values: Vec<bool> = (0..cycles)
            .map(|c| mix(seed, 1 + i as u64, c as u64) & 1 == 1)
            .collect();
        harness = harness.drive(input, values);
    }
    harness
}

/// Synthetic MATE set: random 1–3-literal cubes, each masking 1–8 wires.
/// Evaluation and ranking only see cubes and masked lists, so synthetic
/// sets measure the kernels without paying for a full MATE search.
fn synthetic_mates(seed: u64, num_nets: usize, wires: &[NetId], count: usize) -> MateSet {
    summarize((0..count).filter_map(|m| {
        let m = m as u64;
        let nlits = 1 + (mix(seed, 100 + m, 0) % 3) as usize;
        let cube = NetCube::from_literals((0..nlits).map(|l| {
            let r = mix(seed, 200 + m, l as u64);
            (
                NetId::from_index((r % num_nets as u64) as usize),
                r >> 32 & 1 == 1,
            )
        }))?;
        let nmask = 1 + (mix(seed, 300 + m, 0) % 8) as usize;
        let masked: Vec<NetId> = (0..nmask)
            .map(|k| wires[(mix(seed, 400 + m, k as u64) % wires.len() as u64) as usize])
            .collect();
        Some(Mate { cube, masked })
    }))
}

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

struct EvalMeasured {
    mates: usize,
    wires: usize,
    cycles: usize,
    points: usize,
    scalar_pps: f64,
    word_pps: f64,
}

struct RankMeasured {
    mates: usize,
    points: usize,
    eager_ms: f64,
    lazy_ms: f64,
}

struct CampaignMeasured {
    ffs: usize,
    points: usize,
    cycles: usize,
    threads: usize,
    one_thread_fps: f64,
    n_thread_fps: f64,
}

fn measure_eval_and_rank(
    c: &mut Criterion,
    suffix: &str,
    trace: &WaveTrace,
    mates: &MateSet,
    wires: &[NetId],
) -> (EvalMeasured, RankMeasured) {
    // The transposition is shared across evaluate and rank, exactly like
    // the production `evaluate`/`rank` entry points do internally.
    let transposed = TransposedTrace::from_trace(trace);
    let scalar = evaluate_scalar(mates, trace, wires);
    let eager = rank_eager(mates, trace, wires);
    let points = scalar.matrix.total_points();
    let word = evaluate_transposed(mates, &transposed, wires);
    assert_eq!(
        word.matrix, scalar.matrix,
        "word-parallel evaluate diverges"
    );
    assert_eq!(
        word.triggers, scalar.triggers,
        "word-parallel triggers diverge"
    );
    assert_eq!(
        rank_transposed(mates, &transposed, wires),
        eager,
        "lazy rank diverges"
    );

    let mut group = c.benchmark_group(&format!("evaluate{suffix}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(points as u64));
    group.bench_function("scalar", |b| {
        b.iter(|| evaluate_scalar(mates, trace, wires));
    });
    group.bench_function("word_parallel", |b| {
        b.iter(|| evaluate_transposed(mates, &transposed, wires));
    });
    group.finish();

    let mut group = c.benchmark_group(&format!("rank{suffix}"));
    group.sample_size(10);
    group.bench_function("eager", |b| b.iter(|| rank_eager(mates, trace, wires)));
    group.bench_function("lazy_celf", |b| {
        b.iter(|| rank_transposed(mates, &transposed, wires));
    });
    group.finish();

    let reps = if is_quick_test() { 1 } else { 3 };
    let scalar_s = best_secs(reps, || {
        evaluate_scalar(mates, trace, wires);
    });
    let eager_s = best_secs(reps, || {
        rank_eager(mates, trace, wires);
    });
    let word_s = best_secs(reps, || {
        evaluate_transposed(mates, &transposed, wires);
    });
    let lazy_s = best_secs(reps, || {
        rank_transposed(mates, &transposed, wires);
    });

    (
        EvalMeasured {
            mates: mates.len(),
            wires: wires.len(),
            cycles: trace.num_cycles(),
            points,
            scalar_pps: points as f64 / scalar_s,
            word_pps: points as f64 / word_s,
        },
        RankMeasured {
            mates: mates.len(),
            points,
            eager_ms: eager_s * 1e3,
            lazy_ms: lazy_s * 1e3,
        },
    )
}

fn measure_campaign(
    c: &mut Criterion,
    suffix: &str,
    harness: &StimulusHarness,
    sample: Option<usize>,
    threads: usize,
    quick: bool,
) -> CampaignMeasured {
    let cycles = 32;
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
    let one = CampaignConfig {
        cycles,
        sample,
        seed: 9,
        threads: 1,
        engine: CampaignEngine::default(),
    };
    let many = CampaignConfig { threads, ..one };

    let single = run_campaign_wide(harness, &space, &one).unwrap();
    let sharded = run_campaign_wide(harness, &space, &many).unwrap();
    assert_eq!(single.records, sharded.records, "thread counts diverge");
    let points = single.len();

    let mut group = c.benchmark_group(&format!("campaign_threads{suffix}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(points as u64));
    group.bench_function("1_thread", |b| {
        b.iter(|| run_campaign_wide(harness, &space, &one).unwrap());
    });
    group.bench_function(format!("{threads}_threads"), |b| {
        b.iter(|| run_campaign_wide(harness, &space, &many).unwrap());
    });
    group.finish();

    let reps = if quick { 1 } else { 3 };
    let one_s = best_secs(reps, || {
        run_campaign_wide(harness, &space, &one).unwrap();
    });
    let many_s = best_secs(reps, || {
        run_campaign_wide(harness, &space, &many).unwrap();
    });
    CampaignMeasured {
        ffs: harness.topology().seq_cells().len(),
        points,
        cycles,
        threads,
        one_thread_fps: points as f64 / one_s,
        n_thread_fps: points as f64 / many_s,
    }
}

/// The evaluate/rank/campaign row triple of one circuit — the same schema
/// for the random analysis workload and the vendored third core.
fn section_json(eval: &EvalMeasured, rank: &RankMeasured, campaign: &CampaignMeasured) -> String {
    format!(
        "\"evaluate\": {{\"mates\": {}, \"wires\": {}, \"cycles\": {}, \"points\": {}, \
         \"scalar_fault_points_per_sec\": {:.1}, \"word_parallel_fault_points_per_sec\": {:.1}, \
         \"speedup\": {:.2}}},\n  \
         \"rank\": {{\"mates\": {}, \"points\": {}, \"eager_ms\": {:.3}, \"lazy_ms\": {:.3}, \
         \"speedup\": {:.2}}},\n  \
         \"campaign\": {{\"ffs\": {}, \"points\": {}, \"cycles\": {}, \"threads\": {}, \
         \"one_thread_faults_per_sec\": {:.1}, \"n_thread_faults_per_sec\": {:.1}, \
         \"speedup\": {:.2}, \
         \"note\": \"thread-scaling speedup is bounded by host_cpus; records are \
         bit-identical for every thread count\"}}",
        eval.mates,
        eval.wires,
        eval.cycles,
        eval.points,
        eval.scalar_pps,
        eval.word_pps,
        eval.word_pps / eval.scalar_pps,
        rank.mates,
        rank.points,
        rank.eager_ms,
        rank.lazy_ms,
        rank.eager_ms / rank.lazy_ms,
        campaign.ffs,
        campaign.points,
        campaign.cycles,
        campaign.threads,
        campaign.one_thread_fps,
        campaign.n_thread_fps,
        campaign.n_thread_fps / campaign.one_thread_fps,
    )
}

fn write_json(
    host_cpus: usize,
    random: (&EvalMeasured, &RankMeasured, &CampaignMeasured),
    uart: (&EvalMeasured, &RankMeasured, &CampaignMeasured),
) {
    let out = format!(
        "{{\n  \"bench\": \"evalrank\",\n  \"host_cpus\": {host_cpus},\n  \
         \"engine_layout_version\": {ENGINE_LAYOUT_VERSION},\n  {},\n  \
         \"uart_tx\": {{\n  {}\n  }}\n}}\n",
        section_json(random.0, random.1, random.2),
        section_json(uart.0, uart.1, uart.2).replace("\n  ", "\n    "),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_evalrank.json");
    std::fs::write(path, out).expect("write BENCH_evalrank.json");
    eprintln!("wrote {path}");
}

fn main() {
    let quick = is_quick_test();
    let mut c = Criterion::default();

    // Analysis workload: a ~96-FF random circuit, a multi-thousand-cycle
    // trace, and a synthetic MATE set big enough that evaluation dominates.
    let (cycles, num_mates) = if quick { (256, 24) } else { (4096, 160) };
    let cfg = RandomCircuitConfig {
        inputs: 8,
        ffs: 96,
        gates: 400,
        outputs: 8,
    };
    let (n, topo) = random_circuit(cfg, 20_18);
    let wires = mate::ff_wires(&n, &topo);
    let harness = drive_all_inputs(StimulusHarness::new(n, topo), 41, cycles);
    let trace = harness.testbench().run(cycles);
    let mates = synthetic_mates(7, harness.netlist().num_nets(), &wires, num_mates);

    let (eval_m, rank_m) = measure_eval_and_rank(&mut c, "", &trace, &mates, &wires);
    let campaign_harness = {
        let cfg = RandomCircuitConfig {
            inputs: 8,
            ffs: if quick { 24 } else { 220 },
            gates: if quick { 80 } else { 800 },
            outputs: 8,
        };
        let (n, topo) = random_circuit(cfg, 424_242);
        drive_all_inputs(StimulusHarness::new(n, topo), 77, 33)
    };
    let campaign_m = measure_campaign(
        &mut c,
        "",
        &campaign_harness,
        Some(if quick { 64 } else { 2048 }),
        4,
        quick,
    );

    // The vendored third core (external Yosys JSON netlist): same
    // evaluate/rank/campaign row schema, under its real frame workload.
    let (ueval_m, urank_m, ucampaign_m) = {
        let (n, topo) = mate_bench::uart_tx_design();
        let uwires = mate::ff_wires(&n, &topo);
        let mut harness = StimulusHarness::new(n, topo);
        for (name, values) in mate_bench::uart_tx_waves(cycles) {
            let net = harness.netlist().find_net(&name).unwrap();
            harness = harness.drive(net, values);
        }
        let utrace = harness.testbench().run(cycles);
        let umates = synthetic_mates(13, harness.netlist().num_nets(), &uwires, num_mates);
        let (e, r) = measure_eval_and_rank(&mut c, "_uart_tx", &utrace, &umates, &uwires);
        // Exhaustive 17-FF space: small enough to skip sampling.
        let m = measure_campaign(&mut c, "_uart_tx", &harness, None, 4, quick);
        (e, r, m)
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "evaluate: scalar {:.0} points/s, word-parallel {:.0} points/s ({:.1}x)",
        eval_m.scalar_pps,
        eval_m.word_pps,
        eval_m.word_pps / eval_m.scalar_pps
    );
    eprintln!(
        "rank: eager {:.1} ms, lazy {:.2} ms ({:.1}x)",
        rank_m.eager_ms,
        rank_m.lazy_ms,
        rank_m.eager_ms / rank_m.lazy_ms
    );
    eprintln!(
        "campaign: 1 thread {:.0} faults/s, {} threads {:.0} faults/s, speedup {:.1}x ({} cpus)",
        campaign_m.one_thread_fps,
        campaign_m.threads,
        campaign_m.n_thread_fps,
        campaign_m.n_thread_fps / campaign_m.one_thread_fps,
        host_cpus
    );
    eprintln!(
        "uart_tx: evaluate scalar {:.0} points/s, campaign 1 thread {:.0} faults/s, \
         {} threads {:.0} faults/s",
        ueval_m.scalar_pps,
        ucampaign_m.one_thread_fps,
        ucampaign_m.threads,
        ucampaign_m.n_thread_fps
    );
    if quick {
        eprintln!("quick test mode: skipping BENCH_evalrank.json");
    } else {
        write_json(
            host_cpus,
            (&eval_m, &rank_m, &campaign_m),
            (&ueval_m, &urank_m, &ucampaign_m),
        );
    }
}
