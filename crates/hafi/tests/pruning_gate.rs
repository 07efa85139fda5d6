//! CI equivalence gate for fault-space collapsing.
//!
//! The collapsing layer (`mate_hafi::collapse`) must be an invisible
//! optimization: for every harness, engine, and thread count, a campaign
//! with `CampaignPruning::Collapse` must produce **bit-identical records**
//! to the same campaign with `CampaignPruning::Off`.  This test is the
//! gate CI runs on both processor cores (AVR and MSP430) plus a
//! wide-capable netlist workload where collapsing actually engages.
//!
//! The cores carry external memory devices, so their campaigns take the
//! checkpoint path where collapsing is structurally impossible — the gate
//! then asserts the stats honestly report an unpruned run instead of
//! pretending to have skipped work.

use mate_cores::avr::programs as avr_programs;
use mate_cores::avr::system::AvrSystem;
use mate_cores::msp430::programs as msp_programs;
use mate_cores::msp430::system::Msp430System;
use mate_cores::Termination;
use mate_hafi::{
    run_campaign_wide, CampaignConfig, CampaignEngine, CampaignPruning, DesignHarness, FaultSpace,
    StimulusHarness,
};
use mate_netlist::examples::tmr_register;
use mate_netlist::random::{random_circuit, RandomCircuitConfig};
use mate_sim::Testbench;

struct AvrHarness {
    sys: AvrSystem,
    program: Vec<u16>,
    dmem: Vec<u8>,
}

impl DesignHarness for AvrHarness {
    fn netlist(&self) -> &mate_netlist::Netlist {
        self.sys.netlist()
    }
    fn topology(&self) -> &mate_netlist::Topology {
        self.sys.topology()
    }
    fn testbench(&self) -> Testbench<'_> {
        self.sys.testbench(&self.program, &self.dmem).0
    }
}

struct MspHarness {
    sys: Msp430System,
    image: Vec<u16>,
}

impl DesignHarness for MspHarness {
    fn netlist(&self) -> &mate_netlist::Netlist {
        self.sys.netlist()
    }
    fn topology(&self) -> &mate_netlist::Topology {
        self.sys.topology()
    }
    fn testbench(&self) -> Testbench<'_> {
        self.sys.testbench(&self.image).0
    }
}

/// Runs the same sweep with pruning off and on and asserts the records and
/// the effect histogram are identical.  Returns the (off, on) results so
/// callers can make workload-specific assertions about the stats.
fn assert_pruning_equivalent(
    harness: &(dyn DesignHarness + Sync),
    cycles: usize,
    sample: Option<usize>,
) -> (mate_hafi::CampaignResult, mate_hafi::CampaignResult) {
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
    let run = |pruning: CampaignPruning| {
        let config = CampaignConfig {
            cycles,
            sample,
            seed: 42,
            threads: 1,
            engine: CampaignEngine::default(),
            pruning,
        };
        run_campaign_wide(harness, &space, &config).unwrap()
    };
    let off = run(CampaignPruning::Off);
    let on = run(CampaignPruning::Collapse);
    assert_eq!(
        off.records, on.records,
        "collapsing changed campaign records"
    );
    assert_eq!(
        off.histogram(),
        on.histogram(),
        "collapsing changed benign/error counts"
    );
    assert!(!off.records.is_empty(), "gate ran an empty campaign");
    (off, on)
}

#[test]
fn avr_core_sweep_identical_with_and_without_collapsing() {
    let harness = AvrHarness {
        sys: AvrSystem::new(),
        program: avr_programs::fib(Termination::Loop),
        dmem: Vec::new(),
    };
    assert!(
        !harness.testbench().can_run_wide(),
        "AVR core should carry devices"
    );
    let (_, on) = assert_pruning_equivalent(&harness, 80, Some(48));
    // Checkpoint path: collapsing cannot engage, and the stats say so.
    assert_eq!(on.pruning.points, on.records.len());
    assert_eq!(on.pruning.fallback, on.records.len());
    assert_eq!(on.pruning.skipped, 0);
    assert_eq!(on.pruning.classes, 0);
}

#[test]
fn msp430_core_sweep_identical_with_and_without_collapsing() {
    let harness = MspHarness {
        sys: Msp430System::new(),
        image: msp_programs::fib(Termination::Loop),
    };
    assert!(
        !harness.testbench().can_run_wide(),
        "MSP430 core should carry devices"
    );
    let (_, on) = assert_pruning_equivalent(&harness, 80, Some(48));
    assert_eq!(on.pruning.fallback, on.records.len());
    assert_eq!(on.pruning.skipped, 0);
}

#[test]
fn tmr_wide_sweep_identical_and_collapsing_engages() {
    let (n, topo) = tmr_register();
    let load = n.find_net("load").unwrap();
    let din = n.find_net("din").unwrap();
    let cycles = 48;
    let harness = StimulusHarness::new(n, topo)
        .drive(load, (0..=cycles).map(|c| c % 4 == 0).collect::<Vec<_>>())
        .drive(din, (0..=cycles).map(|c| c % 8 < 4).collect::<Vec<_>>());
    assert!(harness.testbench().can_run_wide());
    let (_, on) = assert_pruning_equivalent(&harness, cycles, None);
    // Periodic stimuli on a voted register: collapsing must actually prune.
    assert!(on.pruning.classes > 0, "no equivalence classes formed");
    assert!(on.pruning.skipped > 0, "no points were skipped");
    assert!(
        on.pruning.probes < on.pruning.points,
        "collapsing probed every point"
    );
}

#[test]
fn random_wide_sweep_identical_across_engines_and_threads() {
    let cfg = RandomCircuitConfig {
        inputs: 4,
        ffs: 48,
        gates: 180,
        outputs: 3,
    };
    let (n, topo) = random_circuit(cfg, 7);
    let inputs = n.inputs().to_vec();
    let cycles = 20;
    let mut harness = StimulusHarness::new(n, topo);
    for (i, input) in inputs.into_iter().enumerate() {
        let values: Vec<bool> = (0..=cycles).map(|c| (c + i) % 3 == 0).collect();
        harness = harness.drive(input, values);
    }
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
    let reference = {
        let config = CampaignConfig {
            cycles,
            sample: None,
            seed: 0,
            threads: 1,
            engine: CampaignEngine::FullSettle,
            pruning: CampaignPruning::Off,
        };
        run_campaign_wide(&harness, &space, &config).unwrap()
    };
    for engine in [CampaignEngine::Auto, CampaignEngine::Differential] {
        for threads in [1, 3] {
            let config = CampaignConfig {
                cycles,
                sample: None,
                seed: 0,
                threads,
                engine,
                pruning: CampaignPruning::Collapse,
            };
            let run = run_campaign_wide(&harness, &space, &config).unwrap();
            assert_eq!(
                reference.records, run.records,
                "engine {engine} threads {threads}"
            );
            assert_eq!(run.pruning.points, run.records.len());
        }
    }
}
