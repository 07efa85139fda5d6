//! Acceptance tests for the artifact cache: pipeline results are
//! bit-identical to direct calls, unchanged prefixes are served from the
//! store, and config changes miss.

use std::path::PathBuf;

use mate::{ff_wires, search_design, SearchConfig};
use mate_cores::avr::system::{DMEM_SIZE, IMEM_SIZE};
use mate_cores::msp430::model::MEM_WORDS;
use mate_cores::{AvrSystem, Msp430System};
use mate_hafi::CampaignConfig;
use mate_netlist::examples::{figure1b, tmr_register};
use mate_netlist::verilog::to_verilog;
use mate_netlist::MateError;
use mate_pipeline::{
    ArtifactStore, ContentHasher, DesignSource, Flow, Pipeline, Stage, TraceSource, WireSetSpec,
    ENGINE_LAYOUT_VERSION,
};

/// A fresh scratch store root, removed by [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mate-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::new(&self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tmr_source() -> DesignSource {
    DesignSource::Builder {
        label: "tmr-register",
        build: tmr_register,
    }
}

fn tmr_waves() -> TraceSource {
    TraceSource::Stimuli {
        waves: vec![
            ("load".into(), vec![true, false, false, false, true, false]),
            ("din".into(), vec![true, true, true, true, false]),
        ],
    }
}

#[test]
fn pipeline_search_is_bit_identical_to_direct_calls() {
    let scratch = Scratch::new("bit-identical");
    let config = SearchConfig::default();

    // Direct path: the repo's classic hand-wired flow.
    let (n, topo) = tmr_register();
    let wires = ff_wires(&n, &topo);
    let direct = search_design(&n, &topo, &wires, &config).into_mate_set();

    // Pipeline path, computed (first run) and decoded (second run).
    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let computed = flow.search(WireSetSpec::AllFfs, config).unwrap();
    assert_eq!(computed.value.mates, direct);

    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let decoded = flow.search(WireSetSpec::AllFfs, config).unwrap();
    assert_eq!(decoded.value.mates, direct);
    assert_eq!(decoded.key, computed.key);
    assert_eq!(flow.summary().hits(), flow.summary().len());
}

#[test]
fn unchanged_inputs_serve_every_stage_from_the_cache() {
    let scratch = Scratch::new("all-hit");
    let config = SearchConfig::default();

    let run = |store: ArtifactStore| {
        let mut flow = Flow::new(store, tmr_source()).unwrap();
        flow.gmt_library().unwrap();
        let search = flow.search(WireSetSpec::AllFfs, config).unwrap();
        let trace = flow.capture(tmr_waves(), 16).unwrap();
        let report = flow
            .evaluate(
                WireSetSpec::AllFfs,
                (&search.value.mates, search.key),
                trace.part(),
            )
            .unwrap();
        let selected = flow
            .select(
                WireSetSpec::AllFfs,
                2,
                (&search.value.mates, search.key),
                trace.part(),
            )
            .unwrap();
        let campaign = flow
            .campaign(
                tmr_waves(),
                CampaignConfig {
                    cycles: 12,
                    ..CampaignConfig::default()
                },
                None,
            )
            .unwrap();
        (flow.into_summary(), search, report, selected, campaign)
    };

    let (first, search1, report1, selected1, campaign1) = run(scratch.store());
    assert_eq!(first.len(), 7, "{first}");
    assert_eq!(first.hits(), 0, "{first}");

    let (second, search2, report2, selected2, campaign2) = run(scratch.store());
    // Zero work on the second run: cache-hit counter == stage count.
    assert_eq!(second.hits(), second.len(), "{second}");
    assert!(second.all_cached(), "{second}");

    // ... and the decoded artifacts are bit-identical to the computed ones.
    assert_eq!(search2.value.mates, search1.value.mates);
    assert_eq!(report2.value.matrix, report1.value.matrix);
    assert_eq!(report2.value.triggers, report1.value.triggers);
    assert_eq!(report2.value.effective, report1.value.effective);
    assert_eq!(selected2.value, selected1.value);
    assert_eq!(campaign2.value.records, campaign1.value.records);
}

#[test]
fn changed_search_config_misses_while_the_prefix_hits() {
    let scratch = Scratch::new("config-miss");

    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    flow.search(WireSetSpec::AllFfs, SearchConfig::default())
        .unwrap();
    assert_eq!(flow.summary().misses(), 2);

    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let changed = SearchConfig {
        depth: 2,
        ..SearchConfig::default()
    };
    flow.search(WireSetSpec::AllFfs, changed).unwrap();
    let summary = flow.summary();
    assert!(summary.records[0].cached, "design should hit: {summary}");
    assert!(
        !summary.records[1].cached,
        "changed SearchConfig must miss: {summary}"
    );

    // The thread count is not part of the identity: results are
    // bit-identical for every thread count, so it must hit.
    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let threads_only = SearchConfig {
        threads: 3,
        ..SearchConfig::default()
    };
    flow.search(WireSetSpec::AllFfs, threads_only).unwrap();
    assert!(flow.summary().records[1].cached, "{}", flow.summary());
}

/// Plants a campaign artifact single-threaded and proves a threaded run
/// still hits it: records are bit-identical for every thread count, so it
/// may not split the cache.
#[test]
fn threads_never_split_the_campaign_cache() {
    use mate_hafi::PruningStats;

    let scratch = Scratch::new("threads-hit");
    let planted_config = CampaignConfig {
        cycles: 12,
        threads: 1,
        ..CampaignConfig::default()
    };

    // Plant: computed single-threaded.
    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let planted = flow.campaign(tmr_waves(), planted_config, None).unwrap();
    let summary = flow.into_summary();
    assert!(!summary.records.last().unwrap().cached);
    assert_eq!(
        planted.value.pruning,
        PruningStats::unpruned(planted.value.records.len())
    );

    // Probe: threaded — must hit the planted artifact byte-for-byte.
    let probe_config = CampaignConfig {
        cycles: 12,
        threads: 3,
        ..CampaignConfig::default()
    };
    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let probe = flow.campaign(tmr_waves(), probe_config, None).unwrap();
    let summary = flow.into_summary();
    assert!(
        summary.records.last().unwrap().cached,
        "threads must not split the cache: {summary}"
    );
    assert_eq!(probe.key, planted.key);
    assert_eq!(probe.value.records, planted.value.records);
    // Cached artifacts carry no work accounting.
    assert_eq!(probe.value.pruning.points, 0);
}

#[test]
fn verilog_sources_flow_and_wire_specs_key_separately() {
    let scratch = Scratch::new("verilog");
    let (n, _) = figure1b();
    let source = || DesignSource::Verilog {
        label: "figure1b".into(),
        text: to_verilog(&n),
    };

    let mut flow = Flow::new(scratch.store(), source()).unwrap();
    let design = flow.design();
    let wires = ff_wires(&design.netlist, &design.topology);
    let direct = search_design(
        &design.netlist,
        &design.topology,
        &wires,
        &SearchConfig::default(),
    )
    .into_mate_set();
    let names: Vec<String> = wires
        .iter()
        .map(|&w| design.netlist.net(w).name().to_owned())
        .collect();
    let all = flow
        .search(WireSetSpec::AllFfs, SearchConfig::default())
        .unwrap();
    assert_eq!(all.value.mates, direct);
    let named = flow
        .search(WireSetSpec::Named(names), SearchConfig::default())
        .unwrap();
    // Same wires, but a different spec identity: separate artifact.
    assert_ne!(named.key, all.key);
    assert_eq!(named.value.mates, all.value.mates);

    // A second Verilog load of identical text is a cache hit.
    let flow = Flow::new(scratch.store(), source()).unwrap();
    assert!(flow.summary().records[0].cached);
}

/// A trivial stage for exercising the key protocol directly.
struct ByteStage;

impl Stage<()> for ByteStage {
    type Output = u8;

    fn name(&self) -> &'static str {
        "byte"
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        h.u64(7);
    }

    fn execute(&self, (): &()) -> Result<u8, MateError> {
        Ok(41)
    }

    fn encode(&self, (): &(), output: &u8) -> Result<Vec<u8>, MateError> {
        Ok(vec![*output])
    }

    fn decode(&self, (): &(), bytes: &[u8]) -> Result<u8, MateError> {
        Ok(bytes[0])
    }
}

#[test]
fn engine_layout_version_invalidates_pre_soa_artifacts() {
    let scratch = Scratch::new("engine-layout");

    // The pre-SoA key scheme hashed (name, stage version, fingerprint, deps)
    // without the engine-layout version.  Plant a stale artifact under that
    // legacy key — holding the value 99, which the stage never produces.
    let legacy = {
        let mut h = ContentHasher::new();
        h.str("mate-stage");
        h.str("byte");
        h.u64(1);
        h.u64(7);
        h.finish()
    };
    scratch.store().save("byte", &legacy, &[99]).unwrap();

    let mut pipeline = Pipeline::new(scratch.store());
    let out = pipeline.run(&ByteStage, (), &[]).unwrap();
    assert_ne!(out.key, legacy, "engine layout must be part of the key");
    assert!(
        !pipeline.summary().records[0].cached,
        "pre-SoA artifact must miss, not decode: {}",
        pipeline.summary()
    );
    assert_eq!(out.value, 41, "value recomputed, not the stale artifact");

    // The same engine layout re-resolves to the same key and hits.
    let mut pipeline = Pipeline::new(scratch.store());
    let again = pipeline.run(&ByteStage, (), &[]).unwrap();
    assert_eq!(again.key, out.key);
    assert!(pipeline.summary().records[0].cached);

    // Bumping the layout version changes the key: recompute what run() would
    // hash with a different engine generation and check it diverges.
    let next_gen = {
        let mut h = ContentHasher::new();
        h.str("mate-stage");
        h.u64(u64::from(ENGINE_LAYOUT_VERSION + 1));
        h.str("byte");
        h.u64(1);
        h.u64(7);
        h.finish()
    };
    assert_ne!(next_gen, out.key);
}

#[test]
fn gmt_report_roundtrips_and_counts_entries() {
    let scratch = Scratch::new("gmt");
    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let first = flow.gmt_library().unwrap();
    assert!(first.value.total_entries > 0);
    assert!(!first.value.rows.is_empty());

    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let second = flow.gmt_library().unwrap();
    assert!(flow.summary().records[1].cached);
    assert_eq!(second.value, first.value);
}

/// `LoadDesign` stores a Verilog source as `to_verilog` text, which
/// declares inputs, then outputs, then wires.  A cold load must number
/// nets as the warm decode does, or the trace and campaign artifacts —
/// which are tied to the numbering — would never hit on the first warm
/// run.
#[test]
fn verilog_sources_number_nets_the_same_cold_and_warm() {
    let scratch = Scratch::new("verilog-numbering");
    let source = || DesignSource::Verilog {
        label: "declaration-order".into(),
        text: "module m (a, y);\n  input a;\n  wire w;\n  output y;\n  \
               INV g0 (.A(a), .Y(w));\n  DFF f0 (.D(w), .Q(y));\nendmodule\n"
            .into(),
    };
    let names = |flow: &Flow| -> Vec<String> {
        let netlist = &flow.design().netlist;
        netlist.nets().iter().map(|n| n.name().to_owned()).collect()
    };
    let waves = || TraceSource::Stimuli {
        waves: vec![("a".into(), vec![true, false, true])],
    };
    let config = CampaignConfig {
        cycles: 6,
        ..CampaignConfig::default()
    };

    let mut flow = Flow::new(scratch.store(), source()).unwrap();
    let cold_names = names(&flow);
    let cold_trace = flow.capture(waves(), 8).unwrap();
    let cold_campaign = flow.campaign(waves(), config, None).unwrap();
    assert_eq!(flow.summary().hits(), 0, "{}", flow.summary());

    let mut flow = Flow::new(scratch.store(), source()).unwrap();
    assert_eq!(names(&flow), cold_names);
    let warm_trace = flow.capture(waves(), 8).unwrap();
    let warm_campaign = flow.campaign(waves(), config, None).unwrap();
    assert!(flow.summary().all_cached(), "{}", flow.summary());
    assert_eq!(warm_trace.value, cold_trace.value);
    assert_eq!(warm_campaign.value.records, cold_campaign.value.records);
}

/// An empty stimulus vector, or one driving a net that is not a primary
/// input, is a typed error from both stages that run stimuli.
#[test]
fn bad_stimuli_are_errors_not_panics() {
    let scratch = Scratch::new("bad-stimuli");
    let mut flow = Flow::new(scratch.store(), tmr_source()).unwrap();
    let empty = || TraceSource::Stimuli {
        waves: vec![("din".into(), vec![])],
    };
    assert!(flow.capture(empty(), 8).is_err());
    assert!(flow
        .campaign(empty(), CampaignConfig::default(), None)
        .is_err());

    let internal = || TraceSource::Stimuli {
        waves: vec![("r0".into(), vec![true])],
    };
    assert!(flow.capture(internal(), 8).is_err());
    assert!(flow
        .campaign(internal(), CampaignConfig::default(), None)
        .is_err());
}

fn build_avr() -> (mate_netlist::Netlist, mate_netlist::Topology) {
    let sys = AvrSystem::new();
    (sys.netlist().clone(), sys.topology().clone())
}

fn build_msp430() -> (mate_netlist::Netlist, mate_netlist::Topology) {
    let sys = Msp430System::new();
    (sys.netlist().clone(), sys.topology().clone())
}

/// A core memory image larger than its memory is a typed device error from
/// both stages that run the core, not a panic.
#[test]
fn oversized_core_images_are_errors_not_panics() {
    let scratch = Scratch::new("oversized-images");
    let is_device_error = |result: Result<(), MateError>, device: &str| matches!(result, Err(MateError::Device { device: d, net: None, .. }) if d == device);
    let avr = DesignSource::Builder {
        label: "avr-core",
        build: build_avr,
    };
    let mut flow = Flow::new(scratch.store(), avr).unwrap();
    let program = || TraceSource::Avr {
        program: vec![0; IMEM_SIZE + 1],
        dmem: Vec::new(),
    };
    assert!(is_device_error(
        flow.capture(program(), 8).map(drop),
        "avr-imem"
    ));
    assert!(is_device_error(
        flow.campaign(program(), CampaignConfig::default(), None)
            .map(drop),
        "avr-imem"
    ));
    let data = TraceSource::Avr {
        program: vec![0; IMEM_SIZE],
        dmem: vec![0; DMEM_SIZE + 1],
    };
    assert!(is_device_error(flow.capture(data, 8).map(drop), "avr-dmem"));

    let msp430 = DesignSource::Builder {
        label: "msp430-core",
        build: build_msp430,
    };
    let mut flow = Flow::new(scratch.store(), msp430).unwrap();
    let image = TraceSource::Msp430 {
        image: vec![0; MEM_WORDS + 1],
    };
    assert!(is_device_error(
        flow.capture(image, 8).map(drop),
        "msp430-mem"
    ));
}
