//! The concrete stages of the paper's flow:
//! `LoadDesign → GmtLibrary → MateSearch → TraceCapture → Evaluate →
//! Select → Campaign`.
//!
//! Artifacts reuse the repo's existing text formats wherever one exists —
//! structural Verilog for designs, `mate-set v1` for MATE sets, VCD for
//! traces — and add two small line formats for evaluation reports and
//! campaign results.  All of them are keyed by net *names*, which is why
//! [`Stage::decode`] receives the design again.

use std::collections::HashMap;
use std::io::BufReader;
use std::path::PathBuf;
use std::time::Duration;

use mate::eval::{evaluate, EvalReport, PruneMatrix};
use mate::{
    ff_wires, ff_wires_filtered, read_mates, search_design, select_top_n, write_mates, GmtCache,
    MateSet, PropagationMode, SearchConfig, SearchStats, SearchStrategy,
};
use mate_analyze::{run_lints, sort_diagnostics, Severity};
use mate_cores::{AvrWorkload, Msp430Workload};
use mate_hafi::{
    run_campaign_wide, CampaignConfig, CampaignResult, DesignHarness, FaultEffect, FaultPoint,
    FaultSpace, PruningStats, StimulusHarness,
};
use mate_netlist::verilog::{parse_verilog, to_verilog};
use mate_netlist::yosys::{parse_yosys_netlist, to_yosys_json};
use mate_netlist::{Library, MateError, NetId, Netlist, Topology};
use mate_sim::{read_vcd, write_vcd, InputWave, Testbench, WaveTrace};

use crate::hash::ContentHasher;
use crate::stage::Stage;

/// A loaded design: the netlist plus its validated topology.
#[derive(Clone, Debug)]
pub struct Design {
    /// The flat gate-level netlist.
    pub netlist: Netlist,
    /// Levelization, fan-out indices, sequential cells.
    pub topology: Topology,
}

/// Where a design comes from.
pub enum DesignSource {
    /// Structural-Verilog text (parsed with the OpenCell15 library).
    Verilog {
        /// Short human label for the key fingerprint.
        label: String,
        /// The Verilog source.
        text: String,
    },
    /// A deterministic in-process builder (e.g. core elaboration).  The
    /// stage [always runs](Stage::always_runs) for this source — separate
    /// elaborations produce identical net ids, which downstream harnesses
    /// rely on — and the built netlist's Verilog form refines the key, so
    /// the cache is still content-addressed.
    Builder {
        /// Stable label naming the builder.
        label: &'static str,
        /// The elaboration function.
        build: fn() -> (Netlist, Topology),
    },
    /// An external gate-level netlist in Yosys `write_json` format.
    ///
    /// The fingerprint covers the ingested **file bytes** (not the path),
    /// so editing the file recomputes every downstream artifact while
    /// moving or copying it does not.  Ingest runs the `mate-analyze` lint
    /// passes as a mandatory gate: any `Error`-severity finding (undriven
    /// or multiply-driven nets, combinational loops) rejects the netlist
    /// before simulation ([`ingest_gate`]).
    YosysJson {
        /// Path to the Yosys JSON file.
        path: PathBuf,
        /// Explicit top module; `None` auto-selects (the `top` attribute,
        /// or the single non-blackbox module).
        top: Option<String>,
    },
}

impl std::fmt::Debug for DesignSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Verilog { label, .. } => f.debug_struct("Verilog").field("label", label).finish(),
            Self::Builder { label, .. } => f.debug_struct("Builder").field("label", label).finish(),
            Self::YosysJson { path, top } => f
                .debug_struct("YosysJson")
                .field("path", path)
                .field("top", top)
                .finish(),
        }
    }
}

/// Rejects ingested designs carrying any `Error`-severity lint finding.
///
/// Runs the full `mate-analyze` pass set on the (possibly unvalidated)
/// netlist and folds every error — undriven nets, multiply-driven nets,
/// combinational loops — into one typed [`MateError::Ingest`] naming the
/// module.  Warnings and infos pass.  This is the mandatory gate between
/// an external netlist and the simulator: [`Netlist::validate`] alone
/// would catch the same defects, but the lint passes report *all* of them
/// at once with per-net diagnostics instead of failing on the first.
///
/// # Errors
///
/// Returns [`MateError::Ingest`] listing every error-severity diagnostic.
pub fn ingest_gate(netlist: &Netlist) -> Result<(), MateError> {
    let mut diags = run_lints(netlist);
    diags.retain(|d| d.severity == Severity::Error);
    if diags.is_empty() {
        return Ok(());
    }
    sort_diagnostics(&mut diags);
    let rendered = diags
        .iter()
        .map(|d| {
            format!(
                "{}[{}] {}: {}",
                d.severity,
                d.code,
                d.locus.name(netlist),
                d.message
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    Err(MateError::ingest(
        netlist.name(),
        format!(
            "rejected by the lint gate ({} error finding{}): {rendered}",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        ),
    ))
}

/// Pipeline source stage: obtain a [`Design`].
#[derive(Debug)]
pub struct LoadDesign {
    /// Where the design comes from.
    pub source: DesignSource,
}

impl Stage<()> for LoadDesign {
    type Output = Design;

    fn name(&self) -> &'static str {
        "load-design"
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        match &self.source {
            DesignSource::Verilog { label, text } => {
                h.str("verilog");
                h.str(label);
                h.str(text);
            }
            DesignSource::Builder { label, .. } => {
                h.str("builder");
                h.str(label);
            }
            DesignSource::YosysJson { path, top } => {
                h.str("yosys-json");
                h.str(top.as_deref().unwrap_or(""));
                // The *bytes* are the identity, not the path: an edited
                // file recomputes downstream, a moved one still hits.
                match std::fs::read(path) {
                    Ok(bytes) => h.bytes(&bytes),
                    // Unreadable files fail in execute(); the fingerprint
                    // only needs to not collide with a readable state.
                    Err(e) => h.str(&format!("unreadable: {e}")),
                }
            }
        }
    }

    fn always_runs(&self) -> bool {
        matches!(self.source, DesignSource::Builder { .. })
    }

    fn execute(&self, _input: &()) -> Result<Design, MateError> {
        let (netlist, topology) = match &self.source {
            DesignSource::Verilog { text, .. } => parse_verilog(text, Library::open15())?,
            DesignSource::Builder { build, .. } => build(),
            DesignSource::YosysJson { path, top } => {
                let display = path.display().to_string();
                let src = std::fs::read_to_string(path)
                    .map_err(|e| MateError::in_file(&display, MateError::io("yosys json", e)))?;
                let wrap = |e: MateError| MateError::in_file(&display, e);
                let netlist =
                    parse_yosys_netlist(&src, Library::open15(), top.as_deref()).map_err(wrap)?;
                ingest_gate(&netlist).map_err(wrap)?;
                let topology = netlist.validate().map_err(|e| wrap(e.into()))?;
                (netlist, topology)
            }
        };
        Ok(Design { netlist, topology })
    }

    fn encode(&self, _input: &(), output: &Design) -> Result<Vec<u8>, MateError> {
        match &self.source {
            // External designs round-trip through the Yosys writer: it
            // preserves net/cell ids exactly and handles names (`$true`,
            // `d[0]`) that structural Verilog cannot spell.
            DesignSource::YosysJson { .. } => Ok(to_yosys_json(&output.netlist).into_bytes()),
            _ => Ok(to_verilog(&output.netlist).into_bytes()),
        }
    }

    fn decode(&self, _input: &(), bytes: &[u8]) -> Result<Design, MateError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| MateError::artifact(self.name(), format!("non-UTF-8 artifact: {e}")))?;
        let (netlist, topology) = match &self.source {
            DesignSource::YosysJson { .. } => {
                let netlist = parse_yosys_netlist(text, Library::open15(), None)?;
                let topology = netlist.validate()?;
                (netlist, topology)
            }
            _ => parse_verilog(text, Library::open15())?,
        };
        Ok(Design { netlist, topology })
    }

    fn output_fingerprint(&self, output: &Design, h: &mut ContentHasher) {
        // Builder configs are just a label; hashing the elaborated netlist
        // keeps downstream keys content-addressed.
        match &self.source {
            DesignSource::YosysJson { .. } => h.str(&to_yosys_json(&output.netlist)),
            _ => h.str(&to_verilog(&output.netlist)),
        }
    }
}

/// Selects the faulty-wire set of a search, evaluation, or campaign.
#[derive(Clone, Debug)]
pub enum WireSetSpec {
    /// Every flip-flop output.
    AllFfs,
    /// Flip-flop outputs passing a named filter; `id` must uniquely name
    /// the predicate since functions cannot be hashed.
    FilteredFfs {
        /// Stable identifier folded into artifact keys.
        id: &'static str,
        /// The filter over net names.
        keep: fn(&str) -> bool,
    },
    /// Explicit net names.
    Named(Vec<String>),
}

impl WireSetSpec {
    /// Resolves the spec against a design.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::UnknownNet`] for names the netlist lacks.
    pub fn resolve(&self, design: &Design) -> Result<Vec<NetId>, MateError> {
        match self {
            Self::AllFfs => Ok(ff_wires(&design.netlist, &design.topology)),
            Self::FilteredFfs { keep, .. } => {
                Ok(ff_wires_filtered(&design.netlist, &design.topology, keep))
            }
            Self::Named(names) => names
                .iter()
                .map(|name| {
                    design
                        .netlist
                        .find_net(name)
                        .ok_or_else(|| MateError::UnknownNet {
                            line: 0,
                            name: name.clone(),
                        })
                })
                .collect(),
        }
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        match self {
            Self::AllFfs => h.str("all-ffs"),
            Self::FilteredFfs { id, .. } => {
                h.str("filtered-ffs");
                h.str(id);
            }
            Self::Named(names) => {
                h.str("named");
                h.usize(names.len());
                for n in names {
                    h.str(n);
                }
            }
        }
    }
}

/// Gate-library analysis (step 1 of Section 4): the gate-masking-term table
/// for every combinational cell type × faulty input pin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GmtReport {
    /// `(cell type, input pins, GMT entries across its pins)` rows.
    pub rows: Vec<(String, usize, usize)>,
    /// Total masking cubes across the library.
    pub total_entries: usize,
}

/// Pipeline stage wrapping the gate-library analysis.
#[derive(Debug, Default)]
pub struct GmtLibrary;

impl Stage<&Design> for GmtLibrary {
    type Output = GmtReport;

    fn name(&self) -> &'static str {
        "gmt-library"
    }

    fn fingerprint(&self, _h: &mut ContentHasher) {}

    fn execute(&self, input: &&Design) -> Result<GmtReport, MateError> {
        let library = input.netlist.library().clone();
        let cache = GmtCache::new();
        let mut rows = Vec::new();
        let mut total = 0usize;
        for (ty, cell) in library.iter() {
            if cell.truth_table().is_none() {
                continue;
            }
            let mut entries = 0usize;
            for pin in 0..cell.num_pins() {
                entries += cache.cubes(&library, ty, 1 << pin).len();
            }
            total += entries;
            rows.push((cell.name().to_owned(), cell.num_pins(), entries));
        }
        Ok(GmtReport {
            rows,
            total_entries: total,
        })
    }

    fn encode(&self, _input: &&Design, output: &GmtReport) -> Result<Vec<u8>, MateError> {
        let mut text = format!("# gmt v1 total={}\n", output.total_entries);
        for (name, pins, entries) in &output.rows {
            text.push_str(&format!("{name} {pins} {entries}\n"));
        }
        Ok(text.into_bytes())
    }

    fn decode(&self, _input: &&Design, bytes: &[u8]) -> Result<GmtReport, MateError> {
        let text = artifact_utf8(self.name(), bytes)?;
        let mut rows = Vec::new();
        let mut total = None;
        for (idx, line) in text.lines().enumerate() {
            if let Some(rest) = line.strip_prefix("# gmt v1 total=") {
                total = Some(parse_field(self.name(), idx, rest)?);
                continue;
            }
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| bad_line(self.name(), idx))?
                .to_owned();
            let pins = parse_field(self.name(), idx, parts.next().unwrap_or(""))?;
            let entries = parse_field(self.name(), idx, parts.next().unwrap_or(""))?;
            rows.push((name, pins, entries));
        }
        let total_entries =
            total.ok_or_else(|| MateError::artifact(self.name(), "missing header"))?;
        Ok(GmtReport {
            rows,
            total_entries,
        })
    }
}

/// The output of the MATE search stage: the deduplicated set plus the
/// search statistics (cached statistics report the timings of the run that
/// produced the artifact).
#[derive(Clone, Debug)]
pub struct SearchOutput {
    /// The summarized MATE set.
    pub mates: MateSet,
    /// Statistics of the producing search run.
    pub stats: SearchStats,
}

/// Per-wire MATE search (step 2 of Section 4).
#[derive(Clone, Debug)]
pub struct MateSearch {
    /// The faulty-wire set to search.
    pub wires: WireSetSpec,
    /// Search parameters.
    pub config: SearchConfig,
}

fn fingerprint_search_config(config: &SearchConfig, h: &mut ContentHasher) {
    h.usize(config.depth);
    h.usize(config.max_terms);
    h.usize(config.max_candidates);
    h.usize(config.max_paths);
    h.str(match config.strategy {
        SearchStrategy::Exhaustive => "exhaustive",
        SearchStrategy::Repair => "repair",
    });
    h.str(match config.propagation {
        PropagationMode::Reference => "reference",
        PropagationMode::Optimized => "optimized",
    });
    // `threads` is deliberately excluded: results are bit-identical for
    // every thread count.
}

impl Stage<&Design> for MateSearch {
    type Output = SearchOutput;

    fn name(&self) -> &'static str {
        "mate-search"
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        self.wires.fingerprint(h);
        fingerprint_search_config(&self.config, h);
    }

    fn execute(&self, input: &&Design) -> Result<SearchOutput, MateError> {
        let wires = self.wires.resolve(input)?;
        let ds = search_design(&input.netlist, &input.topology, &wires, &self.config);
        let stats = ds.stats.clone();
        Ok(SearchOutput {
            mates: ds.into_mate_set(),
            stats,
        })
    }

    fn encode(&self, input: &&Design, output: &SearchOutput) -> Result<Vec<u8>, MateError> {
        let s = &output.stats;
        let mut buf = format!(
            "# search v1 faulty_wires={} avg_cone={} median_cone={} unmaskable={} \
             candidates={} num_mates={} gmt_entries={} run_time={} max_wire_time={} \
             total_wire_time={}\n",
            s.faulty_wires,
            s.avg_cone,
            s.median_cone,
            s.unmaskable,
            s.candidates,
            s.num_mates,
            s.gmt_entries,
            s.run_time.as_secs_f64(),
            s.max_wire_time.as_secs_f64(),
            s.total_wire_time.as_secs_f64()
        )
        .into_bytes();
        write_mates(&input.netlist, &output.mates, &mut buf)?;
        Ok(buf)
    }

    fn decode(&self, input: &&Design, bytes: &[u8]) -> Result<SearchOutput, MateError> {
        let text = artifact_utf8(self.name(), bytes)?;
        let header = text
            .lines()
            .find_map(|l| l.strip_prefix("# search v1 "))
            .ok_or_else(|| MateError::artifact(self.name(), "missing `# search v1` header"))?;
        let mut stats = SearchStats::default();
        for field in header.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| MateError::artifact(self.name(), format!("bad field `{field}`")))?;
            let num = || -> Result<f64, MateError> {
                value.parse().map_err(|_| {
                    MateError::artifact(self.name(), format!("bad value in `{field}`"))
                })
            };
            match key {
                "faulty_wires" => stats.faulty_wires = num()? as usize,
                "avg_cone" => stats.avg_cone = num()?,
                "median_cone" => stats.median_cone = num()? as usize,
                "unmaskable" => stats.unmaskable = num()? as usize,
                "candidates" => stats.candidates = num()? as u64,
                "num_mates" => stats.num_mates = num()? as usize,
                "gmt_entries" => stats.gmt_entries = num()? as usize,
                "run_time" => stats.run_time = Duration::from_secs_f64(num()?),
                "max_wire_time" => stats.max_wire_time = Duration::from_secs_f64(num()?),
                "total_wire_time" => stats.total_wire_time = Duration::from_secs_f64(num()?),
                _ => {}
            }
        }
        let mates = read_mates(&input.netlist, BufReader::new(text.as_bytes()))?;
        Ok(SearchOutput { mates, stats })
    }
}

/// Where a workload trace (or campaign stimulus) comes from.
#[derive(Clone, Debug)]
pub enum TraceSource {
    /// The AVR core running `program` with `dmem` preloaded.
    Avr {
        /// Flash image (16-bit words).
        program: Vec<u16>,
        /// Initial data memory.
        dmem: Vec<u8>,
    },
    /// The MSP430 core running `image`.
    Msp430 {
        /// Unified memory image (16-bit words).
        image: Vec<u16>,
    },
    /// Named primary-input waves driving the design itself (the last value
    /// of each wave is held).
    Stimuli {
        /// `(input net name, per-cycle values)` pairs.
        waves: Vec<(String, Vec<bool>)>,
    },
}

impl TraceSource {
    fn fingerprint(&self, h: &mut ContentHasher) {
        match self {
            Self::Avr { program, dmem } => {
                h.str("avr");
                h.usize(program.len());
                for &w in program {
                    h.u64(u64::from(w));
                }
                h.bytes(dmem);
            }
            Self::Msp430 { image } => {
                h.str("msp430");
                h.usize(image.len());
                for &w in image {
                    h.u64(u64::from(w));
                }
            }
            Self::Stimuli { waves } => {
                h.str("stimuli");
                h.usize(waves.len());
                for (name, values) in waves {
                    h.str(name);
                    h.usize(values.len());
                    for &v in values {
                        h.bool(v);
                    }
                }
            }
        }
    }

    /// Builds the harness this source describes.  Core harnesses elaborate
    /// their own system; deterministic elaboration guarantees its net ids
    /// match the pipeline design's.
    fn harness(&self, design: &Design) -> Result<Box<dyn DesignHarness + Sync>, MateError> {
        match self {
            Self::Avr { program, dmem } => {
                Ok(Box::new(AvrWorkload::new(program.clone(), dmem.clone())))
            }
            Self::Msp430 { image } => Ok(Box::new(Msp430Workload::new(image.clone()))),
            Self::Stimuli { waves } => {
                let mut harness =
                    StimulusHarness::new(design.netlist.clone(), design.topology.clone());
                for (name, values) in waves {
                    let net =
                        design
                            .netlist
                            .find_net(name)
                            .ok_or_else(|| MateError::UnknownNet {
                                line: 0,
                                name: name.clone(),
                            })?;
                    harness = harness.drive(net, values.clone());
                }
                Ok(Box::new(harness))
            }
        }
    }
}

/// Records the fault-free workload trace (the paper's VCD capture step).
#[derive(Clone, Debug)]
pub struct TraceCapture {
    /// The workload.
    pub source: TraceSource,
    /// Trace length in clock cycles.
    pub cycles: usize,
}

impl Stage<&Design> for TraceCapture {
    type Output = WaveTrace;

    fn name(&self) -> &'static str {
        "trace-capture"
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        self.source.fingerprint(h);
        h.usize(self.cycles);
    }

    fn execute(&self, input: &&Design) -> Result<WaveTrace, MateError> {
        match &self.source {
            TraceSource::Stimuli { waves } => {
                let mut tb = Testbench::new(&input.netlist, &input.topology);
                for (name, values) in waves {
                    let net =
                        input
                            .netlist
                            .find_net(name)
                            .ok_or_else(|| MateError::UnknownNet {
                                line: 0,
                                name: name.clone(),
                            })?;
                    tb.drive(net, InputWave::from_vec(values.clone()));
                }
                Ok(tb.run(self.cycles))
            }
            source => Ok(source.harness(input)?.testbench().run(self.cycles)),
        }
    }

    fn encode(&self, input: &&Design, output: &WaveTrace) -> Result<Vec<u8>, MateError> {
        let mut buf = Vec::new();
        write_vcd(&input.netlist, output, &mut buf)?;
        Ok(buf)
    }

    fn decode(&self, input: &&Design, bytes: &[u8]) -> Result<WaveTrace, MateError> {
        read_vcd(&input.netlist, BufReader::new(bytes))
    }
}

/// Evaluates a MATE set on a trace (the prune-matrix step).
#[derive(Clone, Debug)]
pub struct Evaluate {
    /// The fault-space wires the matrix covers.
    pub wires: WireSetSpec,
}

impl<'a> Stage<(&'a Design, &'a MateSet, &'a WaveTrace)> for Evaluate {
    type Output = EvalReport;

    fn name(&self) -> &'static str {
        "evaluate"
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        self.wires.fingerprint(h);
    }

    fn execute(
        &self,
        (design, mates, trace): &(&Design, &MateSet, &WaveTrace),
    ) -> Result<EvalReport, MateError> {
        let wires = self.wires.resolve(design)?;
        Ok(evaluate(mates, trace, &wires))
    }

    fn encode(
        &self,
        (design, _, _): &(&Design, &MateSet, &WaveTrace),
        output: &EvalReport,
    ) -> Result<Vec<u8>, MateError> {
        let m = &output.matrix;
        let mut text = format!(
            "# eval v1 wires={} cycles={} effective={} avg_inputs={} std_inputs={}\n",
            m.wires().len(),
            m.cycles(),
            output.effective,
            output.avg_inputs,
            output.std_inputs
        );
        text.push_str("# triggers");
        for t in &output.triggers {
            text.push_str(&format!(" {t}"));
        }
        text.push('\n');
        for (idx, &wire) in m.wires().iter().enumerate() {
            text.push_str(design.netlist.net(wire).name());
            for word in m.row_words(idx) {
                text.push_str(&format!(" {word:x}"));
            }
            text.push('\n');
        }
        Ok(text.into_bytes())
    }

    fn decode(
        &self,
        (design, _, _): &(&Design, &MateSet, &WaveTrace),
        bytes: &[u8],
    ) -> Result<EvalReport, MateError> {
        let text = artifact_utf8(self.name(), bytes)?;
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| MateError::artifact(self.name(), "empty artifact"))?;
        let header = header
            .strip_prefix("# eval v1 ")
            .ok_or_else(|| MateError::artifact(self.name(), "missing `# eval v1` header"))?;
        let mut wires_len = 0usize;
        let mut cycles = 0usize;
        let mut effective = 0usize;
        let mut avg_inputs = 0f64;
        let mut std_inputs = 0f64;
        for field in header.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| MateError::artifact(self.name(), format!("bad field `{field}`")))?;
            let num = || -> Result<f64, MateError> {
                value.parse().map_err(|_| {
                    MateError::artifact(self.name(), format!("bad value in `{field}`"))
                })
            };
            match key {
                "wires" => wires_len = num()? as usize,
                "cycles" => cycles = num()? as usize,
                "effective" => effective = num()? as usize,
                "avg_inputs" => avg_inputs = num()?,
                "std_inputs" => std_inputs = num()?,
                _ => {}
            }
        }
        let (_, trig_line) = lines
            .next()
            .ok_or_else(|| MateError::artifact(self.name(), "missing trigger line"))?;
        let trig_line = trig_line
            .strip_prefix("# triggers")
            .ok_or_else(|| MateError::artifact(self.name(), "missing `# triggers` line"))?;
        let triggers: Vec<usize> = trig_line
            .split_whitespace()
            .map(|t| parse_field(self.name(), 1, t))
            .collect::<Result<_, _>>()?;

        let mut wires = Vec::with_capacity(wires_len);
        let mut rows: Vec<Vec<u64>> = Vec::with_capacity(wires_len);
        for (idx, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().ok_or_else(|| bad_line(self.name(), idx))?;
            let wire = design
                .netlist
                .find_net(name)
                .ok_or_else(|| MateError::UnknownNet {
                    line: idx + 1,
                    name: name.to_owned(),
                })?;
            let words: Vec<u64> = parts
                .map(|w| {
                    u64::from_str_radix(w, 16).map_err(|_| {
                        MateError::artifact(self.name(), format!("bad hex word `{w}`"))
                    })
                })
                .collect::<Result<_, _>>()?;
            wires.push(wire);
            rows.push(words);
        }
        if wires.len() != wires_len {
            return Err(MateError::artifact(
                self.name(),
                format!("expected {wires_len} wire rows, found {}", wires.len()),
            ));
        }
        let mut matrix = PruneMatrix::new(&wires, cycles);
        for (idx, words) in rows.iter().enumerate() {
            for (word_idx, &word) in words.iter().enumerate() {
                matrix.mark_cycle_word(idx, word_idx, word);
            }
        }
        Ok(EvalReport {
            matrix,
            triggers,
            effective,
            avg_inputs,
            std_inputs,
        })
    }
}

/// Greedy top-N MATE selection (step 3 of Section 4).
#[derive(Clone, Debug)]
pub struct Select {
    /// The fault-space wires coverage is counted over.
    pub wires: WireSetSpec,
    /// How many MATEs to keep.
    pub top_n: usize,
}

impl<'a> Stage<(&'a Design, &'a MateSet, &'a WaveTrace)> for Select {
    type Output = MateSet;

    fn name(&self) -> &'static str {
        "select"
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        self.wires.fingerprint(h);
        h.usize(self.top_n);
    }

    fn execute(
        &self,
        (design, mates, trace): &(&Design, &MateSet, &WaveTrace),
    ) -> Result<MateSet, MateError> {
        let wires = self.wires.resolve(design)?;
        Ok(select_top_n(mates, trace, &wires, self.top_n))
    }

    fn encode(
        &self,
        (design, _, _): &(&Design, &MateSet, &WaveTrace),
        output: &MateSet,
    ) -> Result<Vec<u8>, MateError> {
        let mut buf = Vec::new();
        write_mates(&design.netlist, output, &mut buf)?;
        Ok(buf)
    }

    fn decode(
        &self,
        (design, _, _): &(&Design, &MateSet, &WaveTrace),
        bytes: &[u8],
    ) -> Result<MateSet, MateError> {
        read_mates(&design.netlist, BufReader::new(bytes))
    }
}

/// Runs the (sampled) fault-injection campaign on the batched engine.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// The workload driving the design.
    pub source: TraceSource,
    /// Campaign parameters.
    pub config: CampaignConfig,
    /// Restrict the fault space to these wires (`None` = every flip-flop).
    pub wires: Option<WireSetSpec>,
}

impl Stage<&Design> for Campaign {
    type Output = CampaignResult;

    fn name(&self) -> &'static str {
        "campaign"
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        self.source.fingerprint(h);
        h.usize(self.config.cycles);
        match self.config.sample {
            Some(n) => {
                h.bool(true);
                h.usize(n);
            }
            None => h.bool(false),
        }
        h.u64(self.config.seed);
        // `threads` and `engine` excluded: records are bit-identical for
        // every thread count and batched engine (enforced by the campaign
        // proptests), so neither may split the cache.
        match &self.wires {
            Some(spec) => {
                h.bool(true);
                spec.fingerprint(h);
            }
            None => h.bool(false),
        }
    }

    fn execute(&self, input: &&Design) -> Result<CampaignResult, MateError> {
        let harness = self.source.harness(input)?;
        let space = match &self.wires {
            Some(spec) => {
                let wires = spec.resolve(input)?;
                FaultSpace::for_wires(&input.netlist, &input.topology, &wires, self.config.cycles)
            }
            None => FaultSpace::all_ffs(&input.netlist, &input.topology, self.config.cycles),
        };
        run_campaign_wide(harness.as_ref(), &space, &self.config)
    }

    fn encode(&self, input: &&Design, output: &CampaignResult) -> Result<Vec<u8>, MateError> {
        let mut text = format!("# campaign v1 records={}\n", output.records.len());
        for (point, effect) in &output.records {
            let effect = match effect {
                FaultEffect::MaskedWithinOneCycle => "masked".to_owned(),
                FaultEffect::SilentRecovery { after } => format!("recovery:{after}"),
                FaultEffect::Latent => "latent".to_owned(),
                FaultEffect::OutputFailure { after } => format!("failure:{after}"),
            };
            text.push_str(&format!(
                "{} {} {effect}\n",
                input.netlist.net(point.wire).name(),
                point.cycle
            ));
        }
        Ok(text.into_bytes())
    }

    fn decode(&self, input: &&Design, bytes: &[u8]) -> Result<CampaignResult, MateError> {
        let text = artifact_utf8(self.name(), bytes)?;
        let ff_of: HashMap<&str, (mate_netlist::CellId, NetId)> = input
            .topology
            .seq_cells()
            .iter()
            .map(|&ff| {
                let wire = input.netlist.cell(ff).output();
                (input.netlist.net(wire).name(), (ff, wire))
            })
            .collect();
        let mut records = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().ok_or_else(|| bad_line(self.name(), idx))?;
            let cycle: usize = parse_field(self.name(), idx, parts.next().unwrap_or(""))?;
            let effect = parts.next().ok_or_else(|| bad_line(self.name(), idx))?;
            let &(ff, wire) = ff_of.get(name).ok_or_else(|| MateError::UnknownNet {
                line: idx + 1,
                name: name.to_owned(),
            })?;
            let effect = if effect == "masked" {
                FaultEffect::MaskedWithinOneCycle
            } else if effect == "latent" {
                FaultEffect::Latent
            } else if let Some(after) = effect.strip_prefix("recovery:") {
                FaultEffect::SilentRecovery {
                    after: parse_field(self.name(), idx, after)?,
                }
            } else if let Some(after) = effect.strip_prefix("failure:") {
                FaultEffect::OutputFailure {
                    after: parse_field(self.name(), idx, after)?,
                }
            } else {
                return Err(MateError::artifact(
                    self.name(),
                    format!("line {}: unknown effect `{effect}`", idx + 1),
                ));
            };
            records.push((FaultPoint { ff, wire, cycle }, effect));
        }
        // Cached artifacts carry no work accounting (the stats are
        // diagnostic, not part of the result): report an idle stats block.
        Ok(CampaignResult {
            records,
            pruning: PruningStats::default(),
        })
    }
}

fn artifact_utf8<'b>(stage: &str, bytes: &'b [u8]) -> Result<&'b str, MateError> {
    std::str::from_utf8(bytes)
        .map_err(|e| MateError::artifact(stage, format!("non-UTF-8 artifact: {e}")))
}

fn bad_line(stage: &str, idx: usize) -> MateError {
    MateError::artifact(stage, format!("line {}: malformed", idx + 1))
}

fn parse_field<T: std::str::FromStr>(stage: &str, idx: usize, text: &str) -> Result<T, MateError> {
    text.parse()
        .map_err(|_| MateError::artifact(stage, format!("line {}: bad number `{text}`", idx + 1)))
}
