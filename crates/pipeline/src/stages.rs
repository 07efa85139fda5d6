//! The concrete stages of the paper's flow:
//! `LoadDesign → GmtLibrary → MateSearch → TraceCapture → Evaluate →
//! Select → Campaign`.
//!
//! Small or human-read artifacts are text in the repo's existing formats —
//! structural Verilog or Yosys JSON for designs, `mate-set v1` for MATE
//! sets — plus small line formats for the GMT table and evaluation
//! reports; these name every net.  The two bulk artifacts, traces and
//! campaign records, are fixed-width binary behind a frame (format tag,
//! net-numbering fingerprint, payload checksum) that ties them to the
//! design's numbering, so decoding them is a bounds-checked copy.  Either
//! way [`Stage::decode`] receives the design again: to resolve names, or
//! to check the numbering.

use std::path::PathBuf;
use std::time::Duration;

use mate::eval::{evaluate, EvalReport, PruneMatrix};
use mate::{
    ff_wires, ff_wires_filtered, read_mates, read_mates_in_order, search_design, select_top_n,
    write_mates, GmtCache, MateSet, SearchConfig, SearchStats, SearchStrategy,
};
use mate_analyze::{run_lints, sort_diagnostics, Severity};
use mate_cores::{AvrWorkload, Msp430Workload};
use mate_hafi::{
    run_campaign_wide, CampaignConfig, CampaignResult, DesignHarness, FaultEffect, FaultPoint,
    FaultSpace, PruningStats, StimulusHarness,
};
use mate_netlist::verilog::{parse_verilog, to_verilog};
use mate_netlist::yosys::{parse_yosys_netlist, to_yosys_json};
use mate_netlist::{Library, MateError, NetDriver, NetId, Netlist, Topology};
use mate_sim::WaveTrace;

use crate::frame::{self, FrameWriter};
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
            DesignSource::Verilog { text, .. } => {
                // The artifact declares inputs, then outputs, then wires,
                // so a warm decode may number nets differently from the
                // source.  Number them as the decode will: by re-parsing
                // the written form.
                let (netlist, _) = parse_verilog(text, Library::open15())?;
                parse_verilog(&to_verilog(&netlist), Library::open15())?
            }
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
    // `threads` is deliberately excluded: results are bit-identical for
    // every thread count.
}

impl Stage<&Design> for MateSearch {
    type Output = SearchOutput;

    fn name(&self) -> &'static str {
        "mate-search"
    }

    /// Also the artifact header's format tag: bump it with the format.
    fn version(&self) -> u32 {
        2
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
            "# search v{} faulty_wires={} avg_cone={} median_cone={} unmaskable={} \
             candidates={} num_mates={} mates={} gmt_entries={} run_time={} max_wire_time={} \
             total_wire_time={}\n",
            self.version(),
            s.faulty_wires,
            s.avg_cone,
            s.median_cone,
            s.unmaskable,
            s.candidates,
            s.num_mates,
            output.mates.len(),
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
        let tag = format!("# search v{} ", self.version());
        let (header, mate_text) = text
            .split_once('\n')
            .and_then(|(header, rest)| Some((header.strip_prefix(tag.as_str())?, rest)))
            .ok_or_else(|| MateError::artifact(self.name(), format!("missing `{tag}…` header")))?;
        let mut stats = SearchStats::default();
        let mut declared = None;
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
                "mates" => declared = Some(num()? as usize),
                "gmt_entries" => stats.gmt_entries = num()? as usize,
                "run_time" => stats.run_time = Duration::from_secs_f64(num()?),
                "max_wire_time" => stats.max_wire_time = Duration::from_secs_f64(num()?),
                "total_wire_time" => stats.total_wire_time = Duration::from_secs_f64(num()?),
                _ => {}
            }
        }
        let declared =
            declared.ok_or_else(|| MateError::artifact(self.name(), "header missing mates="))?;
        let mates = read_counted_mates(self.name(), &input.netlist, mate_text, declared, |text| {
            read_mates(&input.netlist, text)
        })?;
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
    ///
    /// Stimuli are checked here, once, for every stage that runs them: each
    /// wave must name a primary input and hold at least one value.
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
                    if design.netlist.net(net).driver() != NetDriver::Input {
                        return Err(MateError::campaign(format!(
                            "stimulus `{name}` does not drive a primary input"
                        )));
                    }
                    if values.is_empty() {
                        return Err(MateError::campaign(format!(
                            "stimulus `{name}` has no values"
                        )));
                    }
                    harness = harness.drive(net, values.clone());
                }
                Ok(Box::new(harness))
            }
        }
    }
}

/// Tag of the trace artifact frame.
const TRACE_TAG: [u8; 8] = *b"MATE-TRC";

/// Records the fault-free workload trace (the paper's VCD capture step).
///
/// The artifact is binary: the frame, `num_nets` and `cycles` as `u64`,
/// then [`WaveTrace::raw_words`] as little-endian row-major words, so a
/// warm run decodes it by copy.  VCD remains an export format
/// ([`mate_sim::write_vcd`]) for waveform viewers.
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

    fn version(&self) -> u32 {
        2
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        self.source.fingerprint(h);
        h.usize(self.cycles);
    }

    fn execute(&self, input: &&Design) -> Result<WaveTrace, MateError> {
        Ok(self.source.harness(input)?.testbench()?.run(self.cycles))
    }

    fn encode(&self, input: &&Design, output: &WaveTrace) -> Result<Vec<u8>, MateError> {
        let words = output.raw_words();
        let mut frame = FrameWriter::new(TRACE_TAG, input, 16 + 8 * words.len());
        frame.u64(output.num_nets() as u64);
        frame.u64(output.num_cycles() as u64);
        for &word in words {
            frame.u64(word);
        }
        Ok(frame.finish())
    }

    fn decode(&self, input: &&Design, bytes: &[u8]) -> Result<WaveTrace, MateError> {
        let mut payload = frame::open(self.name(), TRACE_TAG, input, bytes)?;
        let num_nets = payload.usize()?;
        let cycles = payload.usize()?;
        if num_nets != input.netlist.num_nets() {
            return Err(payload.error(format!(
                "trace of {num_nets} nets for a design of {}",
                input.netlist.num_nets()
            )));
        }
        WaveTrace::from_raw_words(num_nets, cycles, payload.words()?)
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

    /// Bump with the artifact format.
    fn version(&self) -> u32 {
        2
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
        let mut buf = format!("# select mates={}\n", output.len()).into_bytes();
        write_mates(&design.netlist, output, &mut buf)?;
        Ok(buf)
    }

    fn decode(
        &self,
        (design, _, _): &(&Design, &MateSet, &WaveTrace),
        bytes: &[u8],
    ) -> Result<MateSet, MateError> {
        let text = artifact_utf8(self.name(), bytes)?;
        let (declared, mate_text) = text
            .split_once('\n')
            .and_then(|(header, rest)| {
                Some((header.strip_prefix("# select mates=")?.parse().ok()?, rest))
            })
            .ok_or_else(|| MateError::artifact(self.name(), "missing `# select mates=N` header"))?;
        // Rank order, as computed: downstream stages index the MATEs, so a
        // warm run must see the same order as a cold one.
        read_counted_mates(self.name(), &design.netlist, mate_text, declared, |text| {
            read_mates_in_order(&design.netlist, text)
        })
    }
}

/// Tag of the campaign artifact frame.
const CAMPAIGN_TAG: [u8; 8] = *b"MATE-CMP";

/// Bytes per campaign record: flip-flop ordinal in `seq_cells()` (`u32`),
/// cycle (`u32`), effect tag (`u8`), `after` (`u32`).
const RECORD_BYTES: usize = 13;

/// Runs the (sampled) fault-injection campaign on the batched engine.
///
/// The artifact is binary: the frame, the record count as `u64`, then one
/// fixed-width record per fault point, in order.
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

    fn version(&self) -> u32 {
        2
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
        // `threads` excluded: records are bit-identical for every thread
        // count (enforced by the campaign tests), so it may not split the
        // cache.
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
        let bad = |message: String| MateError::artifact(self.name(), message);
        let field = |v: usize| u32::try_from(v).map_err(|_| bad(format!("{v} overflows u32")));
        let mut ordinal = vec![None; input.netlist.num_cells()];
        for (idx, &ff) in input.topology.seq_cells().iter().enumerate() {
            ordinal[ff.index()] = Some(field(idx)?);
        }
        let records = &output.records;
        let mut frame = FrameWriter::new(CAMPAIGN_TAG, input, 8 + RECORD_BYTES * records.len());
        frame.u64(records.len() as u64);
        for (point, effect) in records {
            let ff = ordinal
                .get(point.ff.index())
                .copied()
                .flatten()
                .filter(|_| input.netlist.cell(point.ff).output() == point.wire)
                .ok_or_else(|| bad(format!("{point:?} is not a flip-flop output")))?;
            let (tag, after) = match *effect {
                FaultEffect::MaskedWithinOneCycle => (0, 0),
                FaultEffect::SilentRecovery { after } => (1, after),
                FaultEffect::Latent => (2, 0),
                FaultEffect::OutputFailure { after } => (3, after),
            };
            frame.u32(ff);
            frame.u32(field(point.cycle)?);
            frame.u8(tag);
            frame.u32(field(after)?);
        }
        Ok(frame.finish())
    }

    fn decode(&self, input: &&Design, bytes: &[u8]) -> Result<CampaignResult, MateError> {
        let mut payload = frame::open(self.name(), CAMPAIGN_TAG, input, bytes)?;
        let count = payload.usize()?;
        let body = payload.rest();
        let bad = |message: String| MateError::artifact(self.name(), message);
        if count.checked_mul(RECORD_BYTES) != Some(body.len()) {
            return Err(bad(format!("{count} records in {} bytes", body.len())));
        }
        let ffs: Vec<_> = input
            .topology
            .seq_cells()
            .iter()
            .map(|&ff| (ff, input.netlist.cell(ff).output()))
            .collect();
        let field = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte field")) as usize;
        let mut records = Vec::with_capacity(count);
        for (idx, rec) in body.chunks_exact(RECORD_BYTES).enumerate() {
            let (ordinal, cycle, tag, after) = (
                field(&rec[0..4]),
                field(&rec[4..8]),
                rec[8],
                field(&rec[9..13]),
            );
            let &(ff, wire) = ffs
                .get(ordinal)
                .ok_or_else(|| bad(format!("record {idx}: flip-flop {ordinal} out of range")))?;
            let effect = match (tag, after) {
                (0, 0) => FaultEffect::MaskedWithinOneCycle,
                (1, after) => FaultEffect::SilentRecovery { after },
                (2, 0) => FaultEffect::Latent,
                (3, after) => FaultEffect::OutputFailure { after },
                _ => return Err(bad(format!("record {idx}: bad effect {tag}:{after}"))),
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

/// Reads, with `read`, the `mate-set v1` text that follows a stage header
/// declaring `declared` MATEs.  The text must open with the line
/// [`write_mates`] writes for `netlist`: the reader skips `#` lines, so a
/// dropped one would go unnoticed.  A truncated or line-dropped set still
/// parses line by line; the count catches it.
fn read_counted_mates(
    stage: &str,
    netlist: &Netlist,
    text: &str,
    declared: usize,
    read: impl FnOnce(&[u8]) -> Result<MateSet, MateError>,
) -> Result<MateSet, MateError> {
    let expected = format!("# mate-set v1 design={}", netlist.name());
    if text.lines().next() != Some(expected.as_str()) {
        return Err(MateError::artifact(
            stage,
            format!("missing `{expected}` line"),
        ));
    }
    let mates = read(text.as_bytes())?;
    if mates.len() != declared {
        return Err(MateError::artifact(
            stage,
            format!("header mates={declared} but {} MATEs present", mates.len()),
        ));
    }
    Ok(mates)
}

/// Borrows a text artifact as UTF-8.
pub(crate) fn artifact_utf8<'b>(stage: &str, bytes: &'b [u8]) -> Result<&'b str, MateError> {
    std::str::from_utf8(bytes)
        .map_err(|e| MateError::artifact(stage, format!("non-UTF-8 artifact: {e}")))
}

/// The error for malformed line `idx` (0-based) of a text artifact.
pub(crate) fn bad_line(stage: &str, idx: usize) -> MateError {
    MateError::artifact(stage, format!("line {}: malformed", idx + 1))
}

/// Parses one numeric field of line `idx` (0-based) of a text artifact.
pub(crate) fn parse_field<T: std::str::FromStr>(
    stage: &str,
    idx: usize,
    text: &str,
) -> Result<T, MateError> {
    text.parse()
        .map_err(|_| MateError::artifact(stage, format!("line {}: bad number `{text}`", idx + 1)))
}

#[cfg(test)]
mod tests {
    use mate_netlist::examples::tmr_register;

    use super::*;

    fn tmr() -> Design {
        let (netlist, topology) = tmr_register();
        Design { netlist, topology }
    }

    fn stimuli() -> TraceSource {
        TraceSource::Stimuli {
            waves: vec![("load".into(), vec![true, false])],
        }
    }

    /// A well-framed trace payload: correct tag, numbering and checksum.
    fn trace_frame(design: &Design, num_nets: u64, cycles: u64, words: &[u64]) -> Vec<u8> {
        let mut frame = FrameWriter::new(TRACE_TAG, design, 0);
        frame.u64(num_nets);
        frame.u64(cycles);
        for &w in words {
            frame.u64(w);
        }
        frame.finish()
    }

    /// A well-framed campaign payload of `(ordinal, cycle, tag, after)`
    /// records under a declared `count`.
    fn campaign_frame(design: &Design, count: u64, records: &[(u32, u32, u8, u32)]) -> Vec<u8> {
        let mut frame = FrameWriter::new(CAMPAIGN_TAG, design, 0);
        frame.u64(count);
        for &(ordinal, cycle, tag, after) in records {
            frame.u32(ordinal);
            frame.u32(cycle);
            frame.u8(tag);
            frame.u32(after);
        }
        frame.finish()
    }

    #[test]
    fn well_framed_but_invalid_traces_are_rejected() {
        let design = tmr();
        let stage = TraceCapture {
            source: stimuli(),
            cycles: 2,
        };
        let nets = design.netlist.num_nets() as u64;
        assert!(nets < 64);
        let decode = |bytes: Vec<u8>| stage.decode(&&design, &bytes);
        assert!(decode(trace_frame(&design, nets, 2, &[1, 2])).is_ok());
        // Another net count, a short or long body, set padding bits.
        assert!(decode(trace_frame(&design, nets + 1, 2, &[1, 2])).is_err());
        assert!(decode(trace_frame(&design, nets, 2, &[1])).is_err());
        assert!(decode(trace_frame(&design, nets, 2, &[1, 2, 3])).is_err());
        assert!(decode(trace_frame(&design, nets, 2, &[1, 1 << nets])).is_err());
        assert!(decode(trace_frame(&design, nets, u64::MAX, &[1, 2])).is_err());
        // A body that is not whole words.
        let mut ragged = FrameWriter::new(TRACE_TAG, &design, 0);
        ragged.u64(nets);
        ragged.u64(0);
        ragged.u8(0);
        assert!(decode(ragged.finish()).is_err());
    }

    #[test]
    fn well_framed_but_invalid_campaigns_are_rejected() {
        let design = tmr();
        let stage = Campaign {
            source: stimuli(),
            config: CampaignConfig::default(),
            wires: None,
        };
        let ffs = design.topology.seq_cells().len() as u32;
        let decode = |bytes: Vec<u8>| stage.decode(&&design, &bytes);
        let valid = [(0, 0, 0, 0), (1, 3, 1, 2), (2, 4, 2, 0), (0, 5, 3, 7)];
        let records = decode(campaign_frame(&design, 4, &valid)).unwrap().records;
        assert_eq!(records.len(), 4);
        assert_eq!(records[1].0.ff, design.topology.seq_cells()[1]);
        assert_eq!(records[3].1, FaultEffect::OutputFailure { after: 7 });
        // A count that disagrees with the body.
        assert!(decode(campaign_frame(&design, 3, &valid)).is_err());
        assert!(decode(campaign_frame(&design, 5, &valid)).is_err());
        assert!(decode(campaign_frame(&design, u64::MAX, &valid)).is_err());
        // An out-of-range ordinal, an unknown tag, `after` on an effect
        // that has none.
        for bad in [(ffs, 0, 0, 0), (0, 0, 4, 0), (0, 0, 0, 1), (0, 0, 2, 1)] {
            assert!(
                decode(campaign_frame(&design, 1, &[bad])).is_err(),
                "{bad:?}"
            );
        }
    }
}
