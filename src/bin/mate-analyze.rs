//! `mate-analyze` — the static-verification gate as a command-line tool.
//!
//! Lints the shipped core netlists — or any external gate-level Yosys JSON
//! netlist (`--json <path>`) — and independently verifies MATEs, exiting
//! non-zero when any MATE is refuted or any lint at/above the `--deny`
//! severity fires.  All heavy stages run through the content-addressed
//! pipeline cache, so repeated gate runs are cheap.
//!
//! Every (MATE, wire) masking condition is decided exactly by the builtin
//! CDCL solver: `proved` carries a replay-checked UNSAT certificate over
//! the full `2^free` border space, `refuted` a re-simulated
//! counterexample.  The same engine then proves per-wire *completeness* —
//! that the selected MATE set matches every benign fault point on each
//! covered wire — with gaps reported as `mate-coverage` warnings.  A
//! verdict only stays `bounded` when the per-call conflict budget
//! (`--budget`, default 1000000) fires; pair with `--deny bounded` to make
//! that a gate failure.
//!
//! `--deny` is repeatable: a severity (`error`, `warning`, `info`) sets
//! the lint gate threshold, and the special value `bounded` additionally
//! fails the gate on any bounded (uncertified) verdict.
//!
//! ```text
//! mate-analyze [--core avr|msp430|all|none] [--json <path>]... [--top-module M]
//!              [--wires all|no-rf] [--top N] [--budget N]
//!              [--deny error|warning|info|bounded]...
//!              [--threads N] [--emit text|json]
//! ```
//!
//! `--emit json` includes deterministic per-verdict solver statistics
//! (conflicts, decisions, propagations, learned clauses, restarts) and the
//! per-wire coverage certificates; wall-clock time is deliberately
//! excluded so output is byte-identical across runs and thread counts.
//!
//! Exit codes:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | every target passed the gate |
//! | 1    | gate failure: a refuted MATE, a lint at/above `--deny`, a bounded verdict under `--deny bounded` (the conflict budget fired), or an external netlist rejected by the ingest lint gate (undriven/multi-driven nets, combinational loops, unknown cells, clock-discipline violations) |
//! | 2    | usage error |
//! | 3    | runtime error (I/O, malformed JSON, cache store problems) |

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fault_space_pruning::analyze::{
    count_denied, render_coverage_json, render_coverage_text, render_json, render_text,
    render_verdicts_json, render_verdicts_text, Severity, VerifyConfig,
};
use fault_space_pruning::pipeline::{DesignSource, Flow, WireSetSpec};
use mate_bench::{no_rf_spec, table_search_config, Core, TRACE_CYCLES};
use mate_netlist::MateError;

/// Parsed command line.
struct Options {
    cores: Vec<Core>,
    /// External Yosys JSON netlists to gate alongside (or instead of) the
    /// builtin cores.
    externals: Vec<PathBuf>,
    /// Explicit top module for external netlists.
    top_module: Option<String>,
    wires: WireSetSpec,
    top: usize,
    budget: u64,
    deny: Severity,
    deny_bounded: bool,
    threads: usize,
    emit_json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mate-analyze [--core avr|msp430|all|none] [--json <path>]... \
         [--top-module M] [--wires all|no-rf] [--top N] [--budget N] \
         [--deny error|warning|info|bounded]... [--threads N] [--emit text|json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        cores: vec![Core::Avr, Core::Msp430],
        externals: Vec::new(),
        top_module: None,
        wires: WireSetSpec::AllFfs,
        top: 100,
        budget: 1_000_000,
        deny: Severity::Error,
        deny_bounded: false,
        threads: 0,
        emit_json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("mate-analyze: {flag} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--core" => {
                opts.cores = match value("--core").as_str() {
                    "avr" => vec![Core::Avr],
                    "msp430" => vec![Core::Msp430],
                    "all" => vec![Core::Avr, Core::Msp430],
                    // `--json`-only runs: gate external netlists alone.
                    "none" => Vec::new(),
                    other => {
                        eprintln!("mate-analyze: unknown core `{other}`");
                        usage();
                    }
                };
            }
            "--json" => opts.externals.push(PathBuf::from(value("--json"))),
            "--top-module" => opts.top_module = Some(value("--top-module")),
            "--wires" => {
                opts.wires = match value("--wires").as_str() {
                    "all" => WireSetSpec::AllFfs,
                    "no-rf" => no_rf_spec(),
                    other => {
                        eprintln!("mate-analyze: unknown wire set `{other}`");
                        usage();
                    }
                };
            }
            "--top" => {
                opts.top = value("--top").parse().unwrap_or_else(|_| usage());
            }
            "--budget" => {
                opts.budget = value("--budget").parse().unwrap_or_else(|_| usage());
            }
            "--deny" => match value("--deny").as_str() {
                "error" => opts.deny = Severity::Error,
                "warning" => opts.deny = Severity::Warning,
                "info" => opts.deny = Severity::Info,
                "bounded" => opts.deny_bounded = true,
                other => {
                    eprintln!("mate-analyze: unknown severity `{other}`");
                    usage();
                }
            },
            "--threads" => {
                opts.threads = value("--threads").parse().unwrap_or_else(|_| usage());
            }
            "--emit" => {
                opts.emit_json = match value("--emit").as_str() {
                    "json" => true,
                    "text" => false,
                    other => {
                        eprintln!("mate-analyze: unknown output format `{other}`");
                        usage();
                    }
                };
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("mate-analyze: unknown argument `{other}`");
                usage();
            }
        }
    }
    opts
}

/// Renders one gate report; returns `true` when the gate passes.
fn report_gate(
    flow: &Flow,
    label: &str,
    report: &fault_space_pruning::pipeline::AnalysisReport,
    opts: &Options,
) -> bool {
    let netlist = &flow.design().netlist;
    if opts.emit_json {
        let totals = report.solver_totals();
        println!(
            "{{\"target\":\"{label}\",\"diagnostics\":{},\"verdicts\":{},\
             \"coverage\":{},\"solver_totals\":{{\"conflicts\":{},\"decisions\":{},\
             \"propagations\":{},\"learned\":{},\"restarts\":{}}}}}",
            render_json(netlist, &report.diagnostics).trim_end(),
            render_verdicts_json(netlist, &report.verdicts).trim_end(),
            render_coverage_json(netlist, &report.coverage).trim_end(),
            totals.conflicts,
            totals.decisions,
            totals.propagations,
            totals.learned,
            totals.restarts,
        );
    } else {
        println!("== {label} ==");
        print!("{}", render_text(netlist, &report.diagnostics));
        print!("{}", render_verdicts_text(netlist, &report.verdicts));
        print!("{}", render_coverage_text(netlist, &report.coverage));
        let counts = report.counts();
        println!(
            "{label}: {} lint findings ({} denied at --deny {}), {} proved / {} bounded / {} refuted",
            report.diagnostics.len(),
            count_denied(&report.diagnostics, opts.deny),
            opts.deny.label(),
            counts.proved,
            counts.bounded,
            counts.refuted,
        );
        let cov = report.coverage_counts();
        let totals = report.solver_totals();
        println!(
            "{label}: coverage {} complete / {} gaps / {} undecided; solver {} conflicts, \
             {} decisions, {} propagations, {} learned, {} restarts",
            cov.complete,
            cov.gaps,
            cov.undecided,
            totals.conflicts,
            totals.decisions,
            totals.propagations,
            totals.learned,
            totals.restarts,
        );
    }
    report.gate_passes_with(opts.deny, opts.deny_bounded)
}

/// Runs the gate for one builtin core; returns `true` when it passes.
fn run_core(core: Core, opts: &Options) -> Result<bool, MateError> {
    let mut flow = Flow::open_default(core.design_source())?;

    let search = flow.search(opts.wires.clone(), table_search_config())?;
    let trace = flow.capture(core.fib(), TRACE_CYCLES)?;
    let selected = flow.select(
        opts.wires.clone(),
        opts.top,
        (&search.value.mates, search.key),
        trace.part(),
    )?;
    let report = flow.analyze(
        selected.part(),
        VerifyConfig {
            threads: opts.threads,
            conflict_budget: opts.budget,
        },
    )?;
    Ok(report_gate(&flow, core.label(), &report.value, opts))
}

/// Runs the gate for one external Yosys JSON netlist.  Ingest (JSON
/// schema, cell mapping, lint gate) happens inside the design stage; a
/// rejection surfaces as an error here and exits with code 1.  There is
/// no builtin workload for external designs, so the verifier audits the
/// full searched MATE set instead of a trace-ranked top-N.
fn run_external(path: &Path, opts: &Options) -> Result<bool, MateError> {
    let mut flow = Flow::open_default(DesignSource::YosysJson {
        path: path.to_path_buf(),
        top: opts.top_module.clone(),
    })?;
    let search = flow.search(opts.wires.clone(), table_search_config())?;
    let report = flow.analyze(
        (&search.value.mates, search.key),
        VerifyConfig {
            threads: opts.threads,
            conflict_budget: opts.budget,
        },
    )?;
    let label = format!("{} ({})", flow.design().netlist.name(), path.display());
    Ok(report_gate(&flow, &label, &report.value, opts))
}

/// `true` when the error chain is an ingest-gate rejection of the netlist
/// (exit 1: the gate's verdict) rather than an environmental failure
/// (exit 3).
fn is_ingest_rejection(e: &MateError) -> bool {
    match e {
        MateError::Ingest { .. } => true,
        MateError::File { source, .. } => is_ingest_rejection(source),
        _ => false,
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    if opts.cores.is_empty() && opts.externals.is_empty() {
        eprintln!("mate-analyze: nothing to analyze (--core none with no --json)");
        usage();
    }
    let mut pass = true;
    for &core in &opts.cores {
        match run_core(core, &opts) {
            Ok(ok) => pass &= ok,
            Err(e) => {
                eprintln!("mate-analyze: {}: {e}", core.label());
                return ExitCode::from(3);
            }
        }
    }
    for path in &opts.externals {
        match run_external(path, &opts) {
            Ok(ok) => pass &= ok,
            Err(e) => {
                // `MateError::File` already names the path.
                eprintln!("mate-analyze: {e}");
                if is_ingest_rejection(&e) {
                    return ExitCode::FAILURE;
                }
                return ExitCode::from(3);
            }
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
