//! Static verification layer for the MATE pipeline.
//!
//! Two independent layers, both designed to *distrust* the code they check:
//!
//! * [`lint`] — structural netlist lint passes ([`lint::LintPass`]) with
//!   deterministic, renderer-agnostic [`diag::Diagnostic`]s: combinational
//!   loops, undriven and multiply-driven nets, dangling flip-flops,
//!   unreachable logic, fault-cone statistics, and gate-masking-table
//!   coverage gaps.
//! * [`verify`] — a MATE soundness verifier that re-proves *MATE ⇒
//!   single-cycle masking*, sharing zero code with the search-side
//!   propagation engines.  It compiles the fault cone to CNF ([`encode`])
//!   and decides the masking condition exactly with a dependency-free CDCL
//!   solver ([`sat`]) whose UNSAT answers are resolution-replay-checked and
//!   whose models are re-simulated.  Verdicts are
//!   [`verify::Verdict::Proved`], [`verify::Verdict::Bounded`] (conflict
//!   budget reached), or [`verify::Verdict::Refuted`] with a concrete
//!   counterexample.  [`verify::verify_mate_wire_enum`], which
//!   brute-forces border assignments via [`mate_netlist::TruthTable`]
//!   cofactoring up to a cap, is kept as the test oracle the solver is
//!   compared against.  [`complete`] reuses the solver for the dual
//!   question — per-wire proofs that the selected MATE set covers every
//!   benign fault point.
//!
//! # Example
//!
//! ```
//! use mate_netlist::examples::figure1;
//! use mate::prelude::*;
//! use mate_analyze::{run_lints, verify_mate_wire, Severity, Verdict, VerifyConfig};
//!
//! let (netlist, topo) = figure1();
//! let diags = run_lints(&netlist);
//! assert!(diags.iter().all(|d| d.severity != Severity::Error));
//!
//! let d = netlist.find_net("d").unwrap();
//! let result = search_wire(&netlist, &topo, d, &SearchConfig::default());
//! let verdict = verify_mate_wire(&netlist, &topo, d, &result.mates[0].cube,
//!                                &VerifyConfig::default());
//! assert!(matches!(verdict, Verdict::Proved { .. }));
//! ```

pub mod complete;
pub mod diag;
pub mod encode;
pub mod lint;
pub mod sat;
pub mod verify;

pub use complete::{
    count_coverage, coverage_diagnostics, prove_wire_coverage, render_coverage_json,
    render_coverage_text, CoverageCounts, WireCoverage,
};
pub use diag::{
    count_denied, render_json, render_text, sort_diagnostics, Diagnostic, Locus, Severity,
};
pub use encode::{CoverageProof, FaultConeCnf, MateProof};
pub use lint::{default_passes, run_lints, run_passes, LintContext, LintPass};
pub use sat::{Lit, SatOutcome, SolveStats, Solver};
pub use verify::{
    count_verdicts, render_verdicts_json, render_verdicts_text, verify_mate_wire,
    verify_mate_wire_enum, verify_mate_wire_sat, verify_mates, Counterexample, MateVerdict,
    Verdict, VerdictCounts, VerifyConfig,
};
