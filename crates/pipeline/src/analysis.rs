//! The `Analyze` stage: netlist lint, SAT-certified MATE soundness
//! verification and per-wire completeness proofs as a cached pipeline
//! step.
//!
//! Wraps [`mate_analyze`] so the static-verification layer participates in
//! the content-addressed artifact cache like every other stage: the artifact
//! key covers the design, the verified MATE set and the conflict budget —
//! but not the thread count, which never changes results.

use std::collections::HashMap;

use mate::MateSet;
use mate_analyze::encode::CoverageProof;
use mate_analyze::verify::{Counterexample, MateVerdict, Verdict};
use mate_analyze::{
    count_coverage, count_denied, count_verdicts, coverage_diagnostics, prove_wire_coverage,
    run_lints, sort_diagnostics, verify_mates, CoverageCounts, Diagnostic, Locus, Severity,
    SolveStats, VerdictCounts, VerifyConfig, WireCoverage,
};
use mate_netlist::{MateError, NetId};

use crate::hash::ContentHasher;
use crate::stage::Stage;
use crate::stages::{artifact_utf8, bad_line, parse_field, Design};

/// Combined output of the lint, verification, and coverage layers.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisReport {
    /// Canonically sorted lint diagnostics (including `mate-coverage`
    /// warnings for coverage gaps).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-(MATE, wire) verdicts, sorted by (mate index, wire).
    pub verdicts: Vec<MateVerdict>,
    /// Per-wire completeness certificates, sorted by wire.
    pub coverage: Vec<WireCoverage>,
    /// The per-call solver conflict budget the proofs ran under.
    pub conflict_budget: u64,
}

impl AnalysisReport {
    /// Proved / Bounded / Refuted tallies.
    pub fn counts(&self) -> VerdictCounts {
        count_verdicts(&self.verdicts)
    }

    /// Complete / gap / undecided tallies of the coverage pass.
    pub fn coverage_counts(&self) -> CoverageCounts {
        count_coverage(&self.coverage)
    }

    /// Number of diagnostics at or above `deny` severity.
    pub fn denied(&self, deny: Severity) -> usize {
        count_denied(&self.diagnostics, deny)
    }

    /// `true` when nothing blocks a release: no refuted MATE, no
    /// diagnostic at or above `deny`, and — when `deny_bounded` — no
    /// bounded (uncertified) verdict either.
    pub fn gate_passes_with(&self, deny: Severity, deny_bounded: bool) -> bool {
        let counts = self.counts();
        counts.refuted == 0 && self.denied(deny) == 0 && (!deny_bounded || counts.bounded == 0)
    }

    /// `true` when nothing blocks a release: no refuted MATE and no
    /// diagnostic at or above `deny`.
    pub fn gate_passes(&self, deny: Severity) -> bool {
        self.gate_passes_with(deny, false)
    }

    /// Element-wise sum of every recorded solver-counter block (verdicts
    /// and coverage proofs) — the deterministic cost of the proofs.
    pub fn solver_totals(&self) -> SolveStats {
        let mut total = SolveStats::default();
        for v in &self.verdicts {
            total = total.merge(v.stats);
        }
        for c in &self.coverage {
            let s = match &c.proof {
                CoverageProof::Complete { stats }
                | CoverageProof::Gap { stats, .. }
                | CoverageProof::Undecided { stats } => stats,
            };
            total = total.merge(*s);
        }
        total
    }
}

/// Lint the design and verify `mates` against it (the static-verification
/// pipeline stage).
#[derive(Clone, Debug)]
pub struct Analyze {
    /// Solver limits; `threads` is excluded from the fingerprint.
    pub config: VerifyConfig,
}

impl<'a> Stage<(&'a Design, &'a MateSet)> for Analyze {
    type Output = AnalysisReport;

    fn name(&self) -> &'static str {
        "analyze"
    }

    /// Also the artifact header's format tag: bump it with the format.
    fn version(&self) -> u32 {
        4
    }

    fn fingerprint(&self, h: &mut ContentHasher) {
        h.u64(self.config.conflict_budget);
        // `threads` excluded: verdicts are bit-identical per thread count.
    }

    fn execute(&self, (design, mates): &(&Design, &MateSet)) -> Result<AnalysisReport, MateError> {
        let mut diagnostics = run_lints(&design.netlist);
        let verdicts = verify_mates(&design.netlist, &design.topology, mates, &self.config);
        let coverage = prove_wire_coverage(&design.netlist, &design.topology, mates, &self.config);
        diagnostics.extend(coverage_diagnostics(&design.netlist, &coverage));
        sort_diagnostics(&mut diagnostics);
        Ok(AnalysisReport {
            diagnostics,
            verdicts,
            coverage,
            conflict_budget: self.config.conflict_budget,
        })
    }

    fn encode(
        &self,
        (design, _): &(&Design, &MateSet),
        output: &AnalysisReport,
    ) -> Result<Vec<u8>, MateError> {
        let n = &design.netlist;
        let mut text = format!(
            "# analyze v{} budget={}\n",
            self.version(),
            output.conflict_budget
        );
        for d in &output.diagnostics {
            let (kind, locus) = match d.locus {
                Locus::Net(id) => ("net", n.net(id).name().to_owned()),
                Locus::Cell(id) => ("cell", n.cell(id).name().to_owned()),
                Locus::Design => ("design", "-".to_owned()),
            };
            text.push_str(&format!(
                "D\t{}\t{}\t{kind}\t{locus}\t{}\n",
                d.severity, d.code, d.message
            ));
        }
        for v in &output.verdicts {
            let wire = n.net(v.wire).name();
            let stats = encode_stats(&v.stats);
            match &v.verdict {
                Verdict::Proved { checked } => {
                    text.push_str(&format!(
                        "V\t{}\t{wire}\tproved\t{checked}\t{stats}\n",
                        v.mate_index
                    ));
                }
                Verdict::Bounded { checked } => {
                    text.push_str(&format!(
                        "V\t{}\t{wire}\tbounded\t{checked}\t{stats}\n",
                        v.mate_index
                    ));
                }
                Verdict::Refuted { counterexample } => {
                    let assign = counterexample
                        .assignment
                        .iter()
                        .map(|&(net, b)| format!("{}={}", n.net(net).name(), u8::from(b)))
                        .collect::<Vec<_>>()
                        .join(" ");
                    text.push_str(&format!(
                        "V\t{}\t{wire}\trefuted\t{}\t{}\t{assign}\t{stats}\n",
                        v.mate_index,
                        u8::from(counterexample.origin_value),
                        n.net(counterexample.endpoint).name()
                    ));
                }
            }
        }
        for c in &output.coverage {
            let wire = n.net(c.wire).name();
            match &c.proof {
                CoverageProof::Complete { stats } => {
                    text.push_str(&format!(
                        "C\t{wire}\t{}\tcomplete\t{}\n",
                        c.mates,
                        encode_stats(stats)
                    ));
                }
                CoverageProof::Gap {
                    origin_value,
                    assignment,
                    stats,
                } => {
                    let assign = assignment
                        .iter()
                        .map(|&(net, b)| format!("{}={}", n.net(net).name(), u8::from(b)))
                        .collect::<Vec<_>>()
                        .join(" ");
                    text.push_str(&format!(
                        "C\t{wire}\t{}\tgap\t{}\t{assign}\t{}\n",
                        c.mates,
                        u8::from(*origin_value),
                        encode_stats(stats)
                    ));
                }
                CoverageProof::Undecided { stats } => {
                    text.push_str(&format!(
                        "C\t{wire}\t{}\tundecided\t{}\n",
                        c.mates,
                        encode_stats(stats)
                    ));
                }
            }
        }
        Ok(text.into_bytes())
    }

    fn decode(
        &self,
        (design, _): &(&Design, &MateSet),
        bytes: &[u8],
    ) -> Result<AnalysisReport, MateError> {
        let n = &design.netlist;
        let text = artifact_utf8(self.name(), bytes)?;
        let mut lines = text.lines().enumerate();
        let prefix = format!("# analyze v{} budget=", self.version());
        let conflict_budget = lines
            .next()
            .and_then(|(_, header)| header.strip_prefix(prefix.as_str()))
            .ok_or_else(|| MateError::artifact(self.name(), format!("header is not `{prefix}N`")))
            .and_then(|budget| parse_field(self.name(), 0, budget))?;

        let cells_by_name: HashMap<&str, mate_netlist::CellId> = n
            .cells()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name(), mate_netlist::CellId::from_index(i)))
            .collect();
        let net = |idx: usize, name: &str| -> Result<NetId, MateError> {
            n.find_net(name).ok_or_else(|| {
                MateError::artifact(
                    self.name(),
                    format!("line {}: unknown net `{name}`", idx + 1),
                )
            })
        };

        let parse_assign = |idx: usize, text: &str| -> Result<Vec<(NetId, bool)>, MateError> {
            let mut assignment = Vec::new();
            for pair in text.split(' ').filter(|p| !p.is_empty()) {
                let (name, value) = pair
                    .rsplit_once('=')
                    .ok_or_else(|| bad_line(self.name(), idx))?;
                let value = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad_line(self.name(), idx)),
                };
                assignment.push((net(idx, name)?, value));
            }
            Ok(assignment)
        };

        let mut diagnostics = Vec::new();
        let mut verdicts = Vec::new();
        let mut coverage = Vec::new();
        for (idx, line) in lines {
            let mut fields = line.split('\t');
            match fields.next() {
                Some("D") => {
                    let (Some(sev), Some(code), Some(kind), Some(locus), Some(message)) = (
                        fields.next(),
                        fields.next(),
                        fields.next(),
                        fields.next(),
                        fields.next(),
                    ) else {
                        return Err(bad_line(self.name(), idx));
                    };
                    let severity = match sev {
                        "error" => Severity::Error,
                        "warning" => Severity::Warning,
                        "info" => Severity::Info,
                        _ => return Err(bad_line(self.name(), idx)),
                    };
                    let code = intern_code(code).ok_or_else(|| {
                        MateError::artifact(
                            self.name(),
                            format!("line {}: unknown lint code `{code}`", idx + 1),
                        )
                    })?;
                    let locus = match kind {
                        "net" => Locus::Net(net(idx, locus)?),
                        "cell" => Locus::Cell(*cells_by_name.get(locus).ok_or_else(|| {
                            MateError::artifact(
                                self.name(),
                                format!("line {}: unknown cell `{locus}`", idx + 1),
                            )
                        })?),
                        "design" => Locus::Design,
                        _ => return Err(bad_line(self.name(), idx)),
                    };
                    diagnostics.push(Diagnostic {
                        severity,
                        code,
                        locus,
                        message: message.to_owned(),
                    });
                }
                Some("V") => {
                    let (Some(mate), Some(wire), Some(kind)) =
                        (fields.next(), fields.next(), fields.next())
                    else {
                        return Err(bad_line(self.name(), idx));
                    };
                    let mate_index: usize = parse_field(self.name(), idx, mate)?;
                    let wire = net(idx, wire)?;
                    let verdict = match kind {
                        "proved" | "bounded" => {
                            let checked: u64 = parse_field(
                                self.name(),
                                idx,
                                fields.next().ok_or_else(|| bad_line(self.name(), idx))?,
                            )?;
                            if kind == "proved" {
                                Verdict::Proved { checked }
                            } else {
                                Verdict::Bounded { checked }
                            }
                        }
                        "refuted" => {
                            let (Some(origin), Some(endpoint), Some(assign)) =
                                (fields.next(), fields.next(), fields.next())
                            else {
                                return Err(bad_line(self.name(), idx));
                            };
                            let origin_value = match origin {
                                "0" => false,
                                "1" => true,
                                _ => return Err(bad_line(self.name(), idx)),
                            };
                            let endpoint = net(idx, endpoint)?;
                            Verdict::Refuted {
                                counterexample: Counterexample {
                                    origin_value,
                                    assignment: parse_assign(idx, assign)?,
                                    endpoint,
                                },
                            }
                        }
                        _ => return Err(bad_line(self.name(), idx)),
                    };
                    let stats = decode_stats(
                        self.name(),
                        idx,
                        fields.next().ok_or_else(|| bad_line(self.name(), idx))?,
                    )?;
                    verdicts.push(MateVerdict {
                        mate_index,
                        wire,
                        verdict,
                        stats,
                    });
                }
                Some("C") => {
                    let (Some(wire), Some(mates), Some(kind)) =
                        (fields.next(), fields.next(), fields.next())
                    else {
                        return Err(bad_line(self.name(), idx));
                    };
                    let wire = net(idx, wire)?;
                    let mates: usize = parse_field(self.name(), idx, mates)?;
                    let proof = match kind {
                        "complete" | "undecided" => {
                            let stats = decode_stats(
                                self.name(),
                                idx,
                                fields.next().ok_or_else(|| bad_line(self.name(), idx))?,
                            )?;
                            if kind == "complete" {
                                CoverageProof::Complete { stats }
                            } else {
                                CoverageProof::Undecided { stats }
                            }
                        }
                        "gap" => {
                            let (Some(origin), Some(assign), Some(stats)) =
                                (fields.next(), fields.next(), fields.next())
                            else {
                                return Err(bad_line(self.name(), idx));
                            };
                            let origin_value = match origin {
                                "0" => false,
                                "1" => true,
                                _ => return Err(bad_line(self.name(), idx)),
                            };
                            CoverageProof::Gap {
                                origin_value,
                                assignment: parse_assign(idx, assign)?,
                                stats: decode_stats(self.name(), idx, stats)?,
                            }
                        }
                        _ => return Err(bad_line(self.name(), idx)),
                    };
                    coverage.push(WireCoverage { wire, mates, proof });
                }
                Some(other) => {
                    return Err(MateError::artifact(
                        self.name(),
                        format!("line {}: unknown record `{other}`", idx + 1),
                    ));
                }
                None => return Err(bad_line(self.name(), idx)),
            }
        }
        Ok(AnalysisReport {
            diagnostics,
            verdicts,
            coverage,
            conflict_budget,
        })
    }
}

/// Maps a decoded lint code back to the pass's `&'static str` identifier.
fn intern_code(code: &str) -> Option<&'static str> {
    const CODES: [&str; 8] = [
        "undriven-net",
        "multi-driven-net",
        "comb-loop",
        "dangling-ff",
        "unreachable-cell",
        "cone-stats",
        "gmt-gap",
        "mate-coverage",
    ];
    CODES.iter().find(|&&c| c == code).copied()
}

/// Solver counters as one artifact field:
/// `conflicts:decisions:propagations:learned:restarts`.
fn encode_stats(s: &SolveStats) -> String {
    format!(
        "{}:{}:{}:{}:{}",
        s.conflicts, s.decisions, s.propagations, s.learned, s.restarts
    )
}

/// Inverse of [`encode_stats`].
fn decode_stats(stage: &str, idx: usize, text: &str) -> Result<SolveStats, MateError> {
    let mut parts = text.split(':');
    let mut take = || -> Result<u64, MateError> {
        parse_field(
            stage,
            idx,
            parts.next().ok_or_else(|| bad_line(stage, idx))?,
        )
    };
    let stats = SolveStats {
        conflicts: take()?,
        decisions: take()?,
        propagations: take()?,
        learned: take()?,
        restarts: take()?,
    };
    if parts.next().is_some() {
        return Err(bad_line(stage, idx));
    }
    Ok(stats)
}
