//! The workspace-wide error type.
//!
//! Every fallible public API across the netlist, simulation, MATE, HAFI,
//! and pipeline layers returns [`MateError`].  One type (instead of one
//! error enum per crate) keeps the staged pipeline composable: a stage can
//! fail for a reason originating in any lower layer, and callers handle a
//! single exhaustive enum with `source()` chaining for the wrapped causes.
//!
//! The variants are grouped by layer:
//!
//! | layer    | variants |
//! |----------|----------|
//! | I/O      | [`MateError::Io`] |
//! | netlist  | [`MateError::Verilog`], [`MateError::Semantic`], [`MateError::Netlist`] |
//! | frontend | [`MateError::Json`], [`MateError::Ingest`] |
//! | formats  | [`MateError::MateFormat`], [`MateError::Vcd`], [`MateError::UnknownNet`] |
//! | simulation | [`MateError::Device`] |
//! | campaign | [`MateError::Campaign`] |
//! | pipeline | [`MateError::Artifact`] |

use std::error::Error;
use std::fmt;
use std::io;

use crate::netlist::NetlistError;

/// The error type shared by every layer of the workspace.
#[derive(Debug)]
pub enum MateError {
    /// An underlying I/O failure, with a short description of what was
    /// being read or written.
    Io {
        /// What the I/O was for (e.g. a file path or `"mate-set artifact"`).
        context: String,
        /// The propagated cause.
        source: io::Error,
    },
    /// An error attributed to an on-disk file: wraps the underlying cause
    /// (JSON syntax, ingest semantics, ...) with the path it came from.
    File {
        /// The file being read.
        path: String,
        /// The propagated cause.
        source: Box<MateError>,
    },
    /// Lexical or syntactic problem in a JSON document (the Yosys
    /// frontend's own dependency-free parser).
    Json {
        /// 1-based source line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A structurally valid Yosys JSON document that cannot be ingested:
    /// unknown cell types, width-mismatched connections, missing or
    /// ambiguous top module, hierarchy, mixed clocks.  Carries the module
    /// (and cell, when attributable) context the diagnosis points at.
    Ingest {
        /// The module being ingested (empty while still selecting one).
        module: String,
        /// The cell instance at fault, when the problem is cell-local.
        cell: Option<String>,
        /// Human-readable description.
        message: String,
    },
    /// Lexical or syntactic problem in structural-Verilog input.
    Verilog {
        /// 1-based source line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The input uses a cell, pin, or connection the library cannot
    /// express.
    Semantic(String),
    /// A constructed netlist failed structural validation.
    Netlist(NetlistError),
    /// Malformed line in the `mate-set v1` text format.
    MateFormat {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// Malformed or unsupported VCD content.
    Vcd {
        /// 1-based line number (0 when not attributable to a line).
        line: usize,
        /// Description.
        message: String,
    },
    /// A net name that the netlist does not contain.
    UnknownNet {
        /// 1-based line number of the reference (0 when not line-based).
        line: usize,
        /// The offending name.
        name: String,
    },
    /// A testbench device that cannot be attached: it reads a net that is
    /// not a primary output, drives a net that is not a primary input,
    /// drives an input that reaches a read net through combinational logic,
    /// or was given a memory image that does not fit.
    Device {
        /// The device's name.
        device: String,
        /// The net at fault, when the problem is net-specific.
        net: Option<String>,
        /// Description.
        message: String,
    },
    /// An invalid fault-injection campaign request (e.g. an injection cycle
    /// beyond the golden trace, or a faulty wire that is not a flip-flop
    /// output).
    Campaign(String),
    /// A pipeline artifact could not be produced, decoded, or verified.
    Artifact {
        /// The stage the artifact belongs to.
        stage: String,
        /// Description.
        message: String,
    },
}

impl MateError {
    /// Wraps an I/O error with context.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        Self::Io {
            context: context.into(),
            source,
        }
    }

    /// An artifact-layer error for `stage`.
    pub fn artifact(stage: impl Into<String>, message: impl Into<String>) -> Self {
        Self::Artifact {
            stage: stage.into(),
            message: message.into(),
        }
    }

    /// A campaign-layer error.
    pub fn campaign(message: impl Into<String>) -> Self {
        Self::Campaign(message.into())
    }

    /// A module-level ingest error (no single cell at fault).
    pub fn ingest(module: impl Into<String>, message: impl Into<String>) -> Self {
        Self::Ingest {
            module: module.into(),
            cell: None,
            message: message.into(),
        }
    }

    /// Wraps any error with the path of the file it was found in.
    pub fn in_file(path: impl Into<String>, source: MateError) -> Self {
        Self::File {
            path: path.into(),
            source: Box::new(source),
        }
    }

    /// A cell-level ingest error.
    pub fn ingest_cell(
        module: impl Into<String>,
        cell: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self::Ingest {
            module: module.into(),
            cell: Some(cell.into()),
            message: message.into(),
        }
    }
}

impl fmt::Display for MateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { context, source } => write!(f, "i/o error ({context}): {source}"),
            Self::File { path, source } => write!(f, "{path}: {source}"),
            Self::Json { line, message } => write!(f, "json line {line}: {message}"),
            Self::Ingest {
                module,
                cell,
                message,
            } => match (module.is_empty(), cell) {
                (true, _) => write!(f, "yosys ingest: {message}"),
                (false, None) => write!(f, "yosys ingest (module `{module}`): {message}"),
                (false, Some(cell)) => {
                    write!(
                        f,
                        "yosys ingest (module `{module}`, cell `{cell}`): {message}"
                    )
                }
            },
            Self::Verilog { line, message } => write!(f, "verilog line {line}: {message}"),
            Self::Semantic(msg) => write!(f, "{msg}"),
            Self::Netlist(e) => write!(f, "invalid netlist: {e}"),
            Self::MateFormat { line, message } => write!(f, "mate-set line {line}: {message}"),
            Self::Vcd { line, message } => {
                if *line == 0 {
                    write!(f, "vcd: {message}")
                } else {
                    write!(f, "vcd line {line}: {message}")
                }
            }
            Self::UnknownNet { line, name } => {
                if *line == 0 {
                    write!(f, "unknown net `{name}`")
                } else {
                    write!(f, "line {line}: unknown net `{name}`")
                }
            }
            Self::Device {
                device,
                net,
                message,
            } => match net {
                Some(net) => write!(f, "device `{device}` (net `{net}`): {message}"),
                None => write!(f, "device `{device}`: {message}"),
            },
            Self::Campaign(msg) => write!(f, "campaign: {msg}"),
            Self::Artifact { stage, message } => write!(f, "stage `{stage}`: {message}"),
        }
    }
}

impl Error for MateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::File { source, .. } => Some(source),
            Self::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for MateError {
    fn from(e: NetlistError) -> Self {
        Self::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<(MateError, &str)> = vec![
            (MateError::io("x.v", io::Error::other("boom")), "x.v"),
            (
                MateError::Json {
                    line: 12,
                    message: "expected `:`".into(),
                },
                "line 12",
            ),
            (MateError::ingest("", "no modules"), "no modules"),
            (
                MateError::in_file("core.json", MateError::ingest("m", "no clock")),
                "core.json",
            ),
            (MateError::ingest("serv", "no clock"), "serv"),
            (
                MateError::ingest_cell("uart", "u_div", "unknown cell"),
                "u_div",
            ),
            (
                MateError::Verilog {
                    line: 3,
                    message: "bad token".into(),
                },
                "line 3",
            ),
            (MateError::Semantic("unknown cell".into()), "unknown cell"),
            (
                MateError::MateFormat {
                    line: 7,
                    message: "missing `::`".into(),
                },
                "line 7",
            ),
            (
                MateError::Vcd {
                    line: 0,
                    message: "truncated".into(),
                },
                "truncated",
            ),
            (
                MateError::UnknownNet {
                    line: 2,
                    name: "bogus".into(),
                },
                "bogus",
            ),
            (
                MateError::Device {
                    device: "ram".into(),
                    net: Some("addr[0]".into()),
                    message: "not a primary output".into(),
                },
                "addr[0]",
            ),
            (
                MateError::Device {
                    device: "rom".into(),
                    net: None,
                    message: "image overflows memory".into(),
                },
                "rom",
            ),
            (MateError::campaign("cycle beyond trace"), "cycle"),
            (
                MateError::artifact("mate-search", "corrupt header"),
                "mate-search",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text} should contain {needle}");
        }
    }

    #[test]
    fn netlist_errors_chain_their_source() {
        let err = MateError::from(NetlistError::DuplicateNetName("q".into()));
        assert!(err.source().is_some());
        assert!(err.to_string().contains("invalid netlist"));
    }
}
