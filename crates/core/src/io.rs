//! Plain-text persistence for MATE sets.
//!
//! The paper publishes its computed MATE sets as raw-data artifacts; this
//! module provides the equivalent: a line-oriented, human-readable format
//! keyed by net *names* (stable across tool runs, unlike net ids).
//!
//! ```text
//! # mate-set v1 design=tmr
//! !load & r1 & r2 :: r0
//! load & din :: r0, r1, r2
//! ```

use std::io::{BufRead, Write};

use mate_netlist::{MateError, NetCube, Netlist};

use crate::mates::{Mate, MateSet};

/// Writes a MATE set in the `mate-set v1` text format.
///
/// # Errors
///
/// Propagates I/O errors from `out` as [`MateError::Io`].
pub fn write_mates(netlist: &Netlist, mates: &MateSet, out: impl Write) -> Result<(), MateError> {
    write_mates_io(netlist, mates, out).map_err(|e| MateError::io("mate-set output", e))
}

fn write_mates_io(netlist: &Netlist, mates: &MateSet, mut out: impl Write) -> std::io::Result<()> {
    writeln!(out, "# mate-set v1 design={}", netlist.name())?;
    for mate in mates {
        let cube: Vec<String> = mate
            .cube
            .literals()
            .map(|(net, pol)| format!("{}{}", if pol { "" } else { "!" }, netlist.net(net).name()))
            .collect();
        let wires: Vec<&str> = mate.masked.iter().map(|&w| netlist.net(w).name()).collect();
        let cube_text = if cube.is_empty() {
            "true".to_owned()
        } else {
            cube.join(" & ")
        };
        writeln!(out, "{cube_text} :: {}", wires.join(", "))?;
    }
    Ok(())
}

/// Reads a MATE set written by [`write_mates`], resolving net names against
/// `netlist`, and summarizes it ([`crate::summarize`] order, repeated cubes
/// merged).
///
/// # Errors
///
/// Returns [`MateError`] on I/O problems, malformed lines, or names the
/// netlist does not contain.
pub fn read_mates(netlist: &Netlist, input: impl BufRead) -> Result<MateSet, MateError> {
    let lines = parse_mates(netlist, input)?;
    Ok(crate::mates::summarize(
        lines.into_iter().map(|(_, mate)| mate),
    ))
}

/// Reads a MATE set written by [`write_mates`] in file order, so every set
/// `write_mates` can write — a ranked top-N subset included — reads back
/// exactly.
///
/// # Errors
///
/// Like [`read_mates`]; a cube that appears on two lines is a
/// [`MateError::MateFormat`] error.
pub fn read_mates_in_order(netlist: &Netlist, input: impl BufRead) -> Result<MateSet, MateError> {
    let mut seen = std::collections::HashSet::new();
    let mut mates = Vec::new();
    for (line, mut mate) in parse_mates(netlist, input)? {
        if !seen.insert(mate.cube.clone()) {
            return Err(MateError::MateFormat {
                line,
                message: "repeated cube".to_owned(),
            });
        }
        mate.masked.sort();
        mate.masked.dedup();
        mates.push(mate);
    }
    Ok(MateSet::from_mates(mates))
}

/// The MATEs of a `mate-set v1` text with their line numbers, in file
/// order.
fn parse_mates(netlist: &Netlist, input: impl BufRead) -> Result<Vec<(usize, Mate)>, MateError> {
    let mut mates = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line.map_err(|e| MateError::io("mate-set input", e))?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (cube_text, wires_text) = trimmed.split_once("::").ok_or(MateError::MateFormat {
            line: line_no,
            message: "missing `::` separator".to_owned(),
        })?;
        let resolve = |name: &str| {
            netlist.find_net(name).ok_or(MateError::UnknownNet {
                line: line_no,
                name: name.to_owned(),
            })
        };
        let mut literals = Vec::new();
        let cube_text = cube_text.trim();
        if cube_text != "true" {
            for token in cube_text.split('&') {
                let token = token.trim();
                let (name, polarity) = match token.strip_prefix('!') {
                    Some(rest) => (rest, false),
                    None => (token, true),
                };
                if name.is_empty() {
                    return Err(MateError::MateFormat {
                        line: line_no,
                        message: "empty literal".to_owned(),
                    });
                }
                literals.push((resolve(name)?, polarity));
            }
        }
        let cube = NetCube::from_literals(literals).ok_or(MateError::MateFormat {
            line: line_no,
            message: "contradictory literals".to_owned(),
        })?;
        let mut masked = Vec::new();
        for name in wires_text.split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            masked.push(resolve(name)?);
        }
        if masked.is_empty() {
            return Err(MateError::MateFormat {
                line: line_no,
                message: "a MATE must mask at least one wire".to_owned(),
            });
        }
        mates.push((line_no, Mate { cube, masked }));
    }
    Ok(mates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search_design, SearchConfig};
    use std::io::BufReader;

    #[test]
    fn roundtrip_searched_set() {
        let (n, topo) = mate_netlist::examples::tmr_register();
        let wires = crate::ff_wires(&n, &topo);
        let mates = search_design(&n, &topo, &wires, &SearchConfig::default()).into_mate_set();
        assert!(!mates.is_empty());
        let mut buf = Vec::new();
        write_mates(&n, &mates, &mut buf).unwrap();
        let back = read_mates(&n, BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, mates);
    }

    #[test]
    fn ranked_subset_roundtrips_in_order() {
        let (n, topo) = mate_netlist::examples::figure1b();
        let wires = crate::ff_wires(&n, &topo);
        let mates = search_design(&n, &topo, &wires, &SearchConfig::default()).into_mate_set();
        assert!(mates.len() >= 2);
        // Reversed: not the summarized order.
        let indices: Vec<usize> = (0..mates.len()).rev().collect();
        let ranked = mates.subset(&indices);
        let mut buf = Vec::new();
        write_mates(&n, &ranked, &mut buf).unwrap();
        let back = read_mates_in_order(&n, BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, ranked);
        assert_eq!(
            read_mates(&n, BufReader::new(buf.as_slice())).unwrap(),
            mates
        );

        let text = "# mate-set v1\n!a :: b\n\n!a :: c\n";
        let err = read_mates_in_order(&n, BufReader::new(text.as_bytes())).unwrap_err();
        assert!(
            matches!(err, MateError::MateFormat { line: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn parses_hand_written_file() {
        let (n, _) = mate_netlist::examples::tmr_register();
        let text = "# comment\n\n!load & r1 :: r0\nr1 & r2 :: r0, vote\n";
        let set = read_mates(&n, BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(set.len(), 2);
        // Sorted by masked-count descending.
        assert_eq!(set.mates()[0].masked.len(), 2);
    }

    #[test]
    fn unknown_net_reports_line() {
        let (n, _) = mate_netlist::examples::tmr_register();
        let text = "bogus :: r0\n";
        let err = read_mates(&n, BufReader::new(text.as_bytes())).unwrap_err();
        assert!(
            matches!(err, MateError::UnknownNet { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn malformed_lines_rejected() {
        let (n, _) = mate_netlist::examples::tmr_register();
        for bad in ["no separator", "load :: ", " & :: r0", "load & !load :: r0"] {
            let err = read_mates(&n, BufReader::new(bad.as_bytes())).unwrap_err();
            assert!(matches!(err, MateError::MateFormat { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn empty_cube_serializes_as_true() {
        let (n, _) = mate_netlist::examples::tmr_register();
        let r0 = n.find_net("r0").unwrap();
        let set = crate::mates::summarize([Mate::single(NetCube::top(), r0)]);
        let mut buf = Vec::new();
        write_mates(&n, &set, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("true :: r0"));
        let back = read_mates(&n, BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(back, set);
    }
}
