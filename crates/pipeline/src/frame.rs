//! The binary frame of the two bulk artifacts: traces and campaign
//! records.
//!
//! Both address nets and flip-flops by position, not by name, so a frame
//! carries what a name-keyed text format got for free: it opens with a
//! fingerprint of the design's numbering (net names in id order, then the
//! `seq_cells()` order), and an artifact written for a different numbering
//! fails to decode — and is recomputed — instead of decoding to a wrong
//! value.  Damage on disk is the store's concern: its seal covers these
//! bytes like any other payload ([`crate::store`]).
//!
//! | bytes | field |
//! |-------|-------|
//! | 0..8  | numbering fingerprint |
//! | 8..   | payload: little-endian fixed-width fields |

use mate_netlist::MateError;

use crate::stages::Design;
use crate::store::fold;

const HEADER: usize = 8;

/// Fingerprint of the design's numbering: what positional payloads
/// silently depend on.
fn numbering(design: &Design) -> u64 {
    let netlist = &design.netlist;
    let seq = design.topology.seq_cells();
    let mut bytes = Vec::with_capacity(16 * (netlist.num_nets() + seq.len()));
    bytes.extend_from_slice(&(netlist.num_nets() as u64).to_le_bytes());
    for net in netlist.nets() {
        bytes.extend_from_slice(&(net.name().len() as u64).to_le_bytes());
        bytes.extend_from_slice(net.name().as_bytes());
    }
    bytes.extend_from_slice(&(seq.len() as u64).to_le_bytes());
    for ff in seq {
        bytes.extend_from_slice(&(ff.index() as u64).to_le_bytes());
    }
    fold(&bytes)
}

/// Builds one framed artifact; header and payload share one buffer.
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Starts a frame for `design`, with room for `payload_len` payload
    /// bytes.
    pub(crate) fn new(design: &Design, payload_len: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER + payload_len);
        buf.extend_from_slice(&numbering(design).to_le_bytes());
        Self { buf }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The framed bytes.
    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// The payload of a frame whose numbering checked out, read front to back.
pub(crate) struct Payload<'a> {
    stage: &'static str,
    rest: &'a [u8],
}

/// Checks that `bytes` were framed for the numbering of `design` and
/// returns the payload.
///
/// # Errors
///
/// Returns [`MateError::Artifact`] on a short frame or another numbering.
pub(crate) fn open<'a>(
    stage: &'static str,
    design: &Design,
    bytes: &'a [u8],
) -> Result<Payload<'a>, MateError> {
    let bad = |message: &str| MateError::artifact(stage, message);
    if bytes.len() < HEADER {
        return Err(bad("truncated header"));
    }
    let (header, payload) = bytes.split_at(HEADER);
    if u64::from_le_bytes(header.try_into().expect("8 bytes")) != numbering(design) {
        return Err(bad("written for a different net numbering"));
    }
    Ok(Payload {
        stage,
        rest: payload,
    })
}

impl<'a> Payload<'a> {
    /// An artifact error for this payload's stage.
    pub(crate) fn error(&self, message: impl Into<String>) -> MateError {
        MateError::artifact(self.stage, message)
    }

    /// Reads a `u64` length or count field.
    pub(crate) fn usize(&mut self) -> Result<usize, MateError> {
        if self.rest.len() < 8 {
            return Err(self.error("truncated payload"));
        }
        let (field, rest) = self.rest.split_at(8);
        self.rest = rest;
        let v = u64::from_le_bytes(field.try_into().expect("8 bytes"));
        usize::try_from(v).map_err(|_| self.error(format!("field {v} overflows usize")))
    }

    /// The unread rest of the payload as little-endian `u64` words.
    pub(crate) fn words(self) -> Result<Vec<u64>, MateError> {
        if self.rest.len() % 8 != 0 {
            return Err(self.error("payload is not a whole number of words"));
        }
        Ok(self
            .rest
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// The unread rest of the payload.
    pub(crate) fn rest(self) -> &'a [u8] {
        self.rest
    }
}
