//! The binary frame of the two bulk artifacts: traces and campaign
//! records.
//!
//! Both address nets and flip-flops by position, not by name, so a frame
//! carries what a name-keyed text format got for free: an artifact
//! written for a different net numbering, or damaged on disk, fails to
//! decode — and is recomputed — instead of decoding to a wrong value.
//!
//! | bytes  | field |
//! |--------|-------|
//! | 0..8   | format tag |
//! | 8..16  | numbering fingerprint: net names in id order, then the `seq_cells()` order |
//! | 16..24 | checksum of the payload |
//! | 24..   | payload: little-endian fixed-width fields |

use mate_netlist::MateError;

use crate::stages::Design;

const HEADER: usize = 24;

/// A 64-bit checksum folded 8 bytes at a time (the per-byte FNV of
/// [`ContentHasher`](crate::ContentHasher) is too slow for megabyte
/// payloads).  Every step is a bijection of the running state, so changing
/// any one word — a flipped bit, a rewritten byte — always changes the
/// result.
fn checksum(bytes: &[u8]) -> u64 {
    fn step(h: u64, word: u64) -> u64 {
        let x = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^ (x >> 29)
    }
    let mut chunks = bytes.chunks_exact(8);
    let mut h = step(0, bytes.len() as u64);
    for chunk in &mut chunks {
        h = step(
            h,
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    step(h, u64::from_le_bytes(tail))
}

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
    checksum(&bytes)
}

/// Builds one framed artifact; header and payload share one buffer.
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Starts a frame tagged `tag` for `design`, with room for
    /// `payload_len` payload bytes.
    pub(crate) fn new(tag: [u8; 8], design: &Design, payload_len: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER + payload_len);
        buf.extend_from_slice(&tag);
        buf.extend_from_slice(&numbering(design).to_le_bytes());
        // The checksum, filled in by `finish`.
        buf.extend_from_slice(&[0; 8]);
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

    /// Seals the frame: checksums the payload into the header.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf[HEADER..]);
        self.buf[16..HEADER].copy_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// The payload of a frame whose header checked out, read front to back.
pub(crate) struct Payload<'a> {
    stage: &'static str,
    rest: &'a [u8],
}

/// Checks the header of `bytes` — tag, the numbering of `design`, payload
/// checksum — and returns the payload.
///
/// # Errors
///
/// Returns [`MateError::Artifact`] naming the first mismatch.
pub(crate) fn open<'a>(
    stage: &'static str,
    tag: [u8; 8],
    design: &Design,
    bytes: &'a [u8],
) -> Result<Payload<'a>, MateError> {
    let bad = |message: &str| MateError::artifact(stage, message);
    if bytes.len() < HEADER {
        return Err(bad("truncated header"));
    }
    let (header, payload) = bytes.split_at(HEADER);
    let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    if header[..8] != tag {
        return Err(bad("unknown format tag"));
    }
    if field(8) != numbering(design) {
        return Err(bad("written for a different net numbering"));
    }
    if field(16) != checksum(payload) {
        return Err(bad("payload checksum mismatch"));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sees_every_single_byte_change_and_length() {
        let bytes: Vec<u8> = (0..37u8).collect();
        let sum = checksum(&bytes);
        for at in 0..bytes.len() {
            for flip in [1u8, 0x80, 0xff] {
                let mut changed = bytes.clone();
                changed[at] ^= flip;
                assert_ne!(checksum(&changed), sum, "byte {at} ^ {flip:#x}");
            }
        }
        // A zero tail byte is not the same as a missing one.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(checksum(&longer), sum);
        assert_ne!(checksum(&bytes[..36]), sum);
        assert_ne!(checksum(&[]), checksum(&[0]));
    }
}
