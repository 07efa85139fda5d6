//! The on-disk content-addressed artifact store.
//!
//! Layout: `<root>/<stage-name>/<32-hex-key>.art`.  Writes go through a
//! temporary file in the same directory followed by an atomic rename, so a
//! concurrent reader never observes a half-written artifact and a crashed
//! run never poisons the cache.
//!
//! Every file is sealed with one header, and this is the pipeline's only
//! integrity check: the stage codecs parse whatever payload the store
//! hands them.
//!
//! | bytes  | field |
//! |--------|-------|
//! | 0..8   | format magic |
//! | 8..24  | the artifact key (it hashes the stage name and version) |
//! | 24..32 | payload length |
//! | 32..40 | checksum of the payload |
//! | 40..   | payload, as the stage encoded it |
//!
//! [`ArtifactStore::load`] recomputes the header from the payload it read
//! and the key it was asked for, so a damaged, truncated, misplaced or
//! pre-seal file is a miss, which the stage recomputes and overwrites.

use std::fs;
use std::io::Write;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mate_netlist::MateError;

use crate::hash::ContentHash;

/// Environment variable overriding the default store location.
pub const STORE_ENV: &str = "MATE_ARTIFACT_DIR";

/// First bytes of every sealed artifact file.
const MAGIC: [u8; 8] = *b"MATE-ART";

/// Length of the seal in front of every payload.
const HEADER: usize = 40;

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A 64-bit hash folded 8 bytes at a time: the seal's payload checksum,
/// and the numbering fingerprint of the binary frames (the per-byte FNV of
/// [`ContentHasher`](crate::ContentHasher) is too slow for megabyte
/// payloads).  Every step is a bijection of the running
/// state, so changing any one word — a flipped bit, a rewritten byte —
/// always changes the result.
pub(crate) fn fold(bytes: &[u8]) -> u64 {
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

/// The seal of `payload` stored under `key`.
fn seal(key: &ContentHash, payload: &[u8]) -> [u8; HEADER] {
    let mut header = [0u8; HEADER];
    header[..8].copy_from_slice(&MAGIC);
    header[8..24].copy_from_slice(&key.0.to_le_bytes());
    header[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[32..].copy_from_slice(&fold(payload).to_le_bytes());
    header
}

/// An artifact file whose seal checked out.  Dereferences to its payload,
/// which stays in the buffer the file was read into.
#[derive(Debug)]
pub struct Artifact(Vec<u8>);

impl Deref for Artifact {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[HEADER..]
    }
}

/// A content-addressed artifact store rooted at one directory.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Opens (lazily — no I/O happens until the first save) a store rooted
    /// at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The default store root: `$MATE_ARTIFACT_DIR` if set, else
    /// `target/mate-artifacts` under the current directory.
    pub fn default_root() -> PathBuf {
        match std::env::var_os(STORE_ENV) {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from("target").join("mate-artifacts"),
        }
    }

    /// Opens the default store (see [`ArtifactStore::default_root`]).
    pub fn open_default() -> Self {
        Self::new(Self::default_root())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file holding the artifact for `(stage, key)`.
    pub fn path(&self, stage: &str, key: &ContentHash) -> PathBuf {
        self.root.join(stage).join(format!("{}.art", key.hex()))
    }

    /// Loads the artifact for `(stage, key)`, or `None` on a miss: no file,
    /// or a file whose seal does not match its payload and `key`.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Io`] for I/O failures other than the file not
    /// existing.
    pub fn load(&self, stage: &str, key: &ContentHash) -> Result<Option<Artifact>, MateError> {
        let path = self.path(stage, key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(MateError::io(path.display().to_string(), e)),
        };
        let sealed = bytes.len() >= HEADER && bytes[..HEADER] == seal(key, &bytes[HEADER..]);
        Ok(sealed.then_some(Artifact(bytes)))
    }

    /// Seals `payload` and persists it as the artifact for `(stage, key)`
    /// via a temp file and atomic rename.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Io`] when the store directory cannot be created
    /// or written.
    pub fn save(&self, stage: &str, key: &ContentHash, payload: &[u8]) -> Result<(), MateError> {
        let path = self.path(stage, key);
        let dir = path.parent().expect("artifact path always has a parent");
        fs::create_dir_all(dir).map_err(|e| MateError::io(dir.display().to_string(), e))?;
        let tmp = dir.join(format!(
            ".{}.{}.{}.tmp",
            key.hex(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        // Two writes: the payload is never copied behind its header.
        let write = || {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&seal(key, payload))?;
            file.write_all(payload)
        };
        let renamed = write().and_then(|()| fs::rename(&tmp, &path));
        renamed.map_err(|e| {
            let _ = fs::remove_file(&tmp);
            MateError::io(path.display().to_string(), e)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mate-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip() {
        let root = scratch("roundtrip");
        let store = ArtifactStore::new(&root);
        let key = ContentHash(42);
        assert!(store.load("search", &key).unwrap().is_none());
        store.save("search", &key, b"payload").unwrap();
        assert_eq!(
            store.load("search", &key).unwrap().as_deref(),
            Some(&b"payload"[..])
        );
        // An empty payload is sealed like any other.
        store.save("search", &key, b"").unwrap();
        assert_eq!(
            store.load("search", &key).unwrap().as_deref(),
            Some(&b""[..])
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn keys_do_not_collide_across_stages() {
        let root = scratch("stages");
        let store = ArtifactStore::new(&root);
        let key = ContentHash(7);
        store.save("a", &key, b"one").unwrap();
        assert!(store.load("b", &key).unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fold_sees_every_single_byte_change_and_length() {
        let bytes: Vec<u8> = (0..37u8).collect();
        let sum = fold(&bytes);
        for at in 0..bytes.len() {
            for flip in [1u8, 0x80, 0xff] {
                let mut changed = bytes.clone();
                changed[at] ^= flip;
                assert_ne!(fold(&changed), sum, "byte {at} ^ {flip:#x}");
            }
        }
        // A zero tail byte is not the same as a missing one.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(fold(&longer), sum);
        assert_ne!(fold(&bytes[..36]), sum);
        assert_ne!(fold(&[]), fold(&[0]));
    }

    /// Every single-bit flip and every truncation of a sealed file loads
    /// as a miss; so do a file copied to another key and a headerless one.
    #[test]
    fn damaged_misplaced_and_unsealed_files_miss() {
        let root = scratch("damage");
        let store = ArtifactStore::new(&root);
        let key = ContentHash(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let payload: Vec<u8> = (0..53u8).map(|b| b.wrapping_mul(37)).collect();
        store.save("stage", &key, &payload).unwrap();
        let path = store.path("stage", &key);
        let sealed = fs::read(&path).unwrap();
        assert_eq!(sealed.len(), HEADER + payload.len());
        let misses = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            store.load("stage", &key).unwrap().is_none()
        };
        for at in 0..sealed.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                let mut bad = sealed.clone();
                bad[at] ^= flip;
                assert!(misses(&bad), "byte {at} ^ {flip:#x}");
            }
        }
        for cut in 0..sealed.len() {
            assert!(misses(&sealed[..cut]), "truncated to {cut} bytes");
        }
        let mut longer = sealed.clone();
        longer.push(0);
        assert!(misses(&longer), "one byte appended");
        assert!(misses(&payload), "headerless payload");
        assert!(!misses(&sealed), "the sealed file loads again");

        // The same file copied to another key.
        let other = ContentHash(key.0 ^ 1);
        fs::copy(&path, store.path("stage", &other)).unwrap();
        assert!(store.load("stage", &other).unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }

    proptest::proptest! {
        /// A file of random bytes never loads, with or without the magic
        /// and the right key in front.
        #[test]
        fn random_files_never_load(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
            keyed in proptest::prelude::any::<bool>(),
        ) {
            let root = scratch("random");
            let store = ArtifactStore::new(&root);
            let key = ContentHash(99);
            store.save("stage", &key, b"").unwrap();
            let mut file = if keyed { seal(&key, b"")[..24].to_vec() } else { Vec::new() };
            file.extend_from_slice(&bytes);
            fs::write(store.path("stage", &key), &file).unwrap();
            proptest::prop_assert!(store.load("stage", &key).unwrap().is_none());
            let _ = fs::remove_dir_all(&root);
        }
    }
}
