//! The typed stage abstraction and the pipeline runner.
//!
//! A [`Stage<In>`] is one step of the paper's offline→online flow.  Its
//! identity is `(name, version, config fingerprint)`; the key of its output
//! artifact is the hash of that identity plus the keys of its inputs, so an
//! unchanged prefix of the chain re-resolves to the same keys and is served
//! from the [`ArtifactStore`](crate::ArtifactStore) without recomputation.

use std::time::{Duration, Instant};

use mate_netlist::MateError;

use crate::hash::{ContentHash, ContentHasher};
use crate::store::ArtifactStore;
use crate::summary::RunSummary;

/// Version of the evaluation-engine memory layout, folded into **every**
/// artifact key.  Bump whenever the kernels that produce artifacts change
/// their data layout or lane semantics (e.g. the structure-of-arrays arena
/// and 256/512-lane blocks of version 2; the fan-out CSR and differential
/// campaign engine of version 3), so artifacts cached by an older engine
/// layout miss instead of being trusted across engine generations.
pub const ENGINE_LAYOUT_VERSION: u32 = 3;

/// One typed step of the analysis pipeline.
///
/// `In` is the stage's input (typically `()` for sources or a tuple of
/// references to upstream outputs); [`Stage::Output`] is the produced value.
/// Every output must be serializable ([`Stage::encode`]/[`Stage::decode`])
/// so it can live in the artifact store; `decode` receives the input again
/// because every artifact depends on the design: text artifacts (MATE
/// sets, evaluation reports) name nets and need it to resolve the names,
/// and the binary trace and campaign artifacts address nets by position
/// and check the design's numbering before they decode.
pub trait Stage<In> {
    /// The produced value.
    type Output;

    /// Stable stage name — doubles as the store subdirectory.
    fn name(&self) -> &'static str;

    /// Bump when the stage's algorithm or artifact format changes; old
    /// artifacts then miss instead of being mis-decoded.
    fn version(&self) -> u32 {
        1
    }

    /// Folds the stage *configuration* into the artifact key.
    fn fingerprint(&self, h: &mut ContentHasher);

    /// `true` for stages that must execute even on a cache hit (e.g.
    /// in-memory elaboration of a core netlist, which is required to obtain
    /// the output value at all).  Their artifacts still classify the run as
    /// hit or miss and feed downstream keys.
    fn always_runs(&self) -> bool {
        false
    }

    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// Stage-specific [`MateError`]s.
    fn execute(&self, input: &In) -> Result<Self::Output, MateError>;

    /// Serializes the output into artifact bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MateError`] when the output cannot be serialized.
    fn encode(&self, input: &In, output: &Self::Output) -> Result<Vec<u8>, MateError>;

    /// Reconstructs an output from artifact bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MateError`] on malformed artifacts (the pipeline falls
    /// back to [`Stage::execute`]).
    fn decode(&self, input: &In, bytes: &[u8]) -> Result<Self::Output, MateError>;

    /// Optionally refines the artifact key with the produced *content* —
    /// used by [`always_runs`](Stage::always_runs) sources whose
    /// configuration is just a label, so downstream keys stay
    /// content-addressed.
    fn output_fingerprint(&self, _output: &Self::Output, _h: &mut ContentHasher) {}
}

/// A stage output together with its artifact key, for chaining.
#[derive(Clone, Debug)]
pub struct Staged<T> {
    /// The in-memory value.
    pub value: T,
    /// The content-addressed key of the artifact holding `value`.
    pub key: ContentHash,
}

impl<T> Staged<T> {
    /// Borrows the value with its key — the shape downstream stages take
    /// their inputs in.
    pub fn part(&self) -> (&T, ContentHash) {
        (&self.value, self.key)
    }
}

/// Executes stages against one artifact store, recording per-stage timing
/// and cache hits/misses.
#[derive(Debug)]
pub struct Pipeline {
    store: ArtifactStore,
    summary: RunSummary,
}

impl Pipeline {
    /// A pipeline over `store` with an empty run summary.
    pub fn new(store: ArtifactStore) -> Self {
        Self {
            store,
            summary: RunSummary::default(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The per-stage records accumulated so far.
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// Consumes the pipeline, returning its summary.
    pub fn into_summary(self) -> RunSummary {
        self.summary
    }

    /// Runs `stage` on `input`, whose upstream artifact keys are `deps`.
    ///
    /// Cache protocol: the output key is
    /// `H(name, engine layout, version, fingerprint, deps)` — see
    /// [`ENGINE_LAYOUT_VERSION`].  If the store holds that key the artifact
    /// is decoded and the stage is *not* executed (a **hit**); otherwise the
    /// stage executes and its encoded output is persisted (a **miss**).  An
    /// artifact that fails to decode also counts as a miss: the stage
    /// executes and overwrites it.  The binary trace and campaign artifacts
    /// carry a payload checksum and the design's net-numbering fingerprint,
    /// so a damaged or foreign one always fails to decode; the text
    /// artifacts fail only where their parsers notice.
    ///
    /// # Errors
    ///
    /// Propagates stage and store errors.
    pub fn run<In: Copy, S: Stage<In>>(
        &mut self,
        stage: &S,
        input: In,
        deps: &[ContentHash],
    ) -> Result<Staged<S::Output>, MateError> {
        let start = Instant::now();
        let mut h = ContentHasher::new();
        h.str("mate-stage");
        h.u64(u64::from(ENGINE_LAYOUT_VERSION));
        h.str(stage.name());
        h.u64(u64::from(stage.version()));
        stage.fingerprint(&mut h);
        for dep in deps {
            h.hash(dep);
        }
        let key = h.finish();

        if stage.always_runs() {
            let value = stage.execute(&input)?;
            let mut h = ContentHasher::new();
            h.hash(&key);
            stage.output_fingerprint(&value, &mut h);
            let key = h.finish();
            let cached = self.store.contains(stage.name(), &key);
            if !cached {
                let bytes = stage.encode(&input, &value)?;
                self.store.save(stage.name(), &key, &bytes)?;
            }
            self.record(stage.name(), cached, start.elapsed(), key);
            return Ok(Staged { value, key });
        }

        if let Some(bytes) = self.store.load(stage.name(), &key)? {
            if let Ok(value) = stage.decode(&input, &bytes) {
                self.record(stage.name(), true, start.elapsed(), key);
                return Ok(Staged { value, key });
            }
        }
        let value = stage.execute(&input)?;
        let bytes = stage.encode(&input, &value)?;
        self.store.save(stage.name(), &key, &bytes)?;
        self.record(stage.name(), false, start.elapsed(), key);
        Ok(Staged { value, key })
    }

    fn record(&mut self, stage: &str, cached: bool, elapsed: Duration, key: ContentHash) {
        self.summary.push(stage, cached, elapsed, key);
    }
}
