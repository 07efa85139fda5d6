//! Staged analysis pipeline with a content-addressed artifact cache.
//!
//! The paper's flow is a fixed offline→online chain (Section 4):
//! gate-library analysis → per-wire MATE search → trace capture →
//! evaluate/select → HAFI campaign.  This crate turns that chain into a
//! typed, cached pipeline:
//!
//! * [`Stage<In>`](Stage) — one step; its output is a serializable
//!   *artifact* keyed by `H(stage name, version, config, input keys)`.
//! * [`ArtifactStore`] — the on-disk content-addressed store
//!   (`target/mate-artifacts` by default, `$MATE_ARTIFACT_DIR` override).
//! * [`Pipeline`] — runs stages, serving unchanged prefixes from the store
//!   and recording per-stage timings plus cache hit/miss counters in a
//!   [`RunSummary`].
//! * [`Flow`] — the canonical chain pre-wired for the repo's examples and
//!   bench drivers.
//!
//! # Example
//!
//! ```
//! use mate::SearchConfig;
//! use mate_pipeline::{
//!     ArtifactStore, DesignSource, Flow, TraceSource, WireSetSpec,
//! };
//!
//! let root = std::env::temp_dir().join(format!("mate-doc-{}", std::process::id()));
//! let store = ArtifactStore::new(&root);
//! let source = DesignSource::Builder {
//!     label: "tmr-register",
//!     build: mate_netlist::examples::tmr_register,
//! };
//! let mut flow = Flow::new(store, source)?;
//! let search = flow.search(WireSetSpec::AllFfs, SearchConfig::default())?;
//! let trace = flow.capture(
//!     TraceSource::Stimuli {
//!         waves: vec![
//!             ("load".into(), vec![true, false]),
//!             ("din".into(), vec![true]),
//!         ],
//!     },
//!     16,
//! )?;
//! let report = flow.evaluate(
//!     WireSetSpec::AllFfs,
//!     (&search.value.mates, search.key),
//!     trace.part(),
//! )?;
//! assert!(report.value.masked_fraction() > 0.5);
//! // First run: all four stages computed; a re-run over the same store
//! // would be served entirely from the artifact cache.
//! assert_eq!(flow.summary().misses(), 4);
//! # std::fs::remove_dir_all(&root).ok();
//! # Ok::<(), mate_netlist::MateError>(())
//! ```

pub mod analysis;
pub mod flow;
mod frame;
pub mod hash;
pub mod stage;
pub mod stages;
pub mod store;
pub mod summary;

pub use analysis::{AnalysisReport, Analyze};
pub use flow::Flow;
pub use hash::{ContentHash, ContentHasher};
pub use stage::{Pipeline, Stage, Staged, ENGINE_LAYOUT_VERSION};
pub use stages::{
    ingest_gate, Campaign, Design, DesignSource, Evaluate, GmtLibrary, GmtReport, LoadDesign,
    MateSearch, SearchOutput, Select, TraceCapture, TraceSource, WireSetSpec,
};
pub use store::{ArtifactStore, STORE_ENV};
pub use summary::{RunSummary, StageRecord};
