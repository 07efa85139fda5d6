//! [`Flow`]: the canonical stage chain, pre-wired.
//!
//! Examples and bench binaries all run some prefix of
//! `LoadDesign → GmtLibrary → MateSearch → TraceCapture → Evaluate →
//! Select → Campaign`; `Flow` owns the pipeline and the loaded design and
//! threads the artifact keys so callers never handle hashes directly.

use mate::eval::EvalReport;
use mate::{MateSet, SearchConfig};
use mate_analyze::VerifyConfig;
use mate_hafi::{CampaignConfig, CampaignResult};
use mate_sim::WaveTrace;

use mate_netlist::MateError;

use crate::analysis::{AnalysisReport, Analyze};
use crate::hash::ContentHash;
use crate::stage::{Pipeline, Staged};
use crate::stages::{
    Campaign, Design, DesignSource, Evaluate, GmtLibrary, GmtReport, LoadDesign, MateSearch,
    SearchOutput, Select, TraceCapture, TraceSource, WireSetSpec,
};
use crate::store::ArtifactStore;
use crate::summary::RunSummary;

/// A pipeline bound to one loaded design.
#[derive(Debug)]
pub struct Flow {
    pipeline: Pipeline,
    design: Staged<Design>,
}

impl Flow {
    /// Loads `source` through the pipeline over `store`.
    ///
    /// # Errors
    ///
    /// Propagates design-loading and store errors.
    pub fn new(store: ArtifactStore, source: DesignSource) -> Result<Self, MateError> {
        let mut pipeline = Pipeline::new(store);
        let design = pipeline.run(&LoadDesign { source }, (), &[])?;
        Ok(Self { pipeline, design })
    }

    /// Like [`Flow::new`] over the default store
    /// (see [`ArtifactStore::default_root`]).
    ///
    /// # Errors
    ///
    /// Propagates design-loading and store errors.
    pub fn open_default(source: DesignSource) -> Result<Self, MateError> {
        Self::new(ArtifactStore::open_default(), source)
    }

    /// The loaded design.
    pub fn design(&self) -> &Design {
        &self.design.value
    }

    /// The design's artifact key.
    pub fn design_key(&self) -> ContentHash {
        self.design.key
    }

    /// Gate-library analysis for this design's cell library.
    ///
    /// # Errors
    ///
    /// Propagates stage and store errors.
    pub fn gmt_library(&mut self) -> Result<Staged<GmtReport>, MateError> {
        self.pipeline
            .run(&GmtLibrary, &self.design.value, &[self.design.key])
    }

    /// Per-wire MATE search over `wires` with `config`.
    ///
    /// # Errors
    ///
    /// Propagates stage and store errors.
    pub fn search(
        &mut self,
        wires: WireSetSpec,
        config: SearchConfig,
    ) -> Result<Staged<SearchOutput>, MateError> {
        self.pipeline.run(
            &MateSearch { wires, config },
            &self.design.value,
            &[self.design.key],
        )
    }

    /// Records the fault-free trace of `source` for `cycles` cycles.
    ///
    /// # Errors
    ///
    /// Propagates stage and store errors.
    pub fn capture(
        &mut self,
        source: TraceSource,
        cycles: usize,
    ) -> Result<Staged<WaveTrace>, MateError> {
        self.pipeline.run(
            &TraceCapture { source, cycles },
            &self.design.value,
            &[self.design.key],
        )
    }

    /// Evaluates `mates` on `trace` over `wires`.
    ///
    /// Upstream values arrive as `(value, key)` pairs — see
    /// [`Staged::part`].
    ///
    /// # Errors
    ///
    /// Propagates stage and store errors.
    pub fn evaluate(
        &mut self,
        wires: WireSetSpec,
        (mates, mates_key): (&MateSet, ContentHash),
        (trace, trace_key): (&WaveTrace, ContentHash),
    ) -> Result<Staged<EvalReport>, MateError> {
        self.pipeline.run(
            &Evaluate { wires },
            (&self.design.value, mates, trace),
            &[self.design.key, mates_key, trace_key],
        )
    }

    /// Greedy top-N selection of `mates` by coverage on `trace`.
    ///
    /// # Errors
    ///
    /// Propagates stage and store errors.
    pub fn select(
        &mut self,
        wires: WireSetSpec,
        top_n: usize,
        (mates, mates_key): (&MateSet, ContentHash),
        (trace, trace_key): (&WaveTrace, ContentHash),
    ) -> Result<Staged<MateSet>, MateError> {
        self.pipeline.run(
            &Select { wires, top_n },
            (&self.design.value, mates, trace),
            &[self.design.key, mates_key, trace_key],
        )
    }

    /// Lints the design and independently verifies `mates` against it
    /// (the static-verification gate).
    ///
    /// # Errors
    ///
    /// Propagates stage and store errors.
    pub fn analyze(
        &mut self,
        (mates, mates_key): (&MateSet, ContentHash),
        config: VerifyConfig,
    ) -> Result<Staged<AnalysisReport>, MateError> {
        self.pipeline.run(
            &Analyze { config },
            (&self.design.value, mates),
            &[self.design.key, mates_key],
        )
    }

    /// Runs the injection campaign for `source` over the design's fault
    /// space (restricted to `wires` when given).
    ///
    /// # Errors
    ///
    /// Propagates stage and store errors.
    pub fn campaign(
        &mut self,
        source: TraceSource,
        config: CampaignConfig,
        wires: Option<WireSetSpec>,
    ) -> Result<Staged<CampaignResult>, MateError> {
        self.pipeline.run(
            &Campaign {
                source,
                config,
                wires,
            },
            &self.design.value,
            &[self.design.key],
        )
    }

    /// The per-stage records so far.
    pub fn summary(&self) -> &RunSummary {
        self.pipeline.summary()
    }

    /// Consumes the flow, returning the run summary.
    pub fn into_summary(self) -> RunSummary {
        self.pipeline.into_summary()
    }
}
