//! End-to-end benchmark of the paper's flow.
//!
//! Each workload runs `load design → GMT library → MATE search → trace
//! capture → evaluate → select top-N → evaluate selected → campaign →
//! analyze` through the public [`mate_pipeline::Flow`] API.  A repetition
//! is one child process: a cold pass over an empty artifact store, then
//! warm passes over the full store.  The parent aggregates repetitions into
//! medians and quartiles and checks the correctness gates; see `README.md`
//! for the workloads, metrics and how to run it.

pub mod metrics;
pub mod rep;
pub mod report;
pub mod stats;
pub mod workload;
