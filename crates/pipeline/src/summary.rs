//! Per-run stage accounting: timings and cache hit/miss counters.

use std::fmt;
use std::time::Duration;

use crate::hash::ContentHash;

/// One executed (or cache-served) stage.
#[derive(Clone, Debug)]
pub struct StageRecord {
    /// Stage name.
    pub stage: String,
    /// `true` when the output came from the artifact store.
    pub cached: bool,
    /// Wall-clock time spent in the pipeline for this stage (including
    /// decode on hits and execute+encode on misses).
    pub elapsed: Duration,
    /// The artifact key the stage resolved to.
    pub key: ContentHash,
}

/// The stage-by-stage record of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Records in execution order.
    pub records: Vec<StageRecord>,
}

impl RunSummary {
    /// Appends one record.
    pub fn push(&mut self, stage: &str, cached: bool, elapsed: Duration, key: ContentHash) {
        self.records.push(StageRecord {
            stage: stage.to_owned(),
            cached,
            elapsed,
            key,
        });
    }

    /// Number of stages run.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no stage ran.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of cache hits.
    pub fn hits(&self) -> usize {
        self.records.iter().filter(|r| r.cached).count()
    }

    /// Number of cache misses (stages that executed and persisted).
    pub fn misses(&self) -> usize {
        self.records.len() - self.hits()
    }

    /// `true` when every stage was served from the artifact store.
    pub fn all_cached(&self) -> bool {
        !self.records.is_empty() && self.misses() == 0
    }

    /// A machine-readable JSON object in the style of the `BENCH_*.json`
    /// artifacts: per-stage millis + cached flag, plus the hit/miss totals.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"stages\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"cached\":{},\"millis\":{:.3},\"key\":\"{}\"}}",
                r.stage,
                r.cached,
                r.elapsed.as_secs_f64() * 1e3,
                r.key
            ));
        }
        out.push_str(&format!(
            "],\"hits\":{},\"misses\":{}}}",
            self.hits(),
            self.misses()
        ));
        out
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<16} {:>8} {:>10}  key", "stage", "cache", "time")?;
        for r in &self.records {
            writeln!(
                f,
                "{:<16} {:>8} {:>9.1}ms  {}",
                r.stage,
                if r.cached { "hit" } else { "miss" },
                r.elapsed.as_secs_f64() * 1e3,
                r.key
            )?;
        }
        write!(
            f,
            "{} stages: {} served from the artifact cache, {} computed",
            self.len(),
            self.hits(),
            self.misses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_json() {
        let mut s = RunSummary::default();
        assert!(!s.all_cached());
        s.push("a", true, Duration::from_millis(2), ContentHash(1));
        s.push("b", false, Duration::from_millis(5), ContentHash(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        assert!(!s.all_cached());
        let json = s.to_json();
        assert!(json.contains("\"hits\":1"), "{json}");
        assert!(json.contains("\"stage\":\"a\""), "{json}");
        let text = s.to_string();
        assert!(text.contains("miss"), "{text}");
    }

    #[test]
    fn all_cached_requires_only_hits() {
        let mut s = RunSummary::default();
        s.push("a", true, Duration::ZERO, ContentHash(1));
        s.push("b", true, Duration::ZERO, ContentHash(2));
        assert!(s.all_cached());
    }
}
