//! Shared infrastructure for the experiment harness and the Criterion
//! benches: building (and caching) the synthetic collections, k sweeps, and
//! simple measurement plumbing.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use trex::corpus::{Collection, CorpusConfig, IeeeGenerator, WikiGenerator};
use trex::{AliasMap, TrexConfig, TrexSystem};

/// Experiment scale: document counts for the two collections.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// IEEE-like documents (paper: 16,819).
    pub ieee_docs: usize,
    /// Wikipedia-like documents (paper: 659,388).
    pub wiki_docs: usize,
}

impl Scale {
    /// The default laptop scale used by `experiments` and EXPERIMENTS.md.
    pub fn default_scale() -> Scale {
        Scale {
            ieee_docs: 1200,
            wiki_docs: 3000,
        }
    }

    /// A tiny scale for smoke tests and Criterion benches.
    pub fn small() -> Scale {
        Scale {
            ieee_docs: 150,
            wiki_docs: 300,
        }
    }
}

/// Where experiment store files live (under `target/` so `cargo clean`
/// removes them).
pub fn store_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/trex-experiments");
    std::fs::create_dir_all(&dir).expect("create experiment dir");
    dir
}

/// Builds (or reuses, when `reuse` is set and the store exists) the
/// single-store system for one collection at the given document count.
pub fn build_collection(collection: Collection, docs: usize, reuse: bool) -> TrexSystem {
    let (kind, corpus) = match collection {
        Collection::Ieee => ("ieee", CorpusConfig::ieee_default()),
        Collection::Wiki => ("wiki", CorpusConfig::wiki_default()),
    };
    let mut config = TrexConfig::new(store_dir().join(format!("{kind}-{docs}.db")));
    if collection == Collection::Wiki {
        config.alias = AliasMap::inex_wiki();
    }
    if reuse {
        if let Ok(system) = TrexSystem::open(config.clone()) {
            return system;
        }
    }
    let corpus = CorpusConfig { docs, ..corpus };
    match collection {
        Collection::Ieee => TrexSystem::build(config, IeeeGenerator::new(corpus).documents()),
        Collection::Wiki => TrexSystem::build(config, WikiGenerator::new(corpus).documents()),
    }
    .expect("build collection")
}

/// The k values swept in the figures: roughly geometric, clamped to the
/// result size like the paper's per-query x axes.
pub fn k_sweep(total_answers: usize) -> Vec<usize> {
    let mut ks = vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000];
    ks.retain(|&k| k <= total_answers.max(1) * 2);
    if ks.is_empty() {
        ks.push(1);
    }
    ks
}

/// Runs `f` `runs` times and returns the median duration (the paper ran
/// five and averaged the middle three; the median is the same robustness
/// idea at laptop scale).
pub fn median_time<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    let runs = runs.max(1);
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(f());
        times.push(start.elapsed());
    }
    times.sort();
    times[times.len() / 2]
}

/// Milliseconds, for tables.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_sweep_is_clamped() {
        let ks = k_sweep(30);
        assert!(ks.iter().all(|&k| k <= 60));
        assert!(ks.contains(&1));
        assert_eq!(k_sweep(0), vec![1, 2], "empty results still sweep tiny k");
    }

    #[test]
    fn median_time_smoke() {
        let d = median_time(3, || (0..1000u64).sum::<u64>());
        assert!(d < Duration::from_secs(1));
    }
}
