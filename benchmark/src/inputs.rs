//! Everything the engine is fed. `--seed` draws what a run does — the order
//! ops run in, every Zipf draw, the documents ingested — on a corpus and a
//! query pool that are the same on every run. The engine sees only these
//! inputs, never the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trex::corpus::{random_workload, Collection, CorpusConfig, IeeeGenerator, Zipf, PAPER_QUERIES};

/// Documents in the corpus every workload but `ingest_mixed` builds. At 2000
/// a fresh build plus materialising the lists of all of `Q` takes ~3 s, so a
/// run can set up three times and still measure for ten seconds inside the
/// driver's time cap; the store (~14 MB with lists) is still 10× the 1 MiB
/// pool `cold_era` reopens it with.
pub const DOCS: usize = 2000;

/// Documents in `ingest_mixed`'s base store; the writer adds to it.
pub const INGEST_BASE_DOCS: usize = 500;

/// The query pool and the corpus are the same on every run. Which queries are
/// in the pool, and how long the corpus makes their lists, decide the latency
/// distribution: over ten seeds `hot_topk`'s p50 moved 17 % with the pool
/// drawn per seed, 8 % with only the corpus drawn per seed, and 3 % with both
/// fixed — and 3 % is what the same inputs give run to run. A benchmark that
/// draws its own yardstick per run measures the draw.
const QUERY_POOL_SEED: u64 = 2007;
const CORPUS_SEED: u64 = 2005;

/// Random queries added to the five IEEE paper queries to make `Q`.
const RANDOM_QUERIES: usize = 251;

/// Zipf exponent of every popularity draw.
pub const ZIPF_S: f64 = 1.0;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub nexi: String,
    pub k: usize,
}

/// `Q`: the five IEEE queries of the paper's Table 1 (k = 10) followed by
/// 251 generated ones, each with its generated k ∈ {5, 10, 20, 50, 100}.
pub fn query_pool() -> Vec<Query> {
    let paper = PAPER_QUERIES
        .iter()
        .filter(|q| q.collection == Collection::Ieee)
        .map(|q| Query {
            nexi: q.nexi.to_string(),
            k: 10,
        });
    let generated = random_workload(Collection::Ieee, RANDOM_QUERIES, QUERY_POOL_SEED)
        .into_iter()
        .map(|(nexi, _, k)| Query { nexi, k });
    paper.chain(generated).collect()
}

fn ieee(seed: u64, docs: usize) -> IeeeGenerator {
    IeeeGenerator::new(CorpusConfig {
        docs,
        seed,
        ..CorpusConfig::ieee_default()
    })
}

/// The IEEE-shaped collection of `docs` documents every store is built from.
pub fn corpus(docs: usize) -> IeeeGenerator {
    ieee(CORPUS_SEED, docs)
}

/// Documents for the `ingest_mixed` writer: the corpus's shape, drawn from
/// the run's seed, so no store has seen them.
pub fn ingest_stream(seed: u64) -> IeeeGenerator {
    ieee(seed ^ 0x1D6E_57ED, usize::MAX)
}

/// A closed-loop op list: every index of `0..n` once, in seeded order.
pub fn shuffled_ops(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05EE_D0B5);
    let mut ops: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        ops.swap(i, rng.gen_range(0..i + 1));
    }
    ops
}

/// `len` Zipf(1.0) rank draws over `0..ranks`; `stream` separates the
/// threads and phases of one run.
pub fn zipf_ops(seed: u64, stream: u64, ranks: usize, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let zipf = Zipf::new(ranks, ZIPF_S);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_repeat_for_a_seed_and_differ_between_seeds() {
        assert_eq!(shuffled_ops(42, 256), shuffled_ops(42, 256));
        assert_ne!(shuffled_ops(42, 256), shuffled_ops(43, 256));
        let mut sorted = shuffled_ops(42, 256);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).collect::<Vec<_>>(), "a permutation");

        assert_eq!(zipf_ops(42, 1, 64, 1000), zipf_ops(42, 1, 64, 1000));
        assert_ne!(zipf_ops(42, 1, 64, 1000), zipf_ops(43, 1, 64, 1000));
        assert_ne!(
            zipf_ops(42, 1, 64, 1000),
            zipf_ops(42, 2, 64, 1000),
            "threads of one run draw different streams"
        );
        assert!(zipf_ops(42, 1, 64, 1000).iter().all(|&r| r < 64));
    }

    #[test]
    fn ingested_documents_follow_the_seed_and_the_corpus_does_not() {
        assert_eq!(corpus(4).document(3), corpus(8).document(3));
        let doc = |seed: u64| ingest_stream(seed).document(3);
        assert_eq!(doc(42), doc(42));
        assert_ne!(doc(42), doc(43));
        assert_ne!(
            doc(CORPUS_SEED ^ 0x1D6E_57ED),
            ingest_stream(CORPUS_SEED).document(3),
            "distinct seeds, distinct documents"
        );
        assert_ne!(
            corpus(4).document(0),
            ingest_stream(CORPUS_SEED).document(0),
            "ingested documents are new to the base store"
        );
    }

    #[test]
    fn query_pool_is_the_paper_queries_then_generated_ones() {
        let q = query_pool();
        assert_eq!(q.len(), 256);
        assert_eq!(q, query_pool());
        assert!(q[..5].iter().all(|q| q.k == 10));
        assert!(q[1].nexi.contains("code signing verification"));
        assert!(q.iter().all(|q| [5, 10, 20, 50, 100].contains(&q.k)));
    }
}
