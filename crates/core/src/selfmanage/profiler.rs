//! Online workload profiling: a lock-cheap frequency sketch over the live
//! query stream.
//!
//! The paper's advisor takes the workload (Definition 4.1) as an input; a
//! *self-managing* index has to derive it from the queries it actually
//! serves. [`WorkloadProfiler`] sits on the engine's evaluation path
//! ([`QueryEngine::with_profiler`]) and aggregates queries by their
//! *translated shape* — the (sids, terms, k) triple — since two NEXI
//! spellings that translate identically need the same redundant lists.
//!
//! Recording is designed to be cheap enough for the hot path: one atomic
//! tick plus one short critical section on one of [`ProfilerConfig::shards`]
//! sharded hash maps, so concurrent query threads rarely contend.
//!
//! Recency weighting uses exponential decay on a *logical* clock (the
//! profiler's own query counter): each entry's weight halves every
//! [`ProfilerConfig::half_life`] recorded queries. A shifted workload
//! therefore overtakes the old one after a few half-lives, no wall clock
//! involved — and with `half_life: None` the sketch degenerates to exact
//! counts, which makes the derived workload reproducible for tests.
//!
//! [`QueryEngine::with_profiler`]: crate::engine::QueryEngine::with_profiler

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use trex_obs::SelfManageCounters;
use trex_summary::Sid;
use trex_text::TermId;

use super::workload::{Workload, WorkloadQuery};

/// Tuning knobs for the profiler.
#[derive(Debug, Clone, Copy)]
pub struct ProfilerConfig {
    /// Number of independently locked sketch shards (contention control).
    pub shards: usize,
    /// Half-life of an entry's weight, in recorded queries; `None` disables
    /// decay (pure counts, deterministic).
    pub half_life: Option<u64>,
    /// Hard cap on distinct shapes kept per shard. When an insert would
    /// exceed it, decayed-out entries are pruned and, if that is not
    /// enough, the lightest entries are evicted — so a flood of
    /// never-repeated queries cannot grow the sketch without bound.
    pub max_entries_per_shard: usize,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig {
            shards: 16,
            // A few hundred queries: old workloads fade within a handful of
            // reconcile intervals at realistic serving rates.
            half_life: Some(256),
            max_entries_per_shard: 1024,
        }
    }
}

/// Entries whose decayed weight falls below this are dead: they can no
/// longer influence the top-shapes ranking, only occupy memory.
const PRUNE_EPSILON: f64 = 1e-3;

/// The profiler's aggregation key: the translated query shape. Sids and
/// terms are kept sorted so NEXI variants with the same translation
/// coincide.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ProfileKey {
    sids: Vec<Sid>,
    terms: Vec<TermId>,
    k: usize,
}

#[derive(Debug, Clone)]
struct ProfileEntry {
    /// A representative NEXI spelling (the first one observed), used when
    /// the self-manager re-runs the query for cost measurement.
    nexi: String,
    /// Decayed observation weight as of `tick`.
    weight: f64,
    /// Logical time of the last update.
    tick: u64,
}

/// One profiled query shape, ready for workload construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledQuery {
    /// Representative NEXI text.
    pub nexi: String,
    /// Decayed observation weight (un-normalised).
    pub weight: f64,
    /// The k the shape was queried with.
    pub k: usize,
}

/// Concurrent frequency sketch over the live query stream.
pub struct WorkloadProfiler {
    shards: Vec<Mutex<HashMap<ProfileKey, ProfileEntry>>>,
    ticks: AtomicU64,
    half_life: Option<f64>,
    max_entries: usize,
    counters: Arc<SelfManageCounters>,
}

impl WorkloadProfiler {
    /// A profiler with the given configuration.
    pub fn new(config: ProfilerConfig) -> WorkloadProfiler {
        let shards = config.shards.max(1);
        WorkloadProfiler {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            ticks: AtomicU64::new(0),
            half_life: config.half_life.map(|h| h.max(1) as f64),
            max_entries: config.max_entries_per_shard.max(1),
            counters: Arc::new(SelfManageCounters::new()),
        }
    }

    /// The self-management counter group this profiler (and the manager
    /// built on it) reports into.
    pub fn counters(&self) -> &Arc<SelfManageCounters> {
        &self.counters
    }

    /// Records one served query. No-ops for shapes redundant lists cannot
    /// serve: structure-only or term-only translations, and unbounded
    /// (`k: None`) or `k = 0` requests — the self-manager optimises *top-k*
    /// retrieval.
    pub fn record(&self, nexi: &str, sids: &[Sid], terms: &[TermId], k: Option<usize>) {
        let Some(k) = k.filter(|&k| k > 0) else {
            return;
        };
        if sids.is_empty() || terms.is_empty() {
            return;
        }
        let mut sids = sids.to_vec();
        let mut terms = terms.to_vec();
        sids.sort_unstable();
        terms.sort_unstable();
        let key = ProfileKey { sids, terms, k };

        let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shards[self.shard_of(&key)].lock();
        // A new shape landing on a full shard first prunes decayed-out
        // entries, then (if the shard is still full — e.g. decay disabled)
        // evicts the lightest ones. Amortised: eviction frees a batch, so
        // the sort does not run on every insert of a flood.
        if shard.len() >= self.max_entries && !shard.contains_key(&key) {
            self.prune(&mut shard, tick);
        }
        let entry = shard.entry(key).or_insert_with(|| ProfileEntry {
            nexi: nexi.to_string(),
            weight: 0.0,
            tick,
        });
        entry.weight = self.decayed(entry.weight, entry.tick, tick) + 1.0;
        entry.tick = tick;
        drop(shard);
        self.counters.queries_profiled.incr();
    }

    /// Number of queries recorded so far (the logical clock).
    pub fn recorded(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// The current top-`max` query shapes by decayed weight, heaviest
    /// first. Equal weights are broken by the full shape key (sids, terms,
    /// k) — the sketch's own aggregation key — like the ranked eviction in
    /// `prune`. NEXI text alone is not a key: the same spelling queried at
    /// two k values is two distinct shapes, and tied shapes sorted only by
    /// text would surface in hash-map order, making reconcile plans differ
    /// run to run.
    pub fn profile(&self, max: usize) -> Vec<ProfiledQuery> {
        let now = self.ticks.load(Ordering::Relaxed);
        let mut all: Vec<(ProfileKey, ProfiledQuery)> = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            // Reading the sketch is the other natural pruning point: dead
            // entries are dropped here even on shards no flood ever fills.
            if self.half_life.is_some() {
                shard.retain(|_, e| self.decayed(e.weight, e.tick, now) >= PRUNE_EPSILON);
            }
            for (key, entry) in shard.iter() {
                let weight = self.decayed(entry.weight, entry.tick, now);
                if weight > 0.0 {
                    all.push((
                        key.clone(),
                        ProfiledQuery {
                            nexi: entry.nexi.clone(),
                            weight,
                            k: key.k,
                        },
                    ));
                }
            }
        }
        all.sort_by(|(ka, a), (kb, b)| b.weight.total_cmp(&a.weight).then_with(|| ka.cmp(kb)));
        all.truncate(max);
        all.into_iter().map(|(_, q)| q).collect()
    }

    /// Derives the Definition-4.1 workload of the top-`max` shapes:
    /// decayed weights normalised to frequencies summing to 1. `None` when
    /// nothing has been recorded yet.
    pub fn workload(&self, max: usize) -> Option<Workload> {
        let profiled = self.profile(max);
        if profiled.is_empty() {
            return None;
        }
        let total: f64 = profiled.iter().map(|p| p.weight).sum();
        // Normalisation keeps Definition 4.1 (Σf = 1) by construction, so
        // `Workload::new` cannot fail on positive weights.
        Workload::new(
            profiled
                .into_iter()
                .map(|p| WorkloadQuery {
                    nexi: p.nexi,
                    frequency: p.weight / total,
                    k: p.k,
                })
                .collect(),
        )
        .ok()
    }

    /// Drops every recorded shape (the logical clock keeps running).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Total entries currently held across all shards (memory-bound tests
    /// and observability; `O(shards)`).
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Makes room in a full shard: drop entries decayed below
    /// [`PRUNE_EPSILON`], then if the shard is still at capacity evict the
    /// lightest eighth (at least one) so the heaviest shapes — the only
    /// ones `profile` can ever surface — are untouched.
    fn prune(&self, shard: &mut HashMap<ProfileKey, ProfileEntry>, now: u64) {
        shard.retain(|_, e| self.decayed(e.weight, e.tick, now) >= PRUNE_EPSILON);
        if shard.len() < self.max_entries {
            return;
        }
        let excess = shard.len() + 1 - self.max_entries;
        let evict = excess.max(self.max_entries / 8).min(shard.len());
        let mut ranked: Vec<(ProfileKey, f64)> = shard
            .iter()
            .map(|(k, e)| (k.clone(), self.decayed(e.weight, e.tick, now)))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for (key, _) in ranked.into_iter().take(evict) {
            shard.remove(&key);
        }
    }

    fn shard_of(&self, key: &ProfileKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn decayed(&self, weight: f64, from_tick: u64, to_tick: u64) -> f64 {
        match self.half_life {
            Some(half_life) => {
                let dt = to_tick.saturating_sub(from_tick) as f64;
                weight * 0.5f64.powf(dt / half_life)
            }
            None => weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_by_translated_shape() {
        let p = WorkloadProfiler::new(ProfilerConfig {
            shards: 4,
            half_life: None,
            ..ProfilerConfig::default()
        });
        // Different sid/term *orderings* of the same shape coincide.
        p.record("//a[about(., x y)]", &[1, 2], &[7, 9], Some(10));
        p.record("//a[about(., y x)]", &[2, 1], &[9, 7], Some(10));
        // A different k is a different shape.
        p.record("//a[about(., x y)]", &[1, 2], &[7, 9], Some(5));
        let profiled = p.profile(10);
        assert_eq!(profiled.len(), 2);
        assert_eq!(profiled[0].weight, 2.0);
        assert_eq!(profiled[1].weight, 1.0);
    }

    #[test]
    fn ignores_unprofitable_shapes() {
        let p = WorkloadProfiler::new(ProfilerConfig::default());
        p.record("//a", &[1], &[], Some(10)); // no terms
        p.record("about(., x)", &[], &[3], Some(10)); // no sids
        p.record("//a[about(., x)]", &[1], &[3], None); // unbounded
        p.record("//a[about(., x)]", &[1], &[3], Some(0)); // k = 0
        assert!(p.profile(10).is_empty());
        assert_eq!(p.counters().queries_profiled.get(), 0);
    }

    #[test]
    fn decay_fades_old_shapes() {
        let p = WorkloadProfiler::new(ProfilerConfig {
            shards: 1,
            half_life: Some(4),
            ..ProfilerConfig::default()
        });
        p.record("//a[about(., old)]", &[1], &[1], Some(10));
        for _ in 0..16 {
            p.record("//a[about(., new)]", &[1], &[2], Some(10));
        }
        let profiled = p.profile(10);
        assert_eq!(profiled[0].nexi, "//a[about(., new)]");
        // 16 ticks = 4 half-lives: the old entry is at 1/16 weight.
        assert!(profiled.len() == 1 || profiled[1].weight < 0.1);
    }

    #[test]
    fn workload_normalises_and_orders_deterministically() {
        let p = WorkloadProfiler::new(ProfilerConfig {
            shards: 8,
            half_life: None,
            ..ProfilerConfig::default()
        });
        for _ in 0..6 {
            p.record("//a[about(., x)]", &[1], &[1], Some(10));
        }
        for _ in 0..3 {
            p.record("//b[about(., y)]", &[2], &[2], Some(10));
        }
        p.record("//c[about(., z)]", &[3], &[3], Some(5));
        let w = p.workload(10).unwrap();
        let expected = Workload::from_weights(vec![
            ("//a[about(., x)]".into(), 6.0, 10),
            ("//b[about(., y)]".into(), 3.0, 10),
            ("//c[about(., z)]".into(), 1.0, 5),
        ])
        .unwrap();
        assert_eq!(w, expected);
    }

    #[test]
    fn tied_weights_order_by_shape_key_not_hash_order() {
        // Two shapes with the SAME representative NEXI text and the same
        // weight — only k (part of the shape key) distinguishes them. The
        // text tiebreak alone cannot order these, so before the shape-key
        // tiebreak their order was whatever the hash map yielded.
        let build = || {
            let p = WorkloadProfiler::new(ProfilerConfig {
                shards: 4,
                half_life: None,
                ..ProfilerConfig::default()
            });
            p.record("//a[about(., x)]", &[1], &[7], Some(20));
            p.record("//a[about(., x)]", &[1], &[7], Some(5));
            // Same k and text, tied weight, differing terms: key orders them.
            p.record("//b[about(., y)]", &[2], &[9], Some(5));
            p.record("//b[about(., y)]", &[2], &[8], Some(5));
            p.profile(10)
        };
        let first = build();
        assert_eq!(first.len(), 4);
        // Shape key orders (sids, terms, k) ascending within the weight tie.
        assert_eq!(
            (first[0].nexi.as_str(), first[0].k),
            ("//a[about(., x)]", 5)
        );
        assert_eq!(
            (first[1].nexi.as_str(), first[1].k),
            ("//a[about(., x)]", 20)
        );
        assert_eq!(first[2].nexi.as_str(), "//b[about(., y)]");
        assert_eq!(first[3].nexi.as_str(), "//b[about(., y)]");
        // Fresh sketches (fresh hash seeds) must reproduce the same order.
        for _ in 0..8 {
            assert_eq!(build(), first);
        }
    }

    #[test]
    fn truncates_to_the_heaviest_shapes() {
        let p = WorkloadProfiler::new(ProfilerConfig {
            shards: 2,
            half_life: None,
            ..ProfilerConfig::default()
        });
        for i in 0..20u32 {
            for _ in 0..=i {
                p.record(&format!("//a[about(., t{i})]"), &[1], &[i], Some(10));
            }
        }
        let profiled = p.profile(3);
        assert_eq!(profiled.len(), 3);
        assert_eq!(profiled[0].weight, 20.0);
        assert_eq!(profiled[2].weight, 18.0);
    }

    #[test]
    fn flood_of_unique_shapes_stays_bounded_and_keeps_hot_ranking() {
        let cap = 128;
        let p = WorkloadProfiler::new(ProfilerConfig {
            shards: 2,
            half_life: Some(64),
            max_entries_per_shard: cap,
        });
        // A hot query interleaved with a flood of never-repeated shapes:
        // the sketch must stay within its cap and the hot query must stay
        // ranked first throughout.
        for i in 0..10_000u32 {
            if i % 10 == 0 {
                p.record("//a[about(., hot)]", &[1], &[1], Some(10));
            }
            p.record(
                &format!("//a[about(., r{i})]"),
                &[2],
                &[1_000 + i],
                Some(10),
            );
            assert!(p.entry_count() <= 2 * cap, "flood grew past cap at i={i}");
        }
        let profiled = p.profile(5);
        assert_eq!(profiled[0].nexi, "//a[about(., hot)]");
        // Reading the profile prunes decayed-out entries too.
        assert!(p.entry_count() <= 2 * cap);
    }

    #[test]
    fn eviction_without_decay_keeps_the_heaviest_shapes() {
        let cap = 16;
        let p = WorkloadProfiler::new(ProfilerConfig {
            shards: 1,
            half_life: None,
            max_entries_per_shard: cap,
        });
        for _ in 0..50 {
            p.record("//a[about(., hot)]", &[1], &[1], Some(10));
        }
        for i in 0..200u32 {
            p.record(&format!("//a[about(., r{i})]"), &[2], &[100 + i], Some(10));
        }
        assert!(p.entry_count() <= cap);
        assert_eq!(p.profile(1)[0].nexi, "//a[about(., hot)]");
    }
}
