//! The top-k heap used by TA, with instrumented timing for the ITA variant.
//!
//! The paper's ITA curves measure "a TA with an ideal heap management": heap
//! insertions and removals are treated "as being done in zero time (i.e., we
//! pause our time measure during these operations)" (§5.2). [`HeapClock`]
//! implements that pause-the-stopwatch protocol: every heap operation is
//! bracketed by clock reads, and the accumulated heap time can be subtracted
//! from a strategy's wall time to obtain its ITA time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Accumulates time spent inside heap operations.
#[derive(Debug, Default)]
pub struct HeapClock {
    enabled: bool,
    total: Duration,
}

impl HeapClock {
    /// A clock that measures (for ITA derivation).
    pub fn measuring() -> HeapClock {
        HeapClock {
            enabled: true,
            total: Duration::ZERO,
        }
    }

    /// A disabled clock (no timing overhead; used in correctness tests).
    pub fn disabled() -> HeapClock {
        HeapClock::default()
    }

    /// Runs `f`, attributing its duration to heap management.
    #[inline]
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.total += start.elapsed();
        r
    }

    /// Total accumulated heap time.
    pub fn total(&self) -> Duration {
        self.total
    }
}

/// A candidate in the top-k heap: ordered by score ascending so the heap
/// root is the *worst* of the current top-k (a min-heap via `BinaryHeap`'s
/// max-heap on reversed ordering).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem<T> {
    score: f32,
    item: T,
}

impl<T: PartialEq> Eq for HeapItem<T> {}

impl<T: PartialEq> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: PartialEq> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the minimum on top.
        // `total_cmp` keeps the order total even if a non-finite score were
        // ever smuggled past `offer`'s guard — a NaN comparison must not be
        // able to corrupt the heap invariant.
        other.score.total_cmp(&self.score)
    }
}

/// A bounded min-heap keeping the k highest-scored items seen.
pub struct TopKHeap<T> {
    k: usize,
    heap: BinaryHeap<HeapItem<T>>,
    /// Lifetime operation counters (pushes, pops) — reported by benchmarks
    /// to explain TA's heap-management costs.
    pushes: u64,
    pops: u64,
}

impl<T: PartialEq> TopKHeap<T> {
    /// A heap retaining the `k` best items.
    pub fn new(k: usize) -> TopKHeap<T> {
        // Capacity is only a hint; clamp it so `k = usize::MAX` (the "all
        // answers" top-k) neither overflows nor pre-allocates the world.
        let capacity = k.saturating_add(1).min(4096);
        TopKHeap {
            k,
            heap: BinaryHeap::with_capacity(capacity),
            pushes: 0,
            pops: 0,
        }
    }

    /// The capacity k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no items.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the heap holds k items.
    pub fn is_full(&self) -> bool {
        self.len() >= self.k
    }

    /// The k-th best score so far — the bar an outside candidate must clear.
    /// `None` while fewer than k items are held (every candidate qualifies).
    pub fn threshold(&self) -> Option<f32> {
        if self.is_full() {
            self.heap.peek().map(|it| it.score)
        } else {
            None
        }
    }

    /// Offers an item; keeps it only if it belongs to the current top-k.
    /// Heap mutations run under `clock`. Returns whether the item was kept.
    ///
    /// Scores must be finite. A NaN score is rejected outright (it ranks
    /// against nothing, and before this guard it could corrupt both the
    /// heap invariant and the TA stopping threshold); ±∞ are clamped to the
    /// finite `f32` range so the threshold arithmetic stays meaningful.
    pub fn offer(&mut self, score: f32, item: T, clock: &mut HeapClock) -> bool {
        if score.is_nan() {
            return false;
        }
        let score = score.clamp(f32::MIN, f32::MAX);
        if self.k == 0 {
            return false;
        }
        if !self.is_full() {
            self.pushes += 1;
            clock.measure(|| self.heap.push(HeapItem { score, item }));
            return true;
        }
        let bar = self.heap.peek().expect("non-empty").score;
        if score <= bar {
            return false;
        }
        self.pushes += 1;
        self.pops += 1;
        clock.measure(|| {
            self.heap.pop();
            self.heap.push(HeapItem { score, item });
        });
        true
    }

    /// Drains the heap into a descending-score list.
    pub fn into_sorted_desc(self) -> Vec<(f32, T)> {
        let mut items: Vec<(f32, T)> = self
            .heap
            .into_iter()
            .map(|it| (it.score, it.item))
            .collect();
        items.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        items
    }

    /// Lifetime (pushes, pops).
    pub fn op_counts(&self) -> (u64, u64) {
        (self.pushes, self.pops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_k_best() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(3);
        for (score, item) in [(1.0, "a"), (5.0, "b"), (3.0, "c"), (2.0, "d"), (9.0, "e")] {
            heap.offer(score, item, &mut clock);
        }
        let out = heap.into_sorted_desc();
        let items: Vec<&str> = out.iter().map(|(_, i)| *i).collect();
        assert_eq!(items, vec!["e", "b", "c"]);
    }

    #[test]
    fn threshold_is_the_kth_score() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(2);
        assert_eq!(heap.threshold(), None);
        heap.offer(4.0, 1, &mut clock);
        assert_eq!(heap.threshold(), None, "not yet full");
        heap.offer(7.0, 2, &mut clock);
        assert_eq!(heap.threshold(), Some(4.0));
        heap.offer(5.0, 3, &mut clock);
        assert_eq!(heap.threshold(), Some(5.0));
    }

    #[test]
    fn equal_scores_do_not_evict() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(1);
        heap.offer(2.0, "first", &mut clock);
        assert!(!heap.offer(2.0, "second", &mut clock));
        assert_eq!(heap.into_sorted_desc()[0].1, "first");
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(0);
        assert!(!heap.offer(10.0, 1, &mut clock));
        assert!(heap.is_empty());
    }

    #[test]
    fn op_counts_track_churn() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(1);
        heap.offer(1.0, 1, &mut clock);
        heap.offer(2.0, 2, &mut clock); // evict
        heap.offer(0.5, 3, &mut clock); // rejected
        assert_eq!(heap.op_counts(), (2, 1));
    }

    #[test]
    fn measuring_clock_accumulates() {
        let mut clock = HeapClock::measuring();
        let mut heap = TopKHeap::new(64);
        for i in 0..10_000 {
            heap.offer((i % 97) as f32, i, &mut clock);
        }
        assert!(clock.total() > Duration::ZERO);
        // A disabled clock stays at zero.
        let disabled = HeapClock::disabled();
        assert_eq!(disabled.total(), Duration::ZERO);
    }
}

#[cfg(test)]
mod non_finite_tests {
    use super::*;

    #[test]
    fn nan_scores_are_rejected() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(2);
        assert!(!heap.offer(f32::NAN, "nan", &mut clock), "NaN never kept");
        assert!(heap.is_empty());
        heap.offer(1.0, "a", &mut clock);
        heap.offer(2.0, "b", &mut clock);
        // A NaN against a full heap must not displace anything either.
        assert!(!heap.offer(f32::NAN, "nan", &mut clock));
        assert_eq!(heap.threshold(), Some(1.0), "threshold unaffected by NaN");
        let out = heap.into_sorted_desc();
        let items: Vec<&str> = out.iter().map(|(_, i)| *i).collect();
        assert_eq!(items, vec!["b", "a"]);
    }

    #[test]
    fn nan_does_not_count_as_a_heap_op() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(4);
        heap.offer(f32::NAN, 0, &mut clock);
        assert_eq!(heap.op_counts(), (0, 0));
    }

    #[test]
    fn infinities_are_clamped_to_finite_range() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(2);
        assert!(heap.offer(f32::INFINITY, "hi", &mut clock));
        assert!(heap.offer(f32::NEG_INFINITY, "lo", &mut clock));
        let t = heap.threshold().expect("full");
        assert!(t.is_finite(), "threshold must stay finite, got {t}");
        assert_eq!(t, f32::MIN);
        // An ordinary finite score displaces the clamped -inf entry.
        assert!(heap.offer(1.0e30, "big", &mut clock));
        assert_eq!(heap.threshold(), Some(1.0e30));
        let out = heap.into_sorted_desc();
        assert_eq!(out[0].0, f32::MAX);
        assert!(out.iter().all(|(s, _)| s.is_finite()));
    }

    #[test]
    fn mixed_finite_and_infinite_ranking_stays_total() {
        let mut clock = HeapClock::disabled();
        let mut heap = TopKHeap::new(3);
        for (s, i) in [
            (f32::INFINITY, 1),
            (5.0, 2),
            (f32::NEG_INFINITY, 3),
            (7.0, 4),
        ] {
            heap.offer(s, i, &mut clock);
        }
        let out = heap.into_sorted_desc();
        let items: Vec<i32> = out.iter().map(|(_, i)| *i).collect();
        assert_eq!(items, vec![1, 4, 2], "clamped +inf first, then 7, then 5");
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    /// The clocked (ITA) and the unclocked heap keep the same top-k as a
    /// full sort of every score offered.
    #[test]
    fn both_policies_keep_the_same_top_k() {
        let scores: Vec<f32> = (0..5000)
            .map(|i| (i * 2654435761u64 % 9973) as f32)
            .collect();
        let mut sorted = scores.clone();
        sorted.sort_unstable_by(|a, b| b.total_cmp(a));
        let expected: Vec<u32> = sorted[..37].iter().map(|s| s.to_bits()).collect();
        for mut clock in [HeapClock::disabled(), HeapClock::measuring()] {
            let mut heap = TopKHeap::new(37);
            for (i, &s) in scores.iter().enumerate() {
                heap.offer(s, i, &mut clock);
            }
            assert_eq!(heap.threshold(), Some(sorted[36]));
            // Same score multiset; which of several tied items is kept is
            // not specified.
            let got: Vec<u32> = heap
                .into_sorted_desc()
                .iter()
                .map(|(s, _)| s.to_bits())
                .collect();
            assert_eq!(got, expected);
        }
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;

    #[test]
    fn unbounded_k_does_not_overflow() {
        // "All answers" TA uses k = usize::MAX; construction must not
        // overflow or allocate absurdly.
        let mut clock = HeapClock::disabled();
        let mut heap: TopKHeap<u32> = TopKHeap::new(usize::MAX);
        for i in 0..10_000u32 {
            heap.offer(i as f32, i, &mut clock);
        }
        assert_eq!(heap.len(), 10_000);
        assert_eq!(heap.threshold(), None, "never full");
    }
}
