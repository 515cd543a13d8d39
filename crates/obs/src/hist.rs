//! Log-bucketed latency histograms (HDR-style): fixed-size arrays of relaxed
//! atomic buckets, cheap enough to record into on every pager read, and
//! mergeable snapshots with percentile queries for the metrics surface.
//!
//! Bucketing scheme — values are nanoseconds:
//!
//! * values `0..16` get one exact bucket each (the first two octaves);
//! * every later octave `[2^m, 2^(m+1))` is split into 8 equal sub-buckets,
//!   so any recorded value lands in a bucket whose width is ≤ 1/8 of the
//!   value: the **relative error of any reported quantile is ≤ 12.5%**
//!   (one bucket).
//!
//! That gives `16 + 60*8 = 496` buckets covering the full `u64` range in a
//! fixed ~4 KiB array — no resizing, no locking, `fetch_add(Relaxed)` per
//! record, exactly the discipline of the counter layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::{json_field, ToJson};

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` (= 16) are bucketed exactly, one value per bucket.
const LINEAR: u64 = (2 * SUB) as u64;
/// Total bucket count: 16 linear + 8 per octave for octaves 4..=63.
pub const BUCKETS: usize = 2 * SUB + (63 - SUB_BITS as usize) * SUB;

/// Index of the bucket holding `v` (nanoseconds).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        // m = index of the most significant set bit, ≥ 4 here.
        let m = 63 - v.leading_zeros();
        let sub = ((v >> (m - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        2 * SUB + (m as usize - 4) * SUB + sub
    }
}

/// Inclusive upper bound (ns) of bucket `i` — the value reported for any
/// quantile that lands in the bucket.
fn bucket_upper(i: usize) -> u64 {
    if i < 2 * SUB {
        i as u64
    } else {
        let oct = (i - 2 * SUB) / SUB;
        let sub = ((i - 2 * SUB) % SUB) as u64;
        let m = oct as u32 + 4;
        let width = 1u64 << (m - SUB_BITS);
        // Written as `lower - 1 + span` so the top bucket (m = 63, sub = 7)
        // lands exactly on u64::MAX without overflowing.
        (1u64 << m) - 1 + (sub + 1) * width
    }
}

/// A running stopwatch.
///
/// Call sites do `let sw = timers.start(); ...; timers.page_read.observe(&sw);`
/// — one `Instant::now` at start, one at observe.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// A stopwatch started now.
    #[inline]
    pub fn started() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since start.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A fixed-size, log-bucketed latency histogram of nanosecond values.
///
/// All updates are relaxed atomics; the histogram is always-on and shared by
/// `Arc` exactly like the counter groups.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of recorded values (ns), saturating.
    sum: AtomicU64,
    /// Largest recorded value (ns).
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: u64 ns ≈ 584 years of accumulated time,
        // but a long-lived process merging shard sums could conceivably get
        // there, and a wrapped sum would poison every later mean.
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            })
            .ok();
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`Duration`].
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records the elapsed time of `sw`.
    #[inline]
    pub fn observe(&self, sw: &Stopwatch) {
        self.record(sw.elapsed_ns());
    }

    /// A point-in-time copy. Concurrent `record`s may straddle the copy;
    /// the snapshot's `count` is derived from the bucket array itself so the
    /// snapshot is always internally consistent (cumulative buckets sum to
    /// `count`), while `sum`/`max` are independently-read approximations.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        let mut count = 0u64;
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            let v = bucket.load(Ordering::Relaxed);
            *slot = v;
            count = count.saturating_add(v);
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]: mergeable, subtractable, queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The value (ns) at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q * count)`-th smallest recorded value,
    /// so the answer is within one bucket (≤ 12.5% relative error) of the
    /// true quantile. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                // Never report beyond the observed max (the last bucket's
                // upper bound can overshoot it by the bucket width).
                return bucket_upper(i).min(self.max.max(i as u64));
            }
        }
        self.max
    }

    /// Union of two snapshots (e.g. per-shard histograms folded into one):
    /// per-bucket sums, saturating.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(other.buckets.iter())
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// Per-bucket difference `self - earlier`, saturating — the histogram of
    /// values recorded between the two snapshots. `max` cannot be windowed
    /// and is carried over from `self`.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Non-empty `(upper_bound_ns, count)` pairs in increasing bound order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }

    /// Appends this histogram in Prometheus text exposition format 0.0.4 as
    /// metric `name` (which should end in `_seconds`): cumulative
    /// `_bucket{le="..."}` lines (bounds converted ns → seconds), terminated
    /// by `+Inf`, then `_sum` and `_count`. Empty buckets are elided — the
    /// series stays cumulative and `+Inf` always equals `_count`.
    pub fn write_prometheus(&self, out: &mut String, name: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (upper, c) in self.nonzero_buckets() {
            cumulative = cumulative.saturating_add(c);
            let le = upper as f64 / 1e9;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count);
        let _ = writeln!(out, "{name}_sum {}", self.sum as f64 / 1e9);
        let _ = writeln!(out, "{name}_count {}", self.count);
    }
}

impl ToJson for HistogramSnapshot {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push('{');
        json_field(out, "count", self.count);
        out.push(',');
        json_field(out, "sum_ns", self.sum);
        out.push(',');
        json_field(out, "max_ns", self.max);
        out.push(',');
        json_field(out, "p50_ns", self.percentile(0.50));
        out.push(',');
        json_field(out, "p90_ns", self.percentile(0.90));
        out.push(',');
        json_field(out, "p99_ns", self.percentile(0.99));
        out.push(',');
        json_field(out, "p999_ns", self.percentile(0.999));
        out.push_str(",\"buckets\":[");
        for (i, (upper, c)) in self.nonzero_buckets().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{upper},{c}]");
        }
        out.push_str("]}");
    }
}

/// Defines a named group of histograms, mirroring `counter_group!`: `new()`,
/// per-field public [`Histogram`]s, `start()` returning a [`Stopwatch`], and
/// `each()` for the metrics registry to iterate fields by name.
macro_rules! histogram_group {
    (
        $(#[$group_meta:meta])*
        histograms $name:ident {
            $($(#[$field_meta:meta])* $field:ident),+ $(,)?
        }
    ) => {
        $(#[$group_meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: Histogram,)+
        }

        impl $name {
            /// A zeroed group.
            pub fn new() -> $name {
                $name { $($field: Histogram::new(),)+ }
            }

            /// A stopwatch started now, for one of the group's histograms.
            #[inline]
            pub fn start(&self) -> Stopwatch {
                Stopwatch::started()
            }

            /// `(field_name, histogram)` pairs, for exposition.
            pub fn each(&self) -> Vec<(&'static str, &Histogram)> {
                vec![$((stringify!($field), &self.$field)),+]
            }
        }
    };
}

histogram_group! {
    /// Storage-layer I/O latencies, owned by the pager and shared (like
    /// [`crate::StorageCounters`]) with the buffer pool and the store.
    histograms StorageTimers {
        /// One pager `read_page` (WAL-map consult + data-file read).
        page_read,
        /// One pager `write_page` (WAL append in WAL mode, in-place write
        /// otherwise).
        page_write,
        /// One data-file fsync (`sync_data_file`).
        fsync,
        /// One WAL record append (image or alloc), including its write.
        wal_append,
        /// One full checkpoint (seal + apply + sync + truncate).
        checkpoint,
    }
}

histogram_group! {
    /// Query-path latencies, owned by the index-level
    /// [`crate::registry::Telemetry`] and recorded by the engine.
    histograms QueryTimers {
        /// End-to-end query time: the root `query` span's duration —
        /// translate, read-gate wait, evaluate and rank.
        query,
        /// NEXI parse + summary translation.
        translate,
        /// Final ranking / answer assembly.
        rank,
        /// ERA strategy evaluation.
        era_eval,
        /// TA strategy evaluation.
        ta_eval,
        /// Merge strategy evaluation.
        merge_eval,
    }
}

histogram_group! {
    /// Maintenance-side latencies: the reconcile loop's phases and how long
    /// queries/reconciles waited at the maintenance gate.
    histograms MaintTimers {
        /// Query-side wait to acquire the maintenance read gate.
        read_gate_wait,
        /// Reconciler wait to acquire the maintenance write gate.
        write_gate_wait,
        /// One full reconcile cycle.
        reconcile_cycle,
        /// Cost measurement/prediction phase of a cycle.
        reconcile_measure,
        /// Apply phase (drops + adds under the write gate).
        reconcile_apply,
        /// The checkpoint flush ending a changed cycle.
        reconcile_checkpoint,
    }
}

histogram_group! {
    /// Serving-side latencies of the HTTP front end, measured around the
    /// shared request handler (so they include queueing, parsing, and cache
    /// lookups — everything a client waits for except the network).
    histograms ServeTimers {
        /// End-to-end request time from admission to response written.
        request,
        /// Time a request spent waiting in the bounded queue before a
        /// worker picked it up.
        queue_wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_round_trips_bounds() {
        // Every value must land in a bucket whose bounds contain it.
        for v in [
            0u64,
            1,
            7,
            15,
            16,
            17,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(
                v <= bucket_upper(i),
                "v={v} above upper bound {} of bucket {i}",
                bucket_upper(i)
            );
            if i > 0 {
                assert!(
                    v > bucket_upper(i - 1),
                    "v={v} not above previous bucket's bound {}",
                    bucket_upper(i - 1)
                );
            }
        }
    }

    #[test]
    fn bucket_bounds_strictly_increase() {
        for i in 1..BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1), "bucket {i}");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn percentiles_within_one_bucket_relative_error() {
        // A known uniform distribution: 1..=10_000 ns, once each.
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        for (q, exact) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = s.percentile(q) as f64;
            // Upper bound of the true bucket: within 12.5% above, never below.
            assert!(
                got >= exact && got <= exact * 1.125,
                "q={q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(s.percentile(1.0), s.max_ns());
        assert_eq!(s.max_ns(), 10_000);
    }

    #[test]
    fn merged_shard_snapshots_equal_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let union = Histogram::new();
        for v in 0..2_000u64 {
            let x = v * 37 % 100_000;
            if v % 2 == 0 { &a } else { &b }.record(x);
            union.record(x);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), union.snapshot());
    }

    #[test]
    fn delta_windows_between_snapshots() {
        let h = Histogram::new();
        h.record(10);
        h.record(100);
        let before = h.snapshot();
        h.record(1_000);
        let d = h.snapshot().delta(&before);
        assert_eq!(d.count(), 1);
        assert_eq!(d.nonzero_buckets().len(), 1);
        assert!(d.percentile(0.5) >= 1_000);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_inf_terminated() {
        let h = Histogram::new();
        for v in [50u64, 50, 5_000, 500_000] {
            h.record(v);
        }
        let mut out = String::new();
        h.snapshot().write_prometheus(&mut out, "trex_test_seconds");
        assert!(out.starts_with("# TYPE trex_test_seconds histogram\n"));
        let mut last = 0u64;
        let mut inf_seen = false;
        for line in out.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-cumulative: {line}");
            last = v;
            if line.contains("le=\"+Inf\"") {
                inf_seen = true;
                assert_eq!(v, 4);
            }
        }
        assert!(inf_seen);
        assert!(out.contains("trex_test_seconds_sum "));
        assert!(out.ends_with("trex_test_seconds_count 4\n"));
    }

    #[test]
    fn histograms_are_thread_safe() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..1_000u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 4_000);
        assert_eq!(h.snapshot().max_ns(), 999);
    }
}
