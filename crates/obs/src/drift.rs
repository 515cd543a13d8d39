//! Live cost-model drift monitoring: the §4 cost model checked against
//! measured accesses as a continuous production signal.
//!
//! On every traced-or-sampled query the engine compares the §4 model's
//! predicted access counts against the actual counters from the query's
//! trace and feeds the *relative error* `|measured − predicted| /
//! max(predicted, 1)` into one of four slots — TA and Merge, each at entry
//! and block granularity. Each slot keeps an EWMA gauge (fast to read, no
//! lock) and a log-bucketed error histogram (recorded in **milli-error**
//! units: 1000 = the prediction was off by 1×). When a single observation
//! exceeds [`DEFAULT_DRIFT_ALERT_THRESHOLD`], `cost_model_drift_alerts`
//! increments — the operator-facing "the model no longer matches the data"
//! tripwire.
//!
//! The monitor follows the relaxed-atomics discipline of the counter layer:
//! one CAS loop per EWMA update, one `fetch_add` per histogram record, and
//! a cheap `should_sample()` so untraced traffic still feeds it, one query
//! in [`DEFAULT_DRIFT_SAMPLE_EVERY`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::Histogram;
use crate::{json_field, Counter, ToJson};

/// Which predicted-vs-measured comparison an observation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// TA sorted+random accesses vs. the Fagin bound (entry level).
    TaEntries,
    /// RPL block fetches vs. predicted TA block reads.
    TaBlocks,
    /// Merge accesses vs. total ERPL entries (exact by construction).
    MergeEntries,
    /// ERPL block fetches vs. predicted Merge block reads.
    MergeBlocks,
}

/// The four slots, in rendering order.
pub const DRIFT_KINDS: [DriftKind; 4] = [
    DriftKind::TaEntries,
    DriftKind::TaBlocks,
    DriftKind::MergeEntries,
    DriftKind::MergeBlocks,
];

impl DriftKind {
    /// Stable exposition name (`ta_entries`, `merge_blocks`, ...).
    pub fn as_str(&self) -> &'static str {
        match self {
            DriftKind::TaEntries => "ta_entries",
            DriftKind::TaBlocks => "ta_blocks",
            DriftKind::MergeEntries => "merge_entries",
            DriftKind::MergeBlocks => "merge_blocks",
        }
    }

    fn index(&self) -> usize {
        match self {
            DriftKind::TaEntries => 0,
            DriftKind::TaBlocks => 1,
            DriftKind::MergeEntries => 2,
            DriftKind::MergeBlocks => 3,
        }
    }
}

/// EWMA smoothing factor: each observation contributes 1/8, so the gauge
/// converges within ~2% of a steady signal after about 30 observations.
const EWMA_ALPHA: f64 = 0.125;

#[derive(Debug, Default)]
struct DriftSlot {
    /// EWMA of the relative error, stored as `f64` bits. 0 bits doubles as
    /// the "no observation yet" sentinel (a real first observation seeds
    /// the EWMA directly).
    ewma_bits: AtomicU64,
    /// Relative-error distribution, milli-error units (1000 = 1×).
    errors: Histogram,
    /// Observations recorded into this slot.
    samples: Counter,
}

impl DriftSlot {
    fn observe(&self, err: f64) {
        self.errors.record((err * 1_000.0).round() as u64);
        self.samples.incr();
        let mut cur = self.ewma_bits.load(Ordering::Relaxed);
        loop {
            let next = if cur == 0 && self.samples.get() <= 1 {
                err
            } else {
                f64::from_bits(cur) * (1.0 - EWMA_ALPHA) + err * EWMA_ALPHA
            };
            match self.ewma_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn ewma(&self) -> f64 {
        f64::from_bits(self.ewma_bits.load(Ordering::Relaxed))
    }
}

/// Per-strategy cost-model drift gauges, histograms, and the alert counter.
/// Owned by [`crate::Telemetry`] (one per index) and shared by `Arc` with
/// the engine that feeds it.
#[derive(Debug)]
pub struct DriftMonitor {
    slots: [DriftSlot; 4],
    /// Observations whose relative error exceeded the alert threshold.
    pub alerts: Counter,
    sample_seq: AtomicU64,
}

/// Alert threshold: relative error 32× — the documented
/// TA_PREDICTION_FACTOR headroom of the §4 TA bound. Merge predictions are
/// exact, so any Merge alert at this threshold is a genuine model breach.
pub const DEFAULT_DRIFT_ALERT_THRESHOLD: f64 = 32.0;

/// Untraced-query sampling period: one query in 16 takes the
/// counter-snapshot path so the monitor sees steady traffic even when no
/// client requests traces.
pub const DEFAULT_DRIFT_SAMPLE_EVERY: u64 = 16;

impl Default for DriftMonitor {
    fn default() -> DriftMonitor {
        DriftMonitor::new()
    }
}

impl DriftMonitor {
    /// A zeroed monitor.
    pub fn new() -> DriftMonitor {
        DriftMonitor {
            slots: Default::default(),
            alerts: Counter::new(),
            sample_seq: AtomicU64::new(0),
        }
    }

    /// Records one predicted-vs-measured comparison. `predicted` below 1 is
    /// clamped to 1 so empty predictions don't divide by zero.
    pub fn observe(&self, kind: DriftKind, predicted: f64, measured: u64) {
        let err = (measured as f64 - predicted).abs() / predicted.max(1.0);
        self.slots[kind.index()].observe(err);
        if err > DEFAULT_DRIFT_ALERT_THRESHOLD {
            self.alerts.incr();
        }
    }

    /// The EWMA relative error of one slot (0.0 before any observation).
    pub fn ewma(&self, kind: DriftKind) -> f64 {
        self.slots[kind.index()].ewma()
    }

    /// Observations recorded into one slot.
    pub fn samples(&self, kind: DriftKind) -> u64 {
        self.slots[kind.index()].samples.get()
    }

    /// The error histogram of one slot (milli-error units).
    pub fn errors(&self, kind: DriftKind) -> &Histogram {
        &self.slots[kind.index()].errors
    }

    /// Observations that tripped the alert threshold.
    pub fn alerts(&self) -> u64 {
        self.alerts.get()
    }

    /// Whether the calling (untraced) query should take the snapshot path
    /// and feed the monitor. Advances the round-robin sequence.
    #[inline]
    pub fn should_sample(&self) -> bool {
        self.sample_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(DEFAULT_DRIFT_SAMPLE_EVERY)
    }
}

impl ToJson for DriftMonitor {
    /// `{"alerts":N,"threshold":F,"slots":{"ta_entries":{...},...}}` with
    /// per-slot EWMA, sample count, and milli-error percentiles.
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "alerts", self.alerts());
        out.push(',');
        json_field(out, "threshold", DEFAULT_DRIFT_ALERT_THRESHOLD);
        out.push_str(",\"slots\":{");
        for (i, kind) in DRIFT_KINDS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(kind.as_str());
            out.push_str("\":{");
            json_field(out, "samples", self.samples(*kind));
            out.push(',');
            json_field(out, "ewma", format!("{:.6}", self.ewma(*kind)));
            let snap = self.errors(*kind).snapshot();
            out.push(',');
            json_field(out, "p50_milli", snap.percentile(0.50));
            out.push(',');
            json_field(out, "p99_milli", snap.percentile(0.99));
            out.push(',');
            json_field(out, "max_milli", snap.max_ns());
            out.push('}');
        }
        out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_predictions_converge_to_zero() {
        let m = DriftMonitor::new();
        for _ in 0..100 {
            m.observe(DriftKind::MergeEntries, 500.0, 500);
        }
        assert_eq!(m.ewma(DriftKind::MergeEntries), 0.0);
        assert_eq!(m.samples(DriftKind::MergeEntries), 100);
        assert_eq!(m.alerts(), 0);
    }

    #[test]
    fn steady_error_converges_to_its_level() {
        let m = DriftMonitor::new();
        // Predicted 100, measured 150 → relative error 0.5, steadily.
        for _ in 0..200 {
            m.observe(DriftKind::TaEntries, 100.0, 150);
        }
        let ewma = m.ewma(DriftKind::TaEntries);
        assert!((ewma - 0.5).abs() < 1e-9, "ewma={ewma}");
        // Other slots untouched.
        assert_eq!(m.samples(DriftKind::TaBlocks), 0);
    }

    #[test]
    fn alerts_fire_only_above_threshold() {
        let m = DriftMonitor::new();
        m.observe(DriftKind::TaEntries, 100.0, 3_300); // err 32 — at, not above
        assert_eq!(m.alerts(), 0);
        m.observe(DriftKind::TaEntries, 100.0, 3_400); // err 33 — alert
        assert_eq!(m.alerts(), 1);
        assert!(m.to_json().contains("\"threshold\":32,"));
    }

    #[test]
    fn zero_prediction_does_not_divide_by_zero() {
        let m = DriftMonitor::new();
        m.observe(DriftKind::MergeBlocks, 0.0, 7);
        assert_eq!(m.ewma(DriftKind::MergeBlocks), 7.0);
    }

    #[test]
    fn sampling_is_one_in_n() {
        let m = DriftMonitor::new();
        let n = DEFAULT_DRIFT_SAMPLE_EVERY as usize;
        let hits: Vec<usize> = (0..10 * n).filter(|_| m.should_sample()).collect();
        assert_eq!(hits, (0..10).map(|i| i * n).collect::<Vec<_>>());
    }

    #[test]
    fn json_rendering_covers_all_slots() {
        let m = DriftMonitor::new();
        m.observe(DriftKind::TaEntries, 100.0, 200);
        let json = m.to_json();
        assert!(json.contains("\"alerts\":0"));
        assert!(json.contains("\"ta_entries\":{\"samples\":1"));
        assert!(json.contains("\"merge_blocks\":{\"samples\":0"));
        assert!(json.contains("\"p50_milli\":"));
    }

    #[test]
    fn concurrent_observations_count_exactly() {
        let m = DriftMonitor::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        m.observe(DriftKind::MergeEntries, 10.0, 10);
                    }
                });
            }
        });
        assert_eq!(m.samples(DriftKind::MergeEntries), 4_000);
        assert_eq!(m.ewma(DriftKind::MergeEntries), 0.0);
    }
}
