//! Readiness state for the serving surface: `/v1/healthz` stays a pure
//! liveness probe ("the process accepts connections"), while `/v1/readyz`
//! renders this struct — not ready during open/recovery, plus the current
//! maintenance generation and whether a reconcile or fold is in flight.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{json_field, Gauge, ToJson};

/// Shared readiness state. The facade flips `ready` once its store has
/// opened (recovery included); manager loops raise the in-flight gauges
/// around their cycles; the maintenance layer contributes its generation
/// cell(s) so readiness reports which index version is being served.
#[derive(Debug, Default)]
pub struct Health {
    ready: AtomicBool,
    /// Reconcile cycles currently running (any partition).
    pub reconciles_in_flight: Gauge,
    /// Delta folds currently running.
    pub folds_in_flight: Gauge,
    /// Maintenance generation cells; readiness reports the max (the same
    /// rule the partitioned query path uses for result generations).
    generations: Mutex<Vec<Arc<AtomicU64>>>,
}

impl Health {
    /// Fresh, not-yet-ready state.
    pub fn new() -> Health {
        Health::default()
    }

    /// Marks the system ready (store opened, recovery done) or not.
    pub fn set_ready(&self, on: bool) {
        self.ready.store(on, Ordering::Release);
    }

    /// Whether the system is ready to serve.
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Registers one maintenance generation cell (one per open store).
    pub fn attach_generation(&self, cell: Arc<AtomicU64>) {
        self.generations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(cell);
    }

    /// The current maintenance generation: the max across attached cells,
    /// 0 when none are attached.
    pub fn generation(&self) -> u64 {
        self.generations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Whether a reconcile cycle is running right now.
    pub fn reconcile_in_flight(&self) -> bool {
        self.reconciles_in_flight.get() > 0
    }

    /// Whether a delta fold is running right now.
    pub fn fold_in_flight(&self) -> bool {
        self.folds_in_flight.get() > 0
    }
}

impl ToJson for Health {
    /// The `/v1/readyz` body.
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "ready", self.ready());
        out.push(',');
        json_field(out, "generation", self.generation());
        out.push(',');
        json_field(out, "reconcile_in_flight", self.reconcile_in_flight());
        out.push(',');
        json_field(out, "fold_in_flight", self.fold_in_flight());
        out.push('}');
    }
}

/// RAII marker raising a gauge for the duration of a scope (used by the
/// manager loops to mark reconcile/fold cycles in flight exception-safely).
#[derive(Debug)]
pub struct InFlight<'a>(&'a Gauge);

impl<'a> InFlight<'a> {
    /// Raises `gauge` until the returned marker drops.
    pub fn enter(gauge: &'a Gauge) -> InFlight<'a> {
        gauge.incr();
        InFlight(gauge)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.decr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_flips_and_renders() {
        let h = Health::new();
        assert!(!h.ready());
        assert!(h.to_json().contains("\"ready\":false"));
        h.set_ready(true);
        let json = h.to_json();
        assert!(json.contains("\"ready\":true"));
        assert!(json.contains("\"generation\":0"));
        assert!(json.contains("\"reconcile_in_flight\":false"));
        assert!(json.contains("\"fold_in_flight\":false"));
    }

    #[test]
    fn generation_is_max_across_cells() {
        let h = Health::new();
        let a = Arc::new(AtomicU64::new(3));
        let b = Arc::new(AtomicU64::new(7));
        h.attach_generation(a.clone());
        h.attach_generation(b);
        assert_eq!(h.generation(), 7);
        a.store(11, Ordering::Release);
        assert_eq!(h.generation(), 11);
    }

    #[test]
    fn in_flight_marker_is_scoped() {
        let h = Health::new();
        {
            let _m = InFlight::enter(&h.reconciles_in_flight);
            assert!(h.reconcile_in_flight());
            let _n = InFlight::enter(&h.folds_in_flight);
            assert!(h.to_json().contains("\"fold_in_flight\":true"));
        }
        assert!(!h.reconcile_in_flight());
        assert!(!h.fold_in_flight());
    }
}
