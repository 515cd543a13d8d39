//! The maintenance gate: an epoch-stamped reader–writer lock that lets the
//! online self-manager rewrite redundant lists *while queries are served*.
//!
//! The B+tree underneath has per-page latches but no lock coupling, so a
//! structural modification (page split during `put_list`, page frees during
//! `drop_list`) racing a concurrent descent is unsafe. The gate restores
//! safety with two rules:
//!
//! * every query evaluation holds a **read** guard for its whole lifetime
//!   (translation-to-answers, including the `ListTable::covers`
//!   checks that decide the strategy), so a coverage check and the
//!   evaluation it gates see one consistent generation of lists;
//! * every list mutation (one `put_list` or `drop_list`) holds a **write**
//!   guard, published atomically by bumping the generation stamp on release.
//!
//! Writers therefore never stop the world for a whole reconcile cycle —
//! they interleave list-by-list with queries, and a query that lands
//! between two mutations simply observes partial coverage and falls back
//! to ERA (correct answers, never an error).
//!
//! The generation stamp ([`Maintenance::generation`]) is the epoch the
//! registry contents belong to: unchanged stamp ⇒ unchanged list set.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use trex_obs::Telemetry;

/// Epoch-stamped reader–writer gate between query evaluation (readers) and
/// redundant-list maintenance (writers). One per [`crate::TrexIndex`].
#[derive(Default)]
pub struct Maintenance {
    gate: RwLock<()>,
    /// Shared so readiness surfaces (`/readyz`) can report the generation
    /// without holding a reference to the whole index; see
    /// [`Maintenance::generation_cell`].
    generation: Arc<AtomicU64>,
    /// Telemetry sink for gate-wait latencies (`maint.read_gate_wait` /
    /// `maint.write_gate_wait`); `None` for bare gates in unit tests.
    telemetry: Option<Arc<Telemetry>>,
}

/// Shared guard: list maintenance is excluded while this is alive.
pub struct ReadGuard<'a>(#[allow(dead_code)] RwLockReadGuard<'a, ()>);

/// Exclusive guard: queries are excluded while this is alive; dropping it
/// bumps the generation stamp, publishing the mutation.
pub struct WriteGuard<'a> {
    #[allow(dead_code)]
    guard: RwLockWriteGuard<'a, ()>,
    generation: &'a AtomicU64,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.generation.fetch_add(1, Ordering::Release);
    }
}

impl Maintenance {
    /// A fresh gate at generation zero, without telemetry.
    pub fn new() -> Maintenance {
        Maintenance::default()
    }

    /// A fresh gate recording its wait times into `telemetry`.
    pub fn with_telemetry(telemetry: Arc<Telemetry>) -> Maintenance {
        Maintenance {
            telemetry: Some(telemetry),
            ..Maintenance::default()
        }
    }

    /// Enters a read-side critical section (query evaluation). Cheap and
    /// shared; concurrent readers never block each other.
    ///
    /// Do **not** acquire while already holding a guard on the same thread:
    /// the underlying `std` lock is not reentrant and a waiting writer can
    /// deadlock a recursive read.
    pub fn enter_read(&self) -> ReadGuard<'_> {
        let sw = trex_obs::Stopwatch::started();
        let guard = ReadGuard(self.gate.read());
        if let Some(t) = &self.telemetry {
            t.maint.read_gate_wait.observe(&sw);
        }
        guard
    }

    /// Enters a write-side critical section (one list mutation). Blocks
    /// until every in-flight query drains; new queries block until release.
    pub fn enter_write(&self) -> WriteGuard<'_> {
        let sw = trex_obs::Stopwatch::started();
        let guard = WriteGuard {
            guard: self.gate.write(),
            generation: &self.generation,
        };
        if let Some(t) = &self.telemetry {
            t.maint.write_gate_wait.observe(&sw);
        }
        guard
    }

    /// The current list-set generation: bumped once per completed mutation.
    /// Two equal readings with no writer in between saw the same list set.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The shared generation cell itself, for surfaces (readiness, cycle
    /// records) that report the generation without reaching through the
    /// index. Read with `Ordering::Acquire` to pair with the write-guard's
    /// release bump.
    pub fn generation_cell(&self) -> Arc<AtomicU64> {
        self.generation.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn generation_bumps_per_write_not_per_read() {
        let m = Maintenance::new();
        assert_eq!(m.generation(), 0);
        drop(m.enter_read());
        assert_eq!(m.generation(), 0);
        drop(m.enter_write());
        drop(m.enter_write());
        assert_eq!(m.generation(), 2);
    }

    #[test]
    fn writer_waits_for_reader() {
        let m = Maintenance::new();
        let wrote = AtomicBool::new(false);
        std::thread::scope(|s| {
            let guard = m.enter_read();
            s.spawn(|| {
                let _w = m.enter_write();
                wrote.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!wrote.load(Ordering::SeqCst), "writer ran under a reader");
            drop(guard);
        });
        assert!(wrote.load(Ordering::SeqCst));
        assert_eq!(m.generation(), 1);
    }

    #[test]
    fn readers_share_the_gate() {
        let m = Maintenance::new();
        let a = m.enter_read();
        let b = m.enter_read();
        drop(a);
        drop(b);
    }
}
