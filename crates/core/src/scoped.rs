//! Scoped fan-out: the one worker pool behind batch evaluation and the
//! partition scatter.
//!
//! The read path — translation, strategy selection, and the ERA/TA/Merge
//! evaluations — only needs `&TrexIndex`, and the storage layer underneath
//! is a sharded buffer pool built for concurrent readers. [`run_scoped`]
//! exploits that: it fans `n` work items out over scoped worker threads and
//! returns the per-item results in input order.
//!
//! Work distribution is a single atomic cursor (workers claim the next
//! unclaimed item), so skewed batches — one expensive query among many
//! cheap ones — never idle a thread before the batch is done.
//!
//! A panic inside one item is caught at the work-item boundary and surfaced
//! as that item's own [`TrexError::Internal`]; it never unwinds into the
//! scope join, so the other N−1 items still complete and return their
//! results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{Result, TrexError};

/// Fans `n` work items out over `workers` scoped threads (single-threaded
/// inline when `workers <= 1`) and returns the per-item results in input
/// order. Items are claimed through one atomic cursor, so each runs exactly
/// once. A panicking item is caught here and converted into its own
/// [`TrexError::Internal`] — the scope join below therefore never sees a
/// panicked child, and one poisoned item cannot tear down its batchmates.
///
/// Shared by [`PartitionedSystem::evaluate_batch`] and the scatter phase of
/// [`PartitionedSystem::evaluate`].
///
/// [`PartitionedSystem::evaluate_batch`]: crate::PartitionedSystem::evaluate_batch
/// [`PartitionedSystem::evaluate`]: crate::PartitionedSystem::evaluate
pub(crate) fn run_scoped<T, F>(n: usize, workers: usize, work: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let run_caught = |i: usize| -> Result<T> {
        catch_unwind(AssertUnwindSafe(|| work(i))).unwrap_or_else(|payload| {
            Err(TrexError::Internal(format!(
                "query worker panicked: {}",
                panic_message(payload.as_ref())
            )))
        })
    };
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(run_caught).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, run_caught(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            // Items catch their own panics, so a worker never unwinds.
            for (i, result) in handle.join().expect("worker catches item panics") {
                slots[i] = Some(result);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every item claimed exactly once"))
        .collect()
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted `String` covers practically every panic in
/// this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_each_item_once() {
        let claimed: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        for workers in [1, 3, 8, 100] {
            let results = run_scoped(64, workers, |i| {
                claimed[i].fetch_add(1, Ordering::Relaxed);
                // Skew the work so later items finish before earlier ones.
                std::thread::sleep(std::time::Duration::from_micros(((64 - i) * 5) as u64));
                Ok(i * 2)
            });
            let got: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        }
        assert!(claimed.iter().all(|c| c.load(Ordering::Relaxed) == 4));
        assert!(run_scoped(0, 4, Ok).is_empty());
    }

    #[test]
    fn panicking_item_fails_alone_without_poisoning_the_batch() {
        // Item 1 panics mid-evaluation; its batchmates must still complete
        // and the panic must surface as that item's own error.
        let results = run_scoped(4, 2, |i| {
            if i == 1 {
                panic!("injected panic in query {i}");
            }
            Ok(i * 10)
        });
        assert_eq!(results.len(), 4);
        assert_eq!(*results[0].as_ref().unwrap(), 0);
        assert_eq!(*results[2].as_ref().unwrap(), 20);
        assert_eq!(*results[3].as_ref().unwrap(), 30);
        match &results[1] {
            Err(crate::TrexError::Internal(msg)) => {
                assert!(msg.contains("injected panic in query 1"), "got: {msg}");
            }
            other => panic!("expected Internal error, got {other:?}"),
        }

        // The single-threaded fast path catches too.
        let serial = run_scoped(2, 1, |i| {
            if i == 0 {
                panic!("serial boom");
            }
            Ok(i)
        });
        assert!(matches!(&serial[0], Err(crate::TrexError::Internal(_))));
        assert_eq!(*serial[1].as_ref().unwrap(), 1);
    }
}
