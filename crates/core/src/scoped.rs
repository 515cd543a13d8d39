//! Scoped fan-out behind the partition scatter.
//!
//! The read path — translation, strategy selection, and the ERA/TA/Merge
//! evaluations — only needs `&TrexIndex`, and the storage layer underneath
//! is a sharded buffer pool built for concurrent readers. [`run_scoped`]
//! exploits that: it runs `n` work items (one per partition) on the calling
//! thread plus `n − 1` scoped helpers and returns the per-item results in
//! input order.
//!
//! Items are claimed through one atomic cursor rather than pinned one per
//! thread: a thread that starts early takes the items of helpers not yet
//! running. On a 2-core host pinning cost `partition_scatter` a quarter of
//! its p50, because a freshly spawned thread often starts after the
//! threads already running could have finished its item.
//!
//! A panic inside one item is caught at the work-item boundary and surfaced
//! as that item's own [`TrexError::Internal`]; it never unwinds into the
//! scope join, so the other items still complete and return their results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{Result, TrexError};

/// Runs `work(0..n)` on the calling thread plus `n − 1` scoped helpers
/// (none for one item), each claiming the next unclaimed item through one
/// atomic cursor, and returns the per-item results in input order. A
/// panicking item is caught here and converted into its own
/// [`TrexError::Internal`] — the scope join below therefore never sees a
/// panicked helper, and one poisoned item cannot tear down its siblings.
///
/// The scatter phase of [`PartitionedSystem::evaluate`] is its caller.
///
/// [`PartitionedSystem::evaluate`]: crate::PartitionedSystem::evaluate
pub(crate) fn run_scoped<T, F>(n: usize, work: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            let result = catch_unwind(AssertUnwindSafe(|| work(i))).unwrap_or_else(|payload| {
                Err(TrexError::Internal(format!(
                    "query worker panicked: {}",
                    panic_message(payload.as_ref())
                )))
            });
            done.push((i, result));
        }
    };
    let mut slots: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..n).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for helper in helpers {
            // Items catch their own panics, so a helper never unwinds.
            done.extend(helper.join().expect("item catches its own panic"));
        }
        for (i, result) in done {
            slots[i] = Some(result);
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
        for n in [1, 4, 16] {
            let claimed: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let results = run_scoped(n, |i| {
                claimed[i].fetch_add(1, Ordering::Relaxed);
                // Skew the work so later items finish before earlier ones.
                std::thread::sleep(std::time::Duration::from_micros(((n - i) * 50) as u64));
                Ok(i * 2)
            });
            let got: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>());
            assert!(claimed.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
        assert!(run_scoped(0, Ok).is_empty());
    }

    #[test]
    fn panicking_item_fails_alone_without_poisoning_the_batch() {
        // Item 1 panics mid-evaluation; its siblings must still complete
        // and the panic must surface as that item's own error.
        let results = run_scoped(4, |i| {
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

        // A single item runs on the calling thread, and is caught there too.
        let single = run_scoped(1, |_| -> Result<()> { panic!("inline boom") });
        assert!(matches!(&single[0], Err(crate::TrexError::Internal(_))));
    }
}
