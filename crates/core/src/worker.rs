//! The background-worker shell shared by the self-manager and the fold
//! worker: one named thread that wakes every `interval`, runs one tick, and
//! keeps the latest outcome where the owning handle can read it.
//!
//! Written once so the lifecycle rules live in one place: the sleep is
//! sliced so a stop request is honoured within ~10 ms whatever the interval,
//! a failing tick is recorded (never propagated — the next tick retries),
//! and dropping the handle stops *and joins* the thread, so no worker
//! outlives the system it maintains.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::{Result, TrexError};

struct Status<R> {
    last: Option<R>,
    last_error: Option<String>,
    completed: u64,
}

/// A handle to a background maintenance thread producing reports of type
/// `R` ([`SelfManager`](crate::SelfManager) and
/// [`FoldManager`](crate::FoldManager) are the two instances). Stops (and
/// joins) on [`stop`](BackgroundWorker::stop) or drop.
pub struct BackgroundWorker<R> {
    stop: Arc<AtomicBool>,
    status: Arc<Mutex<Status<R>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl<R: Clone + Send + 'static> BackgroundWorker<R> {
    /// Spawns the thread. Every `interval` it calls `tick`, which returns
    /// `Ok(Some(report))` for completed work, `Ok(None)` when there was
    /// nothing to do, or the error that ended the attempt.
    pub(crate) fn spawn(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() -> Result<Option<R>> + Send + 'static,
    ) -> Result<BackgroundWorker<R>> {
        let stop = Arc::new(AtomicBool::new(false));
        let status = Arc::new(Mutex::new(Status {
            last: None,
            last_error: None,
            completed: 0,
        }));
        let handle = {
            let stop = stop.clone();
            let status = status.clone();
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || loop {
                    // Sleep in slices so stop() returns promptly even with
                    // long intervals.
                    let wake = Instant::now() + interval;
                    while Instant::now() < wake {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(10).min(interval));
                    }
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match tick() {
                        Ok(Some(report)) => {
                            let mut s = status.lock();
                            s.last = Some(report);
                            s.last_error = None;
                            s.completed += 1;
                        }
                        Ok(None) => {}
                        Err(e) => status.lock().last_error = Some(e.to_string()),
                    }
                })
                .map_err(|e| TrexError::Unsupported(format!("cannot spawn {name} thread: {e}")))?
        };
        Ok(BackgroundWorker {
            stop,
            status,
            handle: Some(handle),
        })
    }

    /// The most recent completed tick's report, if any.
    pub fn last_report(&self) -> Option<R> {
        self.status.lock().last.clone()
    }

    /// The most recent tick's error, if the last attempt failed.
    pub fn last_error(&self) -> Option<String> {
        self.status.lock().last_error.clone()
    }

    /// Number of ticks that completed work.
    pub fn completed(&self) -> u64 {
        self.status.lock().completed
    }

    /// Stops the background thread and waits for it to finish.
    pub fn stop(self) {}
}

impl<R> Drop for BackgroundWorker<R> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn records_reports_errors_and_idle_ticks_then_joins_on_drop() {
        let ticks = Arc::new(AtomicU64::new(0));
        let worker = {
            let ticks = ticks.clone();
            BackgroundWorker::spawn("trex-test-worker", Duration::from_millis(1), move || {
                match ticks.fetch_add(1, Ordering::Relaxed) {
                    0 => Ok(None),
                    1 => Ok(Some(7u32)),
                    2 => Err(TrexError::Unsupported("boom".into())),
                    n => Ok(Some(n as u32)),
                }
            })
            .unwrap()
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while worker.completed() < 2 {
            assert!(Instant::now() < deadline, "worker never ticked");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Tick 3 succeeded after tick 2 failed: the error is cleared.
        assert!(worker.last_report().unwrap() >= 3);
        assert!(worker.last_error().is_none());
        worker.stop();
        // Joined: the tick count no longer moves.
        let after = ticks.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ticks.load(Ordering::Relaxed), after);
    }

    #[test]
    fn stop_is_prompt_under_a_long_interval() {
        let worker =
            BackgroundWorker::<u32>::spawn("trex-test-idle", Duration::from_secs(3600), || {
                Ok(None)
            })
            .unwrap();
        let started = Instant::now();
        drop(worker);
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
