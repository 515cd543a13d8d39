//! Percentiles with their sample counts, the chunk quartiles a run reports,
//! and the quartile spread the acceptance rule is stated in.

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

/// What a set of samples reports: the count beside every percentile, so a
/// reader can tell a p95 over 40 samples from one over 40 000.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn push_elapsed(&mut self, since: std::time::Instant) {
        self.ns.push(nanos(since.elapsed()));
    }

    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// `None` when there are no samples: a percentile of nothing is not 0.
    pub fn summary(&self) -> Option<Summary> {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        Some(Summary {
            n: sorted.len() as u64,
            p50: percentile(&sorted, 0.50)?,
            p95: percentile(&sorted, 0.95)?,
            p99: percentile(&sorted, 0.99)?,
            max: *sorted.last()?,
        })
    }

    /// The median in microseconds, 0 when empty (per-layer diagnostics of a
    /// layer the workload bypasses print 0).
    pub fn p50_us(&self) -> f64 {
        self.summary().map_or(0.0, |s| s.p50 as f64 / 1e3)
    }
}

/// Ops per chunk: one pass over `Q`, and enough for a p95 with more than ten
/// samples beyond it.
pub const CHUNK_OPS: usize = 256;

/// One closed-loop client's timed ops, cut into chunks of [`CHUNK_OPS`]
/// consecutive ops. Each full chunk yields a p50, a p95 and a rate; a run
/// reports the chunk at the fast quartile of each.
///
/// The host takes the CPU away in bursts: a spin loop on this sandbox runs
/// 15 % or more slower for a quarter of the time, in stretches of one to six
/// seconds, now and then twenty. Pooled over a ten-second window such a burst
/// drags percentiles and mean along, and even the median chunk sits in a
/// burst in one run of four. The fast-quartile chunk is slowed only when
/// three quarters of the window are, and says what the system does when the
/// host leaves it alone.
#[derive(Debug)]
pub struct Chunked {
    /// Every successful op, for the percentiles too high to repeat.
    all: Samples,
    chunk: Vec<u64>,
    chunk_ops: usize,
    chunk_started: std::time::Instant,
    p50_ms: Vec<f64>,
    p95_ms: Vec<f64>,
    /// Successful ops per second, per chunk, of one client.
    rate: Vec<f64>,
    clients: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// What a run reports about its timed ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// All clients together.
    pub qps: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Successful ops.
    pub n: u64,
}

impl Chunked {
    /// Starts the clock of the first chunk.
    pub fn start() -> Chunked {
        Chunked {
            all: Samples::new(),
            chunk: Vec::with_capacity(CHUNK_OPS),
            chunk_ops: 0,
            chunk_started: std::time::Instant::now(),
            p50_ms: Vec::new(),
            p95_ms: Vec::new(),
            rate: Vec::new(),
            clients: 1,
            attempted: 0,
            failed: 0,
        }
    }

    /// One op: its latency when it succeeded, `None` when it failed.
    pub fn record(&mut self, latency_ns: Option<u64>) {
        self.attempted += 1;
        match latency_ns {
            Some(ns) => {
                self.all.push(ns);
                self.chunk.push(ns);
            }
            None => self.failed += 1,
        }
        self.chunk_ops += 1;
        if self.chunk_ops == CHUNK_OPS {
            self.close_chunk();
        }
    }

    fn close_chunk(&mut self) {
        let seconds = self.chunk_started.elapsed().as_secs_f64();
        self.chunk.sort_unstable();
        if let (Some(p50), Some(p95)) =
            (percentile(&self.chunk, 0.50), percentile(&self.chunk, 0.95))
        {
            self.p50_ms.push(p50 as f64 / 1e6);
            self.p95_ms.push(p95 as f64 / 1e6);
            self.rate.push(self.chunk.len() as f64 / seconds);
        }
        self.chunk.clear();
        self.chunk_ops = 0;
        self.chunk_started = std::time::Instant::now();
    }

    /// Every successful op, pooled.
    pub fn all(&self) -> &Samples {
        &self.all
    }

    /// Adds a client that ran beside this one.
    pub fn beside(&mut self, other: Chunked) {
        self.clients += other.clients;
        self.extend(other);
    }

    /// Adds a window the same clients ran after this one.
    pub fn then(&mut self, other: Chunked) {
        assert_eq!(self.clients, other.clients, "windows of one workload");
        self.extend(other);
    }

    fn extend(&mut self, other: Chunked) {
        self.all.extend(other.all);
        self.p50_ms.extend(other.p50_ms);
        self.p95_ms.extend(other.p95_ms);
        self.rate.extend(other.rate);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The fast-quartile chunk; `None` when no op succeeded. A window too
    /// short for one full chunk reports its only, partial, chunk.
    pub fn measured(mut self) -> Option<Measured> {
        if self.rate.is_empty() {
            self.close_chunk();
        }
        let all = self.all.summary()?;
        Some(Measured {
            p50_ms: fast_quartile(&self.p50_ms, Fast::Low)?,
            p95_ms: fast_quartile(&self.p95_ms, Fast::Low)?,
            qps: fast_quartile(&self.rate, Fast::High)? * self.clients as f64,
            p99_ms: all.p99 as f64 / 1e6,
            max_ms: all.max as f64 / 1e6,
            n: all.n,
        })
    }
}

/// Which end of a chunk statistic is the fast one.
#[derive(Clone, Copy)]
enum Fast {
    /// Latencies: the first quartile.
    Low,
    /// Rates: the third.
    High,
}

/// The quartile of `values` on the fast side; a single value is its own.
fn fast_quartile(values: &[f64], fast: Fast) -> Option<f64> {
    match (quartiles(values), fast) {
        (Some([q1, _, _]), Fast::Low) => Some(q1),
        (Some([_, _, q3]), Fast::High) => Some(q3),
        (None, _) => values.first().copied(),
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the driver's spread check is written in. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_samples() {
        let mut s = Samples::new();
        assert!(s.summary().is_none(), "no samples, no percentile");
        for ns in (1..=100u64).rev() {
            s.push(ns);
        }
        let sum = s.summary().unwrap();
        assert_eq!(sum.n, 100);
        assert_eq!((sum.p50, sum.p95, sum.p99, sum.max), (50, 95, 99, 100));

        let one = [7u64];
        assert_eq!(percentile(&one, 0.0), Some(7));
        assert_eq!(percentile(&one, 1.0), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), Some(3));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn chunked_reports_the_fast_quartile_chunk_not_the_pool() {
        let mut c = Chunked::start();
        // Two clean chunks at 1 ms and two in a burst, slowed to 9 ms: pooled,
        // the p95 would be 9 ms and the median chunk is half in the burst;
        // the fast quartile does not see it.
        for chunk in 0..4 {
            for _ in 0..CHUNK_OPS {
                c.record(Some(if chunk >= 2 { 9_000_000 } else { 1_000_000 }));
            }
        }
        c.record(None);
        assert_eq!((c.attempted, c.failed), (4 * CHUNK_OPS as u64 + 1, 1));
        let m = c.measured().unwrap();
        assert_eq!((m.p50_ms, m.p95_ms), (1.0, 1.0));
        assert_eq!((m.max_ms, m.n), (9.0, 4 * CHUNK_OPS as u64));
        assert!(m.qps > 0.0);

        // Two clients side by side: each chunk's rate is one client's.
        let (mut a, mut b) = (Chunked::start(), Chunked::start());
        for _ in 0..CHUNK_OPS {
            a.record(Some(1_000));
            b.record(Some(1_000));
        }
        let one = Chunked::start();
        assert!(one.measured().is_none(), "no op, no measurement");
        a.beside(b);
        assert_eq!(a.clients, 2);
        let mut later = Chunked::start();
        later.clients = 2;
        later.record(Some(1_000));
        a.then(later);
        assert_eq!((a.clients, a.attempted), (2, 2 * CHUNK_OPS as u64 + 1));

        // Shorter than a chunk: the partial chunk is all there is.
        let mut short = Chunked::start();
        short.record(Some(2_000_000));
        assert_eq!(short.measured().unwrap().p50_ms, 2.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
