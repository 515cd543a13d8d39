//! The advisor decision journal: a structured record of every reconcile
//! cycle — what the workload looked like, what the cost model predicted,
//! what was measured, and which lists were materialized or dropped — kept
//! in a bounded in-memory ring plus an optional on-disk rotating JSONL
//! sidecar so decisions survive a restart.
//!
//! The types here are plain data so the `obs` crate stays dependency-free:
//! the self-management layer (which owns the real `ReconcileReport`)
//! flattens its reports into [`CycleRecord`]s and pushes them through
//! [`AdvisorJournal::record`]. The serving layer renders the ring at
//! `/v1/advisor/history` and `/v1/advisor/last`; the CLI tails the sidecar.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::{json_escape, json_field, Counter, ToJson};

/// One query shape from the workload snapshot the advisor optimized for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShapeRecord {
    /// Raw NEXI text of the shape.
    pub nexi: String,
    /// Top-k depth of the shape.
    pub k: u64,
    /// Observed frequency (heat) in the profiling window.
    pub frequency: f64,
    /// Measured ERA execution time, microseconds (the cost baseline).
    pub measured_era_us: f64,
    /// Model-predicted Merge execution time, microseconds.
    pub predicted_merge_us: f64,
    /// Model-predicted TA execution time, microseconds.
    pub predicted_ta_us: f64,
    /// What the solver chose for the shape: `"erpl"`, `"rpl"`, or `"none"`.
    pub choice: String,
    /// Bytes of redundant lists backing the choice (0 for `"none"`).
    pub bytes: u64,
}

impl ToJson for ShapeRecord {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"nexi\":\"");
        out.push_str(&json_escape(&self.nexi));
        out.push_str("\",");
        json_field(out, "k", self.k);
        out.push(',');
        json_field(out, "frequency", format!("{:.3}", self.frequency));
        out.push(',');
        json_field(
            out,
            "measured_era_us",
            format!("{:.1}", self.measured_era_us),
        );
        out.push(',');
        json_field(
            out,
            "predicted_merge_us",
            format!("{:.1}", self.predicted_merge_us),
        );
        out.push(',');
        json_field(
            out,
            "predicted_ta_us",
            format!("{:.1}", self.predicted_ta_us),
        );
        out.push_str(",\"choice\":\"");
        out.push_str(&json_escape(&self.choice));
        out.push_str("\",");
        json_field(out, "bytes", self.bytes);
        out.push('}');
    }
}

/// One list the cycle materialized or dropped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ListDeltaRecord {
    /// Partition the mutation applied to (0 for single-store systems).
    pub partition: u64,
    /// The list's keyword term.
    pub term: String,
    /// The list's summary id.
    pub sid: u64,
    /// List family: `"erpl"` or `"rpl"`.
    pub kind: String,
    /// `"add"` or `"drop"`.
    pub action: String,
    /// Size of the list, bytes (the byte delta of the mutation).
    pub bytes: u64,
}

impl ToJson for ListDeltaRecord {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "partition", self.partition);
        out.push_str(",\"term\":\"");
        out.push_str(&json_escape(&self.term));
        out.push_str("\",");
        json_field(out, "sid", self.sid);
        out.push_str(",\"kind\":\"");
        out.push_str(&json_escape(&self.kind));
        out.push_str("\",\"action\":\"");
        out.push_str(&json_escape(&self.action));
        out.push_str("\",");
        json_field(out, "bytes", self.bytes);
        out.push('}');
    }
}

/// One partition's share of the cycle budget.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SplitRecord {
    /// Partition ordinal.
    pub partition: u64,
    /// Workload heat that earned the share.
    pub heat: f64,
    /// Bytes of the total budget assigned to the partition.
    pub budget_bytes: u64,
}

impl ToJson for SplitRecord {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "partition", self.partition);
        out.push(',');
        json_field(out, "heat", format!("{:.3}", self.heat));
        out.push(',');
        json_field(out, "budget_bytes", self.budget_bytes);
        out.push('}');
    }
}

/// Everything one reconcile cycle decided and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleRecord {
    /// Monotonic cycle ordinal of the emitting manager.
    pub cycle: u64,
    /// Wall-clock completion time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Maintenance generation after the cycle's mutations.
    pub generation: u64,
    /// Byte budget the solver worked under.
    pub budget_bytes: u64,
    /// Redundant-list bytes resident after the cycle.
    pub bytes_used: u64,
    /// Lists written this cycle.
    pub lists_materialized: u64,
    /// Lists dropped this cycle.
    pub lists_dropped: u64,
    /// Total time queries were excluded by the write gate, microseconds.
    pub gate_pause_us: u64,
    /// End-to-end cycle wall time, microseconds.
    pub wall_us: u64,
    /// Workload snapshot with per-shape predicted vs. measured costs.
    pub shapes: Vec<ShapeRecord>,
    /// Lists materialized/dropped, with byte deltas.
    pub deltas: Vec<ListDeltaRecord>,
    /// Per-partition budget splits, one per partition (a single store is
    /// one partition holding the whole budget).
    pub splits: Vec<SplitRecord>,
}

impl ToJson for CycleRecord {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "cycle", self.cycle);
        out.push(',');
        json_field(out, "unix_ms", self.unix_ms);
        out.push(',');
        json_field(out, "generation", self.generation);
        out.push(',');
        json_field(out, "budget_bytes", self.budget_bytes);
        out.push(',');
        json_field(out, "bytes_used", self.bytes_used);
        out.push(',');
        json_field(out, "lists_materialized", self.lists_materialized);
        out.push(',');
        json_field(out, "lists_dropped", self.lists_dropped);
        out.push(',');
        json_field(out, "gate_pause_us", self.gate_pause_us);
        out.push(',');
        json_field(out, "wall_us", self.wall_us);
        out.push_str(",\"shapes\":[");
        for (i, s) in self.shapes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.write_json(out);
        }
        out.push_str("],\"deltas\":[");
        for (i, d) in self.deltas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            d.write_json(out);
        }
        out.push_str("],\"splits\":[");
        for (i, p) in self.splits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            p.write_json(out);
        }
        out.push_str("]}");
    }
}

/// Sidecar rotation threshold: when the live file passes this, it is
/// renamed to `<path>.1` (replacing any previous rollover) and a fresh
/// file is started — at most two files, bounded disk.
const SIDECAR_ROTATE_BYTES: u64 = 4 << 20;

#[derive(Debug)]
struct Sidecar {
    path: PathBuf,
    file: File,
    bytes: u64,
}

/// Bounded ring of recent [`CycleRecord`]s plus the optional JSONL sidecar.
#[derive(Debug)]
pub struct AdvisorJournal {
    ring: Mutex<VecDeque<CycleRecord>>,
    capacity: usize,
    sidecar: Mutex<Option<Sidecar>>,
    /// Cycles recorded since creation (ring evictions included).
    pub recorded: Counter,
}

impl Default for AdvisorJournal {
    fn default() -> AdvisorJournal {
        AdvisorJournal::new()
    }
}

impl AdvisorJournal {
    /// An empty journal keeping the 64 most recent cycles, no sidecar.
    pub fn new() -> AdvisorJournal {
        AdvisorJournal::with_capacity(64)
    }

    /// An empty journal keeping the `capacity` most recent cycles.
    pub fn with_capacity(capacity: usize) -> AdvisorJournal {
        AdvisorJournal {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            sidecar: Mutex::new(None),
            recorded: Counter::new(),
        }
    }

    /// Attaches (or replaces) the on-disk sidecar: every later record is
    /// appended to `path` as one JSON line, rotating to `<path>.1` past the
    /// size cap. The file is opened in append mode so restarts extend the
    /// existing history.
    pub fn attach_sidecar(&self, path: PathBuf) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        let mut slot = self.sidecar.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(Sidecar { path, file, bytes });
        Ok(())
    }

    /// The sidecar path, if one is attached.
    pub fn sidecar_path(&self) -> Option<PathBuf> {
        self.sidecar
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|s| s.path.clone())
    }

    /// Records one cycle: pushes it into the ring (evicting the oldest past
    /// capacity) and appends one JSONL line to the sidecar if attached.
    /// Sidecar I/O errors are swallowed — the journal is observability, and
    /// a full disk must not fail a reconcile cycle.
    pub fn record(&self, record: CycleRecord) {
        let line = record.to_json();
        {
            let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(record);
        }
        self.recorded.incr();
        let mut slot = self.sidecar.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sidecar) = slot.as_mut() {
            if sidecar.bytes >= SIDECAR_ROTATE_BYTES {
                let rolled = {
                    let mut name = sidecar.path.as_os_str().to_owned();
                    name.push(".1");
                    PathBuf::from(name)
                };
                let _ = std::fs::rename(&sidecar.path, &rolled);
                if let Ok(file) = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&sidecar.path)
                {
                    sidecar.file = file;
                    sidecar.bytes = 0;
                }
            }
            if writeln!(sidecar.file, "{line}").is_ok() {
                sidecar.bytes += line.len() as u64 + 1;
                let _ = sidecar.file.flush();
            }
        }
    }

    /// The most recent cycle, if any.
    pub fn last(&self) -> Option<CycleRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .back()
            .cloned()
    }

    /// All retained cycles, oldest first.
    pub fn history(&self) -> Vec<CycleRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained cycles.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `/v1/advisor/history` body: `{"v":1,"recorded":N,"cycles":[...]}`,
    /// oldest first.
    pub fn history_json(&self) -> String {
        let mut out = String::with_capacity(4 * 1024);
        out.push_str("{\"v\":1,");
        json_field(&mut out, "recorded", self.recorded.get());
        out.push_str(",\"cycles\":[");
        for (i, rec) in self.history().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            rec.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// `/v1/advisor/last` body: the newest record, or `{"v":1,"cycles":0}`
    /// when no cycle has run yet.
    pub fn last_json(&self) -> String {
        match self.last() {
            Some(rec) => rec.to_json(),
            None => "{\"v\":1,\"cycles\":0}".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_json, JsonValue};

    fn record(cycle: u64) -> CycleRecord {
        CycleRecord {
            cycle,
            unix_ms: 1_000 + cycle,
            generation: cycle * 2,
            budget_bytes: 1 << 20,
            bytes_used: 512,
            lists_materialized: 1,
            lists_dropped: 0,
            gate_pause_us: 42,
            wall_us: 1_234,
            shapes: vec![ShapeRecord {
                nexi: "//a[about(., \"x\")]".into(),
                k: 10,
                frequency: 0.5,
                measured_era_us: 900.0,
                predicted_merge_us: 100.0,
                predicted_ta_us: 50.0,
                choice: "rpl".into(),
                bytes: 256,
            }],
            deltas: vec![ListDeltaRecord {
                partition: 0,
                term: "x".into(),
                sid: 7,
                kind: "rpl".into(),
                action: "add".into(),
                bytes: 256,
            }],
            // What a single-store cycle carries: one split, whole budget.
            splits: vec![SplitRecord {
                partition: 0,
                heat: 12.5,
                budget_bytes: 1 << 20,
            }],
        }
    }

    #[test]
    fn ring_bounds_and_orders() {
        let j = AdvisorJournal::with_capacity(3);
        for c in 0..5 {
            j.record(record(c));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.recorded.get(), 5);
        let hist = j.history();
        assert_eq!(hist[0].cycle, 2);
        assert_eq!(j.last().unwrap().cycle, 4);
    }

    #[test]
    fn history_json_parses_back() {
        let j = AdvisorJournal::new();
        j.record(record(1));
        j.record(record(2));
        let parsed = parse_json(&j.history_json()).unwrap();
        assert_eq!(parsed.get("v").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(parsed.get("recorded").and_then(JsonValue::as_u64), Some(2));
        let last = parse_json(&j.last_json()).unwrap();
        assert_eq!(last.get("cycle").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            last.get("gate_pause_us").and_then(JsonValue::as_u64),
            Some(42)
        );
        let Some(JsonValue::Array(splits)) = last.get("splits") else {
            panic!("splits is not an array");
        };
        assert_eq!(splits.len(), 1);
        assert_eq!(
            splits[0].get("partition").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(
            splits[0].get("budget_bytes").and_then(JsonValue::as_u64),
            last.get("budget_bytes").and_then(JsonValue::as_u64)
        );
    }

    #[test]
    fn empty_last_json_is_valid() {
        let j = AdvisorJournal::new();
        assert!(parse_json(&j.last_json()).is_ok());
        assert!(j.is_empty());
    }

    #[test]
    fn sidecar_appends_and_rotates() {
        let dir = std::env::temp_dir().join(format!(
            "trex-advisor-test-{}-{}",
            std::process::id(),
            crate::trace::unix_ms()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("advisor.jsonl");
        let j = AdvisorJournal::new();
        j.attach_sidecar(path.clone()).unwrap();
        j.record(record(1));
        j.record(record(2));
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        for line in body.lines() {
            parse_json(line).unwrap();
        }
        // Force rotation by faking a large accumulated size.
        {
            let mut slot = j.sidecar.lock().unwrap();
            slot.as_mut().unwrap().bytes = SIDECAR_ROTATE_BYTES;
        }
        j.record(record(3));
        let rolled = dir.join("advisor.jsonl.1");
        assert!(rolled.exists());
        let fresh = std::fs::read_to_string(&path).unwrap();
        assert_eq!(fresh.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_records_keep_grammar() {
        // The advisor-history endpoint must emit valid JSON even while
        // cycles are being recorded concurrently.
        let j = AdvisorJournal::with_capacity(16);
        std::thread::scope(|s| {
            for t in 0..4 {
                let j = &j;
                s.spawn(move || {
                    for c in 0..50 {
                        j.record(record(t * 100 + c));
                    }
                });
            }
            for _ in 0..20 {
                parse_json(&j.history_json()).expect("history stays valid JSON");
            }
        });
        assert_eq!(j.recorded.get(), 200);
        assert_eq!(j.len(), 16);
    }
}
