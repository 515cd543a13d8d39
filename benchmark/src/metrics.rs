//! The metric tables (`BENCHMARK.json` lists the same names; a test holds
//! the two together) and the result a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Chunked;

pub const WORKLOADS: [&str; 6] = [
    "hot_topk",
    "cold_era",
    "http_zipf",
    "ingest_mixed",
    "partition_scatter",
    "selfmanage_shift",
];

/// (name, unit): what a user of the system sees. Reported by every
/// workload from the untraced run only.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("qps", "1/s"),
    ("store_bytes_per_doc_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// (name, unit): single layers, from the traced run. A workload that
/// bypasses a layer prints 0 for it, which is the proof of the bypass.
pub const PER_LAYER: &[(&str, &str)] = &[
    // What the contract keeps out of the end-to-end list: p99 and max do not
    // repeat within a tenth on two shared cores, and a metric that is 0 on a
    // healthy run (fail_ratio) cannot carry a relative bound.
    ("e2e.query_p99_ms", "ms"),
    ("e2e.query_max_ms", "ms"),
    ("e2e.fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_share.request", "ratio"),
    ("trace.self_share.nexi.translate", "ratio"),
    ("trace.self_share.core.evaluate", "ratio"),
    ("trace.self_share.partition.part", "ratio"),
    ("trace.self_share.partition.merge_topk", "ratio"),
    ("trace.self_share.serve.execute", "ratio"),
    ("trace.self_share.http.roundtrip", "ratio"),
    ("trace.self_share.ingest.ingest_document", "ratio"),
    ("trace.self_share.ingest.fold_once", "ratio"),
    ("trace.self_share.selfmanage.reconcile_once", "ratio"),
    ("nexi.translate_us_p50", "us"),
    ("core.ta_us_p50", "us"),
    ("core.merge_us_p50", "us"),
    ("core.era_us_p50", "us"),
    ("core.auto_share_ta", "ratio"),
    ("core.auto_share_merge", "ratio"),
    ("core.auto_share_era", "ratio"),
    ("core.sorted_accesses_per_query", "count"),
    ("core.random_accesses_per_query", "count"),
    ("core.heap_pushes_per_query", "count"),
    ("core.candidates_peak_p50", "count"),
    ("index.rpl_entries_per_query", "count"),
    ("index.rpl_blocks_per_query", "count"),
    ("index.erpl_entries_per_query", "count"),
    ("index.erpl_blocks_per_query", "count"),
    ("index.posting_entries_per_query", "count"),
    ("index.bytes_decoded_per_query", "bytes"),
    ("index.useful_entry_ratio", "ratio"),
    ("index.stage_document_us_p50", "us"),
    ("index.delta_docs_peak", "count"),
    ("index.list_bytes", "bytes"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.page_reads_per_query", "count"),
    ("storage.pool_evictions_per_query", "count"),
    ("storage.btree_node_visits_per_query", "count"),
    ("storage.cursor_steps_per_query", "count"),
    ("storage.wal_bytes_per_doc_byte", "ratio"),
    ("storage.wal_appends_per_doc", "count"),
    ("storage.checkpoints", "count"),
    ("storage.recovery_ms", "ms"),
    ("ingest.docs_per_s", "1/s"),
    ("ingest.ack_p95_ms", "ms"),
    ("ingest.folds", "count"),
    ("ingest.fold_wall_ms_p50", "ms"),
    ("ingest.fold_pause_ms_max", "ms"),
    ("ingest.docs_per_fold", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.hit_us_p50", "us"),
    ("serve.miss_us_p50", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("http.connect_us_p50", "us"),
    ("http.overhead_us_p50", "us"),
    ("http.open_loop_p95_ms", "ms"),
    ("http.generator_lag_ms_p95", "ms"),
    ("partition.scatter_overhead_ratio", "ratio"),
    ("partition.slowest_part_us_p50", "us"),
    ("partition.sum_parts_us_p50", "us"),
    ("partition.merge_topk_us_p50", "us"),
    ("partition.entries_decoded_vs_single", "ratio"),
    ("selfmanage.cycles", "count"),
    ("selfmanage.reconcile_wall_ms_p50", "ms"),
    ("selfmanage.gate_pause_ms_max", "ms"),
    ("selfmanage.lists_materialized", "count"),
    ("selfmanage.lists_dropped", "count"),
    ("selfmanage.bytes_used_ratio", "ratio"),
    ("selfmanage.era_fallback_ratio", "ratio"),
    ("selfmanage.ops_to_converge_p1", "count"),
    ("selfmanage.ops_to_converge_p2", "count"),
    ("build.docs_per_s", "1/s"),
    ("xml.parse_mb_per_s", "MB/s"),
    ("text.analyze_mb_per_s", "MB/s"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (0 for a plain count or ratio).
    pub n: u64,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed ops plus correctness checks made.
    pub attempted: u64,
    /// Errors, refusals and answers that failed their check.
    pub failed: u64,
    /// Why the run is not correct; empty on a correct run.
    pub violations: Vec<String>,
    pub values: BTreeMap<&'static str, Value>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, 0);
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, n: u64) {
        self.values.insert(name, Value { value, n });
    }

    /// One check outside the timed ops: counts as an attempted op, and as a
    /// failed one with a violation when it does not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The query metrics every workload reports, from its timed ops.
    pub fn set_query_metrics(&mut self, timed: Chunked) {
        self.attempted += timed.attempted;
        self.failed += timed.failed;
        if timed.failed > 0 {
            self.violations.push(format!(
                "{} of {} timed ops failed",
                timed.failed, timed.attempted
            ));
        }
        let Some(m) = timed.measured() else {
            self.violations.push("no timed op succeeded".into());
            return;
        };
        self.set_n("query_p50_ms", m.p50_ms, m.n);
        self.set_n("query_p95_ms", m.p95_ms, m.n);
        self.set_n("qps", m.qps, m.n);
        self.set_n("e2e.query_p99_ms", m.p99_ms, m.n);
        self.set_n("e2e.query_max_ms", m.max_ms, m.n);
    }

    /// `name unit value n=<samples>` for every value set, in table order.
    pub fn print_lines(&self) {
        let tabled = END_TO_END.iter().chain(PER_LAYER.iter());
        for (name, unit) in tabled {
            if let Some(v) = self.values.get(name) {
                println!("{name} {unit} {} n={}", v.value, v.n);
            }
        }
    }

    /// The result line: every metric of `table`; one the workload did not
    /// produce is a layer it bypassed and reads 0.
    pub fn result_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.values.get(name).map_or(0.0, |v| v.value);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex::obs::{parse_json, JsonValue};

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let json = parse_json(&text).expect("valid JSON");
        let list = |key: &str, field: &str| -> Vec<String> {
            let Some(JsonValue::Array(items)) = json.get(key) else {
                panic!("{key} is an array");
            };
            items
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(list("workloads", "name"), WORKLOADS);
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = table.iter().map(|(_, u)| *u).collect();
            assert_eq!(list(key, "name"), names, "{key} names");
            assert_eq!(list(key, "unit"), units, "{key} units");
        }
    }

    #[test]
    fn result_line_carries_every_metric_of_the_table_and_parses() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set_n("qps", 1234.5, 10);
        let json = parse_json(&o.result_json(&END_TO_END)).expect("valid JSON");
        assert_eq!(json.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} present"));
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit));
        }
        o.check(false, || "broken".into());
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (11, 1));
    }
}
