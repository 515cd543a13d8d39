//! The exposition surface: [`Telemetry`] bundles the query-path telemetry
//! owned by an index (timers + slow-query log + drift monitor), and
//! [`MetricsRegistry`] gathers every counter and histogram group of one
//! system behind `render_prometheus()` / `render_json()`.

use std::sync::Arc;
use std::time::Instant;

use crate::advisor::AdvisorJournal;
use crate::drift::{DriftMonitor, DRIFT_KINDS};
use crate::health::Health;
use crate::hist::{MaintTimers, QueryTimers, ServeTimers, StorageTimers};
use crate::trace::{render_slow_logs, SlowQueryLog, TraceStore};
use crate::{
    json_escape, json_field, Gauge, IndexCounters, SelfManageCounters, ServeCounters,
    StorageCounters, ToJson,
};

/// Query-path telemetry shared by the engine, the maintenance gate, and the
/// reconcile loop: histogram groups, the slow-query log, and the drift
/// monitor. Owned by the index (one per open store) and shared by `Arc`,
/// exactly like the counter groups.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Query end-to-end / per-strategy / stage latencies.
    pub query: QueryTimers,
    /// Gate waits and reconcile-cycle phase latencies.
    pub maint: MaintTimers,
    /// Bounded log of queries over the slow threshold.
    pub slow: SlowQueryLog,
    /// Live cost-model drift gauges, fed by traced-or-sampled queries.
    pub drift: DriftMonitor,
}

impl Telemetry {
    /// Fresh telemetry.
    pub fn new() -> Telemetry {
        Telemetry {
            query: QueryTimers::new(),
            maint: MaintTimers::new(),
            slow: SlowQueryLog::new(),
            drift: DriftMonitor::new(),
        }
    }
}

/// Serving-surface metrics shared by the HTTP front end, the REPL, and the
/// query service: request counters, request/queue-wait latency histograms,
/// and the live admission-queue depth gauge. One per system, shared by
/// `Arc` like every other metric group.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Admission, cache, and error-class counters.
    pub counters: ServeCounters,
    /// Request and queue-wait latency histograms.
    pub timers: ServeTimers,
    /// Current depth of the bounded request queue.
    pub queue_depth: Gauge,
    /// Recent assembled request traces, keyed by W3C trace id.
    pub traces: TraceStore,
}

impl ServeMetrics {
    /// Fresh, zeroed serving metrics.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            counters: ServeCounters::new(),
            timers: ServeTimers::new(),
            queue_depth: Gauge::new(),
            traces: TraceStore::new(),
        }
    }
}

/// One partition's counter groups and slow-query log, labelled for
/// exposition. A partitioned system registers one of these per store so
/// operators can see where fetches, decodes, reconcile work and slow
/// queries actually land; the registry's primary (unlabelled) groups stay
/// whatever the caller designates — for partitioned systems, partition 0's
/// groups plus the shared serve layer.
#[derive(Debug, Clone)]
pub struct PartitionMetrics {
    /// Label rendered into the `partition="…"` dimension (usually the
    /// partition ordinal).
    pub label: String,
    /// The partition store's counters.
    pub storage: Arc<StorageCounters>,
    /// The partition index's counters.
    pub index: Arc<IndexCounters>,
    /// The partition profiler/advisor's counters.
    pub selfmanage: Arc<SelfManageCounters>,
    /// The partition index's query-path telemetry (its slow-query log).
    pub telemetry: Arc<Telemetry>,
}

/// One flattened per-partition counter row: `(label, group, fields)`.
type PartitionCounterRow<'a> = (&'a str, &'static str, Vec<(&'static str, u64)>);

/// Every metric source of one system, behind the two render calls the
/// metrics endpoints serve. Cloning is cheap (`Arc`s all the way down) and
/// the registry is `Send + Sync`, so the HTTP responder thread can own one.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    storage: Arc<StorageCounters>,
    index: Arc<IndexCounters>,
    selfmanage: Arc<SelfManageCounters>,
    storage_timers: Arc<StorageTimers>,
    telemetry: Arc<Telemetry>,
    serve: Arc<ServeMetrics>,
    partitions: Vec<PartitionMetrics>,
    health: Arc<Health>,
    advisor: Arc<AdvisorJournal>,
    started: Instant,
    git_rev: String,
}

impl MetricsRegistry {
    /// Assembles a registry from one system's shared metric groups. The
    /// readiness state and advisor journal default to fresh instances;
    /// systems that own real ones attach them via [`Self::with_health`] /
    /// [`Self::with_advisor`].
    pub fn new(
        storage: Arc<StorageCounters>,
        index: Arc<IndexCounters>,
        selfmanage: Arc<SelfManageCounters>,
        storage_timers: Arc<StorageTimers>,
        telemetry: Arc<Telemetry>,
        serve: Arc<ServeMetrics>,
    ) -> MetricsRegistry {
        MetricsRegistry {
            storage,
            index,
            selfmanage,
            storage_timers,
            telemetry,
            serve,
            partitions: Vec::new(),
            health: Arc::new(Health::new()),
            advisor: Arc::new(AdvisorJournal::new()),
            started: Instant::now(),
            git_rev: crate::build_git_rev(),
        }
    }

    /// Attaches per-partition groups; each counter renders with a
    /// `partition="label"` dimension in Prometheus and under a
    /// `"partitions"` array in JSON, and each slow-query entry with a
    /// `"partition"` label.
    pub fn with_partitions(mut self, partitions: Vec<PartitionMetrics>) -> MetricsRegistry {
        self.partitions = partitions;
        self
    }

    /// Attaches the system's shared readiness state (served at `/v1/readyz`).
    pub fn with_health(mut self, health: Arc<Health>) -> MetricsRegistry {
        self.health = health;
        self
    }

    /// Attaches the system's advisor decision journal (served at
    /// `/v1/advisor/history` and `/v1/advisor/last`).
    pub fn with_advisor(mut self, advisor: Arc<AdvisorJournal>) -> MetricsRegistry {
        self.advisor = advisor;
        self
    }

    /// The attached per-partition groups (empty for single-store systems).
    pub fn partitions(&self) -> &[PartitionMetrics] {
        &self.partitions
    }

    /// The query-path telemetry (timers, slow log, drift monitor).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The storage-layer timer group.
    pub fn storage_timers(&self) -> &Arc<StorageTimers> {
        &self.storage_timers
    }

    /// The self-management counter group.
    pub fn selfmanage(&self) -> &Arc<SelfManageCounters> {
        &self.selfmanage
    }

    /// The serving-surface metrics (request counters, latency histograms,
    /// queue-depth gauge, trace store).
    pub fn serve(&self) -> &Arc<ServeMetrics> {
        &self.serve
    }

    /// The readiness state behind `/v1/readyz`.
    pub fn health(&self) -> &Arc<Health> {
        &self.health
    }

    /// The advisor decision journal behind `/v1/advisor/*`.
    pub fn advisor(&self) -> &Arc<AdvisorJournal> {
        &self.advisor
    }

    /// Seconds this registry (≈ the serving process) has been up.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The build's git revision label (see [`crate::build_git_rev`]).
    pub fn git_rev(&self) -> &str {
        &self.git_rev
    }

    fn counter_groups(&self) -> [(&'static str, Vec<(&'static str, u64)>); 4] {
        [
            ("storage", self.storage.snapshot().fields()),
            ("index", self.index.snapshot().fields()),
            ("selfmanage", self.selfmanage.snapshot().fields()),
            ("serve", self.serve.counters.snapshot().fields()),
        ]
    }

    /// Per-partition counter groups, flattened to
    /// `(label, group, fields)` rows in partition order.
    fn partition_counter_groups(&self) -> Vec<PartitionCounterRow<'_>> {
        let mut rows = Vec::with_capacity(self.partitions.len() * 3);
        for p in &self.partitions {
            rows.push((p.label.as_str(), "storage", p.storage.snapshot().fields()));
            rows.push((p.label.as_str(), "index", p.index.snapshot().fields()));
            rows.push((
                p.label.as_str(),
                "selfmanage",
                p.selfmanage.snapshot().fields(),
            ));
        }
        rows
    }

    fn histogram_groups(&self) -> [(&'static str, Vec<(&'static str, &crate::Histogram)>); 4] {
        [
            ("storage", self.storage_timers.each()),
            ("query", self.telemetry.query.each()),
            ("maint", self.telemetry.maint.each()),
            ("serve", self.serve.timers.each()),
        ]
    }

    /// Prometheus text exposition format 0.0.4: every counter as a
    /// `trex_<group>_<field>_total` counter, every histogram as a
    /// `trex_<group>_<field>_seconds` histogram with cumulative,
    /// `+Inf`-terminated buckets.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(16 * 1024);
        for (group, fields) in self.counter_groups() {
            for (field, value) in fields {
                let name = format!("trex_{group}_{field}_total");
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {value}");
            }
        }
        // Partition-labelled counters: one `# TYPE` per metric name, then
        // one sample per partition (exposition format forbids repeating
        // the TYPE line per label value).
        if let Some(first) = self.partitions.first() {
            let per_group: [(&'static str, Vec<&'static str>); 3] = [
                (
                    "storage",
                    first
                        .storage
                        .snapshot()
                        .fields()
                        .into_iter()
                        .map(|(f, _)| f)
                        .collect(),
                ),
                (
                    "index",
                    first
                        .index
                        .snapshot()
                        .fields()
                        .into_iter()
                        .map(|(f, _)| f)
                        .collect(),
                ),
                (
                    "selfmanage",
                    first
                        .selfmanage
                        .snapshot()
                        .fields()
                        .into_iter()
                        .map(|(f, _)| f)
                        .collect(),
                ),
            ];
            let rows = self.partition_counter_groups();
            for (group, fields) in per_group {
                for (fi, field) in fields.into_iter().enumerate() {
                    let name = format!("trex_partition_{group}_{field}_total");
                    let _ = writeln!(out, "# TYPE {name} counter");
                    for (label, row_group, row_fields) in &rows {
                        if *row_group == group {
                            let value = row_fields[fi].1;
                            let _ = writeln!(out, "{name}{{partition=\"{label}\"}} {value}");
                        }
                    }
                }
            }
        }
        for (group, fields) in self.histogram_groups() {
            for (field, hist) in fields {
                hist.snapshot()
                    .write_prometheus(&mut out, &format!("trex_{group}_{field}_seconds"));
            }
        }
        let _ = writeln!(out, "# TYPE trex_serve_queue_depth gauge");
        let _ = writeln!(
            out,
            "trex_serve_queue_depth {}",
            self.serve.queue_depth.get()
        );
        let _ = writeln!(out, "# TYPE trex_build_info gauge");
        let _ = writeln!(
            out,
            "trex_build_info{{git_rev=\"{}\",schema_version=\"{}\"}} 1",
            self.git_rev,
            crate::SCHEMA_VERSION
        );
        let _ = writeln!(out, "# TYPE trex_uptime_seconds gauge");
        let _ = writeln!(out, "trex_uptime_seconds {}", self.uptime_seconds());
        // Cost-model drift: per-slot EWMA gauges, sample counters, and
        // milli-error histograms (raw milli units — these are ratios, not
        // seconds, so the shared seconds-renderer does not apply).
        let drift = &self.telemetry.drift;
        let _ = writeln!(out, "# TYPE trex_drift_ewma gauge");
        for kind in DRIFT_KINDS {
            let _ = writeln!(
                out,
                "trex_drift_ewma{{model=\"{}\"}} {:.6}",
                kind.as_str(),
                drift.ewma(kind)
            );
        }
        let _ = writeln!(out, "# TYPE trex_drift_samples_total counter");
        for kind in DRIFT_KINDS {
            let _ = writeln!(
                out,
                "trex_drift_samples_total{{model=\"{}\"}} {}",
                kind.as_str(),
                drift.samples(kind)
            );
        }
        let _ = writeln!(out, "# TYPE trex_drift_error_milli histogram");
        for kind in DRIFT_KINDS {
            let snap = drift.errors(kind).snapshot();
            let mut cumulative = 0u64;
            for (upper, c) in snap.nonzero_buckets() {
                cumulative = cumulative.saturating_add(c);
                let _ = writeln!(
                    out,
                    "trex_drift_error_milli_bucket{{model=\"{}\",le=\"{upper}\"}} {cumulative}",
                    kind.as_str()
                );
            }
            let _ = writeln!(
                out,
                "trex_drift_error_milli_bucket{{model=\"{}\",le=\"+Inf\"}} {}",
                kind.as_str(),
                snap.count()
            );
            let _ = writeln!(
                out,
                "trex_drift_error_milli_sum{{model=\"{}\"}} {}",
                kind.as_str(),
                snap.sum_ns()
            );
            let _ = writeln!(
                out,
                "trex_drift_error_milli_count{{model=\"{}\"}} {}",
                kind.as_str(),
                snap.count()
            );
        }
        let _ = writeln!(out, "# TYPE trex_cost_model_drift_alerts_total counter");
        let _ = writeln!(out, "trex_cost_model_drift_alerts_total {}", drift.alerts());
        let _ = writeln!(out, "# TYPE trex_advisor_cycles_recorded_total counter");
        let _ = writeln!(
            out,
            "trex_advisor_cycles_recorded_total {}",
            self.advisor.recorded.get()
        );
        out
    }

    /// Everything as one JSON object: counter groups, histogram summaries
    /// (count/sum/max/p50/p90/p99/p999 + non-empty buckets), and slow-log
    /// occupancy.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("{\"counters\":{");
        for (gi, (group, fields)) in self.counter_groups().into_iter().enumerate() {
            if gi > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(group);
            out.push_str("\":{");
            for (fi, (field, value)) in fields.into_iter().enumerate() {
                if fi > 0 {
                    out.push(',');
                }
                json_field(&mut out, field, value);
            }
            out.push('}');
        }
        out.push_str("},\"histograms\":{");
        for (gi, (group, fields)) in self.histogram_groups().into_iter().enumerate() {
            if gi > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(group);
            out.push_str("\":{");
            for (fi, (field, hist)) in fields.into_iter().enumerate() {
                if fi > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(field);
                out.push_str("\":");
                hist.snapshot().write_json(&mut out);
            }
            out.push('}');
        }
        out.push_str("},");
        if !self.partitions.is_empty() {
            out.push_str("\"partitions\":[");
            for (pi, p) in self.partitions.iter().enumerate() {
                if pi > 0 {
                    out.push(',');
                }
                out.push_str("{\"partition\":\"");
                out.push_str(&p.label);
                out.push_str("\",");
                let groups: [(&'static str, Vec<(&'static str, u64)>); 3] = [
                    ("storage", p.storage.snapshot().fields()),
                    ("index", p.index.snapshot().fields()),
                    ("selfmanage", p.selfmanage.snapshot().fields()),
                ];
                for (gi, (group, fields)) in groups.into_iter().enumerate() {
                    if gi > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(group);
                    out.push_str("\":{");
                    for (fi, (field, value)) in fields.into_iter().enumerate() {
                        if fi > 0 {
                            out.push(',');
                        }
                        json_field(&mut out, field, value);
                    }
                    out.push('}');
                }
                out.push('}');
            }
            out.push_str("],");
        }
        json_field(&mut out, "serve_queue_depth", self.serve.queue_depth.get());
        out.push(',');
        let slow_queries: usize = self.slow_logs().iter().map(|(_, log)| log.len()).sum();
        json_field(&mut out, "slow_queries", slow_queries);
        out.push_str(",\"build_info\":{\"git_rev\":\"");
        out.push_str(&json_escape(&self.git_rev));
        out.push_str("\",");
        json_field(&mut out, "schema_version", crate::SCHEMA_VERSION);
        out.push_str("},");
        json_field(&mut out, "uptime_seconds", self.uptime_seconds());
        out.push_str(",\"drift\":");
        self.telemetry.drift.write_json(&mut out);
        out.push(',');
        json_field(
            &mut out,
            "cost_model_drift_alerts",
            self.telemetry.drift.alerts(),
        );
        out.push(',');
        json_field(&mut out, "advisor_cycles", self.advisor.recorded.get());
        out.push(',');
        json_field(&mut out, "traces_stored", self.serve.traces.len() as u64);
        out.push('}');
        out
    }

    /// The slow-query log as JSON (threshold + entries with span trees):
    /// every partition's entries, each labelled with its partition, when
    /// partitions are attached; the primary log otherwise.
    pub fn render_slow_json(&self) -> String {
        render_slow_logs(&self.slow_logs())
    }

    fn slow_logs(&self) -> Vec<(Option<&str>, &SlowQueryLog)> {
        if self.partitions.is_empty() {
            return vec![(None, &self.telemetry.slow)];
        }
        self.partitions
            .iter()
            .map(|p| (Some(p.label.as_str()), &p.telemetry.slow))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new(
            Arc::new(StorageCounters::new()),
            Arc::new(IndexCounters::new()),
            Arc::new(SelfManageCounters::new()),
            Arc::new(StorageTimers::new()),
            Arc::new(Telemetry::new()),
            Arc::new(ServeMetrics::new()),
        )
    }

    #[test]
    fn prometheus_exposition_covers_all_groups() {
        let r = registry();
        r.storage_timers
            .page_read
            .record_duration(Duration::from_micros(80));
        r.telemetry
            .query
            .query
            .record_duration(Duration::from_millis(2));
        r.serve().counters.admitted.add(3);
        r.serve().queue_depth.set(2);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE trex_storage_page_reads_total counter"));
        assert!(text.contains("# TYPE trex_selfmanage_cycles_total counter"));
        assert!(text.contains("# TYPE trex_serve_admitted_total counter"));
        assert!(text.contains("trex_serve_admitted_total 3"));
        assert!(text.contains("# TYPE trex_serve_queue_depth gauge"));
        assert!(text.contains("trex_serve_queue_depth 2"));
        assert!(text.contains("# TYPE trex_storage_page_read_seconds histogram"));
        assert!(text.contains("# TYPE trex_serve_request_seconds histogram"));
        assert!(text.contains("trex_query_query_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("trex_query_query_seconds_count 1"));
        assert!(text.contains("trex_maint_reconcile_cycle_seconds_count 0"));
    }

    #[test]
    fn prometheus_exposition_covers_build_info_and_drift() {
        let r = registry();
        r.telemetry
            .drift
            .observe(crate::DriftKind::TaEntries, 100.0, 150);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE trex_build_info gauge"));
        assert!(text.contains(&format!(
            "trex_build_info{{git_rev=\"{}\",schema_version=\"{}\"}} 1",
            r.git_rev(),
            crate::SCHEMA_VERSION
        )));
        assert!(text.contains("# TYPE trex_uptime_seconds gauge"));
        assert!(text.contains("trex_drift_ewma{model=\"ta_entries\"} 0.5"));
        assert!(text.contains("trex_drift_ewma{model=\"merge_entries\"} 0.0"));
        assert!(text.contains("trex_drift_samples_total{model=\"ta_entries\"} 1"));
        assert!(text.contains("trex_drift_error_milli_bucket{model=\"ta_entries\",le=\"+Inf\"} 1"));
        assert!(text.contains("trex_cost_model_drift_alerts_total 0"));
        assert!(text.contains("trex_advisor_cycles_recorded_total 0"));
    }

    #[test]
    fn json_rendering_nests_groups() {
        let r = registry();
        r.telemetry.query.query.record(1_000);
        r.serve().counters.cache_hits.incr();
        let json = r.render_json();
        assert!(json.starts_with("{\"counters\":{\"storage\":{"));
        assert!(json.contains("\"serve\":{\"admitted\":0"));
        assert!(json.contains("\"cache_hits\":1"));
        assert!(json.contains("\"histograms\":{\"storage\":{\"page_read\":{"));
        assert!(json.contains("\"serve\":{\"request\":{"));
        assert!(json.contains("\"query\":{\"query\":{\"count\":1"));
        assert!(json.contains("\"serve_queue_depth\":0"));
        assert!(json.contains("\"slow_queries\":0"));
        assert!(json.contains("\"build_info\":{\"git_rev\":\""));
        assert!(json.contains(&format!("\"schema_version\":{}", crate::SCHEMA_VERSION)));
        assert!(json.contains("\"uptime_seconds\":"));
        assert!(json.contains("\"drift\":{\"alerts\":0"));
        assert!(json.contains("\"cost_model_drift_alerts\":0"));
        assert!(json.contains("\"advisor_cycles\":0"));
        assert!(json.contains("\"traces_stored\":0"));
        crate::parse_json(&json).expect("metrics JSON stays parseable");
    }

    #[test]
    fn attached_health_and_advisor_are_served() {
        let r = registry()
            .with_health(Arc::new(crate::Health::new()))
            .with_advisor(Arc::new(crate::AdvisorJournal::new()));
        assert!(!r.health().ready());
        r.health().set_ready(true);
        assert!(r.health().ready());
        r.advisor().record(crate::CycleRecord::default());
        assert!(r.render_json().contains("\"advisor_cycles\":1"));
    }

    #[test]
    fn partition_labels_render_in_both_formats() {
        let p0 = PartitionMetrics {
            label: "0".into(),
            storage: Arc::new(StorageCounters::new()),
            index: Arc::new(IndexCounters::new()),
            selfmanage: Arc::new(SelfManageCounters::new()),
            telemetry: Arc::new(Telemetry::new()),
        };
        let p1 = PartitionMetrics {
            label: "1".into(),
            storage: Arc::new(StorageCounters::new()),
            index: Arc::new(IndexCounters::new()),
            selfmanage: Arc::new(SelfManageCounters::new()),
            telemetry: Arc::new(Telemetry::new()),
        };
        p0.storage.page_reads.add(7);
        p1.storage.page_reads.add(3);
        p1.selfmanage.cycles.incr();
        let r = registry().with_partitions(vec![p0, p1]);

        let text = r.render_prometheus();
        assert!(text.contains("# TYPE trex_partition_storage_page_reads_total counter"));
        assert!(text.contains("trex_partition_storage_page_reads_total{partition=\"0\"} 7"));
        assert!(text.contains("trex_partition_storage_page_reads_total{partition=\"1\"} 3"));
        assert!(text.contains("trex_partition_selfmanage_cycles_total{partition=\"1\"} 1"));
        // The TYPE line appears once per metric name, not once per label.
        assert_eq!(
            text.matches("# TYPE trex_partition_storage_page_reads_total counter")
                .count(),
            1
        );

        let json = r.render_json();
        assert!(json.contains("\"partitions\":[{\"partition\":\"0\""));
        assert!(json.contains("\"page_reads\":7"));
        assert!(json.contains("\"page_reads\":3"));
        // Still valid after the array: the scalar tail fields follow.
        assert!(json.contains("],\"serve_queue_depth\":0"));
    }
}
