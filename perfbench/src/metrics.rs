//! The metric catalogue: every metric the benchmark reports, with its
//! unit and direction, and for each per-layer metric the end-to-end
//! metric and workloads it should move. `BENCHMARK.json` lists the same
//! names, units and directions (a test keeps the two in step).

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "query_tail_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "server_peak_rss_mb",
        unit: "MiB",
        better: "lower",
    },
    EndToEnd {
        name: "server_cpu_ms_per_op",
        unit: "ms",
        better: "lower",
    },
];

/// One per-layer metric.
pub struct PerLayer {
    /// Metric name, `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric(s) a change here should move, and where.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const WARM_P50: &str = "query_p50_ms on warm_hits";
const MINING: &str =
    "query_p50_ms and queries_per_s on cold_miss and cold_bypass; no change on warm_hits";
const APPEND: &str = "server_cpu_ms_per_op and queries_per_s on append_churn";

/// Per-layer metrics, from the traced replay and the server's own
/// counters.
pub const PER_LAYER: &[PerLayer] = &[
    l("serve.status_rtt_us", "us", "lower", WARM_P50),
    l("serve.outside_us", "us", "lower", WARM_P50),
    l("wire.parse_us", "us", "lower", WARM_P50),
    l(
        "request.encode_us",
        "us",
        "lower",
        "query_p50_ms and query_tail_ms on warm_hits",
    ),
    l(
        "request.reply_bytes",
        "bytes",
        "lower",
        "query_p50_ms and query_tail_ms on warm_hits",
    ),
    l("constraints.parse_bind_us", "us", "lower", WARM_P50),
    l("optimizer.plan_us", "us", "lower", WARM_P50),
    l("cache.plan_hit_ratio", "ratio", "higher", WARM_P50),
    l("cache.lattice_hit_ratio", "ratio", "higher", WARM_P50),
    l("cache.entries", "count", "higher", WARM_P50),
    l(
        "cache.bytes_used",
        "bytes",
        "lower",
        "query_p50_ms on warm_hits; server_peak_rss_mb on cold_miss",
    ),
    l(
        "scheduler.queued_replies",
        "count",
        "lower",
        "query_tail_ms on cold_miss",
    ),
    l(
        "scheduler.mining_passes",
        "count",
        "lower",
        "query_tail_ms on cold_miss",
    ),
    l(
        "scheduler.coalesced",
        "count",
        "higher",
        "query_tail_ms on cold_miss",
    ),
    l(
        "session.execute_us",
        "us",
        "lower",
        "query_p50_ms on every workload",
    ),
    l(
        "session.self_us",
        "us",
        "lower",
        "query_p50_ms on every workload",
    ),
    l("mining.apriori_us", "us", "lower", MINING),
    l("mining.db_scans", "count", "lower", MINING),
    l("mining.support_counted", "count", "lower", MINING),
    l("mining.items_scanned", "count", "lower", MINING),
    l("mining.frequent_per_counted", "ratio", "higher", MINING),
    l(
        "optimizer.execute_plan_us",
        "us",
        "lower",
        "query_p50_ms on cold_bypass only",
    ),
    l(
        "cap.support_counted",
        "count",
        "lower",
        "query_p50_ms on cold_bypass only",
    ),
    l(
        "cap.pruned_candidates",
        "count",
        "higher",
        "query_p50_ms on cold_bypass only",
    ),
    l(
        "optimizer.db_scans",
        "count",
        "lower",
        "query_p50_ms on cold_bypass only",
    ),
    l(
        "jkmax.rounds",
        "count",
        "lower",
        "query_p50_ms on cold_bypass only",
    ),
    l("pairs.form_us", "us", "lower", "query_tail_ms on warm_hits"),
    l(
        "pairs.checks",
        "count",
        "lower",
        "query_tail_ms on warm_hits",
    ),
    l(
        "pairs.valid_per_check",
        "ratio",
        "higher",
        "query_tail_ms on warm_hits",
    ),
    l("engine.append_us", "us", "lower", APPEND),
    l("fup.old_db_recounts", "count", "lower", APPEND),
    l("fup.upgraded_lattices", "count", "higher", APPEND),
    l("wal.bytes_per_append", "bytes", "lower", APPEND),
    l("wal.fsyncs_per_append", "count", "lower", APPEND),
    l("snapshot.bytes", "bytes", "lower", APPEND),
    l(
        "setup.load_db_us",
        "us",
        "lower",
        "setup_s on every workload",
    ),
    l(
        "setup.engine_build_us",
        "us",
        "lower",
        "setup_s on every workload",
    ),
    l(
        "loadgen.lateness_ms",
        "ms",
        "lower",
        "none: a stalled generator shows here, not as a faster server",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_engine::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
