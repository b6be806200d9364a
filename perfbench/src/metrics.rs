//! The benchmark's metric names and units, as `BENCHMARK.json` lists them.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("bench.task_ms", "ms"),
    ("exp.warm_ms", "ms"),
    ("exp.snapshot_ms", "ms"),
    ("exp.restore_ms", "ms"),
    ("exp.measure_ms", "ms"),
    ("exp.warms", "count"),
    ("exp.forks", "count"),
    ("pipeline.cycle_insts", "count"),
    ("pipeline.functional_insts", "count"),
    ("pipeline.uops", "count"),
    ("pipeline.cycle_ns_per_inst", "ns"),
    ("pipeline.functional_ns_per_inst", "ns"),
    ("pipeline.uop_cache_hit_ratio", "ratio"),
    ("pipeline.memo_hit_ratio", "ratio"),
    ("pipeline.mem_read_ns", "ns"),
    ("isa.fetch_ns", "ns"),
    ("uops.translate_ns", "ns"),
    ("cache.accesses", "count"),
    ("cache.l1d_miss_ratio", "ratio"),
    ("cache.access_ns", "ns"),
    ("csd.decoy_uops", "count"),
    ("attack.encryptions", "count"),
    ("attack.us_per_encryption", "us"),
    ("telemetry.serialize_ms", "ms"),
    ("telemetry.parse_ms", "ms"),
    ("journal.appends", "count"),
    ("journal.append_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.client_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.lat_p50_ms", "ms"),
    ("serve.lat_p95_ms", "ms"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.retries_503", "count"),
    ("serve.reconnects", "count"),
    ("cluster.task_rtt_ms", "ms"),
    ("cluster.worker_run_ms", "ms"),
    ("cluster.transport_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.dispatched", "count"),
    ("cluster.hedge_waste_ratio", "ratio"),
    ("cluster.retries", "count"),
    ("trace.overhead_s", "s"),
    ("fail_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use csd_telemetry::Json;
    use std::collections::HashSet;

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(doc.get("end_to_end").unwrap()), own(&END_TO_END));
        assert_eq!(names(doc.get("per_layer").unwrap()), own(&PER_LAYER));
        let all: HashSet<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }
}
