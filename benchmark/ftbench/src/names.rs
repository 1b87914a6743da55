//! Every workload and metric name the binary emits, with units. The test
//! below keeps `BENCHMARK.json` equal to these lists.

pub const WORKLOADS: [&str; 6] = [
    "exec_rnn",
    "exec_dense",
    "compile_cold",
    "serve_open",
    "serve_sat",
    "serve_decode",
];

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Printed by a traced run (`--trace 1`). The prefix is the crate.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("core.interp_ms", "ms"),
    ("core.signature_us", "us"),
    ("etdg.parse_us", "us"),
    ("etdg.blocks", "count"),
    ("passes.compile_us", "us"),
    ("passes.groups", "count"),
    ("passes.fusion_applied", "count"),
    ("passes.wavefront_steps", "count"),
    ("passes.arena_bytes", "bytes"),
    ("passes.arena_reused_ranges", "count"),
    ("passes.poly_build_us", "us"),
    ("passes.poly_instance_us", "us"),
    ("passes.poly_instance_hit_us", "us"),
    ("verify.verify_us", "us"),
    ("verify.points", "count"),
    ("verify.maps", "count"),
    ("backend.run_ms_t1", "ms"),
    ("backend.run_ms_t2", "ms"),
    ("backend.scaling_t2", "ratio"),
    ("backend.run_ms_p99", "ms"),
    ("backend.us_per_step", "us"),
    ("backend.achieved_gflops", "GFLOP/s"),
    ("backend.arena_grows", "count"),
    ("backend.leaf_clones", "count"),
    ("backend.run_ms.b2b", "ms"),
    ("backend.run_ms.attention", "ms"),
    ("backend.run_ms.lstm", "ms"),
    ("backend.run_ms.bigbird", "ms"),
    ("pool.dispatch_us_t1", "us"),
    ("pool.dispatch_us_t2", "us"),
    ("simd.gemm512_gflops", "GFLOP/s"),
    ("simd.gemm_leaf_gflops", "GFLOP/s"),
    ("simd.add_gbps", "GB/s"),
    ("simd.exp_gbps", "GB/s"),
    ("simd.tanh_gbps", "GB/s"),
    ("simd.softmax_gbps", "GB/s"),
    ("tensor.matmul512_ms", "ms"),
    ("tensor.matmul_mt512_ms", "ms"),
    ("serve.latency_ms_p99", "ms"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.setup_us_p50", "us"),
    ("serve.exec_us_p50", "us"),
    ("serve.split_us_p50", "us"),
    ("serve.overhead_us", "us"),
    ("serve.concat_us", "us"),
    ("serve.split_parts_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.batches", "count"),
    ("serve.batch_fallbacks", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cached_plans", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.late", "count"),
    ("serve.state_copies", "count"),
    ("serve.pinned_bytes", "bytes"),
    ("serve.session_opens", "count"),
    ("serve.decode_sat_tokens_per_s", "1/s"),
    ("sim.ft_ms", "sim_ms"),
    ("sim.dram_bytes", "bytes"),
    ("sim.l2_bytes", "bytes"),
    ("sim.l1_bytes", "bytes"),
    ("sim.kernels", "count"),
    ("sim.speedup_vs_best", "ratio"),
    ("sim.wall_ms", "ms"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.hist_record_ns", "ns"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.generator_late_share", "ratio"),
    ("bench.samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

    fn names_and_units(list: &serde_json::Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                (
                    m["name"].as_str().expect("a name").to_string(),
                    unit.to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this binary
    /// emits, with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let doc: serde_json::Value = serde_json::from_str(BENCHMARK_JSON).expect("valid JSON");
        let workloads: Vec<String> = names_and_units(&doc["workloads"])
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(names_and_units(&doc["end_to_end"]), owned(&END_TO_END));
        assert_eq!(names_and_units(&doc["per_layer"]), owned(&PER_LAYER));
        assert!(doc["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .any(|m| m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower"));
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().map(|(n, _)| *n));
        all.extend(PER_LAYER.iter().map(|(n, _)| *n));
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
    }
}
