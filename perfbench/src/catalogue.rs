//! The metric catalogue. `BENCHMARK.json` declares every metric's name,
//! unit and direction; this module adds what that file cannot hold: the
//! layer each metric is measured at and which end-to-end metric it should
//! move on which workload.

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub end_to_end: bool,
}

/// Every metric `BENCHMARK.json` declares, end-to-end ones first, read
/// from the working directory (the repository root).
pub fn declared() -> Result<Vec<MetricDef>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let json = serde_json::from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e:?}"))?;
    let mut out = Vec::new();
    for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
        let Some(serde_json::Value::Array(items)) = json.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        for m in items {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or_default().to_string();
            out.push(MetricDef {
                name: field("name"),
                unit: field("unit"),
                better: field("better"),
                end_to_end,
            });
        }
    }
    Ok(out)
}

const E2E: &str = "end-to-end";

/// `(name, layer, moves)`. A name ending in `.` stands for the family of
/// metrics it prefixes.
#[rustfmt::skip]
const LAYERS: &[(&str, &str, &str)] = &[
    ("setup_s", E2E, "generate data, build the session, boot the resolver"),
    ("resolve_s", E2E, "median run_parallel, generated Dataset to final clusters"),
    ("admit_p50_s", E2E, "median admit, enqueue to published snapshot"),
    ("admit_tail_s", E2E, "admit latency at the highest percentile with 10 samples beyond"),
    ("read_p99_us", E2E, "p99 read (snapshot + cluster_of + explain) during admits"),
    ("peak_rss_mb", E2E, "process VmHWM once the run keeps one world"),
    ("eval.f1", "eval", "none: pairwise F1 of run_parallel against datagen ground truth"),
    ("datagen.generate_s", "datagen", "setup_s on all workloads"),
    ("hypart.partition_s", "hypart", "resolve_s on tpch-batch; admit_p50_s on tpch-batch (re-partition fallback)"),
    ("hypart.replication_factor", "hypart", "resolve_s on tpch-batch; ML pair calls on dblp-ml"),
    ("hypart.fragment_imbalance", "hypart", "resolve_s on tpch-batch"),
    ("hypart.hash_computations", "hypart", "resolve_s on tpch-batch"),
    ("hypart.hash_memo_hit_ratio", "hypart", "resolve_s on tpch-batch"),
    ("hypart.refinements", "hypart", "resolve_s and admit_p50_s on tpch-batch"),
    ("chase.index_build_s", "chase", "resolve_s on tpch-batch"),
    ("chase.deduce_s", "chase", "resolve_s on tpch-batch and dblp-ml"),
    ("chase.rule_s.", "chase", "resolve_s on the workload whose rule set has this rule"),
    ("chase.valuations", "chase", "resolve_s on tpch-batch and dblp-ml"),
    ("chase.facts_deduced", "chase", "resolve_s on tpch-batch and dblp-ml"),
    ("chase.rounds", "chase", "resolve_s on tpch-batch and dblp-ml"),
    ("chase.seeded_joins", "chase", "resolve_s on tpch-batch and dblp-ml"),
    ("chase.deps_fired", "chase", "resolve_s on tpch-batch and dblp-ml"),
    ("ml.calls", "ml", "resolve_s, most on dblp-ml, little on tpch-batch"),
    ("ml.memo_hit_ratio", "ml", "resolve_s, most on dblp-ml, little on tpch-batch"),
    ("ml.kernel_ns_per_pair.", "ml", "resolve_s on the workload whose registry has this model"),
    ("bsp.exchange_s", "bsp", "resolve_s on dblp-ml (threaded) and tpch-batch (multi-superstep)"),
    ("bsp.barrier_wait_s", "bsp", "resolve_s on dblp-ml (threaded) and tpch-batch"),
    ("bsp.supersteps", "bsp", "resolve_s on dblp-ml and tpch-batch"),
    ("bsp.messages", "bsp", "resolve_s on dblp-ml and tpch-batch"),
    ("bsp.bytes", "bsp", "resolve_s on dblp-ml and tpch-batch"),
    ("bsp.deduped_facts", "bsp", "resolve_s on dblp-ml and tpch-batch"),
    ("bsp.simulated_makespan_s", "bsp", "none: cost-model output, never a timing"),
    ("pool.scheduler_s", "pool", "resolve_s and setup_s"),
    ("pool.steals", "pool", "resolve_s and setup_s"),
    ("core.pipeline.assemble_s", "core.pipeline", "resolve_s"),
    ("core.pipeline.other_s", "core.pipeline", "resolve_s"),
    ("core.pipeline.worker_utilization_min", "core.pipeline", "resolve_s"),
    ("core.pipeline.straggler_index_max", "core.pipeline", "resolve_s"),
    ("core.update.", "core.update", "admit_p50_s and admit_tail_s: tpch-batch re-partitions, dblp-ml stays incremental"),
    ("core.serve.publish_s", "core.serve", "admit_p50_s on both workloads"),
    ("core.serve.provenance_entries", "core.serve", "admit_p50_s on both workloads (publish cost grows with state)"),
    ("core.serve.clusters", "core.serve", "admit_p50_s on both workloads (publish cost grows with state)"),
    ("core.serve.read_p50_us", "core.serve", "median read during admits; bimodal with the host's load, so not gated"),
    ("core.serve.snapshot_load_ns", "core.serve", "read_p99_us on both workloads"),
    ("obs.trace_overhead", "obs", "none: validity of the traced run"),
    ("obs.profile_sum_error", "obs", "none: |RunProfile buckets / traced resolve wall - 1|"),
];

/// The layer of metric `name` and what it should move; `None` for a name
/// the catalogue does not know.
pub fn describe(name: &str) -> Option<(&'static str, &'static str)> {
    LAYERS
        .iter()
        .find(|(n, ..)| *n == name || (n.ends_with('.') && name.starts_with(n)))
        .map(|&(_, layer, moves)| (layer, moves))
}
