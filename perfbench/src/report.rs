//! Metric registry and the result line.
//!
//! The two lists below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints every [`END_TO_END`] metric,
//! a traced run every [`PER_LAYER`] metric, each by name with its unit.
//! The self-tests check that both lists match the JSON file.

use crate::trace;
use crate::workloads::{Measured, Params};
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. Names carry their clock:
/// `host_*` is wall time on this machine, `virt_*` the max-over-ranks
/// virtual time of the cost model.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_s", "s"),
    ("virt_s", "s"),
    ("host_items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, emitted by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geom.parse_host_ns_per_byte", "ns/B"),
    ("pfs.bytes_read", "B"),
    ("pfs.bytes_written", "B"),
    ("pfs.read_ops", "count"),
    ("pfs.write_ops", "count"),
    ("pfs.unaligned_share", "ratio"),
    ("pfs.ost_imbalance", "ratio"),
    ("pipeline.records", "count"),
    ("pipeline.replicas", "count"),
    ("pipeline.replication", "ratio"),
    ("decomp.imbalance", "ratio"),
    ("exchange.rounds", "count"),
    ("exchange.bytes_sent", "B"),
    ("exchange.exposed_wait_s", "s"),
    ("exchange.overlapped_s", "s"),
    ("snapshot.write_host_s", "s"),
    ("snapshot.write_virt_s", "s"),
    ("snapshot.read_host_s", "s"),
    ("snapshot.read_virt_s", "s"),
    ("join.filter_candidates", "count"),
    ("join.refine_tests", "count"),
    ("join.precision", "ratio"),
    ("join.refine_host_s", "s"),
    ("join.breakdown_partition_virt_s", "s"),
    ("join.breakdown_comm_virt_s", "s"),
    ("join.breakdown_compute_virt_s", "s"),
    ("join.max_resident_allocs", "count"),
    ("engine.serve_host_s", "s"),
    ("engine.query_p50_ms", "ms"),
    ("engine.query_p90_ms", "ms"),
    ("engine.virt_query_p90_ms", "ms"),
    ("engine.shipped_records", "count"),
    ("engine.answers_per_query", "ratio"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.knn_host_share", "ratio"),
    ("engine.update_host_s", "s"),
    ("engine.update_p50_ms", "ms"),
    ("engine.update_p90_ms", "ms"),
    ("engine.virt_update_p90_ms", "ms"),
    ("engine.latency_samples", "count"),
    ("rebalance.count", "count"),
    ("rebalance.migrated_bytes", "B"),
    ("rebalance.migrated_fraction", "ratio"),
    ("rebalance.imbalance_peak", "ratio"),
    ("msim.host_rank_skew", "ratio"),
    ("msim.spawn_join_host_s", "s"),
    ("msim.virt_spread", "s"),
    ("trace.overhead_host_s", "s"),
];

/// Whether `name` is a legal metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// metrics of `registry`, each looked up in `values`. Fails if a metric
/// is missing or not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    registry: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(registry.len());
    for (name, unit) in registry {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// Everything a run prints after its fingerprint: the notes, the exact
/// counters, `error_rate`, every metric value with its unit, in traced
/// runs the span table, and last the result line. Fails if a metric
/// the result line needs is missing or not finite.
pub fn lines(p: &Params, m: &Measured) -> Result<Vec<String>, String> {
    let mut out = m.notes.clone();
    for (name, v) in &m.counters {
        out.push(format!("counter {name} = {v}"));
    }
    let error_rate = m.failed as f64 / m.attempted.max(1) as f64;
    out.push(format!(
        "error_rate = {error_rate} ({} failed of {} attempted)",
        m.failed, m.attempted
    ));
    for (name, unit) in END_TO_END {
        if let Some(v) = m.end_to_end.get(name) {
            out.push(format!("end_to_end {name} = {v} {unit}"));
        }
    }
    if p.trace {
        for (name, unit) in PER_LAYER {
            if let Some(v) = m.per_layer.get(name) {
                out.push(format!("per_layer {name} = {v} {unit}"));
            }
        }
        out.extend(trace::summary(&m.spans));
    }
    let (registry, values) = if p.trace {
        (PER_LAYER, &m.per_layer)
    } else {
        (END_TO_END, &m.end_to_end)
    };
    out.push(result_line(
        m.failed == 0,
        m.attempted,
        m.failed,
        registry,
        values,
    )?);
    Ok(out)
}
