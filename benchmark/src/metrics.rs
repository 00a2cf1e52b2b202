//! The metric tables (mirrored by `BENCHMARK.json` at the repository
//! root — a test keeps the two in step) and the assembly of the per-layer
//! set from a traced run.

use crate::staged::Counters;
use crate::trace::TraceSummary;
use crate::util::percentile;
use std::collections::BTreeMap;

/// `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.2),
    ("query_p50_us", "us", "lower", 0.25),
    ("query_p95_us", "us", "lower", 0.25),
    ("within_limit_frac", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// `(name, unit, better)`. A traced run prints every one of these; a
/// workload that bypasses the layer prints 0.
pub const PER_LAYER: [(&str, &str, &str); 51] = [
    ("xml.parse_mb_per_s", "MB/s", "higher"),
    ("xml.scan_events_per_s", "1/s", "higher"),
    ("xml.edit_us", "us", "lower"),
    ("xml.snapshot_clone_us", "us", "lower"),
    ("xml.validate_us", "us", "lower"),
    ("xml.serialize_mb_per_s", "MB/s", "higher"),
    ("xml.bytes_per_node", "B", "lower"),
    ("rxpath.parse_us", "us", "lower"),
    ("view.derive_us", "us", "lower"),
    ("view.accessible_us", "us", "lower"),
    ("view.render_us", "us", "lower"),
    ("rewrite.rewrite_us", "us", "lower"),
    ("rewrite.mfa_states", "count", "lower"),
    ("automata.build_us", "us", "lower"),
    ("automata.optimize_us", "us", "lower"),
    ("automata.compile_us", "us", "lower"),
    ("automata.plan_states", "count", "lower"),
    ("tax.build_ms", "ms", "lower"),
    ("tax.patch_us", "us", "lower"),
    ("tax.bytes_per_node", "B", "lower"),
    ("hype.scan_us", "us", "lower"),
    ("hype.jump_us", "us", "lower"),
    ("hype.eval_share", "ratio", "lower"),
    ("hype.nodes_visited_per_answer", "ratio", "lower"),
    ("hype.tax_pruned_frac", "ratio", "higher"),
    ("hype.jump_share", "ratio", "higher"),
    ("hype.batch_events_per_query", "count", "lower"),
    ("update.parse_us", "us", "lower"),
    ("update.resolve_us", "us", "lower"),
    ("update.apply_us", "us", "lower"),
    ("core.plan_miss_us", "us", "lower"),
    ("core.plancache_hit_rate", "ratio", "higher"),
    ("core.plancache_evictions", "count", "lower"),
    ("core.query_overhead_us", "us", "lower"),
    ("core.update_total_us", "us", "lower"),
    ("core.wal_append_us", "us", "lower"),
    ("core.wal_bytes_per_update", "B", "lower"),
    ("core.checkpoint_ms", "ms", "lower"),
    ("core.checkpoint_bytes_per_doc_byte", "ratio", "lower"),
    ("core.replay_us_per_record", "us", "lower"),
    ("core.reader_stall_us", "us", "lower"),
    ("server.wire_overhead_us", "us", "lower"),
    ("server.service_us_p50", "us", "lower"),
    ("server.answer_bytes_per_req", "B", "lower"),
    ("server.busy_total", "count", "lower"),
    ("server.shed_total", "count", "lower"),
    ("server.overloaded_total", "count", "lower"),
    ("server.query_p99_us", "us", "lower"),
    ("server.send_lag_us_p95", "us", "lower"),
    ("planning_share", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn median_u64(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    percentile(values, 50.0) as f64
}

/// Span names of the planning stages.
const PLANNING: [&str; 5] = [
    "rxpath.parse",
    "rewrite.rewrite",
    "automata.build",
    "automata.optimize",
    "automata.compile",
];

/// The per-layer set: every name of [`PER_LAYER`], 0 by default, filled
/// from the spans and the boundary counts; `extra` carries what only the
/// workload can know (cache deltas, file sizes, wire statistics).
pub fn per_layer(
    trace: &TraceSummary,
    counters: &mut Counters,
    setup_bytes: usize,
    extra: &[(&'static str, f64)],
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect();
    let per_s = |bytes: f64, us: f64| if us > 0.0 { bytes / us } else { 0.0 }; // B/us = MB/s
    m.insert(
        "xml.parse_mb_per_s",
        per_s(setup_bytes as f64, trace.p50_us("xml.parse")),
    );
    m.insert("tax.build_ms", trace.p50_us("tax.build") / 1e3);
    for (metric, span) in [
        ("view.derive_us", "view.derive"),
        ("xml.edit_us", "xml.edit"),
        ("xml.snapshot_clone_us", "xml.snapshot_clone"),
        ("xml.validate_us", "xml.validate"),
        ("rxpath.parse_us", "rxpath.parse"),
        ("view.accessible_us", "view.accessible"),
        ("view.render_us", "view.render"),
        ("rewrite.rewrite_us", "rewrite.rewrite"),
        ("automata.build_us", "automata.build"),
        ("automata.optimize_us", "automata.optimize"),
        ("automata.compile_us", "automata.compile"),
        ("tax.patch_us", "tax.patch"),
        ("hype.scan_us", "hype.scan"),
        ("hype.jump_us", "hype.jump"),
        ("update.parse_us", "update.parse"),
        ("update.resolve_us", "update.resolve"),
        ("core.update_total_us", "op.update"),
    ] {
        m.insert(metric, trace.p50_us(span));
    }
    m.insert(
        "update.apply_us",
        trace.p50_us("xml.edit") + trace.p50_us("tax.patch"),
    );
    let serialize_ns = trace.total_ns("xml.serialize") + trace.total_ns("view.render");
    if serialize_ns > 0 {
        m.insert(
            "xml.serialize_mb_per_s",
            counters.serialized_bytes as f64 / (serialize_ns as f64 / 1e3),
        );
    }
    let reads_ns = trace.total_ns("op.read") as f64;
    if reads_ns > 0.0 {
        let eval = trace.total_ns("hype.scan") + trace.total_ns("hype.jump");
        let planning: u64 = PLANNING.iter().map(|s| trace.total_ns(s)).sum();
        m.insert("hype.eval_share", eval as f64 / reads_ns);
        m.insert("planning_share", planning as f64 / reads_ns);
    }
    if counters.answers > 0 {
        m.insert(
            "hype.nodes_visited_per_answer",
            counters.nodes_visited as f64 / counters.answers as f64,
        );
    }
    if counters.queries > 0 {
        m.insert(
            "hype.tax_pruned_frac",
            counters.tax_pruned as f64
                / (counters.tax_pruned + counters.nodes_visited).max(1) as f64,
        );
        m.insert(
            "hype.jump_share",
            counters.jump_queries as f64 / counters.queries as f64,
        );
    }
    if !counters.mfa_states.is_empty() {
        m.insert("rewrite.mfa_states", median_u64(&mut counters.mfa_states));
        m.insert(
            "automata.plan_states",
            median_u64(&mut counters.plan_states),
        );
    }
    if !counters.plan_miss_ns.is_empty() {
        m.insert(
            "core.plan_miss_us",
            median_u64(&mut counters.plan_miss_ns) / 1e3,
        );
    }
    for (metric, diffs) in [
        ("core.query_overhead_us", &mut counters.overhead_ns),
        ("core.wal_append_us", &mut counters.wal_ns),
    ] {
        if !diffs.is_empty() {
            diffs.sort_unstable();
            m.insert(metric, diffs[(diffs.len() - 1) / 2] as f64 / 1e3);
        }
    }
    for (name, value) in extra {
        debug_assert!(m.contains_key(name), "{name} is not a per-layer metric");
        m.insert(name, *value);
    }
    m
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads `"name": {"value": X` back out of a result line (the parent
/// process of a multi-workload run only ever parses its own format).
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for workload in crate::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
    }

    #[test]
    fn result_line_round_trips_through_value_in() {
        let metrics = BTreeMap::from([("setup_s", 0.125), ("query_p50_us", 1234.5)]);
        let line = result_line(true, 10, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert_eq!(value_in(&line, "setup_s"), Some(0.125));
        assert_eq!(value_in(&line, "query_p50_us"), Some(1234.5));
        assert_eq!(value_in(&line, "absent"), None);
        assert!(line.contains("\"unit\": \"us\""));
    }
}
