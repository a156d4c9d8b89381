//! Every metric the benchmark reports, by name, with its unit and
//! direction. `BENCHMARK.json` lists the same names; `tests/quick.rs`
//! holds the two together.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// What a user of the engine sees; each has a regression bound in
/// `BENCHMARK.json`. Measured with tracing off. The share of failed
/// statements is the result's `failed` / `attempted`, not a metric here:
/// it is 0 on every accepted run.
pub const END_TO_END: [MetricDef; 4] = [
    lower("setup_s", "s"),
    lower("geomean_fastq_ms", "ms"),
    lower("peak_rss_mb", "MiB"),
    lower("stored_bytes_per_user_byte", "ratio"),
];

/// One layer each (the prefix is the crate), from the traced pass.
pub const PER_LAYER: [MetricDef; 45] = [
    lower("sql.parse_us", "us"),
    lower("sql.bind_us", "us"),
    lower("sql.optimize_us", "us"),
    lower("sql.plan_share_pct", "%"),
    lower("rewriter.rewrite_us", "us"),
    lower("core.compile_us", "us"),
    lower("core.emit_us", "us"),
    lower("core.emit_ns_per_value", "ns/value"),
    lower("core.other_us", "us"),
    lower("core.dml_us", "us"),
    lower("core.commit_us", "us"),
    lower("core.checkpoint_ms", "ms"),
    lower("core.checkpoint_bytes_written", "B"),
    lower("exec.drain_us", "us"),
    lower("exec.scan_ns_per_row", "ns/row"),
    lower("exec.filter_ns_per_row", "ns/row"),
    lower("exec.agg_ns_per_row", "ns/row"),
    lower("exec.build_ns_per_row", "ns/row"),
    lower("exec.probe_ns_per_row", "ns/row"),
    higher("exec.dop2_speedup", "x"),
    lower("exec.spill_slowdown", "x"),
    lower("exec.spill_bytes_written", "B"),
    lower("storage.load_s", "s"),
    lower("storage.disk_reads_per_round", "count"),
    lower("storage.disk_bytes_read_per_round", "B"),
    lower("storage.stored_mb", "MiB"),
    lower("compress.decode_ns_per_value", "ns/value"),
    lower("compress.encode_ns_per_value", "ns/value"),
    lower("pdt.delta_ops", "count"),
    lower("pdt.merge_slowdown", "x"),
    lower("pdt.apply_ns_per_op", "ns/op"),
    lower("service.admit_us", "us"),
    lower("service.pool_submit_us", "us"),
    higher("service.two_session_speedup", "x"),
    lower("alloc.count_per_round", "count"),
    lower("alloc.bytes_per_round", "B"),
    lower("alloc.peak_live_mb", "MiB"),
    lower("client.p50_ms", "ms"),
    lower("client.p95_ms", "ms"),
    higher("client.samples_per_stmt", "count"),
    lower("client.failed_share", "ratio"),
    lower("machine.calib_fastq_ms", "ms"),
    lower("machine.drift_pct", "%"),
    lower("machine.steal_pct", "%"),
    lower("trace.overhead_pct", "%"),
];

/// Measured values by metric name. A per-layer metric a workload has no
/// work for (no join, no DML, no delta) reads 0.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `"name": {"value": v, "unit": "u"}, …` for the given definitions.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let fields: Vec<String> = defs
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(self.get(m.name)),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with all the digits measured (`{:?}` prints the shortest
/// text that reads back to the same double).
pub fn json_num(v: f64) -> String {
    format!("{v:?}")
}
