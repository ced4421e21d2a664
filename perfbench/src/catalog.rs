//! Every metric the benchmark prints, with its unit and direction. The
//! benchmark's `BENCHMARK.json` declares the same names and units; a
//! test holds the two in step.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("host_qps", "1/s", "higher"),
    m("query_ms_p50", "ms", "lower"),
    m("query_ms_p90", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("usd_per_query", "usd", "lower"),
    m("virtual_s_p50", "s", "lower"),
    m("virtual_s_p90", "s", "lower"),
    m("quality", "frac", "higher"),
    m("success_rate", "frac", "higher"),
    m("goodput_frac", "frac", "higher"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer a
/// workload leaves idle reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("synth.generate_ms", "ms", "lower"),
    m("core.context_build_ms", "ms", "lower"),
    m("core.query_ms", "ms", "lower"),
    m("core.ops_per_query", "count/query", "lower"),
    m("core.reuse_hit_ratio", "frac", "higher"),
    m("core.evictions", "count", "lower"),
    m("core.checkpoint_saves", "count", "lower"),
    m("core.checkpoint_bytes", "bytes", "lower"),
    m("core.save_state_ms", "ms", "lower"),
    m("agents.steps_per_op", "count/op", "lower"),
    m("agents.planning_calls", "count/query", "lower"),
    m("script.bounds_checked", "count", "higher"),
    m("script.bounds_cache_hit_ratio", "frac", "higher"),
    m("semops.execute_ms", "ms", "lower"),
    m("semops.rows_per_s", "1/s", "higher"),
    m("semops.calls_per_row", "count/row", "lower"),
    m("semops.selectivity", "frac", "lower"),
    m("llm.calls_per_query", "count/query", "lower"),
    m("llm.tokens_per_query", "count/query", "lower"),
    m("llm.cache_hit_ratio", "frac", "higher"),
    m("llm.cache_bytes", "bytes", "lower"),
    m("llm.fault_retries", "count", "lower"),
    m("llm.virtual_s_per_query", "s", "lower"),
    m("serve.dispatch_ms", "ms", "lower"),
    m("serve.source_ms_per_query", "ms", "lower"),
    m("serve.queue_wait_s_p50", "s", "lower"),
    m("serve.queue_wait_s_p90", "s", "lower"),
    m("serve.worker_seconds", "s", "lower"),
    m("serve.scale_events", "count", "lower"),
    m("serve.sheds.budget_exhausted", "count", "lower"),
    m("serve.sheds.cost_bound_exceeded", "count", "lower"),
    m("serve.sheds.deadline_expired", "count", "lower"),
    m("serve.sheds.queue_full", "count", "lower"),
    m("serve.sheds.tokens_exhausted", "count", "lower"),
    m("serve.sheds.unknown_context", "count", "lower"),
    m("serve.sheds.unknown_tenant", "count", "lower"),
    m("serve.clients_abandoned", "count", "lower"),
    m("serve.wal_fsyncs_per_query", "count/query", "lower"),
    m("serve.wal_appends", "count", "lower"),
    m("serve.wal_recovery_ms", "ms", "lower"),
    m("serve.net_frames_in", "count", "lower"),
    m("serve.net_bytes_in", "bytes", "lower"),
    m("serve.net_bytes_out", "bytes", "lower"),
    m("serve.plan_hash_hits", "count", "higher"),
    m("serve.wire_errors", "count", "lower"),
    m("obs.trace_overhead_pct", "%", "lower"),
    m("obs.trace_overhead_pct_q1", "%", "lower"),
    m("obs.trace_overhead_pct_q3", "%", "lower"),
    m("obs.export_ms", "ms", "lower"),
    m("obs.trace_spans", "count", "lower"),
    m("quality.legal_count", "frac", "higher"),
    m("quality.legal_ratio", "frac", "higher"),
    m("quality.legal_pipeline", "frac", "higher"),
    m("quality.enron_extract", "frac", "higher"),
    m("quality.enron_map", "frac", "higher"),
    m("quality.live_legal", "frac", "higher"),
    m("quality.live_enron", "frac", "higher"),
    m("quality.live_plan", "frac", "higher"),
    m("bench.attempted", "count", "higher"),
    m("bench.succeeded", "count", "higher"),
    m("bench.failed", "count", "lower"),
    m("bench.refused", "count", "lower"),
    m("bench.error_rate", "frac", "lower"),
    m("bench.pairs", "count", "higher"),
    m("bench.reconcile_error_pct", "%", "lower"),
    m("bench.harness_gap_pct", "%", "lower"),
];

/// Per-layer values a pass computes from host time: reported as the
/// median over a run's traced passes. Every other value a pass reports
/// is a count or a virtual quantity and must repeat exactly.
pub const HOST_LAYERS: &[&str] = &[
    "semops.rows_per_s",
    "serve.dispatch_ms",
    "serve.source_ms_per_query",
];

/// The declaration of `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
