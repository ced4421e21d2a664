//! Per-layer counts read from what the runtime already exposes: the
//! usage meter, `Runtime::reuse_stats`/`cache_stats`, the
//! ContextManager, and — in a traced pass — the recorder's spans and
//! `obs::registry` counters.

use crate::host::HostTrace;
use crate::stats::ratio;
use aida_core::Runtime;
use aida_obs::{registry, SpanKind};
use std::collections::BTreeMap;

/// Totals of the `core.*`, `agents.*`, `llm.*` and `obs.*` counts over
/// the runtimes of one pass (one per session or service).
#[derive(Debug, Default)]
pub struct RuntimeSums {
    calls: u64,
    tokens: u64,
    reuse_hits: u64,
    reuse_lookups: u64,
    evictions: u64,
    cache_hits: u64,
    cache_lookups: u64,
    cache_bytes: u64,
    traced: bool,
    query_spans: u64,
    op_spans: u64,
    step_spans: u64,
    planning_calls: u64,
    spans: u64,
    fault_retries: u64,
    checkpoint_saves: u64,
    checkpoint_bytes: u64,
}

impl RuntimeSums {
    /// Adds one runtime's counts. With its recorder on, also exports the
    /// trace (timed as `obs.export`) and reads its spans and counters.
    pub fn add(&mut self, rt: &Runtime, host: &mut HostTrace) {
        let usage = rt.meter().snapshot();
        self.calls += usage.total_calls();
        self.tokens += usage.total_tokens();
        let (hits, misses) = rt.reuse_stats();
        self.reuse_hits += hits;
        self.reuse_lookups += hits + misses;
        self.evictions += rt.manager().evictions();
        if let Some(cache) = rt.cache_stats() {
            self.cache_hits += cache.hits + cache.coalesced;
            self.cache_lookups += cache.lookups();
            self.cache_bytes += cache.bytes;
        }
        if !rt.recorder().is_enabled() {
            return;
        }
        self.traced = true;
        let (jsonl, _) = host.time("obs.export", |_| rt.recorder().export_jsonl());
        std::hint::black_box(jsonl);
        let trace = rt.recorder().trace();
        for span in &trace.spans {
            match span.kind {
                SpanKind::Query => self.query_spans += 1,
                SpanKind::AgenticOp => self.op_spans += 1,
                // Planning calls are the LLM calls billed on the
                // agent-step spans themselves; calls of the programs a
                // step runs land on the child program and operator spans.
                SpanKind::AgentStep => {
                    self.step_spans += 1;
                    self.planning_calls += span.calls;
                }
                _ => {}
            }
        }
        self.spans += trace.spans.len() as u64;
        let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
        self.fault_retries += counter(registry::LLM_FAULT_RETRIES);
        self.checkpoint_saves += counter(registry::CHECKPOINT_SAVES);
        self.checkpoint_bytes += counter(registry::CHECKPOINT_BYTES);
    }

    /// Writes the per-layer values for a pass of `queries` queries.
    pub fn write(&self, queries: usize, layers: &mut BTreeMap<&'static str, f64>) {
        let n = queries as f64;
        let f = |v: u64| v as f64;
        layers.insert("llm.calls_per_query", ratio(f(self.calls), n));
        layers.insert("llm.tokens_per_query", ratio(f(self.tokens), n));
        layers.insert(
            "core.reuse_hit_ratio",
            ratio(f(self.reuse_hits), f(self.reuse_lookups)),
        );
        layers.insert("core.evictions", f(self.evictions));
        layers.insert(
            "llm.cache_hit_ratio",
            ratio(f(self.cache_hits), f(self.cache_lookups)),
        );
        layers.insert("llm.cache_bytes", f(self.cache_bytes));
        if !self.traced {
            return;
        }
        layers.insert(
            "core.ops_per_query",
            ratio(f(self.op_spans), f(self.query_spans)),
        );
        layers.insert(
            "agents.steps_per_op",
            ratio(f(self.step_spans), f(self.op_spans)),
        );
        layers.insert("agents.planning_calls", ratio(f(self.planning_calls), n));
        layers.insert("llm.fault_retries", f(self.fault_retries));
        layers.insert("core.checkpoint_saves", f(self.checkpoint_saves));
        layers.insert("core.checkpoint_bytes", f(self.checkpoint_bytes));
        layers.insert("obs.trace_spans", f(self.spans));
    }
}
