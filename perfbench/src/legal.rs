//! `agentic_legal`: one closed-loop client sends the seeded stream of
//! count and ratio questions (some behind a `search`) through
//! `Runtime::query` over the 132-file legal lake, with Context reuse
//! and the semantic cache on. It runs the agentic operators end to end
//! — `core` ops and the ContextManager, `agents` steps with their tool
//! registry and keyword index, `script` compile and VM, and program
//! synthesis — and touches no `serve`, WAL or network code.
//!
//! The stream is cut into sessions of [`crate::mix::SESSION_QUERIES`] questions,
//! each on a fresh runtime over one of the pass's lake instances.
//! Within a session, later questions reuse the Contexts and cached
//! calls of earlier ones; each session's first question runs on the
//! full lake. Sessions keep novel work in every pass, keep one early
//! misleading materialization from steering a whole pass, and let one
//! run average over many lake and simulator instances.

use crate::counters::RuntimeSums;
use crate::host::HostTrace;
use crate::mix::{lake_seed, legal_sessions};
use crate::{limits, PassOutput, QueryRecord, Tally, Workload, FAULT_RATE, HOST_THREADS};
use aida_core::{Context, Runtime};
use aida_optimizer::OptimizerConfig;
use aida_synth::legal;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::ops::Range;

/// The agentic_legal workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgenticLegal;

/// A session's runtime: semantic cache and Context reuse on, plan
/// parallelism within the host's CPUs.
fn session_runtime(seed: u64, traced: bool) -> Runtime {
    Runtime::builder()
        .seed(seed)
        .semantic_cache(4096)
        .fault_rate(FAULT_RATE)
        .optimizer(OptimizerConfig {
            parallelism: HOST_THREADS,
            ..OptimizerConfig::default()
        })
        .tracing(traced)
        .build()
}

impl Workload for AgenticLegal {
    fn name(&self) -> &'static str {
        "agentic_legal"
    }

    fn limit_s(&self) -> f64 {
        limits::LEGAL_S
    }

    fn units(&self) -> usize {
        crate::mix::LEGAL_SESSIONS
    }

    fn pass(
        &self,
        seed: u64,
        traced: bool,
        units: Range<usize>,
        host: &mut HostTrace,
    ) -> PassOutput {
        let mut out = PassOutput::default();
        let sessions = &legal_sessions(seed)[units];

        // Set-up: the lake instances these sessions query, each with its
        // Context (vector index included).
        let mut lakes: BTreeMap<usize, Context> = BTreeMap::new();
        for lake in sessions.iter().map(|s| s.lake) {
            if lakes.contains_key(&lake) {
                continue;
            }
            let setup = host.open("bench.setup");
            let (workload, _) =
                host.time("synth.generate", |_| legal::generate(lake_seed(seed, lake)));
            // The index embeds with the runtime's deterministic embedder,
            // so a Context serves every session's runtime.
            let (ctx, _) = host.time("core.context_build", |_| {
                let rt = Runtime::builder().seed(seed).build();
                Context::builder("legal", workload.lake.clone())
                    .description(workload.description.clone())
                    .with_vector_index()
                    .build(&rt)
            });
            lakes.insert(lake, ctx);
            out.setups_s.push(host.close(setup));
        }
        out.phases.insert(
            "setup",
            Tally {
                attempted: lakes.len() as u64,
                succeeded: lakes.len() as u64,
                ..Tally::default()
            },
        );

        let phase = host.open("bench.queries");
        let mut tally = Tally::default();
        let mut sums = RuntimeSums::default();
        let mut check_s = 0.0;
        for session in sessions {
            let ctx = &lakes[&session.lake];
            let (rt, _) = host.time("core.runtime_build", |_| {
                let rt = session_runtime(session.seed, traced);
                legal::register_oracle(&rt.env().llm);
                rt
            });
            for q in &session.queries {
                let (outcome, host_s) = host.time("core.query", |_| {
                    let mut query = rt.query(ctx);
                    if let Some(search) = &q.search {
                        query = query.search(search.clone());
                    }
                    query.compute(q.compute.clone()).run()
                });
                // The runtime always returns an outcome; a missing or
                // wrong answer costs quality, not success.
                tally.record(true);
                let answer = outcome.answer.as_ref().and_then(|v| v.as_float().ok());
                let _ = writeln!(
                    out.digest,
                    "{}\t{}\t{:?}\t{:016x}\t{:016x}",
                    q.class,
                    q.compute,
                    outcome.answer.as_ref().map(|v| v.to_string()),
                    outcome.cost.to_bits(),
                    outcome.time.to_bits()
                );
                out.queries.push(QueryRecord {
                    class: q.class,
                    host_s,
                    virtual_s: outcome.time,
                    usd: outcome.cost,
                    completed: true,
                    score: if q.ask.accepts(answer) { 1.0 } else { 0.0 },
                });
            }
            check_s += host.time("bench.check", |host| sums.add(&rt, host)).1;
        }
        out.query_phase_s = host.close(phase) - check_s;
        out.phases.insert("queries", tally);
        sums.write(out.queries.len(), &mut out.layers);
        out
    }
}
