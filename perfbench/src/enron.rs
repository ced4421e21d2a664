//! `semops_enron`: seeded semantic-operator pipelines (mention filter →
//! firsthand filter → extraction or map, each step on a seeded model
//! tier) built with `Dataset` from the email Context and run by
//! `Executor::execute` on the cached runtime environment over the 250
//! emails. Per-item `llm` calls, key hashing and cache probes dominate;
//! `agents`, `script`, the tool registry and `serve` stay idle, so this
//! is the bypass workload for agentic-layer changes.

use crate::counters::RuntimeSums;
use crate::host::HostTrace;
use crate::mix::{enron_stream, EnronPipeline, Tail, ENRON_PIPELINES};
use crate::stats::ratio;
use crate::{limits, PassOutput, QueryRecord, Tally, Workload, FAULT_RATE, HOST_THREADS};
use aida_core::{Context, Runtime};
use aida_data::Field;
use aida_eval::f1_score;
use aida_llm::ModelId;
use aida_semops::{Dataset, Executor, PhysicalPlan};
use aida_synth::enron;
use std::fmt::Write;
use std::ops::Range;

/// The semops_enron workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemopsEnron;

/// The pipeline's logical plan over `ctx`'s dataset, bound to its
/// tiers (the scan's tier is unused).
pub fn physical_plan(ctx: &Context, p: &EnronPipeline) -> PhysicalPlan {
    let filtered = ctx
        .dataset()
        .sem_filter(p.mention.clone())
        .sem_filter(p.firsthand.clone());
    let ds: Dataset = match p.tail {
        Tail::Sender => filtered.sem_extract(
            "extract the sender email address",
            vec![Field::new("sender")],
        ),
        Tail::Subject => {
            filtered.sem_extract("extract the subject line", vec![Field::new("subject")])
        }
        Tail::Summary => {
            filtered.sem_map("write a one-sentence summary of the email", "summary", 60)
        }
    };
    let [a, b, c] = p.models;
    PhysicalPlan::with_models(ds.plan(), &[ModelId::Nano, a, b, c], HOST_THREADS)
}

impl Workload for SemopsEnron {
    fn name(&self) -> &'static str {
        "semops_enron"
    }

    fn limit_s(&self) -> f64 {
        limits::ENRON_S
    }

    fn pass(
        &self,
        seed: u64,
        traced: bool,
        _units: Range<usize>,
        host: &mut HostTrace,
    ) -> PassOutput {
        let mut out = PassOutput::default();
        let stream = enron_stream(seed, ENRON_PIPELINES);

        let setup = host.open("bench.setup");
        let (workload, _) = host.time("synth.generate", |_| enron::generate(seed));
        let (rt, _) = host.time("core.runtime_build", |_| {
            let rt = Runtime::builder()
                .seed(seed)
                .semantic_cache(1 << 16)
                .fault_rate(FAULT_RATE)
                .tracing(traced)
                .build();
            workload.install_oracle(&rt.env().llm);
            rt
        });
        let (ctx, _) = host.time("core.context_build", |_| {
            Context::builder("enron", workload.lake.clone())
                .description(workload.description.clone())
                .with_vector_index()
                .build(&rt)
        });
        let truth = workload.truth.as_doc_set().unwrap_or_default().to_vec();
        out.setups_s.push(host.close(setup));
        out.phases.insert(
            "setup",
            Tally {
                attempted: 1,
                succeeded: 1,
                ..Tally::default()
            },
        );

        let phase = host.open("bench.queries");
        let mut tally = Tally::default();
        let executor = Executor::new(rt.env());
        let (mut rows_in, mut rows_out, mut calls) = (0usize, 0usize, 0usize);
        let mut execute_s = 0.0;
        for p in &stream {
            let plan = physical_plan(&ctx, p);
            let (report, host_s) = host.time("semops.execute", |_| executor.execute(&plan));
            execute_s += host_s;
            let returned: Vec<&str> = report.records.iter().map(|r| r.source.as_str()).collect();
            // Every surviving record must be an email of the lake and
            // carry the tail's output column (a cheap tier may leave its
            // value null; that costs quality, not correctness).
            let well_formed = report
                .records
                .iter()
                .all(|r| ctx.lake().get(&r.source).is_some() && r.get(p.tail.column()).is_some());
            tally.record(well_formed);
            if !well_formed {
                out.issues
                    .push(format!("malformed output from {:?}", p.firsthand));
            }
            if let Some(scan) = report.stats.operators.first() {
                rows_in += scan.rows_out;
            }
            rows_out += report.records.len();
            calls += report.stats.total_calls();
            let _ = writeln!(
                out.digest,
                "{}\t{}\t{:?}\t{}\t{:016x}\t{:016x}",
                p.class,
                p.firsthand,
                p.models,
                returned.join(","),
                report.cost().to_bits(),
                report.time().to_bits()
            );
            let truth_refs: Vec<&str> = truth.iter().map(String::as_str).collect();
            out.queries.push(QueryRecord {
                class: p.class,
                host_s,
                virtual_s: report.time(),
                usd: report.cost(),
                completed: well_formed,
                score: f1_score(&returned, &truth_refs).f1,
            });
        }
        out.query_phase_s = host.close(phase);
        out.phases.insert("queries", tally);

        let check = host.open("bench.check");
        out.layers
            .insert("semops.rows_per_s", ratio(rows_in as f64, execute_s));
        out.layers
            .insert("semops.calls_per_row", ratio(calls as f64, rows_in as f64));
        out.layers
            .insert("semops.selectivity", ratio(rows_out as f64, rows_in as f64));
        let mut sums = RuntimeSums::default();
        sums.add(&rt, host);
        sums.write(stream.len(), &mut out.layers);
        host.close(check);
        out
    }
}
