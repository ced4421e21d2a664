//! Golden execution reports for the semantic-operator executor.
//!
//! A fixed corpus of plans runs over a small lake that mixes HTML (tags,
//! entities, a table, non-ASCII text), CSV, plain text and email
//! documents, once with the semantic cache off and once with it on. For
//! every plan the test renders the output records (every field, in
//! order, with its exact value), the per-operator statistics (dollar and
//! second bit patterns included), the usage-meter totals and, with the
//! cache on, the cache counters. The rendering is compared with
//! `tests/golden/exec.txt`, so a change to how the executor reads,
//! hashes, deduplicates or materializes documents that moves any answer,
//! bill or hit count fails here.
//!
//! Set `SEMOPS_GOLDEN_BLESS=1` to rewrite the golden file after an
//! intended change, and review the diff.

use aida_data::{DataLake, Document, Field};
use aida_llm::{ModelId, SemanticCache, SimLlm};
use aida_semops::{Dataset, ExecEnv, Executor, PhysicalPlan};
use std::fmt::Write as _;
use std::path::PathBuf;

fn lake() -> DataLake {
    DataLake::from_docs([
        Document::new(
            "q3_report.html",
            "<html><head><title>Q3 &amp; fraud</title></head><body>\
             <h1>Identity theft &mdash; Q3 review</h1>\
             <p>Reports of identity theft rose 12% in the café sector; \
             the Raptor hedge is &lt;unwound&gt;.</p>\
             <table><tr><th>year</th><th>reports</th></tr>\
             <tr><td>2023</td><td>1035291</td></tr>\
             <tr><td>2024</td><td>1135291</td></tr></table></body></html>",
        )
        .with_label("difficulty", 0.2),
        Document::new(
            "thefts.csv",
            "year,identity_theft_reports\n2001,86250\n2005,200000\n2024,1135291\n",
        )
        .with_label("difficulty", 0.0),
        Document::new(
            "m1.eml",
            "From: jeff.skilling@enron.com\nTo: board@enron.com\n\
             Subject: Raptor position\n\n\
             We need to discuss the Raptor hedge before the close; the \
             LJM2 exposure is larger than reported.",
        )
        .with_label("relevant", true)
        .with_label("difficulty", 0.3),
        Document::new(
            "m2.eml",
            "From: kay.mann@enron.com\nSubject: Lunch\n\n\
             Lunch on Friday? The café on Louisiana St. has reopened.",
        )
        .with_label("relevant", false)
        .with_label("difficulty", 0.1),
        Document::new(
            "m3.eml",
            "From: andrew.fastow@enron.com\nSubject: FW: news article\n\n\
             Forwarding the Journal piece that mentions Chewco and the \
             identity of its investors — secondhand, but worth a read.",
        )
        .with_label("relevant", true)
        .with_label("difficulty", 0.8),
        Document::new(
            "notes.txt",
            "Meeting notes: pipeline maintenance schedule, gas storage \
             levels, and a reminder about the fraud-awareness training.",
        ),
        Document::new("empty.txt", ""),
        Document::new(
            "dup.txt",
            "Meeting notes: pipeline maintenance schedule, gas storage \
             levels, and a reminder about the fraud-awareness training.",
        ),
    ])
}

/// The plan corpus: a name, the dataset, and the model every semantic
/// step runs on.
fn plans(lake: &DataLake) -> Vec<(&'static str, Dataset, ModelId)> {
    let scan = Dataset::scan(lake, "mixed");
    let mention = "mentions fraud, theft or the Raptor hedge";
    vec![
        ("scan", scan.clone(), ModelId::Flagship),
        ("scan_filter", scan.sem_filter(mention), ModelId::Nano),
        (
            "filter_filter",
            scan.sem_filter(mention)
                .sem_filter("is a firsthand account by the sender"),
            ModelId::Mini,
        ),
        (
            "filter_extract",
            scan.sem_filter(mention).sem_extract(
                "extract the sender and the subject line",
                vec![
                    Field::described("sender", "the sender email address"),
                    Field::described("subject", "the subject line"),
                ],
            ),
            ModelId::Mini,
        ),
        (
            "filter_map",
            scan.sem_filter(mention)
                .sem_map("write a one-sentence summary", "summary", 24),
            ModelId::Nano,
        ),
        ("limit", scan.limit(3), ModelId::Flagship),
        (
            "filter_limit",
            scan.sem_filter(mention).limit(2),
            ModelId::Flagship,
        ),
        (
            "filter_project",
            scan.sem_filter(mention).project(&["filename"]),
            ModelId::Nano,
        ),
        (
            "project_contents",
            scan.project(&["contents", "filename"]),
            ModelId::Flagship,
        ),
        (
            "topk",
            scan.sem_topk("identity theft reports by year", 3),
            ModelId::Flagship,
        ),
        (
            "groupby",
            scan.sem_group_by("the topic of the document", 3),
            ModelId::Mini,
        ),
        (
            "agg",
            scan.sem_filter(mention)
                .sem_agg("summarize what these documents say about fraud"),
            ModelId::Flagship,
        ),
        (
            "filter_count",
            scan.sem_filter(mention).count(),
            ModelId::Nano,
        ),
        (
            "join_filter",
            scan.limit(4)
                .sem_join(
                    "the left item mentions identity theft, fraud or the Raptor hedge",
                    &scan.limit(2),
                )
                .sem_filter("mentions identity theft"),
            ModelId::Flagship,
        ),
        (
            // Rows without `contents` are read as their rendered fields,
            // so the joined rows of one source differ per right match.
            "project_join_filter",
            scan.project(&["filename"])
                .limit(3)
                .sem_join(
                    "the left item mentions identity theft, fraud or the Raptor hedge",
                    &scan.limit(3),
                )
                .sem_filter("mentions identity theft"),
            ModelId::Flagship,
        ),
    ]
}

fn render(out: &mut String, cache_on: bool) {
    let lake = lake();
    let mut llm = SimLlm::new(11).with_fault_rate(0.1);
    if cache_on {
        llm = llm.with_cache(SemanticCache::with_capacity(1 << 10));
    }
    let env = ExecEnv::new(llm);
    let executor = Executor::new(&env);
    for (name, ds, model) in plans(&lake) {
        let plan = PhysicalPlan::uniform(ds.plan(), model, 2);
        let report = executor.execute(&plan);
        let _ = writeln!(
            out,
            "== cache={} plan={name}",
            if cache_on { "on" } else { "off" }
        );
        for op in &report.stats.operators {
            let _ = writeln!(
                out,
                "op {} model={} in={} out={} calls={} usd={:016x} s={:016x}",
                op.op,
                op.model.as_deref().unwrap_or("-"),
                op.rows_in,
                op.rows_out,
                op.calls,
                op.cost_usd.to_bits(),
                op.time_s.to_bits()
            );
        }
        for rec in &report.records {
            let _ = write!(out, "rec {}", rec.source);
            for (field, value) in rec.iter() {
                let _ = write!(out, " | {field}={value:?}");
            }
            out.push('\n');
        }
        for warning in &report.warnings {
            let _ = writeln!(out, "warn {warning}");
        }
        let meter = env.llm.meter().snapshot();
        let _ = writeln!(
            out,
            "meter calls={} tokens={} usd={:016x} clock={:016x}",
            meter.total_calls(),
            meter.total_tokens(),
            meter.cost(env.llm.catalog()).to_bits(),
            env.clock.now().to_bits()
        );
        if let Some(cache) = env.llm.cache() {
            let stats = cache.stats();
            let _ = writeln!(
                out,
                "cache hits={} misses={} coalesced={} plan_hits={}",
                stats.hits, stats.misses, stats.coalesced, stats.plan_hits
            );
        }
    }
}

#[test]
fn execution_reports_match_golden() {
    let mut out = String::new();
    render(&mut out, false);
    render(&mut out, true);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exec.txt");
    if std::env::var_os("SEMOPS_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    if golden != out {
        let first = golden
            .lines()
            .zip(out.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(golden.lines().count().min(out.lines().count()));
        panic!(
            "execution reports diverge from tests/golden/exec.txt at line {}:\n  golden: {:?}\n  actual: {:?}",
            first + 1,
            golden.lines().nth(first),
            out.lines().nth(first)
        );
    }
}
