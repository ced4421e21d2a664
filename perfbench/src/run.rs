//! One benchmark run: repeated passes of a workload until the measured
//! time is used, then the metrics.
//!
//! * `--trace 0` runs untraced passes (each a fresh set-up plus the
//!   seeded stream) for `--seconds`, at least [`MIN_PASSES`] of them,
//!   and reports the end-to-end metrics: host times pooled over every
//!   pass, virtual and quality metrics from the stream (identical in
//!   every pass, which is checked).
//! * `--trace 1` runs alternating untraced/traced pass pairs, at least
//!   [`MIN_PAIRS`] and until `--seconds` is used, and reports the
//!   per-layer metrics, the recorder's overhead per pair, and whether
//!   the spans account for the run's wall time.

use crate::catalog::{self, HOST_LAYERS};
use crate::host::HostTrace;
use crate::output::RunResult;
use crate::stats::{mean, median, percentile, quartiles, ratio};
use crate::{peak_rss_mb, PassOutput, Tally, Workload};
use std::collections::BTreeMap;
use std::ops::Range;

/// Fewest untraced passes: `setup_s` is a median over set-ups.
pub const MIN_PASSES: usize = 3;
/// Fewest traced/untraced pairs behind `obs.trace_overhead_pct`.
pub const MIN_PAIRS: usize = 7;

/// The command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is outside (0, 600]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Runs one pass over `units` inside a `bench.pass` span.
fn pass(
    w: &dyn Workload,
    seed: u64,
    traced: bool,
    units: Range<usize>,
    host: &mut HostTrace,
) -> PassOutput {
    let id = host.open("bench.pass");
    let out = w.pass(seed, traced, units, host);
    host.close(id);
    out
}

/// Checks `p` against the reference pass: identical virtual outputs,
/// balanced tallies, no issues of its own.
fn check_pass(p: &PassOutput, reference: &str, label: &str, issues: &mut Vec<String>) {
    if p.digest != reference {
        issues.push(format!(
            "{label}: virtual outputs differ from the first pass of this seed"
        ));
    }
    for (phase, t) in &p.phases {
        if !t.balanced() {
            issues.push(format!("{label}: phase {phase} does not balance: {t:?}"));
        }
    }
    issues.extend(p.issues.iter().map(|i| format!("{label}: {i}")));
}

fn tally_all(passes: &[&PassOutput], result: &mut RunResult) -> BTreeMap<&'static str, Tally> {
    let mut phases: BTreeMap<&'static str, Tally> = BTreeMap::new();
    for p in passes {
        for (phase, t) in &p.phases {
            phases.entry(phase).or_default().add(*t);
        }
    }
    for t in phases.values() {
        result.attempted += t.attempted;
        result.failed += t.failed;
    }
    phases
}

/// Renders the failure accounting: per phase, summed over passes.
pub fn render_phases(phases: &BTreeMap<&'static str, Tally>) -> String {
    let mut out = String::new();
    for (phase, t) in phases {
        out.push_str(&format!(
            "  phase {phase:<10} attempted {:>6}  succeeded {:>6}  failed {:>4}  refused {:>4}\n",
            t.attempted, t.succeeded, t.failed, t.refused
        ));
    }
    out
}

/// Per-class quality of one pass.
pub fn class_quality(p: &PassOutput) -> BTreeMap<&'static str, f64> {
    let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for q in &p.queries {
        by_class.entry(q.class).or_default().push(q.score);
    }
    by_class.into_iter().map(|(c, s)| (c, mean(&s))).collect()
}

/// The stream-level metrics of one pass: dollars, virtual seconds,
/// quality, success and goodput. They depend only on the seed.
fn stream_metrics(w: &dyn Workload, p: &PassOutput, result: &mut RunResult) {
    let done: Vec<_> = p.queries.iter().filter(|q| q.completed).collect();
    let tally = p.queries_tally();
    let usd: f64 = p.queries.iter().map(|q| q.usd).sum();
    result.set("usd_per_query", ratio(usd, done.len() as f64));
    let virtual_s: Vec<f64> = done.iter().map(|q| q.virtual_s).collect();
    result.set("virtual_s_p50", median(&virtual_s).unwrap_or(0.0));
    match percentile(&virtual_s, 90.0) {
        Ok(v) => result.set("virtual_s_p90", v),
        Err(e) => result.issues.push(format!("virtual_s_p90: {e}")),
    }
    let scores: Vec<f64> = p.queries.iter().map(|q| q.score).collect();
    result.set("quality", mean(&scores));
    result.set(
        "success_rate",
        ratio(tally.succeeded as f64, tally.attempted as f64),
    );
    let good = done.iter().filter(|q| q.virtual_s <= w.limit_s()).count();
    result.set("goodput_frac", ratio(good as f64, tally.attempted as f64));
}

/// The untraced run: end-to-end metrics.
pub fn measure(w: &dyn Workload, args: &Args, host: &mut HostTrace) -> (RunResult, String) {
    let start = host.now();
    let mut passes: Vec<PassOutput> = Vec::new();
    while passes.len() < MIN_PASSES || host.now() - start < args.seconds {
        passes.push(pass(w, args.seed, false, 0..w.units(), host));
    }
    let mut result = RunResult::default();
    let reference = passes[0].digest.clone();
    for (i, p) in passes.iter().enumerate() {
        check_pass(p, &reference, &format!("pass {i}"), &mut result.issues);
    }
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setups_s.iter().copied())
        .collect();
    result.set("setup_s", median(&setups).unwrap_or(0.0));
    let host_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.queries.iter().filter(|q| q.completed).map(|q| q.host_s))
        .collect();
    result.set("query_ms_p50", median(&host_s).unwrap_or(0.0) * 1e3);
    match percentile(&host_s, 90.0) {
        Ok(v) => result.set("query_ms_p90", v * 1e3),
        Err(e) => result.issues.push(format!("query_ms_p90: {e}")),
    }
    let phase_s: f64 = passes.iter().map(|p| p.query_phase_s).sum();
    result.set("host_qps", ratio(host_s.len() as f64, phase_s));
    result.set("peak_rss_mb", peak_rss_mb());
    stream_metrics(w, &passes[0], &mut result);
    let refs: Vec<&PassOutput> = passes.iter().collect();
    let phases = tally_all(&refs, &mut result);

    let mut report = format!(
        "{} seed {}: {} untraced passes, {} timed queries ({} per pass)\n",
        w.name(),
        args.seed,
        passes.len(),
        host_s.len(),
        passes[0].queries.len()
    );
    report.push_str(&render_phases(&phases));
    report.push_str(&render_sheds(&passes[0]));
    for (class, q) in class_quality(&passes[0]) {
        report.push_str(&format!("  quality {class:<16} {q:.4}\n"));
    }
    report.push_str(&result.render(catalog::END_TO_END));
    (result, report)
}

fn render_sheds(p: &PassOutput) -> String {
    let sheds: Vec<String> = p
        .layers
        .iter()
        .filter(|(k, v)| k.starts_with("serve.sheds.") && **v > 0.0)
        .map(|(k, v)| format!("{}={v}", &k["serve.sheds.".len()..]))
        .collect();
    match p.layers.get("serve.clients_abandoned") {
        Some(abandoned) => format!(
            "  sheds by reason: {} | clients abandoned: {abandoned}\n",
            if sheds.is_empty() {
                "none".to_string()
            } else {
                sheds.join(" ")
            }
        ),
        None => String::new(),
    }
}

/// The traced run: per-layer metrics, recorder overhead, and the
/// reconciliation of span self times against wall time.
pub fn profile(w: &dyn Workload, args: &Args, host: &mut HostTrace) -> (RunResult, String) {
    let start = host.now();
    let mut result = RunResult::default();
    // The first pair runs the whole stream: its traced pass gives the
    // per-layer counts. Later pairs run one unit each (the whole stream
    // when it is one unit), cycling through the units.
    let all = 0..w.units();
    let mut reference: Option<String> = None;
    let mut traced_passes: Vec<PassOutput> = Vec::new();
    let mut untraced_passes: Vec<PassOutput> = Vec::new();
    let mut traced_spans: Vec<(usize, usize)> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();
    while overheads.len() < MIN_PAIRS || host.now() - start < args.seconds {
        let k = overheads.len();
        let units = if k == 0 || all.len() == 1 {
            all.clone()
        } else {
            let u = (k - 1) % all.len();
            u..u + 1
        };
        // Alternate which side of the pair runs first.
        let traced_first = k % 2 == 1;
        let mut pair: [Option<PassOutput>; 2] = [None, None];
        for traced in [traced_first, !traced_first] {
            let from = host.spans().len();
            let p = pass(w, args.seed, traced, units.clone(), host);
            if traced {
                traced_spans.push((from, host.spans().len()));
            }
            pair[usize::from(traced)] = Some(p);
        }
        let [Some(untraced), Some(traced)] = pair else {
            unreachable!("both sides of the pair ran");
        };
        let label = format!("pair {k}");
        let pair_reference = if units == all {
            reference
                .get_or_insert_with(|| untraced.digest.clone())
                .clone()
        } else {
            untraced.digest.clone()
        };
        check_pass(
            &untraced,
            &pair_reference,
            &format!("{label} untraced"),
            &mut result.issues,
        );
        check_pass(
            &traced,
            &pair_reference,
            &format!("{label} traced"),
            &mut result.issues,
        );
        overheads
            .push(100.0 * (traced.query_phase_s - untraced.query_phase_s) / untraced.query_phase_s);
        if units == all {
            traced_passes.push(traced);
        }
        untraced_passes.push(untraced);
    }

    // Counts and virtual quantities repeat exactly; host-time layers are
    // medians over the traced passes.
    let first = &traced_passes[0];
    for (name, value) in &first.layers {
        if HOST_LAYERS.contains(name) {
            let values: Vec<f64> = traced_passes
                .iter()
                .filter_map(|p| p.layers.get(name))
                .copied()
                .collect();
            result.set(name, median(&values).unwrap_or(0.0));
        } else {
            if traced_passes
                .iter()
                .any(|p| p.layers.get(name) != Some(value))
            {
                result
                    .issues
                    .push(format!("count {name} differs between traced passes"));
            }
            result.set(name, *value);
        }
    }
    let spans_named = |name: &str| -> Vec<f64> {
        traced_spans
            .iter()
            .flat_map(|&(from, to)| {
                host.spans()[from..to]
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_s * 1e3)
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    for (metric, span) in [
        ("synth.generate_ms", "synth.generate"),
        ("core.context_build_ms", "core.context_build"),
        ("core.query_ms", "core.query"),
        ("core.save_state_ms", "core.save_state"),
        ("semops.execute_ms", "semops.execute"),
        ("serve.wal_recovery_ms", "serve.wal_recovery"),
        ("obs.export_ms", "obs.export"),
    ] {
        result.set(metric, median(&spans_named(span)).unwrap_or(0.0));
    }
    let virtual_s: Vec<f64> = first.queries.iter().map(|q| q.virtual_s).collect();
    result.set("llm.virtual_s_per_query", mean(&virtual_s));
    for (class, q) in class_quality(first) {
        result.set(&format!("quality.{class}"), q);
    }
    let t = first.queries_tally();
    result.set("bench.attempted", t.attempted as f64);
    result.set("bench.succeeded", t.succeeded as f64);
    result.set("bench.failed", t.failed as f64);
    result.set("bench.refused", t.refused as f64);
    result.set(
        "bench.error_rate",
        ratio((t.failed + t.refused) as f64, t.attempted as f64),
    );
    result.set("bench.pairs", overheads.len() as f64);
    let (q1, q2, q3) = quartiles(&overheads).unwrap_or_default();
    result.set("obs.trace_overhead_pct", q2);
    result.set("obs.trace_overhead_pct_q1", q1);
    result.set("obs.trace_overhead_pct_q3", q3);
    for def in catalog::PER_LAYER {
        // A layer this workload leaves idle reads 0.
        result.metrics.entry(def.name).or_insert(0.0);
    }

    let passes: Vec<&PassOutput> = traced_passes.iter().chain(&untraced_passes).collect();
    let phases = tally_all(&passes, &mut result);
    let rec = host.reconcile();
    result.set("bench.reconcile_error_pct", rec.error_pct());
    result.set("bench.harness_gap_pct", rec.gap_pct());
    if !rec.holds() {
        result
            .issues
            .push(format!("the spans do not account for the run: {rec:?}"));
    }

    let mut report = format!(
        "{} seed {}: {} traced/untraced pairs; recorder overhead median {q2:+.2}% \
         (quartiles {q1:+.2}% .. {q3:+.2}%)\n",
        w.name(),
        args.seed,
        overheads.len()
    );
    report.push_str(&render_phases(&phases));
    report.push_str(&render_sheds(first));
    report.push_str(&format!(
        "reconciliation: wall {:.3}s, span self times {:.3}s ({:.3}% off, tolerance {}%), \
         harness gaps {:.3}% (tolerance {}%)\n",
        rec.wall_s,
        rec.self_sum_s,
        rec.error_pct(),
        crate::host::RECONCILE_TOLERANCE_PCT,
        rec.gap_pct(),
        crate::host::GAP_TOLERANCE_PCT
    ));
    report.push_str(&host.render_layers());
    report.push_str(&result.render(catalog::PER_LAYER));
    (result, report)
}
