//! Host-time benchmark for the AIDA runtime.
//!
//! Three workloads drive the runtime's crates through their public API
//! — `agentic_legal`, `semops_enron` and `serve_live` — and report
//! end-to-end metrics (host time measured with tracing off, virtual
//! dollars and seconds, answer quality) or, in a traced run, per-layer
//! metrics from the benchmark's own spans and the counters the program
//! already exposes. See `perfbench/README.md`.

pub mod catalog;
pub mod counters;
pub mod enron;
pub mod host;
pub mod legal;
pub mod live;
pub mod mix;
pub mod output;
pub mod run;
pub mod source;
pub mod stats;

use std::collections::BTreeMap;
use std::ops::Range;

/// Fixed virtual-latency limits for `goodput_frac`, in simulated
/// seconds per query.
pub mod limits {
    /// agentic_legal: one agentic pipeline.
    pub const LEGAL_S: f64 = 120.0;
    /// semops_enron: one three-step semantic pipeline.
    pub const ENRON_S: f64 = 60.0;
    /// serve_live: submit to completion, queue wait included.
    pub const LIVE_S: f64 = 300.0;
}

/// Transient-fault rate injected into every simulated LLM call. Faults
/// are retried inside the simulator (billed, never visible in answers),
/// so `llm.fault_retries` has work to count.
pub const FAULT_RATE: f64 = 0.01;

/// Plan parallelism and the service's worker ceiling, sized for a
/// two-CPU host so the benchmark's threads never outnumber its CPUs.
pub const HOST_THREADS: usize = 2;

/// One query's outcome.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Query class, for per-class quality.
    pub class: &'static str,
    /// Host seconds the query took.
    pub host_s: f64,
    /// Simulated seconds the query took.
    pub virtual_s: f64,
    /// Simulated dollars the query spent.
    pub usd: f64,
    /// Whether it completed (not failed, refused or abandoned).
    pub completed: bool,
    /// Answer quality in `[0, 1]` against synth ground truth.
    pub score: f64,
}

/// Attempted, succeeded, failed and refused operations of one phase.
/// A refusal is a by-design rejection (the quota-capped tenant's
/// sheds); a failure is anything else that did not succeed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Operations refused by design.
    pub refused: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    /// Whether every attempt is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.attempted == self.succeeded + self.failed + self.refused
    }
}

/// Everything one pass (set-up plus one stream) produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Per-query outcomes in stream order.
    pub queries: Vec<QueryRecord>,
    /// Host seconds of each set-up the pass performed (one per lake
    /// instance or service).
    pub setups_s: Vec<f64>,
    /// Host seconds of the query phase, bookkeeping spans excluded.
    pub query_phase_s: f64,
    /// The pass's virtual outputs (answers, dollar and second bit
    /// patterns). Two passes of one seed must match byte for byte.
    pub digest: String,
    /// Tallies by phase.
    pub phases: BTreeMap<&'static str, Tally>,
    /// Per-layer values this pass measured (counts are exact; the
    /// traced pass's are reported).
    pub layers: BTreeMap<&'static str, f64>,
    /// Correctness problems found by the pass's own checks.
    pub issues: Vec<String>,
}

impl PassOutput {
    /// The query-phase tally.
    pub fn queries_tally(&self) -> Tally {
        self.phases.get("queries").copied().unwrap_or_default()
    }
}

/// A workload: one pass = a fresh set-up plus the seeded stream.
pub trait Workload {
    /// The workload's name on the command line.
    fn name(&self) -> &'static str;
    /// Virtual latency limit for `goodput_frac`.
    fn limit_s(&self) -> f64;
    /// Independent units the stream splits into (sessions, each with
    /// its own runtime); 1 when the whole stream shares one runtime.
    fn units(&self) -> usize {
        1
    }
    /// Runs one pass over the stream's units in `units`: their set-up,
    /// then their queries. `traced` turns the runtime's recorder on and
    /// fills the per-layer counters that need it.
    fn pass(
        &self,
        seed: u64,
        traced: bool,
        units: Range<usize>,
        host: &mut host::HostTrace,
    ) -> PassOutput;
}

/// The workload named `name`.
pub fn workload(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "agentic_legal" => Some(Box::new(legal::AgenticLegal)),
        "semops_enron" => Some(Box::new(enron::SemopsEnron)),
        "serve_live" => Some(Box::new(live::ServeLive::default())),
        _ => None,
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
