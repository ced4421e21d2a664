//! `serve_live`: a closed-loop client fleet goes over the simulated
//! transport (`NetSim`) through the wire protocol into a
//! `QueryService` with four tenants (dara quota-capped), both lakes, a
//! shared semantic cache, a bounded Context store, the latency-targeted
//! autoscaler and static cost-bound gating. Durable state — a
//! segmented ledger WAL with group commit, and interval checkpoints of
//! the ContextManager and cache — lives in a scratch directory inside
//! the working directory. It is the only workload that touches the
//! front door (wire codec, `Listener`, NetSim, client pump), WRR
//! admission, the tenant ledger, and WAL and checkpoint writes.

use crate::counters::RuntimeSums;
use crate::host::HostTrace;
use crate::mix::{live_units, LiveClient, LiveUnit, LIVE_UNITS};
use crate::source::TimedSource;
use crate::stats::{median, percentile, ratio};
use crate::{limits, PassOutput, QueryRecord, Tally, Workload, FAULT_RATE, HOST_THREADS};
use aida_core::{Context, Runtime};
use aida_llm::ModelId;
use aida_obs::SloPolicy;
use aida_optimizer::OptimizerConfig;
use aida_serve::{
    AutoscaleConfig, ClientConfig, LedgerWal, LiveSource, QueryService, ServeConfig, TenantConfig,
};
use aida_synth::{enron, legal};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Dollar quota of the capped tenant: enough for a few plans, so the
/// rest of its fleet is refused with `budget_exhausted` and abandons.
pub const CAPPED_USD: f64 = 0.05;
/// The quota-capped tenant.
pub const CAPPED_TENANT: &str = "dara";

/// Every shed kind the service can report, with its per-layer metric.
pub const SHED_METRICS: &[(&str, &str)] = &[
    ("budget_exhausted", "serve.sheds.budget_exhausted"),
    ("cost_bound_exceeded", "serve.sheds.cost_bound_exceeded"),
    ("deadline_expired", "serve.sheds.deadline_expired"),
    ("queue_full", "serve.sheds.queue_full"),
    ("tokens_exhausted", "serve.sheds.tokens_exhausted"),
    ("unknown_context", "serve.sheds.unknown_context"),
    ("unknown_tenant", "serve.sheds.unknown_tenant"),
];

/// Directory (relative to the working directory) holding each pass's
/// durable state; removed when the pass ends.
pub const SCRATCH_DIR: &str = ".perfbench_tmp";

/// The serve_live workload.
#[derive(Debug, Default)]
pub struct ServeLive {
    lifetimes: Cell<u64>,
}

/// The tenant set: acme (weight 2) and bolt on the legal lake, cora and
/// the quota-capped dara on the enron lake.
fn register_tenants(svc: &mut QueryService) {
    svc.register_tenant(
        "acme",
        TenantConfig::weighted(2)
            .p99_latency(1200.0)
            .usd_per_query(1.0),
    );
    svc.register_tenant(
        "bolt",
        TenantConfig::default()
            .p99_latency(1200.0)
            .usd_per_query(1.0),
    );
    svc.register_tenant(
        "cora",
        TenantConfig::default()
            .p99_latency(1200.0)
            .usd_per_query(1.0),
    );
    svc.register_tenant(
        CAPPED_TENANT,
        TenantConfig::default()
            .dollars(CAPPED_USD)
            .p99_latency(600.0)
            .usd_per_query(0.01),
    );
}

/// The service configuration: a pool autoscaled between one worker and
/// the host's CPU count, group commit, and cost-bound gating.
pub fn serve_config() -> ServeConfig {
    ServeConfig::with_workers(1)
        .health_window(60.0, 64)
        .slo_policy(SloPolicy {
            fast_window_s: 900.0,
            slow_window_s: 3600.0,
            ..SloPolicy::default()
        })
        .group_commit(8)
        .cost_bounds(ModelId::Flagship)
        .autoscale(
            AutoscaleConfig::new(1, HOST_THREADS, 60.0)
                .evaluate_every(30.0)
                .window(240.0)
                .cooldown(60.0),
        )
}

/// The wire-level client configs for a fleet.
pub fn client_configs(fleet: &[LiveClient]) -> Vec<ClientConfig> {
    fleet
        .iter()
        .map(|c| {
            ClientConfig::new(c.tenant, c.context)
                .instructions(c.instructions.clone())
                .queries(c.instructions.len())
                .think(20.0)
                .retries(3)
                .backoff(10.0)
                .start(c.start_s)
        })
        .collect()
}

/// The runtime and service of one pass, durable state under `dir`.
pub fn build_service(seed: u64, traced: bool, dir: &Path, host: &mut HostTrace) -> QueryService {
    let ((legal_w, enron_w), _) = host.time("synth.generate", |_| {
        (legal::generate(seed), enron::generate(seed))
    });
    let (rt, _) = host.time("core.runtime_build", |_| {
        let rt = Runtime::builder()
            .seed(seed)
            .context_capacity(24)
            .semantic_cache(4096)
            .fault_rate(FAULT_RATE)
            .optimizer(OptimizerConfig {
                parallelism: HOST_THREADS,
                ..OptimizerConfig::default()
            })
            .cache_path(dir.join("semcache.bin"))
            .state_path(dir.join("state.bin"))
            .checkpoint_interval(16)
            .delta_checkpoints(true)
            .tracing(traced)
            .build();
        legal_w.install_oracle(&rt.env().llm);
        enron_w.install_oracle(&rt.env().llm);
        rt
    });
    let (contexts, _) = host.time("core.context_build", |_| {
        let legal_ctx = Context::builder("legal", legal_w.lake.clone())
            .description(legal_w.description.clone())
            .with_vector_index()
            .build(&rt);
        let enron_ctx = Context::builder("enron", enron_w.lake.clone())
            .description(enron_w.description.clone())
            .with_vector_index()
            .build(&rt);
        (legal_ctx, enron_ctx)
    });
    let (svc, _) = host.time("serve.build", |_| {
        let mut svc = QueryService::new(rt, serve_config());
        svc.register_context("legal", contexts.0);
        svc.register_context("enron", contexts.1);
        register_tenants(&mut svc);
        svc
    });
    svc
}

fn open_wal(dir: &Path) -> LedgerWal {
    LedgerWal::open(dir.join("ledger.wal")).segment_records(32)
}

impl ServeLive {
    fn scratch(&self) -> PathBuf {
        let n = self.lifetimes.get();
        self.lifetimes.set(n + 1);
        Path::new(SCRATCH_DIR).join(format!("serve_live-{}-{n}", std::process::id()))
    }
}

/// Serve-layer totals over a pass's service lifetimes.
#[derive(Debug, Default)]
struct ServeSums {
    completions: usize,
    waits_s: Vec<f64>,
    dispatch_s: Vec<f64>,
    source_s: f64,
    worker_seconds: f64,
    scale_events: usize,
    sheds: BTreeMap<&'static str, u64>,
    clients_abandoned: u64,
    wal_fsyncs: u64,
    wal_appends: u64,
    frames_in: u64,
    bytes_in: u64,
    bytes_out: u64,
    plan_hash_hits: u64,
    wire_errors: u64,
    bounds_checked: u64,
    bounds_cache_hits: u64,
}

impl ServeSums {
    fn write(&self, layers: &mut BTreeMap<&'static str, f64>) {
        let n = self.completions as f64;
        let f = |v: u64| v as f64;
        layers.insert(
            "serve.dispatch_ms",
            median(&self.dispatch_s).unwrap_or(0.0) * 1e3,
        );
        layers.insert("serve.source_ms_per_query", ratio(self.source_s * 1e3, n));
        layers.insert(
            "serve.queue_wait_s_p50",
            median(&self.waits_s).unwrap_or(0.0),
        );
        // A single lifetime (a traced pair's unit) has too few samples
        // for a p90; the whole-stream pass reports it.
        if let Ok(p90) = percentile(&self.waits_s, 90.0) {
            layers.insert("serve.queue_wait_s_p90", p90);
        }
        layers.insert("serve.worker_seconds", self.worker_seconds);
        layers.insert("serve.scale_events", self.scale_events as f64);
        for (kind, metric) in SHED_METRICS {
            layers.insert(metric, f(self.sheds.get(kind).copied().unwrap_or(0)));
        }
        layers.insert("serve.clients_abandoned", f(self.clients_abandoned));
        layers.insert("serve.wal_fsyncs_per_query", ratio(f(self.wal_fsyncs), n));
        layers.insert("serve.wal_appends", f(self.wal_appends));
        layers.insert("serve.net_frames_in", f(self.frames_in));
        layers.insert("serve.net_bytes_in", f(self.bytes_in));
        layers.insert("serve.net_bytes_out", f(self.bytes_out));
        layers.insert("serve.plan_hash_hits", f(self.plan_hash_hits));
        layers.insert("serve.wire_errors", f(self.wire_errors));
        layers.insert("script.bounds_checked", f(self.bounds_checked));
        // The capped tenant sends only Pyrite plans, so every gate
        // lookup is a bound check and the hits are a share of them.
        layers.insert(
            "script.bounds_cache_hit_ratio",
            ratio(f(self.bounds_cache_hits), f(self.bounds_checked)),
        );
    }
}

fn spends(svc: &QueryService) -> Vec<(String, u64)> {
    svc.tenants()
        .spends()
        .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
        .collect()
}

impl Workload for ServeLive {
    fn name(&self) -> &'static str {
        "serve_live"
    }

    fn limit_s(&self) -> f64 {
        limits::LIVE_S
    }

    fn units(&self) -> usize {
        LIVE_UNITS
    }

    fn pass(
        &self,
        seed: u64,
        traced: bool,
        units: Range<usize>,
        host: &mut HostTrace,
    ) -> PassOutput {
        let mut out = PassOutput::default();
        let mut runtime_sums = RuntimeSums::default();
        let mut sums = ServeSums::default();
        for unit in &live_units(seed)[units] {
            self.serve_unit(unit, traced, host, &mut out, &mut runtime_sums, &mut sums);
        }
        runtime_sums.write(sums.completions, &mut out.layers);
        sums.write(&mut out.layers);
        // Removes the scratch root too once no other pass uses it.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
        out
    }
}

impl ServeLive {
    /// One service lifetime: set-up, the fleet served through the front
    /// door, then shutdown (final checkpoint) and a restart that
    /// recovers the tenant ledger from the WAL.
    fn serve_unit(
        &self,
        unit: &LiveUnit,
        traced: bool,
        host: &mut HostTrace,
        out: &mut PassOutput,
        runtime_sums: &mut RuntimeSums,
        sums: &mut ServeSums,
    ) {
        let dir = self.scratch();
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            out.issues
                .push(format!("cannot create {}: {e}", dir.display()));
            return;
        }
        let seed = unit.seed;
        let fleet = &unit.clients;

        let setup = host.open("bench.setup");
        let mut svc = build_service(seed, traced, &dir, host);
        let (attached, _) = host.time("serve.wal_open", |_| svc.attach_wal(open_wal(&dir)));
        let (live, _) = host.time("serve.listener_build", |_| {
            LiveSource::new(seed, client_configs(fleet))
        });
        out.setups_s.push(host.close(setup));
        let mut setup_tally = Tally::default();
        setup_tally.record(attached.is_ok());
        add_phase(out, "setup", setup_tally);
        if let Err(e) = attached {
            out.issues.push(format!("WAL open failed: {e}"));
        }

        let phase = host.open("bench.queries");
        let serve_span = host.open("serve.serve");
        let mut source = TimedSource::new(live, host.clock().clone());
        let report = svc.serve(&mut source);
        let first = source.first_call_s().unwrap_or_else(|| host.now());
        host.aggregate("serve.source", first, source.source_s());
        host.close(serve_span);
        out.query_phase_s += host.close(phase);

        let check = host.open("bench.check");
        for (c, gap) in report.completions.iter().zip(source.completion_gaps_s()) {
            out.queries.push(QueryRecord {
                class: if c.tenant.as_str() == CAPPED_TENANT {
                    "live_plan"
                } else if matches!(c.tenant.as_str(), "acme" | "bolt") {
                    "live_legal"
                } else {
                    "live_enron"
                },
                host_s: *gap,
                virtual_s: c.latency_s(),
                usd: c.cost_usd,
                completed: true,
                // The wire carries whether a query was answered, not
                // the answer itself.
                score: if c.answered { 1.0 } else { 0.0 },
            });
        }
        let mut tally = Tally {
            attempted: report.tenants.values().map(|t| t.submitted).sum(),
            succeeded: report.completions.len() as u64,
            ..Tally::default()
        };
        for shed in &report.sheds {
            let kind = shed.reason.kind();
            *sums.sheds.entry(kind).or_default() += 1;
            // The capped tenant's quota refusals are the design working;
            // any other shed is a failure.
            if shed.tenant.as_str() == CAPPED_TENANT
                && matches!(kind, "budget_exhausted" | "cost_bound_exceeded")
            {
                tally.refused += 1;
            } else {
                tally.failed += 1;
            }
        }
        add_phase(out, "queries", tally);
        if report.wal_failed {
            out.issues.push("the ledger WAL failed mid-run".to_string());
        }
        let net = report.net.clone().unwrap_or_default();
        let abandoned_capped = source
            .inner()
            .outcomes()
            .iter()
            .zip(fleet)
            .filter(|(o, c)| o.kind() == "abandoned" && c.tenant == CAPPED_TENANT)
            .count() as u64;
        add_phase(
            out,
            "clients",
            Tally {
                attempted: net.clients,
                succeeded: net.clients_completed,
                refused: abandoned_capped,
                failed: net
                    .clients
                    .saturating_sub(net.clients_completed + abandoned_capped),
            },
        );
        let _ = writeln!(out.digest, "{}{}", report.to_jsonl(), report.health_jsonl());

        sums.completions += report.completions.len();
        sums.waits_s
            .extend(report.completions.iter().map(|c| c.queue_wait_s()));
        sums.dispatch_s.extend_from_slice(source.dispatch_s());
        sums.source_s += source.source_s();
        sums.worker_seconds += report.worker_seconds;
        sums.scale_events += report.scale_events.len();
        sums.clients_abandoned += net.clients_abandoned;
        sums.wal_fsyncs += report.wal_fsyncs;
        sums.wal_appends += report.wal_appends;
        sums.frames_in += net.stats.frames_in;
        sums.bytes_in += net.stats.bytes_in;
        sums.bytes_out += net.stats.bytes_out;
        sums.plan_hash_hits += net.stats.plan_hash_hits;
        sums.wire_errors += net.stats.wire_error_total();
        sums.bounds_checked += report.bounds_checked;
        sums.bounds_cache_hits += report.bounds_cache_hits;

        // Shutdown: a final checkpoint, then a restart recovers the
        // ledger from the WAL, which must reproduce every tenant's spend
        // bit for bit.
        let before = spends(&svc);
        let (saved, _) = host.time("core.save_state", |_| svc.runtime().save_state());
        let mut ckpt = Tally::default();
        ckpt.record(matches!(saved, Ok(true)));
        add_phase(out, "checkpoint", ckpt);
        runtime_sums.add(svc.runtime(), host);
        drop(svc);
        let (recovered, _) = host.time("serve.wal_recovery", |_| {
            let mut restarted =
                QueryService::new(Runtime::builder().seed(seed).build(), serve_config());
            register_tenants(&mut restarted);
            restarted
                .attach_wal(open_wal(&dir))
                .map(|_| spends(&restarted))
        });
        let mut recovery = Tally::default();
        recovery.record(recovered.as_ref().is_ok_and(|r| *r == before));
        add_phase(out, "recovery", recovery);
        match recovered {
            Ok(r) if r == before => {}
            Ok(r) => out
                .issues
                .push(format!("WAL recovery diverged: {r:?} != {before:?}")),
            Err(e) => out.issues.push(format!("WAL recovery failed: {e}")),
        }
        host.close(check);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn add_phase(out: &mut PassOutput, phase: &'static str, tally: Tally) {
    out.phases.entry(phase).or_default().add(tally);
}
