//! The benchmark's own contract: seeded generation, the percentile
//! guard, metric declarations, and the timing wrapper's transparency.

use aida_perfbench::catalog::{self, MetricDef};
use aida_perfbench::host::{HostClock, HostTrace};
use aida_perfbench::live::{build_service, client_configs};
use aida_perfbench::mix::{enron_stream, legal_sessions, live_units};
use aida_perfbench::output::RunResult;
use aida_perfbench::run::Args;
use aida_perfbench::source::TimedSource;
use aida_perfbench::stats::{percentile, MIN_BEYOND};
use aida_serve::LiveSource;
use std::path::PathBuf;

#[test]
fn workload_generation_is_deterministic_per_seed() {
    assert_eq!(legal_sessions(7), legal_sessions(7));
    assert_eq!(enron_stream(7, 50), enron_stream(7, 50));
    assert_eq!(live_units(7), live_units(7));
    assert_ne!(legal_sessions(7), legal_sessions(8));
    assert_ne!(enron_stream(7, 50), enron_stream(8, 50));
    assert_ne!(live_units(7), live_units(8));
}

#[test]
fn percentile_refuses_without_ten_samples_beyond() {
    let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
    // p90 over 99 samples leaves 9 beyond it.
    assert!(percentile(&samples(99), 90.0).is_err());
    assert!(percentile(&samples(100), 90.0).is_ok());
    assert!(percentile(&samples(1000), 99.0).is_ok());
    assert!(percentile(&samples(999), 99.0).is_err());
    assert!(percentile(&[f64::NAN; 200], 50.0).is_err());
    assert_eq!(MIN_BEYOND, 10);
}

/// The `{"name": …, "unit": …, "better": …}` declarations of one
/// section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let end = start + text[start..].find(']').expect("section closes");
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    text[start..end]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
        .collect()
}

fn as_tuples(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn every_printed_metric_is_declared_with_its_unit() {
    assert_eq!(declared("end_to_end"), as_tuples(catalog::END_TO_END));
    assert_eq!(declared("per_layer"), as_tuples(catalog::PER_LAYER));
    // What a run prints is exactly its section of the catalog.
    for defs in [catalog::END_TO_END, catalog::PER_LAYER] {
        let mut result = RunResult::default();
        for def in defs {
            result.set(def.name, 1.5);
        }
        let line = result.json_line(defs);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        let printed = line.matches("\"unit\": ").count();
        assert_eq!(printed, defs.len());
        for def in defs {
            let entry = format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
            assert!(line.contains(&entry), "{entry} missing from {line}");
        }
    }
}

#[test]
#[should_panic(expected = "undeclared metric")]
fn an_undeclared_metric_cannot_be_set() {
    RunResult::default().set("made_up_ms", 1.0);
}

#[test]
fn arguments_follow_the_driver_contract() {
    let argv: Vec<String> = "--workload serve_live --seed 3 --seconds 20 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let args = Args::parse(&argv).expect("valid arguments");
    assert_eq!(args.workload, "serve_live");
    assert_eq!((args.seed, args.seconds, args.trace), (3, 20.0, true));
    assert!(Args::parse(&argv[..6]).is_err());
    let bad: Vec<String> = ["--trace", "2"].iter().map(|s| s.to_string()).collect();
    assert!(Args::parse(&bad).is_err());
}

/// Serves a small fleet, through the timing wrapper or not, and returns
/// the report's JSONL and health export.
fn serve_small_fleet(wrapped: bool, dir: &str) -> (String, String, usize) {
    let unit = &live_units(11)[0];
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut host = HostTrace::new(HostClock::start());
    let mut svc = build_service(unit.seed, false, &dir, &mut host);
    let live = LiveSource::new(unit.seed, client_configs(&unit.clients[..8]));
    let (report, completions) = if wrapped {
        let mut source = TimedSource::new(live, host.clock().clone());
        let report = svc.serve(&mut source);
        let timed = source.completion_gaps_s().len();
        assert_eq!(timed, source.dispatch_s().len());
        (report, timed)
    } else {
        let mut source = live;
        let report = svc.serve(&mut source);
        let n = report.completions.len();
        (report, n)
    };
    let _ = std::fs::remove_dir_all(&dir);
    (report.to_jsonl(), report.health_jsonl(), completions)
}

#[test]
fn timing_wrapper_leaves_the_service_report_byte_identical() {
    let (plain_jsonl, plain_health, plain_n) = serve_small_fleet(false, "plain");
    let (timed_jsonl, timed_health, timed_n) = serve_small_fleet(true, "timed");
    assert!(plain_n > 0);
    assert_eq!(plain_n, timed_n, "one timing per completion");
    assert_eq!(plain_jsonl, timed_jsonl);
    assert_eq!(plain_health, timed_health);
}
