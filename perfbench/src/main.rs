//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics untraced, per-layer metrics traced). Exits non-zero without
//! a result line on bad arguments.

use aida_perfbench::host::{HostClock, HostTrace};
use aida_perfbench::{catalog, run, workload};

fn main() {
    let clock = HostClock::start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match run::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (agentic_legal, semops_enron, serve_live)",
            args.workload
        );
        std::process::exit(2);
    };
    let mut host = HostTrace::new(clock);
    let (mut result, report, defs) = if args.trace {
        let (r, text) = run::profile(w.as_ref(), &args, &mut host);
        (r, text, catalog::PER_LAYER)
    } else {
        let (r, text) = run::measure(w.as_ref(), &args, &mut host);
        (r, text, catalog::END_TO_END)
    };
    let line = result.json_line(defs);
    print!("{report}");
    for issue in &result.issues {
        println!("INCORRECT: {issue}");
    }
    println!("{line}");
}
