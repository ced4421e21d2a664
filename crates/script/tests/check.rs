//! The static checker must reject every bad-program fixture *before*
//! executing anything: a bound `probe()` tool records whether execution
//! ever started, and rejection means it never fires. This is the
//! crate-level half of the zero-spend guarantee the agents runtime
//! builds on (its own tests assert $0.00 and zero virtual latency).

use aida_script::{check, parser, CheckEnv, Interpreter, ScriptError, ScriptValue};
use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/bad")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// An interpreter with a `probe` tool that counts its invocations.
fn probed_interp() -> (Interpreter, Rc<Cell<u32>>) {
    let calls = Rc::new(Cell::new(0u32));
    let seen = calls.clone();
    let mut interp = Interpreter::new();
    interp.bind_host_fn("probe", move |_args| {
        seen.set(seen.get() + 1);
        Ok(ScriptValue::None)
    });
    (interp, calls)
}

#[test]
fn every_bad_fixture_is_rejected_before_execution() {
    let fixtures = [
        "unknown_tool.pyr",
        "undefined_name.pyr",
        "unbounded_loop.pyr",
        "syntax_error.pyr",
    ];
    for name in fixtures {
        let src = fixture(name);
        let (mut interp, calls) = probed_interp();
        let err = interp
            .run_checked(&src)
            .expect_err(&format!("{name} must be rejected"));
        assert!(
            matches!(
                err,
                ScriptError::Static { .. } | ScriptError::Parse { .. } | ScriptError::Lex { .. }
            ),
            "{name}: unexpected error class {err:?}"
        );
        assert_eq!(
            calls.get(),
            0,
            "{name}: probe() ran — the program executed before rejection"
        );
    }
}

#[test]
fn rejection_reports_a_line_and_reason() {
    let (mut interp, _) = probed_interp();
    let err = interp
        .run_checked(&fixture("unknown_tool.pyr"))
        .expect_err("rejected");
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("serch_docs"), "{msg}");
    // The message lists what IS available, so a planner can self-correct.
    assert!(msg.contains("probe"), "{msg}");
}

#[test]
fn good_program_runs_through_run_checked() {
    let (mut interp, calls) = probed_interp();
    let value = interp
        .run_checked("probe()\nxs = [1, 2, 3]\nsum(xs)")
        .expect("clean program runs");
    assert_eq!(value, ScriptValue::Int(6));
    assert_eq!(calls.get(), 1);
}

#[test]
fn warnings_do_not_block_execution() {
    // Dead branch + unused variable: warnings only.
    let (mut interp, _) = probed_interp();
    let src = "unused = 1\nif False:\n    probe()\n42";
    let mut env = CheckEnv::default();
    env.tools.insert("probe".into(), None);
    let issues = check::check(&parser::parse(src).expect("parses"), &env);
    assert!(!issues.is_empty(), "expected warnings");
    assert!(check::first_error(&issues).is_none(), "{issues:?}");
    let value = interp.run_checked(src).expect("warnings still run");
    assert_eq!(value, ScriptValue::Int(42));
}

#[test]
fn type_errors_are_rejected_before_execution() {
    let (mut interp, calls) = probed_interp();
    let err = interp
        .run_checked("probe()\nx = 'a' + 1")
        .expect_err("ill-typed program is rejected");
    assert!(matches!(err, ScriptError::Type { line: 2, .. }), "{err}");
    assert_eq!(calls.get(), 0, "probe() ran before the rejection");
}

#[test]
fn run_checked_reports_parse_errors_unwrapped() {
    let (mut interp, calls) = probed_interp();
    let err = interp
        .run_checked(&fixture("syntax_error.pyr"))
        .expect_err("syntax error");
    assert!(
        matches!(err, ScriptError::Lex { .. } | ScriptError::Parse { .. }),
        "{err:?}"
    );
    assert_eq!(calls.get(), 0);
}
