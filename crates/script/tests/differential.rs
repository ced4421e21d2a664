//! Differential oracle: the tree-walking interpreter and the bytecode VM
//! must be observationally identical on every program.
//!
//! For each program (fixture or proptest-generated) both engines run with
//! the same fuel budget and the same recording host tools, and must
//! agree on:
//!
//! * the result — value (via `Display`) or error (via `Display`),
//! * the host-function call sequence (tool-dispatch trace),
//! * captured `print` output,
//! * remaining fuel (virtual budget charged).
//!
//! A fuel-cutoff sweep additionally checks parity at *every* possible
//! exhaustion point, and a round-trip property pins the serialized
//! artifact format.

use aida_script::bytecode::{compile_source, CompiledProgram};
use aida_script::{check, CheckEnv, Interpreter, ScriptError, ToolSig};
use std::cell::RefCell;
use std::rc::Rc;

mod common;
use common::{instrument, observe_interp, observe_vm, Observed};

#[track_caller]
fn assert_parity(src: &str, fuel: u64) -> Observed {
    let a = observe_interp(src, fuel);
    let b = observe_vm(src, fuel);
    assert_eq!(a, b, "interpreter and VM diverged on:\n{src}");
    a
}

/// Agent-step-shaped fixtures: the program shapes the simulated planner
/// policies emit, plus targeted edge cases (errors included — both
/// engines must fail identically).
const FIXTURES: &[&str] = &[
    // CSV ratio scan (policy shape).
    "files = list_files()\ntotal = 0\nfor f in files:\n    if 'csv' in f:\n        text = read_file(f)\n        lines = text.splitlines()\n        for line in lines[1:]:\n            parts = line.split(',')\n            total += int(parts[1])\nemit(total)\ntotal",
    // Keyword filter with listcomp (policy shape).
    "files = list_files()\nhits = [f for f in files if 'csv' in f]\nfor f in hits:\n    print('FILE: ' + f)\nlen(hits)",
    // Helper function with slicing and split (policy shape).
    "def count(name):\n    text = read_file(name)\n    return len(text.split(','))\ntotals = [count(f) for f in list_files() if f != 'notes.txt']\nsum(totals)",
    // Dict accumulation.
    "counts = {}\nfor f in list_files():\n    ext = f.split('.')[1]\n    if ext in counts:\n        counts[ext] += 1\n    else:\n        counts[ext] = 1\nsorted(counts)",
    // While + break + continue.
    "n = 0\nacc = 0\nwhile True:\n    n += 1\n    if n > 20:\n        break\n    if n % 3 != 0:\n        continue\n    acc += n\nacc",
    // Nested functions, recursion, late binding.
    "def outer(n):\n    return inner(n) + 1\ndef inner(n):\n    if n == 0:\n        return 0\n    return outer(n - 1)\nouter(7)",
    // Multi-target for unpack.
    "pairs = [[1, 'a'], [2, 'b']]\nout = ''\nfor n, s in pairs:\n    out += s * n\nout",
    // String/negative indexing and slices.
    "s = 'hello world'\nemit(s[0], s[-1], s[2:5], s[:3], s[6:])\ns[4]",
    // Aug-assign through an index, evaluated once.
    "d = {'k': 1}\nd['k'] += 41\nxs = [10, 20]\nxs[1] += 5\nemit(d['k'], xs[1])\nd['k']",
    // Boolean short-circuit values (not just truthiness).
    "a = 0 or 'dflt'\nb = 'x' and 3\nemit(a, b)\n[a, b]",
    // Comprehension over string and dict.
    "d = {'b': 1, 'a': 2}\nks = [k for k in d]\ncs = [c for c in 'abc' if c != 'b']\nemit(ks, cs)\nlen(ks) + len(cs)",
    // Mutation through a function boundary (shared list identity).
    "def add(xs, v):\n    xs.append(v)\nitems = []\nadd(items, 1)\nadd(items, 2)\nitems",
    // Top-level return ends the program early.
    "x = 1\nif x == 1:\n    return 'early'\nx = 2\nx",
    // print capture.
    "for i in range(3):\n    print('line', i)\n'done'",
    // --- error fixtures: engines must produce identical errors ---
    // Name error inside a branch.
    "x = 1\nif x > 0:\n    y = missing_name\nx",
    // Type error: adding str and int.
    "a = 'x'\nb = a + 1\nb",
    // Break outside loop (caught at runtime, attributed to the statement).
    "x = 1\nbreak",
    // Break outside loop inside a function body.
    "def f():\n    break\nf()",
    // Arity mismatch on a user function.
    "def f(a, b):\n    return a\nf(1)",
    // Calling a non-callable.
    "x = 3\nx()",
    // Unpack length mismatch.
    "for a, b in [[1, 2, 3]]:\n    a",
    // Dict key type error.
    "d = {1: 'x'}\nd",
    // Division by zero.
    "x = 1 / 0\nx",
    // Recursion limit.
    "def f(n):\n    return f(n + 1)\nf(0)",
    // Slice bound type error.
    "xs = [1, 2, 3]\nxs['a':2]",
    // Shadowing: assigning over a builtin name then calling it.
    "len = 5\nemit(len)\nlen",
    // --- agent step programs: a CSV sum, step by step and as one run ---
    "files = list_files()\nprint(files)",
    "c = read_file('a.csv')\nrows = c.splitlines()\ntotal = 0\nfor r in rows[1:]:\n    total += int(r.split(',')[1])\nprint(total)",
    "files = list_files()\nprint(files)\nc = read_file('a.csv')\nrows = c.splitlines()\ntotal = 0\nfor r in rows[1:]:\n    total += int(r.split(',')[1])\nprint(total)\nemit(total)",
];

#[test]
fn fixtures_agree() {
    for src in FIXTURES {
        assert_parity(src, 100_000);
    }
}

#[test]
fn fuel_cutoff_sweep_agrees_at_every_budget() {
    // Every prefix budget must exhaust at the same instant with the same
    // partial side effects on both engines.
    let sweep: &[&str] = &[
        FIXTURES[0],
        FIXTURES[2],
        FIXTURES[4],
        FIXTURES[5],
        "xs = [n * n for n in range(8) if n % 2 == 0]\nemit(xs)\nlen(xs)",
    ];
    for src in sweep {
        let full = assert_parity(src, 100_000);
        let spent = 100_000 - full.fuel_remaining;
        for fuel in 0..=spent + 1 {
            assert_parity(src, fuel);
        }
    }
}

#[test]
fn compiled_artifacts_round_trip_and_rerun() {
    for src in FIXTURES {
        let Ok(program) = compile_source(src) else {
            continue;
        };
        let encoded = program.encode();
        let decoded = CompiledProgram::decode(&encoded).expect("artifact decodes");
        assert_eq!(decoded.main, program.main, "main chunk drifted for:\n{src}");
        assert_eq!(decoded.consts, program.consts);
        assert_eq!(decoded.names, program.names);
        assert_eq!(decoded.var_lists, program.var_lists);
        assert_eq!(
            decoded.content_hash(),
            program.content_hash(),
            "content hash not stable across encode/decode for:\n{src}"
        );
        // The decoded artifact must execute identically too (functions
        // run from their chunks even with stub AST bodies).
        let trace_a = Rc::new(RefCell::new(Vec::new()));
        let mut ia = Interpreter::new().with_fuel(100_000);
        instrument(&mut ia, trace_a.clone());
        let ra = ia.run_compiled(&program).map(|v| v.to_string());
        let trace_b = Rc::new(RefCell::new(Vec::new()));
        let mut ib = Interpreter::new().with_fuel(100_000);
        instrument(&mut ib, trace_b.clone());
        let rb = ib.run_compiled(&decoded).map(|v| v.to_string());
        assert_eq!(
            ra.map_err(|e| e.to_string()),
            rb.map_err(|e| e.to_string()),
            "decoded artifact diverged for:\n{src}"
        );
        assert_eq!(trace_a.borrow().clone(), trace_b.borrow().clone());
        assert_eq!(ia.fuel_remaining(), ib.fuel_remaining());
    }
}

#[test]
fn check_rejects_ill_typed_fixtures_before_any_execution() {
    // Script-layer zero-spend guarantee: programs the static pass
    // rejects never reach either engine, so no tools run and no fuel is
    // charged.
    let mut env = CheckEnv::default();
    for (name, sig) in [
        ("list_files", "list_files() -> list[str]"),
        ("read_file", "read_file(name: str) -> str"),
        ("emit", "emit(value) -> None"),
    ] {
        env.add_tool(name, sig);
    }
    let first_error = |src: &str| {
        let program = aida_script::parser::parse(src).expect("parses");
        check::first_error(&check::check(&program, &env))
    };
    let ill_typed = [
        "print(x)\nx = 1",
        "read_file(42)",
        "read_file('a.csv', 'extra')",
        "x = 'a' + 1",
        "x = 3\nx()",
    ];
    for src in ill_typed {
        let err = first_error(src);
        assert!(
            matches!(err, Some(ScriptError::Type { .. })),
            "{src}: {err:?}"
        );
    }
    // The well-typed fixtures must not be rejected (no false positives
    // on the agent corpus shapes) — except those designed to be
    // ill-typed, which the runtime fixtures above already cover.
    let well_typed = [
        FIXTURES[0],
        FIXTURES[1],
        FIXTURES[2],
        FIXTURES[3],
        FIXTURES[4],
    ];
    for src in well_typed {
        assert_eq!(
            first_error(src),
            None,
            "false positive on corpus program:\n{src}"
        );
    }
}

#[test]
fn tool_signature_parsing_matches_registry_style() {
    let sig = ToolSig::parse(
        "sem_extract_tool(instruction: str, field: str, filenames: list[str]) -> list",
    )
    .expect("parses");
    assert_eq!(sig.params.len(), 3);
}

mod generated {
    use super::*;
    use common::templates::{render_program, tpl};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn generated_programs_agree(stmts in prop::collection::vec(tpl(), 1..7)) {
            let src = render_program(&stmts);
            let a = super::observe_interp(&src, 20_000);
            let b = super::observe_vm(&src, 20_000);
            prop_assert_eq!(a, b, "diverged on generated program:\n{}", src);
        }

        #[test]
        fn generated_programs_agree_under_tight_fuel(
            stmts in prop::collection::vec(tpl(), 1..6),
            fuel in 0u64..400,
        ) {
            let src = render_program(&stmts);
            let a = super::observe_interp(&src, fuel);
            let b = super::observe_vm(&src, fuel);
            prop_assert_eq!(a, b, "diverged at fuel {} on:\n{}", fuel, src);
        }

        #[test]
        fn generated_bytecode_round_trips(stmts in prop::collection::vec(tpl(), 1..6)) {
            let src = render_program(&stmts);
            let program = compile_source(&src).expect("templates always parse");
            let decoded = CompiledProgram::decode(&program.encode()).expect("decodes");
            prop_assert_eq!(&decoded.main, &program.main);
            prop_assert_eq!(&decoded.consts, &program.consts);
            prop_assert_eq!(&decoded.names, &program.names);
            prop_assert_eq!(&decoded.var_lists, &program.var_lists);
            prop_assert_eq!(decoded.content_hash(), program.content_hash());
            prop_assert_eq!(decoded.funcs.len(), program.funcs.len());
        }
    }
}
