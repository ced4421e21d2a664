//! Golden verdicts for the Pyrite front end: the static checks an agent
//! step passes before it is billed.
//!
//! Every program in a fixed corpus gets a verdict — `ok`, or the label
//! of the pass that rejected it (`static-check` or `typecheck`, the
//! values of the agent-step span attr `rejected`) followed by the
//! rendered error the agent observes. The verdicts are compared with
//! `tests/golden/front_end.txt`, so a refactor of the checker that
//! changes any rejection, its wording, or which error wins fails here.
//!
//! The corpus:
//! * the bad-program fixtures under `fixtures/bad/`;
//! * the rejection programs of the agent runtime tests and the
//!   ill-typed list of the differential suite;
//! * the sources of the checker and typechecker unit tests;
//! * targeted precedence cases (structural error vs. type error,
//!   walk order vs. line order, unreachable code, shadowing);
//! * programs rendered from the `common` templates with a fixed seed.
//!
//! Set `PYRITE_GOLDEN_BLESS=1` to rewrite the golden file after an
//! intended change, and review the diff.

use aida_script::{check, compile, parser, CheckEnv, ScriptError};
use proptest::prelude::*;
use proptest::rng::TestRng;
use std::fmt::Write as _;
use std::path::PathBuf;

mod common;

/// The tool registry the checks run against: the signatures the agent
/// runtime registers (lake tools, `final_answer`, semantic tools, the
/// Context and program tools), the test harnesses' `emit` and `probe`,
/// and one tool whose signature does not parse (calls to it are not
/// arity-checked).
const TOOLS: &[(&str, &str)] = &[
    ("list_files", "list_files() -> list[str]"),
    ("read_file", "read_file(name: str) -> str"),
    (
        "search_keywords",
        "search_keywords(query: str, k: int) -> list[str]",
    ),
    ("final_answer", "final_answer(answer) -> None"),
    (
        "sem_filter_tool",
        "sem_filter_tool(instruction: str, filenames: list[str]) -> list[str]",
    ),
    (
        "sem_extract_tool",
        "sem_extract_tool(instruction: str, field: str, filenames: list[str]) -> list",
    ),
    (
        "vector_search",
        "vector_search(query: str, k: int) -> list[str]",
    ),
    ("lookup", "lookup(key: str) -> list[str]"),
    (
        "run_semantic_program",
        "run_semantic_program(instruction: str) -> list[dict]",
    ),
    ("resample", "resample(freq)"),
    ("emit", "emit(value) -> None"),
    ("probe", "probe() -> None"),
    ("scale", "scale(x: float) -> float"),
    ("opaque", "opaque tool, no signature"),
];

/// Globals carried over from earlier agent steps (one of them shadows
/// a tool).
const GLOBALS: &[&str] = &["files", "total", "hits", "lookup"];

/// The verdict of the front end on `src`: parse, the static pass, then
/// compile, labelled the way an agent step records a rejection.
fn verdict(src: &str) -> String {
    let program = match parser::parse(src) {
        Ok(program) => program,
        Err(err) => {
            let line = err.line().unwrap_or(0);
            let message = err.to_string();
            return format!("static-check: {}", ScriptError::Static { line, message });
        }
    };
    let mut env = CheckEnv::default();
    for (name, sig) in TOOLS {
        env.add_tool(name, sig);
    }
    env.globals.extend(GLOBALS.iter().map(|g| g.to_string()));
    match check::first_error(&check::check(&program, &env)) {
        Some(err @ ScriptError::Type { .. }) => format!("typecheck: {err}"),
        Some(err) => format!("static-check: {err}"),
        None => match compile(&program) {
            Ok(_) => "ok".to_string(),
            Err(err) => format!("typecheck: {err}"),
        },
    }
}

const AGENT_PROGRAMS: &[&str] = &[
    // Rejections.
    "undefined_function()",
    "serch_files()",
    "print(never_assigned)",
    "while True:\n    x = 1",
    "def broken(:",
    "c = read_file('data.csv', 'extra')\nprint(c)",
    "c = read_file(7)\nprint(c)",
    "hits = search_keywords('ratio', 'three')\nprint(hits)",
    "print(n)\nn = 3",
    // Accepted steps.
    "files = list_files()\nprint(files)",
    "c = read_file('data.csv')\nlines = c.splitlines()\na = float(lines[2].split(',')[1])\nb = float(lines[1].split(',')[1])\nfinal_answer(a / b)",
    "c = read_file('data.csv')\nrows = c.splitlines()\ntotal = 0\nfor r in rows[1:]:\n    total += int(r.split(',')[1])\nprint(total)",
    "final_answer(total)",
    "def main():\n    return helper(3)\ndef helper(n):\n    t = 0\n    while n > 0:\n        t += n\n        n -= 1\n    return t\nfinal_answer(main())",
    "t = 0\nfor i in range(40):\n    t += len(read_file('data.csv'))\nprint(t)",
    "for f in list_files():\n    print(read_file(f))",
    "x = 1\nprint(x + 41)",
];

const DIFFERENTIAL_ILL_TYPED: &[&str] = &[
    "print(x)\nx = 1",
    "read_file(42)",
    "read_file('a.csv', 'extra')",
    "x = 'a' + 1",
    "x = 3\nx()",
];

const CHECKER_UNIT_SOURCES: &[&str] = &[
    "x = 1\ny = x + 2\ny\n",
    "x = missing + 1\nx\n",
    "def main():\n    return helper(2)\ndef helper(n):\n    return n * 2\nmain()\n",
    "serch_docs(\"q\")\n",
    "while True:\n    x = 1\n",
    "while True:\n    break\n",
    "n = 3\nwhile n > 0:\n    n = n - 1\nn\n",
    "if False:\n    x = 1\nelse:\n    x = 2\nx\n",
    "x = 1\ny = 2\ny\n",
    "_scratch = 1\n2\n",
    "boom()\n",
    "xs = [1, 2, 3]\nys = [v * 2 for v in xs]\nys\n",
    "probe()\nxs = [1, 2, 3]\nsum(xs)",
    "unused = 1\nif False:\n    probe()\n42",
];

const TYPECHECKER_UNIT_SOURCES: &[&str] = &[
    "files = list_files()\nfor f in files:\n    text = read_file(f)\n    print(text)",
    "x = 1\nif x > 0:\n    y = 'pos'\nelse:\n    y = 'neg'\nprint(y)",
    "total = 0\nfor n in range(10):\n    total += n\ntotal",
    "def rate(name):\n    text = read_file(name)\n    return len(text)\nrate('a.txt')",
    "print(x)\nx = 1",
    "x = 1\nprint(x)",
    "print(nope)",
    "read_file('a.txt', 'extra')",
    "list_files('oops')",
    "read_file(42)",
    "search_keywords('q', 'not-an-int')",
    "read_file = 1\nx = 2",
    "x = 'a' + 1",
    "x = {} - 1",
    "x = 'a' % 2",
    "if 1 > 0:\n    v = 1\nelse:\n    v = 'x'\nw = v",
    "if 1 > 0:\n    v = 1\nelse:\n    v = 2\nx = 'a' + v",
    "total = 0\nwhile total < 5:\n    total += 1\nprint(total)",
    "for f in list_files():\n    last = f\n",
    "def f(n):\n    m = q\n    q = n\n    return m\nf(1)",
    "def f(n):\n    return helper(n)\ndef helper(n):\n    return n + 1\nf(1)",
    "x = 3\nx()",
];

/// Cases aimed at how the two kinds of finding combine.
const PRECEDENCE_CASES: &[&str] = &[
    // A type error on an earlier line loses to a structural error.
    "x = 'a' + 1\nboom()",
    "x = 'a' + 1\nprint(missing)",
    "y = read_file(1)\nwhile True:\n    y = 2",
    // Two type errors: the one the walk meets first wins, even when a
    // later one sits on an earlier line.
    "read_file('a',\n    'b' + 1)",
    "x = [1,\n    'a' - 1]\ny = 'b' * 'c'",
    "x = 'a' - 1\ny = 'b' * 'c'",
    "d = {}\nd[1] = 2\nz = 'q' + 3",
    // Unreachable code is still checked.
    "def f():\n    return 1\n    x = 'a' + 1\nf()",
    "for i in range(3):\n    break\n    y = i - 'a'\n",
    // Shadowing and late binding.
    "read_file = 1\nread_file(2)",
    "len = 5\nlen(3)",
    "def g():\n    return later + 1\nlater = 2\ng()",
    "def g():\n    x = x + 1\n    return x\ng()",
    // Globals from earlier steps.
    "print(files)\nprint(total + 1)",
    "hits()",
    "files = 'x' + 1",
    // Tools with unparseable or untyped signatures.
    "opaque(1, 2, 3)",
    "final_answer(1, 2)",
    "resample('1d', 'extra')",
    "sem_filter_tool('q', 3)",
    "vector_search('q', 2.5)",
    "lookup(1, 2)",
    // An int satisfies a float parameter; a str does not.
    "scale(3)",
    "scale('a')",
    // A branch that cannot fall through contributes no facts.
    "for i in range(2):\n    if i > 0:\n        break\n    else:\n        y = 'a'\n    z = y + 1",
    "def f(c):\n    if c:\n        return 1\n    else:\n        w = 2\n    return w + 'x'\nf(0)",
    // Iteration, indexing, slicing, methods.
    "for c in 3:\n    print(c)",
    "x = [v for v in 5]",
    "s = 'abc'\nt = s['x']",
    "n = 1\nm = n[0]",
    "n = 1\nm = n[0:1]",
    "xs = [1]\nys = xs[1.5:2]",
    "n = 1\nn.upper()",
    "x = -'a'",
    "x = 1 < 'a'",
    "x = 1 in 2",
    "x = 3 // 'a'",
    "x = 3 / 'a'",
    "x = None\nx()",
    // Ties on (line, code) between structural errors: the order the
    // checker meets them decides.
    "if missing_a: y = missing_b",
    "x = foo(baz())",
    "d = {}\nd[aa] = bb",
    "y = foo + foo()",
    "while True: x = missing",
    "for i in range(2): z = q1 + q2",
    // Type errors inside inline blocks and call arguments.
    "if 'a' + 1: y = 'b' - 1",
    "x = read_file(1, 'a' + 1)",
    "x = read_file(1, 2)",
    // Warnings ride along with an accepted program.
    "unused = 1\nif True:\n    pass\nelif False:\n    pass\nelse:\n    pass\n2",
    // Lex and parse failures.
    "x = $",
    "if x\n    y = 1",
    "x = (1,",
];

fn fixture_programs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf8")
        })
        .filter(|n| n.ends_with(".pyr"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let src = std::fs::read_to_string(dir.join(&n)).expect("fixture reads");
            (format!("fixture {n}"), src)
        })
        .collect()
}

/// Programs rendered from the shared templates. The stream is seeded
/// from a fixed name, so the corpus never changes between runs.
fn generated_programs(count: usize) -> Vec<(String, String)> {
    let mut rng = TestRng::from_name("front_end_golden::generated");
    let strategy = prop::collection::vec(common::templates::tpl(), 1..7);
    (0..count)
        .map(|i| {
            let stmts = strategy.generate(&mut rng);
            (
                format!("generated {i}"),
                common::templates::render_program(&stmts),
            )
        })
        .collect()
}

fn corpus() -> Vec<(String, String)> {
    let mut out = fixture_programs();
    let lists: [(&str, &[&str]); 5] = [
        ("agent", AGENT_PROGRAMS),
        ("differential", DIFFERENTIAL_ILL_TYPED),
        ("checker", CHECKER_UNIT_SOURCES),
        ("typechecker", TYPECHECKER_UNIT_SOURCES),
        ("precedence", PRECEDENCE_CASES),
    ];
    for (label, programs) in lists {
        for (i, src) in programs.iter().enumerate() {
            out.push((format!("{label} {i}"), (*src).to_string()));
        }
    }
    out.extend(generated_programs(240));
    out
}

fn render_verdicts() -> String {
    let mut out = String::new();
    for (name, src) in corpus() {
        writeln!(out, "== {name}\nsrc: {src:?}\n{}", verdict(&src)).expect("write to string");
    }
    out
}

#[test]
fn front_end_verdicts_match_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/front_end.txt");
    let actual = render_verdicts();
    if std::env::var("PYRITE_GOLDEN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with PYRITE_GOLDEN_BLESS=1)", path.display()));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        let context = |text: &str| {
            text.lines()
                .skip(first.saturating_sub(2))
                .take(4)
                .collect::<Vec<_>>()
                .join("\n")
        };
        panic!(
            "front-end verdicts differ from {} at line {}:\n--- expected\n{}\n--- actual\n{}",
            path.display(),
            first + 1,
            context(&expected),
            context(&actual)
        );
    }
}

#[test]
fn corpus_covers_every_verdict_kind() {
    let verdicts = render_verdicts();
    let count = |prefix: &str| verdicts.lines().filter(|l| l.starts_with(prefix)).count();
    assert!(count("ok") >= 50, "accepted programs");
    assert!(count("static-check: ") >= 10, "structural rejections");
    assert!(count("typecheck: ") >= 30, "type rejections");
    assert!(count("== generated ") >= 200, "generated programs");
}
