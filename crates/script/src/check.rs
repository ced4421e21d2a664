//! The static pass over parsed Pyrite programs.
//!
//! [`check`] runs between parsing and compiling and rejects malformed
//! generated programs *before* any simulated tokens are spent on them —
//! the CodeAgent runtime bills a planning call per step, so a program
//! that would only fail at runtime otherwise costs real (simulated)
//! budget. One walk over the program reports two kinds of finding:
//!
//! * **Structural findings.** Pyrite resolves names late, Python-style:
//!   a function body may call a function defined later, and a branch may
//!   read a variable another branch assigned. Existence is therefore
//!   flow-insensitive: a name is only "undefined" when no assignment,
//!   loop binding, parameter, `def`, global, tool, or builtin anywhere in
//!   the program (or host environment) introduces it. The same walk
//!   finds unknown tool calls, `while True` with no exit, and — as
//!   warnings — dead branches and unused variables.
//! * **Type errors.** A flow-sensitive pass over the same walk finds
//!   use before assignment (a read on a path where no earlier statement
//!   can have assigned the name), tool arity and argument types against
//!   the parsed signatures ([`ToolSig`]), and definite operator, index,
//!   iteration, and call misuse. Branches join their facts: a variable
//!   assigned `int` in one arm and `str` in another joins to
//!   [`Ty::Any`], and names assigned inside a loop body are in scope (as
//!   possibly unassigned) for the whole body, so accumulator patterns
//!   type correctly. An error is reported only when every runtime path
//!   through the expression would raise it — mirroring the
//!   interpreter's own `binary`/`index`/`call` rejections — so a type
//!   error is safe to treat as a hard pre-billing reject.
//!
//! Structural errors win over type errors: [`first_error`] reports the
//! first structural error by `(line, code)` as [`ScriptError::Static`],
//! and otherwise the first type error in walk order as
//! [`ScriptError::Type`].

use crate::ast::{
    collect_assigned, walk_expr, BinOp, Expr, ExprKind, Program, Stmt, StmtKind, Target, UnaryOp,
};
use crate::bounds::{is_builtin, BUILTIN_NAMES};
use crate::error::ScriptError;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A static type. `Any` is the unknown/top type; joins of unequal types
/// collapse to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Unknown (checks involving it always pass).
    Any,
    /// `int`
    Int,
    /// `float`
    Float,
    /// `str`
    Str,
    /// `bool`
    Bool,
    /// `None`
    None,
    /// `list` (element types are not tracked).
    List,
    /// `dict` (string keys; value types are not tracked).
    Dict,
    /// A user function value.
    Func,
}

impl Ty {
    /// The least upper bound of two types.
    pub fn join(self, other: Ty) -> Ty {
        if self == other {
            self
        } else {
            Ty::Any
        }
    }

    /// Display name matching the interpreter's `type_name()` strings.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Any => "any",
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Str => "str",
            Ty::Bool => "bool",
            Ty::None => "None",
            Ty::List => "list",
            Ty::Dict => "dict",
            Ty::Func => "function",
        }
    }

    fn is_num(self) -> bool {
        matches!(self, Ty::Any | Ty::Int | Ty::Float)
    }

    /// Whether a value of this type can satisfy an `expected` annotation.
    fn satisfies(self, expected: Ty) -> bool {
        match (self, expected) {
            (Ty::Any, _) | (_, Ty::Any) => true,
            // Ints are acceptable where floats are expected (the
            // interpreter bridges them in arithmetic and comparisons).
            (Ty::Int, Ty::Float) => true,
            (a, b) => a == b,
        }
    }

    fn is_callable(self) -> bool {
        matches!(self, Ty::Any | Ty::Func)
    }
}

/// A parsed tool signature, e.g. `search_keywords(query: str, k: int) ->
/// list[str]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolSig {
    /// Tool name.
    pub name: String,
    /// Parameters: name and annotated type (`Ty::Any` when unannotated).
    pub params: Vec<(String, Ty)>,
    /// Return type (`Ty::Any` when unannotated).
    pub ret: Ty,
}

impl ToolSig {
    /// Parses a Python-style signature line. Returns `None` when the text
    /// does not look like `name(params...)` — callers should then fall
    /// back to skipping checks for that tool.
    pub fn parse(signature: &str) -> Option<ToolSig> {
        let open = signature.find('(')?;
        let close = signature.rfind(')')?;
        if close < open {
            return None;
        }
        let name = signature[..open].trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return None;
        }
        let params_text = &signature[open + 1..close];
        let mut params = Vec::new();
        if !params_text.trim().is_empty() {
            for part in split_params(params_text) {
                let part = part.trim();
                let (pname, ty) = match part.split_once(':') {
                    Some((n, t)) => (n.trim(), parse_ty(t.trim())),
                    None => (part, Ty::Any),
                };
                if pname.is_empty() {
                    return None;
                }
                params.push((pname.to_string(), ty));
            }
        }
        let ret = signature[close + 1..]
            .trim()
            .strip_prefix("->")
            .map_or(Ty::Any, |r| parse_ty(r.trim()));
        Some(ToolSig {
            name: name.to_string(),
            params,
            ret,
        })
    }
}

/// Splits a parameter list on top-level commas (commas inside `[...]`
/// annotations like `list[str]` do not split).
fn split_params(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in text.char_indices() {
        match ch {
            '[' | '(' => depth += 1,
            ']' | ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

fn parse_ty(text: &str) -> Ty {
    let base = text.split('[').next().unwrap_or("").trim();
    match base {
        "int" => Ty::Int,
        "float" => Ty::Float,
        "str" => Ty::Str,
        "bool" => Ty::Bool,
        "None" | "none" => Ty::None,
        "list" => Ty::List,
        "dict" => Ty::Dict,
        _ => Ty::Any,
    }
}

/// How bad an issue is. Errors reject the program; warnings ride along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckSeverity {
    /// Suspicious but runnable (unused variable, dead branch).
    Warning,
    /// The program is malformed and will not be executed.
    Error,
}

/// Codes of the type errors (every other code is structural).
const TYPE_ERROR_CODES: &[&str] = &[
    "use-before-assign",
    "tool-arity",
    "tool-arg-type",
    "type-mismatch",
];

/// One issue the checker found.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckIssue {
    /// Stable issue code: structural `"undefined-name"`,
    /// `"unknown-call"`, `"unbounded-loop"`, `"dead-branch"`,
    /// `"unused-variable"`, or a type error: `"use-before-assign"`,
    /// `"tool-arity"`, `"tool-arg-type"`, `"type-mismatch"`.
    pub code: &'static str,
    /// Severity.
    pub severity: CheckSeverity,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// The host environment the program will run inside: names that exist
/// without being defined by the program itself.
#[derive(Debug, Clone, Default)]
pub struct CheckEnv {
    /// Pre-set global variables (agent state carried between steps), of
    /// unknown type.
    pub globals: BTreeSet<String>,
    /// Registered host functions (tools) with their parsed signatures.
    /// `None` means the signature did not parse: calls resolve but are
    /// not arity- or type-checked.
    pub tools: BTreeMap<String, Option<ToolSig>>,
}

impl CheckEnv {
    /// Registers a tool from its signature text.
    pub fn add_tool(&mut self, name: &str, signature: &str) {
        self.tools
            .insert(name.to_string(), ToolSig::parse(signature));
    }

    /// Whether `name` exists in the host environment (including
    /// builtins).
    fn has(&self, name: &str) -> bool {
        self.globals.contains(name) || self.tools.contains_key(name) || is_builtin(name)
    }
}

/// Runs the static pass. Structural issues come first, ordered by line
/// then code; type errors follow in the order the walk met them.
pub fn check(program: &Program, env: &CheckEnv) -> Vec<CheckIssue> {
    let mut ck = Checker {
        env,
        defined: BTreeSet::new(),
        used: BTreeSet::new(),
        issues: Vec::new(),
        type_errors: Vec::new(),
    };
    // Every name the program introduces, anywhere.
    collect_defined(&program.body, &mut ck.defined);
    let mut flow = Flow::start();
    for name in &env.globals {
        flow.assign(name, Ty::Any);
    }
    ck.block(&program.body, &mut flow, None);
    // Definitions that were never read.
    ck.unused(&program.body);
    ck.issues
        .sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    ck.issues.append(&mut ck.type_errors);
    ck.issues
}

/// The error that rejects the program, if any — the first error issue,
/// as [`ScriptError::Type`] for a type error and [`ScriptError::Static`]
/// otherwise.
pub fn first_error(issues: &[CheckIssue]) -> Option<ScriptError> {
    let issue = issues.iter().find(|i| i.severity == CheckSeverity::Error)?;
    let (line, message) = (issue.line, issue.message.clone());
    Some(if TYPE_ERROR_CODES.contains(&issue.code) {
        ScriptError::Type { line, message }
    } else {
        ScriptError::Static { line, message }
    })
}

/// Per-path variable state.
#[derive(Debug, Clone)]
struct Flow {
    /// Every name some path reaching here may have assigned, with its
    /// type; a name that is absent is unassigned on every path.
    vars: HashMap<String, Ty>,
    /// False after `return`/`break`/`continue`: subsequent sibling
    /// statements in the block are unreachable from this path.
    live: bool,
}

impl Flow {
    fn start() -> Flow {
        Flow {
            vars: HashMap::new(),
            live: true,
        }
    }

    fn assign(&mut self, name: &str, ty: Ty) {
        self.vars.insert(name.to_string(), ty);
    }

    /// Records that `name` may hold a `ty` here.
    fn weaken(&mut self, name: &str, ty: Ty) {
        self.vars
            .entry(name.to_string())
            .and_modify(|t| *t = t.join(ty))
            .or_insert(ty);
    }

    /// Joins another branch's outcome into this one: names assigned on
    /// either path, with joined types. Dead branches contribute nothing.
    fn join(&mut self, other: &Flow) {
        if !other.live {
            return;
        }
        if !self.live {
            *self = other.clone();
            return;
        }
        for (name, &ty) in &other.vars {
            self.weaken(name, ty);
        }
    }
}

/// Checking inside a function body: its frame locals (parameters and
/// every name the body assigns), which shadow everything else.
struct FnCtx {
    locals: Vec<String>,
}

struct Checker<'a> {
    env: &'a CheckEnv,
    /// Every name the program assigns anywhere (late-binding fallback
    /// for function bodies and forward references).
    defined: BTreeSet<String>,
    used: BTreeSet<String>,
    /// Structural issues and warnings.
    issues: Vec<CheckIssue>,
    /// Type errors in walk order.
    type_errors: Vec<CheckIssue>,
}

/// Collects every name any statement in `body` (recursively, including
/// function bodies and parameters) defines.
fn collect_defined(body: &[Stmt], out: &mut BTreeSet<String>) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::Assign(Target::Name(n), _) | StmtKind::AugAssign(Target::Name(n), _, _) => {
                out.insert(n.clone());
            }
            StmtKind::Assign(_, _) | StmtKind::AugAssign(_, _, _) => {}
            StmtKind::If(arms, els) => {
                for (_, arm) in arms {
                    collect_defined(arm, out);
                }
                if let Some(els) = els {
                    collect_defined(els, out);
                }
            }
            StmtKind::While(_, b) => collect_defined(b, out),
            StmtKind::For(vars, _, b) => {
                out.extend(vars.iter().cloned());
                collect_defined(b, out);
            }
            StmtKind::Def(name, params, b) => {
                out.insert(name.clone());
                out.extend(params.iter().cloned());
                collect_defined(b, out);
            }
            _ => {}
        }
        // Comprehension variables bind too (they leak into scope in
        // Pyrite, like Python 2).
        visit_exprs(stmt, &mut |e| {
            if let ExprKind::ListComp { vars, .. } = &e.kind {
                out.extend(vars.iter().cloned());
            }
        });
    }
}

/// Calls `f` on every expression of `stmt` itself (not of its nested
/// blocks), pre-order.
fn visit_exprs<'s>(stmt: &'s Stmt, f: &mut dyn FnMut(&'s Expr)) {
    match &stmt.kind {
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::Assign(t, e) | StmtKind::AugAssign(t, _, e) => {
            if let Target::Index(obj, key) = t {
                walk_expr(obj, f);
                walk_expr(key, f);
            }
            walk_expr(e, f);
        }
        StmtKind::If(arms, _) => {
            for (cond, _) in arms {
                walk_expr(cond, f);
            }
        }
        StmtKind::While(cond, _) => walk_expr(cond, f),
        StmtKind::For(_, iter, _) => walk_expr(iter, f),
        _ => {}
    }
}

/// A literal's truthiness, when statically known.
fn const_truth(e: &Expr) -> Option<bool> {
    match &e.kind {
        ExprKind::Bool(b) => Some(*b),
        ExprKind::Int(i) => Some(*i != 0),
        ExprKind::Float(x) => Some(*x != 0.0),
        ExprKind::Str(s) => Some(!s.is_empty()),
        ExprKind::None => Some(false),
        _ => None,
    }
}

/// Whether any statement in `body` (recursively, but not inside nested
/// `def`s) is `break` or `return`.
fn has_exit(body: &[Stmt]) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Break | StmtKind::Return(_) => true,
        StmtKind::If(arms, els) => {
            arms.iter().any(|(_, b)| has_exit(b)) || els.as_ref().is_some_and(|b| has_exit(b))
        }
        // A nested loop's own break exits *that* loop, not this one —
        // but a return inside it still exits. Keeping the recursion
        // here over-approximates exits, which only ever suppresses a
        // finding (sound for a rejection gate).
        StmtKind::While(_, b) | StmtKind::For(_, _, b) => has_exit(b),
        _ => false,
    })
}

/// The element type of iterating a value of type `it`.
fn elem_ty(it: Ty) -> Ty {
    if it == Ty::Str || it == Ty::Dict {
        Ty::Str
    } else {
        Ty::Any
    }
}

/// Binds loop or comprehension variables: a single name gets the
/// element type, unpacked names are unknown.
fn bind_loop_vars(flow: &mut Flow, vars: &[String], elem: Ty) {
    if let [var] = vars {
        flow.assign(var, elem);
    } else {
        for v in vars {
            flow.assign(v, Ty::Any);
        }
    }
}

/// Return types for builtins (conservative; only the always-certain
/// ones).
fn builtin_ret(name: &str) -> Ty {
    match name {
        "str" => Ty::Str,
        "float" => Ty::Float,
        "bool" => Ty::Bool,
        "range" | "sorted" | "enumerate" => Ty::List,
        "print" => Ty::None,
        _ => Ty::Any,
    }
}

impl Checker<'_> {
    fn issue(&mut self, code: &'static str, severity: CheckSeverity, line: usize, message: String) {
        self.issues.push(CheckIssue {
            code,
            severity,
            line,
            message,
        });
    }

    /// Records a type error; the walk goes on with [`Ty::Any`] so later
    /// statements still get their structural checks.
    fn type_error(&mut self, code: &'static str, line: usize, message: String) -> Ty {
        self.type_errors.push(CheckIssue {
            code,
            severity: CheckSeverity::Error,
            line,
            message,
        });
        Ty::Any
    }

    fn mismatch(&mut self, line: usize, message: String) -> Ty {
        self.type_error("type-mismatch", line, message)
    }

    fn block(&mut self, body: &[Stmt], flow: &mut Flow, fctx: Option<&FnCtx>) {
        for stmt in body {
            if !flow.live {
                // Unreachable code: still check it against a copy of the
                // facts so obvious errors surface, but do not let its
                // assignments revive the path.
                let mut dead = flow.clone();
                dead.live = true;
                self.stmt(stmt, &mut dead, fctx);
                continue;
            }
            self.stmt(stmt, flow, fctx);
        }
    }

    /// Checks one statement: its structure, its flow facts (recursing
    /// into nested blocks), then the names its own expressions use.
    fn stmt(&mut self, stmt: &Stmt, flow: &mut Flow, fctx: Option<&FnCtx>) {
        let line = stmt.line;
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.expr(e, flow, fctx);
            }
            StmtKind::Assign(Target::Name(name), value) => {
                let ty = self.expr(value, flow, fctx);
                flow.assign(name, ty);
            }
            StmtKind::Assign(Target::Index(obj, key), value) => {
                self.expr(value, flow, fctx);
                let ot = self.expr(obj, flow, fctx);
                let kt = self.expr(key, flow, fctx);
                self.check_index_store(ot, kt, line);
            }
            StmtKind::AugAssign(Target::Name(name), op, value) => {
                let rhs = self.expr(value, flow, fctx);
                let cur = self.use_name(name, line, flow, fctx);
                let ty = self.check_binary(*op, cur, rhs, line);
                flow.assign(name, ty);
            }
            StmtKind::AugAssign(Target::Index(obj, key), op, value) => {
                let rhs = self.expr(value, flow, fctx);
                let ot = self.expr(obj, flow, fctx);
                let kt = self.expr(key, flow, fctx);
                self.check_index_store(ot, kt, line);
                self.check_binary(*op, Ty::Any, rhs, line);
            }
            StmtKind::If(arms, else_body) => {
                let mut joined: Option<Flow> = None;
                let mut taken = false;
                for (cond, body) in arms {
                    self.expr(cond, flow, fctx);
                    match const_truth(cond) {
                        _ if taken => self.issue(
                            "dead-branch",
                            CheckSeverity::Warning,
                            cond.line,
                            "branch is unreachable: an earlier condition is always true"
                                .to_string(),
                        ),
                        Some(false) => self.issue(
                            "dead-branch",
                            CheckSeverity::Warning,
                            cond.line,
                            "branch condition is always false; its body never runs".to_string(),
                        ),
                        Some(true) => taken = true,
                        Option::None => {}
                    }
                    let mut arm = flow.clone();
                    self.block(body, &mut arm, fctx);
                    match &mut joined {
                        Some(j) => j.join(&arm),
                        None => joined = Some(arm),
                    }
                }
                let mut else_flow = flow.clone();
                if let Some(body) = else_body {
                    if taken {
                        self.issue(
                            "dead-branch",
                            CheckSeverity::Warning,
                            line,
                            "`else` is unreachable: an earlier condition is always true"
                                .to_string(),
                        );
                    }
                    self.block(body, &mut else_flow, fctx);
                }
                let mut joined = joined.expect("if has at least one arm");
                joined.join(&else_flow);
                *flow = joined;
            }
            StmtKind::While(cond, body) => {
                match const_truth(cond) {
                    Some(true) if !has_exit(body) => self.issue(
                        "unbounded-loop",
                        CheckSeverity::Error,
                        line,
                        "`while` loop condition is always true and the body never \
                         breaks or returns; the program cannot terminate"
                            .to_string(),
                    ),
                    Some(false) => self.issue(
                        "dead-branch",
                        CheckSeverity::Warning,
                        line,
                        "`while` loop condition is always false; the body never runs".to_string(),
                    ),
                    _ => {}
                }
                self.weaken_carried(stmt, flow);
                self.expr(cond, flow, fctx);
                let mut body_flow = flow.clone();
                self.block(body, &mut body_flow, fctx);
                flow.join(&body_flow);
                flow.live = true;
            }
            StmtKind::For(vars, iterable, body) => {
                let it = self.iterable(iterable, line, flow, fctx);
                self.weaken_carried(stmt, flow);
                let mut body_flow = flow.clone();
                bind_loop_vars(&mut body_flow, vars, elem_ty(it));
                self.block(body, &mut body_flow, fctx);
                flow.join(&body_flow);
                flow.live = true;
            }
            StmtKind::Def(name, params, body) => {
                let mut locals = params.clone();
                collect_assigned(body, &mut locals);
                let ctx = FnCtx { locals };
                let mut fn_flow = Flow::start();
                for p in params {
                    fn_flow.assign(p, Ty::Any);
                }
                self.block(body, &mut fn_flow, Some(&ctx));
                flow.assign(name, Ty::Func);
            }
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    self.expr(e, flow, fctx);
                }
                flow.live = false;
            }
            StmtKind::Break | StmtKind::Continue => flow.live = false,
            StmtKind::Pass => {}
        }
        self.names_in(stmt);
    }

    /// Loop-carried names: visible inside and after a loop body as
    /// possibly unassigned.
    fn weaken_carried(&self, stmt: &Stmt, flow: &mut Flow) {
        let mut carried = BTreeSet::new();
        collect_defined(std::slice::from_ref(stmt), &mut carried);
        for name in &carried {
            flow.weaken(name, Ty::Any);
        }
    }

    /// Types the iterable of a `for` or comprehension.
    fn iterable(&mut self, e: &Expr, line: usize, flow: &mut Flow, fctx: Option<&FnCtx>) -> Ty {
        let it = self.expr(e, flow, fctx);
        if matches!(it, Ty::Any | Ty::List | Ty::Str | Ty::Dict) {
            it
        } else {
            self.mismatch(line, format!("{} is not iterable", it.name()))
        }
    }

    /// Name-existence checks over every expression of `stmt` itself.
    fn names_in(&mut self, stmt: &Stmt) {
        let mut refs: Vec<(&str, usize, bool)> = Vec::new();
        visit_exprs(stmt, &mut |e| match &e.kind {
            ExprKind::Name(n) => refs.push((n, e.line, false)),
            ExprKind::Call(callee, _) => {
                if let ExprKind::Name(n) = &callee.kind {
                    // Mark as a call site; the plain Name visit also
                    // records it, so de-dup below keeps the call.
                    refs.push((n, callee.line, true));
                }
            }
            _ => {}
        });
        for &(name, line, is_call) in &refs {
            self.used.insert(name.to_string());
            if self.defined.contains(name) || self.env.has(name) {
                continue;
            }
            if is_call {
                let mut known: Vec<&str> = self
                    .env
                    .tools
                    .keys()
                    .map(String::as_str)
                    .chain(BUILTIN_NAMES.iter().copied())
                    .collect();
                known.sort_unstable();
                self.issue(
                    "unknown-call",
                    CheckSeverity::Error,
                    line,
                    format!(
                        "call to unknown function or tool '{name}' (available: {})",
                        known.join(", ")
                    ),
                );
            } else if !refs.iter().any(|&(n, _, c)| n == name && c) {
                // Avoid double-reporting the callee of an unknown call.
                self.issue(
                    "undefined-name",
                    CheckSeverity::Error,
                    line,
                    format!("'{name}' is never defined anywhere in the program"),
                );
            }
        }
    }

    /// Unused-variable warnings: top-level definitions never read.
    fn unused(&mut self, body: &[Stmt]) {
        let mut seen = BTreeSet::new();
        for stmt in body {
            let (name, what) = match &stmt.kind {
                StmtKind::Assign(Target::Name(n), _) => (n, "variable"),
                StmtKind::Def(n, _, _) => (n, "function"),
                _ => continue,
            };
            if name.starts_with('_') || self.used.contains(name) || !seen.insert(name.clone()) {
                continue;
            }
            self.issue(
                "unused-variable",
                CheckSeverity::Warning,
                stmt.line,
                format!("{what} '{name}' is assigned but never used"),
            );
        }
    }

    /// Resolves a name use, enforcing use-before-assign at the top level
    /// and the late-binding rules inside functions. A name that exists
    /// nowhere is a structural error ([`Checker::names_in`]) and types
    /// as `Any` here.
    fn use_name(&mut self, name: &str, line: usize, flow: &Flow, fctx: Option<&FnCtx>) -> Ty {
        if let Some(&ty) = flow.vars.get(name) {
            return ty;
        }
        match fctx {
            // Inside a function an unseen name may still resolve at call
            // time: a global assigned before the call, a tool, or a
            // builtin. Only names that are locals of this function (and
            // thus shadow everything) are definitely unassigned here.
            Some(ctx) if ctx.locals.iter().any(|l| l == name) => self.type_error(
                "use-before-assign",
                line,
                format!("local variable '{name}' used before assignment"),
            ),
            // At the top level tools and builtins resolve (reading one as
            // a value is the interpreter's error, not a type error).
            None if !self.env.tools.contains_key(name)
                && !is_builtin(name)
                && self.defined.contains(name) =>
            {
                self.type_error(
                    "use-before-assign",
                    line,
                    format!("variable '{name}' used before assignment"),
                )
            }
            _ => Ty::Any,
        }
    }

    fn expr(&mut self, e: &Expr, flow: &mut Flow, fctx: Option<&FnCtx>) -> Ty {
        let line = e.line;
        match &e.kind {
            ExprKind::Int(_) => Ty::Int,
            ExprKind::Float(_) => Ty::Float,
            ExprKind::Str(_) => Ty::Str,
            ExprKind::Bool(_) => Ty::Bool,
            ExprKind::None => Ty::None,
            ExprKind::Name(name) => self.use_name(name, line, flow, fctx),
            ExprKind::List(items) => {
                for item in items {
                    self.expr(item, flow, fctx);
                }
                Ty::List
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    let kt = self.expr(k, flow, fctx);
                    if !kt.satisfies(Ty::Str) {
                        self.mismatch(line, "dict keys must be strings".into());
                    }
                    self.expr(v, flow, fctx);
                }
                Ty::Dict
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let lt = self.expr(lhs, flow, fctx);
                let rt = self.expr(rhs, flow, fctx);
                self.check_binary(*op, lt, rt, line)
            }
            ExprKind::Unary(UnaryOp::Neg, operand) => {
                let t = self.expr(operand, flow, fctx);
                if t.is_num() {
                    t
                } else {
                    self.mismatch(line, format!("cannot negate {}", t.name()))
                }
            }
            ExprKind::Unary(UnaryOp::Not, operand) => {
                self.expr(operand, flow, fctx);
                Ty::Bool
            }
            ExprKind::Call(callee, args) => {
                let arg_tys: Vec<Ty> = args.iter().map(|a| self.expr(a, flow, fctx)).collect();
                self.check_call(callee, &arg_tys, line, flow, fctx)
            }
            ExprKind::MethodCall(obj, _method, args) => {
                let ot = self.expr(obj, flow, fctx);
                for a in args {
                    self.expr(a, flow, fctx);
                }
                if matches!(ot, Ty::Int | Ty::Float | Ty::Bool | Ty::None | Ty::Func) {
                    return self.mismatch(line, format!("{} has no methods", ot.name()));
                }
                Ty::Any
            }
            ExprKind::Index(obj, key) => {
                let ot = self.expr(obj, flow, fctx);
                let kt = self.expr(key, flow, fctx);
                match ot {
                    Ty::List | Ty::Str if !kt.satisfies(Ty::Int) || kt == Ty::Float => self
                        .mismatch(
                            line,
                            format!("list indices must be ints, not {}", kt.name()),
                        ),
                    Ty::Str => Ty::Str,
                    Ty::Dict if !kt.satisfies(Ty::Str) => {
                        self.mismatch(line, "dict keys must be strings".into())
                    }
                    Ty::List | Ty::Dict | Ty::Any => Ty::Any,
                    other => self.mismatch(line, format!("{} is not subscriptable", other.name())),
                }
            }
            ExprKind::ListComp {
                element,
                vars,
                iterable,
                condition,
            } => {
                let it = self.iterable(iterable, line, flow, fctx);
                bind_loop_vars(flow, vars, elem_ty(it));
                if let Some(cond) = condition {
                    self.expr(cond, flow, fctx);
                }
                self.expr(element, flow, fctx);
                // Comprehension vars leak into the enclosing scope but
                // only run when the iterable is non-empty.
                for v in vars {
                    flow.weaken(v, Ty::Any);
                }
                Ty::List
            }
            ExprKind::Slice(obj, lo, hi) => {
                let ot = self.expr(obj, flow, fctx);
                for bound in [lo, hi].into_iter().flatten() {
                    let bt = self.expr(bound, flow, fctx);
                    if !bt.satisfies(Ty::Int) || bt == Ty::Float {
                        return self.mismatch(line, "slice bounds must be ints".into());
                    }
                }
                match ot {
                    Ty::List | Ty::Str | Ty::Any => ot,
                    other => self.mismatch(line, format!("{} cannot be sliced", other.name())),
                }
            }
        }
    }

    /// Checks a call expression. Tool and builtin calls resolve only when
    /// the name cannot be shadowed by any assignment in the program (the
    /// interpreter resolves shadowing dynamically; a name assigned
    /// *anywhere* might shadow by call time, so such calls are left to
    /// runtime).
    fn check_call(
        &mut self,
        callee: &Expr,
        args: &[Ty],
        line: usize,
        flow: &mut Flow,
        fctx: Option<&FnCtx>,
    ) -> Ty {
        let ty = match &callee.kind {
            ExprKind::Name(name) => {
                let env = self.env;
                let shadowable = self.defined.contains(name) || env.globals.contains(name);
                if !shadowable {
                    if let Some(sig) = env.tools.get(name) {
                        return match sig {
                            Some(sig) => self.check_tool_args(name, sig, args, line),
                            None => Ty::Any,
                        };
                    }
                    if is_builtin(name) {
                        return builtin_ret(name);
                    }
                }
                // A (possibly shadowed) variable callee: ensure it resolves.
                self.use_name(name, callee.line, flow, fctx)
            }
            _ => self.expr(callee, flow, fctx),
        };
        if ty.is_callable() {
            Ty::Any
        } else {
            self.mismatch(line, format!("{} is not callable", ty.name()))
        }
    }

    /// Checks a tool call's arity and argument types against its
    /// signature; the call types as the signature's return type.
    fn check_tool_args(&mut self, name: &str, sig: &ToolSig, args: &[Ty], line: usize) -> Ty {
        let n = sig.params.len();
        if n != args.len() {
            return self.type_error(
                "tool-arity",
                line,
                format!(
                    "{name}() takes {n} argument{} but {} {} given",
                    if n == 1 { "" } else { "s" },
                    args.len(),
                    if args.len() == 1 { "was" } else { "were" },
                ),
            );
        }
        let mismatch = sig
            .params
            .iter()
            .zip(args)
            .find(|((_, pty), aty)| !aty.satisfies(*pty));
        if let Some(((pname, pty), aty)) = mismatch {
            return self.type_error(
                "tool-arg-type",
                line,
                format!(
                    "{name}() argument '{pname}' expects {}, got {}",
                    pty.name(),
                    aty.name()
                ),
            );
        }
        sig.ret
    }

    /// Checks a binary operation, mirroring the interpreter's `binary`
    /// kernel: an error is reported only for operand-type combinations
    /// the interpreter always rejects.
    fn check_binary(&mut self, op: BinOp, l: Ty, r: Ty, line: usize) -> Ty {
        use Ty::*;
        let message = match op {
            BinOp::Add => match (l, r) {
                (Any, _) | (_, Any) => return Any,
                (Int, Int) => return Int,
                (Str, Str) => return Str,
                (List, List) => return List,
                (Int | Float, Int | Float) => return Float,
                _ => format!("cannot add {} and {}", l.name(), r.name()),
            },
            BinOp::Sub => match (l, r) {
                (Any, _) | (_, Any) => return Any,
                (Int, Int) => return Int,
                (Int | Float, Int | Float) => return Float,
                _ => format!("unsupported operand types: {} and {}", l.name(), r.name()),
            },
            BinOp::Mul => match (l, r) {
                (Any, _) | (_, Any) => return Any,
                (Int, Int) => return Int,
                (Str, Int) | (Int, Str) => return Str,
                (Int | Float, Int | Float) => return Float,
                _ => format!("unsupported operand types: {} and {}", l.name(), r.name()),
            },
            BinOp::Div => match (l, r) {
                (Any, _) | (_, Any) => return Any,
                (Int | Float, Int | Float) => return Float,
                _ => format!("cannot divide {} by {}", l.name(), r.name()),
            },
            BinOp::FloorDiv => match (l, r) {
                (Any, _) | (_, Any) => return Any,
                (Int, Int) => return Int,
                (Int | Float, Int | Float) => return Float,
                _ => "'//' needs numbers".into(),
            },
            BinOp::Mod => match (l, r) {
                (Any, _) | (_, Any) => return Any,
                (Int, Int) => return Int,
                _ => "'%' needs ints".into(),
            },
            BinOp::Eq | BinOp::NotEq => return Bool,
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => match (l, r) {
                (Any, _) | (_, Any) | (Int | Float, Int | Float) | (Str, Str) => return Bool,
                _ => format!("cannot compare {} and {}", l.name(), r.name()),
            },
            BinOp::In | BinOp::NotIn => match r {
                Any | Str | List | Dict => return Bool,
                _ => format!("'in' not supported between {} and {}", l.name(), r.name()),
            },
            // Short-circuit operators accept anything and yield one of
            // their operands.
            BinOp::And | BinOp::Or => return l.join(r),
        };
        self.mismatch(line, message)
    }

    fn check_index_store(&mut self, obj: Ty, key: Ty, line: usize) {
        let ok = match obj {
            Ty::Any => true,
            Ty::Dict => key.satisfies(Ty::Str),
            Ty::List => key.satisfies(Ty::Int) && key != Ty::Float,
            _ => false,
        };
        if !ok {
            self.mismatch(
                line,
                format!("cannot assign into {} with {} key", obj.name(), key.name()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn env_with(tools: &[&str]) -> CheckEnv {
        CheckEnv {
            globals: BTreeSet::new(),
            tools: tools.iter().map(|s| (s.to_string(), None)).collect(),
        }
    }

    /// The agent tool signatures the type rules are checked against.
    fn typed_env() -> CheckEnv {
        let mut env = CheckEnv::default();
        env.add_tool("read_file", "read_file(name: str) -> str");
        env.add_tool("list_files", "list_files() -> list[str]");
        env.add_tool(
            "search_keywords",
            "search_keywords(query: str, k: int) -> list[str]",
        );
        env.add_tool("final_answer", "final_answer(answer) -> None");
        env
    }

    fn run_check(src: &str, env: &CheckEnv) -> Vec<CheckIssue> {
        let program = parse(src).expect("fixture parses");
        check(&program, env)
    }

    fn errors(issues: &[CheckIssue]) -> Vec<&CheckIssue> {
        issues
            .iter()
            .filter(|i| i.severity == CheckSeverity::Error)
            .collect()
    }

    /// The rejecting error of `src` under the typed environment.
    fn verdict(src: &str) -> Option<ScriptError> {
        first_error(&run_check(src, &typed_env()))
    }

    fn well_typed(src: &str) {
        assert_eq!(verdict(src), None, "{src}");
    }

    fn type_err(src: &str) -> String {
        match verdict(src) {
            Some(err @ ScriptError::Type { .. }) => err.to_string(),
            other => panic!("expected a type error for {src:?}, got {other:?}"),
        }
    }

    #[test]
    fn clean_program_passes() {
        let src = "x = 1\ny = x + 2\ny\n";
        let issues = run_check(src, &env_with(&[]));
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn undefined_name_is_rejected() {
        let issues = run_check("x = missing + 1\nx\n", &env_with(&[]));
        let errs = errors(&issues);
        assert_eq!(errs.len(), 1, "{issues:?}");
        assert_eq!(errs[0].code, "undefined-name");
        assert_eq!(errs[0].line, 1);
    }

    #[test]
    fn late_binding_is_not_rejected() {
        // `helper` is defined after `main`, and `acc` is assigned in one
        // branch and read in another — both legal at runtime.
        let src = "def main():\n    return helper(2)\ndef helper(n):\n    return n * 2\nmain()\n";
        assert!(errors(&run_check(src, &env_with(&[]))).is_empty());
    }

    #[test]
    fn unknown_tool_call_is_rejected_and_lists_tools() {
        let issues = run_check("serch_docs(\"q\")\n", &env_with(&["search_docs"]));
        let errs = errors(&issues);
        assert_eq!(errs.len(), 1, "{issues:?}");
        assert_eq!(errs[0].code, "unknown-call");
        assert!(errs[0].message.contains("search_docs"));
    }

    #[test]
    fn while_true_without_exit_is_rejected() {
        let issues = run_check("while True:\n    x = 1\n", &env_with(&[]));
        assert!(errors(&issues).iter().any(|i| i.code == "unbounded-loop"));
        // With a break it is fine.
        let ok = run_check("while True:\n    break\n", &env_with(&[]));
        assert!(errors(&ok).is_empty(), "{ok:?}");
        // A non-literal condition is fine (the fuel budget guards it).
        let ok = run_check("n = 3\nwhile n > 0:\n    n = n - 1\nn\n", &env_with(&[]));
        assert!(errors(&ok).is_empty(), "{ok:?}");
    }

    #[test]
    fn dead_branches_warn_but_do_not_reject() {
        let src = "if False:\n    x = 1\nelse:\n    x = 2\nx\n";
        let issues = run_check(src, &env_with(&[]));
        assert!(errors(&issues).is_empty(), "{issues:?}");
        assert!(issues.iter().any(|i| i.code == "dead-branch"));
    }

    #[test]
    fn unused_variable_warns() {
        let issues = run_check("x = 1\ny = 2\ny\n", &env_with(&[]));
        assert!(errors(&issues).is_empty());
        let unused: Vec<_> = issues
            .iter()
            .filter(|i| i.code == "unused-variable")
            .collect();
        assert_eq!(unused.len(), 1, "{issues:?}");
        assert!(unused[0].message.contains("'x'"));
    }

    #[test]
    fn underscore_names_are_exempt_from_unused() {
        let issues = run_check("_scratch = 1\n2\n", &env_with(&[]));
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn first_error_converts_to_static_script_error() {
        let issues = run_check("boom()\n", &env_with(&[]));
        let err = first_error(&issues).expect("has error");
        assert!(matches!(err, ScriptError::Static { line: 1, .. }));
        assert!(err.to_string().starts_with("static error (line 1):"));
    }

    #[test]
    fn comprehension_vars_count_as_defined() {
        let src = "xs = [1, 2, 3]\nys = [v * 2 for v in xs]\nys\n";
        assert!(run_check(src, &env_with(&[])).is_empty());
    }

    #[test]
    fn builtin_list_matches_interpreter() {
        // Every name in BUILTIN_NAMES must actually resolve when called.
        let mut interp = crate::Interpreter::new();
        for b in BUILTIN_NAMES {
            let src = match *b {
                "print" => "print(1)".to_string(),
                "range" => "range(1)".to_string(),
                "enumerate" => "enumerate([1])".to_string(),
                "sum" | "min" | "max" | "sorted" | "len" => format!("{b}([1])"),
                _ => format!("{b}(1)"),
            };
            let res = interp.run(&src);
            assert!(res.is_ok(), "builtin {b} failed: {res:?}");
        }
    }

    #[test]
    fn accepts_well_typed_programs() {
        well_typed(
            "files = list_files()\nfor f in files:\n    text = read_file(f)\n    print(text)",
        );
        well_typed("x = 1\nif x > 0:\n    y = 'pos'\nelse:\n    y = 'neg'\nprint(y)");
        well_typed("total = 0\nfor n in range(10):\n    total += n\ntotal");
        well_typed(
            "def rate(name):\n    text = read_file(name)\n    return len(text)\nrate('a.txt')",
        );
    }

    #[test]
    fn rejects_use_before_assign() {
        let msg = type_err("print(x)\nx = 1");
        assert!(msg.contains("used before assignment"), "{msg}");
        well_typed("x = 1\nprint(x)");
    }

    #[test]
    fn rejects_tool_arity_errors() {
        let msg = type_err("read_file('a.txt', 'extra')");
        assert!(msg.contains("takes 1 argument"), "{msg}");
        let msg = type_err("list_files('oops')");
        assert!(msg.contains("takes 0 arguments"), "{msg}");
    }

    #[test]
    fn rejects_tool_argument_type_errors() {
        let msg = type_err("read_file(42)");
        assert!(msg.contains("expects str, got int"), "{msg}");
        let msg = type_err("search_keywords('q', 'not-an-int')");
        assert!(msg.contains("expects int, got str"), "{msg}");
    }

    #[test]
    fn tool_calls_shadowed_by_assignment_are_skipped() {
        // `read_file` is reassigned somewhere, so the call cannot be
        // statically bound to the tool.
        well_typed("read_file = 1\nx = 2\nprint(x)");
    }

    #[test]
    fn rejects_definite_operator_misuse() {
        let msg = type_err("x = 'a' + 1");
        assert!(msg.contains("cannot add str and int"), "{msg}");
        let msg = type_err("x = {} - 1");
        assert!(msg.contains("unsupported operand types"), "{msg}");
        let msg = type_err("x = 'a' % 2");
        assert!(msg.contains("'%' needs ints"), "{msg}");
    }

    #[test]
    fn branch_join_collapses_types() {
        // int in one arm, str in the other: join is Any, so later use
        // with either type passes.
        well_typed("if 1 > 0:\n    v = 1\nelse:\n    v = 'x'\nw = v\nprint(w)");
        // Both arms int: later arithmetic stays checked.
        let msg = type_err("if 1 > 0:\n    v = 1\nelse:\n    v = 2\nx = 'a' + v");
        assert!(msg.contains("cannot add"), "{msg}");
    }

    #[test]
    fn loop_carried_variables_allowed() {
        well_typed("total = 0\nwhile total < 5:\n    total += 1\nprint(total)");
        well_typed("for f in list_files():\n    last = f\n");
    }

    #[test]
    fn function_locals_checked_for_use_before_assign() {
        let msg = type_err("def f(n):\n    m = q\n    q = n\n    return m\nf(1)");
        assert!(msg.contains("'q' used before assignment"), "{msg}");
    }

    #[test]
    fn late_bound_globals_allowed_in_functions() {
        // `helper` is defined after `f` but before the call: legal.
        well_typed("def f(n):\n    return helper(n)\ndef helper(n):\n    return n + 1\nf(1)");
    }

    #[test]
    fn rejects_calling_non_callables() {
        let msg = type_err("x = 3\nx()");
        assert!(msg.contains("not callable"), "{msg}");
    }

    #[test]
    fn structural_errors_win_over_earlier_type_errors() {
        let issues = run_check("x = 'a' + 1\nboom()", &typed_env());
        let err = first_error(&issues).expect("rejected");
        assert!(matches!(err, ScriptError::Static { line: 2, .. }), "{err}");
        // Both findings are reported; the type error comes last.
        let last = issues.last().expect("issues");
        assert_eq!((last.code, last.line), ("type-mismatch", 1));
    }

    #[test]
    fn signature_parsing() {
        let sig = ToolSig::parse("search_keywords(query: str, k: int) -> list[str]").unwrap();
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.params[0], ("query".to_string(), Ty::Str));
        assert_eq!(sig.params[1], ("k".to_string(), Ty::Int));
        assert_eq!(sig.ret, Ty::List);
        let sig = ToolSig::parse("final_answer(answer) -> None").unwrap();
        assert_eq!(sig.params, vec![("answer".to_string(), Ty::Any)]);
        assert_eq!(sig.ret, Ty::None);
        assert!(ToolSig::parse("not a signature").is_none());
    }
}
