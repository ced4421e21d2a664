//! Abstract syntax tree for Pyrite.

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    /// Membership test (`x in xs`).
    In,
    /// Negated membership (`x not in xs`).
    NotIn,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// An expression with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Expression kind.
    pub kind: ExprKind,
    /// 1-based source line.
    pub line: usize,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `None`.
    None,
    /// Variable reference.
    Name(String),
    /// List display `[a, b, c]`.
    List(Vec<Expr>),
    /// Dict display `{k: v, ...}`.
    Dict(Vec<(Expr, Expr)>),
    /// Binary operation (including `and`/`or`, which short-circuit).
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Function call `f(a, b)`.
    Call(Box<Expr>, Vec<Expr>),
    /// Method call `obj.m(a, b)`.
    MethodCall(Box<Expr>, String, Vec<Expr>),
    /// Subscript `obj[key]`.
    Index(Box<Expr>, Box<Expr>),
    /// List comprehension `[expr for var in iterable if cond]`.
    ListComp {
        /// Element expression.
        element: Box<Expr>,
        /// Loop variable(s) (multiple names unpack).
        vars: Vec<String>,
        /// Source iterable.
        iterable: Box<Expr>,
        /// Optional filter condition.
        condition: Option<Box<Expr>>,
    },
    /// Slice `obj[lo:hi]` (either bound optional).
    Slice(Box<Expr>, Option<Box<Expr>>, Option<Box<Expr>>),
}

/// A statement with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Statement kind.
    pub kind: StmtKind,
    /// 1-based source line.
    pub line: usize,
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// `name = …`
    Name(String),
    /// `obj[key] = …`
    Index(Expr, Expr),
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// An expression evaluated for effect (its value becomes the program
    /// result if it is the final statement).
    Expr(Expr),
    /// `target = value`
    Assign(Target, Expr),
    /// `target += value` / `target -= value`
    AugAssign(Target, BinOp, Expr),
    /// `if cond: … elif …: … else: …` — a list of (condition, body) arms
    /// plus an optional else body.
    If(Vec<(Expr, Vec<Stmt>)>, Option<Vec<Stmt>>),
    /// `while cond: …`
    While(Expr, Vec<Stmt>),
    /// `for var[, var2…] in iterable: …` (multiple targets unpack each
    /// element, Python-style).
    For(Vec<String>, Expr, Vec<Stmt>),
    /// `def name(params): …`
    Def(String, Vec<String>, Vec<Stmt>),
    /// `return value?`
    Return(Option<Expr>),
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `pass`
    Pass,
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

/// Calls `f` on `e` and then on every sub-expression, pre-order.
pub(crate) fn walk_expr<'e>(e: &'e Expr, f: &mut dyn FnMut(&'e Expr)) {
    f(e);
    match &e.kind {
        ExprKind::List(items) => items.iter().for_each(|e| walk_expr(e, f)),
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                walk_expr(k, f);
                walk_expr(v, f);
            }
        }
        ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        ExprKind::Unary(_, a) => walk_expr(a, f),
        ExprKind::Call(obj, args) | ExprKind::MethodCall(obj, _, args) => {
            walk_expr(obj, f);
            args.iter().for_each(|e| walk_expr(e, f));
        }
        ExprKind::ListComp {
            element,
            iterable,
            condition,
            ..
        } => {
            walk_expr(element, f);
            walk_expr(iterable, f);
            if let Some(c) = condition {
                walk_expr(c, f);
            }
        }
        ExprKind::Slice(obj, lo, hi) => {
            walk_expr(obj, f);
            if let Some(lo) = lo {
                walk_expr(lo, f);
            }
            if let Some(hi) = hi {
                walk_expr(hi, f);
            }
        }
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::None
        | ExprKind::Name(_) => {}
    }
}

/// Collects every name a statement list can assign in its own frame
/// (assignment targets, loop variables, `def` names, comprehension
/// variables), in first-assignment order, without descending into
/// nested `def` bodies — those are separate frames. The order is the
/// compiler's local slot order.
pub(crate) fn collect_assigned(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => comp_vars(e, out),
            StmtKind::Assign(target, e) | StmtKind::AugAssign(target, _, e) => {
                match target {
                    Target::Name(n) => add_name(n, out),
                    Target::Index(o, k) => {
                        comp_vars(o, out);
                        comp_vars(k, out);
                    }
                }
                comp_vars(e, out);
            }
            StmtKind::If(arms, else_body) => {
                for (cond, body) in arms {
                    comp_vars(cond, out);
                    collect_assigned(body, out);
                }
                if let Some(body) = else_body {
                    collect_assigned(body, out);
                }
            }
            StmtKind::While(cond, body) => {
                comp_vars(cond, out);
                collect_assigned(body, out);
            }
            StmtKind::For(vars, iterable, body) => {
                for v in vars {
                    add_name(v, out);
                }
                comp_vars(iterable, out);
                collect_assigned(body, out);
            }
            StmtKind::Def(name, _, _) => add_name(name, out),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Pass => {}
        }
    }
}

/// Collects comprehension variables from every sub-expression (they bind
/// in the enclosing frame, Python-2 style, exactly as the interpreter's
/// `bind_loop_vars` does).
fn comp_vars(e: &Expr, out: &mut Vec<String>) {
    walk_expr(e, &mut |e| {
        if let ExprKind::ListComp { vars, .. } = &e.kind {
            for v in vars {
                add_name(v, out);
            }
        }
    });
}

fn add_name(name: &str, out: &mut Vec<String>) {
    if !out.iter().any(|n| n == name) {
        out.push(name.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_construction() {
        let e = Expr {
            kind: ExprKind::Int(1),
            line: 1,
        };
        let b = Expr {
            kind: ExprKind::Binary(
                BinOp::Add,
                Box::new(e.clone()),
                Box::new(Expr {
                    kind: ExprKind::Int(2),
                    line: 1,
                }),
            ),
            line: 1,
        };
        assert!(matches!(b.kind, ExprKind::Binary(BinOp::Add, _, _)));
        assert_eq!(e.line, 1);
    }
}
