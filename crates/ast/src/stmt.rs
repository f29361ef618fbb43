//! P statements.
//!
//! Figure 3: `stmt ::= skip | x := expr | x := new m(init*) | delete |
//! send(expr, e, expr) | raise(e, expr) | leave | return | assert(expr) |
//! stmt; stmt | if expr then stmt else stmt | while expr stmt`.
//!
//! Two additional statement forms from §3 ("Other features") are included:
//! the `call n'` statement that pushes a state with a saved continuation,
//! and calls to foreign functions.

use crate::{Expr, Span, Symbol};

/// A named initializer `x = expr` in `new m(...)` or the program's `main`
/// declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Initializer {
    /// The variable of the created machine being initialized.
    pub var: Symbol,
    /// The value, evaluated in the *creating* machine's context.
    pub value: Expr,
}

/// The body of a statement node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StmtKind {
    /// `skip;`
    Skip,
    /// `x := expr;`
    Assign {
        /// Destination variable.
        dst: Symbol,
        /// Source expression.
        value: Expr,
    },
    /// `x := new m(a = 1, b = this);`
    New {
        /// Variable receiving the new machine's identifier.
        dst: Symbol,
        /// Machine type to instantiate.
        machine: Symbol,
        /// Initial values for the created machine's variables.
        inits: Vec<Initializer>,
    },
    /// `delete;` — terminates the executing machine and frees it.
    Delete,
    /// `send(target, e, payload);` — payload `None` is sugar for `null`.
    Send {
        /// Expression evaluating to the target machine id.
        target: Expr,
        /// Event to send.
        event: Symbol,
        /// Optional payload.
        payload: Option<Expr>,
    },
    /// `raise(e, payload);` — aborts the current statement, raising `e`
    /// locally.
    Raise {
        /// The locally raised event.
        event: Symbol,
        /// Optional payload.
        payload: Option<Expr>,
    },
    /// `leave;` — jump to the end of the entry statement and wait for the
    /// next event.
    Leave,
    /// `return;` — pop the current state off the call stack.
    Return,
    /// `assert(expr);`
    Assert(Expr),
    /// `{ s1 s2 ... }`
    Block(Vec<Stmt>),
    /// `if (e) { .. } else { .. }` — `els` may be an empty block.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Else branch.
        els: Box<Stmt>,
    },
    /// `while (e) { .. }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `call n;` — push state `n` with a saved continuation; execution
    /// resumes after this statement when `n` is popped.
    CallState(Symbol),
    /// `f(a, b);` or `x := f(a, b);` — a foreign-function call for effect
    /// or value.
    ForeignCall {
        /// Variable receiving the result, if any.
        dst: Option<Symbol>,
        /// Foreign function name.
        func: Symbol,
        /// Arguments.
        args: Vec<Expr>,
    },
}

/// A statement with its source span.
///
/// # Examples
///
/// ```
/// use p_ast::{Stmt, Expr};
///
/// let s = Stmt::block(vec![Stmt::skip(), Stmt::assert(Expr::bool(true))]);
/// assert_eq!(s.flatten().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Where it came from.
    pub span: Span,
}

impl Stmt {
    /// Creates a statement with a synthetic span.
    pub fn new(kind: StmtKind) -> Stmt {
        Stmt {
            kind,
            span: Span::SYNTHETIC,
        }
    }

    /// Creates a statement with a source span.
    pub fn spanned(kind: StmtKind, span: Span) -> Stmt {
        Stmt { kind, span }
    }

    /// `skip;`
    pub fn skip() -> Stmt {
        Stmt::new(StmtKind::Skip)
    }

    /// `dst := value;`
    pub fn assign(dst: Symbol, value: Expr) -> Stmt {
        Stmt::new(StmtKind::Assign { dst, value })
    }

    /// `delete;`
    pub fn delete() -> Stmt {
        Stmt::new(StmtKind::Delete)
    }

    /// `raise(event);`
    pub fn raise(event: Symbol) -> Stmt {
        Stmt::new(StmtKind::Raise {
            event,
            payload: None,
        })
    }

    /// `leave;`
    pub fn leave() -> Stmt {
        Stmt::new(StmtKind::Leave)
    }

    /// `return;`
    pub fn ret() -> Stmt {
        Stmt::new(StmtKind::Return)
    }

    /// `assert(cond);`
    pub fn assert(cond: Expr) -> Stmt {
        Stmt::new(StmtKind::Assert(cond))
    }

    /// A block of statements.
    pub fn block(stmts: Vec<Stmt>) -> Stmt {
        Stmt::new(StmtKind::Block(stmts))
    }

    /// `if (cond) { then } else { els }`
    pub fn if_else(cond: Expr, then: Stmt, els: Stmt) -> Stmt {
        Stmt::new(StmtKind::If {
            cond,
            then: Box::new(then),
            els: Box::new(els),
        })
    }

    /// `while (cond) { body }`
    pub fn while_loop(cond: Expr, body: Stmt) -> Stmt {
        Stmt::new(StmtKind::While {
            cond,
            body: Box::new(body),
        })
    }

    /// Returns the statements of a block, or a one-element slice view of
    /// any other statement.
    pub fn flatten(&self) -> Vec<&Stmt> {
        match &self.kind {
            StmtKind::Block(stmts) => stmts.iter().collect(),
            _ => vec![self],
        }
    }

    /// Whether the statement (or any sub-statement/expression) uses the
    /// nondeterministic choice `*`.
    pub fn contains_nondet(&self) -> bool {
        let mut found = false;
        self.for_each_expr(&mut |e| found |= e.contains_nondet());
        if found {
            return true;
        }
        self.for_each_child(&mut |s| found |= s.contains_nondet());
        found
    }

    /// Calls `f` on every direct child statement.
    pub fn for_each_child<F: FnMut(&Stmt)>(&self, f: &mut F) {
        match &self.kind {
            StmtKind::Block(stmts) => stmts.iter().for_each(&mut *f),
            StmtKind::If { then, els, .. } => {
                f(then);
                f(els);
            }
            StmtKind::While { body, .. } => f(body),
            _ => {}
        }
    }

    /// Calls `f` on every expression appearing directly in this statement
    /// (not descending into child statements).
    pub fn for_each_expr<F: FnMut(&Expr)>(&self, f: &mut F) {
        match &self.kind {
            StmtKind::Assign { value, .. } => f(value),
            StmtKind::New { inits, .. } => inits.iter().for_each(|i| f(&i.value)),
            StmtKind::Send {
                target, payload, ..
            } => {
                f(target);
                if let Some(p) = payload {
                    f(p);
                }
            }
            StmtKind::Raise { payload, .. } => {
                if let Some(p) = payload {
                    f(p);
                }
            }
            StmtKind::Assert(e) => f(e),
            StmtKind::If { cond, .. } => f(cond),
            StmtKind::While { cond, .. } => f(cond),
            StmtKind::ForeignCall { args, .. } => args.iter().for_each(&mut *f),
            StmtKind::Skip
            | StmtKind::Delete
            | StmtKind::Leave
            | StmtKind::Return
            | StmtKind::Block(_)
            | StmtKind::CallState(_) => {}
        }
    }
}

impl Default for Stmt {
    /// The default statement is `skip`.
    fn default() -> Stmt {
        Stmt::skip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, Interner};

    #[test]
    fn flatten_block_vs_single() {
        let s = Stmt::block(vec![Stmt::skip(), Stmt::leave(), Stmt::ret()]);
        assert_eq!(s.flatten().len(), 3);
        assert_eq!(Stmt::delete().flatten().len(), 1);
    }

    #[test]
    fn contains_nondet_in_nested_statement() {
        let inner = Stmt::if_else(Expr::nondet(), Stmt::skip(), Stmt::skip());
        let outer = Stmt::while_loop(Expr::bool(true), Stmt::block(vec![inner]));
        assert!(outer.contains_nondet());
        assert!(!Stmt::skip().contains_nondet());
    }

    #[test]
    fn for_each_expr_visits_all_direct_exprs() {
        let mut i = Interner::new();
        let x = i.intern("x");
        let e = i.intern("E");
        let s = Stmt::new(StmtKind::Send {
            target: Expr::this(),
            event: e,
            payload: Some(Expr::binary(BinOp::Add, Expr::int(1), Expr::name(x))),
        });
        let mut count = 0;
        s.for_each_expr(&mut |_| count += 1);
        assert_eq!(count, 2); // target + payload
    }

    #[test]
    fn default_is_skip() {
        assert_eq!(Stmt::default().kind, StmtKind::Skip);
    }
}
