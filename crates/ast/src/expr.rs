//! P expressions.
//!
//! Figure 3: `expr ::= this | msg | arg | b | c | ⊥ | x | * | uop expr |
//! expr bop expr`. Identifiers in expression position may name either a
//! local variable or an event; the resolver in `p-typecheck` decides which.

use crate::{Span, Symbol};

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

impl UnOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Not => "!",
            UnOp::Neg => "-",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero yields ⊥ at run time)
    Div,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding power for the pretty-printer and parser (higher binds
    /// tighter). Mirrors C precedence for the shared operators.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div => 6,
        }
    }

    /// Whether the operator is arithmetic (`int × int → int`).
    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }

    /// Whether the operator is boolean (`bool × bool → bool`).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// The body of an expression node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// The identifier of the executing machine (`this`).
    This,
    /// The most recently received event (`msg`).
    Msg,
    /// The payload of the most recently received event (`arg`).
    Arg,
    /// The undefined value ⊥ (surface syntax `null`).
    Null,
    /// A boolean literal.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// An identifier — a local variable or an event name; resolved during
    /// type checking.
    Name(Symbol),
    /// Nondeterministic boolean choice `*` (ghost machines only).
    Nondet,
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A call to a foreign function used as an expression,
    /// e.g. `x := f(a, b)`.
    ForeignCall(Symbol, Vec<Expr>),
}

/// An expression with its source span.
///
/// # Examples
///
/// ```
/// use p_ast::{Expr, ExprKind, BinOp};
///
/// let two = Expr::int(2);
/// let sum = Expr::binary(BinOp::Add, two.clone(), two);
/// assert!(matches!(sum.kind, ExprKind::Binary(BinOp::Add, _, _)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Where it came from.
    pub span: Span,
}

impl Expr {
    /// Creates an expression with a synthetic span.
    pub fn new(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::SYNTHETIC,
        }
    }

    /// Creates an expression with a source span.
    pub fn spanned(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// `this`
    pub fn this() -> Expr {
        Expr::new(ExprKind::This)
    }

    /// `msg`
    pub fn msg() -> Expr {
        Expr::new(ExprKind::Msg)
    }

    /// A boolean literal.
    pub fn bool(b: bool) -> Expr {
        Expr::new(ExprKind::Bool(b))
    }

    /// An integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::new(ExprKind::Int(v))
    }

    /// A variable or event reference.
    pub fn name(sym: Symbol) -> Expr {
        Expr::new(ExprKind::Name(sym))
    }

    /// A unary operation.
    pub fn unary(op: UnOp, operand: Expr) -> Expr {
        Expr::new(ExprKind::Unary(op, Box::new(operand)))
    }

    /// A binary operation.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    /// Whether any subexpression is the nondeterministic choice `*`.
    ///
    /// Used by the type checker: `*` is legal only inside ghost machines.
    pub fn contains_nondet(&self) -> bool {
        match &self.kind {
            ExprKind::Nondet => true,
            ExprKind::Unary(_, e) => e.contains_nondet(),
            ExprKind::Binary(_, a, b) => a.contains_nondet() || b.contains_nondet(),
            ExprKind::ForeignCall(_, args) => args.iter().any(Expr::contains_nondet),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_orders_operators() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn operator_classes_partition() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ] {
            let comparison = matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            );
            let classes = [comparison, op.is_arithmetic(), op.is_logical()];
            assert_eq!(classes.iter().filter(|&&c| c).count(), 1, "{op:?}");
        }
    }

    #[test]
    fn contains_nondet_descends() {
        let e = Expr::binary(
            BinOp::And,
            Expr::bool(true),
            Expr::unary(UnOp::Not, Expr::new(ExprKind::Nondet)),
        );
        assert!(e.contains_nondet());
        assert!(!Expr::bool(true).contains_nondet());
    }
}
