//! Ghost-taint analysis shared by the checker and the erasure transform.

use std::collections::HashSet;

use p_ast::{Expr, ExprKind, Symbol};

/// Whether `e` reads any ghost variable.
///
/// This is the taint predicate behind the erasure rules of §3.3: an
/// expression that reads ghost state may only appear in positions that are
/// erased during compilation (assignments to ghost variables, sends whose
/// target is ghost, asserts).
pub fn expr_is_tainted(e: &Expr, ghost_vars: &HashSet<Symbol>) -> bool {
    match &e.kind {
        ExprKind::Name(sym) => ghost_vars.contains(sym),
        ExprKind::Unary(_, inner) => expr_is_tainted(inner, ghost_vars),
        ExprKind::Binary(_, a, b) => {
            expr_is_tainted(a, ghost_vars) || expr_is_tainted(b, ghost_vars)
        }
        ExprKind::ForeignCall(_, args) => args.iter().any(|a| expr_is_tainted(a, ghost_vars)),
        ExprKind::This
        | ExprKind::Msg
        | ExprKind::Arg
        | ExprKind::Null
        | ExprKind::Bool(_)
        | ExprKind::Int(_)
        | ExprKind::Nondet => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_ast::{BinOp, Interner};

    #[test]
    fn taint_propagates_through_operators() {
        let mut i = Interner::new();
        let g = i.intern("g");
        let r = i.intern("r");
        let ghost: HashSet<Symbol> = [g].into_iter().collect();
        let tainted = Expr::binary(BinOp::Add, Expr::name(r), Expr::name(g));
        assert!(expr_is_tainted(&tainted, &ghost));
        let clean = Expr::binary(BinOp::Add, Expr::name(r), Expr::int(1));
        assert!(!expr_is_tainted(&clean, &ghost));
    }

    #[test]
    fn literals_and_registers_are_clean() {
        let ghost = HashSet::new();
        for e in [
            Expr::this(),
            Expr::msg(),
            Expr::new(ExprKind::Arg),
            Expr::new(ExprKind::Null),
            Expr::bool(true),
            Expr::int(0),
            Expr::new(ExprKind::Nondet),
        ] {
            assert!(!expr_is_tainted(&e, &ghost));
        }
    }
}
