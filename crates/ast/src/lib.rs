//! Abstract syntax for the P language.
//!
//! P ("P: Safe Asynchronous Event-Driven Programming", PLDI 2013) is a
//! domain-specific language in which a program is a collection of state
//! machines communicating through events. This crate defines the abstract
//! syntax of the core calculus of Figure 3, extended with the features the
//! paper describes informally: the `call n` statement, foreign functions,
//! ghost machines/variables, and postponed-event annotations.
//!
//! Programs come from text: the `p-parser` crate parses them, and
//! [`print_program`] prints one back in the syntax it accepts. Single
//! statements and expressions are built with the [`Stmt`] and [`Expr`]
//! constructors over an [`Interner`] and printed with [`print_stmt`] and
//! [`print_expr`].
//!
//! # Examples
//!
//! ```
//! use p_ast::{print_stmt, Expr, Interner, Stmt};
//!
//! let mut names = Interner::new();
//! let tick = names.intern("tick");
//! let body = Stmt::block(vec![Stmt::assert(Expr::bool(true)), Stmt::raise(tick)]);
//!
//! let text = print_stmt(&body, &names);
//! assert!(text.contains("assert(true);"));
//! assert!(text.contains("raise(tick);"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod decl;
mod draws;
mod expr;
mod intern;
mod print;
mod span;
mod stmt;
mod types;

pub use decl::{
    ActionBinding, ActionDecl, EventDecl, ForeignFnDecl, ForeignParam, MachineDecl, MainDecl,
    Program, StateDecl, TransitionDecl, TransitionKind, VarDecl,
};
pub use draws::Draws;
pub use expr::{BinOp, Expr, ExprKind, UnOp};
pub use intern::{Interner, Symbol};
pub use print::{print_expr, print_program, print_stmt};
pub use span::Span;
pub use stmt::{Initializer, Stmt, StmtKind};
pub use types::Ty;
