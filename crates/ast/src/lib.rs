//! Abstract syntax for the P language.
//!
//! P ("P: Safe Asynchronous Event-Driven Programming", PLDI 2013) is a
//! domain-specific language in which a program is a collection of state
//! machines communicating through events. This crate defines the abstract
//! syntax of the core calculus of Figure 3, extended with the features the
//! paper describes informally: the `call n` statement, foreign functions,
//! ghost machines/variables, and postponed-event annotations.
//!
//! The crate provides three ways of working with programs:
//!
//! * construct them with [`ProgramBuilder`] (used by the benchmark corpus),
//! * parse them from text with the `p-parser` crate,
//! * print them back to text with [`print_program`].
//!
//! # Examples
//!
//! ```
//! use p_ast::{Expr, ProgramBuilder, Stmt};
//!
//! let mut b = ProgramBuilder::new();
//! b.event("tick");
//! let mut clock = b.machine("Clock");
//! let tick = clock.sym("tick");
//! clock
//!     .state("Run")
//!     .entry(Stmt::block(vec![
//!         Stmt::assert(Expr::bool(true)),
//!         Stmt::raise(tick),
//!     ]));
//! clock.step("Run", "tick", "Run");
//! clock.finish();
//! let program = b.finish("Clock");
//!
//! let text = p_ast::print_program(&program);
//! assert!(text.contains("state Run"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod decl;
mod draws;
mod expr;
mod intern;
mod print;
mod span;
mod stmt;
mod types;

pub use builder::{MachineBuilder, ProgramBuilder, StateBuilder};
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
