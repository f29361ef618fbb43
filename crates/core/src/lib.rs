//! The P language toolchain — a reproduction of "P: Safe Asynchronous
//! Event-Driven Programming" (PLDI 2013).
//!
//! P is a domain-specific language for asynchronous event-driven programs:
//! a program is a collection of state machines communicating through
//! events. This crate is the facade over the full toolchain:
//!
//! | Stage | Crate | Paper |
//! |---|---|---|
//! | parse | [`parser`] | §3, Figure 3 |
//! | static checks + ghost erasure | [`typecheck`] | §3.3 |
//! | operational semantics | [`semantics`] | §3.1, Figures 4–6 |
//! | systematic testing | [`checker`] | §5 |
//! | execution runtime | [`runtime`] | §4 |
//! | C code generation | [`codegen`] | §4 |
//! | benchmark corpus | [`corpus`] | §2, §4.1, §5, §6 |
//! | tracing + profiling | [`telemetry`] | §6 (measurement) |
//!
//! # Examples
//!
//! Compile, verify and run a program:
//!
//! ```
//! use p_core::Compiled;
//!
//! let src = r#"
//!     event inc;
//!     machine Counter {
//!         var n : int;
//!         state Run { on inc do bump; }
//!         action bump { n := n + 1; }
//!     }
//!     main Counter();
//! "#;
//! let compiled = Compiled::from_source(src).unwrap();
//!
//! // Systematic testing (§5): explore all schedules.
//! let report = compiled.verify();
//! assert!(report.passed());
//!
//! // Execution (§4): erase ghosts and run under the driver runtime.
//! let runtime = compiled.runtime().unwrap().start();
//! let id = runtime
//!     .create_machine("Counter", &[("n", p_core::Value::Int(0))])
//!     .unwrap();
//! runtime.add_event(id, "inc", p_core::Value::Null).unwrap();
//! assert_eq!(runtime.read_var(id, "n"), Some(p_core::Value::Int(1)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::error::Error;
use std::fmt;

pub use p_ast as ast;
pub use p_checker as checker;
pub use p_codegen as codegen;
pub use p_corpus as corpus;
pub use p_parser as parser;
pub use p_runtime as runtime;
pub use p_semantics as semantics;
pub use p_telemetry as telemetry;
pub use p_typecheck as typecheck;

pub use p_ast::Program;
pub use p_checker::{
    CheckerOptions, DelayReport, FaultKind, FaultReport, LivenessReport, Report, Verifier,
};
pub use p_codegen::COutput;
pub use p_runtime::{DriverHost, Runtime, RuntimeBuilder};
pub use p_semantics::{ForeignRegistry, LoweredProgram, MachineId, Value};
pub use p_telemetry::Telemetry;

/// Any failure along the compilation pipeline.
#[derive(Debug)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(p_parser::ParseError),
    /// The static checker rejected the program.
    Check(p_typecheck::CheckErrors),
    /// Lowering failed.
    Lower(p_semantics::LowerError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Check(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CompileError {}

/// A program that has passed the front end: parsed, statically checked,
/// and lowered to the executable table form (ghosts included — they are
/// needed for verification and erased only for execution/codegen).
#[derive(Debug)]
pub struct Compiled {
    program: Program,
    lowered: LoweredProgram,
    warnings: Vec<p_typecheck::Diagnostic>,
}

impl Compiled {
    /// Parses and checks P source text.
    ///
    /// # Errors
    ///
    /// Returns the first parse error, all checker errors, or a lowering
    /// failure.
    pub fn from_source(source: &str) -> Result<Compiled, CompileError> {
        let program = p_parser::parse(source).map_err(CompileError::Parse)?;
        Compiled::from_program(program)
    }

    /// Checks an already-parsed (or builder-made) program.
    ///
    /// # Errors
    ///
    /// Returns checker errors or a lowering failure.
    pub fn from_program(program: Program) -> Result<Compiled, CompileError> {
        let info = p_typecheck::check(&program).map_err(CompileError::Check)?;
        let lowered = p_semantics::lower(&program).map_err(CompileError::Lower)?;
        Ok(Compiled {
            program,
            lowered,
            warnings: info.warnings,
        })
    }

    /// The source-level program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The lowered (table-driven) program, ghosts included.
    pub fn lowered(&self) -> &LoweredProgram {
        &self.lowered
    }

    /// Checker warnings (e.g. shadowed action bindings).
    pub fn warnings(&self) -> &[p_typecheck::Diagnostic] {
        &self.warnings
    }

    /// A verifier over this program with default options.
    pub fn verifier(&self) -> Verifier<'_> {
        Verifier::new(&self.lowered)
    }

    /// Exhaustive systematic testing with default bounds (§5).
    pub fn verify(&self) -> Report {
        self.verifier().check_exhaustive()
    }

    /// Exhaustive systematic testing with `jobs` workers over one
    /// sharded visited set. Explores the same states and returns the
    /// same verdict as [`Compiled::verify`]; `jobs <= 1` is one worker
    /// on the calling thread, which is what [`Compiled::verify`] runs.
    pub fn verify_parallel(&self, jobs: usize) -> Report {
        self.verifier().check_exhaustive_parallel(jobs)
    }

    /// Delay-bounded systematic testing with the causal scheduler (§5).
    pub fn verify_delay_bounded(&self, delay_bound: usize) -> DelayReport {
        self.verifier().check_delay_bounded(delay_bound)
    }

    /// Bounded liveness checking (§3.2; the paper's future work).
    pub fn verify_liveness(&self) -> LivenessReport {
        self.verifier().check_liveness()
    }

    /// Systematic testing under environment-fault injection: the checker
    /// may drop, duplicate, or delay queued events, at most `budget`
    /// times per path (empty `kinds` = all fault kinds). Budget 0
    /// coincides with [`Compiled::verify`].
    pub fn verify_with_faults(&self, budget: usize, kinds: &[FaultKind]) -> FaultReport {
        self.verifier().check_with_faults(budget, kinds)
    }

    /// An execution runtime builder over the erased program (§4).
    ///
    /// # Errors
    ///
    /// Fails if the program has no real machines.
    pub fn runtime(&self) -> Result<RuntimeBuilder, p_runtime::RuntimeError> {
        p_runtime::Runtime::builder(&self.program)
    }

    /// Generates the C translation unit for the erased program (§4).
    ///
    /// # Errors
    ///
    /// Fails if the program has no real machines.
    pub fn emit_c(&self) -> Result<COutput, p_codegen::CodegenError> {
        p_codegen::generate_c(&self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_end_to_end() {
        let compiled = Compiled::from_source(p_corpus::PING_PONG_SRC).unwrap();
        assert!(compiled.warnings().is_empty());
        let report = compiled.verify();
        assert!(report.passed());
        let c = compiled.emit_c().unwrap();
        assert!(c.code.contains("PDriverDecl"));
    }

    #[test]
    fn parse_errors_are_reported() {
        match Compiled::from_source("event ;") {
            Err(CompileError::Parse(_)) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn check_errors_are_reported() {
        let src = "machine M { var x : int; state S { entry { x := true; } } } main M();";
        match Compiled::from_source(src) {
            Err(CompileError::Check(e)) => assert!(e.error_count() > 0),
            other => panic!("expected check error, got {other:?}"),
        }
    }

    #[test]
    fn fault_injection_via_facade() {
        let compiled = Compiled::from_source(p_corpus::LOSSY_LINK_SRC).unwrap();
        assert!(compiled.verify_with_faults(0, &[]).report.passed());
        let faulty = compiled.verify_with_faults(1, &[FaultKind::Drop]);
        assert!(
            !faulty.report.passed(),
            "dropping cfg must break the handshake"
        );
        // The fault trace replays on a fresh verifier.
        let cx = faulty.report.counterexample.unwrap();
        assert!(compiled.verifier().replay(&cx).reproduced());
    }

    #[test]
    fn facade_reexports_are_usable() {
        let program = corpus::elevator();
        let compiled = Compiled::from_program(program).unwrap();
        let d0 = compiled.verify_delay_bounded(0);
        assert!(d0.report.passed());
    }
}
