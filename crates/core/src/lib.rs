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
//! let report = compiled.verifier().try_check_exhaustive().unwrap();
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
pub use p_checker::{CheckerOptions, FaultKind, LivenessReport, Report, Verifier};
pub use p_codegen::COutput;
pub use p_runtime::{DriverHost, Runtime, RuntimeBuilder};
pub use p_semantics::{ForeignRegistry, LoweredProgram, MachineId, Value};
pub use p_telemetry::Telemetry;

/// One run's row of the exploration schema: the `exploration` object of
/// `p verify --profile` and one entry of `BENCH_checker.json`'s
/// `programs`. `name` labels the program, `mode` the reductions
/// (`"exhaustive"`, `"por"`, `"parallel"`, ...), `strategy` and `bound`
/// the scheduler (`"exhaustive"` with 0, `"delay"` with its bound,
/// `"faults"` with its budget); every counter comes from
/// [`p_checker::ExplorationStats::to_json`].
pub fn exploration_row(
    name: &str,
    mode: &str,
    (strategy, bound): (&str, u64),
    workers: u64,
    report: &Report,
) -> p_telemetry::json::JsonValue {
    use p_telemetry::json::{num, obj, str as jstr, JsonValue};
    let row = obj(vec![
        ("name", jstr(name)),
        ("mode", jstr(mode)),
        ("strategy", jstr(strategy)),
        ("bound", num(bound as f64)),
        ("workers", num(workers as f64)),
        ("passed", JsonValue::Bool(report.passed())),
        ("complete", JsonValue::Bool(report.complete)),
    ]);
    match (row, report.stats.to_json()) {
        (JsonValue::Obj(mut fields), JsonValue::Obj(counters)) => {
            fields.extend(counters);
            JsonValue::Obj(fields)
        }
        _ => unreachable!("`obj` and `to_json` build objects"),
    }
}

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

    /// Checks an already-parsed program.
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
        let report = compiled.verifier().try_check_exhaustive().unwrap();
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
        assert!(compiled
            .verifier()
            .try_check_with_faults(0, &[])
            .unwrap()
            .passed());
        let faulty = compiled
            .verifier()
            .try_check_with_faults(1, &[FaultKind::Drop])
            .unwrap();
        assert!(!faulty.passed(), "dropping cfg must break the handshake");
        // The fault trace replays on a fresh verifier.
        let cx = faulty.counterexample.unwrap();
        assert!(compiled.verifier().replay(&cx).reproduced());
    }

    #[test]
    fn facade_reexports_are_usable() {
        let program = corpus::elevator();
        let compiled = Compiled::from_program(program).unwrap();
        let d0 = compiled.verifier().try_check_delay_bounded(0).unwrap();
        assert!(d0.passed());
    }
}
