//! Operational semantics of the P language.
//!
//! This crate is the executable heart of the reproduction: an interpreter
//! for the small-step operational semantics of §3.1 of the paper (Figures
//! 4, 5 and 6), shared by the model checker (`p-checker`) and the runtime
//! (`p-runtime`) so that what is verified is what runs.
//!
//! The pipeline is:
//!
//! 1. [`lower()`] a `p_ast::Program` into a dense, table-driven
//!    [`LoweredProgram`] — the analog of the C tables the paper's compiler
//!    generates (§4);
//! 2. build an [`Engine`] over the lowered program (optionally with
//!    [`ForeignRegistry`] implementations of foreign functions);
//! 3. create the initial [`Config`] and repeatedly pick an enabled machine
//!    and [`Engine::run_machine`] it.
//!
//! Machines run atomically up to scheduling points (`send`/`new`, §5's
//! atomicity reduction); who runs next is the caller's decision — that is
//! exactly the seam where the model checker enumerates schedules and the
//! runtime follows the OS's threads.
//!
//! # Examples
//!
//! ```
//! use p_semantics::{lower, Engine, ForeignEnv, ExecOutcome};
//!
//! let src = r#"
//!     event done;
//!     machine Counter {
//!         var n : int;
//!         state Init { entry { n := 0; while (n < 10) { n := n + 1; } } }
//!     }
//!     main Counter();
//! "#;
//! let program = lower(&p_parser::parse(src).unwrap()).unwrap();
//! let engine = Engine::new(&program, ForeignEnv::empty());
//! let mut config = engine.initial_config();
//! let id = config.live_ids().next().unwrap();
//! let result = engine
//!     .run_machine(&mut config, id, &mut || false, Default::default())
//!     .unwrap();
//! assert_eq!(result.outcome, ExecOutcome::Blocked);
//! assert_eq!(config.machine(id).unwrap().locals[0], p_semantics::Value::Int(10));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod canon;
mod config;
mod error;
mod exec;
mod foreign;
pub mod hash;
pub mod lower;
mod value;
pub mod wire;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;

pub use canon::{
    canonical_digest, canonical_digest_counted, canonical_digest_replayed, canonical_pin,
};
pub use config::{
    Config, ConfigDecodeError, Cont, Frame, Inherited, Instr, MachineId, MachineState,
    MachineStore, SlotInterner,
};
pub use error::{ErrorKind, ExecError, PError};
pub use exec::{ChoiceSource, Engine, ExecOutcome, Granularity, RunResult, Script, YieldKind};
pub use foreign::{ForeignEnv, ForeignFn, ForeignRegistry};
pub use lower::{
    lower, ActionId, EventId, LowerError, LoweredProgram, MachineTypeId, StateId, VarId,
};
pub use value::Value;
