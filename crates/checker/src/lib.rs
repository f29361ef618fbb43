//! Systematic testing of P programs — the verification side of the paper
//! (§5), built on the shared operational-semantics engine of
//! `p-semantics`.
//!
//! The paper validates P programs by interpreting their operational
//! semantics inside the explicit-state model checker Zing. This crate
//! plays Zing's role: it enumerates the program's two sources of
//! nondeterminism — which machine runs at each send/create scheduling
//! point, and the ghost machines' `*` choices — while deduplicating
//! states, and it checks the four error transitions of Figure 6
//! (assertion failures, sends to ⊥, sends to deleted machines, and
//! unhandled events).
//!
//! Strategies, one fallible call each:
//!
//! * [`Verifier::try_check_exhaustive`] — the search over every schedule
//!   and ghost choice, deduplicating states (with the depth and state
//!   bounds of [`CheckerOptions`]), optionally with sleep-set
//!   partial-order reduction ([`CheckerOptions::por`]): same states and
//!   verdict, fewer redundant transitions between independent machine
//!   runs;
//! * [`Verifier::try_check_delay_bounded`] — the paper's novel
//!   *delay-bounded causal scheduler* (§5): with budget `d = 0` it
//!   explores exactly the causal schedule the runtime executes, and
//!   increasing `d` adds schedules that diverge from causal order in at
//!   most `d` places;
//! * [`Verifier::try_check_random`] — seeded random walks;
//! * [`Verifier::try_check_with_faults`] — the exhaustive search plus a
//!   bounded *environment-fault scheduler* that may drop, duplicate, or
//!   delay queued events (this reproduction's robustness extension:
//!   budget 0 coincides with the fault-free search);
//! * [`Verifier::try_check_liveness`] — a bounded check of the two
//!   liveness properties of §3.2 (this reproduction's extension; the
//!   paper lists liveness verification as future work).
//!
//! [`Verifier::replay`] re-runs a counterexample's schedule.
//!
//! The exhaustive, delay-bounded, fault and liveness strategies are
//! schedulers of one search kernel: for every [`CheckerOptions::jobs`]
//! one worker on the calling thread (deterministic) or N work-stealing
//! workers over one sharded visited table — same `unique_states` and
//! verdict — with checkpoints, a memory limit and interruption.
//!
//! # Examples
//!
//! ```
//! let src = r#"
//!     event req;
//!     machine Server { state Idle { } }
//!     ghost machine Client {
//!         var server : id;
//!         state Init {
//!             entry {
//!                 server := new Server();
//!                 if (*) { send(server, req); }
//!             }
//!         }
//!     }
//!     main Client();
//! "#;
//! let program = p_parser::parse(src).unwrap();
//! let lowered = p_semantics::lower(&program).unwrap();
//! let verifier = p_checker::Verifier::new(&lowered);
//! // `Server.Idle` never handles `req` → unhandled-event violation.
//! let report = verifier.try_check_exhaustive().unwrap();
//! assert!(!report.passed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod delay;
mod engine;
mod error;
mod explore;
mod fault;
mod fingerprint;
mod liveness;
mod memo;
mod phase;
mod por;
mod random;
mod replay;
mod stats;
mod store;
mod succ;
mod trace;

pub use checkpoint::CheckpointPolicy;
pub use error::CheckerError;
pub use explore::{CheckerOptions, Report, Verifier};
pub use fault::FaultKind;
pub use fingerprint::Fingerprint;
pub use liveness::{LivenessReport, LivenessViolation};
pub use replay::ReplayOutcome;
pub use stats::{ExplorationStats, PhaseNanos};
pub use trace::{Counterexample, TraceStep};

#[cfg(test)]
mod tests;
