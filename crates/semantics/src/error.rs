//! Runtime/verification errors — the error transitions of Figure 6, plus
//! the diagnostics this implementation adds (undefined conditions, fuel
//! exhaustion).

use std::error::Error;
use std::fmt;

use crate::lower::EventId;
use crate::MachineId;

/// Why an execution reached the `error` configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// `assert(e)` evaluated to `false` (rule ASSERT-FAIL).
    AssertionFailure,
    /// `assert(e)` evaluated to ⊥ or a non-boolean — no rule applies, so
    /// the configuration is erroneous.
    AssertionUndefined,
    /// `send(r, e, ..)` where `r` evaluated to ⊥ (rule SEND-FAIL1).
    SendToUndefined,
    /// `send(r, e, ..)` where `r` named a deleted machine (rule
    /// SEND-FAIL2).
    SendToDeleted {
        /// The deleted target.
        target: MachineId,
    },
    /// The call stack emptied while an event was unhandled (rule POP-FAIL)
    /// — the *unhandled event* violation at the core of P's
    /// responsiveness guarantee.
    UnhandledEvent {
        /// The event nobody handled.
        event: EventId,
    },
    /// An `if`/`while` condition evaluated to ⊥ or a non-boolean.
    UndefinedCondition,
    /// A `return` popped the last frame off the call stack, leaving the
    /// machine with no state (rule POP-FAIL applied after POP2).
    StackUnderflow,
    /// The machine executed more small steps than the configured fuel
    /// without reaching a scheduling point — it can run forever without
    /// being disabled, violating the first liveness property of §3.2.
    FuelExhausted,
}

impl ErrorKind {
    /// Short machine-readable tag, used in reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ErrorKind::AssertionFailure => "assertion-failure",
            ErrorKind::AssertionUndefined => "assertion-undefined",
            ErrorKind::SendToUndefined => "send-to-undefined",
            ErrorKind::SendToDeleted { .. } => "send-to-deleted",
            ErrorKind::UnhandledEvent { .. } => "unhandled-event",
            ErrorKind::UndefinedCondition => "undefined-condition",
            ErrorKind::StackUnderflow => "stack-underflow",
            ErrorKind::FuelExhausted => "fuel-exhausted",
        }
    }
}

/// A fatal engine-level failure: the execution request itself was
/// malformed, as opposed to a [`PError`], which is a legal error
/// *transition* of the program under test.
///
/// These used to abort the process (`panic!`/`unreachable!` on the
/// exploration hot path); they now surface as typed errors so a malformed
/// lowering or an engine bug is reported through the checker's normal
/// error channel instead of killing a worker thread mid-search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// `run_machine` was asked to run a machine whose slot is dead
    /// (deleted or never allocated).
    DeadMachine {
        /// The requested machine id.
        machine: MachineId,
    },
    /// A machine's continuation or call stack violated an interpreter
    /// invariant (e.g. a `Seq` instruction pointing at a non-block
    /// statement) — the lowered program or a stored continuation is
    /// corrupt.
    CorruptContinuation {
        /// The machine being executed.
        machine: MachineId,
        /// Which invariant was violated.
        detail: &'static str,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DeadMachine { machine } => {
                write!(f, "run_machine called on dead machine {machine}")
            }
            ExecError::CorruptContinuation { machine, detail } => {
                write!(f, "machine {machine}: corrupt continuation: {detail}")
            }
        }
    }
}

impl Error for ExecError {}

/// An error transition, attributed to the machine that took it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PError {
    /// What went wrong.
    pub kind: ErrorKind,
    /// The machine executing when the error occurred.
    pub machine: MachineId,
}

impl PError {
    /// Creates an error record.
    pub fn new(kind: ErrorKind, machine: MachineId) -> PError {
        PError { kind, machine }
    }
}

impl fmt::Display for PError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::AssertionFailure => {
                write!(f, "machine {}: assertion failed", self.machine)
            }
            ErrorKind::AssertionUndefined => {
                write!(f, "machine {}: assertion evaluated to null", self.machine)
            }
            ErrorKind::SendToUndefined => {
                write!(f, "machine {}: send target is null", self.machine)
            }
            ErrorKind::SendToDeleted { target } => write!(
                f,
                "machine {}: send to deleted machine {}",
                self.machine, target
            ),
            ErrorKind::UnhandledEvent { event } => {
                write!(f, "machine {}: unhandled event #{}", self.machine, event.0)
            }
            ErrorKind::UndefinedCondition => write!(
                f,
                "machine {}: branch condition evaluated to null",
                self.machine
            ),
            ErrorKind::StackUnderflow => write!(
                f,
                "machine {}: return popped the last call-stack frame",
                self.machine
            ),
            ErrorKind::FuelExhausted => write!(
                f,
                "machine {}: ran past its step budget without reaching a scheduling point",
                self.machine
            ),
        }
    }
}

impl Error for PError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_machine_and_kind() {
        let e = PError::new(ErrorKind::AssertionFailure, MachineId(3));
        assert!(e.to_string().contains("#3"));
        assert!(e.to_string().contains("assertion"));
        let e = PError::new(
            ErrorKind::UnhandledEvent { event: EventId(7) },
            MachineId(0),
        );
        assert!(e.to_string().contains("unhandled"));
        assert!(e.to_string().contains("7"));
    }

    #[test]
    fn tags_are_distinct() {
        let kinds = [
            ErrorKind::AssertionFailure,
            ErrorKind::AssertionUndefined,
            ErrorKind::SendToUndefined,
            ErrorKind::SendToDeleted {
                target: MachineId(0),
            },
            ErrorKind::UnhandledEvent { event: EventId(0) },
            ErrorKind::UndefinedCondition,
            ErrorKind::StackUnderflow,
            ErrorKind::FuelExhausted,
        ];
        let tags: std::collections::HashSet<_> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), kinds.len());
    }
}
