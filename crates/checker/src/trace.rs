//! Counterexample traces.

use std::fmt;

use p_semantics::{
    EventId, ExecOutcome, LoweredProgram, MachineId, MachineTypeId, PError, RunResult, YieldKind,
};

use crate::fault::{FaultDecision, FaultKind};

/// One scheduler decision on a counterexample path: which machine ran and
/// what its atomic run did — or, for fault-injection steps, which
/// environment fault was applied to its queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The machine the scheduler ran (for fault steps: the machine whose
    /// queue was tampered with).
    pub machine: MachineId,
    /// Human-readable summary of the run.
    pub summary: String,
    /// The ghost-choice script consumed by the run (empty for faults).
    pub choices: Vec<bool>,
    /// The environment fault this step applied, if it is a fault step
    /// rather than a machine run.
    pub fault: Option<FaultDecision>,
}

impl TraceStep {
    /// Builds a step summary from a run result.
    pub fn from_run(
        program: &LoweredProgram,
        machine: MachineId,
        result: &RunResult,
        choices: Vec<bool>,
    ) -> TraceStep {
        let summary = match &result.outcome {
            ExecOutcome::Yield(YieldKind::Sent {
                to,
                event,
                enqueued,
            }) => format!(
                "sent {} to {}{}",
                program.event_name(*event),
                to,
                if *enqueued {
                    ""
                } else {
                    " (duplicate, dropped)"
                }
            ),
            ExecOutcome::Yield(YieldKind::Created { id, ty }) => {
                format!("created {} of type {}", id, program.machine_name(*ty))
            }
            ExecOutcome::Yield(YieldKind::Internal) => "internal step".to_owned(),
            ExecOutcome::Blocked => "ran to quiescence".to_owned(),
            ExecOutcome::Deleted => "deleted itself".to_owned(),
            ExecOutcome::Error(e) => format!("ERROR: {e}"),
            ExecOutcome::NeedChoice => "needs more choices (internal)".to_owned(),
        };
        TraceStep {
            machine,
            summary,
            choices,
            fault: None,
        }
    }

    /// Builds the step recording an injected environment fault.
    pub fn from_fault(program: &LoweredProgram, decision: &FaultDecision) -> TraceStep {
        let event = program.event_name(decision.event);
        let summary = match decision.kind {
            FaultKind::Drop => format!("FAULT: dropped {event} from queue[{}]", decision.index),
            FaultKind::Dup => format!(
                "FAULT: re-delivered {event} from queue[{}] (bypassing dedup)",
                decision.index
            ),
            FaultKind::Delay => format!(
                "FAULT: delayed {event} from queue[{}] to the back",
                decision.index
            ),
        };
        TraceStep {
            machine: decision.machine,
            summary,
            choices: Vec::new(),
            fault: Some(*decision),
        }
    }
}

/// Allocation-light record of how a state was first reached, stored per
/// visited state in the [`crate::engine::ParentMap`] of the delay-bounded
/// and fault strategies. Rendering the human-readable [`TraceStep`]
/// allocates a formatted summary string; a passing exploration records
/// hundreds of thousands of these and renders none, so the map keeps
/// this compact seed and [`StepSeed::render`] runs only along the single
/// reconstructed counterexample path. The exhaustive kernel stores the
/// same information packed into a 24-byte [`EdgeRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StepSeed {
    machine: MachineId,
    kind: StepKind,
    choices: Vec<bool>,
}

/// What the recorded atomic run (or fault injection) did — the
/// summary-relevant projection of [`ExecOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Sent {
        to: MachineId,
        event: EventId,
        enqueued: bool,
    },
    Created {
        id: MachineId,
        ty: MachineTypeId,
    },
    Internal,
    Blocked,
    Deleted,
    Fault(FaultDecision),
}

impl StepKind {
    /// The kind of a non-error run. Error and `NeedChoice` outcomes
    /// never become parent edges — the search returns (or retries)
    /// before recording them — and are rendered eagerly via
    /// [`TraceStep::from_run`] instead.
    fn of(outcome: &ExecOutcome) -> StepKind {
        match outcome {
            ExecOutcome::Yield(YieldKind::Sent {
                to,
                event,
                enqueued,
            }) => StepKind::Sent {
                to: *to,
                event: *event,
                enqueued: *enqueued,
            },
            ExecOutcome::Yield(YieldKind::Created { id, ty }) => {
                StepKind::Created { id: *id, ty: *ty }
            }
            ExecOutcome::Yield(YieldKind::Internal) => StepKind::Internal,
            ExecOutcome::Blocked => StepKind::Blocked,
            ExecOutcome::Deleted => StepKind::Deleted,
            ExecOutcome::Error(_) | ExecOutcome::NeedChoice => {
                unreachable!("error/incomplete runs are never recorded as parent edges")
            }
        }
    }
}

impl StepSeed {
    /// Captures a non-error run result.
    pub(crate) fn from_run(machine: MachineId, result: &RunResult, choices: Vec<bool>) -> StepSeed {
        StepSeed {
            machine,
            kind: StepKind::of(&result.outcome),
            choices,
        }
    }

    /// A minimal seed for table tests: a quiescent run of `machine`,
    /// distinguishable by machine id after rendering.
    #[cfg(test)]
    pub(crate) fn test_blocked(machine: MachineId) -> StepSeed {
        StepSeed {
            machine,
            kind: StepKind::Blocked,
            choices: Vec::new(),
        }
    }

    /// Captures an injected environment fault.
    pub(crate) fn from_fault(decision: &FaultDecision) -> StepSeed {
        StepSeed {
            machine: decision.machine,
            kind: StepKind::Fault(*decision),
            choices: Vec::new(),
        }
    }

    /// Renders the human-readable step. Summaries match what
    /// [`TraceStep::from_run`]/[`TraceStep::from_fault`] produce for the
    /// same outcome.
    pub(crate) fn render(&self, program: &LoweredProgram) -> TraceStep {
        let summary = match self.kind {
            StepKind::Sent {
                to,
                event,
                enqueued,
            } => format!(
                "sent {} to {}{}",
                program.event_name(event),
                to,
                if enqueued {
                    ""
                } else {
                    " (duplicate, dropped)"
                }
            ),
            StepKind::Created { id, ty } => {
                format!("created {} of type {}", id, program.machine_name(ty))
            }
            StepKind::Internal => "internal step".to_owned(),
            StepKind::Blocked => "ran to quiescence".to_owned(),
            StepKind::Deleted => "deleted itself".to_owned(),
            StepKind::Fault(decision) => return TraceStep::from_fault(program, &decision),
        };
        TraceStep {
            machine: self.machine,
            summary,
            choices: self.choices.clone(),
            fault: None,
        }
    }
}

/// One edge of the exhaustive kernel's append-only log: the task that
/// offered a state and the step that reached it — a [`StepSeed`] plus a
/// parent id in three words, so a stored state costs 24 bytes of trace
/// bookkeeping wherever it lives (RAM chunk, `edges.log`, checkpoint).
///
/// ```text
/// word 0: parent id (low 32) · machine (high 32)
/// word 1: first operand (low 32) · second operand (high 32)
/// word 2: kind (bits 0–2) · enqueued (bit 3) · choice count (bits 8–15)
///         · choice bits (bits 16–63)
/// ```
///
/// The kernel records only machine runs, never [`StepKind::Fault`].
/// Kind 0 is unassigned, so an all-zero record — an id reserved but
/// never written — decodes to `None` instead of to a plausible step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeRecord(pub(crate) [u64; 3]);

impl EdgeRecord {
    /// Encoded size, in RAM and on disk.
    pub(crate) const BYTES: usize = 24;
    /// Longest ghost-choice script stored in the record itself; longer
    /// ones go to the log's overflow map.
    pub(crate) const INLINE_CHOICES: usize = 48;
    /// The parent id of the root task's record.
    pub(crate) const NO_PARENT: u32 = u32::MAX;
    /// Choice-count value marking a script kept in the overflow map.
    const OVERFLOW: u64 = 0xff;

    fn pack(parent: u32, machine: MachineId, kind: StepKind, choices: &[bool]) -> EdgeRecord {
        let (tag, a, b, enqueued) = match kind {
            StepKind::Sent {
                to,
                event,
                enqueued,
            } => (1, to.0, event.0, enqueued),
            StepKind::Created { id, ty } => (2, id.0, ty.0, false),
            StepKind::Internal => (3, 0, 0, false),
            StepKind::Blocked => (4, 0, 0, false),
            StepKind::Deleted => (5, 0, 0, false),
            StepKind::Fault(_) => unreachable!("the exhaustive kernel injects no faults"),
        };
        let script = if choices.len() > EdgeRecord::INLINE_CHOICES {
            EdgeRecord::OVERFLOW << 8
        } else {
            let bits = choices
                .iter()
                .enumerate()
                .fold(0u64, |bits, (i, &c)| bits | (c as u64) << i);
            (choices.len() as u64) << 8 | bits << 16
        };
        EdgeRecord([
            parent as u64 | (machine.0 as u64) << 32,
            a as u64 | (b as u64) << 32,
            tag | (enqueued as u64) << 3 | script,
        ])
    }

    /// The root task's record: it ends every path and renders nothing.
    pub(crate) fn root() -> EdgeRecord {
        EdgeRecord::pack(EdgeRecord::NO_PARENT, MachineId(0), StepKind::Blocked, &[])
    }

    /// A minimal record for table tests: a quiescent run of `machine`.
    #[cfg(test)]
    pub(crate) fn test_blocked(parent: u32, machine: MachineId) -> EdgeRecord {
        EdgeRecord::pack(parent, machine, StepKind::Blocked, &[])
    }

    /// The record of a non-error run of `machine` out of task `parent`,
    /// and the choice script when it is too long to live in the record.
    pub(crate) fn from_run(
        parent: u32,
        machine: MachineId,
        result: &RunResult,
        choices: &[bool],
    ) -> (EdgeRecord, Option<Box<[bool]>>) {
        let record = EdgeRecord::pack(parent, machine, StepKind::of(&result.outcome), choices);
        (record, record.overflows().then(|| choices.into()))
    }

    /// The task that offered this record's state.
    pub(crate) fn parent(&self) -> u32 {
        self.0[0] as u32
    }

    /// Whether the choice script lives in the log's overflow map.
    pub(crate) fn overflows(&self) -> bool {
        (self.0[2] >> 8) & 0xff == EdgeRecord::OVERFLOW
    }

    /// Unpacks the step (`overflow` is the script of a record that
    /// [`EdgeRecord::overflows`]); `None` on a malformed record.
    pub(crate) fn seed(&self, overflow: Option<&[bool]>) -> Option<StepSeed> {
        let [w0, w1, w2] = self.0;
        let (a, b) = (w1 as u32, (w1 >> 32) as u32);
        let kind = match w2 & 0b111 {
            1 => StepKind::Sent {
                to: MachineId(a),
                event: EventId(b),
                enqueued: w2 & 0b1000 != 0,
            },
            2 => StepKind::Created {
                id: MachineId(a),
                ty: MachineTypeId(b),
            },
            3 => StepKind::Internal,
            4 => StepKind::Blocked,
            5 => StepKind::Deleted,
            _ => return None,
        };
        let choices = match (w2 >> 8) & 0xff {
            EdgeRecord::OVERFLOW => overflow?.to_vec(),
            n if n as usize <= EdgeRecord::INLINE_CHOICES => {
                (0..n).map(|i| w2 >> (16 + i) & 1 != 0).collect()
            }
            _ => return None,
        };
        Some(StepSeed {
            machine: MachineId((w0 >> 32) as u32),
            kind,
            choices,
        })
    }

    /// The little-endian encoding `edges.log` and checkpoints hold.
    pub(crate) fn to_bytes(self) -> [u8; EdgeRecord::BYTES] {
        let mut out = [0; EdgeRecord::BYTES];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.0) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Inverse of [`EdgeRecord::to_bytes`].
    pub(crate) fn from_bytes(bytes: &[u8; EdgeRecord::BYTES]) -> EdgeRecord {
        EdgeRecord(std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        }))
    }
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine {}: {}", self.machine, self.summary)?;
        if !self.choices.is_empty() {
            write!(f, " [choices: ")?;
            for c in &self.choices {
                write!(f, "{}", if *c { '1' } else { '0' })?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// A safety violation with the schedule that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The error transition taken.
    pub error: PError,
    /// Scheduler decisions from the initial configuration to the error.
    pub trace: Vec<TraceStep>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error: {}", self.error)?;
        writeln!(f, "trace ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::ErrorKind;

    #[test]
    fn step_display_shows_choices() {
        let step = TraceStep {
            machine: MachineId(1),
            summary: "ran to quiescence".into(),
            choices: vec![true, false],
            fault: None,
        };
        assert_eq!(
            step.to_string(),
            "machine #1: ran to quiescence [choices: 10]"
        );
    }

    /// Every kind the exhaustive kernel records survives the 24-byte
    /// packing, with scripts on both sides of the inline budget.
    #[test]
    fn step_seed_round_trips_every_kind() {
        assert_eq!(std::mem::size_of::<EdgeRecord>(), 24);
        assert_eq!(EdgeRecord::BYTES, 24);
        let kinds = [
            StepKind::Sent {
                to: MachineId(1),
                event: EventId(u32::MAX),
                enqueued: false,
            },
            StepKind::Sent {
                to: MachineId(u32::MAX),
                event: EventId(2),
                enqueued: true,
            },
            StepKind::Created {
                id: MachineId(9),
                ty: MachineTypeId(4),
            },
            StepKind::Internal,
            StepKind::Blocked,
            StepKind::Deleted,
        ];
        let inline = EdgeRecord::INLINE_CHOICES;
        for (n, kind) in kinds.into_iter().enumerate() {
            for len in [0, 3, inline, inline + 1, 200] {
                let seed = StepSeed {
                    machine: MachineId(n as u32 * 7),
                    kind,
                    choices: (0..len).map(|i| (i * i + n) % 3 == 0).collect(),
                };
                let record = EdgeRecord::pack(n as u32, seed.machine, kind, &seed.choices);
                assert_eq!(record.parent(), n as u32);
                assert_eq!(record.overflows(), len > inline);
                let record = EdgeRecord::from_bytes(&record.to_bytes());
                let script = record.overflows().then_some(&seed.choices[..]);
                assert_eq!(record.seed(script), Some(seed));
            }
        }
        // Reserved-but-unwritten ids and an overflowing record whose
        // script is missing are malformed, not a step.
        assert_eq!(EdgeRecord([0; 3]).seed(None), None);
        let long = [true; 49];
        assert_eq!(
            EdgeRecord::pack(0, MachineId(0), StepKind::Blocked, &long).seed(None),
            None
        );
        assert_eq!(EdgeRecord::root().parent(), EdgeRecord::NO_PARENT);
    }

    #[test]
    fn counterexample_display_lists_steps() {
        let cx = Counterexample {
            error: PError::new(ErrorKind::AssertionFailure, MachineId(0)),
            trace: vec![TraceStep {
                machine: MachineId(0),
                summary: "did things".into(),
                choices: vec![],
                fault: None,
            }],
        };
        let text = cx.to_string();
        assert!(text.contains("assertion failed"));
        assert!(text.contains("1. machine #0"));
    }
}
