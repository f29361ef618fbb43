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
            ExecOutcome::Error(e) => format!("ERROR: {e}"),
            ExecOutcome::NeedChoice => "needs more choices (internal)".to_owned(),
            outcome => StepKind::of(outcome).summary(program),
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
        TraceStep {
            machine: decision.machine,
            summary: StepKind::Fault(*decision).summary(program),
            choices: Vec::new(),
            fault: Some(*decision),
        }
    }
}

/// How a task was first reached, unpacked from its 24-byte
/// [`EdgeRecord`]. Rendering the human-readable [`TraceStep`] allocates a
/// formatted summary string; a passing exploration records hundreds of
/// thousands of edges and renders none, so [`StepSeed::render`] runs
/// only along the single reconstructed counterexample path.
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

    /// The human-readable summary of a step of this kind.
    fn summary(self, program: &LoweredProgram) -> String {
        match self {
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
            StepKind::Fault(fault) => {
                let (event, index) = (program.event_name(fault.event), fault.index);
                match fault.kind {
                    FaultKind::Drop => format!("FAULT: dropped {event} from queue[{index}]"),
                    FaultKind::Dup => {
                        format!("FAULT: re-delivered {event} from queue[{index}] (bypassing dedup)")
                    }
                    FaultKind::Delay => {
                        format!("FAULT: delayed {event} from queue[{index}] to the back")
                    }
                }
            }
        }
    }
}

impl StepSeed {
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

    /// Renders the human-readable step.
    pub(crate) fn render(&self, program: &LoweredProgram) -> TraceStep {
        TraceStep {
            machine: self.machine,
            summary: self.kind.summary(program),
            choices: self.choices.clone(),
            fault: match self.kind {
                StepKind::Fault(decision) => Some(decision),
                _ => None,
            },
        }
    }
}

/// One edge of the search kernel's append-only log: the task that
/// offered a state and the step that reached it — a [`StepSeed`] plus a
/// parent id in three words, so a stored state costs 24 bytes of trace
/// bookkeeping wherever it lives (RAM chunk, `edges.log`, checkpoint).
///
/// ```text
/// word 0: parent id (low 32) · machine (high 32)
/// word 1: first operand (low 32) · second operand (high 32)
/// word 2: kind (bits 0–2) · flag (bit 3) · choice count (bits 8–15)
///         · choice bits (bits 16–63)
/// ```
///
/// Kinds 1–5 are machine runs (the flag is `enqueued`); 6 is a dropped
/// event and 7 a re-delivered (flag clear) or delayed (flag set) one,
/// with the queue index and the event as operands. Kind 0 is
/// unassigned, so an all-zero record — an id reserved but never
/// written — decodes to `None` instead of to a plausible step.
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
        let (tag, a, b, flag) = match kind {
            StepKind::Sent {
                to,
                event,
                enqueued,
            } => (1, to.0, event.0, enqueued),
            StepKind::Created { id, ty } => (2, id.0, ty.0, false),
            StepKind::Internal => (3, 0, 0, false),
            StepKind::Blocked => (4, 0, 0, false),
            StepKind::Deleted => (5, 0, 0, false),
            StepKind::Fault(fault) => {
                let index = u32::try_from(fault.index).expect("a queue index fits 32 bits");
                match fault.kind {
                    FaultKind::Drop => (6, index, fault.event.0, false),
                    FaultKind::Dup => (7, index, fault.event.0, false),
                    FaultKind::Delay => (7, index, fault.event.0, true),
                }
            }
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
            tag | (flag as u64) << 3 | script,
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

    /// The record of injecting `fault` in the configuration of task
    /// `parent`.
    pub(crate) fn from_fault(parent: u32, fault: &FaultDecision) -> EdgeRecord {
        EdgeRecord::pack(parent, fault.machine, StepKind::Fault(*fault), &[])
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
        let machine = MachineId((w0 >> 32) as u32);
        let flag = w2 & 0b1000 != 0;
        let fault = |kind| {
            StepKind::Fault(FaultDecision {
                kind,
                machine,
                index: a as usize,
                event: EventId(b),
            })
        };
        let kind = match w2 & 0b111 {
            1 => StepKind::Sent {
                to: MachineId(a),
                event: EventId(b),
                enqueued: flag,
            },
            2 => StepKind::Created {
                id: MachineId(a),
                ty: MachineTypeId(b),
            },
            3 => StepKind::Internal,
            4 => StepKind::Blocked,
            5 => StepKind::Deleted,
            6 => fault(FaultKind::Drop),
            7 if flag => fault(FaultKind::Delay),
            7 => fault(FaultKind::Dup),
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
            machine,
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

    /// The seeds the reference stores ([`crate::tests::ParentMap`]) keep
    /// and the edge log is compared against.
    impl StepSeed {
        /// Captures a non-error run result.
        pub(crate) fn from_run(
            machine: MachineId,
            result: &RunResult,
            choices: Vec<bool>,
        ) -> StepSeed {
            StepSeed {
                machine,
                kind: StepKind::of(&result.outcome),
                choices,
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
    }

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

    /// The three fault kinds survive the packing too, with the queue
    /// index, the event and the machine at their extremes.
    #[test]
    fn fault_records_round_trip_every_kind() {
        for kind in FaultKind::ALL {
            for (index, event) in [(0, 0), (7, 3), (u32::MAX as usize, u32::MAX)] {
                let fault = FaultDecision {
                    kind,
                    machine: MachineId(u32::MAX - index as u32),
                    index,
                    event: EventId(event),
                };
                let record = EdgeRecord::from_fault(9, &fault);
                assert_eq!(record.parent(), 9);
                assert!(!record.overflows());
                let record = EdgeRecord::from_bytes(&record.to_bytes());
                assert_eq!(record.seed(None), Some(StepSeed::from_fault(&fault)));
            }
        }
        assert_eq!(EdgeRecord([0; 3]).seed(None), None);
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
