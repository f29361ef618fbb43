//! Counterexample traces.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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
    pub(crate) fault: Option<FaultDecision>,
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
}

/// How a task was reached, unpacked from its 24-byte [`StepRecord`].
/// Rendering the human-readable [`TraceStep`] allocates a formatted
/// summary string; a passing exploration pushes hundreds of thousands of
/// tasks and renders none, so [`StepSeed::render`] runs only along the
/// one counterexample path.
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
    /// never become steps of a path — the search returns (or retries)
    /// before pushing a task for them — and are rendered eagerly via
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
                unreachable!("error/incomplete runs never become steps of a path")
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

/// How one step of a [`TaskPath`] is stored: a [`StepSeed`] in three words.
///
/// ```text
/// word 0: machine (low 32) · first operand (high 32)
/// word 1: second operand (low 32) · kind (bits 32–34) · flag (bit 35)
///         · choice count (bits 40–47)
/// word 2: choice bits
/// ```
///
/// Kinds 1–5 are machine runs (the flag is `enqueued`); 6 is a dropped
/// event and 7 a re-delivered (flag clear) or delayed (flag set) one,
/// with the queue index and the event as operands. Kind 0 is
/// unassigned, so an all-zero record decodes to `None` instead of to a
/// plausible step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepRecord([u64; 3]);

impl StepRecord {
    /// Encoded size, in RAM and in a checkpoint.
    pub(crate) const BYTES: usize = 24;
    /// Longest ghost-choice script stored in the record itself; a longer
    /// one goes beside it.
    const INLINE_CHOICES: usize = 64;
    /// Choice-count value marking a script kept beside the record.
    const OVERFLOW: u64 = 0xff;

    fn pack(machine: MachineId, kind: StepKind, choices: &[bool]) -> StepRecord {
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
        let (count, bits) = if choices.len() > StepRecord::INLINE_CHOICES {
            (StepRecord::OVERFLOW, 0)
        } else {
            let bits = choices
                .iter()
                .enumerate()
                .fold(0u64, |bits, (i, &c)| bits | (c as u64) << i);
            (choices.len() as u64, bits)
        };
        StepRecord([
            machine.0 as u64 | (a as u64) << 32,
            b as u64 | (tag | (flag as u64) << 3 | count << 8) << 32,
            bits,
        ])
    }

    /// Whether the choice script lives beside the record.
    fn overflows(&self) -> bool {
        (self.0[1] >> 40) & 0xff == StepRecord::OVERFLOW
    }

    /// Unpacks the step (`overflow` is the script of a record that
    /// [`StepRecord::overflows`]); `None` on a malformed record.
    fn seed(&self, overflow: Option<&[bool]>) -> Option<StepSeed> {
        let [w0, w1, bits] = self.0;
        let (machine, a, b) = (MachineId(w0 as u32), (w0 >> 32) as u32, w1 as u32);
        let w1 = w1 >> 32;
        let flag = w1 & 0b1000 != 0;
        let fault = |kind| {
            StepKind::Fault(FaultDecision {
                kind,
                machine,
                index: a as usize,
                event: EventId(b),
            })
        };
        let kind = match w1 & 0b111 {
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
        let choices = match (w1 >> 8) & 0xff {
            StepRecord::OVERFLOW => overflow?.to_vec(),
            n if n as usize <= StepRecord::INLINE_CHOICES => {
                (0..n).map(|i| bits >> i & 1 != 0).collect()
            }
            _ => return None,
        };
        Some(StepSeed {
            machine,
            kind,
            choices,
        })
    }

    /// The little-endian encoding a checkpoint holds.
    pub(crate) fn to_bytes(self) -> [u8; StepRecord::BYTES] {
        let mut out = [0; StepRecord::BYTES];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.0) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Inverse of [`StepRecord::to_bytes`].
    pub(crate) fn from_bytes(bytes: &[u8; StepRecord::BYTES]) -> StepRecord {
        StepRecord(std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        }))
    }
}

/// The way back from a task to the root (DESIGN.md §9): an immutable
/// list of steps linked newest to oldest, one link per pushed task and
/// shared by every task below it. A child's path is its parent's plus
/// the step that reached it, so a link lives exactly as long as some
/// queued or running task descends from it: trace bookkeeping costs the
/// frontier and its ancestors, not every state ever reached. The root
/// task's path is empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskPath(Option<Arc<Link>>);

#[derive(Debug)]
struct Link {
    record: StepRecord,
    /// The choice script of a record that [`StepRecord::overflows`].
    script: Option<Box<[bool]>>,
    prev: TaskPath,
}

/// No node: a checkpointed task on the empty path.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// One link of a checkpoint's path forest: its parent's index (earlier
/// in the forest, or [`NO_NODE`]) and its step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PathNode {
    pub parent: u32,
    pub record: StepRecord,
    pub script: Option<Box<[bool]>>,
}

impl TaskPath {
    fn then(&self, record: StepRecord, script: Option<Box<[bool]>>) -> TaskPath {
        #[cfg(test)]
        LIVE_LINKS.with(|live| {
            let (now, peak) = live.get();
            live.set((now + 1, peak.max(now + 1)));
        });
        TaskPath(Some(Arc::new(Link {
            record,
            script,
            prev: self.clone(),
        })))
    }

    /// This path, then a non-error run of `machine` that consumed
    /// `choices`.
    pub(crate) fn then_run(
        &self,
        machine: MachineId,
        result: &RunResult,
        choices: &[bool],
    ) -> TaskPath {
        let record = StepRecord::pack(machine, StepKind::of(&result.outcome), choices);
        self.then(record, record.overflows().then(|| choices.into()))
    }

    /// This path, then the injection of `fault`.
    pub(crate) fn then_fault(&self, fault: &FaultDecision) -> TaskPath {
        self.then(
            StepRecord::pack(fault.machine, StepKind::Fault(*fault), &[]),
            None,
        )
    }

    /// The links from the newest to the oldest.
    fn links(&self) -> impl Iterator<Item = &Arc<Link>> {
        std::iter::successors(self.0.as_ref(), |link| link.prev.0.as_ref())
    }

    /// The steps from the root, oldest first, rendered.
    pub(crate) fn render(&self, program: &LoweredProgram) -> Vec<TraceStep> {
        let mut steps: Vec<TraceStep> = self
            .links()
            .map(|link| {
                let seed = link.record.seed(link.script.as_deref());
                seed.expect("a path holds well-formed records")
                    .render(program)
            })
            .collect();
        steps.reverse();
        steps
    }

    /// `paths` as a forest: every link once, after its parent, and per
    /// path the index of its newest link ([`NO_NODE`] if empty).
    pub(crate) fn flatten<'a>(
        paths: impl Iterator<Item = &'a TaskPath>,
    ) -> (Vec<PathNode>, Vec<u32>) {
        let mut index: HashMap<*const Link, u32> = HashMap::new();
        let mut nodes = Vec::new();
        let ends = paths
            .map(|path| {
                let mut fresh = Vec::new();
                let mut parent = NO_NODE;
                for link in path.links() {
                    if let Some(&known) = index.get(&Arc::as_ptr(link)) {
                        parent = known;
                        break;
                    }
                    fresh.push(link);
                }
                for link in fresh.into_iter().rev() {
                    index.insert(Arc::as_ptr(link), nodes.len() as u32);
                    nodes.push(PathNode {
                        parent,
                        record: link.record,
                        script: link.script.clone(),
                    });
                    parent = nodes.len() as u32 - 1;
                }
                parent
            })
            .collect();
        (nodes, ends)
    }

    /// Inverse of [`TaskPath::flatten`]: the path ending at each node, or
    /// `None` if a node names a later parent or holds a malformed step.
    pub(crate) fn rebuild(nodes: Vec<PathNode>) -> Option<Vec<TaskPath>> {
        let mut paths: Vec<TaskPath> = Vec::with_capacity(nodes.len());
        for node in nodes {
            if node.record.overflows() != node.script.is_some() {
                return None;
            }
            node.record.seed(node.script.as_deref())?;
            let prev = match node.parent {
                NO_NODE => TaskPath::default(),
                parent => paths.get(parent as usize)?.clone(),
            };
            paths.push(prev.then(node.record, node.script));
        }
        Some(paths)
    }
}

/// Unlinks iteratively: a path can be `max_depth` links long, and the
/// recursive drop of a singly linked list needs a stack frame per link.
impl Drop for TaskPath {
    fn drop(&mut self) {
        let mut next = self.0.take();
        while let Some(link) = next {
            next = Arc::into_inner(link).and_then(|mut link| link.prev.0.take());
        }
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
thread_local! {
    /// Links created less links dropped on this thread: (now, peak). A
    /// link dropped on another thread than its own counts there.
    pub(crate) static LIVE_LINKS: std::cell::Cell<(isize, isize)> =
        const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
impl Drop for Link {
    fn drop(&mut self) {
        LIVE_LINKS.with(|live| {
            let (now, peak) = live.get();
            live.set((now - 1, peak));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::ErrorKind;

    /// The seeds the reference store ([`crate::tests::ParentMap`]) keeps
    /// and paths are compared against.
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
        assert_eq!(std::mem::size_of::<StepRecord>(), 24);
        assert_eq!(StepRecord::BYTES, 24);
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
        let inline = StepRecord::INLINE_CHOICES;
        for (n, kind) in kinds.into_iter().enumerate() {
            for len in [0, 3, inline, inline + 1, 200] {
                let seed = StepSeed {
                    machine: MachineId(n as u32 * 7),
                    kind,
                    choices: (0..len).map(|i| (i * i + n) % 3 == 0).collect(),
                };
                let record = StepRecord::pack(seed.machine, kind, &seed.choices);
                assert_eq!(record.overflows(), len > inline);
                let record = StepRecord::from_bytes(&record.to_bytes());
                let script = record.overflows().then_some(&seed.choices[..]);
                assert_eq!(record.seed(script), Some(seed));
            }
        }
        // An all-zero record and an overflowing record whose script is
        // missing are malformed, not a step.
        assert_eq!(StepRecord([0; 3]).seed(None), None);
        let long = [true; 65];
        assert_eq!(
            StepRecord::pack(MachineId(0), StepKind::Blocked, &long).seed(None),
            None
        );
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
                let path = TaskPath::default().then_fault(&fault);
                let link = path.0.as_ref().unwrap();
                assert!(!link.record.overflows() && link.script.is_none());
                let record = StepRecord::from_bytes(&link.record.to_bytes());
                assert_eq!(record.seed(None), Some(StepSeed::from_fault(&fault)));
            }
        }
    }

    /// A small deterministic generator for the random trees.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn program() -> LoweredProgram {
        let src = "event e1; event e2; machine M { state S { } } main M();";
        p_semantics::lower(&p_parser::parse(src).unwrap()).unwrap()
    }

    /// Paths against the store they replaced twice over: random trees
    /// whose edges cover every outcome the kernel pushes, fault steps and
    /// choice scripts on both sides of the inline budget go into paths
    /// and into the reference [`ParentMap`]; every node's path renders
    /// identically, and so does the path rebuilt from the flattened
    /// forest of all of them.
    #[test]
    fn paths_render_what_the_parent_map_renders() {
        use crate::fingerprint::Fingerprint;
        use crate::tests::ParentMap;
        use p_semantics::YieldKind;
        let prog = program();
        let fp = |n: usize| Fingerprint::from_u128(n as u128 + 1);
        let inline = StepRecord::INLINE_CHOICES;
        let outcomes = |rng: &mut u64| {
            let to = MachineId(lcg(rng) as u32);
            match lcg(rng) % 6 {
                0 | 1 => ExecOutcome::Yield(YieldKind::Sent {
                    to,
                    event: EventId((lcg(rng) % 2) as u32),
                    enqueued: lcg(rng).is_multiple_of(2),
                }),
                2 => ExecOutcome::Yield(YieldKind::Created {
                    id: to,
                    ty: MachineTypeId(0),
                }),
                3 => ExecOutcome::Yield(YieldKind::Internal),
                4 => ExecOutcome::Blocked,
                _ => ExecOutcome::Deleted,
            }
        };
        for seed in 1..=4u64 {
            let mut rng = seed;
            let mut reference = ParentMap::new();
            let mut nodes = vec![TaskPath::default()];
            for id in 1..2_000 + lcg(&mut rng) as usize % 8_000 {
                let parent = lcg(&mut rng) as usize % nodes.len();
                let machine = MachineId(lcg(&mut rng) as u32);
                let (path, step) = if lcg(&mut rng).is_multiple_of(7) {
                    let fault = FaultDecision {
                        kind: FaultKind::ALL[lcg(&mut rng) as usize % 3],
                        machine,
                        index: lcg(&mut rng) as usize % 4,
                        event: EventId((lcg(&mut rng) % 2) as u32),
                    };
                    (
                        nodes[parent].then_fault(&fault),
                        StepSeed::from_fault(&fault),
                    )
                } else {
                    let len = [0, 1, inline, inline + 1, 200][lcg(&mut rng) as usize % 5];
                    let choices: Vec<bool> =
                        (0..len).map(|_| lcg(&mut rng).is_multiple_of(2)).collect();
                    let result = RunResult {
                        outcome: outcomes(&mut rng),
                        choices_used: len,
                        steps: 1,
                        dequeued: Vec::new(),
                        raised: Vec::new(),
                        deferred: Vec::new(),
                    };
                    let path = nodes[parent].then_run(machine, &result, &choices);
                    (path, StepSeed::from_run(machine, &result, choices))
                };
                reference.record(fp(id), fp(parent), step);
                nodes.push(path);
            }
            let (forest, ends) = TaskPath::flatten(nodes.iter());
            assert_eq!(forest.len(), nodes.len() - 1, "each link once");
            let rebuilt = TaskPath::rebuild(forest).unwrap();
            for (id, path) in nodes.iter().enumerate() {
                let want = reference.reconstruct(fp(id), &prog);
                assert_eq!(path.render(&prog), want, "seed {seed}, node {id}");
                let again = match ends[id] {
                    NO_NODE => TaskPath::default(),
                    end => rebuilt[end as usize].clone(),
                };
                assert_eq!(again.render(&prog), want, "seed {seed}, node {id} rebuilt");
            }
        }
    }

    /// A forest that names a later parent, or holds a malformed step or
    /// a script its record does not announce, rebuilds into nothing.
    #[test]
    fn a_malformed_forest_is_refused() {
        let step = TaskPath::default().then_fault(&FaultDecision {
            kind: FaultKind::Drop,
            machine: MachineId(1),
            index: 0,
            event: EventId(0),
        });
        let record = step.0.as_ref().unwrap().record;
        let node = |parent, record, script: Option<&[bool]>| PathNode {
            parent,
            record,
            script: script.map(Into::into),
        };
        assert!(
            TaskPath::rebuild(vec![node(NO_NODE, record, None), node(0, record, None)]).is_some()
        );
        assert!(TaskPath::rebuild(vec![node(0, record, None)]).is_none());
        assert!(
            TaskPath::rebuild(vec![node(1, record, None), node(NO_NODE, record, None)]).is_none()
        );
        assert!(TaskPath::rebuild(vec![node(NO_NODE, StepRecord([0; 3]), None)]).is_none());
        assert!(TaskPath::rebuild(vec![node(NO_NODE, record, Some(&[true; 65]))]).is_none());
    }

    /// The last handle of a path a million links long drops on a thread
    /// with a 256 KiB stack: the unlinking is a loop, not a recursion
    /// (the recursive drop needs a frame per link and overflows).
    #[test]
    fn a_deep_path_drops_without_recursion() {
        let fault = FaultDecision {
            kind: FaultKind::Dup,
            machine: MachineId(3),
            index: 1,
            event: EventId(2),
        };
        let mut path = TaskPath::default();
        for _ in 0..1_000_000 {
            path = path.then_fault(&fault);
        }
        let dropped = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || drop(path))
            .unwrap()
            .join();
        assert!(dropped.is_ok(), "dropping a deep path overflowed the stack");
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
