//! Crash-safe checkpointing of the search kernel, whatever its scheduler.
//!
//! A checkpoint is one self-contained binary file capturing everything
//! the kernel needs to continue a killed run and land on the same
//! verdict and state counts an uninterrupted run produces:
//!
//! * cumulative exploration statistics,
//! * the visited-set summary — every admitted fingerprint with its
//!   sleep set (POR) and canonical representative (symmetry), and how
//!   many of them are markers,
//! * the frontier's paths as one forest — every step shared by several
//!   queued tasks written once, after the step before it — keeping
//!   counterexample reconstruction concrete across a resume,
//! * the frontier — the workers' queues in order, each task with its
//!   path and its scheduler annotation; with one worker that is the DFS
//!   stack, so a resumed run continues bit-identically.
//!
//! # File format
//!
//! ```text
//! magic "PCHK" · version u32 · config_digest u128 · payload_len u64
//! · payload · checksum u128
//! ```
//!
//! The `config_digest` hashes the lowered program together with the
//! semantic checker options and the strategy, so resuming against a changed program or
//! flags fails with [`CheckerError::CheckpointMismatch`] instead of
//! silently producing nonsense; the trailing checksum (the same
//! SipHash-2-4-128 the fingerprints use) turns file corruption into
//! [`CheckerError::CheckpointFormat`]. Writes go to `checkpoint.tmp`
//! first and are atomically renamed over `checkpoint.bin`, so a crash
//! *during* checkpointing leaves the previous checkpoint intact.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use p_semantics::hash::fingerprint128;

use crate::error::CheckerError;
use crate::stats::ExplorationStats;
use crate::trace::{PathNode, StepRecord, NO_NODE};
use p_semantics::wire;

/// File-format magic.
const MAGIC: &[u8; 4] = b"PCHK";
/// Bumped whenever the payload encoding changes: older checkpoints are
/// rejected rather than misread. Version 2 replaced the fingerprint-
/// keyed parent records of version 1 with the edge log. Version 3 has
/// version 2's layout under a different key function: the visited keys
/// of a `symmetry` run are [`p_semantics::canonical_digest`]s, and when
/// that picks other representatives the restored keys would silently
/// stop matching, so the files written before it changed are refused.
/// Version 4 adds task annotations, the marker and injection counts.
/// Version 5 replaces the edge log and the task ids with the path forest.
const VERSION: u32 = 5;
/// The checkpoint file inside the checkpoint directory.
const FILE: &str = "checkpoint.bin";
/// The staging file the atomic rename publishes from.
const TMP: &str = "checkpoint.tmp";

/// When and where a search writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory the checkpoint file lives in (created if missing).
    pub dir: PathBuf,
    /// Write a checkpoint every time this many *new* unique states have
    /// been admitted since the last one.
    pub every_states: usize,
    /// Stop the run (with a final checkpoint and `Report::interrupted`)
    /// once the visited set reaches this size — a deterministic stand-in
    /// for `kill -9` used by the resume-consistency tests and CI.
    pub abort_after_states: Option<usize>,
}

impl CheckpointPolicy {
    /// A policy writing to `dir` at the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every_states: 25_000,
            abort_after_states: None,
        }
    }
}

/// One visited-set entry as persisted: the fingerprint plus the
/// POR/symmetry side tables keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VisitedEntry {
    pub fp: u128,
    /// Sleep-set bits ([`crate::por::SleepSet`]); zero when POR is off.
    pub sleep: u64,
    /// Concrete representative of the canonical orbit (symmetry mode).
    pub rep: Option<u128>,
}

/// One frontier task as persisted. `cfg` is the configuration's
/// canonical encoding ([`p_semantics::Config::canonical_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaskEntry {
    pub cfg: Vec<u8>,
    /// The newest step of the task's path in the forest, or [`NO_NODE`]
    /// for the root's empty path.
    pub path: u32,
    pub depth: u64,
    pub sleep: u64,
    /// Whether this is the state's first visit (false for a
    /// sleep-set-widening re-expansion).
    pub fresh: bool,
    /// The scheduler's annotation, encoded (empty if exhaustive).
    pub note: Vec<u8>,
}

/// Everything a checkpoint persists; the worker count is not part of
/// it: a checkpoint written under `--jobs 4` resumes under `--jobs 1`
/// and vice versa.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointData {
    pub stats: ExplorationStats,
    pub visited: Vec<VisitedEntry>,
    /// How many of `visited` are configuration markers, not nodes.
    pub markers: usize,
    /// The frontier's paths: every step once, after its parent.
    pub paths: Vec<PathNode>,
    /// Pending work, each worker's queue oldest first. With one worker
    /// this is the DFS stack bottom-to-top; order is significant.
    pub frontier: Vec<TaskEntry>,
}

/// Serializes `data` into the payload.
fn encode_payload(data: &CheckpointData) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + data.visited.len() * 25);
    let s = &data.stats;
    for v in [
        s.unique_states as u64,
        s.transitions as u64,
        s.max_depth as u64,
        s.duration.as_micros() as u64,
        s.stored_bytes as u64,
        s.max_queue_seen as u64,
        s.quiescent_states as u64,
        s.stuck_states as u64,
        s.dedup_hits as u64,
        s.sleep_pruned as u64,
        s.symmetry_merges as u64,
        s.fault_transitions as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(s.truncated as u8);

    out.extend_from_slice(&(data.markers as u64).to_le_bytes());
    out.extend_from_slice(&(data.visited.len() as u64).to_le_bytes());
    for e in &data.visited {
        out.extend_from_slice(&e.fp.to_le_bytes());
        out.extend_from_slice(&e.sleep.to_le_bytes());
        match e.rep {
            None => out.push(0),
            Some(rep) => {
                out.push(1);
                out.extend_from_slice(&rep.to_le_bytes());
            }
        }
    }

    out.extend_from_slice(&(data.paths.len() as u64).to_le_bytes());
    for node in &data.paths {
        out.extend_from_slice(&node.parent.to_le_bytes());
        out.extend_from_slice(&node.record.to_bytes());
        let script = node.script.as_deref().unwrap_or_default();
        out.extend_from_slice(&(script.len() as u32).to_le_bytes());
        out.extend(script.iter().map(|&c| c as u8));
    }

    out.extend_from_slice(&(data.frontier.len() as u64).to_le_bytes());
    for t in &data.frontier {
        out.extend_from_slice(&t.path.to_le_bytes());
        out.extend_from_slice(&t.depth.to_le_bytes());
        out.extend_from_slice(&t.sleep.to_le_bytes());
        out.push(t.fresh as u8);
        for bytes in [&t.cfg, &t.note] {
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
    out
}

/// Decodes a payload; `None` means malformed.
fn decode_payload(mut buf: &[u8]) -> Option<CheckpointData> {
    let buf = &mut buf;
    let mut stats = ExplorationStats {
        unique_states: wire::read_u64(buf)? as usize,
        transitions: wire::read_u64(buf)? as usize,
        max_depth: wire::read_u64(buf)? as usize,
        ..ExplorationStats::default()
    };
    stats.duration = Duration::from_micros(wire::read_u64(buf)?);
    stats.stored_bytes = wire::read_u64(buf)? as usize;
    stats.max_queue_seen = wire::read_u64(buf)? as usize;
    stats.quiescent_states = wire::read_u64(buf)? as usize;
    stats.stuck_states = wire::read_u64(buf)? as usize;
    stats.dedup_hits = wire::read_u64(buf)? as usize;
    stats.sleep_pruned = wire::read_u64(buf)? as usize;
    stats.symmetry_merges = wire::read_u64(buf)? as usize;
    stats.fault_transitions = wire::read_u64(buf)? as usize;
    stats.truncated = match wire::read_u8(buf)? {
        0 => false,
        1 => true,
        _ => return None,
    };

    let markers = wire::read_u64(buf)? as usize;
    let n_visited = Some(wire::read_u64(buf)? as usize).filter(|&n| markers <= n)?;
    let mut visited = Vec::new();
    for _ in 0..n_visited {
        let fp = wire::read_u128(buf)?;
        let sleep = wire::read_u64(buf)?;
        let rep = match wire::read_u8(buf)? {
            0 => None,
            1 => Some(wire::read_u128(buf)?),
            _ => return None,
        };
        visited.push(VisitedEntry { fp, sleep, rep });
    }

    let n_paths = wire::read_u64(buf)? as usize;
    let mut paths = Vec::new();
    for _ in 0..n_paths {
        let parent = wire::read_u32(buf)?;
        let record = StepRecord::from_bytes(wire::take(buf, StepRecord::BYTES)?.try_into().ok()?);
        let len = wire::read_u32(buf)? as usize;
        let script = wire::take(buf, len)?
            .iter()
            .map(|&c| c != 0)
            .collect::<Box<[bool]>>();
        paths.push(PathNode {
            parent,
            record,
            script: (len > 0).then_some(script),
        });
    }

    let n_frontier = wire::read_u64(buf)? as usize;
    let mut frontier = Vec::new();
    for _ in 0..n_frontier {
        // A task whose path is not in the forest could not be traced back.
        let path = wire::read_u32(buf).filter(|&i| i == NO_NODE || (i as usize) < paths.len())?;
        let depth = wire::read_u64(buf)?;
        let sleep = wire::read_u64(buf)?;
        let fresh = match wire::read_u8(buf)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let cfg_len = wire::read_u32(buf)? as usize;
        let cfg = wire::take(buf, cfg_len)?.to_vec();
        let note_len = wire::read_u32(buf)? as usize;
        let note = wire::take(buf, note_len)?.to_vec();
        frontier.push(TaskEntry {
            cfg,
            path,
            depth,
            sleep,
            fresh,
            note,
        });
    }
    if !buf.is_empty() {
        return None;
    }
    Some(CheckpointData {
        stats,
        visited,
        markers,
        paths,
        frontier,
    })
}

/// Writes a checkpoint atomically: staging file, then rename.
pub(crate) fn write(
    dir: &Path,
    config_digest: u128,
    data: &CheckpointData,
) -> Result<(), CheckerError> {
    fs::create_dir_all(dir).map_err(|e| CheckerError::io(dir, e))?;
    let payload = encode_payload(data);
    let mut file = Vec::with_capacity(payload.len() + 44);
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.extend_from_slice(&config_digest.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&payload);
    file.extend_from_slice(&fingerprint128(&payload).to_le_bytes());
    let tmp = dir.join(TMP);
    fs::write(&tmp, &file).map_err(|e| CheckerError::io(&tmp, e))?;
    let target = dir.join(FILE);
    fs::rename(&tmp, &target).map_err(|e| CheckerError::io(&target, e))
}

/// Loads and validates the checkpoint in `dir` against the resuming
/// run's `config_digest`.
pub(crate) fn load(dir: &Path, config_digest: u128) -> Result<CheckpointData, CheckerError> {
    let path = dir.join(FILE);
    let bytes = fs::read(&path).map_err(|e| CheckerError::io(&path, e))?;
    let mut buf = &bytes[..];
    let magic = wire::take(&mut buf, 4)
        .ok_or_else(|| CheckerError::CheckpointFormat("file shorter than its header".into()))?;
    if magic != MAGIC {
        return Err(CheckerError::CheckpointFormat(format!(
            "bad magic {magic:?} (not a checkpoint file)"
        )));
    }
    let version = wire::read_u32(&mut buf)
        .ok_or_else(|| CheckerError::CheckpointFormat("file shorter than its header".into()))?;
    if version != VERSION {
        return Err(CheckerError::CheckpointFormat(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        )));
    }
    let digest = wire::read_u128(&mut buf)
        .ok_or_else(|| CheckerError::CheckpointFormat("file shorter than its header".into()))?;
    if digest != config_digest {
        return Err(CheckerError::CheckpointMismatch(
            "checkpoint was written for a different program or checker options; \
             re-run without --resume to start fresh"
                .into(),
        ));
    }
    let payload_len = wire::read_u64(&mut buf)
        .ok_or_else(|| CheckerError::CheckpointFormat("file shorter than its header".into()))?;
    let payload = wire::take(&mut buf, payload_len as usize)
        .ok_or_else(|| CheckerError::CheckpointFormat("payload truncated".into()))?;
    let checksum = wire::read_u128(&mut buf)
        .ok_or_else(|| CheckerError::CheckpointFormat("checksum missing".into()))?;
    if !buf.is_empty() {
        return Err(CheckerError::CheckpointFormat(
            "trailing bytes after checksum".into(),
        ));
    }
    if fingerprint128(payload) != checksum {
        return Err(CheckerError::CheckpointFormat(
            "checksum mismatch (file corrupted)".into(),
        ));
    }
    decode_payload(payload)
        .ok_or_else(|| CheckerError::CheckpointFormat("malformed payload".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultDecision, FaultKind};
    use crate::trace::TaskPath;
    use p_semantics::{EventId, ExecOutcome, MachineId, RunResult};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p-ckpt-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A choice script past the inline budget.
    fn long_script() -> Vec<bool> {
        (0..70).map(|i| i % 3 == 0).collect()
    }

    /// Three tasks' paths: two share their first step, one of them ends
    /// in a run with a long script and the other in a fault; the third
    /// is the root's.
    fn sample_paths() -> [TaskPath; 3] {
        let run = RunResult {
            outcome: ExecOutcome::Blocked,
            choices_used: 0,
            steps: 1,
            dequeued: Vec::new(),
            raised: Vec::new(),
            deferred: Vec::new(),
        };
        let first = TaskPath::default().then_run(MachineId(2), &run, &[true, false]);
        let fault = FaultDecision {
            kind: FaultKind::Delay,
            machine: MachineId(1),
            index: 0,
            event: EventId(1),
        };
        [
            first.then_run(MachineId(3), &run, &long_script()),
            first.then_fault(&fault),
            TaskPath::default(),
        ]
    }

    fn sample() -> CheckpointData {
        let stats = ExplorationStats {
            unique_states: 1234,
            transitions: 5678,
            max_depth: 42,
            duration: Duration::from_micros(999_999),
            stored_bytes: 314_159,
            truncated: false,
            max_queue_seen: 6,
            quiescent_states: 3,
            stuck_states: 1,
            dedup_hits: 4321,
            sleep_pruned: 17,
            symmetry_merges: 5,
            fault_transitions: 9,
            spilled_states: 0,
            spill_bytes: 0,
            cold_hits: 0,
            phases: crate::PhaseNanos::default(),
            ..ExplorationStats::default()
        };
        let (paths, ends) = TaskPath::flatten(sample_paths().iter());
        assert_eq!(paths.len(), 3, "the shared first step is written once");
        CheckpointData {
            stats,
            visited: vec![
                VisitedEntry {
                    fp: 7,
                    sleep: 0b101,
                    rep: None,
                },
                VisitedEntry {
                    fp: u128::MAX - 3,
                    sleep: 0,
                    rep: Some(11),
                },
            ],
            markers: 1,
            paths,
            frontier: ends
                .into_iter()
                .map(|path| TaskEntry {
                    cfg: vec![1, 2, 3, 4],
                    path,
                    depth: 3,
                    sleep: 1,
                    fresh: true,
                    note: vec![9, 8, 7],
                })
                .collect(),
        }
    }

    #[test]
    fn write_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let data = sample();
        write(&dir, 0xABCD, &data).unwrap();
        let back = load(&dir, 0xABCD).unwrap();
        assert_eq!(back, data);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A choice script too long for its record survives a checkpoint:
    /// the paths rebuilt from the loaded forest render what the frontier's
    /// own paths render.
    #[test]
    fn overflow_scripts_survive_write_and_load() {
        let dir = temp_dir("overflow");
        write(&dir, 7, &sample()).unwrap();
        let back = load(&dir, 7).unwrap();
        let rebuilt = TaskPath::rebuild(back.paths).unwrap();
        let program = p_semantics::lower(&p_corpus::lossy_link()).unwrap();
        for (task, path) in back.frontier.iter().zip(sample_paths()) {
            let again = match task.path {
                NO_NODE => TaskPath::default(),
                end => rebuilt[end as usize].clone(),
            };
            assert_eq!(again.render(&program), path.render(&program));
        }
        let steps = rebuilt[1].render(&program);
        assert_eq!(steps[1].choices, long_script());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Hostile payloads behind a valid checksum: seeded byte flips,
    /// truncations and spliced ranges of a sample payload decode into
    /// `None` or into a checkpoint whose forest rebuilds or is refused —
    /// never a panic. A failure names its seed.
    #[test]
    fn hostile_payloads_decode_or_are_refused() {
        let pristine = encode_payload(&sample());
        for seed in 0..2_000 {
            let mut draws = p_ast::Draws::new(seed);
            let mut bytes = pristine.clone();
            match seed % 3 {
                0 => bytes[draws.below(pristine.len())] ^= 1 << draws.below(8),
                1 => bytes.truncate(draws.below(pristine.len())),
                _ => {
                    let (from, to) = (draws.below(bytes.len()), draws.below(bytes.len()));
                    let len = draws.below(bytes.len() - from.max(to)).min(64);
                    bytes.copy_within(from..from + len, to);
                }
            }
            let decoded = std::panic::catch_unwind(|| {
                decode_payload(&bytes).map(|data| TaskPath::rebuild(data.paths).is_some())
            });
            assert!(decoded.is_ok(), "seed {seed}: decoding panicked");
        }
    }

    #[test]
    fn stale_checkpoint_is_rejected() {
        let dir = temp_dir("stale");
        write(&dir, 0xABCD, &sample()).unwrap();
        match load(&dir, 0xABCE) {
            Err(CheckerError::CheckpointMismatch(_)) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_rejected_not_misread() {
        let dir = temp_dir("corrupt");
        write(&dir, 1, &sample()).unwrap();
        let path = dir.join(FILE);
        let pristine = fs::read(&path).unwrap();
        // Flip one byte at every offset: the load must fail every time
        // (header checks or checksum), never panic or silently succeed
        // with different contents.
        for i in 0..pristine.len() {
            let mut corrupted = pristine.clone();
            corrupted[i] ^= 0x40;
            fs::write(&path, &corrupted).unwrap();
            assert!(load(&dir, 1).is_err(), "corruption at byte {i} accepted");
        }
        // Truncations likewise.
        for cut in [0, 3, 10, pristine.len() - 1] {
            fs::write(&path, &pristine[..cut]).unwrap();
            assert!(load(&dir, 1).is_err(), "truncation to {cut} accepted");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_io_error() {
        let dir = temp_dir("missing");
        match load(&dir, 1) {
            Err(CheckerError::Io { .. }) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
