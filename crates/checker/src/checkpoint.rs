//! Crash-safe checkpointing of the search kernel, whatever its scheduler.
//!
//! A checkpoint is one self-contained file holding what the kernel needs
//! to continue a killed run to the verdict and counts an uninterrupted
//! run reaches (DESIGN.md §13 has the format): the statistics, the
//! frontier's paths as one forest, the frontier in queue order (with one
//! worker, the DFS stack), and the visited keys as one run of the cold
//! tier's records ([`crate::store`]), streamed between the table and the
//! file without a copy of the visited set. A config digest refuses a
//! resume under another program, options or strategy
//! ([`CheckerError::CheckpointMismatch`]); a checksum chained over
//! [`CHUNK`]-byte chunks, a count its section must hold and keys that
//! must ascend refuse a corrupt file ([`CheckerError::CheckpointFormat`]).
//! A write goes to `checkpoint.tmp`, is synced, and is renamed over
//! `checkpoint.bin`, whose directory is synced in turn: a crash or a
//! power cut while checkpointing leaves the previous checkpoint whole.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Seek, SeekFrom, Take, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use p_semantics::hash::fingerprint128;

use crate::error::CheckerError;
use crate::stats::ExplorationStats;
use crate::store::{Layout, Records, MAX_WIDTH};
use crate::trace::{PathNode, StepRecord, NO_NODE};

/// File-format magic.
const MAGIC: &[u8; 4] = b"PCHK";
/// Bumped whenever the encoding changes, so that an older checkpoint is
/// refused rather than misread (DESIGN.md §13 lists the versions).
const VERSION: u32 = 6;
/// The checkpoint file inside the checkpoint directory.
const FILE: &str = "checkpoint.bin";
/// The staging file the atomic rename publishes from.
const TMP: &str = "checkpoint.tmp";
/// Bytes of the magic, the version and the config digest.
const HEADER: u64 = 4 + 4 + 16;
/// Bytes of a checksum.
const SUM: usize = 16;
/// Bytes of a chunk. A chunk's checksum is taken over the checksum of
/// the chunks before it followed by the chunk.
const CHUNK: usize = 4 << 10;

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

/// One frontier task as persisted: `cfg` is its configuration's
/// [`p_semantics::Config::canonical_bytes`].
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

/// Everything a checkpoint persists but its visited keys, which stream.
/// No worker count: a checkpoint resumes under any `--jobs`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointData {
    pub stats: ExplorationStats,
    /// How many of the visited keys are configuration markers, not nodes.
    pub markers: usize,
    /// The frontier's paths: every step once, after its parent.
    pub paths: Vec<PathNode>,
    /// Pending work, each worker's queue oldest first. With one worker
    /// this is the DFS stack bottom-to-top; order is significant.
    pub frontier: Vec<TaskEntry>,
}

/// The counters a checkpoint carries, in file order, but the duration.
fn counters(s: &mut ExplorationStats) -> [&mut usize; 11] {
    [
        &mut s.unique_states,
        &mut s.transitions,
        &mut s.max_depth,
        &mut s.stored_bytes,
        &mut s.max_queue_seen,
        &mut s.quiescent_states,
        &mut s.stuck_states,
        &mut s.dedup_hits,
        &mut s.sleep_pruned,
        &mut s.symmetry_merges,
        &mut s.fault_transitions,
    ]
}

/// A malformed checkpoint.
pub(crate) fn malformed<T>(why: impl Into<String>) -> Result<T, CheckerError> {
    Err(CheckerError::CheckpointFormat(why.into()))
}

/// A running checksum: [`fingerprint128`] chained over [`CHUNK`]-byte
/// chunks, each chunk's sum taken over the sum before it (zero for the
/// first) followed by the chunk. Written to as the bytes pass.
struct Checksum(Vec<u8>);

impl Checksum {
    fn new() -> Checksum {
        Checksum(vec![0; SUM])
    }

    fn sum(&self) -> [u8; SUM] {
        fingerprint128(&self.0).to_le_bytes()
    }
}

impl Write for Checksum {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        if self.0.len() == SUM + CHUNK {
            let sum = self.sum();
            self.0.clear();
            self.0.extend_from_slice(&sum);
        }
        let n = bytes.len().min(SUM + CHUNK - self.0.len());
        self.0.extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Checks the checksum that ends `input`, a file of `len` bytes at
/// `path`, and returns the reader of its body: the bytes between the
/// header and the checksum.
fn verify<'a>(
    input: &'a mut BufReader<File>,
    len: u64,
    path: &'a Path,
) -> Result<Body<'a>, CheckerError> {
    let io = |e| CheckerError::io(path, e);
    let Some(body) = len.checked_sub(HEADER + SUM as u64) else {
        return malformed("file ends early");
    };
    let (mut sum, mut stored) = (Checksum::new(), [0; SUM]);
    input.rewind().map_err(io)?;
    std::io::copy(&mut (&mut *input).take(len - SUM as u64), &mut sum).map_err(io)?;
    input.read_exact(&mut stored).map_err(io)?;
    if sum.sum() != stored {
        return malformed("checksum mismatch (file corrupted)");
    }
    input.seek(SeekFrom::Start(HEADER)).map_err(io)?;
    let input = input.take(body);
    Ok(Body { input, path })
}

/// A checkpoint's bytes read front to back, up to the checksum.
struct Body<'a> {
    input: Take<&'a mut BufReader<File>>,
    path: &'a Path,
}

impl Body<'_> {
    fn read(&mut self, out: &mut [u8]) -> Result<(), CheckerError> {
        match self.input.read_exact(out) {
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => malformed("file ends early"),
            read => read.map_err(|e| CheckerError::io(self.path, e)),
        }
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], CheckerError> {
        let mut bytes = [0; N];
        self.read(&mut bytes).map(|()| bytes)
    }

    fn u64(&mut self) -> Result<u64, CheckerError> {
        self.bytes().map(u64::from_le_bytes)
    }

    fn flag(&mut self) -> Result<bool, CheckerError> {
        match self.bytes()? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => malformed("a flag is neither 0 nor 1"),
        }
    }

    /// `u32`-length-prefixed bytes.
    fn vec(&mut self) -> Result<Vec<u8>, CheckerError> {
        let len = u64::from(u32::from_le_bytes(self.bytes()?));
        if len > self.input.limit() {
            return malformed("file ends early");
        }
        let mut bytes = vec![0; len as usize];
        self.read(&mut bytes).map(|()| bytes)
    }
}

/// Writes a checkpoint atomically and durably: staging file, sync,
/// rename, sync of the directory. `visited` is the visited keys' run.
pub(crate) fn write(
    dir: &Path,
    config_digest: u128,
    data: &CheckpointData,
    visited: Records<'_>,
) -> Result<(), CheckerError> {
    fs::create_dir_all(dir).map_err(|e| CheckerError::io(dir, e))?;
    let tmp = dir.join(TMP);
    let io = |e| CheckerError::io(&tmp, e);
    let mut out = BufWriter::new(File::create(&tmp).map_err(io)?);
    let mut sum = Checksum::new();
    let mut put = |bytes: &[u8]| {
        sum.write_all(bytes)
            .and_then(|()| out.write_all(bytes))
            .map_err(io)
    };
    put(MAGIC)?;
    put(&VERSION.to_le_bytes())?;
    put(&config_digest.to_le_bytes())?;
    let mut stats = data.stats.clone();
    for v in counters(&mut stats) {
        put(&(*v as u64).to_le_bytes())?;
    }
    put(&(stats.duration.as_micros() as u64).to_le_bytes())?;
    put(&[stats.truncated as u8])?;
    put(&(data.markers as u64).to_le_bytes())?;

    put(&(data.paths.len() as u64).to_le_bytes())?;
    for node in &data.paths {
        put(&node.parent.to_le_bytes())?;
        put(&node.record.to_bytes())?;
        let script = node.script.as_deref().unwrap_or_default();
        put(&(script.len() as u32).to_le_bytes())?;
        put(&script.iter().map(|&c| c as u8).collect::<Vec<_>>())?;
    }

    put(&(data.frontier.len() as u64).to_le_bytes())?;
    for t in &data.frontier {
        put(&t.path.to_le_bytes())?;
        put(&t.depth.to_le_bytes())?;
        put(&t.sleep.to_le_bytes())?;
        put(&[t.fresh as u8])?;
        for bytes in [&t.cfg, &t.note] {
            put(&(bytes.len() as u32).to_le_bytes())?;
            put(bytes)?;
        }
    }

    let layout = visited.layout;
    put(&visited.len.to_le_bytes())?;
    put(&[u8::from(layout.reps) | u8::from(layout.sleeps) << 1])?;
    let mut buf = [0; MAX_WIDTH];
    for _ in 0..visited.len {
        put(layout.encode((visited.next)()?, &mut buf))?;
    }
    out.write_all(&sum.sum()).map_err(io)?;
    let file = out.into_inner().map_err(|e| io(e.into_error()))?;
    file.sync_all().map_err(io)?;
    let target = dir.join(FILE);
    fs::rename(&tmp, &target).map_err(|e| CheckerError::io(&target, e))?;
    let synced = File::open(dir).and_then(|dir| dir.sync_all());
    synced.map_err(|e| CheckerError::io(dir, e))
}

/// Loads and validates the checkpoint in `dir` against the resuming
/// run's `config_digest`, handing its visited run to `restore` as it is
/// read: keys strictly ascending, as many as the section holds. The
/// checksum is checked before anything past the header is decoded.
pub(crate) fn load<T>(
    dir: &Path,
    config_digest: u128,
    restore: impl FnOnce(&CheckpointData, Records<'_>) -> Result<T, CheckerError>,
) -> Result<(CheckpointData, T), CheckerError> {
    let path = dir.join(FILE);
    let io = |e| CheckerError::io(&path, e);
    let file = File::open(&path).map_err(io)?;
    let len = file.metadata().map_err(io)?.len();
    let mut file = BufReader::new(file);
    let mut input = Body {
        input: (&mut file).take(HEADER),
        path: &path,
    };
    let magic: [u8; 4] = input.bytes()?;
    if &magic != MAGIC {
        return malformed(format!("bad magic {magic:?} (not a checkpoint file)"));
    }
    let version = u32::from_le_bytes(input.bytes()?);
    if version != VERSION {
        return malformed(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        ));
    }
    if u128::from_le_bytes(input.bytes()?) != config_digest {
        return Err(CheckerError::CheckpointMismatch(
            "checkpoint was written for a different program or checker options; \
             re-run without --resume to start fresh"
                .into(),
        ));
    }
    let mut input = verify(&mut file, len, &path)?;
    let mut stats = ExplorationStats::default();
    for v in counters(&mut stats) {
        *v = input.u64()? as usize;
    }
    stats.duration = Duration::from_micros(input.u64()?);
    stats.truncated = input.flag()?;
    let markers = input.u64()? as usize;

    let mut paths = Vec::new();
    for _ in 0..input.u64()? {
        let parent = u32::from_le_bytes(input.bytes()?);
        let record = StepRecord::from_bytes(&input.bytes()?);
        let script = input.vec()?;
        let script = (!script.is_empty()).then(|| script.iter().map(|&c| c != 0).collect());
        paths.push(PathNode {
            parent,
            record,
            script,
        });
    }

    let mut frontier = Vec::new();
    for _ in 0..input.u64()? {
        // A task whose path is not in the forest could not be traced back.
        let path = u32::from_le_bytes(input.bytes()?);
        if path != NO_NODE && path as usize >= paths.len() {
            return malformed("a task's path is not in the forest");
        }
        frontier.push(TaskEntry {
            path,
            depth: input.u64()?,
            sleep: input.u64()?,
            fresh: input.flag()?,
            cfg: input.vec()?,
            note: input.vec()?,
        });
    }
    let data = CheckpointData {
        stats,
        markers,
        paths,
        frontier,
    };

    let len = input.u64()?;
    let [bits @ 0..=3] = input.bytes()? else {
        return malformed("unknown layout of the visited keys");
    };
    let (reps, sleeps) = (bits & 1 != 0, bits & 2 != 0);
    let layout = Layout { reps, sleeps };
    let width = layout.width();
    if len.checked_mul(width as u64) != Some(input.input.limit()) || data.markers as u64 > len {
        return malformed("the visited keys do not match their count");
    }
    let mut last = None;
    let next = &mut || {
        let mut bytes = [0; MAX_WIDTH];
        input.read(&mut bytes[..width])?;
        let record = layout.decode(&bytes);
        if last.is_some_and(|last| last >= record.0) {
            return malformed("visited keys out of order");
        }
        last = Some(record.0);
        Ok(record)
    };
    let restored = restore(&data, Records { len, layout, next })?;
    Ok((data, restored))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultDecision, FaultKind};
    use crate::store::Record;
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

    /// Visited records with and without a representative and a sleep
    /// set, in key order.
    fn sample_visited() -> Vec<Record> {
        vec![
            (7, 7, 0b101),
            (1 << 100, 11, 0),
            (u128::MAX - 3, u128::MAX - 3, 1),
        ]
    }

    /// Writes a checkpoint of `data` and `visited` into `dir`.
    fn write_all(dir: &Path, digest: u128, data: &CheckpointData, visited: &[Record]) {
        let layout = Layout {
            reps: visited.iter().any(|&(key, rep, _)| rep != key),
            sleeps: visited.iter().any(|&(_, _, sleep)| sleep != 0),
        };
        let mut left = visited.iter().copied();
        let next = &mut || Ok(left.next().expect("a record per count"));
        let len = visited.len() as u64;
        write(dir, digest, data, Records { len, layout, next }).unwrap();
    }

    /// Loads the checkpoint in `dir`, its visited run collected.
    fn load_all(dir: &Path, digest: u128) -> Result<(CheckpointData, Vec<Record>), CheckerError> {
        load(dir, digest, |_, run| {
            (0..run.len).map(|_| (run.next)()).collect()
        })
    }

    /// Replaces the checkpoint in `dir` with `bytes`, followed by their
    /// checksum.
    fn seal(dir: &Path, bytes: &[u8]) {
        let mut sum = Checksum::new();
        sum.write_all(bytes).unwrap();
        fs::write(dir.join(FILE), [bytes, &sum.sum()].concat()).unwrap();
    }

    #[test]
    fn write_load_round_trip() {
        let dir = temp_dir("roundtrip");
        // Across several chunks of the checksum, too.
        let many: Vec<Record> = (0..1_000u128).map(|i| (i << 64, i << 64, 0)).collect();
        for visited in [sample_visited(), Vec::new(), many] {
            let data = CheckpointData {
                markers: visited.len().min(1),
                ..sample()
            };
            write_all(&dir, 0xABCD, &data, &visited);
            assert_eq!(load_all(&dir, 0xABCD).unwrap(), (data, visited));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Files that end at, before or after a chunk boundary pass the
    /// chained checksum, and fail it with their first or last byte
    /// flipped.
    #[test]
    fn the_checksum_is_chained_over_chunks_of_any_length() {
        let dir = temp_dir("chunks");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(FILE);
        let check = || {
            let file = File::open(&path).unwrap();
            let len = file.metadata().unwrap().len();
            verify(&mut BufReader::new(file), len, &path).map(|body| body.input.limit())
        };
        for len in [
            24,
            25,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            3 * CHUNK,
            3 * CHUNK + 7,
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            seal(&dir, &bytes);
            assert_eq!(check().unwrap(), len as u64 - HEADER, "{len} bytes");
            for flip in [0, len - 1] {
                let mut flipped = bytes.clone();
                flipped[flip] ^= 1;
                let sealed = fs::read(&path).unwrap();
                fs::write(&path, [&flipped[..], &sealed[len..]].concat()).unwrap();
                assert!(check().is_err(), "{len} bytes, byte {flip} flipped");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A visited section whose keys repeat or fall, behind a valid
    /// checksum, is refused as malformed.
    #[test]
    fn duplicated_or_disordered_visited_keys_are_refused() {
        let dir = temp_dir("disordered");
        write_all(&dir, 5, &sample(), &sample_visited());
        let pristine = fs::read(dir.join(FILE)).unwrap();
        let body = &pristine[..pristine.len() - SUM];
        let width = 2 * 16 + 8;
        let first = body.len() - 3 * width;
        for (from, to) in [(0, 1), (1, 0), (2, 1)] {
            let mut bytes = body.to_vec();
            let record = bytes[first + from * width..][..width].to_vec();
            bytes[first + to * width..][..width].copy_from_slice(&record);
            seal(&dir, &bytes);
            match load_all(&dir, 5) {
                Err(CheckerError::CheckpointFormat(why)) => assert!(why.contains("order"), "{why}"),
                other => panic!("record {from} over {to}: {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A choice script too long for its record survives a checkpoint:
    /// the paths rebuilt from the loaded forest render what the frontier's
    /// own paths render.
    #[test]
    fn overflow_scripts_survive_write_and_load() {
        let dir = temp_dir("overflow");
        write_all(&dir, 7, &sample(), &sample_visited());
        let (back, _) = load_all(&dir, 7).unwrap();
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
    /// truncations and spliced ranges of a sample's bytes after its
    /// header, visited section included, load into an error or into a
    /// checkpoint whose forest rebuilds or is refused — never a panic. A
    /// failure names its seed.
    #[test]
    fn hostile_payloads_decode_or_are_refused() {
        let dir = temp_dir("hostile");
        write_all(&dir, 3, &sample(), &sample_visited());
        let file = fs::read(dir.join(FILE)).unwrap();
        let (header, pristine) = file[..file.len() - SUM].split_at(4 + 4 + 16);
        for seed in 0..2_000 {
            let mut draws = p_ast::Draws::new(seed);
            let mut bytes = pristine.to_vec();
            match seed % 3 {
                0 => bytes[draws.below(pristine.len())] ^= 1 << draws.below(8),
                1 => bytes.truncate(draws.below(pristine.len())),
                _ => {
                    let (from, to) = (draws.below(bytes.len()), draws.below(bytes.len()));
                    let len = draws.below(bytes.len() - from.max(to)).min(64);
                    bytes.copy_within(from..from + len, to);
                }
            }
            seal(&dir, &[header, &bytes].concat());
            let loaded = std::panic::catch_unwind(|| {
                load_all(&dir, 3).map(|(data, _)| TaskPath::rebuild(data.paths).is_some())
            });
            assert!(loaded.is_ok(), "seed {seed}: loading panicked");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoint_is_rejected() {
        let dir = temp_dir("stale");
        write_all(&dir, 0xABCD, &sample(), &sample_visited());
        match load_all(&dir, 0xABCE) {
            Err(CheckerError::CheckpointMismatch(_)) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_rejected_not_misread() {
        let dir = temp_dir("corrupt");
        write_all(&dir, 1, &sample(), &sample_visited());
        let path = dir.join(FILE);
        let pristine = fs::read(&path).unwrap();
        // Flip one byte at every offset: the load must fail every time
        // (header checks or checksum), never panic or silently succeed
        // with different contents.
        for i in 0..pristine.len() {
            let mut corrupted = pristine.clone();
            corrupted[i] ^= 0x40;
            fs::write(&path, &corrupted).unwrap();
            assert!(
                load_all(&dir, 1).is_err(),
                "corruption at byte {i} accepted"
            );
        }
        // Truncations likewise.
        for cut in [0, 3, 10, pristine.len() - 1] {
            fs::write(&path, &pristine[..cut]).unwrap();
            assert!(load_all(&dir, 1).is_err(), "truncation to {cut} accepted");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_io_error() {
        let dir = temp_dir("missing");
        match load_all(&dir, 1) {
            Err(CheckerError::Io { .. }) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
