//! The exploration engine's bookkeeping: the visited store, the edge
//! log and the work frontier.
//!
//! The search kernel has one store, [`SharedTable`], with one admit
//! rule, [`SharedTable::admit`]; symmetry, sleep sets, spilling, the
//! worker count and the scheduler's annotation are inputs to that rule,
//! not variants of it. An annotated search offers `key = concrete =`
//! the fingerprint of (configuration digest ‖ annotation), `sleep = ∅`,
//! and counts configurations with [`SharedTable::mark`]: raw digests in
//! the same shards, which collide with node keys no more than states do.
//!
//! Invariants, each enforced in exactly one place below:
//!
//! * states are keyed by the collision-safe 128-bit [`Fingerprint`],
//!   never by a 64-bit hash (a 64-bit collision silently prunes a
//!   distinct state);
//! * the `max_states` bound is checked **before** a state (or marker)
//!   is inserted — a state dropped for exceeding the bound is not
//!   remembered as visited, and `unique_states`/`stored_bytes` count
//!   exactly the states retained;
//! * a stored sleep set only ever shrinks (so a state is re-expanded at
//!   most 64 times and the search terminates);
//! * every task ever pushed has one record in the edge log, written
//!   under the key's shard lock before [`Admit::New`] or
//!   [`Admit::Widen`] returns, whose parent is the task that offered
//!   it — a record's parent exists before the record does, so every
//!   path ends at the root by construction;
//! * visited keys are canonical; tasks and their records are concrete;
//! * lock order is `shard → edge log`; an admit holds exactly one
//!   shard and looks cold keys up in that shard's [`Runs`], which takes
//!   no lock; a spill holds *every* shard (taken in ascending order) and
//!   only then the run store and the log, and hands every shard the new
//!   runs before it lets go.
//!
//! The decision table of the admit rule, for an offer `(key, concrete,
//! sleep)`; `rep` is the concrete state first admitted under `key`:
//!
//! | the table holds | outcome | stored afterwards | record |
//! |---|---|---|---|
//! | nothing under `key` | `New` | `rep = concrete`, `S = sleep` | yes |
//! | `rep = concrete`, `S ⊆ sleep` | `Covered { merged: false }` | unchanged | no |
//! | `rep = concrete`, `S ⊄ sleep` | `Widen { S ∩ sleep, false }` | `S ∩ sleep` | yes |
//! | `rep ≠ concrete`, `S = ∅` | `Covered { merged: true }` | unchanged | no |
//! | `rep ≠ concrete`, `S ≠ ∅` | `Widen { ∅, true }` | `∅` | yes |
//! | nothing, `max` retained | `OverBound` | unchanged | no |
//!
//! Without symmetry the caller passes `key == concrete`, so `rep ≠
//! concrete` never holds; without partial-order reduction it passes
//! `sleep = ∅`, so `S` is always `∅`, `∅ ⊆ ∅` makes every revisit
//! `Covered`, and `Widen` is unreachable.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::checkpoint::VisitedEntry;
use crate::error::CheckerError;
use crate::fingerprint::{Fingerprint, FpHashMap, VisitedSet};
use crate::por::SleepSet;
use crate::stats::{ExplorationStats, PhaseNanos, SUMS};
use crate::store::{RunStore, Runs, SpillCounters};
use crate::trace::{EdgeRecord, StepSeed, TraceStep};

/// Outcome of offering a state to a visited store (the module docs hold
/// the decision table).
///
/// With sleep sets, "visited" is not binary: a state explored with sleep
/// set `S` had the runs of machines in `S` pruned, so a later visit with
/// an incomparable sleep set may still owe the state some transitions.
/// The classical sound rule (Godefroid): skip the revisit iff the stored
/// sleep set is a **subset** of the offered one (everything the new
/// visit would explore, an earlier visit already did); otherwise
/// re-explore with the **intersection** and store it.
///
/// With symmetry the store is keyed per orbit, but sleep sets name
/// concrete machine ids, so that rule applies only when the offer *is*
/// the stored representative. For a symmetric sibling the permutation
/// relating the two is unknown here, and the only sleep set invariant
/// under every permutation is ∅: the sibling is covered iff the
/// representative was explored with ∅, and is otherwise re-expanded once
/// with ∅, which then becomes the stored set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Fresh state, now retained; expand it with the offered sleep set.
    New,
    /// Already explored with nothing left owing; skip.
    Covered {
        /// Whether the stored representative is a *different* concrete
        /// state (a symmetry merge, not a plain dedup).
        merged: bool,
    },
    /// Already explored, but not with a sleep set that covers the
    /// offer: re-expand with `sleep` (now also stored). The state is
    /// *not* re-counted; diagnostics for it were already noted.
    Widen {
        /// The sleep set to re-expand with.
        sleep: SleepSet,
        /// Whether the offer is a symmetric sibling of the stored
        /// representative (then `sleep` is ∅).
        merged: bool,
    },
    /// The state bound is full. The state is **not** marked visited and
    /// not counted — the exploration is truncated, not misled.
    OverBound,
}

/// Byte budget the hot visited tier may hold before spilling, for a
/// `--mem-limit` of `mem_limit` bytes. States vary widely in canonical
/// size (a handful of machines vs. hundreds), so the trigger compares
/// actual `stored_bytes` against this budget rather than counting
/// states. A quarter of the limit goes to the hot tier; the rest covers
/// the structures that stay RAM-resident across spills (sleep sets,
/// edge records between spills, the blooms and fences of the runs — two
/// bytes and an eighth of one per spilled state) plus the frontier
/// itself. The floor keeps tiny limits from degenerating into
/// a spill per handful of states.
pub(crate) fn hot_budget_for(mem_limit: usize) -> usize {
    (mem_limit / 4).max(64 << 10)
}

/// Hot-tier record cap for the edge log sharing that `--mem-limit`.
/// Records are fixed-size ([`EdgeRecord::BYTES`]), so a count cap is
/// exact for them; at one record per 64 budget bytes the complete
/// chunks awaiting a spill take at most three eighths of the hot
/// budget, and the floor is one chunk.
pub(crate) fn parent_cap_for(hot_budget: usize) -> usize {
    (hot_budget / 64).max(EDGE_CHUNK)
}

/// Shared additive totals of one search.
///
/// Workers keep cheap thread-local [`ExplorationStats`] and
/// *flush deltas* here — every few dozen tasks, before parking at a
/// checkpoint rendezvous and unconditionally on exit — so the final
/// totals are exact regardless of how a worker leaves its loop
/// (frontier drained, counterexample found elsewhere, or the worker
/// found the violation itself and broke out mid-task).
/// Reading these during the run gives monotone, slightly-stale values
/// suitable for progress snapshots.
///
/// The contract of the totals: with one worker the run is deterministic
/// — same expansion order, same first counterexample, same counters on
/// every run. With `n > 1` workers the totals of a *completed* run are
/// exact, and `unique_states`, the verdict and (without a reduction)
/// `transitions` and `dedup_hits` are independent of `n`; what a
/// reduction saves — `sleep_pruned`, `symmetry_merges`, and with them
/// the transitions of a `por` run — depends on the order states arrive
/// in. The counts of an *aborted* run (violation, interrupt,
/// abort-after) are exact totals of a timing-dependent prefix of the
/// search.
#[derive(Debug, Default)]
pub(crate) struct SharedCounters {
    /// The additive counters, in [`ExplorationStats::sums_mut`] order.
    sums: [AtomicUsize; SUMS],
    max_depth: AtomicUsize,
    max_queue_seen: AtomicUsize,
    /// Sampled phase nanoseconds, in [`PhaseNanos::to_array`] order.
    phase_nanos: [AtomicU64; 5],
}

impl SharedCounters {
    /// Folds the delta between a worker's current local stats and the
    /// portion it already flushed into the shared totals, then advances
    /// the flushed watermark. Additive counters add their delta; maxima
    /// race via `fetch_max`.
    pub(crate) fn flush(&self, local: &ExplorationStats, flushed: &mut ExplorationStats) {
        let mut now = local.clone();
        for ((cell, now), before) in self.sums.iter().zip(now.sums_mut()).zip(flushed.sums_mut()) {
            if *now > *before {
                cell.fetch_add(*now - *before, Ordering::Relaxed);
                *before = *now;
            }
        }
        self.max_depth.fetch_max(local.max_depth, Ordering::Relaxed);
        self.max_queue_seen
            .fetch_max(local.max_queue_seen, Ordering::Relaxed);
        let now = local.phases.to_array();
        let before = flushed.phases.to_array();
        for (cell, (now, before)) in self.phase_nanos.iter().zip(now.into_iter().zip(before)) {
            if now > before {
                cell.fetch_add(now - before, Ordering::Relaxed);
            }
        }
        flushed.phases = local.phases;
    }

    /// The flushed totals as an [`ExplorationStats`] skeleton
    /// (state/byte counts and duration are owned elsewhere).
    pub(crate) fn totals(&self) -> ExplorationStats {
        let mut stats = ExplorationStats {
            max_depth: self.max_depth.load(Ordering::Relaxed),
            max_queue_seen: self.max_queue_seen.load(Ordering::Relaxed),
            phases: PhaseNanos::from_array(std::array::from_fn(|i| {
                self.phase_nanos[i].load(Ordering::Relaxed)
            })),
            ..ExplorationStats::default()
        };
        for (total, cell) in stats.sums_mut().into_iter().zip(&self.sums) {
            *total = cell.load(Ordering::Relaxed);
        }
        stats
    }
}

/// A dense id into the [`EdgeLog`]: one per task ever pushed.
pub(crate) type TaskId = u32;

/// The choice scripts too long for their record, by task id, as a
/// checkpoint holds them.
pub(crate) type Scripts = Vec<(TaskId, Vec<bool>)>;

/// Records per chunk of the [`EdgeLog`] — and per block of ids a worker
/// reserves at a time, so the shared directory is touched once per
/// thousand records and a chunk has exactly one writer.
const EDGE_CHUNK: usize = 1024;

/// One never-moving chunk of the [`EdgeLog`]: [`EDGE_CHUNK`] records of
/// three words each. The words are atomics only so that the one writer
/// and the readers (a spill, a checkpoint, a trace walk — all of which
/// synchronize with the writer through the shard locks) share the chunk
/// without `unsafe`; every access is a plain load or store.
#[derive(Debug)]
struct EdgeChunk {
    words: Box<[AtomicU64]>,
    /// Records written so far. Stored by the reserving worker alone.
    filled: AtomicUsize,
}

impl EdgeChunk {
    fn new(filled: usize) -> EdgeChunk {
        EdgeChunk {
            words: (0..3 * EDGE_CHUNK).map(|_| AtomicU64::new(0)).collect(),
            filled: AtomicUsize::new(filled),
        }
    }

    fn record(&self, n: usize) -> EdgeRecord {
        EdgeRecord(std::array::from_fn(|w| {
            self.words[3 * n + w].load(Ordering::Relaxed)
        }))
    }

    fn set(&self, n: usize, record: EdgeRecord) {
        for (cell, word) in self.words[3 * n..3 * n + 3].iter().zip(record.0) {
            cell.store(word, Ordering::Relaxed);
        }
    }

    fn is_complete(&self) -> bool {
        self.filled.load(Ordering::Acquire) == EDGE_CHUNK
    }
}

/// A worker's cursor into the log: the chunk it reserved last.
#[derive(Debug, Default)]
pub(crate) struct EdgeWriter {
    chunk: Option<Arc<EdgeChunk>>,
    /// Id of the chunk's first record.
    base: TaskId,
}

/// The `edges.log` file behind an [`EdgeLog`] under `--mem-limit`:
/// record `id` lives at byte `id × `[`EdgeRecord::BYTES`]. Ids are
/// dense, so the offset is the index — no bloom filter, no sorted runs,
/// no merges.
#[derive(Debug)]
struct EdgeFile {
    path: PathBuf,
    file: File,
    bytes_written: AtomicU64,
    hits: AtomicU64,
}

impl EdgeFile {
    fn create(dir: &Path) -> Result<EdgeFile, CheckerError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckerError::io(dir, e))?;
        let path = dir.join("edges.log");
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| CheckerError::io(&path, e))?;
        Ok(EdgeFile {
            path,
            file,
            bytes_written: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        })
    }

    /// Writes the records of ids `first..` in one piece.
    fn write(
        &self,
        first: usize,
        records: impl Iterator<Item = EdgeRecord>,
    ) -> Result<(), CheckerError> {
        let bytes: Vec<u8> = records.flat_map(EdgeRecord::to_bytes).collect();
        self.file
            .write_all_at(&bytes, (first * EdgeRecord::BYTES) as u64)
            .map_err(|e| CheckerError::io(&self.path, e))?;
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads the `count` records of ids `first..`.
    fn read(&self, first: usize, count: usize) -> Result<Vec<EdgeRecord>, CheckerError> {
        let mut bytes = vec![0; count * EdgeRecord::BYTES];
        self.file
            .read_exact_at(&mut bytes, (first * EdgeRecord::BYTES) as u64)
            .map_err(|e| CheckerError::io(&self.path, e))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(bytes
            .chunks_exact(EdgeRecord::BYTES)
            .map(|b| EdgeRecord::from_bytes(b.try_into().expect("one record")))
            .collect())
    }
}

/// The parent edges of the search: an append-only log of
/// fixed-size [`EdgeRecord`]s addressed by [`TaskId`]. A worker reserves
/// a whole chunk of ids at a time and is its only writer, so appending
/// touches nothing another worker writes; chunks never move, complete
/// ones are written to `edges.log` and freed under `--mem-limit`.
#[derive(Debug)]
struct EdgeLog {
    /// Chunk `k` holds ids `k × EDGE_CHUNK ..`; `None` once spilled.
    chunks: Mutex<Vec<Option<Arc<EdgeChunk>>>>,
    /// Records in complete RAM-resident chunks — what a spill frees.
    complete: AtomicUsize,
    /// Choice scripts longer than [`EdgeRecord::INLINE_CHOICES`].
    scripts: Mutex<HashMap<TaskId, Box<[bool]>>>,
    /// Chunks the id space has room for (every id stays below
    /// [`EdgeRecord::NO_PARENT`]).
    max_chunks: usize,
    cold: Option<EdgeFile>,
}

impl EdgeLog {
    fn new(cold: Option<EdgeFile>) -> EdgeLog {
        EdgeLog {
            chunks: Mutex::new(Vec::new()),
            complete: AtomicUsize::new(0),
            scripts: Mutex::new(HashMap::new()),
            max_chunks: EdgeRecord::NO_PARENT as usize / EDGE_CHUNK,
            cold,
        }
    }

    /// A log holding `records` as ids `0..` (checkpoint resume): in
    /// complete chunks without a file, straight on disk with one.
    fn restore(
        cold: Option<EdgeFile>,
        records: &[EdgeRecord],
        scripts: Scripts,
    ) -> Result<EdgeLog, CheckerError> {
        let log = EdgeLog::new(cold);
        let mut chunks = Vec::new();
        match &log.cold {
            Some(cold) => {
                cold.write(0, records.iter().copied())?;
                chunks.resize(records.len().div_ceil(EDGE_CHUNK), None);
            }
            None => {
                for records in records.chunks(EDGE_CHUNK) {
                    let chunk = EdgeChunk::new(EDGE_CHUNK);
                    for (n, &record) in records.iter().enumerate() {
                        chunk.set(n, record);
                    }
                    chunks.push(Some(Arc::new(chunk)));
                }
                log.complete
                    .store(chunks.len() * EDGE_CHUNK, Ordering::Relaxed);
            }
        }
        *log.chunks.lock() = chunks;
        *log.scripts.lock() = scripts
            .into_iter()
            .map(|(id, script)| (id, script.into()))
            .collect();
        Ok(log)
    }

    /// Appends `record` at the writer's cursor and returns its id, or
    /// `None` when the id space is used up.
    fn append(
        &self,
        writer: &mut EdgeWriter,
        (record, script): (EdgeRecord, Option<Box<[bool]>>),
    ) -> Option<TaskId> {
        if writer.chunk.as_ref().is_none_or(|c| c.is_complete()) {
            let mut chunks = self.chunks.lock();
            if chunks.len() >= self.max_chunks {
                return None;
            }
            let chunk = Arc::new(EdgeChunk::new(0));
            writer.base = (chunks.len() * EDGE_CHUNK) as TaskId;
            chunks.push(Some(Arc::clone(&chunk)));
            writer.chunk = Some(chunk);
        }
        let chunk = writer.chunk.as_ref().expect("reserved above");
        let n = chunk.filled.load(Ordering::Relaxed);
        chunk.set(n, record);
        chunk.filled.store(n + 1, Ordering::Release);
        if n + 1 == EDGE_CHUNK {
            self.complete.fetch_add(EDGE_CHUNK, Ordering::Relaxed);
        }
        let id = writer.base + n as TaskId;
        if let Some(script) = script {
            self.scripts.lock().insert(id, script);
        }
        Some(id)
    }

    /// Writes every complete chunk to `edges.log` and frees it. Call
    /// with every shard lock held: no record is then half-written.
    fn spill_complete(&self) -> Result<(), CheckerError> {
        let Some(cold) = &self.cold else {
            return Ok(());
        };
        for (k, slot) in self.chunks.lock().iter_mut().enumerate() {
            if let Some(chunk) = slot.take_if(|c| c.is_complete()) {
                cold.write(k * EDGE_CHUNK, (0..EDGE_CHUNK).map(|n| chunk.record(n)))?;
                self.complete.fetch_sub(EDGE_CHUNK, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Record `id`, from whichever tier holds it.
    fn get(&self, id: TaskId) -> Result<EdgeRecord, CheckerError> {
        let (k, n) = (id as usize / EDGE_CHUNK, id as usize % EDGE_CHUNK);
        match (self.chunks.lock().get(k), &self.cold) {
            (Some(Some(chunk)), _) => Ok(chunk.record(n)),
            (Some(None), Some(cold)) => Ok(cold.read(id as usize, 1)?[0]),
            _ => Err(corrupt_edge(id)),
        }
    }

    /// The steps from the root task to task `id`, oldest first.
    fn path_to(&self, mut id: TaskId) -> Result<Vec<StepSeed>, CheckerError> {
        let ids = self.chunks.lock().len() * EDGE_CHUNK;
        let mut steps = Vec::new();
        loop {
            let record = self.get(id)?;
            if record.parent() == EdgeRecord::NO_PARENT {
                break;
            }
            // A path visits an id at most once; a longer walk is a cycle.
            if steps.len() >= ids {
                return Err(corrupt_edge(id));
            }
            let scripts = self.scripts.lock();
            let script = scripts.get(&id).map(|s| &s[..]);
            steps.push(record.seed(script).ok_or_else(|| corrupt_edge(id))?);
            id = record.parent();
        }
        steps.reverse();
        Ok(steps)
    }

    /// Every record (ids `0..`, reserved-but-unwritten ones as zeros)
    /// and every overflow script, for a checkpoint.
    fn snapshot(&self) -> Result<(Vec<EdgeRecord>, Scripts), CheckerError> {
        let chunks = self.chunks.lock();
        let mut records = Vec::with_capacity(chunks.len() * EDGE_CHUNK);
        for (k, slot) in chunks.iter().enumerate() {
            match (slot, &self.cold) {
                (Some(chunk), _) => records.extend((0..EDGE_CHUNK).map(|n| chunk.record(n))),
                (None, Some(cold)) => records.extend(cold.read(k * EDGE_CHUNK, EDGE_CHUNK)?),
                (None, None) => return Err(corrupt_edge((k * EDGE_CHUNK) as TaskId)),
            }
        }
        let mut scripts: Vec<_> = self
            .scripts
            .lock()
            .iter()
            .map(|(&id, script)| (id, script.to_vec()))
            .collect();
        scripts.sort_unstable();
        Ok((records, scripts))
    }

    /// Bytes of RAM the log holds: resident chunks and overflow scripts.
    fn resident_bytes(&self) -> usize {
        let chunks = self.chunks.lock().iter().flatten().count();
        let scripts = self.scripts.lock();
        chunks * EDGE_CHUNK * EdgeRecord::BYTES
            + scripts.capacity() * std::mem::size_of::<(TaskId, Box<[bool]>)>()
            + scripts.values().map(|s| s.len()).sum::<usize>()
    }
}

fn corrupt_edge(id: TaskId) -> CheckerError {
    CheckerError::CheckpointFormat(format!("edge record {id} is missing or malformed"))
}

/// Shard count of [`SharedTable`]. 64 shards keep lock contention low
/// for any plausible worker count while costing only 64 mutexes.
const SHARDS: usize = 64;

/// The visited store + edge log of the search kernel: the visited keys
/// sharded by fingerprint prefix, one mutex per shard, with global
/// retained-state accounting kept in atomics so the `max_states` bound
/// holds across shards. Under `--mem-limit` a disk-backed cold tier
/// ([`SharedCold`] for the keys, `edges.log` for the records) sits
/// behind them.
#[derive(Debug)]
pub(crate) struct SharedTable {
    shards: Vec<Mutex<Shard>>,
    /// Per shard, the [`VisitedSet::hint`] of its visited keys, which
    /// [`SharedTable::prefetch`] reads without the lock.
    hints: Vec<AtomicUsize>,
    unique: AtomicUsize,
    /// Configurations [`SharedTable::mark`]ed, bounded by `max_marked`.
    marked: AtomicUsize,
    /// Canonical-encoding bytes of the RAM-resident states.
    stored: AtomicUsize,
    truncated: AtomicBool,
    max: usize,
    max_marked: usize,
    cold: Option<SharedCold>,
    edges: EdgeLog,
}

/// The cold tier of the visited keys: one [`RunStore`], drained from the
/// shards inside the stop-the-world [`SharedTable::maybe_spill`], which
/// also moves the edge log's complete chunks to its flat file. The store
/// is the write side only — a lookup goes through its shard's
/// [`Shard::runs`] and never takes this mutex. The two
/// triggers are independent because the two fill at unrelated rates —
/// with hash-consed slots a state costs ~11 visited bytes but its record
/// 24, so a byte trigger alone lets records pile up far past their share
/// of the limit, while draining the keys whenever the records are due
/// writes a visited run per few thousand states and doubles the run
/// time.
#[derive(Debug)]
struct SharedCold {
    visited: Mutex<RunStore>,
    /// Drain visited keys once `stored` reaches this many bytes.
    hot_budget: usize,
    /// Spill complete edge chunks once they hold this many records.
    edge_cap: usize,
    /// Serializes spillers (`try_lock`: losers skip — the winner is
    /// already draining the hot tier they noticed was full).
    spilling: Mutex<()>,
}

impl SharedCold {
    /// Writes `batch` out as a run and hands every shard the new runs.
    /// `shards` is every shard, locked: no lookup runs meanwhile.
    fn spill(
        &self,
        shards: &mut [Locked<'_>],
        batch: Vec<(u128, u128)>,
    ) -> Result<(), CheckerError> {
        let mut store = self.visited.lock();
        store.spill(batch)?;
        for shard in shards {
            shard.runs = Some(store.runs());
        }
        Ok(())
    }
}

/// A locked shard. The one place the hint is published: on release, if
/// the visited keys moved (grown, drained by a spill, or restored).
struct Locked<'a> {
    shard: MutexGuard<'a, Shard>,
    hint: &'a AtomicUsize,
}

impl std::ops::Deref for Locked<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        &self.shard
    }
}

impl std::ops::DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        &mut self.shard
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        let hint = self.shard.visited.hint();
        if self.hint.load(Ordering::Relaxed) != hint {
            self.hint.store(hint, Ordering::Relaxed);
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    visited: VisitedSet,
    /// Sleep set each state was last explored with (absent = ∅). Stays
    /// RAM-resident when the key itself is spilled, so the revisit rule
    /// needs no disk read beyond the visited lookup.
    sleeps: FpHashMap<SleepSet>,
    /// Concrete representative per canonical key (absent = the key is
    /// its own representative, which is every key without symmetry).
    reps: FpHashMap<Fingerprint>,
    /// Encoding length per hot fingerprint (cold tier only), so spills
    /// keep `stored_bytes` an honest RAM figure.
    lens: FpHashMap<u32>,
    /// The cold runs as of the last spill — the same list in every
    /// shard, replaced in all of them by whoever spills, under all
    /// their locks. `None` without a cold tier.
    runs: Option<Runs>,
}

impl Shard {
    /// The representative stored for `key` in the cold tier (`None` =
    /// not visited there; `Some(None)` = visited, its own
    /// representative). The caller holds this shard's lock and needs no
    /// other: spills take all shard locks, so holding one makes the
    /// hot-miss + cold-miss check atomic.
    fn cold_visited(&self, key: Fingerprint) -> Result<Option<Option<Fingerprint>>, CheckerError> {
        let Some(runs) = &self.runs else {
            return Ok(None);
        };
        let rep = runs.get(key.as_u128())?;
        Ok(rep.map(|rep| (rep != key.as_u128()).then(|| Fingerprint::from_u128(rep))))
    }
}

/// Bytes a std hash table with room for `capacity` entries of `T`
/// allocates: one bucket and one control byte per slot, seven slots in
/// eight usable.
fn table_bytes<T>(capacity: usize) -> usize {
    capacity * 8 / 7 * (std::mem::size_of::<T>() + 1)
}

impl SharedTable {
    /// An empty RAM-only table admitting at most `max` states.
    pub(crate) fn new(max: usize) -> SharedTable {
        SharedTable::build(max, None, EdgeLog::new(None))
    }

    fn build(max: usize, cold: Option<SharedCold>, edges: EdgeLog) -> SharedTable {
        let runs = cold.as_ref().map(|cold| cold.visited.lock().runs());
        let shard = || Shard {
            runs: runs.clone(),
            ..Shard::default()
        };
        SharedTable {
            shards: (0..SHARDS).map(|_| Mutex::new(shard())).collect(),
            hints: (0..SHARDS).map(|_| AtomicUsize::new(0)).collect(),
            unique: AtomicUsize::new(0),
            marked: AtomicUsize::new(0),
            stored: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
            max: max.max(1),
            max_marked: 0,
            cold,
            edges,
        }
    }

    fn lock(&self, shard: usize) -> Locked<'_> {
        Locked {
            shard: self.shards[shard].lock(),
            hint: &self.hints[shard],
        }
    }

    /// Starts loading the visited bucket an offer of `key` probes first.
    pub(crate) fn prefetch(&self, key: Fingerprint) {
        let hint = self.hints[key.shard(SHARDS)].load(Ordering::Relaxed);
        VisitedSet::prefetch(hint, key);
    }

    fn cold_tier(dir: &Path, hot_budget: usize) -> Result<SharedCold, CheckerError> {
        Ok(SharedCold {
            visited: Mutex::new(RunStore::create(dir)?),
            hot_budget: hot_budget.max(1),
            edge_cap: parent_cap_for(hot_budget),
            spilling: Mutex::new(()),
        })
    }

    /// An empty table spilling to `dir`: visited keys whenever the hot
    /// tier reaches `hot_budget` bytes, edge records whenever
    /// [`parent_cap_for`]`(hot_budget)` of them sit in complete chunks.
    pub(crate) fn with_spill(
        max: usize,
        dir: &Path,
        hot_budget: usize,
    ) -> Result<SharedTable, CheckerError> {
        let cold = SharedTable::cold_tier(dir, hot_budget)?;
        let edges = EdgeLog::new(Some(EdgeFile::create(dir)?));
        Ok(SharedTable::build(max, Some(cold), edges))
    }

    /// Rebuilds a table from checkpointed entries. Without spilling the
    /// entries become the hot tier and `stored_bytes` restores the
    /// checkpointed figure; with spilling every restored key and record
    /// goes straight to disk (the encoding lengths are no longer known,
    /// so the hot tier restarts empty and RAM-honest at zero).
    pub(crate) fn restore(
        max: usize,
        spill: Option<(&Path, usize)>,
        entries: &[VisitedEntry],
        parents: &[EdgeRecord],
        scripts: Scripts,
        stored_bytes: usize,
    ) -> Result<SharedTable, CheckerError> {
        let (cold, file) = match spill {
            None => (None, None),
            Some((dir, hot_budget)) => (
                Some(SharedTable::cold_tier(dir, hot_budget)?),
                Some(EdgeFile::create(dir)?),
            ),
        };
        let table = SharedTable::build(max, cold, EdgeLog::restore(file, parents, scripts)?);
        table.unique.store(entries.len(), Ordering::SeqCst);
        for e in entries.iter().filter(|e| e.sleep != 0) {
            let fp = Fingerprint::from_u128(e.fp);
            let mut shard = table.lock(fp.shard(SHARDS));
            shard.sleeps.insert(fp, SleepSet(e.sleep));
        }
        match &table.cold {
            None => {
                for e in entries {
                    let fp = Fingerprint::from_u128(e.fp);
                    let mut shard = table.lock(fp.shard(SHARDS));
                    shard.visited.insert(fp);
                    if let Some(rep) = e.rep {
                        shard.reps.insert(fp, Fingerprint::from_u128(rep));
                    }
                }
                table.stored.store(stored_bytes, Ordering::SeqCst);
            }
            Some(cold) => {
                let batch = entries.iter().map(|e| (e.fp, e.rep.unwrap_or(e.fp)));
                let mut shards: Vec<_> = (0..SHARDS).map(|i| table.lock(i)).collect();
                cold.spill(&mut shards, batch.collect())?;
            }
        }
        Ok(table)
    }

    /// Makes this the table of an annotated search: `max` now bounds
    /// the configurations [`SharedTable::mark`] marks and node admits are
    /// unbounded (a bounded configuration space times a finite
    /// annotation). `marked` of a restored table's entries are markers.
    pub(crate) fn annotated(mut self, marked: usize) -> SharedTable {
        (self.max_marked, self.max) = (self.max, usize::MAX);
        *self.marked.get_mut() = marked;
        *self.unique.get_mut() -= marked;
        self
    }

    /// Activity of the cold tier, zeroed without one. `records` counts
    /// visited fingerprints only; `bytes_written`, `reads` and `hits`
    /// cover the visited store and `edges.log`.
    pub(crate) fn spill_stats(&self) -> SpillCounters {
        match (&self.cold, &self.edges.cold) {
            (Some(cold), Some(edges)) => {
                let reads = edges.hits.load(Ordering::Relaxed);
                let v = cold.visited.lock().counters();
                SpillCounters {
                    bytes_written: v.bytes_written + edges.bytes_written.load(Ordering::Relaxed),
                    reads: v.reads + reads,
                    hits: v.hits + reads,
                    ..v
                }
            }
            _ => SpillCounters::default(),
        }
    }

    /// Stop-the-world spill: when either hot tier is over its trigger,
    /// take every shard lock (ascending — admits hold exactly one, so
    /// the same order prevents deadlock), drain the tier(s) that are
    /// due, and write them out while still holding the shard locks, so
    /// no admit can observe a drained-but-not-yet-spilled fingerprint
    /// as unvisited or be half-way through writing a record.
    fn maybe_spill(&self) -> Result<(), CheckerError> {
        let Some(cold) = &self.cold else {
            return Ok(());
        };
        let due = || {
            (
                self.stored.load(Ordering::Relaxed) >= cold.hot_budget,
                self.edges.complete.load(Ordering::Relaxed) >= cold.edge_cap,
            )
        };
        if due() == (false, false) {
            return Ok(());
        }
        let Some(spilling) = cold.spilling.try_lock() else {
            return Ok(());
        };
        let (visited_due, edges_due) = due();
        if !(visited_due || edges_due) {
            return Ok(());
        }
        let mut shards: Vec<_> = (0..SHARDS).map(|i| self.lock(i)).collect();
        if visited_due {
            let mut batch = Vec::new();
            let mut freed = 0usize;
            for shard in shards.iter_mut() {
                let shard = &mut **shard;
                for fp in shard.visited.drain() {
                    freed += shard.lens.remove(&fp).unwrap_or(0) as usize;
                    let rep = shard.reps.remove(&fp).unwrap_or(fp);
                    batch.push((fp.as_u128(), rep.as_u128()));
                }
            }
            let freed = freed.min(self.stored.load(Ordering::SeqCst));
            self.stored.fetch_sub(freed, Ordering::SeqCst);
            cold.spill(&mut shards, batch)?;
        }
        if edges_due {
            self.edges.spill_complete()?;
        }
        // Given up before the shard locks, not after: a spiller preempted
        // in between would otherwise have every admit that gets in skip
        // its spill, and the hot tier grow for as long as it sleeps.
        drop(spilling);
        Ok(())
    }

    /// Offers the state `concrete`, stored under `key` (its canonical
    /// fingerprint with symmetry reduction, `concrete` itself without),
    /// to be expanded with `sleep` (∅ without partial-order reduction).
    /// `edge()` builds the record of the step that reached it — for the
    /// initial state, [`EdgeRecord::root`]. The module docs hold the
    /// decision table.
    ///
    /// [`Admit::New`] and [`Admit::Widen`] come with the id of the task
    /// to push: its record is in the log, appended through the caller's
    /// `writer`, before this returns. The whole decision happens under
    /// the key's shard lock, so concurrent offers of one key serialize:
    /// exactly one caller gets [`Admit::New`] and must expand the state.
    /// `bytes` runs only for that caller and `edge` only when a task is
    /// pushed, so the `Covered` fast path — the overwhelming majority of
    /// offers — builds neither. An id space that is used up truncates
    /// the search the way the state bound does.
    pub(crate) fn admit(
        &self,
        key: Fingerprint,
        concrete: Fingerprint,
        sleep: SleepSet,
        bytes: impl FnOnce() -> usize,
        writer: &mut EdgeWriter,
        edge: impl FnOnce() -> (EdgeRecord, Option<Box<[bool]>>),
    ) -> Result<(Admit, Option<TaskId>), CheckerError> {
        let over_bound = || {
            self.truncated.store(true, Ordering::SeqCst);
            Ok((Admit::OverBound, None))
        };
        let pushed = {
            let mut shard = self.lock(key.shard(SHARDS));
            let visited = if shard.visited.contains(key) {
                Some(shard.reps.get(&key).copied())
            } else {
                shard.cold_visited(key)?
            };
            match visited {
                Some(rep) => {
                    let merged = rep.unwrap_or(key) != concrete;
                    let stored = shard.sleeps.get(&key).copied().unwrap_or_default();
                    // A sibling is covered only by ∅, the one sleep set
                    // every id permutation preserves, and widens to ∅.
                    let (covered, widened) = if merged {
                        (stored == SleepSet::empty(), SleepSet::empty())
                    } else {
                        (stored.is_subset_of(sleep), stored.intersect(sleep))
                    };
                    if covered {
                        return Ok((Admit::Covered { merged }, None));
                    }
                    let Some(id) = self.edges.append(writer, edge()) else {
                        return over_bound();
                    };
                    if widened == SleepSet::empty() {
                        shard.sleeps.remove(&key);
                    } else {
                        shard.sleeps.insert(key, widened);
                    }
                    let sleep = widened;
                    (Admit::Widen { sleep, merged }, Some(id))
                }
                None => {
                    // Reserve a slot under the global bound; undo on
                    // overflow. The shard lock is held, so a concurrent
                    // duplicate of *this* key cannot slip in between
                    // the check and the insert.
                    let reserved = self.unique.fetch_add(1, Ordering::SeqCst);
                    let id = if reserved < self.max {
                        self.edges.append(writer, edge())
                    } else {
                        None
                    };
                    let Some(id) = id else {
                        self.unique.fetch_sub(1, Ordering::SeqCst);
                        return over_bound();
                    };
                    shard.visited.insert(key);
                    if concrete != key {
                        shard.reps.insert(key, concrete);
                    }
                    if sleep != SleepSet::empty() {
                        shard.sleeps.insert(key, sleep);
                    }
                    let bytes_len = bytes();
                    self.stored.fetch_add(bytes_len, Ordering::Relaxed);
                    if self.cold.is_some() {
                        shard.lens.insert(key, bytes_len as u32);
                    }
                    (Admit::New, Some(id))
                }
            }
        };
        self.maybe_spill()?;
        Ok(pushed)
    }

    /// Marks `config` as reached by an annotated search: [`Admit::New`]
    /// the first time, [`Admit::Covered`] after that, [`Admit::OverBound`]
    /// — not marked, not counted, the search truncated — once the bound is
    /// full. A marker has no record, task or bytes; its nodes have.
    pub(crate) fn mark(&self, config: Fingerprint) -> Result<Admit, CheckerError> {
        let mut shard = self.lock(config.shard(SHARDS));
        if shard.visited.contains(config) || shard.cold_visited(config)?.is_some() {
            return Ok(Admit::Covered { merged: false });
        }
        if self.marked.fetch_add(1, Ordering::SeqCst) >= self.max_marked {
            self.marked.fetch_sub(1, Ordering::SeqCst);
            self.truncated.store(true, Ordering::SeqCst);
            return Ok(Admit::OverBound);
        }
        shard.visited.insert(config);
        Ok(Admit::New)
    }

    /// Configurations marked, across all shards and both tiers.
    pub(crate) fn marked(&self) -> usize {
        self.marked.load(Ordering::SeqCst)
    }

    /// Retained states (nodes, if annotated) across all shards and tiers.
    pub(crate) fn unique(&self) -> usize {
        self.unique.load(Ordering::SeqCst)
    }

    /// Canonical-encoding bytes of the RAM-resident states.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.stored.load(Ordering::SeqCst)
    }

    /// Bytes of RAM the bookkeeping around those states holds: the
    /// visited buckets and the hash tables of every shard (from their
    /// capacities), the resident edge chunks, the overflow scripts, and
    /// the blooms and fences of the cold runs.
    pub(crate) fn index_bytes(&self) -> usize {
        let shards: usize = self
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                shard.visited.bytes()
                    + table_bytes::<(Fingerprint, SleepSet)>(shard.sleeps.capacity())
                    + table_bytes::<(Fingerprint, Fingerprint)>(shard.reps.capacity())
                    + table_bytes::<(Fingerprint, u32)>(shard.lens.capacity())
            })
            .sum();
        let runs = |cold: &SharedCold| cold.visited.lock().resident_bytes();
        shards + self.edges.resident_bytes() + self.cold.as_ref().map_or(0, runs)
    }

    /// Whether a bound (states, or task ids) dropped any state.
    pub(crate) fn truncated(&self) -> bool {
        self.truncated.load(Ordering::SeqCst)
    }

    /// Walks the edge log from the root task to task `id` across both
    /// tiers, rendering the stored steps. Call after the workers have
    /// quiesced.
    pub(crate) fn reconstruct(
        &self,
        id: TaskId,
        program: &p_semantics::LoweredProgram,
    ) -> Result<Vec<TraceStep>, CheckerError> {
        let steps = self.edges.path_to(id)?;
        Ok(steps.iter().map(|step| step.render(program)).collect())
    }

    /// Every visited entry (hot then cold), every edge record and every
    /// overflow script, for checkpointing. Call only while the workers
    /// are quiescent (at the checkpoint rendezvous or after joining).
    pub(crate) fn snapshot(
        &self,
    ) -> Result<(Vec<VisitedEntry>, Vec<EdgeRecord>, Scripts), CheckerError> {
        let mut visited = Vec::with_capacity(self.unique());
        // Sleep sets stay in the shards even for spilled fingerprints;
        // collect them all first so cold entries can look theirs up.
        let mut sleeps: FpHashMap<u64> = FpHashMap::default();
        for shard in &self.shards {
            let shard = shard.lock();
            for (&fp, s) in &shard.sleeps {
                sleeps.insert(fp, s.0);
            }
            for fp in shard.visited.iter() {
                visited.push(VisitedEntry {
                    fp: fp.as_u128(),
                    sleep: shard.sleeps.get(&fp).map_or(0, |s| s.0),
                    rep: shard.reps.get(&fp).map(|r| r.as_u128()),
                });
            }
        }
        if let Some(cold) = &self.cold {
            for (key, rep) in cold.visited.lock().iter_all()? {
                visited.push(VisitedEntry {
                    fp: key,
                    sleep: sleeps
                        .get(&Fingerprint::from_u128(key))
                        .copied()
                        .unwrap_or(0),
                    rep: (rep != key).then_some(rep),
                });
            }
        }
        let (parents, scripts) = self.edges.snapshot()?;
        Ok((visited, parents, scripts))
    }
}

/// Empty polls of every deque before an idle worker goes to sleep.
const SPIN_POLLS: u32 = 100;

/// How long a sleeping worker waits before it looks again by itself.
/// Every event it waits for notifies it; the timeout only bounds what a
/// missed notification could cost.
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// The work queue: one deque per worker plus work stealing. Workers
/// push and pop depth-first on their own deque (cache-friendly; with
/// one worker this *is* a DFS stack) and steal the *oldest* entry of another
/// worker's deque when idle — oldest entries sit closest to the root and
/// tend to head the largest unexplored subtrees. A worker that finds
/// nothing for [`SPIN_POLLS`] polls sleeps until there is work to steal,
/// the search ends, or a rendezvous is called.
#[derive(Debug)]
pub(crate) struct Frontier<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Tasks queued or currently being expanded. The exploration is done
    /// when this reaches zero: nothing queued, nothing in flight.
    pending: AtomicUsize,
    stop: AtomicBool,
    /// Checkpoint rendezvous: when set, workers park in
    /// [`Frontier::next`] instead of taking tasks, until cleared.
    pause: AtomicBool,
    /// Workers currently parked at the rendezvous.
    parked: AtomicUsize,
    /// Workers still running their task loop ([`Frontier::retire`]d
    /// workers neither take tasks nor park, so the rendezvous leader
    /// must not wait for them).
    active: AtomicUsize,
    /// Workers asleep on `wake`, idle or at the rendezvous. Changed
    /// under `sleep`; whoever makes work or changes `stop`/`pause` does
    /// so first and then, holding `sleep`, notifies — a sleeper checks
    /// its condition under `sleep` too, so it sees the change or is
    /// already waiting when the notification comes.
    sleeping: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    park_timeout: Duration,
}

impl<T> Frontier<T> {
    /// A frontier for `workers` workers, seeded with the root task.
    pub(crate) fn new(workers: usize, root: T) -> Frontier<T> {
        Frontier::from_tasks(workers, vec![root])
    }

    /// A frontier for `workers` workers, seeded with `tasks` dealt
    /// round-robin across the per-worker deques (checkpoint resume).
    pub(crate) fn from_tasks(workers: usize, tasks: Vec<T>) -> Frontier<T> {
        let workers = workers.max(1);
        let queues: Vec<Mutex<VecDeque<T>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let pending = tasks.len();
        for (i, task) in tasks.into_iter().enumerate() {
            queues[i % workers].lock().push_back(task);
        }
        Frontier {
            queues,
            pending: AtomicUsize::new(pending),
            stop: AtomicBool::new(false),
            pause: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            active: AtomicUsize::new(workers),
            sleeping: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            park_timeout: PARK_TIMEOUT,
        }
    }

    /// Ends the task `worker` took last: its `children` (drained, in
    /// order) go onto `worker`'s own deque under one lock, and `pending`
    /// moves once, before they become visible — from then on it counts
    /// them instead of their parent. A sleeping worker is woken only
    /// when the deque holds more than the one task its owner pops next.
    pub(crate) fn finish_task(&self, worker: usize, children: &mut Vec<T>) {
        match children.len() {
            0 => {
                if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.wake_all();
                }
                return;
            }
            1 => {}
            n => {
                self.pending.fetch_add(n - 1, Ordering::SeqCst);
            }
        }
        let surplus = {
            let mut queue = self.queues[worker].lock();
            queue.extend(children.drain(..));
            queue.len() > 1
        };
        if surplus && self.sleeping.load(Ordering::SeqCst) > 0 {
            let _sleep = self.sleep.lock();
            self.wake.notify_one();
        }
    }

    /// Takes the next task for `worker`: its own newest entry, else a
    /// steal (flagged `true`), else wait for in-flight work to produce
    /// some. Returns `None` when the exploration is finished or
    /// stopping. `before_park` runs each time the worker is about to
    /// park at a rendezvous, before the leader can see it parked.
    pub(crate) fn next(&self, worker: usize, mut before_park: impl FnMut()) -> Option<(T, bool)> {
        let mut polls = 0;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            // Park *before* the pending check: a rendezvous must catch
            // idle workers too, and they must stay parked (not exit)
            // until the leader finishes serializing the queues.
            if self.pause.load(Ordering::SeqCst) {
                before_park();
                self.parked.fetch_add(1, Ordering::SeqCst);
                self.sleep_while(|| {
                    self.pause.load(Ordering::SeqCst) && !self.stop.load(Ordering::SeqCst)
                });
                self.parked.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if let Some(task) = self.queues[worker].lock().pop_back() {
                return Some((task, false));
            }
            for offset in 1..self.queues.len() {
                let victim = (worker + offset) % self.queues.len();
                if let Some(task) = self.queues[victim].lock().pop_front() {
                    return Some((task, true));
                }
            }
            if self.pending.load(Ordering::SeqCst) == 0 {
                return None;
            }
            polls += 1;
            if polls < SPIN_POLLS {
                std::thread::yield_now();
                continue;
            }
            polls = 0;
            self.sleep_while(|| {
                !self.stop.load(Ordering::SeqCst)
                    && !self.pause.load(Ordering::SeqCst)
                    && self.pending.load(Ordering::SeqCst) != 0
                    && self.queues.iter().all(|q| q.lock().is_empty())
            });
        }
    }

    /// Sleeps on `wake` for as long as `asleep` holds.
    fn sleep_while(&self, asleep: impl Fn() -> bool) {
        let mut sleep = self.sleep.lock();
        self.sleeping.fetch_add(1, Ordering::SeqCst);
        while asleep() {
            self.wake.wait_for(&mut sleep, self.park_timeout);
        }
        self.sleeping.fetch_sub(1, Ordering::SeqCst);
    }

    fn wake_all(&self) {
        let _sleep = self.sleep.lock();
        self.wake.notify_all();
    }

    /// Marks the calling worker done for good (its loop is exiting);
    /// the rendezvous leader stops waiting for it.
    pub(crate) fn retire(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Starts a rendezvous: workers park at their next
    /// [`Frontier::next`] call until [`Frontier::resume_workers`].
    pub(crate) fn pause_workers(&self) {
        self.pause.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Blocks until every non-retired worker but the caller is parked
    /// (the caller is the rendezvous leader). With the workers parked
    /// the queues are quiescent and `pending` counts exactly the queued
    /// tasks — nothing is in flight.
    pub(crate) fn await_rendezvous(&self) {
        while self.parked.load(Ordering::SeqCst) + 1 < self.active.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    /// Ends the rendezvous; parked workers resume taking tasks.
    pub(crate) fn resume_workers(&self) {
        self.pause.store(false, Ordering::SeqCst);
        self.wake_all();
    }

    /// Tasks queued or in flight — the frontier-size gauge.
    #[cfg(feature = "telemetry")]
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// The worker count the frontier was built for.
    #[cfg(feature = "telemetry")]
    pub(crate) fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Clones every queued task (per-worker deques front-to-back) for
    /// checkpointing. Call only at a rendezvous, when nothing is in
    /// flight.
    pub(crate) fn snapshot_tasks(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut tasks = Vec::new();
        for queue in &self.queues {
            tasks.extend(queue.lock().iter().cloned());
        }
        tasks
    }

    /// First-counterexample-wins shutdown: all workers drain on their
    /// next [`Frontier::next`] call.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Whether shutdown was requested.
    #[cfg(test)]
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{BoundedSet, ParentMap};
    use p_semantics::MachineId;

    fn fp(n: u32) -> Fingerprint {
        Fingerprint::of(&n.to_le_bytes())
    }

    /// A distinguishable edge out of task `parent`: a quiescent run of
    /// machine `n`. Rendered steps are told apart by their machine id.
    fn edge(parent: TaskId, n: u32) -> (EdgeRecord, Option<Box<[bool]>>) {
        (EdgeRecord::test_blocked(parent, MachineId(n)), None)
    }

    /// A distinguishable reference edge: a quiescent run of machine `n`.
    fn step(n: u32) -> StepSeed {
        StepSeed::test_blocked(MachineId(n))
    }

    /// Any program works for rendering machine-run steps; reconstruction
    /// only needs names for event/machine-type lookups, which quiescent
    /// runs never perform.
    fn program() -> p_semantics::LoweredProgram {
        let mut b = p_ast::ProgramBuilder::new();
        b.event("e0");
        b.event("e1");
        let mut m = b.machine("M");
        m.state("S").entry(p_ast::Stmt::block(vec![]));
        m.finish();
        p_semantics::lower(&b.finish("M")).unwrap()
    }

    fn sleep(ids: &[u32]) -> SleepSet {
        let mut s = SleepSet::empty();
        for &i in ids {
            s.insert(MachineId(i));
        }
        s
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("p-engine-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The machines that ran along the reconstructed path to task `id`.
    fn path_to(table: &SharedTable, id: TaskId) -> Vec<MachineId> {
        let trace = table.reconstruct(id, &program()).unwrap();
        trace.iter().map(|s| s.machine).collect()
    }

    /// Records the log holds in RAM (written ones, in resident chunks).
    fn resident_records(table: &SharedTable) -> usize {
        let chunks = table.edges.chunks.lock();
        let filled = |c: &Arc<EdgeChunk>| c.filled.load(Ordering::SeqCst);
        chunks.iter().flatten().map(filled).sum()
    }

    /// A plain offer (no symmetry, no sleep set) of `fp(n)` reached
    /// from task `parent` by a run of machine `n`.
    fn offer(
        table: &SharedTable,
        writer: &mut EdgeWriter,
        n: u32,
        bytes: usize,
        parent: TaskId,
    ) -> (Admit, Option<TaskId>) {
        let no_sleep = SleepSet::empty();
        table
            .admit(fp(n), fp(n), no_sleep, || bytes, writer, || edge(parent, n))
            .unwrap()
    }

    /// Admits the initial state `fp(0)` under `key`; returns its task.
    fn offer_root(
        table: &SharedTable,
        writer: &mut EdgeWriter,
        key: Fingerprint,
        bytes: usize,
    ) -> TaskId {
        let root = || (EdgeRecord::root(), None);
        let admitted = table.admit(key, fp(0), SleepSet::empty(), || bytes, writer, root);
        let (outcome, id) = admitted.unwrap();
        assert_eq!(outcome, Admit::New);
        id.expect("a fresh state comes with its task")
    }

    #[test]
    fn bounded_set_admits_counts_and_dedups() {
        let mut set = BoundedSet::new(10);
        assert_eq!(set.admit(fp(1), || 4), Admit::New);
        assert_eq!(set.admit(fp(1), || 4), Admit::Covered { merged: false });
        assert_eq!(set.len(), 1);
        assert_eq!(set.stored_bytes(), 4);
    }

    /// Regression for the `max_states` truncation bug: a state dropped
    /// for exceeding the bound must NOT be marked visited (the old code
    /// inserted the hash before the bound check, permanently hiding the
    /// state), and must not be counted in `unique_states`/`stored_bytes`.
    #[test]
    fn over_bound_state_is_not_poisoned_as_visited() {
        let mut set = BoundedSet::new(2);
        assert_eq!(set.admit(fp(1), || 10), Admit::New);
        assert_eq!(set.admit(fp(2), || 10), Admit::New);
        assert_eq!(set.admit(fp(3), || 10), Admit::OverBound);
        assert_eq!(
            set.admit(fp(3), || 10),
            Admit::OverBound,
            "dropped state must stay unvisited"
        );
        assert_eq!(set.len(), 2, "only retained states are counted");
        assert_eq!(set.stored_bytes(), 20, "dropped bytes are not accounted");
        // Duplicates of retained states still dedup at the full bound.
        assert_eq!(set.admit(fp(2), || 10), Admit::Covered { merged: false });
    }

    /// One cell of {symmetry off/on} × {sleep ∅/non-∅} × {RAM/spilled}:
    /// every row of the module docs' decision table that the cell can
    /// reach, offered to the one [`SharedTable::admit`]. A spilled cell
    /// gives the hot tier a one-byte budget, so every state is on disk
    /// by the time it is offered again.
    fn decision_table_cell(symmetry: bool, por: bool, spilled: bool) {
        let dir = temp_dir(&format!("cell-{symmetry}-{por}-{spilled}"));
        let table = if spilled {
            SharedTable::with_spill(3, &dir, 1).unwrap()
        } else {
            SharedTable::new(3)
        };
        // State A is concrete fp(1), its sibling fp(2); with symmetry
        // both are stored under the orbit key fp(100).
        let key = if symmetry { fp(100) } else { fp(1) };
        let s = |ids: &[u32]| if por { sleep(ids) } else { SleepSet::empty() };
        let mut writer = EdgeWriter::default();
        let root_key = if symmetry { fp(99) } else { fp(0) };
        let root = offer_root(&table, &mut writer, root_key, 8);
        let mut admit = |key, concrete, sleep, parent, seed: u32| {
            table
                .admit(
                    key,
                    concrete,
                    sleep,
                    || 8,
                    &mut writer,
                    || edge(parent, seed),
                )
                .unwrap()
        };

        // Fresh.
        let (outcome, a) = admit(key, fp(1), s(&[1, 2]), root, 1);
        assert_eq!(outcome, Admit::New);
        let a = a.expect("a fresh state comes with its task");
        if spilled {
            assert_eq!(table.spill_stats().records, 2, "root and A are on disk");
            assert_eq!(table.stored_bytes(), 0, "a spill frees the exact lens");
        }
        // Same representative, stored ⊆ offered.
        let covered = (Admit::Covered { merged: false }, None);
        assert_eq!(admit(key, fp(1), s(&[1, 2]), root, 7), covered);
        if por {
            // Same representative, stored {1,2} ⊄ offered {2,3}: the
            // re-pushed task has a record of its own.
            let (outcome, again) = admit(key, fp(1), sleep(&[2, 3]), root, 7);
            let widen = Admit::Widen {
                sleep: sleep(&[2]),
                merged: false,
            };
            assert_eq!(outcome, widen);
            assert_eq!(path_to(&table, again.unwrap()), [MachineId(7)]);
            assert_eq!(admit(key, fp(1), sleep(&[2, 4]), root, 7), covered);
        }
        if symmetry {
            if por {
                // Sibling while the stored set is {2} ≠ ∅: one
                // re-expansion with ∅, out of the task that offered it.
                let (outcome, sibling) = admit(key, fp(2), sleep(&[4]), a, 2);
                let widen = Admit::Widen {
                    sleep: SleepSet::empty(),
                    merged: true,
                };
                assert_eq!(outcome, widen);
                assert_eq!(
                    path_to(&table, sibling.unwrap()),
                    [MachineId(1), MachineId(2)]
                );
            }
            // Sibling, stored ∅: covered, whatever it offers — a merge
            // pushes no task, so it has no record.
            let merged = (Admit::Covered { merged: true }, None);
            assert_eq!(admit(key, fp(2), s(&[6]), root, 3), merged);
            assert_eq!(admit(key, fp(1), s(&[5]), root, 3), covered);
        }
        // Revisits neither re-count the state nor touch its record.
        assert_eq!(table.unique(), 2);
        assert_eq!(table.stored_bytes(), if spilled { 0 } else { 16 });
        assert_eq!(path_to(&table, a), [MachineId(1)]);

        // Over the bound (3, across both tiers): dropped, not poisoned.
        assert_eq!(admit(fp(3), fp(3), s(&[]), a, 3).0, Admit::New);
        let over_bound = (Admit::OverBound, None);
        assert_eq!(admit(fp(4), fp(4), s(&[]), a, 4), over_bound);
        assert!(table.truncated());
        assert_eq!(admit(fp(4), fp(4), s(&[]), a, 4), over_bound);
        assert_eq!(admit(fp(3), fp(3), s(&[]), a, 3), covered);
        assert_eq!(table.unique(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    macro_rules! decision_table_cells {
        ($($name:ident: $symmetry:expr, $por:expr, $spilled:expr;)*) => {
            $(#[test]
            fn $name() {
                decision_table_cell($symmetry, $por, $spilled);
            })*
        };
    }

    decision_table_cells! {
        // name: symmetry, sleep sets, spilled
        shared_table_enforces_bound_without_poisoning: false, false, false;
        tiered_set_dedups_across_spill: false, false, true;
        shared_table_sleep_covered_and_widen: false, true, false;
        tiered_set_sleep_rule_runs_on_cold_states: false, true, true;
        shared_table_admit_sym_records_concrete_parent_edges: true, false, false;
        tiered_set_symmetry_rep_survives_spill: true, false, true;
        shared_table_admit_sleep_sym_sibling_gets_an_edge: true, true, false;
        sibling_rule_runs_on_cold_states: true, true, true;
    }

    /// The markers of an annotated search share the shards, the cold
    /// tier and the snapshot with its nodes, but have the bound and a
    /// counter of their own; nodes are admitted past the bound, and only
    /// they account for bytes (so a spill frees exactly what it drains).
    #[test]
    fn markers_are_bounded_and_counted_apart_from_nodes() {
        for spilled in [false, true] {
            let dir = temp_dir(&format!("markers-{spilled}"));
            let table = if spilled {
                SharedTable::with_spill(2, &dir, 1).unwrap()
            } else {
                SharedTable::new(2)
            };
            let table = table.annotated(0);
            let covered = Admit::Covered { merged: false };
            let mut writer = EdgeWriter::default();
            assert_eq!(table.mark(fp(100)).unwrap(), Admit::New);
            let root = offer_root(&table, &mut writer, fp(0), 8);
            assert_eq!(table.mark(fp(100)).unwrap(), covered);
            assert_eq!(table.mark(fp(101)).unwrap(), Admit::New);
            // Over the bound: not marked, not counted, not poisoned.
            assert!(!table.truncated());
            assert_eq!(table.mark(fp(102)).unwrap(), Admit::OverBound);
            assert!(table.truncated());
            assert_eq!(table.mark(fp(102)).unwrap(), Admit::OverBound);
            assert_eq!(table.mark(fp(101)).unwrap(), covered);
            for n in 1..=5 {
                assert_eq!(offer(&table, &mut writer, n, 8, root).0, Admit::New);
            }
            assert_eq!((table.marked(), table.unique()), (2, 6));
            assert_eq!(table.stored_bytes(), if spilled { 0 } else { 48 });
            if spilled {
                assert_eq!(
                    table.spill_stats().records,
                    8,
                    "markers spill with the nodes"
                );
            }

            let (visited, parents, scripts) = table.snapshot().unwrap();
            assert_eq!(visited.len(), 8);
            let restored = SharedTable::restore(2, None, &visited, &parents, scripts, 48)
                .unwrap()
                .annotated(table.marked());
            assert_eq!((restored.marked(), restored.unique()), (2, 6));
            assert_eq!(restored.mark(fp(100)).unwrap(), covered);
            assert_eq!(restored.mark(fp(102)).unwrap(), Admit::OverBound);
            let mut writer = EdgeWriter::default();
            assert_eq!(offer(&restored, &mut writer, 3, 8, root).0, covered);
            assert_eq!(offer(&restored, &mut writer, 6, 8, root).0, Admit::New);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn parent_map_reconstructs_in_root_to_leaf_order() {
        let mut parents = ParentMap::new();
        parents.record(fp(2), fp(1), step(1));
        parents.record(fp(3), fp(2), step(2));
        let prog = program();
        let trace = parents.reconstruct(fp(3), &prog);
        let machines: Vec<MachineId> = trace.iter().map(|s| s.machine).collect();
        assert_eq!(machines, [MachineId(1), MachineId(2)]);
        assert!(parents.reconstruct(fp(1), &prog).is_empty());
    }

    #[test]
    fn shared_table_admits_exactly_once_across_threads() {
        let table = SharedTable::new(usize::MAX);
        let root = offer_root(&table, &mut EdgeWriter::default(), fp(0), 0);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut writer = EdgeWriter::default();
                    for n in 1..500u32 {
                        if offer(&table, &mut writer, n, 1, root).0 == Admit::New {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 499);
        assert_eq!(table.unique(), 500);
        assert_eq!(table.stored_bytes(), 499);
    }

    #[test]
    fn shared_table_reconstructs_traces() {
        let table = SharedTable::new(usize::MAX);
        let mut writer = EdgeWriter::default();
        let root = offer_root(&table, &mut writer, fp(0), 0);
        let one = offer(&table, &mut writer, 1, 0, root).1.unwrap();
        let two = offer(&table, &mut writer, 2, 0, one).1.unwrap();
        assert_eq!(path_to(&table, two), [MachineId(1), MachineId(2)]);
        assert!(path_to(&table, root).is_empty());
    }

    /// A small deterministic generator for the table-driven tests.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// The log against the store it replaces: random trees whose edges
    /// cover every outcome the kernel records and choice scripts on both
    /// sides of the inline budget go into the edge log and into the
    /// reference [`ParentMap`]; every node's path renders identically,
    /// in RAM and with every chunk spilled the moment it completes.
    #[test]
    fn edge_log_renders_what_the_parent_map_renders() {
        use p_semantics::{EventId, ExecOutcome, MachineTypeId, RunResult, YieldKind};
        let prog = program();
        let inline = EdgeRecord::INLINE_CHOICES;
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
        for (seed, spilled) in [(1, false), (2, true), (3, false), (4, true)] {
            let dir = temp_dir(&format!("edge-tree-{seed}"));
            let log = EdgeLog::new(spilled.then(|| EdgeFile::create(&dir).unwrap()));
            let mut rng = seed as u64;
            let mut writer = EdgeWriter::default();
            let mut reference = ParentMap::new();
            let root = log.append(&mut writer, (EdgeRecord::root(), None)).unwrap();
            let mut nodes = vec![root];
            let edges = 2_000 + lcg(&mut rng) as usize % 8_000;
            for _ in 0..edges {
                let parent = nodes[lcg(&mut rng) as usize % nodes.len()];
                let machine = MachineId(lcg(&mut rng) as u32);
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
                let record = EdgeRecord::from_run(parent, machine, &result, &choices);
                let id = log.append(&mut writer, record).unwrap();
                reference.record(
                    fp(id),
                    fp(parent),
                    StepSeed::from_run(machine, &result, choices),
                );
                nodes.push(id);
                if spilled {
                    log.spill_complete().unwrap();
                }
            }
            if spilled {
                let resident = log.chunks.lock().iter().flatten().count();
                assert!(resident <= 1, "only the open chunk stays in RAM");
            }
            for &id in &nodes {
                let rendered: Vec<TraceStep> = log
                    .path_to(id)
                    .unwrap()
                    .iter()
                    .map(|s| s.render(&prog))
                    .collect();
                assert_eq!(rendered, reference.reconstruct(fp(id), &prog), "node {id}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Eight writers, each reserving its ids a chunk at a time: every id
    /// is written exactly once, holds what its writer put there, and
    /// leads back to the root.
    #[test]
    fn edge_log_appends_exactly_once_across_threads() {
        const WRITERS: u32 = 8;
        const EACH: usize = 100_000;
        let log = EdgeLog::new(None);
        let root = log
            .append(&mut EdgeWriter::default(), (EdgeRecord::root(), None))
            .unwrap();
        let written: Vec<Vec<TaskId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|t| {
                    let log = &log;
                    scope.spawn(move || {
                        let mut writer = EdgeWriter::default();
                        let mut rng = t as u64;
                        let mut mine = vec![root];
                        for _ in 0..EACH {
                            let parent = mine[lcg(&mut rng) as usize % mine.len()];
                            let id = log.append(&mut writer, edge(parent, t)).unwrap();
                            mine.push(id);
                        }
                        mine.split_off(1)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let ids = log.chunks.lock().len() * EDGE_CHUNK;
        let mut owner = vec![None; ids];
        for (t, mine) in written.iter().enumerate() {
            assert_eq!(mine.len(), EACH);
            for &id in mine {
                assert_eq!(
                    owner[id as usize].replace(t),
                    None,
                    "id {id} handed out twice"
                );
            }
        }
        // A record's parent was written before it: depth by one pass in
        // writing order, and every chain ends at the root.
        let mut reaches_root = vec![false; ids];
        reaches_root[root as usize] = true;
        for (t, mine) in written.iter().enumerate() {
            for &id in mine {
                let record = log.get(id).unwrap();
                assert_eq!(record, edge(record.parent(), t as u32).0, "id {id}");
                assert!(reaches_root[record.parent() as usize], "id {id}");
                reaches_root[id as usize] = true;
            }
        }
        let last = *written[7].last().unwrap();
        assert!(log.path_to(last).unwrap().iter().all(|s| *s == step(7)));
    }

    /// Choice scripts past the inline budget survive a checkpoint, on
    /// both sides of a spill.
    #[test]
    fn edge_log_overflow_scripts_survive_snapshot_and_restore() {
        use p_semantics::{ExecOutcome, RunResult};
        let dir = temp_dir("edge-overflow");
        let table = SharedTable::with_spill(usize::MAX, &dir, 64 << 10).unwrap();
        let mut writer = EdgeWriter::default();
        let mut parent = offer_root(&table, &mut writer, fp(0), 0);
        let result = RunResult {
            outcome: ExecOutcome::Blocked,
            choices_used: 0,
            steps: 1,
            dequeued: Vec::new(),
            raised: Vec::new(),
            deferred: Vec::new(),
        };
        let script =
            |n: u32| -> Vec<bool> { (0..n % 120).map(|i| (i + n).is_multiple_of(3)).collect() };
        for n in 1..=2_500u32 {
            let record = || EdgeRecord::from_run(parent, MachineId(n), &result, &script(n));
            let admitted = table.admit(fp(n), fp(n), SleepSet::empty(), || 0, &mut writer, record);
            parent = admitted.unwrap().1.unwrap();
        }
        assert!(table.index_bytes() > 0);
        let expected: Vec<Vec<bool>> = (1..=2_500).map(script).collect();
        let choices = |table: &SharedTable| -> Vec<Vec<bool>> {
            let trace = table.reconstruct(parent, &program()).unwrap();
            trace.into_iter().map(|s| s.choices).collect()
        };
        assert_eq!(choices(&table), expected);
        let (visited, parents, scripts) = table.snapshot().unwrap();
        assert_eq!(parents.len(), 3 * EDGE_CHUNK);
        assert!(scripts.len() > 1_000, "{} overflow scripts", scripts.len());
        let dir2 = temp_dir("edge-overflow-2");
        for spill in [None, Some((dir2.as_path(), 64 << 10))] {
            let restored =
                SharedTable::restore(usize::MAX, spill, &visited, &parents, scripts.clone(), 0);
            assert_eq!(choices(&restored.unwrap()), expected);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    /// A task-id space that is used up truncates the search the way the
    /// state bound does: typed, counted, and without poisoning.
    #[test]
    fn exhausted_task_ids_truncate_without_poisoning() {
        let mut table = SharedTable::new(usize::MAX);
        table.edges.max_chunks = 1;
        let mut writer = EdgeWriter::default();
        let root = offer_root(&table, &mut writer, fp(0), 1);
        let offer_x = |table: &SharedTable, writer: &mut EdgeWriter, sleep| {
            let x = fp(9_000);
            table
                .admit(x, x, sleep, || 1, writer, || edge(root, 9))
                .unwrap()
        };
        assert_eq!(offer_x(&table, &mut writer, sleep(&[1])).0, Admit::New);
        for n in 2..EDGE_CHUNK as u32 {
            assert_eq!(offer(&table, &mut writer, n, 1, root).0, Admit::New);
        }
        assert!(!table.truncated(), "the chunk is exactly full");
        let over_bound = (Admit::OverBound, None);
        assert_eq!(offer(&table, &mut writer, 5_000, 1, root), over_bound);
        assert!(table.truncated());
        assert_eq!(offer(&table, &mut writer, 5_000, 1, root), over_bound);
        assert_eq!(table.unique(), EDGE_CHUNK);
        assert_eq!(table.stored_bytes(), EDGE_CHUNK);
        // A widening re-push needs an id too; without one the stored
        // sleep set stays {1}, so the state is still owed the re-push.
        assert_eq!(offer_x(&table, &mut writer, sleep(&[2])), over_bound);
        table.edges.max_chunks = 2;
        let widen = Admit::Widen {
            sleep: SleepSet::empty(),
            merged: false,
        };
        assert_eq!(offer_x(&table, &mut writer, sleep(&[2])).0, widen);
    }

    #[test]
    fn frontier_drains_and_terminates() {
        let frontier: Frontier<u32> = Frontier::new(2, 0);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..2 {
                let (frontier, seen) = (&frontier, &seen);
                scope.spawn(move || {
                    let mut children = Vec::new();
                    while let Some((task, _stolen)) = frontier.next(w, || {}) {
                        seen.lock().push(task);
                        if task < 10 {
                            children.extend([task * 2 + 1, task * 2 + 2]);
                        }
                        frontier.finish_task(w, &mut children);
                    }
                });
            }
        });
        // Binary tree rooted at 0 (children 2n+1, 2n+2), expanded only
        // for n < 10: exactly the nodes 0..=20 get visited.
        let mut tasks = seen.into_inner();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..=20).collect::<Vec<u32>>());
    }

    #[test]
    fn frontier_stop_drains_workers() {
        let frontier: Frontier<u32> = Frontier::new(1, 7);
        frontier.request_stop();
        assert!(frontier.stopping());
        assert_eq!(frontier.next(0, || {}), None);
    }

    /// The idle-worker wake-up protocol with the park timeout taken
    /// away: sleepers wait an hour, and the one worker with work holds
    /// each batch back until the other three are asleep or about to be,
    /// so nearly every push meets a sleeper. One wake-up lost between
    /// `finish_task` and `sleep_while` — a push with surplus, or the last
    /// task's completion — leaves a worker asleep for good; the watchdog
    /// then fails the test instead of letting it hang.
    #[test]
    fn a_sleeping_worker_is_woken_for_every_surplus_push() {
        const WORKERS: usize = 4;
        const ROUNDS: u32 = 3_000;
        let mut frontier: Frontier<u32> = Frontier::new(WORKERS, ROUNDS);
        frontier.park_timeout = Duration::from_secs(3600);
        let expanded = AtomicUsize::new(0);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let (frontier, expanded, done) = (&frontier, &expanded, done.clone());
                scope.spawn(move || {
                    let mut children = Vec::new();
                    while let Some((task, _stolen)) = frontier.next(w, || {}) {
                        expanded.fetch_add(1, Ordering::SeqCst);
                        if task > 0 {
                            // A spine task: the next one, and a leaf to
                            // steal. Wait (boundedly) for the sleepers.
                            children.extend([0, task - 1]);
                            for _ in 0..10 * SPIN_POLLS {
                                if frontier.sleeping.load(Ordering::SeqCst) == WORKERS - 1 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                        frontier.finish_task(w, &mut children);
                    }
                    done.send(()).unwrap();
                });
            }
            for _ in 0..WORKERS {
                if finished.recv_timeout(Duration::from_secs(60)).is_err() {
                    frontier.request_stop();
                }
            }
        });
        assert!(
            !frontier.stopping(),
            "a worker slept through a wake-up: {} of {} tasks expanded",
            expanded.load(Ordering::SeqCst),
            2 * ROUNDS + 1
        );
        assert_eq!(expanded.load(Ordering::SeqCst), 2 * ROUNDS as usize + 1);
    }

    /// Intern-aware accounting invariant: `bytes` closures run only on
    /// the New path, `stored_bytes` is the exact sum of the admitted
    /// *marginal* costs (a machine slot shared between two states is
    /// counted once, by whichever state stored it first), and a spill
    /// frees exactly that sum — keeping `--mem-limit` triggers
    /// byte-accurate.
    #[test]
    fn tiered_spill_keeps_marginal_byte_accounting_exact() {
        use p_ast::{ProgramBuilder, Ty};
        use p_semantics::{lower, Config, SlotInterner, Value};

        let mut b = ProgramBuilder::new();
        b.event("go");
        let mut m = b.machine("M");
        m.var("n", Ty::Int);
        m.state("A");
        m.finish();
        let p = lower(&b.finish("M")).unwrap();

        // Two states over two machines that share slot 0: interning
        // must charge the shared slot's bytes to the first state only.
        let mut a = Config::default();
        a.allocate(&p, p.main);
        a.allocate(&p, p.main);
        let mut c = a.clone();
        c.machine_mut(p_semantics::MachineId(1)).unwrap().locals[0] = Value::Int(7);
        let full_a = a.canonical_bytes().len();
        let overhead = 4 + 2; // length prefix + one tag byte per slot
        let slot_len = (full_a - overhead) / 2;
        let mutated_slot = c.canonical_bytes().len() - overhead - slot_len;

        let dir = temp_dir("tiered-marginal");
        let table = SharedTable::with_spill(usize::MAX, &dir, usize::MAX).unwrap();
        let mut interner = SlotInterner::new();
        let mut writer = EdgeWriter::default();
        let fp_a = Fingerprint::from_u128(a.digest());
        let fp_c = Fingerprint::from_u128(c.digest());
        let mut admit = |fp, bytes: &mut dyn FnMut() -> usize| {
            table
                .admit(fp, fp, SleepSet::empty(), bytes, &mut writer, || edge(0, 1))
                .unwrap()
                .0
        };
        assert_eq!(
            admit(fp_a, &mut || a.intern_slots(&mut interner)),
            Admit::New
        );
        // `a`'s two machines are identical, so even the first state pays
        // for that slot once — not the full `canonical_bytes` encoding.
        assert_eq!(table.stored_bytes(), overhead + slot_len);
        assert_eq!(
            admit(fp_c, &mut || c.intern_slots(&mut interner)),
            Admit::New
        );
        // Second state pays only its overhead plus the one fresh slot;
        // its copy of slot 0 is shared with (and was paid by) `a`.
        assert_eq!(table.stored_bytes(), 2 * overhead + slot_len + mutated_slot);
        assert!(std::sync::Arc::ptr_eq(
            a.machine_arc(p_semantics::MachineId(0)).unwrap(),
            c.machine_arc(p_semantics::MachineId(0)).unwrap()
        ));
        // A revisit never invokes the closure (marginal bytes would be
        // double-counted otherwise).
        let before = table.stored_bytes();
        assert_eq!(
            admit(fp_a, &mut || unreachable!("a revisit must not re-account")),
            Admit::Covered { merged: false }
        );
        assert_eq!(table.stored_bytes(), before);
        // Hot budget 1 byte: every admit spills immediately, and each
        // spill must free *exactly* the marginal bytes recorded for the
        // drained states — any mismatch leaves `stored_bytes` drifting
        // away from zero and `--mem-limit` triggers lose accuracy.
        let dir2 = temp_dir("tiered-marginal-spill");
        let spilly = SharedTable::with_spill(usize::MAX, &dir2, 1).unwrap();
        let mut writer = EdgeWriter::default();
        for n in 0..4u32 {
            assert_eq!(offer(&spilly, &mut writer, n, 10, 0).0, Admit::New);
            assert_eq!(spilly.stored_bytes(), 0, "spill freed the exact lens");
        }
        assert_eq!(spilly.spill_stats().records, 4);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn tiered_set_respects_bound_across_tiers() {
        let dir = temp_dir("tiered-bound");
        let table = SharedTable::with_spill(6, &dir, 2).unwrap();
        let mut writer = EdgeWriter::default();
        for n in 0..6u32 {
            assert_eq!(offer(&table, &mut writer, n, 1, 0).0, Admit::New);
        }
        assert_eq!(table.spill_stats().records, 6, "three spills of two states");
        // max_states counts both tiers, not just the (empty) hot one.
        assert_eq!(offer(&table, &mut writer, 99, 1, 0).0, Admit::OverBound);
        assert_eq!(table.unique(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Edge records spill on their own cap, whatever the visited bytes
    /// do: with `bytes() == 0` the visited trigger never fires, and the
    /// RAM-resident records must still stay under `parent_cap_for`.
    #[test]
    fn tiered_parents_reconstruct_across_spill() {
        let dir = temp_dir("tiered-parents");
        let budget = 64 << 10;
        let cap = parent_cap_for(budget);
        let table = SharedTable::with_spill(usize::MAX, &dir, budget).unwrap();
        let mut writer = EdgeWriter::default();
        let root = offer_root(&table, &mut writer, fp(0), 0);
        let states = 10 * cap as u32;
        let mut ids = vec![root];
        for n in 1..=states {
            let (outcome, id) = offer(&table, &mut writer, n, 0, ids[n as usize - 1]);
            assert_eq!(outcome, Admit::New);
            ids.push(id.unwrap());
            assert!(
                resident_records(&table) <= cap,
                "{} resident records",
                resident_records(&table)
            );
        }
        assert_eq!(table.spill_stats().records, 0, "no visited byte was stored");
        assert_eq!(resident_records(&table), 1, "ten chunks are in edges.log");
        let on_disk = std::fs::metadata(dir.join("edges.log")).unwrap().len();
        assert_eq!(on_disk, (10 * cap * EdgeRecord::BYTES) as u64);
        assert!(
            std::fs::read_dir(&dir).unwrap().all(|entry| {
                let name = entry.unwrap().file_name();
                !name.to_string_lossy().starts_with("parents")
            }),
            "the edge log needs no run store"
        );
        let expected: Vec<MachineId> = (1..=states).map(MachineId).collect();
        assert_eq!(
            path_to(&table, ids[states as usize]),
            expected,
            "root to leaf"
        );
        assert!(
            table.spill_stats().reads >= 10 * cap as u64,
            "read from disk"
        );
        // A re-pushed task gets a record of its own, out of the task
        // that offered it — whichever tier the state's first one is in.
        let mut sibling = |concrete, parent, seed| {
            table
                .admit(
                    fp(states + 1),
                    concrete,
                    sleep(&[1]),
                    || 0,
                    &mut writer,
                    || edge(parent, seed),
                )
                .unwrap()
        };
        assert_eq!(sibling(fp(states + 1), root, 1).0, Admit::New);
        let (outcome, again) = sibling(fp(5), ids[3], 99);
        assert!(matches!(outcome, Admit::Widen { merged: true, .. }));
        let via_three = [1, 2, 3, 99].map(MachineId);
        assert_eq!(path_to(&table, again.unwrap()), via_three);
        assert_eq!(path_to(&table, ids[5]).len(), 5, "the first record stays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A short or missing `edges.log` is an I/O error with the path in
    /// it, from the trace walk and from a checkpoint alike.
    #[test]
    fn truncated_edge_file_is_a_typed_error() {
        let dir = temp_dir("edges-truncated");
        let table = SharedTable::with_spill(usize::MAX, &dir, 64 << 10).unwrap();
        let mut writer = EdgeWriter::default();
        let mut parent = offer_root(&table, &mut writer, fp(0), 0);
        for n in 1..(2 * EDGE_CHUNK + 10) as u32 {
            parent = offer(&table, &mut writer, n, 0, parent).1.unwrap();
        }
        let file = dir.join("edges.log");
        let bytes = std::fs::read(&file).unwrap();
        assert_eq!(bytes.len(), 2 * EDGE_CHUNK * EdgeRecord::BYTES);
        std::fs::write(&file, &bytes[..EDGE_CHUNK * EdgeRecord::BYTES + 7]).unwrap();
        let is_io = |e: CheckerError| matches!(&e, CheckerError::Io { path, .. } if *path == file);
        assert!(table.reconstruct(parent, &program()).is_err_and(is_io));
        assert!(table.snapshot().is_err_and(is_io));
        // An id nobody wrote is refused too, not rendered.
        let hole = (3 * EDGE_CHUNK - 1) as TaskId;
        assert!(matches!(
            table.reconstruct(hole, &program()),
            Err(CheckerError::CheckpointFormat(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_set_snapshot_restore_round_trips() {
        let dir = temp_dir("tiered-snapshot");
        let table = SharedTable::with_spill(usize::MAX, &dir, 24).unwrap();
        let admit = |table: &SharedTable, key, concrete, sleep| {
            let mut writer = EdgeWriter::default();
            table
                .admit(key, concrete, sleep, || 8, &mut writer, || edge(0, 1))
                .unwrap()
                .0
        };
        admit(&table, fp(1), fp(1), sleep(&[1]));
        admit(&table, fp(100), fp(2), SleepSet::empty());
        let mut writer = EdgeWriter::default();
        for n in 10..16u32 {
            offer(&table, &mut writer, n, 8, 0);
        }
        assert!(table.spill_stats().records >= 6, "both tiers hold entries");
        let (mut entries, parents, scripts) = table.snapshot().unwrap();
        assert_eq!(entries.len(), table.unique());
        entries.sort_by_key(|e| e.fp);

        // Restored to RAM everything is hot again; restored under a
        // memory limit everything lands on disk. Same behavior.
        let dir2 = temp_dir("tiered-snapshot-2");
        for (spill, stored) in [(None, 64), (Some((dir2.as_path(), 4)), 0)] {
            let restored =
                SharedTable::restore(usize::MAX, spill, &entries, &parents, scripts.clone(), 64)
                    .unwrap();
            assert_eq!(restored.unique(), entries.len());
            assert_eq!(restored.stored_bytes(), stored);
            let covered = Admit::Covered { merged: false };
            assert_eq!(
                offer(&restored, &mut EdgeWriter::default(), 10, 8, 0).0,
                covered
            );
            assert_eq!(
                admit(&restored, fp(1), fp(1), sleep(&[1])),
                covered,
                "sleep sets survive the round trip"
            );
            assert_eq!(
                admit(&restored, fp(100), fp(3), SleepSet::empty()),
                Admit::Covered { merged: true },
                "representatives survive the round trip"
            );
            let (mut again, _, _) = restored.snapshot().unwrap();
            again.sort_by_key(|e| e.fp);
            assert_eq!(again, entries, "snapshot → restore → snapshot is lossless");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn shared_table_spills_and_stays_exact_across_threads() {
        let dir = temp_dir("shared-spill");
        let table = SharedTable::with_spill(usize::MAX, &dir, 64).unwrap();
        let root = offer_root(&table, &mut EdgeWriter::default(), fp(0), 1);
        let wins = AtomicUsize::new(0);
        let last = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (table, wins, last) = (&table, &wins, &last);
                scope.spawn(move || {
                    let mut writer = EdgeWriter::default();
                    for n in 1..500u32 {
                        if let (Admit::New, id) = offer(table, &mut writer, n, 1, root) {
                            wins.fetch_add(1, Ordering::SeqCst);
                            if n == 499 {
                                last.store(id.unwrap() as usize, Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(
            wins.load(Ordering::SeqCst),
            499,
            "exactly-once across spills"
        );
        assert_eq!(table.unique(), 500);
        let counters = table.spill_stats();
        let spilled = counters.records;
        assert!(spilled >= 400, "hot cap 64 must have spilled: {spilled}");
        assert!(counters.bytes_written > 0);
        let last = last.load(Ordering::SeqCst) as TaskId;
        assert_eq!(path_to(&table, last), [MachineId(499)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Lookups take the key's shard lock and nothing else, while a spill
    /// swaps the runs under all of them: eight threads keep offering
    /// keys that are already on disk while a ninth admits fresh ones —
    /// a spill every 64, a merge every eighth spill — and every offer of
    /// an admitted key comes back `Covered`, before, during and after.
    #[test]
    fn cold_lookups_stay_covered_while_another_thread_spills() {
        let dir = temp_dir("cold-probes");
        let table = SharedTable::with_spill(usize::MAX, &dir, 64).unwrap();
        let mut writer = EdgeWriter::default();
        let root = offer_root(&table, &mut writer, fp(0), 1);
        for n in 1..2_000u32 {
            assert_eq!(offer(&table, &mut writer, n, 1, root).0, Admit::New);
        }
        assert!(table.spill_stats().records >= 1_900);
        let covered = Admit::Covered { merged: false };
        let (start, spiller_done) = (std::sync::Barrier::new(9), AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let (table, start, spiller_done) = (&table, &start, &spiller_done);
                scope.spawn(move || {
                    let mut writer = EdgeWriter::default();
                    start.wait();
                    let mut done = false;
                    // One more full pass after the spiller has finished.
                    while !std::mem::replace(&mut done, spiller_done.load(Ordering::SeqCst)) {
                        for n in (0..2_000).map(|n| (n + 250 * t) % 2_000) {
                            assert_eq!(offer(table, &mut writer, n, 1, root).0, covered, "{n}");
                        }
                    }
                });
            }
            start.wait();
            for n in 2_000..6_000u32 {
                assert_eq!(offer(&table, &mut writer, n, 1, root).0, Admit::New);
            }
            spiller_done.store(true, Ordering::SeqCst);
        });
        let counters = table.spill_stats();
        assert!(counters.runs_created > 60 + 60 / 8, "spills and merges ran");
        assert!(
            counters.hits >= 8 * 1_900,
            "the offers were answered from disk"
        );
        for n in 0..6_000 {
            assert_eq!(offer(&table, &mut writer, n, 1, root).0, covered, "{n}");
        }
        assert_eq!(table.unique(), 6_000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_table_snapshot_restore_round_trips() {
        let dir = temp_dir("shared-snapshot");
        let table = SharedTable::with_spill(usize::MAX, &dir, 4).unwrap();
        let mut writer = EdgeWriter::default();
        let mut leaf = offer_root(&table, &mut writer, fp(0), 1);
        for n in 1..12u32 {
            leaf = offer(&table, &mut writer, n, 1, leaf).1.unwrap();
        }
        let (mut visited, parents, scripts) = table.snapshot().unwrap();
        visited.sort_by_key(|e| e.fp);
        assert_eq!(visited.len(), 12);
        assert_eq!(
            parents.len(),
            EDGE_CHUNK,
            "whole chunks, unwritten ids zero"
        );
        assert!(scripts.is_empty());

        let restored =
            SharedTable::restore(usize::MAX, None, &visited, &parents, Vec::new(), 12).unwrap();
        assert_eq!(restored.unique(), 12);
        assert_eq!(restored.stored_bytes(), 12);
        let mut writer = EdgeWriter::default();
        let covered = Admit::Covered { merged: false };
        assert_eq!(offer(&restored, &mut writer, 5, 1, leaf).0, covered);
        assert_eq!(
            path_to(&restored, leaf).len(),
            11,
            "full chain survives a RAM restore"
        );
        // New records go after the restored ones, never over them.
        let fresh = offer(&restored, &mut writer, 50, 1, leaf).1.unwrap();
        assert_eq!(fresh as usize, EDGE_CHUNK);
        assert_eq!(path_to(&restored, fresh).len(), 12);

        let dir2 = temp_dir("shared-snapshot-2");
        let respilled = SharedTable::restore(
            usize::MAX,
            Some((&dir2, 4)),
            &visited,
            &parents,
            scripts,
            12,
        )
        .unwrap();
        assert_eq!(respilled.unique(), 12);
        assert_eq!(respilled.stored_bytes(), 0);
        assert_eq!(
            offer(&respilled, &mut EdgeWriter::default(), 5, 1, leaf).0,
            covered
        );
        assert_eq!(
            path_to(&respilled, leaf).len(),
            11,
            "full chain survives a disk restore"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    /// Whether every shard's published hint is its visited keys' own.
    fn hints_published(table: &SharedTable) -> bool {
        let published = |i: usize| table.hints[i].load(Ordering::Relaxed);
        let own = |i: usize| table.shards[i].lock().visited.hint();
        (0..SHARDS).all(|i| published(i) == own(i))
    }

    /// The hint follows the visited keys wherever they move: growth
    /// under admits and marks, the drain of a spill, and a restore.
    #[test]
    fn visited_hints_are_republished_on_growth_spill_and_restore() {
        let table = SharedTable::new(usize::MAX);
        let mut writer = EdgeWriter::default();
        let root = offer_root(&table, &mut writer, fp(0), 1);
        for n in 1..5_000u32 {
            offer(&table, &mut writer, n, 1, root);
            if n % 500 == 0 {
                assert!(hints_published(&table), "after {n} admits");
            }
        }
        let annotated = SharedTable::new(usize::MAX).annotated(0);
        for n in 0..2_000u32 {
            annotated.mark(fp(n)).unwrap();
        }
        assert!(hints_published(&annotated), "after marks");

        let dir = temp_dir("hints-spill");
        let spilling = SharedTable::with_spill(usize::MAX, &dir, 1 << 10).unwrap();
        for n in 0..3_000u32 {
            offer(&spilling, &mut writer, n, 1, root);
        }
        assert!(spilling.spill_stats().records > 0);
        assert!(hints_published(&spilling), "after spills");

        let (visited, parents, scripts) = table.snapshot().unwrap();
        let restored =
            SharedTable::restore(usize::MAX, None, &visited, &parents, scripts, 0).unwrap();
        assert!(hints_published(&restored), "after a restore");
        assert!(restored
            .hints
            .iter()
            .all(|h| h.load(Ordering::Relaxed) != 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A prefetch through a hint taken before the buckets moved — grown
    /// over and over, and freed by the drains of spills — fetches a
    /// useless line and nothing else: every lookup is still right.
    #[test]
    fn visited_prefetch_through_a_stale_hint_is_harmless() {
        let dir = temp_dir("hints-stale");
        let table = SharedTable::with_spill(usize::MAX, &dir, 1 << 10).unwrap();
        let mut writer = EdgeWriter::default();
        let root = offer_root(&table, &mut writer, fp(0), 1);
        for n in 1..100u32 {
            offer(&table, &mut writer, n, 1, root);
        }
        let stale: Vec<usize> = table
            .hints
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect();
        let prefetch_stale = |keys: std::ops::Range<u32>| {
            for n in keys {
                VisitedSet::prefetch(stale[fp(n).shard(SHARDS)], fp(n));
            }
        };
        for n in 100..4_000u32 {
            prefetch_stale(n..n + 8);
            table.prefetch(fp(n));
            assert_eq!(offer(&table, &mut writer, n, 1, root).0, Admit::New);
        }
        assert!(table.spill_stats().records > 0, "the buckets were drained");
        prefetch_stale(0..8_000);
        let covered = Admit::Covered { merged: false };
        for n in 0..4_000u32 {
            assert_eq!(offer(&table, &mut writer, n, 1, root).0, covered, "{n}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frontier_rendezvous_parks_workers_and_resumes() {
        let frontier: Frontier<u32> = Frontier::from_tasks(3, vec![1, 2, 3, 4, 5]);
        let processed = AtomicUsize::new(0);
        let flushes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Two follower workers; the test thread acts as the leader.
            for w in 0..2 {
                let (frontier, processed, flushes) = (&frontier, &processed, &flushes);
                scope.spawn(move || {
                    let before_park = || {
                        flushes.fetch_add(1, Ordering::SeqCst);
                    };
                    while let Some(_task) = frontier.next(w, before_park) {
                        processed.fetch_add(1, Ordering::SeqCst);
                        frontier.finish_task(w, &mut Vec::new());
                    }
                    frontier.retire();
                });
            }
            frontier.pause_workers();
            frontier.await_rendezvous();
            // Parked workers are not taking tasks: the snapshot is
            // consistent with `pending`.
            let snapshot = frontier.snapshot_tasks();
            assert_eq!(
                snapshot.len() + processed.load(Ordering::SeqCst),
                5,
                "every task is either processed or still queued"
            );
            // A worker that exited before the pause never parks; one
            // that parks has run its hook first.
            assert!(flushes.load(Ordering::SeqCst) >= frontier.parked.load(Ordering::SeqCst));
            frontier.resume_workers();
            frontier.retire(); // the leader takes no tasks
        });
        assert_eq!(processed.load(Ordering::SeqCst), 5);
        assert_eq!(frontier.snapshot_tasks().len(), 0);
    }
}
