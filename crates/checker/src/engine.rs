//! The exploration engine's bookkeeping: the visited store, the parent
//! edges and the work frontier.
//!
//! The exhaustive search has one store, [`SharedTable`], with one admit
//! rule, [`SharedTable::admit`]; symmetry, sleep sets, spilling and the
//! worker count are inputs to that rule, not variants of it. The
//! delay-bounded and fault strategies keep the small single-threaded
//! [`BoundedSet`] + [`ParentMap`] pair, which the tests also use as the
//! reference the exhaustive engine is compared against.
//!
//! Invariants, each enforced in exactly one place below:
//!
//! * states are keyed by the collision-safe 128-bit [`Fingerprint`],
//!   never by a 64-bit hash (a 64-bit collision silently prunes a
//!   distinct state *and* corrupts trace reconstruction);
//! * the `max_states` bound is checked **before** a state is inserted —
//!   a state dropped for exceeding the bound is not remembered as
//!   visited, and `unique_states`/`stored_bytes` count exactly the
//!   states retained;
//! * a stored sleep set only ever shrinks (so a state is re-expanded at
//!   most 64 times and the search terminates);
//! * the first parent edge of a concrete state wins, and it is recorded
//!   before [`Admit::New`] or a sibling [`Admit::Widen`] returns — every
//!   task ever pushed has a complete, acyclic path to the root;
//! * visited keys are canonical; parent edges and tasks are concrete;
//! * lock order is `shard → cold store`; the key's shard and the
//!   concrete state's shard are never held together; a spill holds
//!   *every* shard (taken in ascending order) and only then the cold
//!   stores.
//!
//! The decision table of the admit rule, for an offer `(key, concrete,
//! sleep)`; `rep` is the concrete state first admitted under `key`:
//!
//! | the table holds | outcome | stored afterwards | edge |
//! |---|---|---|---|
//! | nothing under `key` | `New` | `rep = concrete`, `S = sleep` | yes |
//! | `rep = concrete`, `S ⊆ sleep` | `Covered { merged: false }` | unchanged | no |
//! | `rep = concrete`, `S ⊄ sleep` | `Widen { S ∩ sleep, false }` | `S ∩ sleep` | no |
//! | `rep ≠ concrete`, `S = ∅` | `Covered { merged: true }` | unchanged | no |
//! | `rep ≠ concrete`, `S ≠ ∅` | `Widen { ∅, true }` | `∅` | first wins |
//! | nothing, `max` retained | `OverBound` | unchanged | no |
//!
//! Without symmetry the caller passes `key == concrete`, so `rep ≠
//! concrete` never holds; without partial-order reduction it passes
//! `sleep = ∅`, so `S` is always `∅`, `∅ ⊆ ∅` makes every revisit
//! `Covered`, and `Widen` is unreachable.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::checkpoint::{ParentRecord, VisitedEntry};
use crate::error::CheckerError;
use crate::fingerprint::{Fingerprint, FpHashMap, FpHashSet};
use crate::por::SleepSet;
use crate::stats::PhaseNanos;
use crate::store::RunStore;
use crate::trace::{StepSeed, TraceStep};
use crate::wire;

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

/// A single-threaded visited set with a state bound, counting only
/// retained states: the store of the delay-bounded and fault strategies.
#[derive(Debug)]
pub(crate) struct BoundedSet {
    seen: FpHashSet,
    stored_bytes: usize,
    max: usize,
}

impl BoundedSet {
    /// An empty set admitting at most `max` states (at least one, so the
    /// initial state is always representable).
    pub(crate) fn new(max: usize) -> BoundedSet {
        BoundedSet {
            seen: FpHashSet::default(),
            stored_bytes: 0,
            max: max.max(1),
        }
    }

    /// An unbounded set (for node spaces whose size is already bounded
    /// by a bounded configuration space times a finite annotation).
    pub(crate) fn unbounded() -> BoundedSet {
        BoundedSet::new(usize::MAX)
    }

    /// Offers a state; `bytes` produces the state's stored byte cost,
    /// and is invoked only when the state is actually retained. The
    /// laziness is what makes intern-aware accounting possible: the
    /// caller's closure interns the admitted configuration's slots and
    /// returns only the *marginal* bytes (shared slots count once,
    /// the first time any state stores them).
    pub(crate) fn admit(&mut self, fp: Fingerprint, bytes: impl FnOnce() -> usize) -> Admit {
        // Below the bound (the overwhelmingly common case) a single
        // `insert` answers new-vs-seen in one lookup. At the bound, fall
        // back to `contains` so a dropped state is never marked visited.
        if self.seen.len() >= self.max {
            if self.seen.contains(&fp) {
                return Admit::Covered { merged: false };
            }
            return Admit::OverBound;
        }
        if self.seen.insert(fp) {
            self.stored_bytes += bytes();
            Admit::New
        } else {
            Admit::Covered { merged: false }
        }
    }

    /// Retained states.
    pub(crate) fn len(&self) -> usize {
        self.seen.len()
    }

    /// Canonical-encoding bytes of the retained states.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.stored_bytes
    }
}

/// Byte budget the hot visited tier may hold before spilling, for a
/// `--mem-limit` of `mem_limit` bytes. States vary widely in canonical
/// size (a handful of machines vs. hundreds), so the trigger compares
/// actual `stored_bytes` against this budget rather than counting
/// states. A quarter of the limit goes to the hot tier; the rest covers
/// the structures that stay RAM-resident across spills (sleep sets,
/// parent edges between spills, bloom filters, run indexes) plus the
/// frontier itself. The floor keeps tiny limits from degenerating into
/// a spill per handful of states.
pub(crate) fn hot_budget_for(mem_limit: usize) -> usize {
    (mem_limit / 4).max(64 << 10)
}

/// Hot-tier edge cap for a parent map sharing that `--mem-limit`, from
/// the same quarter-of-the-limit budget: parent edges are fixed-size
/// (two fingerprints plus a [`StepSeed`], ~64 bytes with hash-table
/// overhead), so a count cap is exact for them.
pub(crate) fn parent_cap_for(hot_budget: usize) -> usize {
    (hot_budget / 64).max(1024)
}

/// Spill payload for a symmetry-mode visited key: the orbit's concrete
/// representative.
fn encode_rep_payload(rep: Option<Fingerprint>) -> Vec<u8> {
    match rep {
        None => Vec::new(),
        Some(rep) => rep.as_u128().to_le_bytes().to_vec(),
    }
}

fn corrupt_spill(what: &str) -> CheckerError {
    CheckerError::CheckpointFormat(format!("corrupt {what} spill record"))
}

fn decode_rep_payload(payload: &[u8]) -> Result<Option<Fingerprint>, CheckerError> {
    if payload.is_empty() {
        return Ok(None);
    }
    let mut buf = payload;
    let rep = wire::read_u128(&mut buf).ok_or_else(|| corrupt_spill("visited"))?;
    if !buf.is_empty() {
        return Err(corrupt_spill("visited"));
    }
    Ok(Some(Fingerprint::from_u128(rep)))
}

/// Spill payload for a parent record: parent fingerprint + encoded
/// [`StepSeed`].
fn encode_parent_payload(parent: Fingerprint, seed: &StepSeed) -> Vec<u8> {
    let mut out = parent.as_u128().to_le_bytes().to_vec();
    seed.encode(&mut out);
    out
}

fn decode_parent_payload(payload: &[u8]) -> Result<(Fingerprint, StepSeed), CheckerError> {
    let mut buf = payload;
    let parent = wire::read_u128(&mut buf).ok_or_else(|| corrupt_spill("parent"))?;
    let seed = StepSeed::decode(&mut buf).ok_or_else(|| corrupt_spill("parent"))?;
    if !buf.is_empty() {
        return Err(corrupt_spill("parent"));
    }
    Ok((Fingerprint::from_u128(parent), seed))
}

/// Shared additive totals of one exhaustive run.
///
/// Workers keep cheap thread-local [`crate::ExplorationStats`] and
/// *flush deltas* here — once per expanded task and unconditionally on
/// exit — so the final totals are exact regardless of how a worker
/// leaves its loop (frontier drained, counterexample found elsewhere,
/// or the worker found the violation itself and broke out mid-task).
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
    transitions: AtomicUsize,
    dedup_hits: AtomicUsize,
    sleep_pruned: AtomicUsize,
    quiescent_states: AtomicUsize,
    stuck_states: AtomicUsize,
    symmetry_merges: AtomicUsize,
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
    pub(crate) fn flush(
        &self,
        local: &crate::ExplorationStats,
        flushed: &mut crate::ExplorationStats,
    ) {
        let add = |cell: &AtomicUsize, now: usize, before: usize| {
            if now > before {
                cell.fetch_add(now - before, Ordering::Relaxed);
            }
        };
        add(&self.transitions, local.transitions, flushed.transitions);
        add(&self.dedup_hits, local.dedup_hits, flushed.dedup_hits);
        add(&self.sleep_pruned, local.sleep_pruned, flushed.sleep_pruned);
        add(
            &self.quiescent_states,
            local.quiescent_states,
            flushed.quiescent_states,
        );
        add(&self.stuck_states, local.stuck_states, flushed.stuck_states);
        add(
            &self.symmetry_merges,
            local.symmetry_merges,
            flushed.symmetry_merges,
        );
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
        *flushed = local.clone();
    }

    /// The flushed totals as an [`crate::ExplorationStats`] skeleton
    /// (state/byte counts and duration are owned elsewhere).
    pub(crate) fn totals(&self) -> crate::ExplorationStats {
        crate::ExplorationStats {
            transitions: self.transitions.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            sleep_pruned: self.sleep_pruned.load(Ordering::Relaxed),
            quiescent_states: self.quiescent_states.load(Ordering::Relaxed),
            stuck_states: self.stuck_states.load(Ordering::Relaxed),
            symmetry_merges: self.symmetry_merges.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            max_queue_seen: self.max_queue_seen.load(Ordering::Relaxed),
            phases: PhaseNanos::from_array(std::array::from_fn(|i| {
                self.phase_nanos[i].load(Ordering::Relaxed)
            })),
            ..crate::ExplorationStats::default()
        }
    }
}

/// `child → (parent, step)` edges for counterexample reconstruction,
/// keyed by fingerprint.
#[derive(Debug, Default)]
pub(crate) struct ParentMap {
    map: FpHashMap<(Fingerprint, StepSeed)>,
}

impl ParentMap {
    pub(crate) fn new() -> ParentMap {
        ParentMap::default()
    }

    /// Records how `child` was first reached.
    pub(crate) fn record(&mut self, child: Fingerprint, parent: Fingerprint, step: StepSeed) {
        self.map.insert(child, (parent, step));
    }

    /// Walks the parent edges from the initial state to `state`,
    /// rendering the stored seeds into human-readable steps.
    pub(crate) fn reconstruct(
        &self,
        mut state: Fingerprint,
        program: &p_semantics::LoweredProgram,
    ) -> Vec<TraceStep> {
        let mut steps = Vec::new();
        while let Some((parent, step)) = self.map.get(&state) {
            steps.push(step.render(program));
            state = *parent;
        }
        steps.reverse();
        steps
    }
}

/// Shard count of [`SharedTable`]. 64 shards keep lock contention low
/// for any plausible worker count while costing only 64 mutexes.
const SHARDS: usize = 64;

/// The visited store + parent edges of the exhaustive search: sharded
/// by fingerprint prefix, one mutex per shard, with global
/// retained-state accounting kept in atomics so the `max_states` bound
/// holds across shards. Under `--mem-limit` a disk-backed cold tier
/// ([`SharedCold`]) sits behind the shards.
#[derive(Debug)]
pub(crate) struct SharedTable {
    shards: Vec<Mutex<Shard>>,
    unique: AtomicUsize,
    /// Canonical-encoding bytes of the RAM-resident states.
    stored: AtomicUsize,
    truncated: AtomicBool,
    max: usize,
    cold: Option<SharedCold>,
    /// RAM-resident parent edges across all shards (maintained only
    /// with a cold tier; compared against [`SharedCold::parent_cap`]).
    hot_edges: AtomicUsize,
}

/// The cold tier: two [`RunStore`]s, each drained from the shards on
/// its own trigger inside the one stop-the-world
/// [`SharedTable::maybe_spill`]. The triggers are independent because
/// the two stores fill at unrelated rates — with hash-consed slots a
/// state costs ~11 visited bytes but its edge ~64, so a byte trigger
/// alone lets edges pile up far past their share of the limit, while
/// draining both stores whenever either fills writes a visited run per
/// few thousand edges and doubles the run time.
#[derive(Debug)]
struct SharedCold {
    visited: Mutex<RunStore>,
    parents: Mutex<RunStore>,
    /// Drain visited keys once `stored` reaches this many bytes.
    hot_budget: usize,
    /// Drain parent edges once `hot_edges` reaches this.
    parent_cap: usize,
    /// Serializes spillers (`try_lock`: losers skip — the winner is
    /// already draining the hot tier they noticed was full).
    spilling: Mutex<()>,
}

#[derive(Debug, Default)]
struct Shard {
    visited: FpHashSet,
    parents: FpHashMap<(Fingerprint, StepSeed)>,
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
}

impl SharedTable {
    /// An empty RAM-only table admitting at most `max` states.
    pub(crate) fn new(max: usize) -> SharedTable {
        SharedTable {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            unique: AtomicUsize::new(0),
            stored: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
            max: max.max(1),
            cold: None,
            hot_edges: AtomicUsize::new(0),
        }
    }

    /// An empty table spilling to `dir`: visited keys whenever the hot
    /// tier reaches `hot_budget` bytes, parent edges whenever
    /// [`parent_cap_for`]`(hot_budget)` of them are in RAM.
    pub(crate) fn with_spill(
        max: usize,
        dir: &Path,
        hot_budget: usize,
    ) -> Result<SharedTable, CheckerError> {
        let mut table = SharedTable::new(max);
        table.cold = Some(SharedCold {
            visited: Mutex::new(RunStore::create(dir, "visited")?),
            parents: Mutex::new(RunStore::create(dir, "parents")?),
            hot_budget: hot_budget.max(1),
            parent_cap: parent_cap_for(hot_budget),
            spilling: Mutex::new(()),
        });
        Ok(table)
    }

    /// Rebuilds a table from checkpointed entries. Without spilling the
    /// entries become the hot tier and `stored_bytes` restores the
    /// checkpointed figure; with spilling every restored record goes
    /// straight to disk (the encoding lengths are no longer known, so
    /// the hot tier restarts empty and RAM-honest at zero).
    pub(crate) fn restore(
        max: usize,
        spill: Option<(&Path, usize)>,
        entries: &[VisitedEntry],
        parents: Vec<ParentRecord>,
        stored_bytes: usize,
    ) -> Result<SharedTable, CheckerError> {
        let table = match spill {
            None => SharedTable::new(max),
            Some((dir, hot_budget)) => SharedTable::with_spill(max, dir, hot_budget)?,
        };
        table.unique.store(entries.len(), Ordering::SeqCst);
        for e in entries.iter().filter(|e| e.sleep != 0) {
            let fp = Fingerprint::from_u128(e.fp);
            let mut shard = table.shards[fp.shard(SHARDS)].lock();
            shard.sleeps.insert(fp, SleepSet(e.sleep));
        }
        match &table.cold {
            None => {
                for e in entries {
                    let fp = Fingerprint::from_u128(e.fp);
                    let mut shard = table.shards[fp.shard(SHARDS)].lock();
                    shard.visited.insert(fp);
                    if let Some(rep) = e.rep {
                        shard.reps.insert(fp, Fingerprint::from_u128(rep));
                    }
                }
                for (child, parent, seed) in parents {
                    let child = Fingerprint::from_u128(child);
                    let mut shard = table.shards[child.shard(SHARDS)].lock();
                    shard
                        .parents
                        .insert(child, (Fingerprint::from_u128(parent), seed));
                }
                table.stored.store(stored_bytes, Ordering::SeqCst);
            }
            Some(cold) => {
                let visited_batch = entries
                    .iter()
                    .map(|e| (e.fp, encode_rep_payload(e.rep.map(Fingerprint::from_u128))))
                    .collect();
                cold.visited.lock().spill(visited_batch)?;
                let parent_batch = parents
                    .into_iter()
                    .map(|(child, parent, seed)| {
                        (
                            child,
                            encode_parent_payload(Fingerprint::from_u128(parent), &seed),
                        )
                    })
                    .collect();
                cold.parents.lock().spill(parent_batch)?;
            }
        }
        Ok(table)
    }

    /// Spill activity: `(spilled_states, spill_bytes, cold_hits)`,
    /// zeroed without a cold tier. `spill_bytes` and `cold_hits` cover
    /// the visited and parent stores; `spilled_states` counts visited
    /// fingerprints only.
    pub(crate) fn spill_stats(&self) -> (usize, u64, u64) {
        match &self.cold {
            None => (0, 0, 0),
            Some(cold) => {
                let v = cold.visited.lock().counters;
                let p = cold.parents.lock().counters;
                (
                    v.records as usize,
                    v.bytes_written + p.bytes_written,
                    v.hits + p.hits,
                )
            }
        }
    }

    /// Stop-the-world spill: when either hot tier is over its trigger,
    /// take every shard lock (ascending — admits hold exactly one, so
    /// the same order prevents deadlock), drain the tier(s) that are
    /// due, and write them to the cold store while still holding the
    /// shard locks, so no admit can observe a drained-but-not-yet-
    /// spilled fingerprint as unvisited.
    fn maybe_spill(&self) -> Result<(), CheckerError> {
        let Some(cold) = &self.cold else {
            return Ok(());
        };
        let due = || {
            (
                self.stored.load(Ordering::Relaxed) >= cold.hot_budget,
                self.hot_edges.load(Ordering::Relaxed) >= cold.parent_cap,
            )
        };
        if due() == (false, false) {
            return Ok(());
        }
        let Some(_guard) = cold.spilling.try_lock() else {
            return Ok(());
        };
        let (visited_due, parents_due) = due();
        if !(visited_due || parents_due) {
            return Ok(());
        }
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        if visited_due {
            let mut batch = Vec::new();
            let mut freed = 0usize;
            for shard in shards.iter_mut() {
                let shard = &mut **shard;
                for fp in shard.visited.drain() {
                    freed += shard.lens.remove(&fp).unwrap_or(0) as usize;
                    batch.push((fp.as_u128(), encode_rep_payload(shard.reps.remove(&fp))));
                }
            }
            let freed = freed.min(self.stored.load(Ordering::SeqCst));
            self.stored.fetch_sub(freed, Ordering::SeqCst);
            cold.visited.lock().spill(batch)?;
        }
        if parents_due {
            let mut batch = Vec::with_capacity(self.hot_edges.load(Ordering::Relaxed));
            for shard in shards.iter_mut() {
                for (child, (parent, seed)) in shard.parents.drain() {
                    batch.push((child.as_u128(), encode_parent_payload(parent, &seed)));
                }
            }
            self.hot_edges.store(0, Ordering::Relaxed);
            cold.parents.lock().spill(batch)?;
        }
        Ok(())
    }

    /// The representative stored for `key` in the cold tier (`None` =
    /// not visited there; `Some(None)` = visited, its own
    /// representative). Call with `key`'s shard lock held: spills take
    /// all shard locks, so holding one makes the hot-miss + cold-miss
    /// check atomic.
    fn cold_visited(&self, key: Fingerprint) -> Result<Option<Option<Fingerprint>>, CheckerError> {
        let Some(cold) = &self.cold else {
            return Ok(None);
        };
        match cold.visited.lock().get(key.as_u128())? {
            None => Ok(None),
            Some(payload) => Ok(Some(decode_rep_payload(&payload)?)),
        }
    }

    /// Offers the state `concrete`, stored under `key` (its canonical
    /// fingerprint with symmetry reduction, `concrete` itself without),
    /// to be expanded with `sleep` (∅ without partial-order reduction),
    /// reached from `parent` by the step `step()` builds; the initial
    /// state has no parent. The module docs hold the decision table.
    ///
    /// The whole decision happens under the key's shard lock, so
    /// concurrent offers of one key serialize: exactly one caller gets
    /// [`Admit::New`] and must expand the state. `bytes` runs only for
    /// that caller and `step` only when an edge is recorded, so the
    /// `Covered` fast path — the overwhelming majority of offers —
    /// builds neither.
    pub(crate) fn admit(
        &self,
        key: Fingerprint,
        concrete: Fingerprint,
        sleep: SleepSet,
        bytes: impl FnOnce() -> usize,
        parent: Option<Fingerprint>,
        step: impl FnOnce() -> StepSeed,
    ) -> Result<Admit, CheckerError> {
        let outcome = {
            let mut shard = self.shards[key.shard(SHARDS)].lock();
            let visited = if shard.visited.contains(&key) {
                Some(shard.reps.get(&key).copied())
            } else {
                self.cold_visited(key)?
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
                        return Ok(Admit::Covered { merged });
                    }
                    if widened == SleepSet::empty() {
                        shard.sleeps.remove(&key);
                    } else {
                        shard.sleeps.insert(key, widened);
                    }
                    let outcome = Admit::Widen {
                        sleep: widened,
                        merged,
                    };
                    if !merged {
                        return Ok(outcome);
                    }
                    outcome
                }
                None => {
                    // Reserve a slot under the global bound; undo on
                    // overflow. The shard lock is held, so a concurrent
                    // duplicate of *this* key cannot slip in between
                    // the check and the insert.
                    let reserved = self.unique.fetch_add(1, Ordering::SeqCst);
                    if reserved >= self.max {
                        self.unique.fetch_sub(1, Ordering::SeqCst);
                        self.truncated.store(true, Ordering::SeqCst);
                        return Ok(Admit::OverBound);
                    }
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
                    Admit::New
                }
            }
        };
        // Only `New` and a sibling's `Widen` get here: the two outcomes
        // that push a concrete state which may not have an edge yet.
        if let Some(parent) = parent {
            let mut shard = self.shards[concrete.shard(SHARDS)].lock();
            // A fresh key's concrete state cannot have an edge; a
            // sibling keeps the first one, wherever it lives.
            let has_edge = outcome != Admit::New
                && (shard.parents.contains_key(&concrete)
                    || match &self.cold {
                        Some(cold) => cold.parents.lock().contains(concrete.as_u128())?,
                        None => false,
                    });
            if !has_edge {
                shard.parents.insert(concrete, (parent, step()));
                if self.cold.is_some() {
                    self.hot_edges.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.maybe_spill()?;
        Ok(outcome)
    }

    /// Retained states across all shards and both tiers.
    pub(crate) fn unique(&self) -> usize {
        self.unique.load(Ordering::SeqCst)
    }

    /// Canonical-encoding bytes of the RAM-resident states.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.stored.load(Ordering::SeqCst)
    }

    /// Whether the state bound dropped any state.
    pub(crate) fn truncated(&self) -> bool {
        self.truncated.load(Ordering::SeqCst)
    }

    /// RAM-resident parent edges (zero without a cold tier).
    #[cfg(test)]
    fn hot_edges(&self) -> usize {
        self.hot_edges.load(Ordering::SeqCst)
    }

    /// Walks the parent edges from the initial state to `state` across
    /// both tiers, rendering the stored seeds. Call after the workers
    /// have quiesced; locks one shard per edge.
    pub(crate) fn reconstruct(
        &self,
        mut state: Fingerprint,
        program: &p_semantics::LoweredProgram,
    ) -> Result<Vec<TraceStep>, CheckerError> {
        let mut steps = Vec::new();
        loop {
            {
                let shard = self.shards[state.shard(SHARDS)].lock();
                if let Some((parent, step)) = shard.parents.get(&state) {
                    steps.push(step.render(program));
                    state = *parent;
                    continue;
                }
            }
            let Some(cold) = &self.cold else {
                break;
            };
            let Some(payload) = cold.parents.lock().get(state.as_u128())? else {
                break;
            };
            let (parent, seed) = decode_parent_payload(&payload)?;
            steps.push(seed.render(program));
            state = parent;
        }
        steps.reverse();
        Ok(steps)
    }

    /// Every visited entry and parent record (hot then cold) for
    /// checkpointing. Call only while the workers are quiescent (at the
    /// checkpoint rendezvous or after joining).
    pub(crate) fn snapshot(&self) -> Result<(Vec<VisitedEntry>, Vec<ParentRecord>), CheckerError> {
        let mut visited = Vec::with_capacity(self.unique());
        let mut parents = Vec::new();
        // Sleep sets stay in the shards even for spilled fingerprints;
        // collect them all first so cold entries can look theirs up.
        let mut sleeps: FpHashMap<u64> = FpHashMap::default();
        for shard in &self.shards {
            let shard = shard.lock();
            for (&fp, s) in &shard.sleeps {
                sleeps.insert(fp, s.0);
            }
            for &fp in &shard.visited {
                visited.push(VisitedEntry {
                    fp: fp.as_u128(),
                    sleep: shard.sleeps.get(&fp).map_or(0, |s| s.0),
                    rep: shard.reps.get(&fp).map(|r| r.as_u128()),
                });
            }
            for (child, (parent, seed)) in &shard.parents {
                parents.push((child.as_u128(), parent.as_u128(), seed.clone()));
            }
        }
        if let Some(cold) = &self.cold {
            for (key, payload) in cold.visited.lock().iter_all()? {
                visited.push(VisitedEntry {
                    fp: key,
                    sleep: sleeps
                        .get(&Fingerprint::from_u128(key))
                        .copied()
                        .unwrap_or(0),
                    rep: decode_rep_payload(&payload)?.map(|r| r.as_u128()),
                });
            }
            for (child, payload) in cold.parents.lock().iter_all()? {
                let (parent, seed) = decode_parent_payload(&payload)?;
                parents.push((child, parent.as_u128(), seed));
            }
        }
        Ok((visited, parents))
    }
}

/// The work queue: one deque per worker plus work stealing. Workers
/// push and pop depth-first on their own deque (cache-friendly; with
/// one worker this *is* a DFS stack) and steal the *oldest* entry of another
/// worker's deque when idle — oldest entries sit closest to the root and
/// tend to head the largest unexplored subtrees.
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
        }
    }

    /// Enqueues a task on `worker`'s own deque.
    pub(crate) fn push(&self, worker: usize, task: T) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queues[worker].lock().push_back(task);
    }

    /// Takes the next task for `worker`: its own newest entry, else a
    /// steal, else wait for in-flight work to produce some. Returns
    /// `None` when the exploration is finished or stopping.
    pub(crate) fn next(&self, worker: usize) -> Option<T> {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            // Park *before* the pending check: a rendezvous must catch
            // idle workers too, and they must stay parked (not exit)
            // until the leader finishes serializing the queues.
            if self.pause.load(Ordering::SeqCst) {
                self.parked.fetch_add(1, Ordering::SeqCst);
                while self.pause.load(Ordering::SeqCst) && !self.stop.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                self.parked.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if let Some(task) = self.queues[worker].lock().pop_back() {
                return Some(task);
            }
            for offset in 1..self.queues.len() {
                let victim = (worker + offset) % self.queues.len();
                if let Some(task) = self.queues[victim].lock().pop_front() {
                    return Some(task);
                }
            }
            if self.pending.load(Ordering::SeqCst) == 0 {
                return None;
            }
            std::thread::yield_now();
        }
    }

    /// Marks the calling worker done for good (its loop is exiting);
    /// the rendezvous leader stops waiting for it.
    pub(crate) fn retire(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Starts a rendezvous: workers park at their next
    /// [`Frontier::next`] call until [`Frontier::resume`].
    pub(crate) fn pause_workers(&self) {
        self.pause.store(true, Ordering::SeqCst);
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
    }

    /// Marks one previously [`Frontier::next`]-ed task fully expanded.
    pub(crate) fn task_done(&self) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
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
    use p_semantics::MachineId;

    fn fp(n: u32) -> Fingerprint {
        Fingerprint::of(&n.to_le_bytes())
    }

    /// A distinguishable parent edge: a quiescent run of machine `n`.
    /// Rendered steps are told apart by their machine id.
    fn step(n: u32) -> StepSeed {
        StepSeed::test_blocked(MachineId(n))
    }

    /// Any program works for rendering machine-run steps; reconstruction
    /// only needs names for event/machine-type lookups, which quiescent
    /// runs never perform.
    fn program() -> p_semantics::LoweredProgram {
        let mut b = p_ast::ProgramBuilder::new();
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

    /// The machines that ran along the reconstructed path to `state`.
    fn path_to(table: &SharedTable, state: Fingerprint) -> Vec<MachineId> {
        let trace = table.reconstruct(state, &program()).unwrap();
        trace.iter().map(|s| s.machine).collect()
    }

    /// A plain offer (no symmetry, no sleep set) of `fp(n)` reached
    /// from `fp(parent)` by `step(n)`.
    fn offer(table: &SharedTable, n: u32, bytes: usize, parent: u32) -> Admit {
        let seed = || step(n);
        table
            .admit(
                fp(n),
                fp(n),
                SleepSet::empty(),
                || bytes,
                Some(fp(parent)),
                seed,
            )
            .unwrap()
    }

    fn offer_root(table: &SharedTable, key: Fingerprint, bytes: usize) {
        let no_edge = || unreachable!("the root has no parent edge");
        let admitted = table.admit(key, fp(0), SleepSet::empty(), || bytes, None, no_edge);
        assert_eq!(admitted.unwrap(), Admit::New);
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
        let admit = |key, concrete, sleep, parent, seed: u32| {
            table
                .admit(key, concrete, sleep, || 8, Some(parent), || step(seed))
                .unwrap()
        };
        offer_root(&table, if symmetry { fp(99) } else { fp(0) }, 8);

        // Fresh.
        assert_eq!(admit(key, fp(1), s(&[1, 2]), fp(0), 1), Admit::New);
        if spilled {
            assert_eq!(table.spill_stats().0, 2, "root and A are on disk");
            assert_eq!(table.stored_bytes(), 0, "a spill frees the exact lens");
        }
        // Same representative, stored ⊆ offered.
        let covered = Admit::Covered { merged: false };
        assert_eq!(admit(key, fp(1), s(&[1, 2]), fp(0), 7), covered);
        if por {
            // Same representative, stored {1,2} ⊄ offered {2,3}.
            let widen = Admit::Widen {
                sleep: sleep(&[2]),
                merged: false,
            };
            assert_eq!(admit(key, fp(1), sleep(&[2, 3]), fp(0), 7), widen);
            assert_eq!(admit(key, fp(1), sleep(&[2, 4]), fp(0), 7), covered);
        }
        if symmetry {
            if por {
                // Sibling while the stored set is {2} ≠ ∅: one
                // re-expansion with ∅, with the sibling's own edge.
                let widen = Admit::Widen {
                    sleep: SleepSet::empty(),
                    merged: true,
                };
                assert_eq!(admit(key, fp(2), sleep(&[4]), fp(1), 2), widen);
                assert_eq!(path_to(&table, fp(2)), [MachineId(1), MachineId(2)]);
            }
            // Sibling, stored ∅: covered, whatever it offers.
            let merged = Admit::Covered { merged: true };
            assert_eq!(admit(key, fp(2), s(&[6]), fp(0), 3), merged);
            assert_eq!(admit(key, fp(1), s(&[5]), fp(0), 3), covered);
            if !por {
                assert!(path_to(&table, fp(2)).is_empty(), "a merge has no edge");
            }
        }
        // Revisits neither re-count the state nor replace its edge.
        assert_eq!(table.unique(), 2);
        assert_eq!(table.stored_bytes(), if spilled { 0 } else { 16 });
        assert_eq!(path_to(&table, fp(1)), [MachineId(1)]);

        // Over the bound (3, across both tiers): dropped, not poisoned.
        assert_eq!(admit(fp(3), fp(3), s(&[]), fp(1), 3), Admit::New);
        assert_eq!(admit(fp(4), fp(4), s(&[]), fp(1), 4), Admit::OverBound);
        assert!(table.truncated());
        assert_eq!(admit(fp(4), fp(4), s(&[]), fp(3), 4), Admit::OverBound);
        assert_eq!(admit(fp(3), fp(3), s(&[]), fp(1), 3), covered);
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
        offer_root(&table, fp(0), 0);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for n in 1..500u32 {
                        if offer(&table, n, 1, 0) == Admit::New {
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
        offer_root(&table, fp(0), 0);
        offer(&table, 1, 0, 0);
        offer(&table, 2, 0, 1);
        assert_eq!(path_to(&table, fp(2)), [MachineId(1), MachineId(2)]);
    }

    #[test]
    fn frontier_drains_and_terminates() {
        let frontier: Frontier<u32> = Frontier::new(2, 0);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..2 {
                let (frontier, seen) = (&frontier, &seen);
                scope.spawn(move || {
                    while let Some(task) = frontier.next(w) {
                        seen.lock().push(task);
                        if task < 10 {
                            frontier.push(w, task * 2 + 1);
                            frontier.push(w, task * 2 + 2);
                        }
                        frontier.task_done();
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
        assert_eq!(frontier.next(0), None);
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
        let fp_a = Fingerprint::from_u128(a.digest());
        let fp_c = Fingerprint::from_u128(c.digest());
        let admit = |fp, bytes: &mut dyn FnMut() -> usize| {
            table
                .admit(fp, fp, SleepSet::empty(), bytes, Some(fp_a), || step(1))
                .unwrap()
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
        for n in 0..4u32 {
            assert_eq!(offer(&spilly, n, 10, 0), Admit::New);
            assert_eq!(spilly.stored_bytes(), 0, "spill freed the exact lens");
        }
        assert_eq!(spilly.spill_stats().0, 4);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn tiered_set_respects_bound_across_tiers() {
        let dir = temp_dir("tiered-bound");
        let table = SharedTable::with_spill(6, &dir, 2).unwrap();
        for n in 0..6u32 {
            assert_eq!(offer(&table, n, 1, 0), Admit::New);
        }
        assert_eq!(table.spill_stats().0, 6, "three spills of two states");
        // max_states counts both tiers, not just the (empty) hot one.
        assert_eq!(offer(&table, 99, 1, 0), Admit::OverBound);
        assert_eq!(table.unique(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Parent edges spill on their own cap, whatever the visited bytes
    /// do: with `bytes() == 0` the visited trigger never fires, and the
    /// RAM-resident edges must still stay under `parent_cap_for`.
    #[test]
    fn tiered_parents_reconstruct_across_spill() {
        let dir = temp_dir("tiered-parents");
        let budget = 64 << 10;
        let cap = parent_cap_for(budget);
        let table = SharedTable::with_spill(usize::MAX, &dir, budget).unwrap();
        offer_root(&table, fp(0), 0);
        let states = 10 * cap as u32;
        for n in 1..=states {
            assert_eq!(offer(&table, n, 0, n - 1), Admit::New);
            assert!(table.hot_edges() <= cap, "{} hot edges", table.hot_edges());
        }
        assert_eq!(table.spill_stats().0, 0, "no visited byte was stored");
        assert_eq!(table.hot_edges(), 0, "the last edge filled the tenth run");
        let expected: Vec<MachineId> = (1..=states).map(MachineId).collect();
        assert_eq!(path_to(&table, fp(states)), expected, "root to leaf");
        // First edge wins across tiers: fp(5)'s edge is on disk when it
        // turns up as a sibling that would be re-expanded.
        let sibling = |concrete, seed| {
            let sleep = sleep(&[1]);
            table
                .admit(
                    fp(states + 1),
                    concrete,
                    sleep,
                    || 0,
                    Some(fp(0)),
                    || step(seed),
                )
                .unwrap()
        };
        assert_eq!(sibling(fp(states + 1), 1), Admit::New);
        assert!(matches!(
            sibling(fp(5), 99),
            Admit::Widen { merged: true, .. }
        ));
        assert_eq!(path_to(&table, fp(5)).len(), 5, "spilled edge was kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_set_snapshot_restore_round_trips() {
        let dir = temp_dir("tiered-snapshot");
        let table = SharedTable::with_spill(usize::MAX, &dir, 24).unwrap();
        let admit = |table: &SharedTable, key, concrete, sleep| {
            table
                .admit(key, concrete, sleep, || 8, Some(fp(0)), || step(1))
                .unwrap()
        };
        admit(&table, fp(1), fp(1), sleep(&[1]));
        admit(&table, fp(100), fp(2), SleepSet::empty());
        for n in 10..16u32 {
            offer(&table, n, 8, 0);
        }
        assert!(table.spill_stats().0 >= 6, "both tiers hold entries");
        let (mut entries, parents) = table.snapshot().unwrap();
        assert_eq!(entries.len(), table.unique());
        entries.sort_by_key(|e| e.fp);

        // Restored to RAM everything is hot again; restored under a
        // memory limit everything lands on disk. Same behavior.
        let dir2 = temp_dir("tiered-snapshot-2");
        for (spill, stored) in [(None, 64), (Some((dir2.as_path(), 4)), 0)] {
            let restored =
                SharedTable::restore(usize::MAX, spill, &entries, parents.clone(), 64).unwrap();
            assert_eq!(restored.unique(), entries.len());
            assert_eq!(restored.stored_bytes(), stored);
            let covered = Admit::Covered { merged: false };
            assert_eq!(offer(&restored, 10, 8, 0), covered);
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
            let (mut again, _) = restored.snapshot().unwrap();
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
        offer_root(&table, fp(0), 1);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (table, wins) = (&table, &wins);
                scope.spawn(move || {
                    for n in 1..500u32 {
                        if offer(table, n, 1, 0) == Admit::New {
                            wins.fetch_add(1, Ordering::SeqCst);
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
        let (spilled, bytes, _hits) = table.spill_stats();
        assert!(spilled >= 400, "hot cap 64 must have spilled: {spilled}");
        assert!(bytes > 0);
        assert_eq!(path_to(&table, fp(499)), [MachineId(499)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_table_snapshot_restore_round_trips() {
        let dir = temp_dir("shared-snapshot");
        let table = SharedTable::with_spill(usize::MAX, &dir, 4).unwrap();
        offer_root(&table, fp(0), 1);
        for n in 1..12u32 {
            offer(&table, n, 1, n - 1);
        }
        let (mut visited, mut parents) = table.snapshot().unwrap();
        visited.sort_by_key(|e| e.fp);
        parents.sort_by_key(|&(child, _, _)| child);
        assert_eq!(visited.len(), 12);
        assert_eq!(parents.len(), 11);

        let restored =
            SharedTable::restore(usize::MAX, None, &visited, parents.clone(), 12).unwrap();
        assert_eq!(restored.unique(), 12);
        assert_eq!(restored.stored_bytes(), 12);
        assert_eq!(offer(&restored, 5, 1, 0), Admit::Covered { merged: false });
        assert_eq!(
            path_to(&restored, fp(11)).len(),
            11,
            "full chain survives a RAM restore"
        );

        let dir2 = temp_dir("shared-snapshot-2");
        let respilled =
            SharedTable::restore(usize::MAX, Some((&dir2, 4)), &visited, parents, 12).unwrap();
        assert_eq!(respilled.unique(), 12);
        assert_eq!(respilled.stored_bytes(), 0);
        assert_eq!(offer(&respilled, 5, 1, 0), Admit::Covered { merged: false });
        assert_eq!(
            path_to(&respilled, fp(11)).len(),
            11,
            "full chain survives a disk restore"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn frontier_rendezvous_parks_workers_and_resumes() {
        let frontier: Frontier<u32> = Frontier::from_tasks(3, vec![1, 2, 3, 4, 5]);
        let processed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Two follower workers; the test thread acts as the leader.
            for w in 0..2 {
                let (frontier, processed) = (&frontier, &processed);
                scope.spawn(move || {
                    while let Some(_task) = frontier.next(w) {
                        processed.fetch_add(1, Ordering::SeqCst);
                        frontier.task_done();
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
            frontier.resume_workers();
            frontier.retire(); // the leader takes no tasks
        });
        assert_eq!(processed.load(Ordering::SeqCst), 5);
        assert_eq!(frontier.snapshot_tasks().len(), 0);
    }
}
