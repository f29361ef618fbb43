//! The exploration engine's bookkeeping: the visited store, the task
//! ids and the work frontier.
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
//! * visited keys are canonical; tasks and their paths are concrete;
//! * a locked admit holds exactly one shard and looks cold keys up in
//!   that shard's [`Runs`], which takes no lock; a covered offer may
//!   hold none (an open shard's hot keys are read without its lock,
//!   [`SharedTable::admit`]); a spill holds *every* shard (taken in
//!   ascending order) and only then the run store, and hands every shard
//!   the new runs before it lets go;
//! * a shard is open to a probe without its lock only while its hot
//!   keys are on pages, hold no sleep set and no representative, and it
//!   is closed before its buckets move or take a key a probe must not
//!   find.
//!
//! The decision table of the admit rule, for an offer `(key, concrete,
//! sleep)`; `rep` is the concrete state first admitted under `key`:
//!
//! | the table holds | outcome | stored afterwards | task pushed |
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

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::CheckerError;
use crate::fingerprint::{Fingerprint, FpHashMap, VisitedSet};
use crate::por::SleepSet;
use crate::stats::{ExplorationStats, PhaseNanos, SUMS};
use crate::store::{self, Layout, Record, Records, RunStore, Runs, SpillCounters};

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
/// the structures that stay RAM-resident across spills (the blooms and
/// fences of the runs — two bytes and an eighth of one per spilled
/// state; the sleep sets of the few spilled keys widened after their
/// spill, in their shards' `overrides` maps) plus the frontier and its
/// paths. A hot key's sleep set is a code in its visited slot and goes
/// to disk with the key. The floor keeps tiny limits from degenerating
/// into a spill per handful of states.
///
/// The interned machine slots have a quarter of their own
/// ([`slot_budget_for`]); the per-worker slot and canonical memos and
/// the process baseline are outside both. Under `1m`, `switch_led.p`
/// holds 0.8 MiB of index and 0.5 MiB of slots.
pub(crate) fn hot_budget_for(mem_limit: usize) -> usize {
    (mem_limit / 4).max(64 << 10)
}

/// Byte budget of each worker's slot interner for a `--mem-limit` of
/// `mem_limit` bytes and `jobs` workers: a quarter of the limit split
/// across them. Past it an interner sweeps the slots no configuration
/// holds (DESIGN.md §15); a replayed child whose slot was swept is made
/// by the interpreter again (`rebuilt_runs`). Without a limit there is
/// no budget and no sweep.
pub(crate) fn slot_budget_for(mem_limit: Option<usize>, jobs: usize) -> usize {
    mem_limit.map_or(usize::MAX, |limit| limit / 4 / jobs.max(1))
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
    phase_nanos: [AtomicU64; 6],
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

/// A task's number: tasks are numbered in the order they are pushed,
/// per worker in blocks of [`ID_BLOCK`]. The liveness graph orders its
/// nodes by it.
pub(crate) type TaskId = u64;

/// Ids a worker takes from [`TaskIds`] at a time, so the shared counter
/// is touched once per thousand pushes.
const ID_BLOCK: TaskId = 1024;

/// The source of task ids.
#[derive(Debug, Default)]
pub(crate) struct TaskIds(AtomicU64);

/// A worker's unused ids: `next..end`.
#[derive(Debug, Default)]
pub(crate) struct IdBlock {
    next: TaskId,
    end: TaskId,
}

impl TaskIds {
    /// The id of the next task `block`'s worker pushes.
    pub(crate) fn next(&self, block: &mut IdBlock) -> TaskId {
        if block.next == block.end {
            block.next = self.0.fetch_add(ID_BLOCK, Ordering::Relaxed);
            block.end = block.next + ID_BLOCK;
        }
        block.next += 1;
        block.next - 1
    }
}

/// Shard count of [`SharedTable`]. 64 shards keep lock contention low
/// for any plausible worker count while costing only 64 mutexes.
const SHARDS: usize = 64;

/// A value on cache lines of its own, so that writing it does not take
/// the lines of its neighbours away from the cores reading them: two
/// lines, as x86 cores fetch lines in adjacent pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The visited store of the search kernel: the visited keys sharded by
/// fingerprint prefix, one mutex per shard, with global retained-state
/// accounting kept in atomics so the `max_states` bound holds across
/// shards. Under `--mem-limit` a disk-backed cold tier ([`SharedCold`])
/// sits behind them.
#[derive(Debug)]
pub(crate) struct SharedTable {
    shards: Vec<Mutex<Shard>>,
    /// Per shard, what it publishes for readers without the lock.
    published: Vec<Published>,
    /// Written by every new admit, so on lines apart from the fields
    /// every offer reads.
    retained: Padded<Retained>,
    /// Configurations [`SharedTable::mark`]ed, bounded by `max_marked`.
    marked: AtomicUsize,
    truncated: AtomicBool,
    max: usize,
    max_marked: usize,
    cold: Option<SharedCold>,
}

/// The cold tier of the visited keys: one [`RunStore`], drained from the
/// shards inside the stop-the-world [`SharedTable::maybe_spill`]. The
/// store is the write side only — a lookup goes through its shard's
/// [`Shard::runs`] and never takes this mutex.
#[derive(Debug)]
struct SharedCold {
    visited: Mutex<RunStore>,
    /// Drain visited keys once `stored` reaches this many bytes.
    hot_budget: usize,
    /// Serializes spillers (`try_lock`: losers skip — the winner is
    /// already draining the hot tier they noticed was full).
    spilling: Mutex<()>,
}

/// The states a [`SharedTable`] retains, which every new admit counts:
/// together, so that an admit takes one line from another core, not two.
#[derive(Debug, Default)]
struct Retained {
    /// Retained states (nodes, if annotated) across all shards and tiers.
    unique: AtomicUsize,
    /// Canonical-encoding bytes of the RAM-resident states.
    stored: AtomicUsize,
}

/// What a shard publishes for readers without its lock, written only
/// under it (DESIGN.md §13).
#[derive(Debug, Default)]
struct Published {
    /// The [`VisitedSet::hint`] of its visited keys, which
    /// [`SharedTable::prefetch`] and an open shard's probes read.
    hint: AtomicUsize,
    /// 0 while the shard is closed; open, a number it never published
    /// before, so that a probe that reads the same word before and after
    /// knows the buckets did not move in between.
    word: AtomicU64,
}

/// A locked shard. The one place the hint is published and a shard
/// opened: on release, if the visited keys moved (grown, drained by a
/// spill, or restored), or the shard may open.
struct Locked<'a> {
    shard: MutexGuard<'a, Shard>,
    published: &'a Published,
}

impl Locked<'_> {
    /// Closes the shard to probes without the lock, ahead of a write to
    /// its buckets that such a probe must not act on: a move of the
    /// buckets, or a key stored with a sleep set or a representative. A
    /// probe that reads a word written after the fence reads a changed
    /// word after its own (DESIGN.md §13).
    fn close(&mut self) {
        if self.shard.word != 0 {
            self.shard.word = 0;
            self.published.word.store(0, Ordering::Relaxed);
        }
        fence(Ordering::Release);
    }

    /// Adds the `key` not visited to the hot tier, its state `concrete`
    /// to be expanded with `sleep`; closes the shard first if the key is
    /// not one an open shard may hold, or the buckets grow.
    fn insert(&mut self, key: Fingerprint, concrete: Fingerprint, sleep: SleepSet) {
        if concrete != key || sleep != SleepSet::empty() || self.visited.full() {
            self.close();
        }
        self.visited.insert(key);
        if concrete != key {
            self.reps.insert(key, concrete);
        }
        self.set_sleep(key, Tier::Hot(0), sleep);
    }
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
        let shard = &mut *self.shard;
        let hint = shard.visited.hint();
        let open = shard.visited.paged_and_uncoded() && shard.reps.is_empty();
        debug_assert!(
            shard.word == 0 || open,
            "an open shard is off pages, coded or keyed"
        );
        if self.published.hint.load(Ordering::Relaxed) != hint {
            debug_assert_eq!(shard.word, 0, "buckets moved in an open shard");
            self.published.hint.store(hint, Ordering::Relaxed);
        }
        if open && shard.word == 0 {
            shard.generations += 1;
            shard.word = shard.generations;
            self.published.word.store(shard.word, Ordering::Release);
        }
    }
}

/// The code of a hot key whose sleep set is kept in [`Shard::escaped`]:
/// its shard's dictionary was full when the set was stored.
const ESCAPE: u8 = u8::MAX;

/// Where a visited key is, for [`Shard::sleep`] and [`Shard::set_sleep`]:
/// in the hot tier with the code of its visited slot, or spilled with
/// the sleep set its run record holds.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Hot(u8),
    Cold(SleepSet),
}

/// One of the [`SharedTable`]'s shards. Under `--mem-limit` a spill
/// drains its hot keys, their representatives and their sleep sets
/// into a run on disk; what stays is its share of the runs' list and
/// the overrides of spilled keys widened since.
#[derive(Debug, Default)]
struct Shard {
    /// The hot keys, each with the code of the sleep set its state was
    /// last explored with (DESIGN.md §10): 0 is ∅, `c` in 1..=254 is
    /// `dict[c - 1]`, [`ESCAPE`] is the key's entry in `escaped`.
    visited: VisitedSet,
    /// The distinct non-empty sleep sets the hot keys have been given
    /// codes for since the last spill.
    dict: Vec<SleepSet>,
    /// The sleep set of each hot key coded [`ESCAPE`]; empty after a
    /// spill, which hands the sets to the run with their keys.
    escaped: FpHashMap<SleepSet>,
    /// The sleep set of a spilled key whose set shrank after its spill:
    /// it overrides the set in the key's run record, ∅ included.
    overrides: FpHashMap<SleepSet>,
    /// Concrete representative per canonical key (absent = the key is
    /// its own representative, which is every key without symmetry).
    reps: FpHashMap<Fingerprint>,
    /// The cold runs as of the last spill — the same list in every
    /// shard, replaced in all of them by whoever spills, under all
    /// their locks. `None` without a cold tier.
    runs: Option<Runs>,
    /// The word published while the shard is open, 0 while closed.
    word: u64,
    /// Words published so far: the next one is this plus one.
    generations: u64,
}

impl Shard {
    /// The representative and sleep set stored for `key` in the cold
    /// tier (`None` = not visited there; a representative of `None` =
    /// the key is its own). The caller holds this shard's lock and needs
    /// no other: spills take all shard locks, so holding one makes the
    /// hot-miss + cold-miss check atomic.
    fn cold_visited(
        &self,
        key: Fingerprint,
    ) -> Result<Option<(Option<Fingerprint>, SleepSet)>, CheckerError> {
        let Some(runs) = &self.runs else {
            return Ok(None);
        };
        let found = runs.get(key.as_u128())?;
        Ok(found.map(|(rep, sleep)| {
            let rep = (rep != key.as_u128()).then(|| Fingerprint::from_u128(rep));
            (rep, SleepSet(sleep))
        }))
    }

    /// The sleep set stored for the visited `key`.
    fn sleep(&self, key: Fingerprint, tier: Tier) -> SleepSet {
        match tier {
            Tier::Hot(0) => SleepSet::empty(),
            Tier::Hot(ESCAPE) => self.escaped[&key],
            Tier::Hot(code) => self.dict[usize::from(code) - 1],
            Tier::Cold(spilled) => self.overrides.get(&key).copied().unwrap_or(spilled),
        }
    }

    /// Stores `sleep` as the sleep set of the visited `key`: a hot key
    /// as a code (a new set takes the next free one, and `escaped` once
    /// they are used up), a spilled key in `overrides`.
    fn set_sleep(&mut self, key: Fingerprint, tier: Tier, sleep: SleepSet) {
        let Tier::Hot(old) = tier else {
            self.overrides.insert(key, sleep);
            return;
        };
        let code = if sleep == SleepSet::empty() {
            0
        } else {
            match self.dict.iter().position(|&s| s == sleep) {
                Some(i) => i as u8 + 1,
                None if self.dict.len() < usize::from(ESCAPE) - 1 => {
                    self.dict.push(sleep);
                    self.dict.len() as u8
                }
                None => ESCAPE,
            }
        };
        if code == ESCAPE {
            self.escaped.insert(key, sleep);
        } else if old == ESCAPE {
            self.escaped.remove(&key);
        }
        if old != code {
            self.visited.set_code(key, code);
        }
    }

    /// The hot keys in key order, each with its representative and
    /// sleep set.
    fn hot_records(&self) -> Vec<Record> {
        let mut keys: Vec<Record> = (self.visited.iter())
            .map(|(fp, code)| {
                let (rep, sleep) = (self.reps.get(&fp), self.sleep(fp, Tier::Hot(code)));
                (fp.as_u128(), rep.unwrap_or(&fp).as_u128(), sleep.0)
            })
            .collect();
        keys.sort_unstable_by_key(|&(key, _, _)| key);
        keys
    }

    /// Bytes of the visited keys and their codes, the dictionary and the
    /// hash tables (from their capacities).
    fn bytes(&self) -> usize {
        self.visited.bytes()
            + self.dict.capacity() * std::mem::size_of::<SleepSet>()
            + table_bytes::<(Fingerprint, SleepSet)>(self.escaped.capacity())
            + table_bytes::<(Fingerprint, SleepSet)>(self.overrides.capacity())
            + table_bytes::<(Fingerprint, Fingerprint)>(self.reps.capacity())
    }
}

/// Bytes a std hash table with room for `capacity` entries of `T`
/// allocates: one bucket and one control byte per slot, seven slots in
/// eight usable. These tables are heap memory, which the allocator may
/// keep resident after they are freed; the visited buckets of a table
/// past a few lines are pages of their own, and [`VisitedSet::bytes`]
/// counts what the set uses of them.
pub(crate) fn table_bytes<T>(capacity: usize) -> usize {
    capacity * 8 / 7 * (std::mem::size_of::<T>() + 1)
}

impl SharedTable {
    /// An empty table admitting at most `max` states; with `spill =
    /// Some((dir, hot_budget))` it spills its visited keys to `dir`
    /// whenever the hot tier reaches `hot_budget` bytes.
    pub(crate) fn open(
        max: usize,
        spill: Option<(&Path, usize)>,
    ) -> Result<SharedTable, CheckerError> {
        let cold = match spill {
            None => None,
            Some((dir, hot_budget)) => Some(SharedCold {
                visited: Mutex::new(RunStore::create(dir)?),
                hot_budget: hot_budget.max(1),
                spilling: Mutex::new(()),
            }),
        };
        let runs = cold.as_ref().map(|cold| cold.visited.lock().runs());
        let shard = || Shard {
            runs: runs.clone(),
            ..Shard::default()
        };
        Ok(SharedTable {
            shards: (0..SHARDS).map(|_| Mutex::new(shard())).collect(),
            published: (0..SHARDS).map(|_| Published::default()).collect(),
            retained: Padded::default(),
            marked: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
            max: max.max(1),
            max_marked: 0,
            cold,
        })
    }

    fn lock(&self, shard: usize) -> Locked<'_> {
        Locked {
            shard: self.shards[shard].lock(),
            published: &self.published[shard],
        }
    }

    /// Starts loading the visited bucket an offer of `key` probes first.
    pub(crate) fn prefetch(&self, key: Fingerprint) {
        let hint = self.published[key.shard(SHARDS)]
            .hint
            .load(Ordering::Relaxed);
        VisitedSet::prefetch(hint, key);
    }

    /// Whether `key` is a hot key of its shard, read without the lock:
    /// `true` only while the shard is open, and then every hot key has
    /// ∅ and no representative, so the locked rule would answer
    /// `Covered { merged: false }` to an offer of `key` as itself, and a
    /// key is never unvisited again (a spill moves it to the cold tier).
    /// `false` is "not known". The word read before and after the probe
    /// is the same only if the buckets did not move in between
    /// (DESIGN.md §13).
    fn held_unlocked(&self, key: Fingerprint) -> bool {
        let published = &self.published[key.shard(SHARDS)];
        let word = published.word.load(Ordering::Acquire);
        if word == 0 {
            return false;
        }
        let hint = published.hint.load(Ordering::Relaxed);
        // SAFETY: `hint` is a hint of this shard's `VisitedSet`, which
        // lives as long as the table: no shard's set is replaced, a
        // spill clears it.
        let held = unsafe { VisitedSet::holds(hint, key) };
        fence(Ordering::Acquire);
        held && published.word.load(Ordering::Relaxed) == word
    }

    /// Rebuilds a table from a checkpoint's visited `run` as it streams
    /// in: into the hot tier, with `stored_bytes`, or with spilling onto
    /// disk as the first run (the hot tier and `stored_bytes` empty).
    pub(crate) fn restore(
        max: usize,
        spill: Option<(&Path, usize)>,
        stored_bytes: usize,
        run: Records<'_>,
    ) -> Result<SharedTable, CheckerError> {
        let table = SharedTable::open(max, spill)?;
        table
            .retained
            .unique
            .store(run.len as usize, Ordering::SeqCst);
        match &table.cold {
            None => {
                for _ in 0..run.len {
                    let (key, rep, sleep) = (run.next)()?;
                    let fp = Fingerprint::from_u128(key);
                    let mut shard = table.lock(fp.shard(SHARDS));
                    shard.insert(fp, Fingerprint::from_u128(rep), SleepSet(sleep));
                }
                table.retained.stored.store(stored_bytes, Ordering::SeqCst);
            }
            Some(cold) => {
                let mut store = cold.visited.lock();
                store.spill(run)?;
                for shard in 0..SHARDS {
                    table.lock(shard).runs = Some(store.runs());
                }
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
        *self.retained.0.unique.get_mut() -= marked;
        self
    }

    /// Activity of the cold tier, zeroed without one.
    pub(crate) fn spill_stats(&self) -> SpillCounters {
        let counters = |cold: &SharedCold| cold.visited.lock().counters();
        self.cold.as_ref().map(counters).unwrap_or_default()
    }

    /// Stop-the-world spill: when the hot tier is over its budget, take
    /// every shard lock (ascending — locked admits hold exactly one, so
    /// the same order prevents deadlock), close every shard, drain the
    /// tier, and write it out while still holding the shard locks, so no
    /// admit can observe a drained-but-not-yet-spilled fingerprint as
    /// unvisited.
    ///
    /// Every byte in `stored` was added by an admit of a key it drains,
    /// under that key's shard lock, so the spill frees all of them.
    fn maybe_spill(&self) -> Result<(), CheckerError> {
        let Some(cold) = &self.cold else {
            return Ok(());
        };
        let due = || self.retained.stored.load(Ordering::Relaxed) >= cold.hot_budget;
        if !due() {
            return Ok(());
        }
        let Some(spilling) = cold.spilling.try_lock() else {
            return Ok(());
        };
        if !due() {
            return Ok(());
        }
        let mut shards: Vec<_> = (0..SHARDS).map(|i| self.lock(i)).collect();
        let (len, layout) = hot_run(&shards);
        // A shard is a key range: its hot keys, sorted, follow the last
        // shard's. The drained buckets are freed shard by shard.
        let mut drained = shards.iter_mut().flat_map(|shard| {
            let keys = shard.hot_records();
            // No hot key is left to hold a code or a representative.
            shard.close();
            shard.visited.clear();
            shard.dict.clear();
            shard.escaped.clear();
            shard.reps.clear();
            keys
        });
        self.retained.stored.store(0, Ordering::SeqCst);
        let mut store = cold.visited.lock();
        let next = &mut || Ok(drained.next().expect("a record per count"));
        store.spill(Records { len, layout, next })?;
        for shard in &mut shards {
            shard.runs = Some(store.runs());
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
    /// The module docs hold the decision table; the caller pushes a task
    /// for [`Admit::New`] and [`Admit::Widen`].
    ///
    /// An offer of a state as itself (`key == concrete`) that an open
    /// shard holds among its hot keys is answered
    /// `Covered { merged: false }` without the lock. Every other
    /// decision happens under the key's shard lock, so concurrent offers
    /// of one key serialize: exactly one caller gets [`Admit::New`] and
    /// must expand the state. `bytes` runs only for that caller, so the
    /// `Covered` path — the overwhelming majority of offers — builds
    /// nothing.
    pub(crate) fn admit(
        &self,
        key: Fingerprint,
        concrete: Fingerprint,
        sleep: SleepSet,
        bytes: impl FnOnce() -> usize,
    ) -> Result<Admit, CheckerError> {
        Ok(self.offer(key, concrete, sleep, bytes)?.0)
    }

    /// [`SharedTable::admit`], and whether its answer came without the
    /// lock.
    pub(crate) fn offer(
        &self,
        key: Fingerprint,
        concrete: Fingerprint,
        sleep: SleepSet,
        bytes: impl FnOnce() -> usize,
    ) -> Result<(Admit, bool), CheckerError> {
        if key == concrete && self.held_unlocked(key) {
            return Ok((Admit::Covered { merged: false }, true));
        }
        let admitted = {
            let mut shard = self.lock(key.shard(SHARDS));
            let visited = match shard.visited.code(key) {
                Some(code) => Some((shard.reps.get(&key).copied(), Tier::Hot(code))),
                None => shard
                    .cold_visited(key)?
                    .map(|(rep, sleep)| (rep, Tier::Cold(sleep))),
            };
            match visited {
                Some((rep, tier)) => {
                    let merged = rep.unwrap_or(key) != concrete;
                    let stored = shard.sleep(key, tier);
                    // A sibling is covered only by ∅, the one sleep set
                    // every id permutation preserves, and widens to ∅.
                    let (covered, widened) = if merged {
                        (stored == SleepSet::empty(), SleepSet::empty())
                    } else {
                        (stored.is_subset_of(sleep), stored.intersect(sleep))
                    };
                    if covered {
                        return Ok((Admit::Covered { merged }, false));
                    }
                    shard.set_sleep(key, tier, widened);
                    let sleep = widened;
                    Admit::Widen { sleep, merged }
                }
                None => {
                    // Reserve a slot under the global bound; undo on
                    // overflow. The shard lock is held, so a concurrent
                    // duplicate of *this* key cannot slip in between
                    // the check and the insert.
                    if self.retained.unique.fetch_add(1, Ordering::SeqCst) >= self.max {
                        self.retained.unique.fetch_sub(1, Ordering::SeqCst);
                        self.truncated.store(true, Ordering::SeqCst);
                        return Ok((Admit::OverBound, false));
                    }
                    shard.insert(key, concrete, sleep);
                    self.retained.stored.fetch_add(bytes(), Ordering::Relaxed);
                    Admit::New
                }
            }
        };
        self.maybe_spill()?;
        Ok((admitted, false))
    }

    /// Marks `config` as reached by an annotated search: [`Admit::New`]
    /// the first time, [`Admit::Covered`] after that, [`Admit::OverBound`]
    /// — not marked, not counted, the search truncated — once the bound is
    /// full. A marker has no task or bytes; its nodes have.
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
        shard.insert(config, config, SleepSet::empty());
        Ok(Admit::New)
    }

    /// Configurations marked, across all shards and both tiers.
    pub(crate) fn marked(&self) -> usize {
        self.marked.load(Ordering::SeqCst)
    }

    /// Retained states (nodes, if annotated) across all shards and tiers.
    pub(crate) fn unique(&self) -> usize {
        self.retained.unique.load(Ordering::SeqCst)
    }

    /// Canonical-encoding bytes of the RAM-resident states.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.retained.stored.load(Ordering::SeqCst)
    }

    /// Bytes of RAM the bookkeeping around those states holds: the
    /// visited buckets with their codes, the dictionaries and the hash
    /// tables of every shard (from their capacities) and the blooms and
    /// fences of the cold runs.
    pub(crate) fn index_bytes(&self) -> usize {
        let shards: usize = self.shards.iter().map(|shard| shard.lock().bytes()).sum();
        let runs = |cold: &SharedCold| cold.visited.lock().resident_bytes();
        shards + self.cold.as_ref().map_or(0, runs)
    }

    /// Whether the state bound dropped any state.
    pub(crate) fn truncated(&self) -> bool {
        self.truncated.load(Ordering::SeqCst)
    }

    /// Hands `write` every visited key as one sorted run: the cold runs,
    /// their overrides applied, merged with the hot keys a shard (a key
    /// range) at a time. Call only while the workers are quiescent.
    pub(crate) fn visited_run<T>(
        &self,
        write: impl FnOnce(Records<'_>) -> Result<T, CheckerError>,
    ) -> Result<T, CheckerError> {
        // Every shard is held, in the order a spill takes them, so no
        // spill replaces the runs while they are read.
        let shards: Vec<_> = (0..SHARDS).map(|i| self.lock(i)).collect();
        let shards = &shards;
        let runs = shards[0].runs.clone().unwrap_or_default();
        let (cold, cold_len, mut sources) = runs.sources()?;
        let (hot_len, hot) = hot_run(shards);
        let overridden = |shard: &Locked<'_>| shard.overrides.values().any(|s| s.0 != 0);
        let layout = Layout {
            reps: hot.reps || cold.reps,
            sleeps: hot.sleeps || cold.sleeps || shards.iter().any(overridden),
        };
        let len = hot_len + cold_len;
        let mut hot_keys = shards.iter().flat_map(|shard| shard.hot_records());
        sources.push(Box::new(move || Ok(hot_keys.next())));
        let mut merged = store::merge(sources)?;
        let next = &mut || {
            let (key, rep, sleep) = merged()?.expect("a record per count");
            // Only a spilled key has an override.
            let fp = Fingerprint::from_u128(key);
            let overrides = &shards[fp.shard(SHARDS)].overrides;
            Ok((key, rep, overrides.get(&fp).map_or(sleep, |s| s.0)))
        };
        write(Records { len, layout, next })
    }
}

/// How many hot keys the shards hold, and which columns their records
/// need.
fn hot_run(shards: &[Locked<'_>]) -> (u64, Layout) {
    let len = shards.iter().map(|shard| shard.visited.len() as u64).sum();
    let reps = shards.iter().any(|shard| !shard.reps.is_empty());
    let sleeps = (shards.iter()).any(|shard| shard.visited.iter().any(|(_, code)| code != 0));
    (len, Layout { reps, sleeps })
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
    /// when this reaches zero: nothing queued, nothing in flight. Every
    /// task writes it, so it has lines of its own.
    pending: Padded<AtomicUsize>,
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
            pending: Padded(AtomicUsize::new(pending)),
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
    use crate::fault::FaultDecision;
    use crate::tests::{BoundedSet, ParentMap};
    use crate::trace::{StepSeed, TaskPath};
    use p_semantics::MachineId;

    fn fp(n: u32) -> Fingerprint {
        Fingerprint::of(&n.to_le_bytes())
    }

    /// A distinguishable step: a drop from machine `n`'s queue. Rendered
    /// steps are told apart by their machine id.
    fn then(path: &TaskPath, n: u32) -> TaskPath {
        path.then_fault(&FaultDecision {
            kind: crate::fault::FaultKind::Drop,
            machine: MachineId(n),
            index: 0,
            event: p_semantics::EventId(0),
        })
    }

    /// A distinguishable reference step: a quiescent run of machine `n`.
    fn step(n: u32) -> StepSeed {
        StepSeed::test_blocked(MachineId(n))
    }

    /// Any program works for rendering the steps of [`then`]: it names
    /// its events.
    fn program() -> p_semantics::LoweredProgram {
        crate::tests::lowered("event e0; event e1; machine M { state S { } } main M();")
    }

    /// The machines along `path`, from the root.
    fn machines(path: &TaskPath) -> Vec<MachineId> {
        path.render(&program()).iter().map(|s| s.machine).collect()
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

    impl SharedTable {
        /// An empty RAM-only table admitting at most `max` states.
        pub(crate) fn new(max: usize) -> SharedTable {
            SharedTable::open(max, None).unwrap()
        }

        /// An empty table spilling to `dir` at `hot_budget` bytes.
        pub(crate) fn with_spill(
            max: usize,
            dir: &Path,
            hot_budget: usize,
        ) -> Result<SharedTable, CheckerError> {
            SharedTable::open(max, Some((dir, hot_budget)))
        }
    }

    /// Every visited record of `table`, as a checkpoint streams them:
    /// in key order, and in a layout with every column a record needs.
    fn run_of(table: &SharedTable) -> Vec<Record> {
        let all = table.visited_run(|run| {
            let all: Vec<Record> = (0..run.len)
                .map(|_| (run.next)())
                .collect::<Result<_, _>>()?;
            assert!(run.layout.reps || all.iter().all(|&(key, rep, _)| rep == key));
            assert!(run.layout.sleeps || all.iter().all(|&(_, _, sleep)| sleep == 0));
            Ok(all)
        });
        let all = all.unwrap();
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "in key order");
        all
    }

    /// A table restored from `run`, as a resume streams it.
    fn restore(
        max: usize,
        spill: Option<(&Path, usize)>,
        run: &[Record],
        stored: usize,
    ) -> SharedTable {
        let layout = Layout {
            reps: run.iter().any(|&(key, rep, _)| rep != key),
            sleeps: run.iter().any(|&(_, _, sleep)| sleep != 0),
        };
        let mut left = run.iter().copied();
        let next = &mut || Ok(left.next().expect("a record per count"));
        let len = run.len() as u64;
        SharedTable::restore(max, spill, stored, Records { len, layout, next }).unwrap()
    }

    /// A plain offer (no symmetry, no sleep set) of `fp(n)`.
    fn offer(table: &SharedTable, n: u32, bytes: usize) -> Admit {
        let no_sleep = SleepSet::empty();
        table.admit(fp(n), fp(n), no_sleep, || bytes).unwrap()
    }

    /// Admits the initial state `fp(0)` under `key`.
    fn offer_root(table: &SharedTable, key: Fingerprint, bytes: usize) {
        let admitted = table.admit(key, fp(0), SleepSet::empty(), || bytes);
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
        offer_root(&table, if symmetry { fp(99) } else { fp(0) }, 8);
        let admit = |key, concrete, sleep| table.admit(key, concrete, sleep, || 8).unwrap();

        // Fresh.
        assert_eq!(admit(key, fp(1), s(&[1, 2])), Admit::New);
        if spilled {
            assert_eq!(table.spill_stats().records, 2, "root and A are on disk");
            assert_eq!(table.stored_bytes(), 0, "a spill frees every stored byte");
        }
        // Same representative, stored ⊆ offered.
        let covered = Admit::Covered { merged: false };
        assert_eq!(admit(key, fp(1), s(&[1, 2])), covered);
        if por {
            // Same representative, stored {1,2} ⊄ offered {2,3}: the
            // state is re-pushed with the intersection.
            let widen = Admit::Widen {
                sleep: sleep(&[2]),
                merged: false,
            };
            assert_eq!(admit(key, fp(1), sleep(&[2, 3])), widen);
            assert_eq!(admit(key, fp(1), sleep(&[2, 4])), covered);
        }
        if symmetry {
            if por {
                // Sibling while the stored set is {2} ≠ ∅: one
                // re-expansion with ∅.
                let widen = Admit::Widen {
                    sleep: SleepSet::empty(),
                    merged: true,
                };
                assert_eq!(admit(key, fp(2), sleep(&[4])), widen);
            }
            // Sibling, stored ∅: covered, whatever it offers — a merge
            // pushes no task.
            assert_eq!(admit(key, fp(2), s(&[6])), Admit::Covered { merged: true });
            assert_eq!(admit(key, fp(1), s(&[5])), covered);
        }
        // Revisits do not re-count the state.
        assert_eq!(table.unique(), 2);
        assert_eq!(table.stored_bytes(), if spilled { 0 } else { 16 });

        // Over the bound (3, across both tiers): dropped, not poisoned.
        assert_eq!(admit(fp(3), fp(3), s(&[])), Admit::New);
        assert_eq!(admit(fp(4), fp(4), s(&[])), Admit::OverBound);
        assert!(table.truncated());
        assert_eq!(admit(fp(4), fp(4), s(&[])), Admit::OverBound);
        assert_eq!(admit(fp(3), fp(3), s(&[])), covered);
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

    /// [`SharedTable::admit`] against a `BTreeMap` model of the module
    /// docs' decision table, on seeded offer streams (a failure names
    /// its seed). Three in four keys fall in shard 0, whose hot keys are
    /// given more than 300 distinct sleep sets, so its dictionary fills
    /// and the `ESCAPE` code is used; the visited set grows under them;
    /// a quarter of the cases spill, often or once the codes are used
    /// up, and widen spilled keys (to ∅ too) before and after the runs
    /// are merged; a quarter bound the states; and every case streams its
    /// visited run out and restores from it at random points, the run
    /// checked against the model. `stored_bytes` is the model's hot
    /// bytes throughout; after every spill `escaped` is empty and
    /// `overrides` holds exactly the spilled keys widened since their
    /// spill.
    #[test]
    fn admit_matches_a_model_of_the_decision_table() {
        let cases = if cfg!(debug_assertions) { 256 } else { 2_000 };
        let mut seen = ModelCase::default();
        for seed in 0..cases {
            let case = admit_model_case(seed);
            seen.escaped += case.escaped;
            seen.cold_widens_to_empty += case.cold_widens_to_empty;
            seen.merges_over_overrides += case.merges_over_overrides;
        }
        assert!(
            seen.escaped >= cases as usize / 4,
            "only {} of {cases} cases used the escape code",
            seen.escaped
        );
        assert!(
            seen.cold_widens_to_empty >= cases as usize
                && seen.merges_over_overrides >= cases as usize / 16,
            "too few spilled keys widened: {seen:?}"
        );
    }

    /// What one seed of [`admit_matches_a_model_of_the_decision_table`]
    /// exercised.
    #[derive(Debug, Default)]
    struct ModelCase {
        /// Whether shard 0 ended with a hot key coded `ESCAPE` (a count,
        /// summed over cases).
        escaped: usize,
        /// Widens of a spilled key to ∅.
        cold_widens_to_empty: usize,
        /// Merges of the runs while a spilled key's set was overridden.
        merges_over_overrides: usize,
    }

    fn admit_model_case(seed: u64) -> ModelCase {
        use std::collections::{BTreeMap, BTreeSet};
        let d = &mut p_ast::Draws::new(seed);
        let (symmetry, spill) = (d.one_in(2), d.one_in(4));
        let max = if d.one_in(4) {
            200 + d.below(400)
        } else {
            usize::MAX
        };
        // A spill every few dozen states, or one after the dictionary of
        // shard 0 has filled.
        let budget = 8 * if d.one_in(2) {
            16 + d.below(64)
        } else {
            500 + d.below(300)
        };
        let dir = temp_dir(&format!("admit-model-{seed}"));
        let mut restores = 0;
        let open = |restores: usize, entries: &[Record], stored: usize| {
            let spill_dir = dir.join(restores.to_string());
            let spill = spill.then_some((spill_dir.as_path(), budget));
            restore(max, spill, entries, stored)
        };
        let mut table = open(restores, &[], 0);
        // Key 0 (held apart by the visited set), keys of shard 0, and a
        // quarter of keys anywhere.
        let keys: Vec<u128> = (0..1_000)
            .map(|i| {
                let key = u128::from(d.next()) << 64 | u128::from(d.next());
                match i {
                    0 => 0,
                    _ if d.one_in(4) => key,
                    _ => key >> 6,
                }
            })
            .collect();
        // Per key: the representative and the sleep set stored.
        let mut model: BTreeMap<u128, (u128, u64)> = BTreeMap::new();
        // The keys admitted since the last spill, and the spilled keys
        // widened since theirs.
        let mut hot: BTreeSet<u128> = BTreeSet::new();
        let mut overridden: BTreeSet<u128> = BTreeSet::new();
        let mut case = ModelCase::default();
        let check = |table: &SharedTable, model: &BTreeMap<u128, (u128, u64)>| {
            let entries = run_of(table);
            let listed: BTreeMap<u128, (u128, u64)> = entries
                .iter()
                .map(|&(key, rep, sleep)| (key, (rep, sleep)))
                .collect();
            assert!(
                listed == *model,
                "seed {seed}: the visited run differs from the model"
            );
            entries
        };
        for step in 0..4_000 {
            let key = keys[d.below(keys.len())];
            // With symmetry, one offer in four is of one of two siblings.
            let concrete = match symmetry && d.one_in(4) {
                true => key ^ (1 + d.below(2) as u128) << 100,
                false => key,
            };
            let stored = model.get(&key).map_or(0, |e| e.1);
            let offered = match d.below(16) {
                0 => 0,
                1 => d.next() & 0xff,
                2..=7 => stored | d.next() & d.next(),
                _ => d.next(),
            };
            let full = model.len() >= max;
            let want = match model.get_mut(&key) {
                None if full => Admit::OverBound,
                None => {
                    model.insert(key, (concrete, offered));
                    hot.insert(key);
                    Admit::New
                }
                Some((rep, stored)) => {
                    let merged = *rep != concrete;
                    let (covered, widened) = match merged {
                        true => (*stored == 0, 0),
                        false => (*stored & !offered == 0, *stored & offered),
                    };
                    if covered {
                        Admit::Covered { merged }
                    } else {
                        *stored = widened;
                        if spill && !hot.contains(&key) {
                            overridden.insert(key);
                            case.cold_widens_to_empty += usize::from(widened == 0);
                        }
                        let sleep = SleepSet(widened);
                        Admit::Widen { sleep, merged }
                    }
                }
            };
            let (key, concrete) = (
                Fingerprint::from_u128(key),
                Fingerprint::from_u128(concrete),
            );
            let before = table.spill_stats();
            let got = table.admit(key, concrete, SleepSet(offered), || 8).unwrap();
            assert_eq!(got, want, "seed {seed}, step {step}: offer of {key}");
            assert_eq!(table.unique(), model.len(), "seed {seed}, step {step}");
            let after = table.spill_stats();
            if after.records != before.records {
                hot.clear();
                let mut overrides = BTreeSet::new();
                for shard in &table.shards {
                    let shard = shard.lock();
                    assert!(shard.escaped.is_empty(), "seed {seed}, step {step}");
                    overrides.extend(shard.overrides.keys().map(|k| k.as_u128()));
                }
                assert!(
                    overrides == overridden,
                    "seed {seed}, step {step}: `overrides` after a spill"
                );
                if after.runs_created == before.runs_created + 2 && !overridden.is_empty() {
                    case.merges_over_overrides += 1;
                }
            }
            let spilled = model.len() - hot.len();
            assert_eq!(after.records, spilled as u64, "seed {seed}, step {step}");
            let hot_bytes = if spill {
                8 * hot.len()
            } else {
                8 * model.len()
            };
            assert_eq!(table.stored_bytes(), hot_bytes, "seed {seed}, step {step}");
            if d.one_in(1_000) {
                let entries = check(&table, &model);
                restores += 1;
                table = open(restores, &entries, table.stored_bytes());
                if spill {
                    // Every key is on disk with the set it has now.
                    (hot, overridden) = Default::default();
                }
            }
        }
        check(&table, &model);
        let shard = table.shards[0].lock();
        case.escaped = usize::from(shard.visited.iter().any(|(_, code)| code == ESCAPE));
        drop(shard);
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
        case
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
            assert_eq!(table.mark(fp(100)).unwrap(), Admit::New);
            offer_root(&table, fp(0), 8);
            assert_eq!(table.mark(fp(100)).unwrap(), covered);
            assert_eq!(table.mark(fp(101)).unwrap(), Admit::New);
            // Over the bound: not marked, not counted, not poisoned.
            assert!(!table.truncated());
            assert_eq!(table.mark(fp(102)).unwrap(), Admit::OverBound);
            assert!(table.truncated());
            assert_eq!(table.mark(fp(102)).unwrap(), Admit::OverBound);
            assert_eq!(table.mark(fp(101)).unwrap(), covered);
            for n in 1..=5 {
                assert_eq!(offer(&table, n, 8), Admit::New);
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

            let visited = run_of(&table);
            assert_eq!(visited.len(), 8);
            let restored = restore(2, None, &visited, 48).annotated(table.marked());
            assert_eq!((restored.marked(), restored.unique()), (2, 6));
            assert_eq!(restored.mark(fp(100)).unwrap(), covered);
            assert_eq!(restored.mark(fp(102)).unwrap(), Admit::OverBound);
            assert_eq!(offer(&restored, 3, 8), covered);
            assert_eq!(offer(&restored, 6, 8), Admit::New);
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
        offer_root(&table, fp(0), 0);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for n in 1..500u32 {
                        if offer(&table, n, 1) == Admit::New {
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

    /// A pushed task's path is its parent's plus the step that reached
    /// it, whatever else the table holds: root to leaf.
    #[test]
    fn shared_table_reconstructs_traces() {
        let table = SharedTable::new(usize::MAX);
        offer_root(&table, fp(0), 0);
        let root = TaskPath::default();
        assert_eq!(offer(&table, 1, 0), Admit::New);
        let one = then(&root, 1);
        assert_eq!(offer(&table, 2, 0), Admit::New);
        let two = then(&one, 2);
        assert_eq!(machines(&two), [MachineId(1), MachineId(2)]);
        assert_eq!(machines(&one), [MachineId(1)]);
        assert!(machines(&root).is_empty());
    }

    /// Eight workers, each taking its ids a block at a time: every id is
    /// handed out exactly once, and each worker's ids increase.
    #[test]
    fn task_ids_are_handed_out_exactly_once_across_threads() {
        const WORKERS: usize = 8;
        const EACH: usize = 100_000;
        let ids = TaskIds::default();
        let taken: Vec<Vec<TaskId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let ids = &ids;
                    scope.spawn(move || {
                        let mut block = IdBlock::default();
                        (0..EACH).map(|_| ids.next(&mut block)).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<TaskId> = taken.iter().flatten().copied().collect();
        for mine in &taken {
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "a worker's ids increase"
            );
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), WORKERS * EACH, "an id handed out twice");
        let blocks = WORKERS as TaskId * (EACH as TaskId).div_ceil(ID_BLOCK);
        assert!(
            *all.last().unwrap() < blocks * ID_BLOCK,
            "no block is skipped"
        );
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
        use p_semantics::{Config, SlotInterner, Value};

        let p = crate::tests::lowered("event go; machine M { var n : int; state A { } } main M();");

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
            table.admit(fp, fp, SleepSet::empty(), bytes).unwrap()
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
        // spill frees every byte the drained states were charged — what
        // it left would keep `stored_bytes` away from zero and make
        // `--mem-limit` spill early.
        let dir2 = temp_dir("tiered-marginal-spill");
        let spilly = SharedTable::with_spill(usize::MAX, &dir2, 1).unwrap();
        for n in 0..4u32 {
            assert_eq!(offer(&spilly, n, 10), Admit::New);
            assert_eq!(spilly.stored_bytes(), 0, "spill freed every stored byte");
        }
        assert_eq!(spilly.spill_stats().records, 4);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn tiered_set_respects_bound_across_tiers() {
        let dir = temp_dir("tiered-bound");
        let table = SharedTable::with_spill(6, &dir, 2).unwrap();
        for n in 0..6u32 {
            assert_eq!(offer(&table, n, 1), Admit::New);
        }
        assert_eq!(table.spill_stats().records, 6, "three spills of two states");
        // max_states counts both tiers, not just the (empty) hot one.
        assert_eq!(offer(&table, 99, 1), Admit::OverBound);
        assert_eq!(table.unique(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Paths never touch the cold tier: with every admit spilling, a
    /// chain of pushed tasks still renders root to leaf without a read,
    /// and the spill directory holds visited runs only — no edge file,
    /// no parent run.
    #[test]
    fn tiered_parents_reconstruct_across_spill() {
        let dir = temp_dir("tiered-parents");
        let table = SharedTable::with_spill(usize::MAX, &dir, 1).unwrap();
        offer_root(&table, fp(0), 1);
        let mut leaf = TaskPath::default();
        for n in 1..=2_000u32 {
            assert_eq!(offer(&table, n, 1), Admit::New);
            leaf = then(&leaf, n);
        }
        assert_eq!(table.spill_stats().records, 2_001, "every state is on disk");
        let reads = table.spill_stats().reads;
        let expected: Vec<MachineId> = (1..=2_000).map(MachineId).collect();
        assert_eq!(machines(&leaf), expected, "root to leaf");
        assert_eq!(table.spill_stats().reads, reads, "a path reads no disk");
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                name.starts_with("visited-"),
                "{name} in the spill directory"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_set_snapshot_restore_round_trips() {
        let dir = temp_dir("tiered-snapshot");
        let table = SharedTable::with_spill(usize::MAX, &dir, 24).unwrap();
        let admit = |table: &SharedTable, key, concrete, sleep| {
            table.admit(key, concrete, sleep, || 8).unwrap()
        };
        admit(&table, fp(1), fp(1), sleep(&[1]));
        admit(&table, fp(100), fp(2), SleepSet::empty());
        for n in 10..16u32 {
            offer(&table, n, 8);
        }
        assert!(table.spill_stats().records >= 6, "both tiers hold entries");
        let entries = run_of(&table);
        assert_eq!(entries.len(), table.unique());

        // Restored to RAM everything is hot again; restored under a
        // memory limit everything lands on disk. Same behavior.
        let dir2 = temp_dir("tiered-snapshot-2");
        for (spill, stored) in [(None, 64), (Some((dir2.as_path(), 4)), 0)] {
            let restored = restore(usize::MAX, spill, &entries, 64);
            assert_eq!(restored.unique(), entries.len());
            assert_eq!(restored.stored_bytes(), stored);
            let covered = Admit::Covered { merged: false };
            assert_eq!(offer(&restored, 10, 8), covered);
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
            let again = run_of(&restored);
            assert_eq!(again, entries, "write → restore → write is lossless");
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
                        if offer(table, n, 1) == Admit::New {
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
        let counters = table.spill_stats();
        let spilled = counters.records;
        assert!(spilled >= 400, "hot cap 64 must have spilled: {spilled}");
        assert!(counters.bytes_written > 0);
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
        offer_root(&table, fp(0), 1);
        for n in 1..2_000u32 {
            assert_eq!(offer(&table, n, 1), Admit::New);
        }
        assert!(table.spill_stats().records >= 1_900);
        let covered = Admit::Covered { merged: false };
        let (start, spiller_done) = (std::sync::Barrier::new(9), AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let (table, start, spiller_done) = (&table, &start, &spiller_done);
                scope.spawn(move || {
                    start.wait();
                    let mut done = false;
                    // One more full pass after the spiller has finished.
                    while !std::mem::replace(&mut done, spiller_done.load(Ordering::SeqCst)) {
                        for n in (0..2_000).map(|n| (n + 250 * t) % 2_000) {
                            assert_eq!(offer(table, n, 1), covered, "{n}");
                        }
                    }
                });
            }
            start.wait();
            for n in 2_000..6_000u32 {
                assert_eq!(offer(&table, n, 1), Admit::New);
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
            assert_eq!(offer(&table, n, 1), covered, "{n}");
        }
        assert_eq!(table.unique(), 6_000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_table_snapshot_restore_round_trips() {
        let dir = temp_dir("shared-snapshot");
        let table = SharedTable::with_spill(usize::MAX, &dir, 4).unwrap();
        offer_root(&table, fp(0), 1);
        for n in 1..12u32 {
            assert_eq!(offer(&table, n, 1), Admit::New);
        }
        let visited = run_of(&table);
        assert_eq!(visited.len(), 12);

        let restored = restore(usize::MAX, None, &visited, 12);
        assert_eq!(restored.unique(), 12);
        assert_eq!(restored.stored_bytes(), 12);
        let covered = Admit::Covered { merged: false };
        assert_eq!(offer(&restored, 5, 1), covered);
        assert_eq!(offer(&restored, 50, 1), Admit::New);

        let dir2 = temp_dir("shared-snapshot-2");
        let respilled = restore(usize::MAX, Some((&dir2, 4)), &visited, 12);
        assert_eq!(respilled.unique(), 12);
        assert_eq!(respilled.stored_bytes(), 0);
        assert_eq!(offer(&respilled, 5, 1), covered);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    /// Whether every shard's published hint is its visited keys' own.
    fn hints_published(table: &SharedTable) -> bool {
        let published = |i: usize| table.published[i].hint.load(Ordering::Relaxed);
        let own = |i: usize| table.shards[i].lock().visited.hint();
        (0..SHARDS).all(|i| published(i) == own(i))
    }

    /// The hint follows the visited keys wherever they move: growth
    /// under admits and marks, the drain of a spill, and a restore.
    #[test]
    fn visited_hints_are_republished_on_growth_spill_and_restore() {
        let table = SharedTable::new(usize::MAX);
        offer_root(&table, fp(0), 1);
        for n in 1..5_000u32 {
            offer(&table, n, 1);
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
            offer(&spilling, n, 1);
        }
        assert!(spilling.spill_stats().records > 0);
        assert!(hints_published(&spilling), "after spills");

        let visited = run_of(&table);
        let restored = restore(usize::MAX, None, &visited, 0);
        assert!(hints_published(&restored), "after a restore");
        assert!(restored
            .published
            .iter()
            .all(|p| p.hint.load(Ordering::Relaxed) != 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A prefetch through a hint taken before the buckets moved — grown
    /// over and over, and freed by the drains of spills — fetches a
    /// useless line and nothing else: every lookup is still right. A
    /// probe without the lock through a stale hint of buckets on pages —
    /// replaced by a grow, given back by a spill's drain, taken up again
    /// by a later table — reads mapped memory and answers "held" only
    /// for keys the table admitted.
    #[test]
    fn visited_prefetch_through_a_stale_hint_is_harmless() {
        let dir = temp_dir("hints-stale");
        let table = SharedTable::with_spill(usize::MAX, &dir, 1 << 10).unwrap();
        offer_root(&table, fp(0), 1);
        for n in 1..100u32 {
            offer(&table, n, 1);
        }
        let stale: Vec<usize> = table
            .published
            .iter()
            .map(|p| p.hint.load(Ordering::Relaxed))
            .collect();
        let prefetch_stale = |keys: std::ops::Range<u32>| {
            for n in keys {
                VisitedSet::prefetch(stale[fp(n).shard(SHARDS)], fp(n));
            }
        };
        for n in 100..4_000u32 {
            prefetch_stale(n..n + 8);
            table.prefetch(fp(n));
            assert_eq!(offer(&table, n, 1), Admit::New);
        }
        assert!(table.spill_stats().records > 0, "the buckets were drained");
        prefetch_stale(0..8_000);
        let covered = Admit::Covered { merged: false };
        for n in 0..4_000u32 {
            assert_eq!(offer(&table, n, 1), covered, "{n}");
        }

        // A spill every 8 192 admits: each shard grows to 64 buckets on
        // pages in between.
        let paged_dir = temp_dir("hints-stale-paged");
        let paged = SharedTable::with_spill(usize::MAX, &paged_dir, 1 << 13).unwrap();
        let hints = |table: &SharedTable| -> Vec<usize> {
            let hint = |p: &Published| p.hint.load(Ordering::Relaxed);
            table.published.iter().map(hint).collect()
        };
        let mut stale = Vec::new();
        for n in 0..40_000u32 {
            offer(&paged, n, 1);
            if n % 1_000 == 999 {
                stale.push(hints(&paged));
            }
        }
        assert!(
            paged.spill_stats().runs_created >= 4,
            "the buckets were drained"
        );
        let on_pages = |hint: &usize| hint & 63 > INLINE_LOG2;
        assert!(stale.iter().flatten().filter(|h| on_pages(h)).count() > 1_000);
        // A key's twin differs in one bit of its low word above any
        // bucket mask: same shard, same home bucket, same high word.
        let twin = |n: u32| Fingerprint::from_u128(fp(n).as_u128() ^ 1 << 40);
        let mut held = 0;
        for hints in &stale {
            for n in 0..50_000u32 {
                let hint = hints[fp(n).shard(SHARDS)];
                // SAFETY: `paged` is alive, and a hint is one of its sets'.
                if unsafe { VisitedSet::holds(hint, fp(n)) } {
                    assert!(n < 40_000, "{n} was never admitted");
                    held += 1;
                }
                // SAFETY: as above.
                assert!(!unsafe { VisitedSet::holds(hint, twin(n)) }, "twin of {n}");
            }
        }
        assert!(held > 0, "no probe found a key");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&paged_dir);
    }

    /// A shard is open to probes without its lock only while its hot
    /// keys are on pages with ∅ and no representative: a key stored with
    /// a sleep set or a representative closes it first, so the locked
    /// rule answers every later offer of that key, and a spill's drain
    /// lets it open again. An open shard answers only an offer of a key
    /// as itself without the lock; a sibling's offer is the locked
    /// rule's.
    #[test]
    fn a_shard_is_open_only_while_its_hot_keys_need_no_lock() {
        let dir = temp_dir("open-shards");
        let table = SharedTable::with_spill(usize::MAX, &dir, 20_000).unwrap();
        let open = |table: &SharedTable| {
            let open = |p: &Published| p.word.load(Ordering::Relaxed) != 0;
            table.published.iter().filter(|p| open(p)).count()
        };
        for n in 0..10_000u32 {
            offer(&table, n, 1);
        }
        assert_eq!(open(&table), SHARDS, "every shard on pages opens");
        let none = SleepSet::empty();
        let offered =
            |n: u32, concrete: u32, sleep| table.offer(fp(n), fp(concrete), sleep, || 1).unwrap();
        let covered = Admit::Covered { merged: false };
        assert_eq!(offered(5, 5, sleep(&[2])), (covered, true));
        let sibling = Admit::Covered { merged: true };
        assert_eq!(offered(5, 6, none), (sibling, false));
        let in_shard = |shard: usize| (10_000..).find(|&n| fp(n).shard(SHARDS) == shard).unwrap();
        let (coded, keyed) = (in_shard(0), in_shard(1));
        assert_eq!(offered(coded, coded, sleep(&[1])), (Admit::New, false));
        assert_eq!(offered(keyed, 7, none), (Admit::New, false));
        assert_eq!(open(&table), SHARDS - 2, "the two shards closed");
        let widen = Admit::Widen {
            sleep: none,
            merged: false,
        };
        assert_eq!(offered(coded, coded, none), (widen, false));
        assert_eq!(offered(keyed, keyed, none), (sibling, false));
        // One spill, at 20 000 bytes, then 10 000 hot keys again.
        for n in 20_000..40_000u32 {
            offer(&table, n, 1);
        }
        assert!(
            table.spill_stats().records > 0,
            "a spill drained the shards"
        );
        assert_eq!(open(&table), SHARDS, "the drained shards open again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Log₂ of the buckets a visited set holds in itself: a hint with
    /// more names pages.
    const INLINE_LOG2: usize = 4;

    /// Four threads offer overlapping streams of the same keys, and after
    /// each offer re-offer a key some offer already admitted, which must
    /// come back `Covered` every time — from an open shard without the
    /// lock, or under it. Every key comes back `New` exactly once and
    /// `unique` counts the distinct keys; the keys come in pairs that
    /// share their high word and home bucket, so a probe that compared
    /// half a key would cover a key never admitted. Plain, every shard grows from
    /// its inline buckets to at least 512 on pages while the others probe
    /// it; with a 64-byte hot budget a spill drains every shard each 64
    /// admits.
    #[test]
    fn covered_offers_stay_covered_while_shards_grow_and_spill() {
        for spill in [false, true] {
            const THREADS: u32 = 4;
            let keys: u32 = if spill { 8_000 } else { 80_000 };
            let dir = temp_dir("covered-stress");
            let table = match spill {
                true => SharedTable::with_spill(usize::MAX, &dir, 64).unwrap(),
                false => SharedTable::new(usize::MAX),
            };
            let news: Vec<AtomicUsize> = (0..keys).map(|_| AtomicUsize::new(0)).collect();
            let admitted: Vec<AtomicBool> = (0..keys).map(|_| AtomicBool::new(false)).collect();
            let unlocked = AtomicUsize::new(0);
            let covered = Admit::Covered { merged: false };
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (table, news, admitted) = (&table, &news, &admitted);
                    let unlocked = &unlocked;
                    scope.spawn(move || {
                        let offer = |n: u32| {
                            let key = fp(n / 2).as_u128() ^ u128::from(n % 2) << 40;
                            let (key, none) = (Fingerprint::from_u128(key), SleepSet::empty());
                            table.offer(key, key, none, || 1).unwrap()
                        };
                        let mut draw = u64::from(t) + 1;
                        for i in 0..keys {
                            let n = (i + t * keys / THREADS) % keys;
                            match offer(n).0 {
                                Admit::New => _ = news[n as usize].fetch_add(1, Ordering::SeqCst),
                                got => assert_eq!(got, covered, "key {n}"),
                            }
                            admitted[n as usize].store(true, Ordering::Release);
                            draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let m = (draw >> 33) as u32 % keys;
                            if admitted[m as usize].load(Ordering::Acquire) {
                                let (again, without_lock) = offer(m);
                                assert_eq!(again, covered, "re-offer of key {m}");
                                unlocked.fetch_add(usize::from(without_lock), Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            let mode = if spill { "spilled" } else { "plain" };
            assert!(news.iter().all(|n| n.load(Ordering::SeqCst) == 1), "{mode}");
            assert_eq!(table.unique(), keys as usize, "{mode}");
            if spill {
                // A spill per 64 admits at most: one in progress lets the
                // other threads' admits pile up for the next.
                let runs = table.spill_stats().runs_created;
                assert!(runs >= 25, "{mode}: {runs} runs");
            } else {
                let grown = |shard: &Mutex<Shard>| shard.lock().visited.bytes() >= 512 * 64;
                assert!(table.shards.iter().all(grown), "{mode}");
                assert!(unlocked.load(Ordering::Relaxed) > 0, "{mode}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
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
