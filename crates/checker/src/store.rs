//! Disk-backed cold tier for the visited set.
//!
//! Under `--mem-limit`, the exploration engine keeps only a bounded hot
//! tier of fingerprints in RAM and spills the rest here: sorted runs of
//! fixed-width records on disk. This is the classic explicit-state
//! recipe (disk-tiered visited stores in the distributed-Murphi/Spin
//! lineage) adapted to the checker's 128-bit fingerprints. Nothing else
//! spills: the way back to the root of a queued state is its task's
//! path, in RAM (`crate::trace`).
//!
//! Each spilled batch becomes one *run*: one file of sorted records, a
//! 16-byte key each, followed by the 16-byte orbit representative when
//! any record of the run has one of its own (symmetry mode; a record
//! that has none then repeats its key), followed by the key's 8-byte
//! sleep set when any record of the run has a non-empty one
//! (partial-order reduction; ∅ is 0). What a lookup needs of a run
//! stays in RAM, built while the run is written: a bloom filter sized
//! to the run ([`BLOOM_BITS_PER_KEY`] bits a record) and a *fence* —
//! the first key of every block of [`BLOCK`] records. A lookup is
//! therefore RAM probes, then at most one positional read per run
//! whose bloom says maybe: binary-search the fences, read the block,
//! finish in the buffer. A genuinely new state — the common case —
//! costs no I/O.
//!
//! When the run count reaches [`MERGE_FANIN`], all runs are streamed
//! through a k-way merge into one, keeping the blooms a lookup passes
//! bounded instead of linear in the number of spills.
//!
//! The write side ([`RunStore`]) and the read side ([`Runs`]) are two
//! types: a `Runs` is an immutable list of the runs as of one spill,
//! cheap to clone, whose lookups take `&self` and no lock — reads are
//! positional, so the files have no cursor to share.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::CheckerError;

/// Bytes of a key, and of a representative.
const KEY: usize = 16;

/// Bytes of a sleep set.
const SLEEP: usize = 8;

/// Bytes of the widest record: key, representative and sleep set.
const MAX_WIDTH: usize = 2 * KEY + SLEEP;

/// Records per fenced block: one fence (16 B of RAM) and at most one
/// read of `BLOCK` records (2 to 5 KiB) per run probed.
const BLOCK: usize = 128;

/// Run count that triggers a full k-way merge back to one run.
const MERGE_FANIN: usize = 8;

/// Bloom bits per record of a run. With [`BLOOM_PROBES`] probes ≈ 0.24 %
/// of absent keys pass — per run, and a new key passes every run's.
const BLOOM_BITS_PER_KEY: u64 = 16;
const BLOOM_PROBES: u64 = 4;

fn le_u128(bytes: &[u8]) -> u128 {
    let mut key = [0; KEY];
    key.copy_from_slice(&bytes[..KEY]);
    u128::from_le_bytes(key)
}

/// A record: the key, its representative (the key itself when it is its
/// own) and the bits of its sleep set (0 = ∅).
type Record = (u128, u128, u64);

/// Which columns a run's records have besides the key.
#[derive(Debug, Clone, Copy)]
struct Layout {
    reps: bool,
    sleeps: bool,
}

impl Layout {
    fn width(self) -> usize {
        KEY + usize::from(self.reps) * KEY + usize::from(self.sleeps) * SLEEP
    }

    /// `record` as its `width()` bytes, in `buf`.
    fn encode(self, (key, rep, sleep): Record, buf: &mut [u8; MAX_WIDTH]) -> &[u8] {
        buf[..KEY].copy_from_slice(&key.to_le_bytes());
        let mut at = KEY;
        if self.reps {
            buf[at..at + KEY].copy_from_slice(&rep.to_le_bytes());
            at += KEY;
        }
        if self.sleeps {
            buf[at..at + SLEEP].copy_from_slice(&sleep.to_le_bytes());
            at += SLEEP;
        }
        &buf[..at]
    }

    /// The record in the `width()` bytes of `bytes`.
    fn decode(self, bytes: &[u8]) -> Record {
        let key = le_u128(bytes);
        let rep = if self.reps {
            le_u128(&bytes[KEY..])
        } else {
            key
        };
        let sleep = match self.sleeps {
            true => {
                let at = self.width() - SLEEP;
                u64::from_le_bytes(bytes[at..at + SLEEP].try_into().expect("8 bytes"))
            }
            false => 0,
        };
        (key, rep, sleep)
    }
}

/// A bloom filter sized exactly to its run: probe positions come from a
/// multiply-shift reduction onto the bit count, so the count need not be
/// a power of two.
#[derive(Debug)]
struct Bloom {
    bits: Box<[u64]>,
}

impl Bloom {
    fn for_records(records: u64) -> Bloom {
        let words = (records * BLOOM_BITS_PER_KEY).div_ceil(64).max(1);
        Bloom {
            bits: vec![0; words as usize].into(),
        }
    }

    fn probes(&self, key: u128) -> impl Iterator<Item = (usize, u64)> {
        // The fingerprints are already uniform SipHash outputs; fold the
        // halves with distinct odd multipliers and step from one by the
        // other to decorrelate the probes.
        let bit_count = self.bits.len() as u128 * 64;
        let a = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let b = ((key >> 64) as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f) | 1;
        (0..BLOOM_PROBES).map(move |i| {
            let bit = ((a.wrapping_add(b.wrapping_mul(i)) as u128 * bit_count) >> 64) as usize;
            (bit / 64, 1 << (bit % 64))
        })
    }

    fn insert(&mut self, key: u128) {
        for (word, mask) in self.probes(key) {
            self.bits[word] |= mask;
        }
    }

    fn may_contain(&self, key: u128) -> bool {
        self.probes(key)
            .all(|(word, mask)| self.bits[word] & mask != 0)
    }
}

/// One sorted run: its file, and the bloom and fences that stay in RAM.
#[derive(Debug)]
struct Run {
    path: PathBuf,
    file: File,
    records: u64,
    layout: Layout,
    /// First key of every block of [`BLOCK`] records.
    fences: Vec<u128>,
    bloom: Bloom,
}

impl Run {
    /// The representative and sleep set stored for `key`: RAM probes,
    /// then one read.
    fn get(&self, key: u128, probes: &Probes) -> Result<Option<(u128, u64)>, CheckerError> {
        if !self.bloom.may_contain(key) {
            return Ok(None);
        }
        probes.run_probes.fetch_add(1, Ordering::Relaxed);
        let Some(block) = self.fences.partition_point(|&f| f <= key).checked_sub(1) else {
            return Ok(None);
        };
        let first = block * BLOCK;
        let count = BLOCK.min(self.records as usize - first);
        let width = self.layout.width();
        let mut buf = [0u8; BLOCK * MAX_WIDTH];
        let buf = &mut buf[..count * width];
        probes.reads.fetch_add(1, Ordering::Relaxed);
        self.file
            .read_exact_at(buf, (first * width) as u64)
            .map_err(|e| CheckerError::io(&self.path, e))?;
        let (mut lo, mut hi) = (0, count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let record = &buf[mid * width..][..width];
            match le_u128(record).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let (_, rep, sleep) = self.layout.decode(record);
                    return Ok(Some((rep, sleep)));
                }
            }
        }
        Ok(None)
    }

    /// A sequential reader over the run's records.
    fn stream(&self) -> Result<impl FnMut() -> Result<Record, CheckerError> + '_, CheckerError> {
        let file = File::open(&self.path).map_err(|e| CheckerError::io(&self.path, e))?;
        let mut reader = BufReader::new(file);
        Ok(move || {
            let mut record = [0u8; MAX_WIDTH];
            let record = &mut record[..self.layout.width()];
            reader
                .read_exact(record)
                .map_err(|e| CheckerError::io(&self.path, e))?;
            Ok(self.layout.decode(record))
        })
    }

    fn resident_bytes(&self) -> usize {
        self.fences.capacity() * KEY + self.bloom.bits.len() * 8
    }
}

/// Lookup activity of a store, counted where it happens. Statistics
/// only: they publish nothing, hence `Relaxed`.
#[derive(Debug, Default)]
struct Probes {
    lookups: AtomicU64,
    run_probes: AtomicU64,
    reads: AtomicU64,
    hits: AtomicU64,
}

/// Counters describing a store's activity, surfaced through exploration
/// stats and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpillCounters {
    /// Records currently resident on disk.
    pub records: u64,
    /// Runs written over the store's lifetime (merges included).
    pub runs_created: u64,
    /// Bytes written over the store's lifetime.
    pub bytes_written: u64,
    /// Lookups made.
    pub lookups: u64,
    /// Runs searched for a key because their bloom said maybe.
    pub run_probes: u64,
    /// Positional reads those searches issued.
    pub reads: u64,
    /// Lookups answered from disk (key found in a run).
    pub hits: u64,
}

impl SpillCounters {
    /// Copies the counters into the stats fields that report them.
    pub(crate) fn write_to(&self, stats: &mut crate::ExplorationStats) {
        stats.spilled_states = self.records as usize;
        stats.spill_bytes = self.bytes_written;
        stats.cold_hits = self.hits;
        stats.cold_lookups = self.lookups;
        stats.cold_run_probes = self.run_probes;
        stats.cold_reads = self.reads;
    }
}

/// The runs of a store as of one spill: what a lookup needs, and all it
/// touches. Immutable, so lookups take no lock; a clone is two
/// reference-count bumps.
#[derive(Debug, Clone, Default)]
pub(crate) struct Runs {
    runs: Arc<[Arc<Run>]>,
    probes: Arc<Probes>,
}

impl Runs {
    /// The representative and the sleep set stored for `key`, if the
    /// key is present (a key that is its own representative comes back
    /// as itself, ∅ as 0). Keys are unique across runs, so the first run
    /// that has it answers.
    pub(crate) fn get(&self, key: u128) -> Result<Option<(u128, u64)>, CheckerError> {
        self.probes.lookups.fetch_add(1, Ordering::Relaxed);
        for run in self.runs.iter().rev() {
            if let Some(found) = run.get(key, &self.probes)? {
                self.probes.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(found));
            }
        }
        Ok(None)
    }
}

/// A log-structured store of sorted fingerprint-keyed runs: the write
/// side. [`RunStore::runs`] is the read side.
#[derive(Debug)]
pub(crate) struct RunStore {
    dir: PathBuf,
    current: Runs,
    /// Runs written so far, merges included; the next run's file name.
    runs_created: u64,
    bytes_written: u64,
}

impl RunStore {
    /// Creates an empty store rooted at `dir` (created if missing).
    pub(crate) fn create(dir: &Path) -> Result<RunStore, CheckerError> {
        fs::create_dir_all(dir).map_err(|e| CheckerError::io(dir, e))?;
        Ok(RunStore {
            dir: dir.to_path_buf(),
            current: Runs::default(),
            runs_created: 0,
            bytes_written: 0,
        })
    }

    /// The current runs, for lookups. Stale after the next
    /// [`RunStore::spill`]: whoever spills hands out the new list before
    /// anyone looks a key up again.
    pub(crate) fn runs(&self) -> Runs {
        self.current.clone()
    }

    pub(crate) fn counters(&self) -> SpillCounters {
        let probes = &self.current.probes;
        SpillCounters {
            records: self.current.runs.iter().map(|run| run.records).sum(),
            runs_created: self.runs_created,
            bytes_written: self.bytes_written,
            lookups: probes.lookups.load(Ordering::Relaxed),
            run_probes: probes.run_probes.load(Ordering::Relaxed),
            reads: probes.reads.load(Ordering::Relaxed),
            hits: probes.hits.load(Ordering::Relaxed),
        }
    }

    /// Bytes of RAM the runs hold: their blooms and fences.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.current
            .runs
            .iter()
            .map(|run| run.resident_bytes())
            .sum()
    }

    /// Writes the `records` records `next` yields in key order as a new
    /// run, building its bloom and fences on the way, and makes `kept`
    /// plus that run the current list.
    fn write_run(
        &mut self,
        kept: &[Arc<Run>],
        records: u64,
        layout: Layout,
        mut next: impl FnMut() -> Result<Record, CheckerError>,
    ) -> Result<(), CheckerError> {
        let name = format!("visited-{:06}.run", self.runs_created);
        let path = self.dir.join(name);
        let io = |e| CheckerError::io(&path, e);
        // Opened for reading too: the lookups' handle. The directory is
        // this store's own, so the name is free.
        let file = File::create_new(&path).map_err(io)?;
        let mut fences = Vec::with_capacity((records as usize).div_ceil(BLOCK));
        let mut bloom = Bloom::for_records(records);
        let mut out = BufWriter::new(&file);
        let mut buf = [0u8; MAX_WIDTH];
        for n in 0..records {
            let record = next()?;
            if n.is_multiple_of(BLOCK as u64) {
                fences.push(record.0);
            }
            bloom.insert(record.0);
            out.write_all(layout.encode(record, &mut buf)).map_err(io)?;
        }
        out.flush().map_err(io)?;
        drop(out);
        self.runs_created += 1;
        self.bytes_written += records * layout.width() as u64;
        let run = Run {
            path,
            file,
            records,
            layout,
            fences,
            bloom,
        };
        self.current.runs = kept.iter().cloned().chain([Arc::new(run)]).collect();
        Ok(())
    }

    /// Spills `batch` — `(key, representative)` pairs, a key that is its
    /// own representative paired with itself — as one new run, then
    /// merges if the run count hit the fan-in. `sleeps` pairs keys of
    /// the batch with their sleep sets; a key it does not name has ∅.
    /// Keys must be unique (the hot tiers guarantee a key is spilled at
    /// most once); order is irrelevant.
    pub(crate) fn spill(
        &mut self,
        mut batch: Vec<(u128, u128)>,
        mut sleeps: Vec<(u128, u64)>,
    ) -> Result<(), CheckerError> {
        if batch.is_empty() {
            return Ok(());
        }
        batch.sort_unstable_by_key(|&(key, _)| key);
        sleeps.sort_unstable_by_key(|&(key, _)| key);
        let layout = Layout {
            reps: batch.iter().any(|&(key, rep)| rep != key),
            sleeps: sleeps.iter().any(|&(_, sleep)| sleep != 0),
        };
        let mut records = batch.iter().copied();
        let mut sleeps = sleeps.into_iter().peekable();
        let kept = Arc::clone(&self.current.runs);
        self.write_run(&kept, batch.len() as u64, layout, || {
            let (key, rep) = records.next().expect("one per record of the batch");
            let sleep = sleeps.next_if(|&(k, _)| k == key).map_or(0, |(_, s)| s);
            Ok((key, rep, sleep))
        })?;
        debug_assert!(sleeps.next().is_none(), "a sleep set of a key not spilled");
        if self.current.runs.len() >= MERGE_FANIN {
            self.merge_all()?;
        }
        Ok(())
    }

    /// Streams every run through a k-way merge into a single run.
    fn merge_all(&mut self) -> Result<(), CheckerError> {
        let old = Arc::clone(&self.current.runs);
        let mut heads = Vec::new();
        for run in old.iter() {
            let mut next = run.stream()?;
            heads.push((next()?, run.records - 1, next));
        }
        let records = old.iter().map(|run| run.records).sum();
        let layout = Layout {
            reps: old.iter().any(|run| run.layout.reps),
            sleeps: old.iter().any(|run| run.layout.sleeps),
        };
        self.write_run(&[], records, layout, || {
            let (min_ix, _) = heads
                .iter()
                .enumerate()
                .min_by_key(|(_, ((key, _, _), _, _))| *key)
                .expect("a head per record left");
            let (record, left, next) = &mut heads[min_ix];
            let out = *record;
            if *left == 0 {
                drop(heads.swap_remove(min_ix));
            } else {
                (*record, *left) = (next()?, *left - 1);
            }
            Ok(out)
        })?;
        for run in old.iter() {
            // Best-effort cleanup; a leftover file is dead weight, not
            // a correctness problem.
            let _ = fs::remove_file(&run.path);
        }
        Ok(())
    }

    /// Every `(key, representative, sleep set)` on disk, for checkpoint
    /// serialization. Materializes the whole cold tier; checkpoints
    /// already hold the full visited summary in memory while writing.
    pub(crate) fn iter_all(&self) -> Result<Vec<Record>, CheckerError> {
        let mut all = Vec::new();
        for run in self.current.runs.iter() {
            let mut next = run.stream()?;
            for _ in 0..run.records {
                all.push(next()?);
            }
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A sparse 128-bit pseudo-fingerprint, distinct for each `i`.
    fn key(i: u64) -> u128 {
        let mut draws = p_ast::Draws::new(i);
        (u128::from(draws.next()) << 64) | u128::from(draws.next())
    }

    /// The representative stored for `key`.
    fn get(store: &RunStore, key: u128) -> Option<u128> {
        store.runs().get(key).unwrap().map(|(rep, _)| rep)
    }

    #[test]
    fn spill_lookup_and_payload_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut store = RunStore::create(&dir).unwrap();
        let batch: Vec<(u128, u128)> = (0..500).map(|i| (key(i), key(i + 1000))).collect();
        store.spill(batch.clone(), vec![]).unwrap();
        for &(k, rep) in &batch {
            assert_eq!(get(&store, k), Some(rep));
        }
        assert_eq!(get(&store, key(9_999)), None);
        let counters = store.counters();
        assert_eq!((counters.records, counters.lookups), (500, 501));
        assert_eq!((counters.hits, counters.reads), (500, 500), "a read a hit");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_spills_merge_and_stay_complete() {
        let dir = temp_dir("merge");
        let mut store = RunStore::create(&dir).unwrap();
        // 20 batches of 64: crosses the merge fan-in twice.
        for b in 0..20u64 {
            let batch = (0..64).map(|i| (key(b * 64 + i), b as u128)).collect();
            store.spill(batch, vec![]).unwrap();
        }
        let runs = store.current.runs.len();
        assert!(runs < MERGE_FANIN, "merge must bound the run count: {runs}");
        assert_eq!(store.counters().records, 20 * 64);
        for b in 0..20u64 {
            for i in 0..64 {
                assert_eq!(get(&store, key(b * 64 + i)), Some(b as u128), "{b}/{i}");
            }
        }
        let mut all = store.iter_all().unwrap();
        all.sort_unstable_by_key(|&(k, _, _)| k);
        assert_eq!(all.len(), 20 * 64);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "duplicate keys");
        let files = fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, runs, "a merge removes the runs it read");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_spill_directory_holds_no_heap_file_and_keys_only_runs_are_16_bytes_a_record() {
        let dir = temp_dir("layout");
        let mut store = RunStore::create(&dir).unwrap();
        store
            .spill((0..100).map(|i| (key(i), key(i))).collect(), vec![])
            .unwrap();
        store
            .spill((100..150).map(|i| (key(i), key(i) ^ 1)).collect(), vec![])
            .unwrap();
        assert_eq!(get(&store, key(42)), Some(key(42)));
        assert_eq!(get(&store, key(142)), Some(key(142) ^ 1));
        let mut files: Vec<(String, u64)> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                (
                    e.file_name().into_string().unwrap(),
                    e.metadata().unwrap().len(),
                )
            })
            .collect();
        files.sort();
        let expected = [
            ("visited-000000.run", 100 * 16),
            ("visited-000001.run", 50 * 32),
        ];
        assert_eq!(files.len(), 2, "one file a run: {files:?}");
        for ((name, len), expected) in files.iter().zip(expected) {
            assert_eq!((name.as_str(), *len), expected);
        }
        assert_eq!(store.counters().bytes_written, 100 * 16 + 50 * 32);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every run has a bloom of its own, sized to the run when it is
    /// written — a big spill, a small one and the merged run alike — and
    /// none loses a member or lets many strangers through.
    #[test]
    fn bloom_grows_without_losing_members() {
        let dir = temp_dir("bloom");
        let mut store = RunStore::create(&dir).unwrap();
        let exact = |store: &RunStore| {
            for run in store.current.runs.iter() {
                let bits = run.bloom.bits.len() as u64 * 64;
                let wanted = run.records * BLOOM_BITS_PER_KEY;
                assert!((wanted..wanted + 64).contains(&bits), "{bits} for {wanted}");
            }
            store.resident_bytes() as u64
        };
        let n = 8_000u64;
        store
            .spill((0..n).map(|i| (key(i), key(i))).collect(), vec![])
            .unwrap();
        store
            .spill((n..n + 10).map(|i| (key(i), key(i))).collect(), vec![])
            .unwrap();
        assert_eq!(store.current.runs.len(), 2);
        let two_runs = exact(&store);
        for b in 1..MERGE_FANIN as u64 - 1 {
            let batch = (n + 10 * b..n + 10 * (b + 1)).map(|i| (key(i), key(i)));
            store.spill(batch.collect(), vec![]).unwrap();
        }
        assert_eq!(store.current.runs.len(), 1, "merged");
        let total = n + 10 * (MERGE_FANIN as u64 - 1);
        assert_eq!(store.current.runs[0].records, total);
        assert!(exact(&store) >= two_runs);
        assert!(
            exact(&store) <= total * 17 / 8 + 24,
            "2 B bloom + 1/8 B fence"
        );
        for i in 0..total {
            assert!(get(&store, key(i)).is_some(), "lost key {i}");
        }
        let before = store.counters().run_probes;
        for i in 0..10_000 {
            assert_eq!(get(&store, key(1_000_000 + i)), None);
        }
        let passed = store.counters().run_probes - before;
        assert!(passed < 100, "{passed} of 10000 strangers passed the bloom");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Random spills (and the merges they trigger) against a `BTreeMap`
    /// oracle: keys only, every record with a representative, every
    /// other record with a sleep set, and batches of different kinds in
    /// turn, so merges mix the record widths. Batch sizes sit around the
    /// block size and span several fan-ins. After every spill each key
    /// ever spilled is looked up together with its two neighbours —
    /// which covers the first and last record of every block, one below
    /// each run's first fence and one above its last key.
    #[test]
    fn store_agrees_with_a_btreemap_across_spills_and_merges() {
        let sizes = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 2];
        // Per mode, whether the even and the odd spills have
        // representatives and sleep sets.
        for (mode, reps_in, sleeps_in) in [
            ("keys", [false, false], [false, false]),
            ("reps", [true, true], [false, false]),
            ("mixed", [false, true], [false, false]),
            ("sleeps", [false, false], [true, true]),
            ("all", [true, true], [true, true]),
            ("mixed-sleeps", [true, false], [false, true]),
        ] {
            let dir = temp_dir(&format!("model-{mode}"));
            let mut store = RunStore::create(&dir).unwrap();
            let mut oracle = BTreeMap::new();
            let mut next = 0u64;
            let mut rng = 0x2545_f491_4f6c_dd1du64;
            for spill in 0..2 * MERGE_FANIN + 3 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let size = sizes[(rng >> 33) as usize % sizes.len()];
                let (mut batch, mut sleeps) = (Vec::new(), Vec::new());
                for n in 0..size {
                    next += 1;
                    let k = key(next);
                    // Every third record of a batch with
                    // representatives is its own; every other record of
                    // a batch with sleep sets has one, and every fourth
                    // names ∅.
                    let own = !reps_in[spill % 2] || n % 3 == 0;
                    let rep = if own { k } else { k.rotate_left(7) };
                    let sleep = match sleeps_in[spill % 2] {
                        true if n % 2 == 0 => next,
                        true if n % 4 == 1 => {
                            sleeps.push((k, 0));
                            0
                        }
                        _ => 0,
                    };
                    if sleep != 0 {
                        sleeps.push((k, sleep));
                    }
                    batch.push((k, rep));
                    oracle.insert(k, (rep, sleep));
                }
                store.spill(batch, sleeps).unwrap();
                assert_eq!(store.counters().records, oracle.len() as u64);
                for &k in oracle.keys() {
                    for probe in [k - 1, k, k + 1] {
                        assert_eq!(
                            store.runs().get(probe).unwrap(),
                            oracle.get(&probe).copied(),
                            "{mode} {spill}"
                        );
                    }
                }
            }
            assert!(store.runs_created > 2 * MERGE_FANIN as u64, "merged twice");
            let mut all = store.iter_all().unwrap();
            all.sort_unstable();
            let want: Vec<Record> = oracle.into_iter().map(|(k, (r, s))| (k, r, s)).collect();
            assert_eq!(all, want, "{mode}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A run has a sleep column, 8 bytes a record, only if one of its
    /// records has a non-empty set; a merged run has it if one of the
    /// runs it read had it, and every set comes through the merge.
    #[test]
    fn sleep_column_costs_8_bytes_a_record_only_where_a_set_is_not_empty() {
        let dir = temp_dir("sleep-layout");
        let mut store = RunStore::create(&dir).unwrap();
        let own = |range: std::ops::Range<u64>| range.map(|i| (key(i), key(i))).collect();
        store.spill(own(0..10), vec![]).unwrap();
        store
            .spill(own(10..20), (10..15).map(|i| (key(i), i)).collect())
            .unwrap();
        let reps = (20..30).map(|i| (key(i), key(i) ^ 1)).collect();
        store.spill(reps, vec![(key(20), 1 << 63)]).unwrap();
        store.spill(own(30..40), vec![(key(30), 0)]).unwrap();
        let widths: Vec<usize> = store
            .current
            .runs
            .iter()
            .map(|r| r.layout.width())
            .collect();
        assert_eq!(widths, [16, 24, 40, 16]);
        assert_eq!(store.counters().bytes_written, 10 * (16 + 24 + 40 + 16));
        // What key `i` was spilled with.
        let record = |i: u64| {
            let rep = if (20..30).contains(&i) {
                key(i) ^ 1
            } else {
                key(i)
            };
            let sleep = match i {
                10..15 => i,
                20 => 1 << 63,
                _ => 0,
            };
            (key(i), rep, sleep)
        };
        let expect = |store: &RunStore| {
            let spilled = store.counters().records;
            let runs = store.runs();
            let mut want: Vec<Record> = (0..spilled).map(record).collect();
            for &(k, rep, sleep) in &want {
                assert_eq!(runs.get(k).unwrap(), Some((rep, sleep)), "{k:#x}");
            }
            let mut all = store.iter_all().unwrap();
            all.sort_unstable();
            want.sort_unstable();
            assert_eq!(all, want);
        };
        expect(&store);
        for b in 4..MERGE_FANIN as u64 {
            store.spill(own(b * 10..b * 10 + 10), vec![]).unwrap();
        }
        assert_eq!(store.current.runs.len(), 1, "merged");
        assert_eq!(store.current.runs[0].layout.width(), 40);
        expect(&store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A run file cut short is an I/O error naming the file — from a
    /// lookup that needs the missing part, from a checkpoint and from a
    /// merge — and lookups the remaining part answers still work.
    #[test]
    fn truncated_run_is_a_typed_error() {
        let dir = temp_dir("truncated");
        let mut store = RunStore::create(&dir).unwrap();
        let mut keys: Vec<u128> = (0..1_000).map(key).collect();
        let batch = keys.iter().map(|&k| (k, k)).collect();
        store.spill(batch, vec![]).unwrap();
        keys.sort_unstable();
        let path = store.current.runs[0].path.clone();
        let file = File::options().write(true).open(&path).unwrap();
        file.set_len(500 * 16 + 7).unwrap();
        let is_io = |e: &CheckerError| matches!(e, CheckerError::Io { path: p, .. } if *p == path);
        let runs = store.runs();
        assert_eq!(runs.get(keys[100]).unwrap(), Some((keys[100], 0)));
        // Record 500 is whole, its block is not.
        for k in [keys[500], keys[501], keys[999]] {
            assert!(runs.get(k).is_err_and(|e| is_io(&e)), "{k:#x}");
        }
        assert!(store.iter_all().is_err_and(|e| is_io(&e)));
        for b in 1..MERGE_FANIN as u64 {
            let merged = store.spill(vec![(key(5_000 + b), 0)], vec![]);
            assert_eq!(
                merged.is_err_and(|e| is_io(&e)),
                b == MERGE_FANIN as u64 - 1
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipped bits in a run file can hide a key that was spilled; they
    /// cannot make the store answer for a key that never was, and
    /// nothing panics on what it reads.
    #[test]
    fn bit_flipped_run_is_never_a_wrong_hit_on_an_absent_key() {
        let dir = temp_dir("flipped");
        let mut store = RunStore::create(&dir).unwrap();
        let n = 2_000u64;
        store
            .spill((0..n).map(|i| (key(i), key(i) ^ 1)).collect(), vec![])
            .unwrap();
        let path = store.current.runs[0].path.clone();
        let mut bytes = fs::read(&path).unwrap();
        for flip in 0..400u64 {
            let bit = key(77_000 + flip) as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        fs::write(&path, &bytes).unwrap();
        let found = (0..n).filter(|&i| get(&store, key(i)).is_some()).count();
        assert!(found > 1_000, "most records are intact: {found}");
        for i in n..n + 20_000 {
            assert_eq!(get(&store, key(i)), None, "key {i} was never spilled");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
