//! Disk-backed cold tier for the visited set.
//!
//! Under `--mem-limit`, the exploration engine keeps only a bounded hot
//! tier of fingerprints in RAM and spills the rest here: sorted runs of
//! fixed-width keys on disk, fronted by a bloom filter so the common
//! case — a genuinely new state — costs zero I/O. This is the classic
//! explicit-state recipe (disk-tiered visited stores in the
//! distributed-Murphi/Spin lineage) adapted to the checker's 128-bit
//! fingerprints.
//!
//! The visited set stores keys with an empty payload (plain and POR
//! modes) or a 16-byte canonical-representative fingerprint (symmetry
//! mode). Parent edges need none of this: they are addressed by dense
//! task ids, so their cold tier is a flat file (`crate::engine`).
//!
//! Each spilled batch becomes one *run*: an index file of sorted
//! `(key: u128, offset: u64, len: u32)` records plus a heap file of
//! concatenated payloads. Lookup is a bloom probe, then a seek-based
//! binary search per run (newest first). When the run count reaches
//! [`MERGE_FANIN`], all runs are streamed through a k-way merge into
//! one, keeping per-lookup cost logarithmic instead of linear in the
//! number of spills.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::CheckerError;
use crate::wire;

/// Bytes of one index record: key `u128` + heap offset `u64` + payload
/// length `u32`.
const INDEX_RECORD: usize = 16 + 8 + 4;

/// Run count that triggers a full k-way merge back to one run.
const MERGE_FANIN: usize = 8;

/// Reads exactly `buf.len()` bytes at `offset` through a shared file
/// handle (`&File` implements `Seek`/`Read`; callers serialize access —
/// the visited table keeps each store behind a mutex).
fn read_exact_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// A blocked bloom filter front: two probes per key derived from the
/// key's two 64-bit halves. Sized at ~16 bits per record (≈1.4% false
/// positives with two probes), rebuilt from the run indexes when the
/// record count outgrows it.
struct Bloom {
    bits: Vec<u64>,
}

impl Bloom {
    fn with_bit_count(bits: usize) -> Bloom {
        Bloom {
            bits: vec![0; bits.div_ceil(64)],
        }
    }

    fn capacity_bits(&self) -> usize {
        self.bits.len() * 64
    }

    fn probes(&self, key: u128) -> (usize, usize) {
        // The fingerprints are already uniform SipHash outputs; fold the
        // halves with distinct odd multipliers to decorrelate the probes.
        let mask = self.capacity_bits() - 1; // capacity is a power of two
        let a = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let b = ((key >> 64) as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        (a as usize & mask, b as usize & mask)
    }

    fn insert(&mut self, key: u128) {
        let (a, b) = self.probes(key);
        self.bits[a / 64] |= 1 << (a % 64);
        self.bits[b / 64] |= 1 << (b % 64);
    }

    fn may_contain(&self, key: u128) -> bool {
        let (a, b) = self.probes(key);
        self.bits[a / 64] & (1 << (a % 64)) != 0 && self.bits[b / 64] & (1 << (b % 64)) != 0
    }
}

/// One sorted run on disk.
struct Run {
    index_path: PathBuf,
    heap_path: PathBuf,
    index: File,
    heap: File,
    entries: u64,
}

/// Counters describing a store's spill activity, surfaced through
/// exploration stats and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpillCounters {
    /// Records currently resident on disk.
    pub records: u64,
    /// Runs written over the store's lifetime (merges included).
    pub runs_created: u64,
    /// Bytes written over the store's lifetime (index + heap).
    pub bytes_written: u64,
    /// Lookups answered from disk (key found in a run).
    pub hits: u64,
}

/// A log-structured store of sorted fingerprint-keyed runs.
pub(crate) struct RunStore {
    dir: PathBuf,
    /// File-name prefix of the store's run files (`visited-…`).
    tag: &'static str,
    runs: Vec<Run>,
    bloom: Bloom,
    next_run_id: u64,
    pub(crate) counters: SpillCounters,
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("tag", &self.tag)
            .field("runs", &self.runs.len())
            .field("counters", &self.counters)
            .finish()
    }
}

impl RunStore {
    /// Creates an empty store rooted at `dir` (created if missing).
    pub(crate) fn create(dir: &Path, tag: &'static str) -> Result<RunStore, CheckerError> {
        fs::create_dir_all(dir).map_err(|e| CheckerError::io(dir, e))?;
        Ok(RunStore {
            dir: dir.to_path_buf(),
            tag,
            runs: Vec::new(),
            bloom: Bloom::with_bit_count(1 << 16),
            next_run_id: 0,
            counters: SpillCounters::default(),
        })
    }

    /// Spills `batch` as one new run, then merges if the run count hit
    /// the fan-in. Keys must be unique (the hot tiers guarantee a key
    /// is spilled at most once); order is irrelevant.
    pub(crate) fn spill(&mut self, mut batch: Vec<(u128, Vec<u8>)>) -> Result<(), CheckerError> {
        if batch.is_empty() {
            return Ok(());
        }
        batch.sort_unstable_by_key(|&(key, _)| key);
        self.grow_bloom_for(self.counters.records + batch.len() as u64)?;
        let run_id = self.next_run_id;
        self.next_run_id += 1;
        let index_path = self.dir.join(format!("{}-{run_id:06}.idx", self.tag));
        let heap_path = self.dir.join(format!("{}-{run_id:06}.heap", self.tag));
        {
            let index_file =
                File::create(&index_path).map_err(|e| CheckerError::io(&index_path, e))?;
            let heap_file =
                File::create(&heap_path).map_err(|e| CheckerError::io(&heap_path, e))?;
            let mut index = BufWriter::new(index_file);
            let mut heap = BufWriter::new(heap_file);
            let mut offset = 0u64;
            for (key, payload) in &batch {
                index
                    .write_all(&key.to_le_bytes())
                    .and_then(|()| index.write_all(&offset.to_le_bytes()))
                    .and_then(|()| index.write_all(&(payload.len() as u32).to_le_bytes()))
                    .map_err(|e| CheckerError::io(&index_path, e))?;
                heap.write_all(payload)
                    .map_err(|e| CheckerError::io(&heap_path, e))?;
                offset += payload.len() as u64;
                self.bloom.insert(*key);
            }
            index
                .flush()
                .map_err(|e| CheckerError::io(&index_path, e))?;
            heap.flush().map_err(|e| CheckerError::io(&heap_path, e))?;
            self.counters.bytes_written += batch.len() as u64 * INDEX_RECORD as u64 + offset;
        }
        self.runs.push(Run {
            index: File::open(&index_path).map_err(|e| CheckerError::io(&index_path, e))?,
            heap: File::open(&heap_path).map_err(|e| CheckerError::io(&heap_path, e))?,
            index_path,
            heap_path,
            entries: batch.len() as u64,
        });
        self.counters.records += batch.len() as u64;
        self.counters.runs_created += 1;
        if self.runs.len() >= MERGE_FANIN {
            self.merge_all()?;
        }
        Ok(())
    }

    /// The payload stored for `key`, if present (empty payloads come
    /// back as an empty vec). Counts a hit when found.
    pub(crate) fn get(&mut self, key: u128) -> Result<Option<Vec<u8>>, CheckerError> {
        let Some((run_ix, offset, len)) = self.find(key)? else {
            return Ok(None);
        };
        self.counters.hits += 1;
        let mut payload = vec![0u8; len as usize];
        let run = &self.runs[run_ix];
        read_exact_at(&run.heap, offset, &mut payload)
            .map_err(|e| CheckerError::io(&run.heap_path, e))?;
        Ok(Some(payload))
    }

    /// Locates `key`: bloom probe, then per-run binary search over the
    /// index records, newest run first.
    fn find(&self, key: u128) -> Result<Option<(usize, u64, u32)>, CheckerError> {
        if self.runs.is_empty() || !self.bloom.may_contain(key) {
            return Ok(None);
        }
        let mut record = [0u8; INDEX_RECORD];
        for (run_ix, run) in self.runs.iter().enumerate().rev() {
            let (mut lo, mut hi) = (0u64, run.entries);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                read_exact_at(&run.index, mid * INDEX_RECORD as u64, &mut record)
                    .map_err(|e| CheckerError::io(&run.index_path, e))?;
                let mut cur = &record[..];
                let found = wire::read_u128(&mut cur).expect("index record");
                match found.cmp(&key) {
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                    std::cmp::Ordering::Equal => {
                        let offset = wire::read_u64(&mut cur).expect("index record");
                        let len = wire::read_u32(&mut cur).expect("index record");
                        return Ok(Some((run_ix, offset, len)));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Streams every run through a k-way merge into a single run.
    /// Payload bytes are copied run-sequentially (each run's heap was
    /// written in index order), so the merge is pure streaming I/O.
    fn merge_all(&mut self) -> Result<(), CheckerError> {
        struct Head {
            key: u128,
            len: u32,
            index: BufReader<File>,
            heap: BufReader<File>,
            remaining: u64,
        }
        fn advance(head: &mut Head, path: &Path) -> Result<bool, CheckerError> {
            if head.remaining == 0 {
                return Ok(false);
            }
            head.remaining -= 1;
            let mut record = [0u8; INDEX_RECORD];
            head.index
                .read_exact(&mut record)
                .map_err(|e| CheckerError::io(path, e))?;
            let mut cur = &record[..];
            head.key = wire::read_u128(&mut cur).expect("index record");
            let _offset = wire::read_u64(&mut cur).expect("index record");
            head.len = wire::read_u32(&mut cur).expect("index record");
            Ok(true)
        }

        let old_runs = std::mem::take(&mut self.runs);
        let mut heads = Vec::new();
        for run in &old_runs {
            let index = BufReader::new(
                File::open(&run.index_path).map_err(|e| CheckerError::io(&run.index_path, e))?,
            );
            let heap = BufReader::new(
                File::open(&run.heap_path).map_err(|e| CheckerError::io(&run.heap_path, e))?,
            );
            let mut head = Head {
                key: 0,
                len: 0,
                index,
                heap,
                remaining: run.entries,
            };
            if advance(&mut head, &run.index_path)? {
                heads.push((head, run.index_path.clone(), run.heap_path.clone()));
            }
        }

        let run_id = self.next_run_id;
        self.next_run_id += 1;
        let index_path = self.dir.join(format!("{}-{run_id:06}.idx", self.tag));
        let heap_path = self.dir.join(format!("{}-{run_id:06}.heap", self.tag));
        let mut entries = 0u64;
        {
            let mut index = BufWriter::new(
                File::create(&index_path).map_err(|e| CheckerError::io(&index_path, e))?,
            );
            let mut heap = BufWriter::new(
                File::create(&heap_path).map_err(|e| CheckerError::io(&heap_path, e))?,
            );
            let mut offset = 0u64;
            let mut payload = Vec::new();
            while !heads.is_empty() {
                let min_ix = heads
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (h, _, _))| h.key)
                    .map(|(i, _)| i)
                    .expect("heads nonempty");
                let (head, idx_path, hp_path) = &mut heads[min_ix];
                payload.resize(head.len as usize, 0);
                head.heap
                    .read_exact(&mut payload)
                    .map_err(|e| CheckerError::io(&*hp_path, e))?;
                index
                    .write_all(&head.key.to_le_bytes())
                    .and_then(|()| index.write_all(&offset.to_le_bytes()))
                    .and_then(|()| index.write_all(&(payload.len() as u32).to_le_bytes()))
                    .map_err(|e| CheckerError::io(&index_path, e))?;
                heap.write_all(&payload)
                    .map_err(|e| CheckerError::io(&heap_path, e))?;
                offset += payload.len() as u64;
                entries += 1;
                let idx_path = idx_path.clone();
                if !advance(head, &idx_path)? {
                    heads.swap_remove(min_ix);
                }
            }
            index
                .flush()
                .map_err(|e| CheckerError::io(&index_path, e))?;
            heap.flush().map_err(|e| CheckerError::io(&heap_path, e))?;
            self.counters.bytes_written += entries * INDEX_RECORD as u64 + offset;
        }
        for run in old_runs {
            // Best-effort cleanup; a leftover file is dead weight, not
            // a correctness problem.
            let _ = fs::remove_file(&run.index_path);
            let _ = fs::remove_file(&run.heap_path);
        }
        self.runs.push(Run {
            index: File::open(&index_path).map_err(|e| CheckerError::io(&index_path, e))?,
            heap: File::open(&heap_path).map_err(|e| CheckerError::io(&heap_path, e))?,
            index_path,
            heap_path,
            entries,
        });
        self.counters.runs_created += 1;
        Ok(())
    }

    /// Every `(key, payload)` on disk, for checkpoint serialization.
    /// Materializes the whole cold tier; checkpoints already hold the
    /// full visited summary in memory while writing.
    pub(crate) fn iter_all(&self) -> Result<Vec<(u128, Vec<u8>)>, CheckerError> {
        let mut all = Vec::new();
        let mut record = [0u8; INDEX_RECORD];
        for run in &self.runs {
            let mut index = BufReader::new(
                File::open(&run.index_path).map_err(|e| CheckerError::io(&run.index_path, e))?,
            );
            let mut heap = BufReader::new(
                File::open(&run.heap_path).map_err(|e| CheckerError::io(&run.heap_path, e))?,
            );
            for _ in 0..run.entries {
                index
                    .read_exact(&mut record)
                    .map_err(|e| CheckerError::io(&run.index_path, e))?;
                let mut cur = &record[..];
                let key = wire::read_u128(&mut cur).expect("index record");
                let _offset = wire::read_u64(&mut cur).expect("index record");
                let len = wire::read_u32(&mut cur).expect("index record");
                let mut payload = vec![0u8; len as usize];
                heap.read_exact(&mut payload)
                    .map_err(|e| CheckerError::io(&run.heap_path, e))?;
                all.push((key, payload));
            }
        }
        Ok(all)
    }

    /// Grows (and rebuilds) the bloom filter when `target` records
    /// would exceed ~16 bits per record of capacity.
    fn grow_bloom_for(&mut self, target: u64) -> Result<(), CheckerError> {
        let wanted = (target.saturating_mul(16) as usize)
            .next_power_of_two()
            .max(1 << 16);
        if wanted <= self.bloom.capacity_bits() {
            return Ok(());
        }
        let mut bloom = Bloom::with_bit_count(wanted);
        let mut record = [0u8; INDEX_RECORD];
        for run in &self.runs {
            let mut index = BufReader::new(
                File::open(&run.index_path).map_err(|e| CheckerError::io(&run.index_path, e))?,
            );
            for _ in 0..run.entries {
                index
                    .read_exact(&mut record)
                    .map_err(|e| CheckerError::io(&run.index_path, e))?;
                let mut cur = &record[..];
                bloom.insert(wire::read_u128(&mut cur).expect("index record"));
            }
        }
        self.bloom = bloom;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A deterministic pseudo-fingerprint stream (splitmix-style), so
    /// tests exercise sparse 128-bit keys without a RNG dependency.
    fn key(i: u64) -> u128 {
        let mut z = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z as u128) << 64) | (z ^ (z >> 31)) as u128
    }

    #[test]
    fn spill_lookup_and_payload_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut store = RunStore::create(&dir, "visited").unwrap();
        let batch: Vec<(u128, Vec<u8>)> = (0..500)
            .map(|i| (key(i), key(i + 1000).to_le_bytes()[..7].to_vec()))
            .collect();
        store.spill(batch.clone()).unwrap();
        for (k, payload) in &batch {
            assert_eq!(store.get(*k).unwrap().as_deref(), Some(&payload[..]));
        }
        assert_eq!(store.get(key(9_999)).unwrap(), None);
        assert_eq!(store.counters.records, 500);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_spills_merge_and_stay_complete() {
        let dir = temp_dir("merge");
        let mut store = RunStore::create(&dir, "visited").unwrap();
        // 20 batches of 64: crosses the merge fan-in twice.
        for b in 0..20u64 {
            let batch: Vec<(u128, Vec<u8>)> =
                (0..64).map(|i| (key(b * 64 + i), vec![b as u8])).collect();
            store.spill(batch).unwrap();
        }
        assert!(
            store.runs.len() < MERGE_FANIN,
            "merge must bound the run count, have {}",
            store.runs.len()
        );
        assert_eq!(store.counters.records, 20 * 64);
        for b in 0..20u64 {
            for i in 0..64 {
                assert_eq!(
                    store.get(key(b * 64 + i)).unwrap(),
                    Some(vec![b as u8]),
                    "key {b}/{i} lost"
                );
            }
        }
        let mut all = store.iter_all().unwrap();
        all.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(all.len(), 20 * 64);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "duplicate keys");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_payloads_cost_no_heap() {
        let dir = temp_dir("empty");
        let mut store = RunStore::create(&dir, "visited").unwrap();
        let batch: Vec<(u128, Vec<u8>)> = (0..100).map(|i| (key(i), Vec::new())).collect();
        store.spill(batch).unwrap();
        assert_eq!(store.get(key(42)).unwrap(), Some(Vec::new()));
        let heap_bytes: u64 = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "heap"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert_eq!(heap_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bloom_grows_without_losing_members() {
        let dir = temp_dir("bloom");
        let mut store = RunStore::create(&dir, "visited").unwrap();
        // Enough records to force at least one bloom rebuild past the
        // 2^16-bit floor.
        let n = 8_000u64;
        store
            .spill((0..n).map(|i| (key(i), Vec::new())).collect())
            .unwrap();
        assert!(store.bloom.capacity_bits() > 1 << 16);
        for i in (0..n).step_by(97) {
            assert!(store.get(key(i)).unwrap().is_some(), "lost key {i}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
