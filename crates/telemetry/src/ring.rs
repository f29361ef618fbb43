//! A lock-free bounded recorder.
//!
//! Writers claim a slot index with one `fetch_add`; indices past the
//! capacity are counted as drops (drop-newest — the head of the trace
//! is preserved, which is what you want when a run blows the budget:
//! the interesting ramp-up is at the start). Each slot carries its own
//! `ready` flag so a reader never observes a half-written record.
//!
//! Draining is final and safe at any time: it takes the records that are
//! ready and closes the ring, so a record made afterwards is counted as
//! dropped. Slots still being written are left to their writers.
//!
//! The slots are allocated in chunks of [`CHUNK`], each when the first
//! index in it is claimed: a ring of 2¹⁸ slots that receives a few dozen
//! records holds one chunk, not 30 MB of empty slots.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::record::Record;

struct Slot {
    ready: AtomicBool,
    value: UnsafeCell<Option<Record>>,
}

// Safety: a slot's `value` is written exactly once, by the unique
// claimant of its index (`claimed` never moves back below the capacity
// once it reaches it, so an index below it is handed out once), and only
// read after `ready` is observed `true` with Acquire ordering, which
// synchronizes with the writer's Release store.
unsafe impl Sync for Slot {}

/// Slots per chunk of a [`RingRecorder`].
const CHUNK: usize = 1024;

/// A bounded, lock-free, multi-producer record buffer.
pub struct RingRecorder {
    /// Slot `i` is `chunks[i / CHUNK]`'s slot `i % CHUNK`; a chunk is
    /// allocated by the first writer to claim an index in it.
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
    capacity: usize,
    claimed: AtomicUsize,
    dropped: AtomicU64,
}

impl RingRecorder {
    /// Creates a recorder holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder {
            chunks: (0..capacity.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
            claimed: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum number of records the recorder retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slot of the claimed `index`, allocating its chunk if it is
    /// the first one claimed there (a writer racing for the same chunk
    /// waits for that one allocation).
    fn slot(&self, index: usize) -> &Slot {
        let chunk = self.chunks[index / CHUNK].get_or_init(|| {
            let len = CHUNK.min(self.capacity - index / CHUNK * CHUNK);
            (0..len)
                .map(|_| Slot {
                    ready: AtomicBool::new(false),
                    value: UnsafeCell::new(None),
                })
                .collect()
        });
        &chunk[index % CHUNK]
    }

    /// Takes the ready records in claim order and closes the ring: every
    /// slot counts as claimed from here on, so later records are dropped.
    ///
    /// Call after the instrumented run has quiesced; a record still being
    /// written when the drain passes its slot is not returned.
    pub fn drain(&self) -> Vec<Record> {
        let capacity = self.capacity;
        let claimed = self.claimed.swap(capacity, Ordering::AcqRel).min(capacity);
        let mut out = Vec::with_capacity(claimed);
        // Every ready slot was claimed before the swap; a chunk no writer
        // has allocated holds none.
        let chunks = self.chunks.iter().filter_map(OnceLock::get);
        for slot in chunks.flat_map(|chunk| chunk.iter()) {
            if slot.ready.swap(false, Ordering::AcqRel) {
                // Safety: `ready` was true, so the writer's Release
                // store happened-before this Acquire; swapping it false
                // gives this thread exclusive take access.
                if let Some(record) = unsafe { (*slot.value.get()).take() } {
                    out.push(record);
                }
            }
        }
        out
    }

    /// Stores one record, or counts it as dropped when the ring is full
    /// or drained. The checker's and the runtime's hooks call it from
    /// their hot loops, so it waits only while another writer allocates
    /// the chunk this record goes to, once per `CHUNK` records.
    pub fn record(&self, record: Record) {
        let index = self.claimed.fetch_add(1, Ordering::AcqRel);
        if index < self.capacity {
            let slot = self.slot(index);
            // Safety: `index` was claimed uniquely by this call; no other
            // writer touches this slot, and readers wait for `ready`.
            unsafe {
                *slot.value.get() = Some(record);
            }
            slot.ready.store(true, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            // Park the counter below the overflow point so repeated
            // drops don't walk it toward wraparound.
            let _ = self.claimed.compare_exchange(
                index + 1,
                self.capacity,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
    }

    /// Records dropped so far because the ring was full or drained.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    fn gauge(value: i64) -> Record {
        Record {
            ts_micros: value as u64,
            tid: 0,
            kind: RecordKind::Gauge { name: "g", value },
        }
    }

    /// A drain is final: a record made after it is counted as dropped
    /// and never returned, although the ring had room for it.
    #[test]
    fn stores_in_claim_order_until_drained() {
        let ring = RingRecorder::new(8);
        for i in 0..5 {
            ring.record(gauge(i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 5);
        for (i, r) in drained.iter().enumerate() {
            assert_eq!(r.ts_micros, i as u64);
        }
        assert_eq!(ring.dropped(), 0);
        ring.record(gauge(9));
        assert_eq!(ring.dropped(), 1);
        assert!(ring.drain().is_empty());
    }

    /// A chunk is allocated when its first index is claimed, and a
    /// capacity that is not a multiple of the chunk still holds exactly
    /// that many records.
    #[test]
    fn chunks_are_allocated_as_records_arrive() {
        let ring = RingRecorder::new(CHUNK * 2 + 5);
        let allocated =
            |ring: &RingRecorder| ring.chunks.iter().filter(|c| c.get().is_some()).count();
        assert_eq!(allocated(&ring), 0);
        ring.record(gauge(0));
        assert_eq!(allocated(&ring), 1);
        for i in 1..(CHUNK * 3) as i64 {
            ring.record(gauge(i));
        }
        assert_eq!(allocated(&ring), 3);
        assert_eq!(ring.dropped(), (CHUNK - 5) as u64);
        let drained = ring.drain();
        assert_eq!(drained.len(), CHUNK * 2 + 5);
        assert!(drained
            .iter()
            .enumerate()
            .all(|(i, r)| r.ts_micros == i as u64));
    }

    #[test]
    fn drops_newest_when_full() {
        let ring = RingRecorder::new(3);
        for i in 0..10 {
            ring.record(gauge(i));
        }
        assert_eq!(ring.dropped(), 7);
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].ts_micros, 0);
        assert_eq!(drained[2].ts_micros, 2);
    }

    #[test]
    fn concurrent_writers_lose_nothing_within_capacity() {
        use std::sync::Arc;
        let ring = Arc::new(RingRecorder::new(4096));
        let mut handles = Vec::new();
        for t in 0..4 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    ring.record(gauge(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 4000);
        assert_eq!(ring.dropped(), 0);
        let mut seen: Vec<i64> = drained
            .iter()
            .map(|r| match r.kind {
                RecordKind::Gauge { value, .. } => value,
                _ => unreachable!(),
            })
            .collect();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, v)| *v == i as i64));
    }
}
