//! A dense, append-only table indexed by machine id, read without a lock.
//!
//! Machine ids are handed out densely and never reused, so per-machine
//! records (inbox depths, supervision counters, routes) live in a table
//! indexed by id. It grows in chunks that double in size and never move,
//! so a reader keeps a plain `&T` while another thread grows the table:
//! indexing is two shifts and an `Acquire` load, no lock and no hash.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Slots in chunk 0; chunk `k` holds `FIRST << k`.
const FIRST: usize = 64;
/// Enough chunks for every `u32` index.
const CHUNKS: usize = 27;

pub(crate) struct SlotTable<T> {
    chunks: [OnceLock<Box<[T]>>; CHUNKS],
    /// One past the highest index [`SlotTable::slot`] was asked for.
    len: AtomicUsize,
}

impl<T: Default> SlotTable<T> {
    pub(crate) fn new() -> SlotTable<T> {
        SlotTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// `(chunk, offset)` of index `idx`.
    fn locate(idx: usize) -> (usize, usize) {
        let n = idx + FIRST;
        let k = (n.ilog2() - FIRST.ilog2()) as usize;
        (k, n - (FIRST << k))
    }

    /// One past the highest index the table has grown to cover.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Slot `idx`, or `None` where the table has not grown that far.
    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        let (k, offset) = Self::locate(idx);
        self.chunks.get(k)?.get().map(|chunk| &chunk[offset])
    }

    /// Slot `idx`, growing the table to cover it. Slots start as
    /// `T::default()`.
    pub(crate) fn slot(&self, idx: usize) -> &T {
        let (k, offset) = Self::locate(idx);
        let chunk = self.chunks[k].get_or_init(|| (0..FIRST << k).map(|_| T::default()).collect());
        if idx >= self.len.load(Ordering::Relaxed) {
            self.len.fetch_max(idx + 1, Ordering::Release);
        }
        &chunk[offset]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunks_tile_the_index_space() {
        let mut expected = (0, 0);
        for idx in 0..10_000 {
            assert_eq!(SlotTable::<u8>::locate(idx), expected, "index {idx}");
            expected.1 += 1;
            if expected.1 == FIRST << expected.0 {
                expected = (expected.0 + 1, 0);
            }
        }
        assert_eq!(SlotTable::<u8>::locate(u32::MAX as usize).0, CHUNKS - 1);
    }

    #[test]
    fn slots_keep_their_address_and_value_while_the_table_grows() {
        let table: SlotTable<AtomicU64> = SlotTable::new();
        assert!(table.get(3).is_none());
        let early = table.slot(3);
        early.store(7, Ordering::Relaxed);
        assert_eq!(table.len(), 4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let table = &table;
                s.spawn(move || {
                    for idx in (t..5_000).step_by(4) {
                        table.slot(idx).fetch_add(idx as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(table.len(), 5_000);
        assert!(std::ptr::eq(early, table.slot(3)));
        assert_eq!(early.load(Ordering::Relaxed), 7 + 3);
        assert_eq!(table.get(4_999).unwrap().load(Ordering::Relaxed), 4_999);
        // A slot in an allocated chunk past `len` reads as the default.
        assert_eq!(table.get(5_000).map(|s| s.load(Ordering::Relaxed)), Some(0));
    }
}
