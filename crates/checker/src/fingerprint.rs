//! Collision-safe 128-bit state fingerprints.
//!
//! The explorers deduplicate states by fingerprint instead of storing
//! full canonical encodings. A 64-bit hash is unsound for that use: by
//! the birthday bound, a search visiting `n` states has collision
//! probability ≈ `n²/2⁶⁵`, so a 10⁷-state run silently merges distinct
//! states about once per 3 × 10⁵ runs — and a merged state both prunes a
//! reachable (possibly buggy) region while still reporting
//! `complete: true`, and corrupts the fingerprint-keyed parent map used
//! for trace reconstruction. At 128 bits the same run's collision
//! probability is ≈ 10¹⁴ × smaller than the chance of a cosmic-ray bit
//! flip, which is the usual explicit-state-checker standard (cf. SPIN's
//! hash-compaction analysis).
//!
//! The hash is SipHash-2-4 with the 128-bit output extension and a
//! fixed key ([`p_semantics::hash`], where the implementation and its
//! reference vectors live), so fingerprints are stable across threads,
//! runs and processes — parallel workers, replay tooling and persisted
//! reports all agree on a state's identity.
//!
//! Since the copy-on-write configuration refactor, the usual way to
//! fingerprint a configuration is [`Fingerprint::from_u128`] over
//! [`p_semantics::Config::digest`], which re-hashes only the machine
//! that just ran; [`Fingerprint::of`] hashes raw bytes and remains for
//! composite node keys (scheduler or fault annotations) and tests.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use p_semantics::hash::fingerprint128;

/// A 128-bit state fingerprint, used as the visited-set and parent-map
/// key by every exploration strategy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Fingerprints a canonical state encoding.
    pub fn of(bytes: &[u8]) -> Fingerprint {
        Fingerprint(fingerprint128(bytes))
    }

    /// Wraps an already-computed 128-bit digest (the incremental
    /// [`p_semantics::Config::digest`]).
    pub fn from_u128(digest: u128) -> Fingerprint {
        Fingerprint(digest)
    }

    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Shard index derived from the fingerprint's top bits (the prefix),
    /// for `shards` equal-sized shards. Prefix sharding balances shards
    /// without a second hash only if every key is uniform in its top
    /// bits. A [`p_semantics::Config::digest`] is (it ends in an
    /// avalanche), and so is a canonical key that is the digest of one
    /// renumbered configuration; the *minimum* of k candidate digests
    /// is not — it falls into shard 0 with probability 1 − (63/64)ᵏ —
    /// which is why [`p_semantics::canonical_digest`] re-mixes a key it
    /// took a minimum for.
    pub(crate) fn shard(self, shards: usize) -> usize {
        debug_assert!(shards.is_power_of_two());
        (self.0 >> (128 - shards.trailing_zeros())) as usize
    }
}

/// Hash-map hasher for [`Fingerprint`] keys: the fingerprint is already
/// a uniform SipHash-2-4-128 output, so re-hashing it with the standard
/// library's SipHash-1-3 is pure overhead. This hasher passes the low 64
/// bits through unchanged — the same trust in SipHash uniformity the
/// shard router ([`Fingerprint::shard`]) already relies on (it uses the
/// *high* bits, so shard choice and bucket choice stay independent).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("FpHasher only accepts Fingerprint keys (write_u128)");
    }

    fn write_u128(&mut self, n: u128) {
        self.0 = n as u64;
    }
}

/// `BuildHasher` for [`FpHasher`].
pub(crate) type FpBuildHasher = std::hash::BuildHasherDefault<FpHasher>;

/// A `HashMap` keyed by fingerprints, skipping the redundant re-hash.
pub(crate) type FpHashMap<V> = std::collections::HashMap<Fingerprint, V, FpBuildHasher>;

/// A `HashSet` of fingerprints, skipping the redundant re-hash.
pub(crate) type FpHashSet = std::collections::HashSet<Fingerprint, FpBuildHasher>;

/// Keys per [`VisitedSet`] bucket: four 16-byte keys fill one line.
const BUCKET_KEYS: usize = 4;

/// One key of a bucket as two words, each written atomically, so that
/// a probe without the lock may read the slot while its owner writes it
/// (DESIGN.md §13): `lo` is stored first and `hi` is published after it,
/// so whoever reads a key's `hi` reads its `lo` too.
#[derive(Default)]
#[repr(C)]
struct Slot {
    lo: AtomicU64,
    hi: AtomicU64,
}

impl Slot {
    /// The key held, `0` for none, as the holder of the set sees it.
    #[inline]
    fn key(&self) -> u128 {
        u128::from(self.hi.load(Ordering::Relaxed)) << 64
            | u128::from(self.lo.load(Ordering::Relaxed))
    }

    /// Writes `key`: the low word, then the high word published.
    #[inline]
    fn set(&self, key: u128) {
        self.lo.store(key as u64, Ordering::Relaxed);
        self.hi.store((key >> 64) as u64, Ordering::Release);
    }
}

/// One cache line of keys; `0` marks an empty slot.
#[derive(Default)]
#[repr(C, align(64))]
struct Bucket([Slot; BUCKET_KEYS]);

const _: () = assert!(std::mem::size_of::<Bucket>() == 64);

// SAFETY: a bucket is eight `AtomicU64`s, and zero bytes are the integer 0.
unsafe impl Zeroed for Bucket {}
// SAFETY: zero bytes are four `u8` zeros.
unsafe impl Zeroed for [u8; BUCKET_KEYS] {}

/// Whole pages of memory of their own for the [`VisitedSet`] arrays. A
/// module apart, so that only its functions can change what its
/// `unsafe` blocks rely on.
mod pages {
    use std::ptr::NonNull;

    /// The granule of [`Pages`]: a mapping is a whole number of these.
    pub(super) const PAGE: usize = 4096;

    /// A type whose all-zero bytes are a valid value, so that [`Pages`]
    /// can hand out fresh anonymous pages as values of it.
    ///
    /// # Safety
    ///
    /// The all-zero bit pattern must be a valid value of the type.
    pub(super) unsafe trait Zeroed {}

    /// `len` values of `T` in an anonymous private mapping of their own,
    /// made of whole pages (DESIGN.md §13): dropping it gives the pages
    /// straight back to the kernel, so no allocator keeps them resident,
    /// and so does [`Pages::give_back`], which keeps them mapped. Empty,
    /// it maps nothing.
    pub(super) struct Pages<T: Zeroed> {
        ptr: NonNull<T>,
        len: usize,
        /// Bytes mapped at `ptr`, a multiple of [`PAGE`]; 0 for none.
        mapped: usize,
    }

    impl<T: Zeroed> Pages<T> {
        /// `len` zeroed values on pages of their own.
        pub(super) fn zeroed(len: usize) -> Pages<T> {
            const { assert!(std::mem::align_of::<T>() <= PAGE) };
            let mapped = (len * std::mem::size_of::<T>()).next_multiple_of(PAGE);
            if mapped == 0 {
                return Pages::default();
            }
            let ptr = sys::map(mapped).cast();
            counted(mapped as isize);
            Pages { ptr, len, mapped }
        }

        /// Hands the pages' memory back to the kernel at once but keeps
        /// them mapped: every value reads as zero bytes from here on (a
        /// valid `T`), and a page takes memory again only when written.
        /// A thread that still holds their address reads zeros, never
        /// an unmapped page.
        pub(super) fn give_back(&mut self) {
            if self.mapped > 0 {
                // SAFETY: `ptr` and `mapped` are what `map` returned and
                // was asked for; `&mut self` leaves no value borrowed, and
                // zero bytes are a `T` (`Zeroed`).
                unsafe { sys::zero(self.ptr.cast(), self.mapped) }
            }
        }

        /// Bytes mapped, a whole number of pages.
        #[cfg(test)]
        pub(super) fn mapped(&self) -> usize {
            self.mapped
        }
    }

    impl<T: Zeroed> Default for Pages<T> {
        fn default() -> Pages<T> {
            Pages {
                ptr: NonNull::dangling(),
                len: 0,
                mapped: 0,
            }
        }
    }

    impl<T: Zeroed> Drop for Pages<T> {
        fn drop(&mut self) {
            if self.mapped > 0 {
                counted(-(self.mapped as isize));
                // SAFETY: `ptr` and `mapped` are what `map` returned and
                // was asked for, and nothing borrows the values past this
                // drop.
                unsafe { sys::unmap(self.ptr.cast(), self.mapped) }
            }
        }
    }

    impl<T: Zeroed> std::ops::Deref for Pages<T> {
        type Target = [T];
        fn deref(&self) -> &[T] {
            // SAFETY: `len` values fit the `mapped` bytes at `ptr`, which
            // this owns (`zeroed` sized them so, and nothing changes
            // either after); `ptr` is page-aligned, so aligned for `T`
            // (`zeroed` checks it); each value is initialised, as a
            // mapping starts zeroed, `give_back` zeroes it, and zero
            // bytes are a `T` (`Zeroed`). Empty, `ptr` is dangling but
            // aligned, as an empty slice's may be.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl<T: Zeroed> std::ops::DerefMut for Pages<T> {
        fn deref_mut(&mut self) -> &mut [T] {
            // SAFETY: as for `deref`; `&mut self` makes the borrow unique.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    // SAFETY: `Pages` owns its values as a `Box<[T]>` does: `ptr` is
    // shared with no one, and `len` and `mapped` are plain values.
    unsafe impl<T: Zeroed + Send> Send for Pages<T> {}
    // SAFETY: `&Pages` only gives out `&[T]`, as `&Box<[T]>` does.
    unsafe impl<T: Zeroed + Sync> Sync for Pages<T> {}

    /// The system side: `mmap`, `munmap` and `madvise`, declared here as
    /// the repository vendors no `libc` crate.
    mod sys {
        use std::alloc::{handle_alloc_error, Layout};
        use std::ffi::{c_int, c_long, c_void};
        use std::ptr::NonNull;

        const PROT_READ: c_int = 1;
        const PROT_WRITE: c_int = 2;
        const MAP_PRIVATE: c_int = 2;
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        const MAP_FIXED: c_int = 0x10;
        #[cfg(any(target_os = "linux", target_os = "android"))]
        const MAP_ANONYMOUS: c_int = 0x20;
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        const MAP_ANONYMOUS: c_int = 0x1000;
        /// Fault the pages in with the mapping: one call in place of a
        /// fault per page, which the set would take anyway (a rehash
        /// writes every page of its table).
        #[cfg(any(target_os = "linux", target_os = "android"))]
        const MAP_POPULATE: c_int = 0x8000;
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        const MAP_POPULATE: c_int = 0;
        /// Drop the pages: a private anonymous page reads as zeros after.
        #[cfg(any(target_os = "linux", target_os = "android"))]
        const MADV_DONTNEED: c_int = 4;

        extern "C" {
            fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: c_long,
            ) -> *mut c_void;
            fn munmap(addr: *mut c_void, len: usize) -> c_int;
            #[cfg(any(target_os = "linux", target_os = "android"))]
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }

        /// `bytes` (whole pages) of zeroed memory in a mapping of their
        /// own; a failed mapping aborts as a failed allocation does.
        pub(super) fn map(bytes: usize) -> NonNull<u8> {
            // SAFETY: an anonymous private mapping at an address of the
            // kernel's choosing aliases nothing: it reads no memory of
            // ours and changes none.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    bytes,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE,
                    -1,
                    0,
                )
            };
            // `MAP_FAILED` is the address −1.
            if ptr as isize == -1 {
                handle_alloc_error(Layout::from_size_align(bytes, super::PAGE).unwrap())
            }
            super::mapping(1);
            NonNull::new(ptr.cast()).expect("mmap returns no null mapping")
        }

        /// Frees the memory of what [`map`] returned and leaves it mapped
        /// and reading as zeros.
        ///
        /// # Safety
        ///
        /// `ptr` and `bytes` are a [`map`] call's result and argument,
        /// and every value there is one that zero bytes may replace.
        pub(super) unsafe fn zero(ptr: NonNull<u8>, bytes: usize) {
            // SAFETY: the caller's contract: the range is one whole
            // mapping of ours. Dropping the pages of a private anonymous
            // mapping leaves it mapped, zero-filled on the next touch.
            #[cfg(any(target_os = "linux", target_os = "android"))]
            let done = unsafe { madvise(ptr.as_ptr().cast(), bytes, MADV_DONTNEED) } == 0;
            // SAFETY: as above; a fixed anonymous mapping over the range
            // replaces its pages with fresh zeroed ones in one call.
            #[cfg(not(any(target_os = "linux", target_os = "android")))]
            let done = unsafe {
                mmap(
                    ptr.as_ptr().cast(),
                    bytes,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED,
                    -1,
                    0,
                )
            } == ptr.as_ptr().cast();
            assert!(done, "the kernel kept pages it was handed back");
        }

        /// Unmaps what [`map`] returned.
        ///
        /// # Safety
        ///
        /// `ptr` and `bytes` are a [`map`] call's result and argument,
        /// and nothing reads or writes the mapping after this.
        pub(super) unsafe fn unmap(ptr: NonNull<u8>, bytes: usize) {
            super::mapping(-1);
            // SAFETY: the caller's contract: the range is one whole
            // mapping of ours that nothing uses any more. Unmapping a
            // whole mapping splits none, so it cannot fail for want of
            // room, and a drop has no one to tell if it did.
            let _ = unsafe { munmap(ptr.as_ptr().cast(), bytes) };
        }
    }

    /// What this thread's mappings hold, in test builds.
    #[cfg(test)]
    #[derive(Clone, Copy, Default)]
    struct Held {
        /// Bytes mapped and not unmapped or given back.
        bytes: isize,
        /// Mappings made and not unmapped.
        mappings: isize,
        /// The most `mappings` has been since [`mappings_peak`] last
        /// read it.
        peak: isize,
    }

    #[cfg(test)]
    thread_local! {
        static HELD: std::cell::Cell<Held> = const {
            std::cell::Cell::new(Held { bytes: 0, mappings: 0, peak: 0 })
        };
    }

    /// Bytes this thread has mapped and not unmapped, in test builds.
    #[cfg(test)]
    pub(super) fn mapped_bytes() -> isize {
        HELD.with(|held| held.get().bytes)
    }

    /// The mappings this thread holds, and the most it has held since
    /// the last call (which starts the next such span), in test builds.
    #[cfg(test)]
    pub(super) fn mappings_peak() -> (isize, isize) {
        HELD.with(|held| {
            let now = held.get();
            held.set(Held {
                peak: now.mappings,
                ..now
            });
            (now.mappings, now.peak)
        })
    }

    /// Counts `bytes` held (negative: handed back) in test builds.
    fn counted(bytes: isize) {
        #[cfg(test)]
        HELD.with(|held| {
            let now = held.get();
            held.set(Held {
                bytes: now.bytes + bytes,
                ..now
            })
        });
        #[cfg(not(test))]
        let _ = bytes;
    }

    /// Counts `n` mappings made (negative: unmapped) in test builds.
    fn mapping(n: isize) {
        #[cfg(test)]
        HELD.with(|held| {
            let now = held.get();
            let mappings = now.mappings + n;
            let peak = now.peak.max(mappings);
            held.set(Held {
                mappings,
                peak,
                ..now
            })
        });
        #[cfg(not(test))]
        let _ = n;
    }
}

/// The page mappings this thread's visited sets hold, and the most they
/// held since the last call, in test builds.
#[cfg(test)]
pub(crate) fn mappings_peak() -> (isize, isize) {
    pages::mappings_peak()
}

use pages::{Pages, Zeroed};

/// Buckets a [`VisitedSet`] holds in itself before it maps pages: a
/// search of a few thousand states (64 shards of up to 56 keys) maps
/// none, as mapping and unmapping a page for each shard costs more than
/// such a search.
const INLINE: usize = 16;

/// A set of fingerprints whose probe reads one cache line (DESIGN.md
/// §13): open addressing over 64-byte buckets of four keys, probed
/// linearly from the bucket the key's low bits name (the shard router
/// takes its top bits), doubled at 7/8 load. `0` marks an empty slot, so
/// the fingerprint 0 is held apart. Nothing is removed, so a probe ends
/// at the first empty slot.
///
/// A table of up to [`INLINE`] buckets is in the set itself; a larger
/// one is on [`Pages`] of its own, not heap memory: when a grow replaces
/// them or a spill drains the set, the old generation's memory goes back
/// to the kernel at once instead of staying resident in the allocator's
/// free lists. Its mapping stays, reading zeros, for as long as the set
/// lives, so that [`VisitedSet::holds`] through a stale hint reads
/// mapped memory; a later table of the same size takes it up again, so
/// a set keeps at most one mapping per size.
///
/// Each key carries a one-byte code, 0 until [`VisitedSet::set_code`]
/// changes it (the checker keeps a sleep set's code there, DESIGN.md
/// §10). The codes sit beside the buckets, four bytes per bucket, from
/// the first non-zero code on: a set that only ever holds 0 maps none.
#[derive(Default)]
pub(crate) struct VisitedSet {
    /// The buckets and codes of a table of up to [`INLINE`] buckets.
    inline: ([Bucket; INLINE], [[u8; BUCKET_KEYS]; INLINE]),
    /// The buckets of a larger table.
    pages: Pages<Bucket>,
    /// The codes of a larger table, once `coded`.
    code_pages: Pages<[u8; BUCKET_KEYS]>,
    /// The buckets of the tables this set replaced or drained, their
    /// memory given back: at most one mapping per size.
    retired: Vec<Pages<Bucket>>,
    /// Buckets in the table: 0 or a power of two.
    buckets: usize,
    /// Whether a non-zero code has been stored: before, every code is 0
    /// and none is kept.
    coded: bool,
    /// Keys in the table.
    len: usize,
    /// The code of the fingerprint 0, if held.
    zero: Option<u8>,
}

impl VisitedSet {
    pub(crate) fn len(&self) -> usize {
        self.len + usize::from(self.zero.is_some())
    }

    /// Bytes of the buckets and the codes the table uses, wherever they
    /// are and not rounded to pages: a set of one bucket counts 64.
    pub(crate) fn bytes(&self) -> usize {
        self.buckets * std::mem::size_of::<Bucket>() + self.codes().len() * BUCKET_KEYS
    }

    pub(crate) fn contains(&self, key: Fingerprint) -> bool {
        self.code(key).is_some()
    }

    /// The code of `key`, if held.
    pub(crate) fn code(&self, key: Fingerprint) -> Option<u8> {
        match key.0 {
            0 => self.zero,
            _ if self.buckets == 0 => None,
            key => self.probe(key).ok().map(|(b, s)| self.slot_code(b, s)),
        }
    }

    fn slot_code(&self, b: usize, s: usize) -> u8 {
        self.codes().get(b).map_or(0, |codes| codes[s])
    }

    /// Whether the table is on pages and every code is 0: then a key
    /// [`VisitedSet::holds`] finds through [`VisitedSet::hint`] has code 0.
    pub(crate) fn paged_and_uncoded(&self) -> bool {
        self.buckets > INLINE && !self.coded
    }

    /// Whether the next insert of a key not held moves the table.
    pub(crate) fn full(&self) -> bool {
        (self.len + 1) * 8 > self.buckets * BUCKET_KEYS * 7
    }

    /// The table's buckets, wherever they are.
    fn table(&self) -> &[Bucket] {
        match self.buckets <= INLINE {
            true => &self.inline.0[..self.buckets],
            false => &self.pages,
        }
    }

    /// The table's codes; empty until `coded`.
    fn codes(&self) -> &[[u8; BUCKET_KEYS]] {
        match (self.coded, self.buckets <= INLINE) {
            (false, _) => &[],
            (true, true) => &self.inline.1[..self.buckets],
            (true, false) => &self.code_pages,
        }
    }

    /// Adds `key` with code 0; whether it was new.
    pub(crate) fn insert(&mut self, key: Fingerprint) -> bool {
        if key.0 == 0 {
            let new = self.zero.is_none();
            self.zero.get_or_insert(0);
            return new;
        }
        if self.full() {
            self.grow();
        }
        let Err((b, s)) = self.probe(key.0) else {
            return false;
        };
        self.place(b, s, key.0, 0);
        self.len += 1;
        true
    }

    /// Sets the code of the held `key`.
    pub(crate) fn set_code(&mut self, key: Fingerprint, code: u8) {
        if key.0 == 0 {
            assert!(self.zero.is_some(), "set_code on a key not held");
            self.zero = Some(code);
            return;
        }
        let Ok((b, s)) = self.probe(key.0) else {
            panic!("set_code on a key not held")
        };
        if !self.coded {
            if code == 0 {
                return;
            }
            self.coded = true;
            if self.buckets > INLINE {
                self.code_pages = Pages::zeroed(self.buckets);
            }
        }
        self.place(b, s, key.0, code);
    }

    /// Writes `key` with `code` (0 until `coded`) into slot `s` of
    /// bucket `b`.
    fn place(&mut self, b: usize, s: usize, key: u128, code: u8) {
        self.table()[b].0[s].set(key);
        if self.coded {
            let codes = match self.buckets <= INLINE {
                true => &mut self.inline.1[b],
                false => &mut self.code_pages[b],
            };
            codes[s] = code;
        }
    }

    /// Where the non-zero `key` is as (bucket, slot) if held, else the
    /// empty slot it goes to. The load bound leaves one slot empty.
    fn probe(&self, key: u128) -> Result<(usize, usize), (usize, usize)> {
        let table = self.table();
        let mask = table.len() - 1;
        let mut b = key as usize & mask;
        loop {
            for (s, slot) in table[b].0.iter().enumerate() {
                let held = slot.key();
                if held == key {
                    return Ok((b, s));
                }
                if held == 0 {
                    return Err((b, s));
                }
            }
            b = (b + 1) & mask;
        }
    }

    /// Doubles the table: into the set itself while it stays small, else
    /// onto pages, a retired mapping of that size if there is one. The
    /// old generation is zeroed, or retired once it is rehashed.
    fn grow(&mut self) {
        let (old, buckets) = (self.buckets, (2 * self.buckets).max(1));
        let inline = std::mem::take(&mut self.inline);
        let old_pages = std::mem::take(&mut self.pages);
        let old_codes = std::mem::take(&mut self.code_pages);
        let held: (&[Bucket], &[[u8; BUCKET_KEYS]]) = match old <= INLINE {
            true => (&inline.0[..old], &inline.1),
            false => (&old_pages, &old_codes),
        };
        if buckets > INLINE {
            self.pages = self.unretire(buckets);
            if self.coded {
                self.code_pages = Pages::zeroed(buckets);
            }
        }
        self.buckets = buckets;
        for (key, code) in slots(held.0, held.1) {
            let Err((b, s)) = self.probe(key) else {
                unreachable!("the keys of a set are distinct")
            };
            self.place(b, s, key, code);
        }
        self.retire(old_pages);
    }

    /// Zeroed pages for a table of `buckets`: the retired mapping of that
    /// size, taken back, or a new one.
    fn unretire(&mut self, buckets: usize) -> Pages<Bucket> {
        match self.retired.iter().position(|pages| pages.len() == buckets) {
            Some(i) => self.retired.swap_remove(i),
            None => Pages::zeroed(buckets),
        }
    }

    /// Gives the memory of a replaced table's `pages` back and keeps
    /// their mapping for a later table of their size.
    fn retire(&mut self, mut pages: Pages<Bucket>) {
        if !pages.is_empty() {
            pages.give_back();
            self.retired.push(pages);
        }
    }

    /// Empties the set, as a spill drains it: the table's memory goes
    /// back to the kernel, its mapping stays retired, and the codes are
    /// unmapped.
    pub(crate) fn clear(&mut self) {
        let pages = std::mem::take(&mut self.pages);
        self.retire(pages);
        let retired = std::mem::take(&mut self.retired);
        *self = VisitedSet {
            retired,
            ..VisitedSet::default()
        };
    }

    /// Every key with its code.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Fingerprint, u8)> + '_ {
        let zero = self.zero.map(|code| (0, code));
        zero.into_iter()
            .chain(slots(self.table(), self.codes()))
            .map(|(k, code)| (Fingerprint(k), code))
    }

    /// Where the buckets are, for [`VisitedSet::prefetch`] and
    /// [`VisitedSet::holds`]: their base address (64-byte aligned) with
    /// log₂ of their number in the low six bits, or 0 for none.
    pub(crate) fn hint(&self) -> usize {
        match self.buckets {
            0 => 0,
            n => self.table().as_ptr().expose_provenance() | n.trailing_zeros() as usize,
        }
    }

    /// Starts loading the bucket a probe for `key` reads first, in the
    /// buckets `hint` describes. The hint may be stale — the set grown or
    /// drained since — and the line fetched useless then, never wrong.
    #[inline]
    pub(crate) fn prefetch(hint: usize, key: Fingerprint) {
        if hint == 0 {
            return;
        }
        let mask = (1usize << (hint & 63)) - 1;
        prefetch_line((hint & !63) + (key.0 as usize & mask) * std::mem::size_of::<Bucket>());
    }

    /// Whether the buckets `hint` describes hold `key`, read without the
    /// set's lock while its owner may write them: `true` is "held",
    /// `false` "not known" — an empty slot, a slot half written, a table
    /// on no pages, or a key with a zero word, which the reader cannot
    /// tell from an empty slot's. Each slot's high word is read
    /// `Acquire` and then its low word, so a key seen whole was written
    /// whole by one [`Slot::set`] — or, if the pages were given back and
    /// taken up again meanwhile, its words came from two writes, which
    /// the caller rules out (DESIGN.md §13). The probe stops after one
    /// pass over the buckets.
    ///
    /// # Safety
    ///
    /// `hint` is a [`VisitedSet::hint`] of a set that is still alive, so
    /// that every mapping it ever had is still mapped.
    #[inline]
    pub(crate) unsafe fn holds(hint: usize, key: Fingerprint) -> bool {
        let (lo, hi) = (key.0 as u64, (key.0 >> 64) as u64);
        let log2 = hint & 63;
        if lo == 0 || hi == 0 || log2 <= INLINE.trailing_zeros() as usize {
            return false;
        }
        let buckets = 1usize << log2;
        let base = std::ptr::with_exposed_provenance::<Bucket>(hint & !63);
        // SAFETY: a hint with more than `INLINE` buckets names the pages
        // of one of the set's tables — its buckets, page-aligned and
        // initialised — and the caller's contract keeps that mapping
        // mapped: a set gives its retired tables' memory back but unmaps
        // them only when it is dropped. The set writes buckets only
        // through their atomics, and giving the pages back only turns
        // their words into zeros, so a shared view of them is sound.
        let table = unsafe { std::slice::from_raw_parts(base, buckets) };
        let mut b = lo as usize & (buckets - 1);
        for _ in 0..buckets {
            for slot in &table[b].0 {
                match slot.hi.load(Ordering::Acquire) {
                    0 => return false,
                    held if held == hi && slot.lo.load(Ordering::Relaxed) == lo => return true,
                    _ => {}
                }
            }
            b = (b + 1) & (buckets - 1);
        }
        false
    }
}

/// The held keys of `buckets` with their codes; `codes` may be empty
/// (every code 0).
fn slots<'a>(
    buckets: &'a [Bucket],
    codes: &'a [[u8; BUCKET_KEYS]],
) -> impl Iterator<Item = (u128, u8)> + 'a {
    let codes = codes
        .iter()
        .copied()
        .chain(std::iter::repeat([0; BUCKET_KEYS]));
    buckets
        .iter()
        .zip(codes)
        .flat_map(|(bucket, codes)| bucket.0.iter().map(Slot::key).zip(codes))
        .filter(|&(key, _)| key != 0)
}

/// Starts loading the cache line at address `line` (the crate's one
/// prefetch, for the visited buckets and the canon memo).
#[inline]
pub(crate) fn prefetch_line(line: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that reads no memory of the abstract
    // machine and cannot fault, whatever the address, so one through a
    // freed or out-of-range line is harmless.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(line as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = line;
}

impl fmt::Debug for VisitedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let buckets = self.buckets;
        write!(f, "VisitedSet({} keys, {buckets} buckets)", self.len())
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_across_calls() {
        let data = b"the same bytes fingerprint identically";
        assert_eq!(Fingerprint::of(data), Fingerprint::of(data));
    }

    #[test]
    fn from_u128_round_trips() {
        let fp = Fingerprint::of(b"probe");
        assert_eq!(Fingerprint::from_u128(fp.as_u128()), fp);
    }

    #[test]
    fn distinct_short_inputs_never_collide() {
        // Exhaustive over all 1- and 2-byte inputs plus the empty input:
        // any collision here would be an implementation bug, not bad luck.
        let mut seen = HashSet::new();
        assert!(seen.insert(Fingerprint::of(&[])));
        for a in 0..=255u8 {
            assert!(seen.insert(Fingerprint::of(&[a])));
            for b in 0..=255u8 {
                assert!(seen.insert(Fingerprint::of(&[a, b])));
            }
        }
        assert_eq!(seen.len(), 1 + 256 + 256 * 256);
    }

    #[test]
    fn single_bit_flip_avalanches() {
        let base = Fingerprint::of(b"avalanche-probe").as_u128();
        let mut data = *b"avalanche-probe";
        data[3] ^= 1;
        let flipped = Fingerprint::of(&data).as_u128();
        let differing = (base ^ flipped).count_ones();
        // A good 128-bit hash flips ~64 output bits; anything in a wide
        // band around that rules out gross mixing bugs.
        assert!((32..=96).contains(&differing), "{differing} bits differ");
    }

    #[test]
    fn canonical_digest_reference_vectors() {
        // Pins the symmetry-reduced digest of a fixed three-machine ring
        // so the canonical encoding cannot drift silently: sequential
        // and parallel engines (and a resumed process) must assign the
        // same canonical key to the same orbit. A deliberate encoding
        // revision should update the constant alongside its changelog
        // entry.
        use p_semantics::{canonical_digest, Config, Value};

        let p = crate::tests::lowered(
            "event ping : id; machine M { var peer : id, n : int; state A { } } main M();",
        );

        let mut c = Config::default();
        let ids: Vec<_> = (0..3).map(|_| c.allocate(&p, p.main)).collect();
        for i in 0..3 {
            c.machine_mut(ids[i]).unwrap().locals[0] = Value::Machine(ids[(i + 1) % 3]);
        }
        // One distinguished machine, so rotating the ring moves concrete
        // content (the orbit has three distinct members).
        c.machine_mut(ids[0]).unwrap().locals[1] = Value::Int(7);
        let canonical = Fingerprint::from_u128(canonical_digest(&mut c));

        // Every rotation of the ring is a distinct concrete state in the
        // same orbit: concrete fingerprints differ, canonical key agrees.
        let mut sym = c.apply_permutation(&[1, 2, 0]);
        assert_ne!(
            Fingerprint::from_u128(sym.digest()),
            Fingerprint::from_u128(c.digest())
        );
        assert_eq!(
            Fingerprint::from_u128(canonical_digest(&mut sym)),
            canonical
        );

        // Revised when the digest fold became the position-weighted
        // linear (delta-maintainable) combine and slot digests moved to
        // reduced-round SipHash-1-3 (DESIGN.md §15), and again when
        // member digests took the slot tag byte and the codes of their
        // own references only, which picks another rotation of this
        // ring as its representative (DESIGN.md §12; checkpoint
        // version 3).
        assert_eq!(canonical.to_string(), "9284045b9c214a84c5cbe8d18bf8aa35");
    }

    /// The one-line-bucket set against a `BTreeMap` of keys to codes:
    /// random inserts, lookups and code changes from a key mix that holds
    /// 0, keys that all name bucket 0, keys that name the last bucket (so
    /// their probes wrap around), and spread keys; through growth,
    /// iteration, a drain and reuse after it. Every key is yielded once,
    /// with its code. The codes stay unallocated until one is non-zero.
    #[test]
    fn visited_set_matches_a_btree_map() {
        use std::collections::BTreeMap;
        let mut rng = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 16
        };
        let mut set = VisitedSet::default();
        let mut model = BTreeMap::new();
        for round in 0..4 {
            // Odd rounds store codes; even ones start from a drained set
            // and store none, so the code array must stay unallocated.
            let coded = round % 2 == 1;
            for _ in 0..20_000 {
                let n = u128::from(next() % 300 + 1);
                let key = match next() % 8 {
                    0 => 0,
                    1 => n << 64,
                    2 => n << 64 | u128::from(u64::MAX),
                    _ => Fingerprint::of(&(next() % 6_000).to_le_bytes()).0,
                };
                let fp = Fingerprint(key);
                match next() % 4 {
                    0 => assert_eq!(set.code(fp), model.get(&key).copied(), "{key:#x}"),
                    1 if coded && model.contains_key(&key) => {
                        let code = (next() % 256) as u8;
                        set.set_code(fp, code);
                        model.insert(key, code);
                    }
                    _ => {
                        let new = !model.contains_key(&key);
                        model.entry(key).or_insert(0);
                        assert_eq!(set.insert(fp), new, "{key:#x}");
                    }
                }
                assert_eq!(set.len(), model.len());
            }
            let mut listed: Vec<(u128, u8)> = set.iter().map(|(k, c)| (k.0, c)).collect();
            listed.sort_unstable();
            assert!(listed.into_iter().eq(model.clone()), "round {round}: iter");
            assert!(
                set.len * 8 <= set.buckets * BUCKET_KEYS * 7,
                "over 7/8 load"
            );
            let codes = if coded { set.buckets } else { 0 };
            assert_eq!(set.codes().len(), codes, "round {round}: code array");
            if coded {
                let drained = std::mem::take(&mut set);
                let mut drained: Vec<(u128, u8)> = drained.iter().map(|(k, c)| (k.0, c)).collect();
                drained.sort_unstable();
                assert!(
                    drained.into_iter().eq(model.clone()),
                    "round {round}: drain"
                );
                assert_eq!((set.len(), set.bytes(), set.hint()), (0, 0, 0));
                assert!(!set.contains(Fingerprint(0)));
                model.clear();
            }
        }
    }

    /// The set's memory is the set itself while its table has at most
    /// [`INLINE`] buckets, then whole pages of its own, counted as this
    /// thread maps and unmaps them: exactly the buckets rounded up to a
    /// page, and as much for the codes from the first non-zero one
    /// (stored while the table was still inline), besides the mappings
    /// of the generations grows replaced, which stay mapped but read as
    /// zeros (their memory given back). A drop unmaps every page.
    #[test]
    fn visited_pages_are_whole_and_given_back() {
        let mapped = pages::mapped_bytes;
        let base = mapped();
        let pages = |bytes: usize| bytes.next_multiple_of(pages::PAGE) as isize;
        let mut set = VisitedSet::default();
        let mut grown = 0;
        let key = |i: u64| Fingerprint::of(&i.to_le_bytes());
        for i in 0..20_000 {
            set.insert(key(i));
            if i == 20 {
                set.set_code(key(7), 0);
                assert!(!set.coded, "a zero code keeps no codes");
                set.set_code(key(7), 9);
            }
            let (buckets, codes) = (set.buckets, set.codes().len());
            let want = match buckets <= INLINE {
                true => 0,
                false => {
                    pages(buckets * std::mem::size_of::<Bucket>()) + pages(codes * BUCKET_KEYS)
                }
            };
            if buckets != grown {
                grown = buckets;
                assert!(
                    set.retired
                        .iter()
                        .all(|old| old.iter().all(|b| b.0.iter().all(|s| s.key() == 0))),
                    "{i}: a replaced generation reads as zeros"
                );
            }
            let retired: isize = set.retired.iter().map(|old| old.mapped() as isize).sum();
            assert_eq!(
                mapped() - base - retired,
                want,
                "{i}: {buckets} buckets, {codes} codes"
            );
            if buckets > INLINE {
                assert_eq!(
                    set.hint() & (pages::PAGE - 64),
                    0,
                    "{i}: a page-aligned base"
                );
            }
            let code = if i >= 20 { 9 } else { 0 };
            assert_eq!(set.code(key(7)), (i >= 7).then_some(code));
        }
        assert_eq!(set.bytes(), set.buckets * 68, "the logical bytes");
        let drained = std::mem::take(&mut set);
        assert!(mapped() > base && set.bytes() == 0 && set.hint() == 0);
        assert_eq!(drained.iter().count(), 20_000);
        drop(drained);
        assert_eq!(mapped(), base, "a dropped set unmaps its pages");
        (0..100).for_each(|i| assert!(set.insert(key(i))));
        assert_eq!((set.buckets, mapped() - base), (32, pages::PAGE as isize));
        drop(set);
        assert_eq!(mapped(), base, "a drop gives its pages back");
    }

    /// `Pages` on its own: no values map nothing; a mapping is whole
    /// pages of zeroed values of either type, page-aligned, unmapped when
    /// dropped.
    #[test]
    fn pages_are_whole_zeroed_and_unmapped_on_drop() {
        use pages::PAGE;
        let mapped = pages::mapped_bytes;
        let base = mapped();
        let empty = Pages::<Bucket>::zeroed(0);
        assert_eq!((empty.len(), empty.mapped(), mapped()), (0, 0, base));
        let mut codes = Pages::<[u8; BUCKET_KEYS]>::zeroed(3);
        assert_eq!((codes.len(), codes.mapped()), (3, PAGE));
        assert!(codes.iter().all(|&c| c == [0; BUCKET_KEYS]));
        codes[2] = [1, 2, 3, 4];
        assert_eq!(
            codes[..],
            [[0; BUCKET_KEYS], [0; BUCKET_KEYS], [1, 2, 3, 4]]
        );
        let buckets = Pages::<Bucket>::zeroed(PAGE / 64 + 1);
        assert_eq!((buckets.len(), buckets.mapped()), (PAGE / 64 + 1, 2 * PAGE));
        assert_eq!(buckets.as_ptr() as usize % PAGE, 0);
        assert!(buckets.iter().all(|b| b.0.iter().all(|s| s.key() == 0)));
        assert_eq!(mapped() - base, 3 * PAGE as isize);
        drop(codes);
        assert_eq!(mapped() - base, 2 * PAGE as isize);
        drop((buckets, empty));
        assert_eq!(mapped(), base);
    }

    #[test]
    fn shard_uses_prefix_and_stays_in_range() {
        for i in 0..1000u32 {
            let fp = Fingerprint::of(&i.to_le_bytes());
            let s = fp.shard(64);
            assert!(s < 64);
            assert_eq!(s, (fp.as_u128() >> 122) as usize);
        }
        // All of a 64-shard table gets populated by uniform output.
        let hit: HashSet<usize> = (0..4096u32)
            .map(|i| Fingerprint::of(&i.to_le_bytes()).shard(64))
            .collect();
        assert_eq!(hit.len(), 64);
    }
}
