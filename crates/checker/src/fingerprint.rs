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

/// One cache line of keys; `0` marks an empty slot.
#[derive(Clone, Copy, Default)]
#[repr(C, align(64))]
struct Bucket([u128; BUCKET_KEYS]);

const _: () = assert!(std::mem::size_of::<Bucket>() == 64);

/// A set of fingerprints whose probe reads one cache line (DESIGN.md
/// §13): open addressing over 64-byte buckets of four keys, probed
/// linearly from the bucket the key's low bits name (the shard router
/// takes its top bits), doubled at 7/8 load. `0` marks an empty slot, so
/// the fingerprint 0 is held apart. Nothing is removed but by
/// [`VisitedSet::drain`], so a probe ends at the first empty slot.
///
/// Each key carries a one-byte code, 0 until [`VisitedSet::set_code`]
/// changes it (the checker keeps a sleep set's code there, DESIGN.md
/// §10). The codes sit in an array of their own, four bytes per bucket,
/// allocated when the first non-zero code is stored: a set that only
/// ever holds 0 allocates none.
#[derive(Default)]
pub(crate) struct VisitedSet {
    buckets: Box<[Bucket]>,
    /// The code of each slot of `buckets`, or empty while every code is 0.
    codes: Box<[[u8; BUCKET_KEYS]]>,
    /// Keys in `buckets`.
    len: usize,
    /// The code of the fingerprint 0, if held.
    zero: Option<u8>,
}

impl VisitedSet {
    pub(crate) fn len(&self) -> usize {
        self.len + usize::from(self.zero.is_some())
    }

    /// Bytes of the buckets and the codes.
    pub(crate) fn bytes(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<Bucket>() + self.codes.len() * BUCKET_KEYS
    }

    pub(crate) fn contains(&self, key: Fingerprint) -> bool {
        self.code(key).is_some()
    }

    /// The code of `key`, if held.
    pub(crate) fn code(&self, key: Fingerprint) -> Option<u8> {
        match key.0 {
            0 => self.zero,
            _ if self.buckets.is_empty() => None,
            key => self.probe(key).ok().map(|(b, s)| self.slot_code(b, s)),
        }
    }

    fn slot_code(&self, b: usize, s: usize) -> u8 {
        self.codes.get(b).map_or(0, |codes| codes[s])
    }

    /// Adds `key` with code 0; whether it was new.
    pub(crate) fn insert(&mut self, key: Fingerprint) -> bool {
        if key.0 == 0 {
            let new = self.zero.is_none();
            self.zero.get_or_insert(0);
            return new;
        }
        if (self.len + 1) * 8 > self.buckets.len() * BUCKET_KEYS * 7 {
            self.grow();
        }
        let Err((b, s)) = self.probe(key.0) else {
            return false;
        };
        self.buckets[b].0[s] = key.0;
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
        if self.codes.is_empty() {
            if code == 0 {
                return;
            }
            self.codes = vec![[0; BUCKET_KEYS]; self.buckets.len()].into();
        }
        self.codes[b][s] = code;
    }

    /// Where the non-zero `key` is as (bucket, slot) if held, else the
    /// empty slot it goes to. The load bound leaves one slot empty.
    fn probe(&self, key: u128) -> Result<(usize, usize), (usize, usize)> {
        let mask = self.buckets.len() - 1;
        let mut b = key as usize & mask;
        loop {
            for (s, &held) in self.buckets[b].0.iter().enumerate() {
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

    fn grow(&mut self) {
        let buckets = (2 * self.buckets.len()).max(1);
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::default(); buckets].into());
        let old_codes = std::mem::take(&mut self.codes);
        if !old_codes.is_empty() {
            self.codes = vec![[0; BUCKET_KEYS]; buckets].into();
        }
        for (key, code) in slots(old.iter().copied(), old_codes.iter().copied()) {
            let Err((b, s)) = self.probe(key) else {
                unreachable!("the keys of a set are distinct")
            };
            self.buckets[b].0[s] = key;
            if code != 0 {
                self.codes[b][s] = code;
            }
        }
    }

    /// Every key with its code.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Fingerprint, u8)> + '_ {
        let zero = self.zero.map(|code| (0, code));
        let held = slots(self.buckets.iter().copied(), self.codes.iter().copied());
        zero.into_iter()
            .chain(held)
            .map(|(k, code)| (Fingerprint(k), code))
    }

    /// Every key with its code, leaving the set empty. The keys are read
    /// where they lie as the iterator is consumed, not copied out first;
    /// the buckets are freed with the iterator.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (Fingerprint, u8)> {
        let set = std::mem::take(self);
        let zero = set.zero.map(|code| (0, code));
        let buckets = Vec::from(set.buckets).into_iter();
        let held = slots(buckets, Vec::from(set.codes).into_iter());
        zero.into_iter()
            .chain(held)
            .map(|(k, code)| (Fingerprint(k), code))
    }

    /// Where the buckets are, for [`VisitedSet::prefetch`]: their base
    /// address (64-byte aligned) with log₂ of their number in the low six
    /// bits, or 0 for none.
    pub(crate) fn hint(&self) -> usize {
        match self.buckets.len() {
            0 => 0,
            n => self.buckets.as_ptr() as usize | n.trailing_zeros() as usize,
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
}

/// The held keys of `buckets` with their codes; `codes` may be empty
/// (every code 0).
fn slots(
    buckets: impl Iterator<Item = Bucket>,
    codes: impl Iterator<Item = [u8; BUCKET_KEYS]>,
) -> impl Iterator<Item = (u128, u8)> {
    let codes = codes.chain(std::iter::repeat([0; BUCKET_KEYS]));
    buckets
        .zip(codes)
        .flat_map(|(bucket, codes)| bucket.0.into_iter().zip(codes))
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
        let buckets = self.buckets.len();
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
        use p_ast::{ProgramBuilder, Ty};
        use p_semantics::{canonical_digest, lower, Config, Value};

        let mut b = ProgramBuilder::new();
        b.event_with("ping", Ty::Id);
        let mut m = b.machine("M");
        m.var("peer", Ty::Id);
        m.var("n", Ty::Int);
        m.state("A");
        m.finish();
        let p = lower(&b.finish("M")).unwrap();

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
                set.len * 8 <= set.buckets.len() * BUCKET_KEYS * 7,
                "over 7/8 load"
            );
            let codes = if coded { set.buckets.len() } else { 0 };
            assert_eq!(set.codes.len(), codes, "round {round}: code array");
            if coded {
                let mut drained: Vec<(u128, u8)> = set.drain().map(|(k, c)| (k.0, c)).collect();
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
