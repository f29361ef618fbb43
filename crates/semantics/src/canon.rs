//! Symmetry-reduced configuration fingerprints.
//!
//! P machine ids are opaque: created by `new`, compared only for
//! equality, used as send targets. Consistently renumbering the machines
//! of one type — moving slot contents *and* rewriting every
//! `Value::Machine` reference through the same bijection — therefore
//! yields a behaviorally equivalent configuration: every enabled
//! transition of one is an enabled transition of the other with
//! renamed participants, and every safety verdict coincides. The
//! explicit-state checker can exploit this by deduplicating on a
//! *canonical* fingerprint that is invariant under such renumberings,
//! storing one representative per orbit instead of up to `k!` symmetric
//! duplicates per group of `k` interchangeable machines.
//!
//! # Algorithm
//!
//! [`canonical_digest`] picks one renumbering per orbit and digests the
//! configuration renamed by it:
//!
//! 1. **Group** live slots by [`MachineTypeId`]; only groups of ≥ 2
//!    members admit any symmetry. Tombstones and singleton types are
//!    *fixed*: they keep their slot index. A renumbering hands each
//!    group's members the group's own sorted slot indices in some
//!    order, so it is type-preserving and fixes the slot layout.
//! 2. **Number by first mention.** Walk the fixed live slots in slot
//!    order and, in each, the id-carrying positions in encoding order
//!    (`MachineState::ids` — exactly what `encode_renamed` rewrites).
//!    A grouped member takes the next free index of its group the first
//!    time it is mentioned; numbered members are then walked the same
//!    way in number order (breadth first). The walk reads
//!    permutation-invariant data only — fixed slots do not move, and a
//!    renumbering maps first mentions onto first mentions — so symmetric
//!    configurations number corresponding members identically. Every
//!    slot the walk visits mentions only fixed and numbered machines, so
//!    its renamed digest is final the moment the walk leaves it.
//!    *Identity exit:* once every grouped member is numbered, and each
//!    took its own slot index, the renumbering is the identity: no later
//!    slot hash would see a moved reference, every slot's final digest is
//!    its concrete one, and the fold over (index, slot digest) is the
//!    concrete digest. The walk stops and returns it, one candidate.
//! 3. **Sort the never-mentioned members.** Each is hashed under the map
//!    {fixed and numbered → canonical index, unmentioned → its class
//!    code, itself → [`SELF_CODE`]} and its class (initially: the
//!    unmentioned members of one type) is sorted by that digest. When no
//!    unmentioned member mentions *another* unmentioned member — the
//!    *untangled* case — that one sort finishes the renumbering, with a
//!    single candidate and no enumeration (see *Twins* below).
//! 4. **Tangled remainders** (rings of otherwise unreferenced symmetric
//!    machines) fall back to colour refinement: re-hash and split the
//!    classes until a fixpoint, then enumerate the member orderings of
//!    the classes still holding ≥ 2 members — up to [`MAX_CANDIDATES`];
//!    oversized classes are frozen at their current order (sound: it
//!    only costs merges) — digest every candidate and keep the
//!    numerically smallest. A minimum of several digests is not uniform
//!    in its top bits, which the visited table shards by, so it is
//!    re-mixed once (a bijection) before it is returned.
//!
//! # Twins
//!
//! In the untangled case two unmentioned members with equal digests
//! have equal content and equal outgoing references (to fixed machines,
//! numbered machines or themselves), and nothing refers to either: not
//! the fixed or numbered slots (or they would be numbered), not another
//! unmentioned member (untangled). Swapping the two therefore renames
//! the configuration to *the same* configuration, so every ordering of
//! such a class yields one candidate and folding one of them is exact.
//! Members with different digests are ordered by digest, which is
//! invariant. Hence the one-pass path computes a complete invariant:
//! `k` idle interchangeable machines cost one sort, not `k!` folds.
//!
//! # Pins and views
//!
//! The explorer asks once per parent whether its walk takes the identity
//! exit ([`canonical_pin`]); if it does, the slots walked until then are
//! the parent's *pin* (no slots at all without a symmetry group). The
//! walk reads only the layout (which slots are live, and their types)
//! and the content of the slots it walks, and that content decides the
//! order of the walk. So a child with the parent's layout whose pinned
//! slots hold the parent's content walks them identically, takes the
//! same exit, and its canonical digest is its concrete digest. A
//! replayed run never creates or deletes a machine (the slot-transition
//! memo does not remember one that does), so its child has the parent's
//! layout, and it changes only the runner's slot and a ⊕ target's: when
//! neither is pinned, the child's key is the digest its replay already
//! carries, without building or walking it.
//!
//! Any other replayed child is canonicalized from a *view*
//! ([`canonical_digest_replayed`]): the parent's slots and slot digests
//! with the changed ones read from elsewhere, so the child need not be
//! built to be keyed.
//!
//! # Performance
//!
//! The function runs once per concrete state that neither a pin nor the
//! explorer's bounded memo settles, so its constants matter. The working
//! set lives in reusable thread-local scratch. A slot whose references
//! the map leaves in place hashes to its cached concrete digest; any
//! other goes through a direct-mapped cache keyed by the slot's concrete
//! digest and the codes of *its own* references — not the whole map —
//! so one machine-local state met under many renumberings of the others
//! is one entry. Configurations with no symmetry group short-circuit to
//! the incremental concrete digest, making `--symmetry` near-free for
//! programs without interchangeable machines.
//!
//! # Soundness
//!
//! A candidate digest is the concrete-digest fold of the renamed
//! configuration, so — up to the ~2⁻¹²⁸ collision probability shared
//! with all state hashing here — two configurations get the same
//! canonical digest only if some type-preserving permutation maps one
//! exactly onto the other. The numbering, the sort and the candidate
//! cap only affect *which* representative is chosen — a missed merge
//! explores a duplicate orbit, never skips a reachable behavior — so
//! checker verdicts are unchanged. Conversely the digest is invariant
//! under [`Config::apply_permutation`] whenever the cap is not hit (the
//! property-based tests check it against a brute-force oracle, in both
//! directions).

use std::cell::RefCell;
use std::sync::Arc;

use crate::config::{mix_slot_digest, Config, MachineId, MachineState};
use crate::hash::fingerprint128_fast;

/// Code for "the machine being hashed" while sorting the unmentioned, so
/// a machine that references itself is distinguished from one that
/// references a class sibling.
const SELF_CODE: u32 = u32::MAX;

/// Upper bound on candidate renumberings tried for a tangled remainder.
/// Classes that would blow this budget are frozen instead (fewer
/// merges, same verdicts).
const MAX_CANDIDATES: usize = 1024;

/// Entries in the direct-mapped per-slot digest cache (48 bytes each,
/// 768 KiB per canonicalizing thread). Collisions overwrite; a miss only
/// costs the re-encode it would have saved.
const CACHE_ENTRIES: usize = 1 << 14;

/// One direct-mapped cache line: a slot's renamed digest keyed by its
/// concrete digest and a digest of the codes its references take. The
/// stored value is a pure function of the key (up to the global
/// 128-bit-collision assumption), so hits, misses and evictions can
/// never change a result — only its cost.
#[derive(Clone, Copy)]
struct CacheEntry {
    slot_digest: u128,
    codes_sig: u128,
    value: u128,
}

/// The per-slot hashing state: encoding buffers and the digest cache.
#[derive(Default)]
struct Hasher {
    /// Per-slot encoding buffer for digest-cache misses.
    member: Vec<u8>,
    /// The codes of one slot's references, for signing them.
    codes: Vec<u8>,
    /// The direct-mapped per-slot digest cache (lazily sized).
    cache: Vec<CacheEntry>,
}

impl Hasher {
    /// The slot digest `state` would have with every id reference
    /// rewritten through `map` — the hash [`Config::digest`] takes of a
    /// live slot, over `MachineState::encode_renamed` — and whether that
    /// moves any reference. `code_of` reads the code of each reference
    /// off `map` in encoding order (the numbering walk also writes it
    /// there); a slot whose references all stay in place keeps
    /// `slot_digest`, its concrete digest.
    fn digest_under(
        &mut self,
        state: &MachineState,
        slot_digest: u128,
        map: &mut [u32],
        mut code_of: impl FnMut(&mut [u32], usize) -> u32,
    ) -> (u128, bool) {
        self.codes.clear();
        let mut moved = false;
        state.ids().for_each(|id| {
            let known = (id.0 as usize) < map.len();
            let code = if known {
                code_of(map, id.0 as usize)
            } else {
                id.0
            };
            moved |= code != id.0;
            self.codes.extend_from_slice(&code.to_le_bytes());
        });
        if !moved {
            return (slot_digest, false);
        }
        let codes_sig = fingerprint128_fast(&self.codes);
        if self.cache.is_empty() {
            // Entry `i` starts with a key that indexes `i ^ 1`: no lookup
            // can match an entry nobody wrote.
            let unwritten = |i: usize| CacheEntry {
                slot_digest: 0,
                codes_sig: (i ^ 1) as u128,
                value: 0,
            };
            self.cache = (0..CACHE_ENTRIES).map(unwritten).collect();
        }
        let folded = slot_digest ^ codes_sig;
        let idx = (folded ^ (folded >> 64)) as usize & (CACHE_ENTRIES - 1);
        let e = &self.cache[idx];
        if e.slot_digest == slot_digest && e.codes_sig == codes_sig {
            return (e.value, true);
        }
        self.member.clear();
        self.member.push(1);
        state.encode_renamed(&mut self.member, map);
        let value = fingerprint128_fast(&self.member);
        self.cache[idx] = CacheEntry {
            slot_digest,
            codes_sig,
            value,
        };
        (value, true)
    }
}

/// Reusable working set for [`canonical_digest`]. The function runs
/// millions of times in a symmetry-reduced exploration, so everything
/// the one-pass path touches lives here and is reused; only the tangled
/// path allocates.
#[derive(Default)]
struct Scratch {
    hasher: Hasher,
    /// Slot → canonical index once placed (fixed slots: their own); a
    /// grouped member not placed yet holds `n +` its class's index.
    map: Vec<u32>,
    /// Slot → digest under the renumbering (tombstones and slots not
    /// reached yet: the concrete digest).
    finals: Vec<u128>,
    /// Live (type, slot) pairs, sorted, for grouping.
    grouped: Vec<(u32, u32)>,
    /// Canonical index pool: the grouped slots in (type, slot) order —
    /// each group's members land on that group's own sorted indices.
    pools: Vec<u32>,
    /// Members in canonical order, type-segregated: member `order[j]`
    /// is renamed to `pools[j]`.
    order: Vec<u32>,
    /// One `(start, next, end)` range of `order` per group: numbered
    /// members fill `start..next`, the unmentioned end up in `next..end`.
    groups: Vec<(u32, u32, u32)>,
    /// The slots to walk: the fixed live ones, then the numbered members
    /// in number order.
    walk: Vec<u32>,
    /// Classes of unmentioned members as `[start, end)` ranges of `order`.
    bounds: Vec<(u32, u32)>,
    /// Next round's class ranges.
    next_bounds: Vec<(u32, u32)>,
    /// (digest, slot) pairs while splitting one class.
    keyed: Vec<(u128, u32)>,
    /// The unmentioned members whose digest depends on the renumbering.
    pending: Vec<u32>,
}

thread_local! {
    static CANON_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// All orderings of `items` (plain Heap's algorithm; class sizes here
/// are ≤ 6 by the candidate cap).
fn permutations(items: &[u32]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut work = items.to_vec();
    fn heap(k: usize, work: &mut [u32], out: &mut Vec<Vec<u32>>) {
        if k <= 1 {
            out.push(work.to_vec());
            return;
        }
        for i in 0..k {
            heap(k - 1, work, out);
            if k.is_multiple_of(2) {
                work.swap(i, k - 1);
            } else {
                work.swap(0, k - 1);
            }
        }
    }
    heap(work.len(), &mut work, &mut out);
    out
}

/// The symmetry-reduced 128-bit fingerprint of a configuration:
/// invariant under type-preserving machine-id permutations (see the
/// module docs for algorithm and soundness), equal only for
/// configurations some such permutation maps onto each other.
///
/// This is strictly coarser than [`Config::digest`] — which is what
/// the checker keys sleep sets and counterexample traces by — and
/// strictly sound for visited-set deduplication.
pub fn canonical_digest(config: &mut Config) -> u128 {
    canonical_digest_counted(config).0
}

/// [`canonical_digest`] and the number of candidate renumberings it
/// digested to get there: 0 without a symmetry group, 1 on the one-pass
/// path, more only for a tangled remainder.
pub fn canonical_digest_counted(config: &mut Config) -> (u128, u32) {
    let concrete = config.digest();
    let (slots, digests) = config.slots_and_digests();
    let view = View {
        slots,
        digests,
        changed: &[],
    };
    CANON_SCRATCH.with(|scratch| canonicalize(&view, concrete, &mut scratch.borrow_mut()))
}

/// [`canonical_digest_counted`] of the child of a replayed run, read
/// through its parent: `parent` with each listed (slot, state, slot
/// digest) in place of its own, whose digest is `digest`. The child has
/// the parent's layout (the listed slots are live in both), and
/// `parent`'s slot digests are cached, as a replayed parent's are.
pub fn canonical_digest_replayed(
    parent: &Config,
    changed: &[(MachineId, &MachineState, u128)],
    digest: u128,
) -> (u128, u32) {
    let (slots, digests) = parent.slots_and_cached_digests();
    let view = View {
        slots,
        digests,
        changed,
    };
    CANON_SCRATCH.with(|scratch| canonicalize(&view, digest, &mut scratch.borrow_mut()))
}

/// Whether `config`'s first-mention walk takes the identity exit (or
/// finds no symmetry group at all); if so, `pin` gets the slots walked
/// until then. A child with `config`'s layout whose pinned slots hold
/// `config`'s content has its concrete digest as its canonical one (the
/// module docs' *Pins and views*).
pub fn canonical_pin(config: &mut Config, pin: &mut Vec<u32>) -> bool {
    let (slots, digests) = config.slots_and_digests();
    let view = View {
        slots,
        digests,
        changed: &[],
    };
    CANON_SCRATCH.with(|scratch| {
        let scratch = &mut scratch.borrow_mut();
        let walked = match number(&view, scratch, true) {
            Numbering::Trivial => 0,
            Numbering::Identity(walked) => walked,
            Numbering::Renamed => return false,
        };
        pin.clear();
        pin.extend_from_slice(&scratch.walk[..walked]);
        true
    })
}

/// What canonicalization reads of a configuration: its slots and their
/// cached digests, with the `changed` slots' states and digests taken
/// from there instead.
struct View<'a> {
    slots: &'a [Option<Arc<MachineState>>],
    digests: &'a [Option<(u128, u32)>],
    changed: &'a [(MachineId, &'a MachineState, u128)],
}

impl<'a> View<'a> {
    fn state(&self, i: u32) -> &'a MachineState {
        match self.changed.iter().find(|c| c.0 .0 == i) {
            Some(&(_, state, _)) => state,
            None => self.slots[i as usize]
                .as_deref()
                .expect("walked slots are live"),
        }
    }

    fn digest(&self, i: u32) -> u128 {
        match self.changed.iter().find(|c| c.0 .0 == i) {
            Some(&(_, _, digest)) => digest,
            None => self.digests[i as usize].expect("digest cache filled").0,
        }
    }
}

/// How steps 1–2 ended.
enum Numbering {
    /// No symmetry group: the concrete digest is canonical.
    Trivial,
    /// The identity exit, after walking this many slots.
    Identity(usize),
    /// Some member took another index (or is never mentioned).
    Renamed,
}

/// Steps 1 and 2 of the module docs into `scratch`. With `pin_only`,
/// stops as soon as the renumbering cannot be the identity.
fn number(view: &View<'_>, scratch: &mut Scratch, pin_only: bool) -> Numbering {
    let Scratch {
        hasher,
        map,
        finals,
        grouped,
        pools,
        order,
        groups,
        walk,
        ..
    } = scratch;
    let n = view.slots.len() as u32;

    // 1. Group live slots by type. A grouped member starts unplaced, in
    //    the class of its whole group; everything else maps to itself.
    grouped.clear();
    for (i, slot) in view.slots.iter().enumerate() {
        if let Some(state) = slot {
            grouped.push((state.ty.0, i as u32));
        }
    }
    grouped.sort_unstable();
    map.clear();
    map.extend(0..n);
    order.clear();
    groups.clear();
    for group in grouped.chunk_by(|a, b| a.0 == b.0) {
        if group.len() >= 2 {
            let start = order.len() as u32;
            for &(_, slot) in group {
                map[slot as usize] = n + groups.len() as u32;
                order.push(slot);
            }
            groups.push((start, start, order.len() as u32));
        }
    }
    if groups.is_empty() {
        return Numbering::Trivial;
    }
    pools.clear();
    pools.extend_from_slice(order);

    // 2. Number the grouped members by first mention, breadth first
    //    from the fixed slots. Every walked slot mentions only placed
    //    machines by the time the walk leaves it, so its digest is final.
    finals.clear();
    finals.extend((0..n).map(|i| view.digest(i)));
    walk.clear();
    walk.extend((0..n).filter(|&i| view.slots[i as usize].is_some() && map[i as usize] < n));
    let (mut walked, mut numbered, mut identity) = (0, 0, true);
    while let Some(&slot) = walk.get(walked) {
        walked += 1;
        let number = |map: &mut [u32], id: usize| {
            if let Some(class) = map[id].checked_sub(n) {
                let next = &mut groups[class as usize].1;
                order[*next as usize] = id as u32;
                map[id] = pools[*next as usize];
                identity &= map[id] == id as u32;
                numbered += 1;
                *next += 1;
                walk.push(id as u32);
            }
            map[id]
        };
        (finals[slot as usize], _) =
            hasher.digest_under(view.state(slot), view.digest(slot), map, number);
        if identity && numbered == order.len() {
            return Numbering::Identity(walked);
        }
        if pin_only && !identity {
            break;
        }
    }
    Numbering::Renamed
}

fn canonicalize(view: &View<'_>, concrete: u128, scratch: &mut Scratch) -> (u128, u32) {
    match number(view, scratch, false) {
        // No symmetry to exploit: the orbit is a singleton.
        Numbering::Trivial => return (concrete, 0),
        Numbering::Identity(_) => return (concrete, 1),
        Numbering::Renamed => {}
    }
    let Scratch {
        hasher,
        map,
        finals,
        pools,
        order,
        groups,
        bounds,
        next_bounds,
        keyed,
        pending,
        ..
    } = scratch;
    let n = view.slots.len() as u32;
    let slot_digest = |i: u32| view.digest(i);
    let state = |i: u32| view.state(i);

    // 3. The never-mentioned members of each group form its one
    //    starting class, behind the numbered ones.
    bounds.clear();
    for &(start, next, end) in groups.iter() {
        let mut at = next as usize;
        for &m in &pools[start as usize..end as usize] {
            if map[m as usize] >= n {
                order[at] = m;
                at += 1;
            }
        }
        if next < end {
            bounds.push((next, end));
        }
    }
    // Split every class by member digest, subclasses ordered by digest
    // value. The first round hashes every member and so learns which of
    // them the renumbering touches at all (`pending`) and whether any
    // mentions another unmentioned member (`tangled`). If none does,
    // the digests depend on no other unmentioned member and one round
    // is final; else refine to a fixpoint — each non-final round
    // strictly grows the class count, so the loop terminates.
    pending.clear();
    let (mut tangled, mut first) = (false, true);
    loop {
        for (c, &(start, end)) in bounds.iter().enumerate() {
            for &m in &order[start as usize..end as usize] {
                map[m as usize] = n + c as u32;
            }
        }
        next_bounds.clear();
        for &(start, end) in bounds.iter() {
            keyed.clear();
            if first || end - start >= 2 {
                for &m in &order[start as usize..end as usize] {
                    let class = std::mem::replace(&mut map[m as usize], SELF_CODE);
                    let code_of = |map: &mut [u32], id: usize| {
                        tangled |= map[id] >= n && map[id] != SELF_CODE;
                        map[id]
                    };
                    let (digest, moved) =
                        hasher.digest_under(state(m), slot_digest(m), map, code_of);
                    if first && moved {
                        pending.push(m);
                    }
                    keyed.push((digest, m));
                    map[m as usize] = class;
                }
                keyed.sort_unstable();
            }
            let mut sub_start = start;
            for (k, &(digest, m)) in keyed.iter().enumerate() {
                order[start as usize + k] = m;
                if k > 0 && digest != keyed[k - 1].0 {
                    next_bounds.push((sub_start, start + k as u32));
                    sub_start = start + k as u32;
                }
            }
            next_bounds.push((sub_start, end));
        }
        let split = next_bounds.len() > bounds.len();
        std::mem::swap(bounds, next_bounds);
        first = false;
        if !(tangled && split) {
            break;
        }
    }
    for &(_, next, end) in groups.iter() {
        for j in next as usize..end as usize {
            map[order[j] as usize] = pools[j];
        }
    }

    // One candidate's digest: the [`Config::digest`] fold of the
    // configuration renamed through `map`, which only the `pending`
    // members' own digests still wait for. Equal for two candidates
    // exactly when the renamed configurations are equal (up to hash
    // collisions), which is what makes it a sound orbit key.
    let mut candidate = |map: &mut [u32]| {
        for &m in pending.iter() {
            (finals[m as usize], _) =
                hasher.digest_under(state(m), slot_digest(m), map, |map, id| map[id]);
        }
        Config::combine_digests(
            (0..n as usize).map(|i| (map[i] as usize, finals[i])),
            n as usize,
        )
    };
    let class_len = |c: usize| (bounds[c].1 - bounds[c].0) as usize;
    let mut ambiguous: Vec<usize> = (0..bounds.len()).filter(|&c| class_len(c) >= 2).collect();
    if !tangled || ambiguous.is_empty() {
        // Untangled: what is left in one class are twins, and every
        // ordering of twins is this one candidate.
        return (candidate(map), 1);
    }

    // 4. Enumerate orderings of the residually ambiguous classes,
    //    freezing the largest ones if the product exceeds the cap.
    loop {
        let mut product: usize = 1;
        for &c in &ambiguous {
            product = product.saturating_mul((1..=class_len(c)).product());
        }
        if product <= MAX_CANDIDATES {
            break;
        }
        let largest = (0..ambiguous.len())
            .max_by_key(|&k| class_len(ambiguous[k]))
            .expect("nonempty while over cap");
        ambiguous.remove(largest);
    }
    let orderings: Vec<Vec<Vec<u32>>> = ambiguous
        .iter()
        .map(|&c| permutations(&order[bounds[c].0 as usize..bounds[c].1 as usize]))
        .collect();
    // Each round rewrites exactly the ambiguous classes' entries of
    // `map` (a candidate permutes a class's members over the same index
    // range), so the other entries stay valid throughout.
    let mut best = u128::MAX;
    let mut folded = 0;
    let mut odometer = vec![0usize; ambiguous.len()];
    loop {
        for (k, &c) in ambiguous.iter().enumerate() {
            let start = bounds[c].0 as usize;
            for (t, &m) in orderings[k][odometer[k]].iter().enumerate() {
                map[m as usize] = pools[start + t];
            }
        }
        best = best.min(candidate(map));
        folded += 1;
        // Advance the odometer over candidate orderings.
        let mut k = 0;
        loop {
            if k == odometer.len() {
                // The smallest of several digests leans towards zero in
                // its top bits; one more avalanche spreads it again.
                let key = if folded > 1 {
                    mix_slot_digest(best)
                } else {
                    best
                };
                return (key, folded);
            }
            odometer[k] += 1;
            if odometer[k] < orderings[k].len() {
                break;
            }
            odometer[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, EventId};
    use crate::value::Value;
    use crate::MachineId;
    use p_ast::{ProgramBuilder, Ty};
    use std::collections::BTreeSet;

    /// One machine type with an id-typed local, an int local, and a
    /// deferrable event — enough structure to build symmetric twins.
    fn program() -> crate::lower::LoweredProgram {
        let mut b = ProgramBuilder::new();
        b.event_with("ping", Ty::Id);
        let mut m = b.machine("M");
        m.var("peer", Ty::Id);
        m.var("n", Ty::Int);
        m.state("A");
        m.finish();
        lower(&b.finish("M")).unwrap()
    }

    fn fresh(k: usize) -> (crate::lower::LoweredProgram, Config, Vec<MachineId>) {
        let p = program();
        let mut c = Config::default();
        let ids: Vec<MachineId> = (0..k).map(|_| c.allocate(&p, p.main)).collect();
        (p, c, ids)
    }

    #[test]
    fn singleton_orbit_fast_path_matches_concrete_digest() {
        // A lone machine admits no symmetry, so the canonical digest
        // short-circuits to the concrete incremental one.
        let (_, mut c, ids) = fresh(1);
        c.machine_mut(ids[0]).unwrap().locals[1] = Value::Int(7);
        let concrete = c.digest();
        assert_eq!(canonical_digest(&mut c), concrete);
    }

    #[test]
    fn digest_invariant_under_swap() {
        // Two machines of one type referencing each other, with equal
        // content up to the id swap.
        let (_, mut c, ids) = fresh(3);
        // Slot 0 is the "home": references both peers — fixed? No: all
        // three are the same type; make slot 0 differ by content so it
        // refines away from the pair.
        c.machine_mut(ids[0]).unwrap().locals[1] = Value::Int(99);
        c.machine_mut(ids[0]).unwrap().locals[0] = Value::Machine(ids[1]);
        c.machine_mut(ids[1]).unwrap().locals[0] = Value::Machine(ids[0]);
        c.machine_mut(ids[2]).unwrap().locals[0] = Value::Machine(ids[0]);
        // Swap ids[1] and ids[2]: a type-preserving permutation.
        let perm = vec![0, 2, 1];
        let mut sym = c.apply_permutation(&perm);
        assert_ne!(c.digest(), sym.digest(), "concrete digests differ");
        assert_eq!(canonical_digest(&mut c), canonical_digest(&mut sym));
    }

    #[test]
    fn digest_distinguishes_content() {
        let (_, mut c, ids) = fresh(2);
        let mut d = c.clone();
        c.machine_mut(ids[0]).unwrap().locals[1] = Value::Int(1);
        d.machine_mut(ids[0]).unwrap().locals[1] = Value::Int(2);
        assert_ne!(canonical_digest(&mut c), canonical_digest(&mut d));
    }

    #[test]
    fn digest_distinguishes_reference_structure() {
        // a→b, b→a  vs  a→a, b→b: same multiset of slot contents under
        // the class-collapsed view, different orbit.
        let (_, mut c, ids) = fresh(2);
        let mut d = c.clone();
        c.machine_mut(ids[0]).unwrap().locals[0] = Value::Machine(ids[1]);
        c.machine_mut(ids[1]).unwrap().locals[0] = Value::Machine(ids[0]);
        d.machine_mut(ids[0]).unwrap().locals[0] = Value::Machine(ids[0]);
        d.machine_mut(ids[1]).unwrap().locals[0] = Value::Machine(ids[1]);
        assert_ne!(canonical_digest(&mut c), canonical_digest(&mut d));
    }

    #[test]
    fn digest_invariant_across_all_permutations_of_four() {
        // Four same-type machines in a ring via queue payloads; every
        // rotation/reflection must canonicalize identically.
        let (_, mut c, ids) = fresh(4);
        for i in 0..4 {
            let next = ids[(i + 1) % 4];
            c.machine_mut(ids[i])
                .unwrap()
                .enqueue(EventId(0), Value::Machine(next));
        }
        let base = canonical_digest(&mut c);
        let mut distinct_concrete = BTreeSet::new();
        for perm in permutations(&[0, 1, 2, 3]) {
            let mut sym = c.apply_permutation(&perm);
            distinct_concrete.insert(sym.digest());
            assert_eq!(canonical_digest(&mut sym), base, "perm {perm:?}");
        }
        // The orbit is genuinely nontrivial: many concrete states, one
        // canonical digest.
        assert!(distinct_concrete.len() > 1);
    }

    #[test]
    fn tombstones_pin_their_slots() {
        let (p, mut c, ids) = fresh(3);
        c.delete(ids[1]);
        let _ = p;
        // Remaining pair {0, 2} still symmetric; swapping them (with the
        // tombstone fixed) preserves the digest.
        let mut sym = c.apply_permutation(&[2, 1, 0]);
        assert_eq!(canonical_digest(&mut c), canonical_digest(&mut sym));
        // But a tombstone is not a live machine.
        let mut live = Config::default();
        for _ in 0..3 {
            live.allocate(&p, p.main);
        }
        assert_ne!(canonical_digest(&mut c), canonical_digest(&mut live));
    }

    /// One fixed machine and `k` identical machines nobody mentions: the
    /// twins of the module docs. One candidate whatever `k` — 12 idle
    /// machines do not cost 12! of anything — and every relabeling is
    /// the same key.
    #[test]
    fn identical_unmentioned_machines_fold_one_candidate() {
        let p = three_type_program();
        let ty = |name: &str| p.machine_type_named(name).unwrap();
        for k in 2..=12u32 {
            let mut c = Config::default();
            let home = c.allocate(&p, ty("F"));
            for _ in 0..k {
                let id = c.allocate(&p, ty("A"));
                c.machine_mut(id).unwrap().locals[0] = Value::Machine(home);
            }
            let (key, candidates) = canonical_digest_counted(&mut c);
            assert_eq!(candidates, 1, "k = {k}");
            // Identity renumbering: the key is the concrete digest.
            assert_eq!(key, c.digest(), "k = {k}");
            // One machine differs; wherever it sits, the key is the same.
            let odd = |slot: u32| {
                let mut d = c.clone();
                d.machine_mut(MachineId(slot)).unwrap().locals[2] = Value::Int(1);
                canonical_digest_counted(&mut d)
            };
            assert_eq!(odd(1), odd(k), "k = {k}");
            assert_eq!(odd(1).1, 1, "k = {k}");
            assert_ne!(odd(1).0, key, "k = {k}");
        }
    }

    #[test]
    fn first_mention_separates_what_outgoing_references_cannot() {
        // The fixed machine names two content-identical machines in
        // different variables: no enumeration is needed to tell them
        // apart, and swapping them is the same orbit.
        let p = three_type_program();
        let ty = |name: &str| p.machine_type_named(name).unwrap();
        let mut c = Config::default();
        let home = c.allocate(&p, ty("F"));
        let a = c.allocate(&p, ty("A"));
        let b = c.allocate(&p, ty("A"));
        c.machine_mut(home).unwrap().locals[0] = Value::Machine(b);
        c.machine_mut(home).unwrap().locals[1] = Value::Machine(a);
        let mut sym = c.apply_permutation(&[0, 2, 1]);
        assert_ne!(c.digest(), sym.digest());
        let (key, candidates) = canonical_digest_counted(&mut c);
        assert_eq!((key, 1), (canonical_digest(&mut sym), candidates));
        // Naming only one of them is another orbit.
        c.machine_mut(home).unwrap().locals[1] = Value::Null;
        assert_ne!(canonical_digest(&mut c), key);
    }

    #[test]
    fn a_tangled_ring_is_enumerated_and_its_key_remixed() {
        let (_, mut c, ids) = fresh(4);
        for i in 0..4 {
            let next = ids[(i + 1) % 4];
            c.machine_mut(ids[i]).unwrap().locals[0] = Value::Machine(next);
        }
        let (key, candidates) = canonical_digest_counted(&mut c);
        assert_eq!(candidates, 24, "one class of four, all orderings");
        let smallest = permutations(&[0, 1, 2, 3])
            .iter()
            .map(|perm| c.apply_permutation(perm).digest())
            .min()
            .unwrap();
        assert_eq!(key, mix_slot_digest(smallest));
    }

    /// Types `F` (one instance at most: fixed), `A` and `B`, each with
    /// two id locals and an int, plus an id-carrying event.
    fn three_type_program() -> crate::lower::LoweredProgram {
        let mut b = ProgramBuilder::new();
        b.event_with("ping", Ty::Id);
        for name in ["F", "A", "B"] {
            let mut m = b.machine(name);
            m.var("p", Ty::Id);
            m.var("q", Ty::Id);
            m.var("n", Ty::Int);
            m.state("S");
            m.finish();
        }
        lower(&b.finish("F")).unwrap()
    }

    /// A configuration of 2..=5 machines from a recipe of random words:
    /// slot 0 is an `F`, an `A` or a `B`, the others `A` or `B`; every id
    /// local and up to two queue payloads are ⊥ or any machine (itself,
    /// a sibling, a tombstone); the int is 0 or 1; slots past 0 may be
    /// deleted. Small ranges, so twins and tangles are common.
    fn config_from(recipe: &[u64]) -> Config {
        let p = three_type_program();
        let mut words = recipe.iter().copied().cycle();
        let mut next = |bound: u64| words.next().unwrap() % bound;
        let n = 2 + next(4) as u32;
        let mut c = Config::default();
        for slot in 0..n {
            let names: &[&str] = if slot == 0 {
                &["F", "A", "B"]
            } else {
                &["A", "B"]
            };
            let name = names[next(names.len() as u64) as usize];
            c.allocate(&p, p.machine_type_named(name).unwrap());
        }
        let id_or_null = |next: &mut dyn FnMut(u64) -> u64| match next(2 * n as u64) {
            r if r < n as u64 => Value::Machine(MachineId(r as u32)),
            _ => Value::Null,
        };
        for slot in 0..n {
            let m = c.machine_mut(MachineId(slot)).unwrap();
            m.locals[0] = id_or_null(&mut next);
            m.locals[1] = id_or_null(&mut next);
            m.locals[2] = Value::Int(next(2) as i64);
            for _ in 0..next(3) {
                m.enqueue(EventId(0), id_or_null(&mut next));
            }
        }
        // Often, make one machine the mirror image of a sibling (same
        // content, the two ids swapped): an automorphism, and a tangle
        // only enumeration can order when the two mention each other.
        let (i, j) = (next(n as u64) as u32, next(n as u64) as u32);
        let (mi, mj) = (
            c.machine(MachineId(i)).unwrap(),
            c.machine(MachineId(j)).unwrap(),
        );
        if next(2) == 0 && mi.ty == mj.ty {
            let mut swap: Vec<u32> = (0..n).collect();
            swap.swap(i as usize, j as usize);
            let mirrored = c.apply_permutation(&swap);
            *c.machine_mut(MachineId(j)).unwrap() = mirrored.machine(MachineId(j)).unwrap().clone();
        }
        for slot in 1..n {
            if next(6) == 0 {
                c.delete(MachineId(slot));
            }
        }
        c
    }

    /// Every permutation of the slots that maps each live machine onto a
    /// slot of its own type and fixes tombstones.
    fn type_preserving_permutations(c: &Config) -> Vec<Vec<u32>> {
        let n = c.created_count() as u32;
        let ty = |i: u32| c.machine(MachineId(i)).map(|m| m.ty);
        permutations(&(0..n).collect::<Vec<_>>())
            .into_iter()
            .filter(|perm| {
                (0..n).all(|i| {
                    ty(perm[i as usize]) == ty(i) && (ty(i).is_some() || perm[i as usize] == i)
                })
            })
            .collect()
    }

    /// The specification: the smallest concrete digest in the orbit.
    fn oracle(c: &Config) -> u128 {
        type_preserving_permutations(c)
            .iter()
            .map(|perm| c.apply_permutation(perm).digest())
            .min()
            .expect("the identity is type-preserving")
    }

    /// The three key routes agree, over `config_from` recipes with one or
    /// two live slots of the parent edited in place (the layout kept): a
    /// view of the parent keys the child exactly as canonicalizing the
    /// built child does, and when the parent's pin settles it and the
    /// edited slots avoid the pin, that key is the child's concrete
    /// digest. Both the pinned case with a symmetry group and a tangled
    /// view come up.
    #[test]
    fn view_and_pin_agree_with_the_built_child() {
        let mut draws = p_ast::Draws::new(0x5eed);
        let (mut pinned, mut tangled) = (0, 0);
        let mut pin = Vec::new();
        for _ in 0..4_000 {
            let recipe: Vec<u64> = (0..24).map(|_| draws.next()).collect();
            let mut parent = config_from(&recipe);
            parent.digest();
            let n = parent.created_count() as u64;
            let live: Vec<u32> = parent.live_ids().map(|id| id.0).collect();
            let mut child = parent.clone();
            let mut edited = vec![live[draws.next() as usize % live.len()]];
            let other = live[draws.next() as usize % live.len()];
            if draws.one_in(2) && other != edited[0] {
                edited.push(other);
            }
            for &slot in &edited {
                let word = draws.next();
                let m = child.machine_mut(MachineId(slot)).unwrap();
                match word % 3 {
                    2 => m.locals[2] = Value::Int((word >> 8) as i64 & 1),
                    local => {
                        m.locals[local as usize] = match (word >> 8) % (n + 1) {
                            r if r < n => Value::Machine(MachineId(r as u32)),
                            _ => Value::Null,
                        }
                    }
                }
            }
            let concrete = child.digest();
            let changed: Vec<_> = edited
                .iter()
                .map(|&slot| {
                    let id = MachineId(slot);
                    let digest = child.cached_slot_digest(id).unwrap().0;
                    (id, child.machine(id).unwrap(), digest)
                })
                .collect();
            let viewed = canonical_digest_replayed(&parent, &changed, concrete);
            let built = canonical_digest_counted(&mut child.clone());
            assert_eq!(viewed, built, "{recipe:?}");
            tangled += usize::from(built.1 > 1);
            if canonical_pin(&mut parent, &mut pin) && edited.iter().all(|s| !pin.contains(s)) {
                assert_eq!(viewed.0, concrete, "{recipe:?}: pinned by {pin:?}");
                pinned += usize::from(built.1 > 0);
            }
        }
        assert!(
            pinned > 0 && tangled > 0,
            "{pinned} pinned, {tangled} tangled"
        );
    }

    /// Exactness in both directions against the brute-force oracle:
    /// two configurations get one canonical digest if and only if a
    /// type-preserving permutation maps one onto the other — for a
    /// relabeled copy (same orbit), for a relabeled copy with one local
    /// changed (usually another orbit, sometimes the same), and for an
    /// unrelated configuration.
    #[test]
    fn canonical_digest_equal_iff_same_orbit() {
        for seed in 0..256 {
            let d = &mut p_ast::Draws::new(seed);
            let recipe: Vec<u64> = (0..24).map(|_| d.next()).collect();
            let other: Vec<u64> = (0..24).map(|_| d.next()).collect();
            let (pick, edit) = (d.next(), d.next());
            let mut a = config_from(&recipe);
            let perms = type_preserving_permutations(&a);
            let mut relabeled = a.apply_permutation(&perms[pick as usize % perms.len()]);
            let mut edited = relabeled.clone();
            let n = edited.created_count() as u64;
            if let Some(m) = edited.machine_mut(MachineId((edit % n) as u32)) {
                m.locals[(edit / n % 2) as usize] = match edit / (2 * n) % (n + 1) {
                    r if r < n => Value::Machine(MachineId(r as u32)),
                    _ => Value::Null,
                };
            }
            let mut unrelated = config_from(&other);
            let (key, candidates) = canonical_digest_counted(&mut a);
            let orbit = oracle(&a);
            // The key is the digest of an actually renumbered
            // configuration (re-mixed if it was a minimum of several).
            let mut renumbered = perms.iter().map(|perm| a.apply_permutation(perm).digest());
            assert!(
                if candidates > 1 {
                    renumbered.any(|digest| mix_slot_digest(digest) == key)
                } else {
                    renumbered.any(|digest| digest == key)
                },
                "seed {seed}"
            );
            assert_eq!(canonical_digest(&mut relabeled), key, "seed {seed}");
            for b in [&mut edited, &mut unrelated] {
                let same_orbit = oracle(b) == orbit;
                assert_eq!(canonical_digest(b) == key, same_orbit, "seed {seed}");
            }
        }
    }
}
