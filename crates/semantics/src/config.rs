//! Global and per-machine configurations.
//!
//! §3.1: a global configuration `M` maps machine identifiers to machine
//! configurations `(σ, s, S, q)` — a call stack of (state, inherited
//! handler map) pairs, a variable store, the statement remaining to be
//! executed, and an input queue. This module represents those pieces in a
//! form that is cheap to clone (for search branching) and to serialize
//! (for explicit-state deduplication).
//!
//! Two representation choices make exploration cost proportional to what
//! a step actually changes rather than to the whole configuration:
//!
//! * **copy-on-write machines** — each machine lives behind an
//!   [`Arc`], so cloning a configuration for a search branch is
//!   O(#machines) refcount bumps and the first mutation of a machine
//!   after a branch ([`Arc::make_mut`] inside [`Config::machine_mut`])
//!   copies only that one machine;
//! * **incremental digests** — each slot caches the 128-bit SipHash of
//!   its canonical encoding (plus the encoding's length), invalidated
//!   only when that machine is touched, so fingerprinting a successor
//!   re-hashes one machine instead of re-encoding the world
//!   ([`Config::digest`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::hash::fingerprint128_fast;

/// Multiplier shared by the digest finalizer and the per-slot weights
/// (odd, so multiplication by it is invertible mod 2¹²⁸).
const DIGEST_P: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;

/// The digest a tombstone slot contributes in place of a machine
/// encoding's hash, so a deleted slot is distinguished from every live
/// one (and from a slot that never existed — the count seed covers
/// that).
const TOMBSTONE_DIGEST: u128 = 0x5851_f42d_4c95_7f2d_1405_7b7e_f767_814f;

/// SplitMix64's finalizer: a cheap, well-dispersed 64-bit permutation
/// used to derive per-slot weights from slot indices.
const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The position weight of slot `i` in the homomorphic digest fold: an
/// odd (hence invertible mod 2¹²⁸) 128-bit constant derived from the
/// index, so the same machine state contributes differently at
/// different slot positions. The first slots come from a
/// const-evaluated table; higher indices (rare) compute on demand.
fn slot_weight(i: usize) -> u128 {
    const fn weight(i: u64) -> u128 {
        let lo = splitmix64(i);
        let hi = splitmix64(i ^ 0x517c_c1b7_2722_0a95);
        (((hi as u128) << 64) | lo as u128) | 1
    }
    const CACHED: usize = 64;
    const WEIGHTS: [u128; CACHED] = {
        let mut w = [0u128; CACHED];
        let mut i = 0;
        while i < CACHED {
            w[i] = weight(i as u64);
            i += 1;
        }
        w
    };
    if i < CACHED {
        WEIGHTS[i]
    } else {
        weight(i as u64)
    }
}

/// Avalanches one slot digest before it enters the linear fold. The
/// fold is a sum of per-slot terms (that is what makes subtract-old /
/// add-new maintenance possible), so each term must already be
/// well-mixed; slot digests are SipHash outputs (uniform), and this
/// permutation decouples the term from the raw digest value.
pub(crate) fn mix_slot_digest(h: u128) -> u128 {
    let mut h = h ^ (h >> 67);
    h = h.wrapping_mul(DIGEST_P);
    h ^ (h >> 71)
}

/// Slot `i`'s term in the homomorphic digest fold. Tombstone slots are
/// cached with [`TOMBSTONE_DIGEST`] as their digest, so the cached
/// entry alone determines the term.
fn slot_term(i: usize, digest: u128) -> u128 {
    mix_slot_digest(digest).wrapping_mul(slot_weight(i))
}

/// Finalizes the running fold into the published digest: folds in the
/// slot count (so prefixes of each other's slot vectors stay distinct)
/// and avalanches, so trailing-slot edits disperse into the high bits
/// (the parallel engine routes shards by them).
fn finalize_digest(acc: u128, count: usize) -> u128 {
    let mut acc = acc.wrapping_add((count as u128).wrapping_mul(DIGEST_P));
    acc ^= acc >> 71;
    acc = acc.wrapping_mul(DIGEST_P);
    acc ^ (acc >> 64)
}

thread_local! {
    /// Scratch buffer for the digest hot path: one machine encoding
    /// buffer per thread, reused across the millions of transitions an
    /// exploration hashes, so the per-transition digest never allocates.
    /// Thread-local (not per-`Config`) so it is not dragged through
    /// `Clone`/`PartialEq` and stays sound across threads.
    static SLOT_SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::with_capacity(256));
}

use crate::lower::{ActionId, EventId, LoweredProgram, MachineTypeId, StateId, StmtId};
use crate::value::Value;
use crate::wire;

/// Identifier of a dynamically created machine instance.
///
/// Instance ids are allocated densely in creation order, which makes runs
/// deterministic given a schedule — a requirement for state hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An entry of the inherited handler map `a` carried on the call stack:
/// ⊥ (no handler), `T` (deferred), or an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Inherited {
    /// ⊥ — no inherited handler.
    #[default]
    None,
    /// `T` — the event is inherited as deferred.
    Deferred,
    /// An inherited action binding.
    Action(ActionId),
}

impl Inherited {
    fn encode(self, out: &mut Vec<u8>) {
        match self {
            Inherited::None => out.push(0),
            Inherited::Deferred => out.push(1),
            Inherited::Action(a) => {
                out.push(2);
                out.extend_from_slice(&a.0.to_le_bytes());
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Inherited> {
        Some(match wire::read_u8(buf)? {
            0 => Inherited::None,
            1 => Inherited::Deferred,
            2 => Inherited::Action(ActionId(wire::read_u32(buf)?)),
            _ => return None,
        })
    }
}

/// One instruction of a statement continuation.
///
/// The operational semantics presents statement execution with evaluation
/// contexts `S[s]`; a continuation stack is the standard defunctionalized
/// form of the same thing, and makes machine configurations first-class
/// values that can be cloned and hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Execute a statement.
    Stmt(StmtId),
    /// Resume a block at child index `.1`.
    Seq(StmtId, u32),
    /// Re-evaluate a `while` statement's condition.
    Loop(StmtId),
    /// Replace the top frame's state with the target and run its entry
    /// statement (the tail of a step transition, after the exit ran).
    EnterState(StateId),
    /// Pop the top frame after a `return` (its exit already ran); restore
    /// the frame's saved continuation if present.
    PopViaReturn,
    /// Pop the top frame because the pending event is unhandled there (its
    /// exit already ran); the pending event is re-dispatched in the caller.
    /// Popping the last frame is the *unhandled event* error.
    PopUnhandled,
}

impl Instr {
    fn encode(self, out: &mut Vec<u8>) {
        match self {
            Instr::Stmt(s) => {
                out.push(0);
                out.extend_from_slice(&s.0.to_le_bytes());
            }
            Instr::Seq(s, i) => {
                out.push(1);
                out.extend_from_slice(&s.0.to_le_bytes());
                out.extend_from_slice(&i.to_le_bytes());
            }
            Instr::Loop(s) => {
                out.push(2);
                out.extend_from_slice(&s.0.to_le_bytes());
            }
            Instr::EnterState(s) => {
                out.push(3);
                out.extend_from_slice(&s.0.to_le_bytes());
            }
            Instr::PopViaReturn => out.push(4),
            Instr::PopUnhandled => out.push(5),
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Instr> {
        Some(match wire::read_u8(buf)? {
            0 => Instr::Stmt(StmtId(wire::read_u32(buf)?)),
            1 => Instr::Seq(StmtId(wire::read_u32(buf)?), wire::read_u32(buf)?),
            2 => Instr::Loop(StmtId(wire::read_u32(buf)?)),
            3 => Instr::EnterState(StateId(wire::read_u32(buf)?)),
            4 => Instr::PopViaReturn,
            5 => Instr::PopUnhandled,
            _ => return None,
        })
    }
}

/// Decodes a `u32`-prefixed instruction sequence.
fn decode_cont(buf: &mut &[u8]) -> Option<Cont> {
    let len = wire::read_u32(buf)? as usize;
    // No pre-reservation from the untrusted length: each instruction
    // consumes at least one byte, so underflow bails out promptly.
    let mut cont = Vec::new();
    for _ in 0..len {
        cont.push(Instr::decode(buf)?);
    }
    Some(cont)
}

/// A statement continuation: a stack of instructions, the last element
/// being the next to execute.
pub type Cont = Vec<Instr>;

/// A call-stack frame `(n, a)` — a state plus the handler map inherited
/// from callers — optionally carrying the continuation saved by a
/// `call n;` statement.
#[derive(Debug, PartialEq)]
pub struct Frame {
    /// The frame's control state.
    pub state: StateId,
    /// Inherited handler map, indexed by event id — or empty when every
    /// entry is ⊥, so a frame below no call holds no map. It is never an
    /// all-⊥ map of full length (every constructor normalizes), so `==`
    /// stays content equality. Read it through [`Frame::inherited`].
    inherited: Vec<Inherited>,
    /// Saved caller continuation (only for `call n;` statements).
    pub resume: Option<Cont>,
}

impl Clone for Frame {
    fn clone(&self) -> Frame {
        Frame {
            state: self.state,
            inherited: self.inherited.clone(),
            resume: self.resume.clone(),
        }
    }

    /// Buffer-reusing clone: the inherited map and resume continuation
    /// copy into the existing allocations (their elements are `Copy`),
    /// so re-deriving a recycled frame from a source frame is
    /// allocation-free once capacities have grown.
    fn clone_from(&mut self, src: &Frame) {
        self.state = src.state;
        self.inherited.clone_from(&src.inherited);
        match (&mut self.resume, &src.resume) {
            (Some(dst), Some(s)) => dst.clone_from(s),
            (dst, s) => *dst = s.clone(),
        }
    }
}

impl Frame {
    /// A frame with an all-⊥ inherited map (used for initial states); it
    /// allocates nothing.
    pub fn initial(state: StateId) -> Frame {
        Frame::new(state, Vec::new(), None)
    }

    /// A frame over `inherited`, a full map indexed by event id or empty
    /// for all ⊥; an all-⊥ full map is dropped for the empty one.
    pub(crate) fn new(state: StateId, inherited: Vec<Inherited>, resume: Option<Cont>) -> Frame {
        let inherited = if inherited.iter().all(|&h| h == Inherited::None) {
            Vec::new()
        } else {
            inherited
        };
        Frame {
            state,
            inherited,
            resume,
        }
    }

    /// The inherited handler of `event`: ⊥ past the end of the stored
    /// map, so for every event of a frame that stores none.
    pub fn inherited(&self, event: EventId) -> Inherited {
        self.inherited
            .get(event.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Encodes the frame with its map spelled out over all `n_events`
    /// events, one byte per ⊥ whether or not the map is stored.
    fn encode(&self, n_events: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.state.0.to_le_bytes());
        if self.inherited.is_empty() {
            out.resize(out.len() + n_events, 0);
        } else {
            debug_assert_eq!(
                self.inherited.len(),
                n_events,
                "a stored map spans every event"
            );
            for h in &self.inherited {
                h.encode(out);
            }
        }
        match &self.resume {
            None => out.push(0),
            Some(cont) => {
                out.push(1);
                out.extend_from_slice(&(cont.len() as u32).to_le_bytes());
                for i in cont {
                    i.encode(out);
                }
            }
        }
    }

    /// Inverse of [`Frame::encode`]. The inherited map carries no length
    /// prefix (it always spans the program's event space), so decoding
    /// is parameterized by `n_events`.
    fn decode(buf: &mut &[u8], n_events: usize) -> Option<Frame> {
        let state = StateId(wire::read_u32(buf)?);
        let mut inherited = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            inherited.push(Inherited::decode(buf)?);
        }
        let resume = match wire::read_u8(buf)? {
            0 => None,
            1 => Some(decode_cont(buf)?),
            _ => return None,
        };
        Some(Frame::new(state, inherited, resume))
    }

    /// Drops spare capacity of the frame's buffers.
    fn shrink_to_fit(&mut self) {
        self.inherited.shrink_to_fit();
        if let Some(resume) = &mut self.resume {
            resume.shrink_to_fit();
        }
    }
}

/// The configuration of one live machine.
#[derive(Debug, PartialEq)]
pub struct MachineState {
    /// The machine's type.
    pub ty: MachineTypeId,
    /// The program's event count: the span of every frame's inherited
    /// map, which the encoding writes out in full even where a frame
    /// stores none. The same for every machine of a program; it sits in
    /// what would be padding after `ty`.
    event_count: u32,
    /// Call stack; the last frame is the top.
    pub stack: Vec<Frame>,
    /// Local variable store, indexed by `VarId`.
    pub locals: Vec<Value>,
    /// The `msg` register — the most recently received event.
    pub msg: Value,
    /// The `arg` register — the payload of the most recently received
    /// event.
    pub arg: Value,
    /// Remaining statement execution.
    pub cont: Cont,
    /// A raised event awaiting dispatch (the dynamic `raise(e, v)` of the
    /// rules in Figure 5).
    pub pending: Option<(EventId, Value)>,
    /// The input queue.
    pub queue: Vec<(EventId, Value)>,
}

impl Clone for MachineState {
    fn clone(&self) -> MachineState {
        MachineState {
            ty: self.ty,
            event_count: self.event_count,
            stack: self.stack.clone(),
            locals: self.locals.clone(),
            msg: self.msg,
            arg: self.arg,
            cont: self.cont.clone(),
            pending: self.pending,
            queue: self.queue.clone(),
        }
    }

    /// Buffer-reusing clone: every vector copies into its existing
    /// allocation (`Vec::clone_from` reuses capacity and clones frames
    /// element-wise through [`Frame::clone_from`]), so re-deriving a
    /// recycled machine state is allocation-free in the steady state.
    /// This is what makes the checker's successor recycling pay:
    /// `Arc::make_mut` on a uniquely-owned recycled slot never copies.
    fn clone_from(&mut self, src: &MachineState) {
        self.ty = src.ty;
        self.event_count = src.event_count;
        self.stack.clone_from(&src.stack);
        self.locals.clone_from(&src.locals);
        self.msg = src.msg;
        self.arg = src.arg;
        self.cont.clone_from(&src.cont);
        self.pending = src.pending;
        self.queue.clone_from(&src.queue);
    }
}

impl MachineState {
    /// A fresh machine of type `ty`: ⊥-initialized locals, an initial
    /// frame, and the init state's entry statement as its continuation.
    pub fn initial(program: &LoweredProgram, ty: MachineTypeId) -> MachineState {
        let mt = program.machine(ty);
        let init = mt.init_state();
        let entry = mt.states[init.0 as usize].entry;
        MachineState {
            ty,
            event_count: program.event_count() as u32,
            stack: vec![Frame::initial(init)],
            locals: vec![Value::Null; mt.vars.len()],
            msg: Value::Null,
            arg: Value::Null,
            cont: vec![Instr::Stmt(entry)],
            pending: None,
            queue: Vec::new(),
        }
    }

    /// Whether the machine can take a step: it is mid-execution, holds a
    /// raised event, or has a dequeuable event in its queue (the `en(m)`
    /// predicate of §3.2, for a live machine).
    pub fn enabled(&self, program: &LoweredProgram) -> bool {
        !self.cont.is_empty() || self.pending.is_some() || self.dequeuable_index(program).is_some()
    }

    /// The queue index of the first event the machine could dequeue in
    /// its current state, following the DEQUEUE rule: skip events that
    /// are deferred (by the state or inherited) unless a transition or
    /// action of the current state handles them.
    pub fn dequeuable_index(&self, program: &LoweredProgram) -> Option<usize> {
        let mt = program.machine(self.ty);
        let frame = self.top();
        let state = &mt.states[frame.state.0 as usize];
        self.queue.iter().position(|&(e, _)| {
            // t: handled directly by the current state.
            if state.handles(e) {
                return true;
            }
            // d': deferred here or inherited as deferred.
            let deferred = state.deferred.contains(e) || frame.inherited(e) == Inherited::Deferred;
            !deferred
        })
    }

    /// The top call-stack frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty — machine execution ensures the stack
    /// is only empty transiently inside a pop (where emptiness is the
    /// unhandled-event error).
    pub fn top(&self) -> &Frame {
        self.stack.last().expect("machine call stack is empty")
    }

    /// The current control state (top of stack).
    pub fn current_state(&self) -> StateId {
        self.top().state
    }

    /// Appends `(event, payload)` to the queue using the paper's ⊕
    /// operator: a no-op if an identical pair is already queued.
    ///
    /// Returns `true` if the event was actually enqueued.
    pub fn enqueue(&mut self, event: EventId, payload: Value) -> bool {
        if self.queue.iter().any(|&(e, v)| e == event && v == payload) {
            return false;
        }
        self.queue.push((event, payload));
        true
    }

    /// Drops the spare capacity of every buffer, so the state costs what
    /// it holds: what a slot entering a [`SlotInterner`] is given.
    fn shrink_to_fit(&mut self) {
        self.stack.shrink_to_fit();
        for frame in &mut self.stack {
            frame.shrink_to_fit();
        }
        self.locals.shrink_to_fit();
        self.cont.shrink_to_fit();
        self.queue.shrink_to_fit();
    }

    /// Bytes of RAM the state takes behind an `Arc`, from capacities: the
    /// allocation holding it and every buffer it owns.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let frames: usize = self
            .stack
            .iter()
            .map(|f| {
                f.inherited.capacity() * size_of::<Inherited>()
                    + f.resume
                        .as_ref()
                        .map_or(0, |r| r.capacity() * size_of::<Instr>())
            })
            .sum();
        2 * size_of::<usize>() // the `Arc`'s two counts
            + size_of::<MachineState>()
            + self.stack.capacity() * size_of::<Frame>()
            + frames
            + self.locals.capacity() * size_of::<Value>()
            + self.cont.capacity() * size_of::<Instr>()
            + self.queue.capacity() * size_of::<(EventId, Value)>()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ty.0.to_le_bytes());
        out.extend_from_slice(&(self.stack.len() as u32).to_le_bytes());
        for f in &self.stack {
            f.encode(self.event_count as usize, out);
        }
        out.extend_from_slice(&(self.locals.len() as u32).to_le_bytes());
        for v in &self.locals {
            v.encode(out);
        }
        self.msg.encode(out);
        self.arg.encode(out);
        out.extend_from_slice(&(self.cont.len() as u32).to_le_bytes());
        for i in &self.cont {
            i.encode(out);
        }
        match &self.pending {
            None => out.push(0),
            Some((e, v)) => {
                out.push(1);
                out.extend_from_slice(&e.0.to_le_bytes());
                v.encode(out);
            }
        }
        out.extend_from_slice(&(self.queue.len() as u32).to_le_bytes());
        for (e, v) in &self.queue {
            out.extend_from_slice(&e.0.to_le_bytes());
            v.encode(out);
        }
    }

    /// Inverse of [`MachineState::encode`] (see [`Frame::decode`] for
    /// why `n_events` is threaded through).
    fn decode(buf: &mut &[u8], n_events: usize) -> Option<MachineState> {
        let ty = MachineTypeId(wire::read_u32(buf)?);
        let stack_len = wire::read_u32(buf)? as usize;
        let mut stack = Vec::new();
        for _ in 0..stack_len {
            stack.push(Frame::decode(buf, n_events)?);
        }
        let locals_len = wire::read_u32(buf)? as usize;
        let mut locals = Vec::new();
        for _ in 0..locals_len {
            locals.push(Value::decode(buf)?);
        }
        let msg = Value::decode(buf)?;
        let arg = Value::decode(buf)?;
        let cont = decode_cont(buf)?;
        let pending = match wire::read_u8(buf)? {
            0 => None,
            1 => {
                let e = EventId(wire::read_u32(buf)?);
                Some((e, Value::decode(buf)?))
            }
            _ => return None,
        };
        let queue_len = wire::read_u32(buf)? as usize;
        let mut queue = Vec::new();
        for _ in 0..queue_len {
            let e = EventId(wire::read_u32(buf)?);
            queue.push((e, Value::decode(buf)?));
        }
        Some(MachineState {
            ty,
            event_count: n_events as u32,
            stack,
            locals,
            msg,
            arg,
            cont,
            pending,
            queue,
        })
    }

    /// Every [`Value`] position of the machine in encoding order: locals,
    /// the `msg`/`arg` registers, the pending payload, queue payloads.
    /// Machine ids occur nowhere else (frames and continuations hold
    /// none), so this is the one list of id-carrying positions that
    /// [`MachineState::encode_renamed`], [`Config::apply_permutation`]
    /// and the canonical numbering all walk — they cannot drift apart.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Value> {
        let regs = [&self.msg, &self.arg];
        let pending = self.pending.iter().map(|(_, v)| v);
        let queue = self.queue.iter().map(|(_, v)| v);
        self.locals.iter().chain(regs).chain(pending).chain(queue)
    }

    /// [`MachineState::values`], mutably.
    fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        let regs = [&mut self.msg, &mut self.arg];
        let pending = self.pending.iter_mut().map(|(_, v)| v);
        let queue = self.queue.iter_mut().map(|(_, v)| v);
        self.locals
            .iter_mut()
            .chain(regs)
            .chain(pending)
            .chain(queue)
    }

    /// The machine ids the machine mentions, in encoding order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.values().filter_map(|v| v.as_machine())
    }

    /// [`MachineState::encode`] with every machine-id *reference*
    /// rewritten through `map` (see [`Value::encode_renamed`]): the
    /// values are drawn from [`MachineState::values`] in order, the
    /// structure around them is the plain encoding's. The output length
    /// is identical to the plain encoding's (every id is a fixed-width
    /// `u32`).
    pub(crate) fn encode_renamed(&self, out: &mut Vec<u8>, map: &[u32]) {
        let mut values = self.values();
        let mut value = |out: &mut Vec<u8>| {
            let v = values.next().expect("one value per encoded position");
            v.encode_renamed(out, map);
        };
        out.extend_from_slice(&self.ty.0.to_le_bytes());
        out.extend_from_slice(&(self.stack.len() as u32).to_le_bytes());
        for f in &self.stack {
            f.encode(self.event_count as usize, out);
        }
        out.extend_from_slice(&(self.locals.len() as u32).to_le_bytes());
        for _ in 0..self.locals.len() + 2 {
            value(out); // locals, then `msg` and `arg`
        }
        out.extend_from_slice(&(self.cont.len() as u32).to_le_bytes());
        for i in &self.cont {
            i.encode(out);
        }
        match &self.pending {
            None => out.push(0),
            Some((e, _)) => {
                out.push(1);
                out.extend_from_slice(&e.0.to_le_bytes());
                value(out);
            }
        }
        out.extend_from_slice(&(self.queue.len() as u32).to_le_bytes());
        for (e, _) in &self.queue {
            out.extend_from_slice(&e.0.to_le_bytes());
            value(out);
        }
    }
}

/// A fixed-capacity, allocation-free list of slot indices. Exceeding
/// the inline capacity degrades to "all slots" (a full scan at the next
/// flush) instead of spilling to the heap — the list rides along every
/// [`Config`] clone on the successor hot path, so it must stay `Copy`.
#[derive(Debug, Clone, Copy, Default)]
struct SlotList {
    slots: [u32; 12],
    len: u8,
    /// Capacity exceeded: membership is unknown, scan every slot.
    all: bool,
}

impl SlotList {
    fn push(&mut self, i: usize) {
        if self.all {
            return;
        }
        if (self.len as usize) < self.slots.len() {
            self.slots[self.len as usize] = i as u32;
            self.len += 1;
        } else {
            self.all = true;
            self.len = 0;
        }
    }

    fn mark_all(&mut self) {
        self.all = true;
        self.len = 0;
    }

    fn clear(&mut self) {
        self.all = false;
        self.len = 0;
    }

    fn is_empty(&self) -> bool {
        !self.all && self.len == 0
    }

    /// The listed indices (meaningless when `all` is set — check first).
    fn indices(&self) -> &[u32] {
        &self.slots[..self.len as usize]
    }
}

/// Why a canonical configuration encoding failed to decode.
///
/// Checkpoint and spill-store corruption surfaces through here; the
/// variants name what was wrong so the report is actionable instead of
/// a silent `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigDecodeError {
    /// The input ended before the slot-count header or a slot tag.
    Truncated {
        /// Byte offset at which the input ran out.
        offset: usize,
    },
    /// A slot tag byte was neither 0 (tombstone) nor 1 (live).
    BadSlotTag {
        /// Index of the offending slot.
        slot: usize,
        /// The invalid tag byte found.
        tag: u8,
    },
    /// A live slot's machine encoding was malformed or truncated.
    BadMachine {
        /// Index of the offending slot.
        slot: usize,
    },
    /// Bytes remained after the final slot decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for ConfigDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigDecodeError::Truncated { offset } => {
                write!(f, "encoding truncated at byte {offset}")
            }
            ConfigDecodeError::BadSlotTag { slot, tag } => {
                write!(f, "slot {slot} has invalid tag byte {tag} (want 0 or 1)")
            }
            ConfigDecodeError::BadMachine { slot } => {
                write!(f, "slot {slot} holds a malformed machine encoding")
            }
            ConfigDecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the final slot")
            }
        }
    }
}

impl std::error::Error for ConfigDecodeError {}

/// What an atomic run needs of the machines other than the one running:
/// the receiver of a `send` and a slot for a `new`. [`Config`] is the
/// checker's store (copy-on-write slots, cached digests); a runtime that
/// owns its machines outright implements the same two methods over plain
/// [`MachineState`]s, and [`Engine::run_owned`](crate::Engine::run_owned)
/// runs the one interpreter over either.
pub trait MachineStore {
    /// The live machine `id`, for an enqueue. `None` for a deleted (or
    /// never created) machine: rule SEND-FAIL2. Never asked for the
    /// running machine itself.
    fn machine_mut(&mut self, id: MachineId) -> Option<&mut MachineState>;

    /// Stores a fresh [`MachineState::initial`] machine of type `ty` and
    /// returns its id; ids are dense and never reused.
    fn allocate(&mut self, program: &LoweredProgram, ty: MachineTypeId) -> MachineId;
}

impl MachineStore for Config {
    fn machine_mut(&mut self, id: MachineId) -> Option<&mut MachineState> {
        Config::machine_mut(self, id)
    }

    fn allocate(&mut self, program: &LoweredProgram, ty: MachineTypeId) -> MachineId {
        Config::allocate(self, program, ty)
    }
}

/// A global configuration: every machine created so far, with deleted
/// machines remembered as `None` (so that sends to them are detected as
/// errors, rule SEND-FAIL2).
///
/// Machines are stored behind [`Arc`]s and mutated copy-on-write via
/// [`Config::machine_mut`]; equality and the canonical encoding are
/// functions of the machine contents only (the digest cache and the
/// fold accumulators are ignored).
#[derive(Debug, Default)]
pub struct Config {
    machines: Vec<Option<Arc<MachineState>>>,
    /// Per-slot digest cache: the 128-bit hash of the slot's canonical
    /// encoding and that encoding's byte length (tombstones cache
    /// [`TOMBSTONE_DIGEST`] with length 0). `None` after the slot was
    /// mutated (or never hashed). Kept in lock-step with `machines`.
    digests: Vec<Option<(u128, u32)>>,
    /// Running homomorphic fold: Σ [`slot_term`] over every slot whose
    /// digest is cached. Mutators subtract the old term eagerly, so
    /// publishing a digest only adds back the few dirty slots' terms.
    acc: u128,
    /// Running Σ (1 + encoded length) over slots whose digest is
    /// cached — the body of [`Config::encoded_len`], maintained the
    /// same subtract-old / add-new way.
    len_acc: usize,
    /// Slots whose digest cache entry is `None` (mutated since the last
    /// digest); drained by [`Config::fill_digests`].
    dirty: SlotList,
    /// Slots digested but not yet offered to a [`SlotInterner`];
    /// drained by [`Config::intern_slots`].
    uninterned: SlotList,
    /// Spare uniquely-owned machine buffers for allocation-free
    /// copy-on-write unsharing ([`Config::machine_mut`] on a shared
    /// slot). Never semantic state: ignored by equality, hashing and
    /// encoding, emptied on [`Clone::clone`], refilled by the checker's
    /// successor arena via [`Config::prepare_candidate`].
    scratch: Vec<Arc<MachineState>>,
}

impl PartialEq for Config {
    fn eq(&self, other: &Config) -> bool {
        // The digest cache is derived data; two configurations are equal
        // iff their machines are. Interning makes slot pointer equality
        // common, so compare identity before content.
        self.machines.len() == other.machines.len()
            && self
                .machines
                .iter()
                .zip(&other.machines)
                .all(|(a, b)| match (a, b) {
                    (None, None) => true,
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                    _ => false,
                })
    }
}

impl Clone for Config {
    fn clone(&self) -> Config {
        Config {
            machines: self.machines.clone(),
            digests: self.digests.clone(),
            acc: self.acc,
            len_acc: self.len_acc,
            dirty: self.dirty,
            uninterned: self.uninterned,
            scratch: Vec::new(),
        }
    }

    /// Allocation-reusing clone for the successor hot path: slot arcs
    /// already shared with `src` are left untouched (no refcount
    /// traffic), and the spare vectors keep their buffers. Combined
    /// with successor recycling in the checker this makes cloning a
    /// candidate configuration allocation-free in the steady state.
    fn clone_from(&mut self, src: &Config) {
        let n = src.machines.len();
        self.machines.truncate(n);
        for (dst, s) in self.machines.iter_mut().zip(&src.machines) {
            match (&*dst, s) {
                (Some(a), Some(b)) if Arc::ptr_eq(a, b) => {}
                (None, None) => {}
                _ => *dst = s.clone(),
            }
        }
        for s in &src.machines[self.machines.len()..] {
            self.machines.push(s.clone());
        }
        self.digests.clear();
        self.digests.extend_from_slice(&src.digests);
        self.acc = src.acc;
        self.len_acc = src.len_acc;
        self.dirty = src.dirty;
        self.uninterned = src.uninterned;
    }
}

/// A uniquely-owned deep copy of runner slot `b`: reuses `have` when it
/// is already sole-owned, else a harvested spare buffer, else falls back
/// to sharing `b` (the run's `Arc::make_mut` will unshare it).
fn primed_slot(
    have: Option<Arc<MachineState>>,
    b: &Arc<MachineState>,
    spares: &mut Vec<Arc<MachineState>>,
) -> Arc<MachineState> {
    let owned = match have {
        Some(a) if Arc::strong_count(&a) == 1 && Arc::weak_count(&a) == 0 => Some(a),
        _ => spares.pop(),
    };
    match owned {
        Some(mut a) => match Arc::get_mut(&mut a) {
            Some(slot) => {
                slot.clone_from(b);
                a
            }
            // Unreachable per the pool invariant (only sole-owned arcs
            // are harvested), but sharing is always a sound fallback.
            None => Arc::clone(b),
        },
        None => Arc::clone(b),
    }
}

/// Makes `arc` uniquely owned, deep-copying into a spare buffer from
/// `scratch` when one is available (the pool-backed equivalent of
/// `Arc::make_mut`). The deep copy still happens — it is the semantics
/// of copy-on-write — but its vector allocations are recycled.
fn unshare_slot<'a>(
    arc: &'a mut Arc<MachineState>,
    scratch: &mut Vec<Arc<MachineState>>,
) -> &'a mut MachineState {
    if Arc::strong_count(arc) != 1 || Arc::weak_count(arc) != 0 {
        let spare = scratch.pop().and_then(|mut s| {
            Arc::get_mut(&mut s)?.clone_from(&**arc);
            Some(s)
        });
        *arc = spare.unwrap_or_else(|| Arc::new((**arc).clone()));
    }
    Arc::get_mut(arc).expect("unshared above")
}

impl Config {
    /// [`Clone::clone_from`], plus: the slot of the machine about to
    /// run is *deep-copied* into a uniquely-owned allocation — one
    /// already in place, or one popped from `spares` (machine buffers
    /// harvested from retired candidates, see
    /// [`Config::harvest_unique_slots`]) — instead of being re-shared
    /// with `src`. The run's own copy-on-write unsharing
    /// (`Arc::make_mut`) then finds the slot already unique and copies
    /// nothing; the recycled machine's vectors are reused via
    /// [`MachineState::clone_from`]. Only the runner slot is treated
    /// this way: deep-copying untouched slots would just break their
    /// sharing with `src`.
    pub fn prepare_candidate(
        &mut self,
        src: &Config,
        runner: MachineId,
        spares: &mut Vec<Arc<MachineState>>,
    ) {
        let r = runner.0 as usize;
        self.machines.truncate(src.machines.len());
        for i in 0..self.machines.len() {
            let s = &src.machines[i];
            let dst = &mut self.machines[i];
            match (dst.take(), s) {
                (have, Some(b)) if i == r => *dst = Some(primed_slot(have, b, spares)),
                (Some(a), Some(b)) if Arc::ptr_eq(&a, b) => *dst = Some(a),
                (_, s) => *dst = s.clone(),
            }
        }
        for i in self.machines.len()..src.machines.len() {
            let s = &src.machines[i];
            self.machines.push(match s {
                Some(b) if i == r => Some(primed_slot(None, b, spares)),
                s => s.clone(),
            });
        }
        self.digests.clear();
        self.digests.extend_from_slice(&src.digests);
        self.acc = src.acc;
        self.len_acc = src.len_acc;
        self.dirty = src.dirty;
        self.uninterned = src.uninterned;
        // Donate a couple of spares to the candidate's scratch pool so
        // in-run copy-on-write unshares (sends mutating a non-runner
        // machine) also reuse retired buffers instead of allocating.
        while self.scratch.len() < 2 {
            match spares.pop() {
                Some(s) => self.scratch.push(s),
                None => break,
            }
        }
    }

    /// Moves this configuration's uniquely-owned machine buffers into
    /// `pool` (up to `cap` entries) so
    /// [`Config::prepare_candidate`] can reuse their allocations for
    /// the next candidate's runner slot. Called on retired candidates
    /// by the checker's successor arena; the harvested slots are left
    /// empty, which is fine because a pooled configuration is always
    /// re-primed wholesale before its next use.
    pub fn harvest_unique_slots(&mut self, pool: &mut Vec<Arc<MachineState>>, cap: usize) {
        while pool.len() < cap {
            match self.scratch.pop() {
                Some(s) => pool.push(s),
                None => break,
            }
        }
        for slot in &mut self.machines {
            if pool.len() >= cap {
                return;
            }
            // `Arc::get_mut` is a compare-and-swap on the weak count;
            // an interned slot is never unique, so test the count first.
            if let Some(arc) = slot {
                if Arc::strong_count(arc) == 1 && Arc::get_mut(arc).is_some() {
                    pool.push(slot.take().expect("slot checked live above"));
                }
            }
        }
    }

    /// Allocates a fresh machine of type `ty` with ⊥-initialized locals,
    /// an initial frame, and the init state's entry statement as its
    /// continuation. Returns the new id.
    pub fn allocate(&mut self, program: &LoweredProgram, ty: MachineTypeId) -> MachineId {
        let state = MachineState::initial(program, ty);
        self.machines.push(Some(Arc::new(state)));
        self.digests.push(None);
        self.dirty.push(self.machines.len() - 1);
        MachineId((self.machines.len() - 1) as u32)
    }

    /// Drops slot `i`'s cached digest, subtracting its term from the
    /// running fold and queueing it for recomputation. No-op when the
    /// slot is already dirty.
    fn invalidate_slot(&mut self, i: usize) {
        if let Some((h, len)) = self.digests[i].take() {
            self.acc = self.acc.wrapping_sub(slot_term(i, h));
            self.len_acc -= 1 + len as usize;
            self.dirty.push(i);
        }
    }

    /// Total machines ever created (including deleted ones).
    pub fn created_count(&self) -> usize {
        self.machines.len()
    }

    /// Ids of machines that are still alive.
    pub fn live_ids(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.machines
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_some())
            .map(|(i, _)| MachineId(i as u32))
    }

    /// Looks up a live machine.
    pub fn machine(&self, id: MachineId) -> Option<&MachineState> {
        self.machines.get(id.0 as usize).and_then(|m| m.as_deref())
    }

    /// The shared handle behind machine `id`'s slot, if live. Interned
    /// configurations ([`Config::intern_slots`]) make slot pointer
    /// identity meaningful, so callers can use `Arc::ptr_eq` as a cheap
    /// same-content test before comparing states structurally.
    pub fn machine_arc(&self, id: MachineId) -> Option<&Arc<MachineState>> {
        self.machines.get(id.0 as usize)?.as_ref()
    }

    /// Mutable lookup of a live machine. Copy-on-write: if the machine is
    /// shared with another configuration (a search sibling), only this
    /// one machine is cloned — everything else stays shared. The slot's
    /// cached digest is invalidated.
    pub fn machine_mut(&mut self, id: MachineId) -> Option<&mut MachineState> {
        let i = id.0 as usize;
        if self.machines.get(i)?.is_none() {
            return None;
        }
        self.invalidate_slot(i);
        let (machines, scratch) = (&mut self.machines, &mut self.scratch);
        let slot = machines[i].as_mut().expect("checked live above");
        Some(unshare_slot(slot, scratch))
    }

    /// Pool-backed `Arc::make_mut`: unshares `arc` using this
    /// configuration's scratch buffers so a copy-on-write on the hot
    /// path reuses a retired machine's allocations instead of
    /// allocating afresh. Used by [`crate::Engine::run_machine`] on the
    /// taken runner slot.
    pub(crate) fn cow_unshare<'a>(
        &mut self,
        arc: &'a mut Arc<MachineState>,
    ) -> &'a mut MachineState {
        unshare_slot(arc, &mut self.scratch)
    }

    /// Takes machine `id` out of its slot for the duration of an atomic
    /// run, leaving a temporary tombstone and invalidating the cached
    /// digest. [`Engine::run_machine`] pairs this with
    /// [`Config::restore_machine`] so the interpreter's small-step loop
    /// works on a direct `&mut MachineState` instead of re-resolving the
    /// slot (bounds check, liveness check, `Arc::make_mut`) on every
    /// step. While taken, the running machine is invisible to slot
    /// lookups — the interpreter special-cases self-sends.
    pub(crate) fn take_machine(&mut self, id: MachineId) -> Option<Arc<MachineState>> {
        let i = id.0 as usize;
        if self.machines.get(i)?.is_none() {
            return None;
        }
        self.invalidate_slot(i);
        self.machines[i].take()
    }

    /// Puts a machine taken with [`Config::take_machine`] back into its
    /// slot. The digest stays invalidated — the run mutated the state.
    pub(crate) fn restore_machine(&mut self, id: MachineId, state: Arc<MachineState>) {
        let i = id.0 as usize;
        // The slot's digest was invalidated by `take_machine`, but a
        // digest query in between may have cached the tombstone entry.
        self.invalidate_slot(i);
        self.machines[i] = Some(state);
    }

    /// Removes machine `id` (the `delete` statement). Its slot stays
    /// reserved so later sends to it are errors.
    pub fn delete(&mut self, id: MachineId) {
        let i = id.0 as usize;
        if self.machines.get(i).is_some() {
            self.invalidate_slot(i);
            self.machines[i] = None;
        }
    }

    /// Whether machine `id` can take a step: it is live and is either
    /// mid-execution, holding a raised event, or has a dequeuable event in
    /// its queue (the `en(m)` predicate of §3.2).
    pub fn enabled(&self, id: MachineId, program: &LoweredProgram) -> bool {
        self.machine(id).is_some_and(|m| m.enabled(program))
    }

    /// Serializes the configuration to a canonical byte string for
    /// explicit-state deduplication.
    ///
    /// # Stability contract
    ///
    /// The checker fingerprints this encoding and shares the
    /// fingerprints across worker threads, so the encoding must be a
    /// pure function of the configuration's semantic content:
    ///
    /// * **injective** — semantically distinct configurations (machine
    ///   states, locals, queue contents *and order*, call stacks) must
    ///   encode to distinct byte strings, and equal configurations to
    ///   equal byte strings;
    /// * **deterministic** — independent of thread, process, iteration
    ///   order of any internal map, or allocation history beyond the
    ///   machine-id space itself.
    ///
    /// Changing the encoding is safe (fingerprints are never persisted
    /// across runs) but breaking either property silently unsounds the
    /// visited-set deduplication in every exploration strategy.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&(self.machines.len() as u32).to_le_bytes());
        for m in &self.machines {
            match m {
                None => out.push(0),
                Some(state) => {
                    out.push(1);
                    state.encode(&mut out);
                }
            }
        }
        out
    }

    /// Inverse of [`Config::canonical_bytes`]: rebuilds a configuration
    /// from its canonical encoding. `n_events` is the program's event
    /// count (the inherited handler maps are encoded without a length
    /// prefix). Malformed input yields a [`ConfigDecodeError`] naming
    /// what was wrong, so checkpoint and spill-store corruption is
    /// reported with a cause.
    ///
    /// This is what makes checkpoints possible: a frontier
    /// configuration persisted as its canonical bytes decodes to a
    /// `Config` that is `==` to — and produces the same digest as — the
    /// original. The digest cache starts cold and refills lazily.
    pub fn from_canonical_bytes(
        bytes: &[u8],
        n_events: usize,
    ) -> Result<Config, ConfigDecodeError> {
        let mut buf = bytes;
        let truncated = |buf: &[u8]| ConfigDecodeError::Truncated {
            offset: bytes.len() - buf.len(),
        };
        let count = wire::read_u32(&mut buf).ok_or(truncated(buf))? as usize;
        let mut machines = Vec::new();
        for slot in 0..count {
            let tag = wire::read_u8(&mut buf).ok_or(truncated(buf))?;
            machines.push(match tag {
                0 => None,
                1 => Some(Arc::new(
                    MachineState::decode(&mut buf, n_events)
                        .ok_or(ConfigDecodeError::BadMachine { slot })?,
                )),
                tag => return Err(ConfigDecodeError::BadSlotTag { slot, tag }),
            });
        }
        if !buf.is_empty() {
            return Err(ConfigDecodeError::TrailingBytes { extra: buf.len() });
        }
        Ok(Config::from_machines(machines))
    }

    /// A configuration over `machines` with a cold digest cache (every
    /// slot dirty).
    fn from_machines(machines: Vec<Option<Arc<MachineState>>>) -> Config {
        let mut dirty = SlotList::default();
        dirty.mark_all();
        let mut uninterned = SlotList::default();
        uninterned.mark_all();
        Config {
            digests: vec![None; machines.len()],
            machines,
            acc: 0,
            len_acc: 0,
            dirty,
            uninterned,
            scratch: Vec::new(),
        }
    }

    /// The slot digest and encoded length of slot `i`, computed from
    /// scratch. Tombstones contribute the fixed [`TOMBSTONE_DIGEST`] so
    /// a deleted slot is distinguished from every live one, and so the
    /// cached entry alone determines the slot's fold term.
    fn slot_digest(slot: &Option<Arc<MachineState>>) -> (u128, u32) {
        match slot {
            None => (TOMBSTONE_DIGEST, 0),
            Some(state) => SLOT_SCRATCH.with(|buf| {
                let mut bytes = buf.borrow_mut();
                bytes.clear();
                bytes.push(1);
                state.encode(&mut bytes);
                (fingerprint128_fast(&bytes), (bytes.len() - 1) as u32)
            }),
        }
    }

    /// Fills every missing entry of the digest cache and folds the new
    /// terms into the running accumulators. Cost is proportional to the
    /// number of slots *dirtied* since the last fill (typically one),
    /// not to the configuration size — the dirty list remembers exactly
    /// which slots were invalidated, falling back to a full scan only
    /// when it overflows or the cache starts cold.
    fn fill_digests(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        if self.dirty.all {
            for i in 0..self.machines.len() {
                self.fill_slot(i);
            }
        } else {
            let list = self.dirty;
            for &i in list.indices() {
                self.fill_slot(i as usize);
            }
        }
        self.dirty.clear();
    }

    /// Digests slot `i` if its cache entry is missing, adding its term
    /// to the digest/length accumulators and remembering it as a
    /// candidate for interning.
    fn fill_slot(&mut self, i: usize) {
        if self.digests[i].is_some() {
            return;
        }
        let entry = Config::slot_digest(&self.machines[i]);
        self.digests[i] = Some(entry);
        self.acc = self.acc.wrapping_add(slot_term(i, entry.0));
        self.len_acc += 1 + entry.1 as usize;
        if self.machines[i].is_some() {
            self.uninterned.push(i);
        }
    }

    /// Combines per-slot digests into the global one: a position-
    /// weighted *linear* fold, `acc = Σᵢ mix(hᵢ)·wᵢ (mod 2¹²⁸)`,
    /// finalized with the slot count and an avalanche.
    ///
    /// Linearity is the point — it is what makes the fold maintainable
    /// in O(1) per mutation ([`Config::invalidate_slot`] subtracts the
    /// old term, [`Config::fill_slot`] adds the new one), where the old
    /// polynomial fold's weights `P^(n-1-i)` depended on the slot count
    /// and forced an O(n) re-fold per digest query. Position
    /// sensitivity survives because each slot index gets its own odd
    /// (hence invertible mod 2¹²⁸) weight `wᵢ`: two same-length digest
    /// sequences collide only when the weighted difference vanishes,
    /// which for already-avalanched SipHash slot terms is the same
    /// ~2⁻¹²⁸ event as a direct hash collision. A tombstone's slot
    /// digest is the fixed [`TOMBSTONE_DIGEST`], so a deleted slot is
    /// distinguished from every live one, and the count term separates
    /// sequences of different lengths.
    ///
    /// The terms come as `(position, slot digest)` pairs in any order
    /// (the fold is a sum), so the canonicalization layer can fold a
    /// renumbered configuration straight from its slot → position map.
    pub(crate) fn combine_digests(
        terms: impl Iterator<Item = (usize, u128)>,
        count: usize,
    ) -> u128 {
        let acc = terms.fold(0u128, |acc, (position, digest)| {
            acc.wrapping_add(slot_term(position, digest))
        });
        finalize_digest(acc, count)
    }

    /// The configuration's 128-bit state digest, computed incrementally:
    /// only machines mutated since the last call are re-encoded and
    /// re-hashed; untouched machines reuse their cached digests.
    ///
    /// The digest obeys the same stability contract as
    /// [`Config::canonical_bytes`] — equal for equal configurations,
    /// distinct for distinct ones (up to 128-bit hash collisions),
    /// deterministic across threads, runs and processes.
    pub fn digest(&mut self) -> u128 {
        self.digest_and_len().0
    }

    /// [`Config::digest`] and [`Config::encoded_len`] straight from the
    /// maintained accumulators — the explorers need both per
    /// transition, and after the O(#dirty) fill this is O(1) regardless
    /// of configuration size.
    pub fn digest_and_len(&mut self) -> (u128, usize) {
        self.fill_digests();
        (
            finalize_digest(self.acc, self.machines.len()),
            4 + self.len_acc,
        )
    }

    /// The digest computed entirely from scratch, ignoring (and not
    /// touching) the cache. Used by tests and debug assertions to prove
    /// the incremental path agrees with a cold recomputation.
    pub fn digest_uncached(&self) -> u128 {
        Config::combine_digests(
            self.machines
                .iter()
                .map(|m| Config::slot_digest(m).0)
                .enumerate(),
            self.machines.len(),
        )
    }

    /// Slot `id`'s cached (slot digest, encoded length), the pair
    /// [`Config::digest`] folds; `None` for an id never created and for a
    /// slot not hashed since it last changed (or since decoding).
    pub fn cached_slot_digest(&self, id: MachineId) -> Option<(u128, u32)> {
        *self.digests.get(id.0 as usize)?
    }

    /// The [`Config::digest`] this configuration would have with the
    /// listed (distinct) slots' digests replaced, from the fold alone;
    /// `None` unless every slot's digest is cached.
    pub fn digest_with(&self, slots: &[(MachineId, u128)]) -> Option<u128> {
        if !self.dirty.is_empty() {
            return None;
        }
        let mut acc = self.acc;
        for &(id, digest) in slots {
            let (old, _) = self.cached_slot_digest(id)?;
            let i = id.0 as usize;
            acc = acc.wrapping_add(slot_term(i, digest).wrapping_sub(slot_term(i, old)));
        }
        Some(finalize_digest(acc, self.machines.len()))
    }

    /// Puts `state`, a [`SlotInterner`]'s allocation, into live slot `id`
    /// with its `cached` (slot digest, encoded length), so that neither
    /// digesting nor interning the configuration visits the slot again.
    pub fn install_slot(&mut self, id: MachineId, state: Arc<MachineState>, cached: (u128, u32)) {
        let i = id.0 as usize;
        if let Some((old, old_len)) = self.digests[i].replace(cached) {
            self.acc = self.acc.wrapping_sub(slot_term(i, old));
            self.len_acc -= 1 + old_len as usize;
        }
        self.acc = self.acc.wrapping_add(slot_term(i, cached.0));
        self.len_acc += 1 + cached.1 as usize;
        self.machines[i] = Some(state);
    }

    /// The length of [`Config::canonical_bytes`] without materializing
    /// it, from the same per-slot cache as [`Config::digest`]. The
    /// checker accounts this as the stored-bytes statistic (the memory
    /// column of Figure 8).
    pub fn encoded_len(&mut self) -> usize {
        self.fill_digests();
        4 + self.len_acc
    }

    /// The raw slot vector alongside the (filled) per-slot digest cache,
    /// for the canonicalization layer: canonical renumbering keys its
    /// per-slot memo by the concrete slot digest, so it wants both in
    /// one borrow.
    #[allow(clippy::type_complexity)]
    pub(crate) fn slots_and_digests(
        &mut self,
    ) -> (&[Option<Arc<MachineState>>], &[Option<(u128, u32)>]) {
        self.fill_digests();
        self.slots_and_cached_digests()
    }

    /// [`Config::slots_and_digests`] as the cache stands: an entry is
    /// `None` for a slot changed since its last digest.
    #[allow(clippy::type_complexity)]
    pub(crate) fn slots_and_cached_digests(
        &self,
    ) -> (&[Option<Arc<MachineState>>], &[Option<(u128, u32)>]) {
        (&self.machines, &self.digests)
    }

    /// Relabels machine ids through the bijection `perm` (`perm[i]` is
    /// the new slot index of old slot `i`): slot contents move to their
    /// new indices and every `Value::Machine` reference stored in any
    /// machine is rewritten through `perm`. The caller must pass a
    /// permutation of `0..created_count()` that is *type-preserving* on
    /// live slots and fixes tombstones, or the result is not
    /// behaviorally equivalent.
    ///
    /// This is the specification the symmetry-reduced fingerprint is
    /// tested against: `canonical_digest` must be invariant under every
    /// such relabeling.
    pub fn apply_permutation(&self, perm: &[u32]) -> Config {
        assert_eq!(perm.len(), self.machines.len(), "permutation arity");
        let mut machines: Vec<Option<Arc<MachineState>>> = vec![None; self.machines.len()];
        for (i, slot) in self.machines.iter().enumerate() {
            let Some(state) = slot else {
                assert_eq!(perm[i] as usize, i, "tombstones must stay fixed");
                continue;
            };
            let mut renamed = MachineState::clone(state);
            for v in renamed.values_mut() {
                if let Value::Machine(m) = v {
                    *m = MachineId(perm[m.0 as usize]);
                }
            }
            let target = &mut machines[perm[i] as usize];
            assert!(target.is_none(), "perm is not a bijection");
            *target = Some(Arc::new(renamed));
        }
        Config::from_machines(machines)
    }

    /// Offers every not-yet-interned live slot to `interner`, replacing
    /// this configuration's `Arc`s with the table's canonical ones, and
    /// returns the configuration's *marginal* stored size: the encoding
    /// overhead (count word plus one tag byte per slot) plus the
    /// encoded lengths of only those slots this call newly inserted
    /// into the table. Slots already interned — by an ancestor, a
    /// sibling, or any other configuration sharing the table — count
    /// zero, so summing the return value over all admitted states
    /// counts each distinct machine state once.
    ///
    /// Call this only for configurations the visited set *admitted*:
    /// interning rejected candidates would replace their uniquely-owned
    /// slots with shared ones and defeat the successor buffer-reuse
    /// path.
    pub fn intern_slots(&mut self, interner: &mut SlotInterner) -> usize {
        self.intern_slots_with(interner, |_| true)
    }

    /// [`Config::intern_slots`] for several tables that account as one:
    /// when `interner` has not met a slot, `first_seen(digest)` says
    /// whether any table has, and so whether its bytes are new. A slot
    /// `interner` already holds was put to `first_seen` when it went in
    /// and is not asked about again.
    pub fn intern_slots_with(
        &mut self,
        interner: &mut SlotInterner,
        mut first_seen: impl FnMut(u128) -> bool,
    ) -> usize {
        self.fill_digests();
        let mut fresh = 4 + self.machines.len();
        let list = self.uninterned;
        if list.all {
            for i in 0..self.machines.len() {
                fresh += self.intern_slot(i, interner, &mut first_seen);
            }
        } else {
            for &i in list.indices() {
                fresh += self.intern_slot(i as usize, interner, &mut first_seen);
            }
        }
        self.uninterned.clear();
        fresh
    }

    /// Moves this configuration's interned slots into `interner`, the
    /// table of the worker that has just taken the configuration over
    /// from another: each slot is repointed at `interner`'s allocation
    /// of the same content, made here by deep copy when there is none.
    /// Afterwards the configuration shares no interned allocation with
    /// the table it came from, so two workers never count references on
    /// one allocation. Slots not interned yet are this configuration's
    /// own and stay as they are; nothing is accounted — whoever interned
    /// a slot first already has.
    pub fn rehome_slots(&mut self, interner: &mut SlotInterner) {
        self.fill_digests();
        let pending = self.uninterned;
        if pending.all {
            return;
        }
        for (i, slot) in self.machines.iter_mut().enumerate() {
            if let Some(state) = slot {
                if !pending.indices().contains(&(i as u32)) {
                    let (digest, _) = self.digests[i].expect("cache filled");
                    interner.adopt(digest, state);
                }
            }
        }
    }

    /// Whether every interned slot of this configuration is `interner`'s
    /// own allocation of that content — what holds for a configuration
    /// derived from ones interned there, or rehomed into it, and fails
    /// for one still carrying another table's allocations. (A table at
    /// its capacity limit holds no allocation for the slots it turned
    /// away.)
    pub fn is_interned_in(&mut self, interner: &SlotInterner) -> bool {
        self.fill_digests();
        let pending = self.uninterned;
        let full = interner.table.len() >= interner.cap;
        pending.all
            || self.machines.iter().enumerate().all(|(i, slot)| {
                let Some(state) = slot else { return true };
                let (digest, _) = self.digests[i].expect("cache filled");
                pending.indices().contains(&(i as u32))
                    || match interner.table.get(&digest) {
                        Some(own) => Arc::ptr_eq(state, own),
                        None => full,
                    }
            })
    }

    /// Interns slot `i` (live, digest cached), returning the bytes
    /// newly added to the table.
    fn intern_slot(
        &mut self,
        i: usize,
        interner: &mut SlotInterner,
        first_seen: &mut impl FnMut(u128) -> bool,
    ) -> usize {
        let Some(state) = &mut self.machines[i] else {
            return 0;
        };
        let (digest, len) = self.digests[i].expect("cache filled");
        let (fresh, displaced) = interner.intern(digest, state, first_seen);
        if let Some(old) = displaced {
            // Keep the displaced buffer (usually this candidate's own
            // fresh copy) as a scratch spare: interned slots are never
            // uniquely owned, so the drop-time harvest can no longer
            // recover buffers from explored configurations.
            if self.scratch.len() < 2 && Arc::strong_count(&old) == 1 && Arc::weak_count(&old) == 0
            {
                self.scratch.push(old);
            }
        }
        if fresh {
            len as usize
        } else {
            0
        }
    }
}

/// Hash-consing table for machine slots: maps a slot's 128-bit content
/// digest to the one shared [`Arc<MachineState>`] every admitted
/// configuration with that slot content points at. Sharing identical
/// slots across configurations cuts resident state memory (each
/// distinct machine state is stored once) and makes untouched-slot
/// clones and comparisons pointer-cheap.
///
/// Keyed by digest alone — the same ~2⁻¹²⁸ collision assumption the
/// visited set already makes for whole configurations. The key is
/// already a SipHash output, so the map hashes it by truncation
/// (identity hashing).
///
/// One table per worker of the exhaustive search: the table is not
/// synchronized, so interning takes no lock and a slot's `Arc` is only
/// ever reference-counted by the one core that owns the table. The
/// byte accounting stays global through [`Config::intern_slots_with`],
/// and a configuration that changes workers is moved over whole by
/// [`Config::rehome_slots`]; the price is one copy of a slot per worker
/// that meets it.
///
/// A table with a byte budget ([`SlotInterner::with_budget`]) sweeps
/// before a new entry would take its states past it: it drops every
/// entry no configuration holds (an `Arc` whose only handle is the
/// table's). A held entry is never dropped, so every configuration
/// stays interned here; a dropped one that comes back is stored again.
/// A sweep that leaves more than half the budget held moves the next
/// one to twice what it left, so a held set near the budget costs one
/// sweep per doubling, not one per entry.
#[derive(Debug)]
pub struct SlotInterner {
    table: HashMap<u128, Arc<MachineState>, BuildDigestHasher>,
    /// Entry cap: beyond this the table stops growing (lookups still
    /// hit) so a pathological state space cannot turn the interner
    /// itself into the memory problem it exists to solve.
    cap: usize,
    /// Resident bytes of the states in the table.
    bytes: usize,
    /// Bytes of states past which a new entry first sweeps.
    budget: usize,
    /// Bytes the last sweep left held.
    kept: usize,
}

impl Default for SlotInterner {
    fn default() -> SlotInterner {
        SlotInterner::new()
    }
}

impl SlotInterner {
    /// Default entry cap (~48 MiB of table at worst, ignoring the
    /// interned states themselves, which the visited set accounts).
    pub const DEFAULT_CAP: usize = 1 << 20;

    /// An empty table with the default capacity limit and no byte
    /// budget: it never sweeps.
    pub fn new() -> SlotInterner {
        SlotInterner::with_budget(usize::MAX)
    }

    /// An empty table that sweeps before its states would take more
    /// than `budget` bytes.
    pub fn with_budget(budget: usize) -> SlotInterner {
        SlotInterner {
            table: HashMap::default(),
            cap: SlotInterner::DEFAULT_CAP,
            bytes: 0,
            budget,
            kept: 0,
        }
    }

    /// A table that refuses to grow past `cap` entries.
    pub fn with_capacity_limit(cap: usize) -> SlotInterner {
        SlotInterner {
            cap,
            ..SlotInterner::new()
        }
    }

    /// Interns `state` by content digest. On a hit, repoints `state` at
    /// the canonical `Arc` and returns the displaced handle; on a miss,
    /// stores a clone of `state` (capacity permitting — at the cap the
    /// state simply stays unshared), shrunk to its exact size first when
    /// `state` is the only handle — as every candidate the search interns
    /// is. Returns `(fresh, displaced)`: `fresh` is true iff the content
    /// was not in the table and `first_seen` says no other table holds it
    /// either, i.e. its bytes are newly accounted.
    fn intern(
        &mut self,
        digest: u128,
        state: &mut Arc<MachineState>,
        first_seen: &mut impl FnMut(u128) -> bool,
    ) -> (bool, Option<Arc<MachineState>>) {
        if let Some(own) = self.table.get(&digest) {
            let displaced =
                (!Arc::ptr_eq(state, own)).then(|| std::mem::replace(state, Arc::clone(own)));
            return (false, displaced);
        }
        if self.table.len() < self.cap {
            if let Some(owned) = Arc::get_mut(state) {
                owned.shrink_to_fit();
            }
            self.insert(digest, Arc::clone(state));
        }
        (first_seen(digest), None)
    }

    /// Repoints `state`, an allocation interned in another table, at
    /// this table's own allocation of the same content, deep-copying it
    /// in when the table has none (capacity permitting — at the cap
    /// the copy simply stays unshared).
    fn adopt(&mut self, digest: u128, state: &mut Arc<MachineState>) {
        if let Some(own) = self.table.get(&digest) {
            if !Arc::ptr_eq(state, own) {
                *state = Arc::clone(own);
            }
            return;
        }
        *state = Arc::new(MachineState::clone(state));
        if self.table.len() < self.cap {
            self.insert(digest, Arc::clone(state));
        }
    }

    /// Stores `state`, absent from the table, under `digest`, sweeping
    /// first if its bytes would take the table past its budget.
    fn insert(&mut self, digest: u128, state: Arc<MachineState>) {
        let bytes = state.resident_bytes();
        if self.bytes + bytes > self.budget.max(2 * self.kept) {
            self.sweep();
        }
        self.bytes += bytes;
        self.table.insert(digest, state);
    }

    /// Drops every entry no configuration holds, and the buckets they
    /// leave empty. Only this table's worker adds handles to its
    /// allocations; another worker can only drop one (see
    /// [`Config::rehome_slots`]), so a count of one read here stays one.
    fn sweep(&mut self) {
        let bytes = &mut self.bytes;
        self.table.retain(|_, state| {
            let held = Arc::strong_count(state) > 1;
            if !held {
                *bytes -= state.resident_bytes();
            }
            held
        });
        self.table.shrink_to_fit();
        self.kept = self.bytes;
    }

    /// This table's allocation of the slot content with digest
    /// `digest`, if it holds one.
    pub fn get(&self, digest: u128) -> Option<&Arc<MachineState>> {
        self.table.get(&digest)
    }

    /// Whether some allocation interned here is also interned in
    /// `other` (tables of different workers never share one).
    pub fn shares_allocation_with(&self, other: &SlotInterner) -> bool {
        self.table.iter().any(|(digest, state)| {
            other
                .table
                .get(digest)
                .is_some_and(|o| Arc::ptr_eq(state, o))
        })
    }

    /// Bytes of RAM the interned states hold, from capacities: each
    /// state's allocation and the buffers it owns. The table's own
    /// buckets are sized from [`SlotInterner::capacity`].
    pub fn state_bytes(&self) -> usize {
        self.bytes
    }

    /// Entries the table has room for without growing.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Number of distinct machine states currently interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no machine state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Identity hasher for digest keys: slot digests are SipHash outputs,
/// already uniform, so the map key hashes by truncating to the low 64
/// bits instead of re-hashing 16 bytes.
#[derive(Debug, Default, Clone)]
struct DigestHasher(u64);

impl std::hash::Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // u128 keys arrive as one 16-byte write; take the low word.
        let mut lo = [0u8; 8];
        let n = bytes.len().min(8);
        lo[..n].copy_from_slice(&bytes[..n]);
        self.0 = u64::from_le_bytes(lo);
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = v as u64;
    }
}

type BuildDigestHasher = std::hash::BuildHasherDefault<DigestHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use p_ast::{ProgramBuilder, Ty};

    impl Config {
        /// A copy whose every frame stores its inherited map in full, ⊥
        /// entries spelled out: the form every frame had before an all-⊥ map
        /// was stored as none, which must encode to the same bytes.
        fn with_maps_spelled_out(&self) -> Config {
            let machines = self.machines.iter().map(|slot| {
                slot.as_ref().map(|state| {
                    let mut state = MachineState::clone(state);
                    for frame in &mut state.stack {
                        frame.inherited = (0..state.event_count)
                            .map(|e| frame.inherited(EventId(e)))
                            .collect();
                    }
                    Arc::new(state)
                })
            });
            Config::from_machines(machines.collect())
        }

        /// Whether every frame of every machine is in the normal form: it
        /// stores an inherited map iff some entry is not ⊥.
        fn frames_in_normal_form(&self) -> bool {
            self.machines.iter().flatten().all(|state| {
                state.stack.iter().all(|frame| {
                    let map = &frame.inherited;
                    map.is_empty()
                        || (map.len() == state.event_count as usize
                            && map.iter().any(|&h| h != Inherited::None))
                })
            })
        }
    }

    fn tiny_program() -> LoweredProgram {
        let mut b = ProgramBuilder::new();
        b.event("e");
        b.event_with("d", Ty::Int);
        let mut m = b.machine("M");
        m.var("x", Ty::Int);
        m.state("A").defer(&["d"]);
        m.state("B");
        m.step("A", "e", "B");
        m.finish();
        lower(&b.finish("M")).unwrap()
    }

    #[test]
    fn allocate_sets_up_initial_machine() {
        let p = tiny_program();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        let m = c.machine(id).unwrap();
        assert_eq!(m.stack.len(), 1);
        assert_eq!(m.current_state(), StateId(0));
        assert_eq!(m.locals, vec![Value::Null]);
        assert_eq!(m.cont.len(), 1);
        assert!(m.queue.is_empty());
    }

    #[test]
    fn enqueue_deduplicates_identical_pairs() {
        let p = tiny_program();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        let m = c.machine_mut(id).unwrap();
        let e = EventId(0);
        assert!(m.enqueue(e, Value::Null));
        assert!(!m.enqueue(e, Value::Null));
        // Same event with a different payload is a distinct pair.
        assert!(m.enqueue(e, Value::Int(1)));
        assert!(m.enqueue(e, Value::Int(2)));
        assert!(!m.enqueue(e, Value::Int(1)));
        assert_eq!(m.queue.len(), 3);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let p = tiny_program();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        c.delete(id);
        assert!(c.machine(id).is_none());
        assert_eq!(c.created_count(), 1);
        assert_eq!(c.live_ids().count(), 0);
        // A new allocation gets a fresh id, not the tombstone's.
        let id2 = c.allocate(&p, p.main);
        assert_ne!(id, id2);
    }

    #[test]
    fn dequeue_skips_deferred_events() {
        let p = tiny_program();
        let d = p.event_id_named("d").unwrap();
        let e = p.event_id_named("e").unwrap();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        {
            let m = c.machine_mut(id).unwrap();
            m.cont.clear(); // pretend entry finished
            m.enqueue(d, Value::Int(1));
            m.enqueue(e, Value::Null);
        }
        let m = c.machine(id).unwrap();
        // `d` is deferred in state A, `e` has a transition: index 1.
        assert_eq!(m.dequeuable_index(&p), Some(1));
    }

    #[test]
    fn enabled_accounts_for_queue_and_cont() {
        let p = tiny_program();
        let d = p.event_id_named("d").unwrap();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        assert!(c.enabled(id, &p)); // entry statement still to run
        c.machine_mut(id).unwrap().cont.clear();
        assert!(!c.enabled(id, &p)); // empty queue
        c.machine_mut(id).unwrap().enqueue(d, Value::Null);
        assert!(!c.enabled(id, &p)); // only a deferred event queued
    }

    #[test]
    fn canonical_bytes_distinguish_configs() {
        let p = tiny_program();
        let mut c1 = Config::default();
        let id = c1.allocate(&p, p.main);
        let mut c2 = c1.clone();
        assert_eq!(c1.canonical_bytes(), c2.canonical_bytes());
        c2.machine_mut(id).unwrap().locals[0] = Value::Int(3);
        assert_ne!(c1.canonical_bytes(), c2.canonical_bytes());
    }

    /// The stability contract: queue *order* is semantic content (FIFO
    /// dequeue), so two configurations differing only in the order of
    /// queued events must encode differently — and re-encoding the same
    /// configuration is bit-identical.
    #[test]
    fn canonical_bytes_distinguish_queue_order() {
        let p = tiny_program();
        let mut c1 = Config::default();
        let id = c1.allocate(&p, p.main);
        let mut c2 = c1.clone();
        c1.machine_mut(id).unwrap().enqueue(EventId(0), Value::Null);
        c1.machine_mut(id)
            .unwrap()
            .enqueue(EventId(1), Value::Int(1));
        c2.machine_mut(id)
            .unwrap()
            .enqueue(EventId(1), Value::Int(1));
        c2.machine_mut(id).unwrap().enqueue(EventId(0), Value::Null);
        assert_ne!(c1.canonical_bytes(), c2.canonical_bytes());
        assert_eq!(c1.canonical_bytes(), c1.canonical_bytes());
        assert_eq!(c1.canonical_bytes(), c1.clone().canonical_bytes());
    }

    /// The incremental digest must agree with a cold recomputation at
    /// every point of a mutate/clone/delete history, and distinguish the
    /// same configurations the canonical encoding distinguishes.
    #[test]
    fn digest_incremental_matches_uncached() {
        let p = tiny_program();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        assert_eq!(c.digest(), c.digest_uncached());

        // A branch clone shares machines; mutating one branch must not
        // disturb the other (copy-on-write) and both digests must track.
        let mut branch = c.clone();
        branch.machine_mut(id).unwrap().locals[0] = Value::Int(7);
        assert_eq!(branch.digest(), branch.digest_uncached());
        assert_eq!(c.digest(), c.digest_uncached());
        assert_ne!(c.digest(), branch.digest());
        assert_eq!(c.machine(id).unwrap().locals[0], Value::Null);

        // Enqueue through the cache-invalidating accessor.
        c.machine_mut(id).unwrap().enqueue(EventId(0), Value::Null);
        assert_eq!(c.digest(), c.digest_uncached());

        // Allocation and deletion both reshape the slot vector.
        let id2 = c.allocate(&p, p.main);
        assert_eq!(c.digest(), c.digest_uncached());
        c.delete(id2);
        assert_eq!(c.digest(), c.digest_uncached());

        // A tombstone is not the same as the machine never existing.
        let mut fresh = Config::default();
        fresh.allocate(&p, p.main);
        fresh
            .machine_mut(MachineId(0))
            .unwrap()
            .enqueue(EventId(0), Value::Null);
        assert_ne!(c.digest(), fresh.digest());
    }

    /// Digest equality must coincide with canonical-encoding equality.
    #[test]
    fn digest_tracks_canonical_bytes() {
        let p = tiny_program();
        let mut c1 = Config::default();
        let id = c1.allocate(&p, p.main);
        let mut c2 = c1.clone();
        assert_eq!(c1.digest(), c2.digest());
        c2.machine_mut(id).unwrap().locals[0] = Value::Int(3);
        assert_ne!(c1.canonical_bytes(), c2.canonical_bytes());
        assert_ne!(c1.digest(), c2.digest());
    }

    /// `encoded_len` equals the materialized canonical encoding's length
    /// (the stored-bytes statistic must not drift from the old
    /// accounting).
    #[test]
    fn encoded_len_matches_canonical_bytes_len() {
        let p = tiny_program();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        assert_eq!(c.encoded_len(), c.canonical_bytes().len());
        c.machine_mut(id)
            .unwrap()
            .enqueue(EventId(1), Value::Int(4));
        c.allocate(&p, p.main);
        assert_eq!(c.encoded_len(), c.canonical_bytes().len());
        c.delete(id);
        assert_eq!(c.encoded_len(), c.canonical_bytes().len());
    }

    /// Checkpoint round trip: decoding the canonical encoding rebuilds
    /// an equal configuration with an equal digest — through mutation,
    /// deletion (tombstones), queued payloads, and a raised event.
    #[test]
    fn canonical_bytes_round_trip() {
        let p = tiny_program();
        let n_events = p.event_count();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        let id2 = c.allocate(&p, p.main);
        {
            let m = c.machine_mut(id).unwrap();
            m.locals[0] = Value::Machine(id2);
            m.enqueue(EventId(0), Value::Int(-9));
            m.enqueue(EventId(1), Value::Null);
            m.pending = Some((EventId(1), Value::Bool(true)));
        }
        c.delete(id2);
        let bytes = c.canonical_bytes();
        let back = Config::from_canonical_bytes(&bytes, n_events).expect("round trip");
        assert_eq!(back, c);
        assert_eq!(back.canonical_bytes(), bytes);
        let mut back = back;
        assert_eq!(back.digest(), c.digest());
    }

    /// Malformed inputs are rejected with a typed error naming the
    /// cause, never panicked on: truncation, trailing garbage, and a
    /// bad tag byte are each distinguished.
    #[test]
    fn from_canonical_bytes_rejects_malformed() {
        let p = tiny_program();
        let n_events = p.event_count();
        let mut c = Config::default();
        c.allocate(&p, p.main);
        let bytes = c.canonical_bytes();
        for cut in 0..bytes.len() {
            let err = Config::from_canonical_bytes(&bytes[..cut], n_events)
                .expect_err("truncation must be rejected");
            assert!(
                matches!(
                    err,
                    ConfigDecodeError::Truncated { .. } | ConfigDecodeError::BadMachine { .. }
                ),
                "truncation at {cut} gave {err}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            Config::from_canonical_bytes(&trailing, n_events),
            Err(ConfigDecodeError::TrailingBytes { extra: 1 })
        ));
        let mut bad_tag = bytes.clone();
        bad_tag[4] = 7; // slot tag must be 0 or 1
        assert!(matches!(
            Config::from_canonical_bytes(&bad_tag, n_events),
            Err(ConfigDecodeError::BadSlotTag { slot: 0, tag: 7 })
        ));
        // A wrong event count misaligns the frame decode.
        assert!(Config::from_canonical_bytes(&bytes, n_events + 13).is_err());
        // Errors format with their position so corruption reports read.
        let err = Config::from_canonical_bytes(&bytes[..2], n_events).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    /// Interning admitted configurations shares identical slots behind
    /// one `Arc` and accounts each distinct machine state's bytes
    /// exactly once.
    #[test]
    fn intern_slots_shares_and_counts_once() {
        let p = tiny_program();
        let mut interner = SlotInterner::new();
        let mut a = Config::default();
        a.allocate(&p, p.main);
        a.allocate(&p, p.main);
        let overhead = 4 + a.machines.len();
        let slot_len: usize = a.canonical_bytes().len() - overhead;
        // Two freshly allocated machines are identical: one insert.
        let fresh_a = a.intern_slots(&mut interner);
        assert_eq!(interner.len(), 1);
        assert_eq!(fresh_a, overhead + slot_len / 2);
        assert!(Arc::ptr_eq(
            a.machines[0].as_ref().unwrap(),
            a.machines[1].as_ref().unwrap()
        ));
        // A second config with the same content adds only overhead.
        let mut b = Config::default();
        b.allocate(&p, p.main);
        b.allocate(&p, p.main);
        let fresh_b = b.intern_slots(&mut interner);
        assert_eq!(fresh_b, overhead);
        assert_eq!(interner.len(), 1);
        assert!(Arc::ptr_eq(
            a.machines[0].as_ref().unwrap(),
            b.machines[1].as_ref().unwrap()
        ));
        // Interning preserves digests and canonical bytes.
        assert_eq!(b.digest(), b.digest_uncached());
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        // A mutated slot is a new distinct state: its bytes are fresh.
        b.machine_mut(MachineId(0)).unwrap().locals[0] = Value::Int(77);
        let mutated_len = b.canonical_bytes().len() - overhead - slot_len / 2;
        let fresh_b2 = b.intern_slots(&mut interner);
        assert_eq!(fresh_b2, overhead + mutated_len);
        assert_eq!(interner.len(), 2);
        // Re-interning with nothing dirty adds only overhead again.
        assert_eq!(b.intern_slots(&mut interner), overhead);
    }

    /// The interner's capacity limit stops growth but keeps lookups
    /// serving, and a full table counts unshared bytes as fresh.
    #[test]
    fn intern_slots_respects_capacity_limit() {
        let p = tiny_program();
        let mut interner = SlotInterner::with_capacity_limit(1);
        let mut a = Config::default();
        a.allocate(&p, p.main);
        let overhead = 4 + 1;
        let slot_len = a.canonical_bytes().len() - overhead;
        assert_eq!(a.intern_slots(&mut interner), overhead + slot_len);
        assert_eq!(interner.len(), 1);
        // A distinct state cannot be inserted: counted fresh each time.
        let mut b = Config::default();
        let id = b.allocate(&p, p.main);
        b.machine_mut(id).unwrap().locals[0] = Value::Int(5);
        let b_len = b.canonical_bytes().len() - overhead;
        assert_eq!(b.intern_slots(&mut interner), overhead + b_len);
        assert_eq!(interner.len(), 1);
        // The existing entry still serves hits.
        let mut c = Config::default();
        c.allocate(&p, p.main);
        assert_eq!(c.intern_slots(&mut interner), overhead);
        assert!(Arc::ptr_eq(
            a.machines[0].as_ref().unwrap(),
            c.machines[0].as_ref().unwrap()
        ));
    }

    /// Two tables that account through one `first_seen` set count a slot
    /// once between them, and a configuration rehomed from one table to
    /// the other keeps its content and digest, shares no interned
    /// allocation with the table it left, and keeps the slots it has
    /// not interned yet.
    #[test]
    fn tables_account_as_one_and_rehoming_shares_nothing() {
        let p = tiny_program();
        let mut seen = std::collections::HashSet::new();
        let (mut mine, mut theirs) = (SlotInterner::new(), SlotInterner::new());
        let mut a = Config::default();
        let id = a.allocate(&p, p.main);
        a.allocate(&p, p.main);
        let overhead = 4 + 2;
        let slot_len = (a.canonical_bytes().len() - overhead) / 2;
        let fresh = a.intern_slots_with(&mut theirs, |d| seen.insert(d));
        assert_eq!(fresh, overhead + slot_len);
        // The same content through the other table: known to the set,
        // so not counted again, though that table stores its own copy.
        let mut b = Config::default();
        b.allocate(&p, p.main);
        assert_eq!(b.intern_slots_with(&mut mine, |d| seen.insert(d)), 4 + 1);
        assert!(!mine.shares_allocation_with(&theirs));

        // `a` moves to `mine` with one slot mutated since it was interned.
        a.machine_mut(id).unwrap().locals[0] = Value::Int(3);
        let digest = a.digest();
        let own = Arc::clone(a.machines[0].as_ref().unwrap());
        let before = a.clone();
        assert!(!a.is_interned_in(&mine), "slot 1 is still `theirs`");
        a.rehome_slots(&mut mine);
        assert!(a.is_interned_in(&mine) && !a.is_interned_in(&theirs));
        assert_eq!(a, before);
        assert_eq!(a.digest(), digest);
        assert!(Arc::ptr_eq(a.machines[0].as_ref().unwrap(), &own));
        assert!(Arc::ptr_eq(
            a.machines[1].as_ref().unwrap(),
            b.machines[0].as_ref().unwrap()
        ));
        assert!(!mine.shares_allocation_with(&theirs));
        // The mutated slot is still owed to the accounting.
        let mutated_len = a.canonical_bytes().len() - overhead - slot_len;
        let fresh = a.intern_slots_with(&mut mine, |d| seen.insert(d));
        assert_eq!(fresh, overhead + mutated_len);

        // A slot the new table has never met is copied in, not shared.
        let mut c = before.clone();
        c.intern_slots_with(&mut theirs, |d| seen.insert(d));
        let mut third = SlotInterner::new();
        c.rehome_slots(&mut third);
        assert_eq!(c, a);
        assert_eq!(third.len(), 2);
        assert!(!third.shares_allocation_with(&theirs));
        assert!(mine.shares_allocation_with(&mine));
    }

    /// A table over its byte budget drops the slots no configuration
    /// holds and only those: a held slot stays the table's allocation,
    /// the byte total is what the table still holds, and a dropped slot
    /// interned again is stored again but not accounted again.
    #[test]
    fn a_sweep_drops_only_the_slots_no_configuration_holds() {
        let p = tiny_program();
        let mut seen = std::collections::HashSet::new();
        let config = |k: i64| {
            let mut c = Config::default();
            let id = c.allocate(&p, p.main);
            c.machine_mut(id).unwrap().locals[0] = Value::Int(k);
            c
        };
        let mut probe = SlotInterner::new();
        config(0).intern_slots(&mut probe);
        let slot = probe.state_bytes();
        // Room for two slots: the third sweeps first.
        let mut interner = SlotInterner::with_budget(2 * slot);
        let (mut a, mut b, mut c) = (config(1), config(2), config(3));
        let overhead = 4 + 1;
        let slot_len = a.canonical_bytes().len() - overhead;
        for x in [&mut a, &mut b] {
            assert_eq!(
                x.intern_slots_with(&mut interner, |d| seen.insert(d)),
                overhead + slot_len
            );
        }
        let slot_digest = |x: &Config| x.cached_slot_digest(MachineId(0)).unwrap().0;
        let dropped = slot_digest(&b);
        drop(b);
        assert_eq!(interner.len(), 2);
        c.intern_slots_with(&mut interner, |d| seen.insert(d));
        assert_eq!(interner.len(), 2, "the slot of the dropped `b` is swept");
        assert!(interner.get(dropped).is_none());
        for x in [&mut a, &mut c] {
            assert!(x.is_interned_in(&interner));
            let own = interner.get(slot_digest(x)).expect("held, so kept");
            assert!(Arc::ptr_eq(x.machine_arc(MachineId(0)).unwrap(), own));
        }
        let held = |i: &SlotInterner| i.table.values().map(|s| s.resident_bytes()).sum::<usize>();
        assert_eq!(interner.state_bytes(), held(&interner));
        assert_eq!(interner.state_bytes(), 2 * slot);
        // `b` again: stored again, but its bytes were counted already.
        let mut b = config(2);
        assert_eq!(
            b.intern_slots_with(&mut interner, |d| seen.insert(d)),
            overhead
        );
        assert!(b.is_interned_in(&interner));
        assert_eq!(interner.len(), 3, "every slot is held: nothing to sweep");
        assert_eq!(interner.state_bytes(), held(&interner));
        // Without a budget nothing is ever swept.
        let mut unbounded = SlotInterner::new();
        for k in 0..8 {
            config(k).intern_slots(&mut unbounded);
        }
        assert_eq!(unbounded.len(), 8);
        assert_eq!(unbounded.state_bytes(), held(&unbounded));
    }

    /// A sweep that leaves more than half the budget held moves the next
    /// sweep to twice what it left, so a held set past the budget does
    /// not sweep at every insert.
    #[test]
    fn a_held_set_past_the_budget_sweeps_once_per_doubling() {
        let p = tiny_program();
        let config = |k: i64| {
            let mut c = Config::default();
            let id = c.allocate(&p, p.main);
            c.machine_mut(id).unwrap().locals[0] = Value::Int(k);
            c
        };
        let mut probe = SlotInterner::new();
        config(0).intern_slots(&mut probe);
        let slot = probe.state_bytes();
        let mut interner = SlotInterner::with_budget(2 * slot);
        let mut held: Vec<Config> = (1..=3).map(config).collect();
        for c in &mut held {
            c.intern_slots(&mut interner);
        }
        // The third slot swept and found all held: the next sweep waits
        // for four slots' worth.
        assert_eq!(interner.len(), 3);
        held.remove(1);
        config(4).intern_slots(&mut interner);
        assert_eq!(interner.len(), 4, "no sweep at four slots");
        config(5).intern_slots(&mut interner);
        assert_eq!(
            interner.len(),
            3,
            "the fifth sweeps the two slots nothing holds"
        );
        assert_eq!(interner.state_bytes(), 3 * slot);
    }

    /// The digest cache must never leak into equality.
    #[test]
    fn equality_ignores_digest_cache() {
        let p = tiny_program();
        let mut a = Config::default();
        a.allocate(&p, p.main);
        let b = a.clone();
        let _ = a.digest(); // fill a's cache only
        assert_eq!(a, b);
    }

    /// A slot costs what it holds: the bottom frame's all-⊥ map is not
    /// stored, and the event count rides in what was padding.
    #[test]
    fn initial_frames_allocate_nothing_and_a_slot_stays_160_bytes() {
        let p = tiny_program();
        let frame = Frame::initial(StateId(0));
        assert!(frame.inherited.is_empty());
        assert_eq!(frame.inherited.capacity(), 0);
        assert_eq!(frame.inherited(EventId(1)), Inherited::None);
        let m = MachineState::initial(&p, p.main);
        assert_eq!(m.stack[0].inherited.capacity(), 0);
        assert!(std::mem::size_of::<MachineState>() <= 160);
    }

    /// A stored map is never all ⊥, an empty one encodes as the ⊥
    /// entries spelled out, and decoding restores the normal form.
    #[test]
    fn an_all_bottom_map_is_stored_as_none_and_encodes_in_full() {
        let p = tiny_program();
        let n_events = p.event_count();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        {
            let m = c.machine_mut(id).unwrap();
            let mut map = vec![Inherited::None; n_events];
            map[1] = Inherited::Deferred;
            m.stack.push(Frame::new(
                StateId(1),
                map,
                Some(vec![Instr::Loop(StmtId(0))]),
            ));
            m.stack.push(Frame::new(
                StateId(0),
                vec![Inherited::None; n_events],
                None,
            ));
            assert_eq!(m.stack[1].inherited.len(), n_events);
            assert_eq!(m.stack[1].inherited(EventId(1)), Inherited::Deferred);
            assert!(m.stack[2].inherited.is_empty());
        }
        assert!(c.frames_in_normal_form());
        let spelled = c.with_maps_spelled_out();
        assert!(!spelled.frames_in_normal_form());
        let bytes = c.canonical_bytes();
        assert_eq!(spelled.canonical_bytes(), bytes);
        assert_eq!(spelled.digest_uncached(), c.digest_uncached());
        let back = Config::from_canonical_bytes(&bytes, n_events).unwrap();
        assert!(back.frames_in_normal_form());
        assert_eq!(back, c);
        assert_ne!(back, spelled, "a spelled-out map is not the normal form");
    }

    /// Every buffer of an interned slot has no spare capacity: the
    /// candidate, its only handle, is shrunk in place.
    #[test]
    fn interned_slots_are_stored_at_their_exact_size() {
        let p = tiny_program();
        let n_events = p.event_count();
        let exact = |m: &MachineState| {
            m.stack.capacity() == m.stack.len()
                && m.stack.iter().all(|f| {
                    f.inherited.capacity() == f.inherited.len()
                        && f.resume.as_ref().is_none_or(|r| r.capacity() == r.len())
                })
                && m.locals.capacity() == m.locals.len()
                && m.cont.capacity() == m.cont.len()
                && m.queue.capacity() == m.queue.len()
        };
        let mut interner = SlotInterner::new();
        let mut c = Config::default();
        let id = c.allocate(&p, p.main);
        {
            let m = c.machine_mut(id).unwrap();
            m.cont.clear();
            m.cont.reserve(9);
            m.queue.reserve(7);
            m.enqueue(EventId(1), Value::Int(4));
            m.locals.reserve(5);
            let mut map = Vec::with_capacity(3 * n_events);
            map.extend([Inherited::Deferred, Inherited::None]);
            let mut resume = Vec::with_capacity(6);
            resume.push(Instr::PopViaReturn);
            m.stack.reserve(4);
            m.stack.push(Frame::new(StateId(1), map, Some(resume)));
            assert!(!exact(m));
        }
        let before = Arc::as_ptr(c.machine_arc(id).unwrap());
        let digest = c.digest();
        c.intern_slots(&mut interner);
        let slot = c.machine_arc(id).unwrap();
        assert!(exact(slot));
        assert_eq!(Arc::as_ptr(slot), before, "shrunk in place, not copied");
        assert_eq!(interner.state_bytes(), slot.resident_bytes());
        assert_eq!(c.digest(), digest);
        assert_eq!(c.digest_uncached(), digest);
    }
}
