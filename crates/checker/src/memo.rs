//! The slot-transition memo (DESIGN.md §15, "Replayed runs", has why a
//! replay is the run it stands for): a run remembered as (machine, slot
//! digest, script) → the runner's slot digest after it, and its ⊕ append
//! to another machine as (target, slot digest, event, payload) → the
//! target's slot digest after it. Both tables are direct-mapped, fixed
//! in size and hold no `MachineState`; a collision overwrites, a hit
//! compares the whole key.

use p_semantics::{Config, EventId, ExecOutcome, MachineId, RunResult, Value, YieldKind};

/// One run: the runner, its slot digest, and its choice script as bits
/// (at most 64) and their number.
pub(crate) type RunKey = (MachineId, u128, u64, usize);

/// A run, and what it did: the runner's slot digest and encoded length
/// after it; its outcome, steps and choices (`enqueued` of a send to
/// another machine is the append table's); and that send's target, event
/// and payload.
type Run = (
    RunKey,
    (u128, u32),
    (ExecOutcome, usize, usize),
    Option<Sent>,
);
type Sent = (MachineId, EventId, Value);

/// One ⊕ append (target, its slot digest, event, payload), and with it
/// the target's slot digest, encoded length and `enqueued` after it.
type AppendKey = (MachineId, u128, EventId, Value);
type Append = (AppendKey, (u128, u32, bool));

/// A replayed run's child, not built: its digest, the run's script bits,
/// and the one or two (slot, slot digest, encoded length) in which it
/// differs from the parent — the runner's, then a ⊕ target's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Replay {
    pub(crate) digest: u128,
    pub(crate) bits: u64,
    slots: [(MachineId, u128, u32); 2],
    sent: bool,
}

impl Replay {
    /// The slots the run changed.
    pub(crate) fn slots(&self) -> &[(MachineId, u128, u32)] {
        &self.slots[..1 + usize::from(self.sent)]
    }

    /// The machine that ran.
    pub(crate) fn machine(&self) -> MachineId {
        self.slots[0].0
    }
}

/// A worker's memo: a run table and an append table, allocated once.
#[derive(Debug)]
pub(crate) struct SlotMemo {
    runs: Vec<Option<Run>>,
    appends: Vec<Option<Append>>,
}

/// Where `digest` with `salt` goes in a table of `len` entries (a power
/// of two). Digests are SipHash outputs, uniform in every bit; the high
/// half of the salt's product depends on every bit of the salt.
fn index(digest: u128, salt: u64, len: usize) -> usize {
    let mixed = u128::from(salt) * 0x9e37_79b9_7f4a_7c15;
    ((digest as u64) ^ (mixed >> 64) as u64 ^ mixed as u64) as usize & (len - 1)
}

impl SlotMemo {
    pub(crate) fn new(runs: usize, appends: usize) -> SlotMemo {
        assert!(runs.is_power_of_two() && appends.is_power_of_two());
        let (runs, appends) = (vec![None; runs], vec![None; appends]);
        SlotMemo { runs, appends }
    }

    /// The key of running `machine` from `parent` with `script`: `None`
    /// when the memo can neither answer nor learn the run, because the
    /// runner's digest is not cached (a cold parent, as straight after a
    /// resume) or the script is longer than 64 bits.
    pub(crate) fn key(parent: &Config, machine: MachineId, script: &[bool]) -> Option<RunKey> {
        let (digest, _) = parent.cached_slot_digest(machine)?;
        let bits = script.iter().rfold(0, |bits, &b| bits << 1 | u64::from(b));
        (script.len() <= 64).then_some((machine, digest, bits, script.len()))
    }

    fn run_slot(&self, &(machine, digest, bits, n): &RunKey) -> usize {
        let salt = u64::from(machine.0) ^ bits.rotate_left(20) ^ (n as u64) << 58;
        index(digest, salt, self.runs.len())
    }

    fn append_slot(&self, &(target, digest, event, payload): &AppendKey) -> usize {
        let payload = match payload {
            Value::Int(i) => i as u64,
            Value::Machine(m) => u64::from(m.0) << 32,
            _ => 0,
        };
        let salt = u64::from(target.0) << 32 ^ u64::from(event.0) ^ payload.rotate_left(12);
        index(digest, salt, self.appends.len())
    }

    fn run(&self, key: &RunKey) -> Option<&Run> {
        self.runs[self.run_slot(key)]
            .as_ref()
            .filter(|run| run.0 == *key)
    }

    /// The run `key` from `parent`, replayed: the result the interpreter
    /// would return (with the engine's event logs off) and the child's
    /// slots. `None` leaves the run to the interpreter: the memo has not
    /// seen it, the parent's digests are cold, or the run sends to a
    /// machine whose slot content the memo has not seen take the append.
    /// That covers a target that is dead here (rule SEND-FAIL2): its
    /// tombstone digest keys no append, for a send to a dead machine is
    /// an error and errors are not remembered.
    pub(crate) fn replay(&self, key: &RunKey, parent: &Config) -> Option<(RunResult, Replay)> {
        let (_, (after, len), (mut outcome, steps, choices_used), sent) = self.run(key)?.clone();
        let mut slots = [(key.0, after, len); 2];
        if let Some((to, event, payload)) = sent {
            let append = (to, parent.cached_slot_digest(to)?.0, event, payload);
            let entry = self.appends[self.append_slot(&append)].filter(|e| e.0 == append);
            let (after, len, appended) = entry?.1;
            if let ExecOutcome::Yield(YieldKind::Sent { enqueued, .. }) = &mut outcome {
                *enqueued = appended;
            }
            slots[1] = (to, after, len);
        }
        let digests = slots.map(|(id, digest, _)| (id, digest));
        let digest = parent.digest_with(&digests[..1 + usize::from(sent.is_some())])?;
        let result = RunResult {
            outcome,
            choices_used,
            steps,
            dequeued: Vec::new(),
            raised: Vec::new(),
            deferred: Vec::new(),
        };
        let replay = Replay {
            digest,
            bits: key.2,
            slots,
            sent: sent.is_some(),
        };
        Some((result, replay))
    }

    /// Remembers what the interpreter did: `child` is `parent` after the
    /// run `key` returned `result`, its digests filled. A run that
    /// creates or deletes a machine or ends in an error is not
    /// remembered, nor is a send that ⊕ dropped at another machine
    /// unless the memo knows its payload from the same run already.
    pub(crate) fn record(
        &mut self,
        key: &RunKey,
        parent: &Config,
        child: &Config,
        result: &RunResult,
    ) -> Option<()> {
        debug_assert!(result.dequeued.is_empty() && result.raised.is_empty());
        let append = match result.outcome {
            ExecOutcome::Blocked => None,
            ExecOutcome::Yield(YieldKind::Sent { to, .. }) if to == key.0 => None,
            ExecOutcome::Yield(YieldKind::Sent {
                to,
                event,
                enqueued,
            }) => {
                let payload = match enqueued {
                    true => child.machine(to)?.queue.last()?.1,
                    false => self.run(key)?.3?.2,
                };
                let before = parent.cached_slot_digest(to)?.0;
                let (after, len) = child.cached_slot_digest(to)?;
                let append = ((to, before, event, payload), (after, len, enqueued));
                let slot = self.append_slot(&append.0);
                self.appends[slot] = Some(append);
                Some((to, event, payload))
            }
            _ => return None,
        };
        let slot = child.cached_slot_digest(key.0)?;
        let index = self.run_slot(key);
        let ran = (result.outcome.clone(), result.steps, result.choices_used);
        self.runs[index] = Some((*key, slot, ran, append));
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The memo is its constant: at the kernel's size, both tables
    /// together stay within 256 KiB per worker.
    #[test]
    fn the_memo_is_a_constant_of_at_most_256_kib() {
        let (runs, appends) = crate::explore::SLOT_MEMO_ENTRIES.unwrap();
        let memo = SlotMemo::new(runs, appends);
        let bytes = memo.runs.capacity() * std::mem::size_of::<Option<Run>>()
            + memo.appends.capacity() * std::mem::size_of::<Option<Append>>();
        assert!(bytes <= 256 << 10, "{bytes} bytes");
    }
}
