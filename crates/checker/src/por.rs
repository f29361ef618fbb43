//! Sleep-set partial-order reduction for the exhaustive engines.
//!
//! Two atomic runs on *different* machines commute unless they touch a
//! common resource. An atomic run of machine `m` (which, by the
//! atomicity reduction of §5, stops at its first `send` or `new`)
//! reads and writes:
//!
//! * `m`'s own machine configuration (stack, locals, registers,
//!   continuation, queue — including the dequeue that may start the
//!   run; the `en(m)` predicate is likewise a function of `m` alone);
//! * on `send(t, e, v)`: the *target* slot `t` — its liveness (rule
//!   SEND-FAIL2) and its queue, which the ⊕ append both reads (for the
//!   dedup scan) and writes;
//! * on `new M(...)`: the machine-id allocator (ids are dense creation
//!   indices) and the freshly appended slot;
//! * `delete` only ever removes the running machine itself.
//!
//! So the *footprint* of a taken run is exact and tiny: the machine, an
//! optional send target, and optionally the created id plus an `ALLOC`
//! pseudo-resource (two creations race on id allocation — swapping them
//! swaps the ids they return — so they never commute). Two runs are
//! *independent* iff their footprints are disjoint; then they commute
//! as state transformers and neither enables or disables the other.
//!
//! For a machine that is *asleep* (its runs deferred to an ancestor
//! state), the run has not been executed, so we over-approximate its
//! footprint statically: the machine itself, every machine id stored
//! anywhere in its values (locals, `msg`/`arg` registers, pending raise
//! payload, queued payloads), and `ALLOC` when its machine type can
//! ever execute `new`. This is sound because [`p_semantics::Value`] is
//! a scalar: operators on machine values yield only booleans, literals
//! cannot denote machines, and `this` is the machine itself — so any
//! send target the next run can compute is already among the machine's
//! stored ids. Foreign functions are the one escape hatch (a native
//! implementation could fabricate an id), so machine types declaring
//! foreign functions get an unknown (⊤) footprint and are never treated
//! as independent.
//!
//! Sleep sets prune *transitions*, never states: on a complete run the
//! reduced search reaches exactly the states full exploration reaches
//! (Godefroid's classical result), which `tests/por_consistency.rs`
//! checks over the whole corpus, buggy variants included.

use p_semantics::lower::{LStmt, LoweredProgram, StmtId};
use p_semantics::{Config, ExecOutcome, MachineId, RunResult, Value, YieldKind};

/// A set of machines whose runs are deferred (already explored from an
/// ancestor state). Machines with id ≥ 64 are simply never slept —
/// conservative, hence sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SleepSet(pub u64);

impl SleepSet {
    /// The empty sleep set (nothing deferred; full exploration).
    pub(crate) fn empty() -> SleepSet {
        SleepSet(0)
    }

    /// Whether `id`'s runs are deferred here.
    pub(crate) fn contains(self, id: MachineId) -> bool {
        id.0 < 64 && self.0 & (1u64 << id.0) != 0
    }

    /// Adds `id` (no-op for untrackable ids ≥ 64).
    pub(crate) fn insert(&mut self, id: MachineId) {
        if id.0 < 64 {
            self.0 |= 1u64 << id.0;
        }
    }

    /// Whether every machine asleep in `self` is also asleep in `other`.
    pub(crate) fn is_subset_of(self, other: SleepSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Machines asleep in both.
    pub(crate) fn intersect(self, other: SleepSet) -> SleepSet {
        SleepSet(self.0 & other.0)
    }

    /// Iterates the member machine ids.
    fn iter(self) -> impl Iterator<Item = MachineId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros();
            bits &= bits - 1;
            Some(MachineId(i))
        })
    }
}

/// The set of resources an atomic run touches. Machine ids < 64 are a
/// bitmask; `overflow` stands for "some machine with id ≥ 64", `alloc`
/// for the machine-id allocator, and `unknown` poisons the footprint to
/// ⊤ (dependent with everything).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Footprint {
    machines: u64,
    overflow: bool,
    alloc: bool,
    unknown: bool,
}

impl Footprint {
    fn add_machine(&mut self, id: MachineId) {
        if id.0 < 64 {
            self.machines |= 1u64 << id.0;
        } else {
            self.overflow = true;
        }
    }

    /// Whether two footprints may overlap (conservatively).
    pub(crate) fn overlaps(&self, other: &Footprint) -> bool {
        self.unknown
            || other.unknown
            || (self.machines & other.machines) != 0
            || (self.alloc && other.alloc)
            || (self.overflow && other.overflow)
    }
}

/// Per-machine-type facts needed by the static footprint.
#[derive(Debug, Clone, Copy, Default)]
struct TypeCaps {
    /// The type's code can execute `new` somewhere.
    may_create: bool,
    /// The type declares foreign functions (whose native implementations
    /// could fabricate machine ids) — footprint is unknowable.
    has_foreign: bool,
}

/// Precomputed independence context for one program.
#[derive(Debug)]
pub(crate) struct Por {
    caps: Vec<TypeCaps>,
}

impl Por {
    /// Scans the lowered code of every machine type once.
    pub(crate) fn new(program: &LoweredProgram) -> Por {
        let caps = program
            .machines
            .iter()
            .map(|mt| {
                let mut roots: Vec<StmtId> = Vec::new();
                for s in &mt.states {
                    roots.push(s.entry);
                    roots.push(s.exit);
                }
                for a in &mt.actions {
                    roots.push(a.body);
                }
                for f in &mt.foreign {
                    if let Some(model) = &f.model {
                        roots.push(model.body);
                    }
                }
                TypeCaps {
                    may_create: roots.iter().any(|&r| stmt_may_create(program, r)),
                    has_foreign: !mt.foreign.is_empty(),
                }
            })
            .collect();
        Por { caps }
    }

    /// The exact footprint of a run of `machine` that produced `result`.
    pub(crate) fn run_footprint(&self, machine: MachineId, result: &RunResult) -> Footprint {
        let mut fp = Footprint::default();
        fp.add_machine(machine);
        match &result.outcome {
            ExecOutcome::Yield(YieldKind::Sent { to, .. }) => fp.add_machine(*to),
            ExecOutcome::Yield(YieldKind::Created { id, .. }) => {
                fp.add_machine(*id);
                fp.alloc = true;
            }
            _ => {}
        }
        fp
    }

    /// The static over-approximation of any run machine `id` could take
    /// from `config`.
    fn static_footprint(&self, config: &Config, id: MachineId) -> Footprint {
        let mut fp = Footprint::default();
        fp.add_machine(id);
        let Some(m) = config.machine(id) else {
            return fp; // dead machines take no runs
        };
        let caps = self.caps[m.ty.0 as usize];
        if caps.has_foreign {
            fp.unknown = true;
            return fp;
        }
        fp.alloc = caps.may_create;
        let mut note = |v: &Value| {
            if let Value::Machine(target) = v {
                fp.add_machine(*target);
            }
        };
        for v in &m.locals {
            note(v);
        }
        note(&m.msg);
        note(&m.arg);
        if let Some((_, v)) = &m.pending {
            note(v);
        }
        for (_, v) in &m.queue {
            note(v);
        }
        fp
    }
}

/// The static footprints of one state's sleepers, each computed the
/// first time a successor of the state asks for it. Reset per task: a
/// sleeper's footprint is a function of the state it sleeps in.
#[derive(Debug)]
pub(crate) struct SleeperFootprints {
    /// The machines whose entry of `footprints` is computed.
    known: u64,
    footprints: [Footprint; 64],
}

impl Default for SleeperFootprints {
    fn default() -> SleeperFootprints {
        SleeperFootprints {
            known: 0,
            footprints: [Footprint::default(); 64],
        }
    }
}

impl SleeperFootprints {
    /// Forgets every footprint, for a new state.
    pub(crate) fn reset(&mut self) {
        self.known = 0;
    }

    /// The sleep set a successor inherits: machines stay asleep only if
    /// their (statically approximated) next run is independent of the
    /// run just taken. `config` is the state the run was taken *from* —
    /// an independent sleeper's state is identical before and after, so
    /// evaluating its footprint at the parent is exact.
    pub(crate) fn filter(
        &mut self,
        por: &Por,
        config: &Config,
        sleep: SleepSet,
        taken: &Footprint,
    ) -> SleepSet {
        let mut out = SleepSet::empty();
        for p in sleep.iter() {
            let bit = 1u64 << p.0;
            if self.known & bit == 0 {
                self.footprints[p.0 as usize] = por.static_footprint(config, p);
                self.known |= bit;
            }
            if !self.footprints[p.0 as usize].overlaps(taken) {
                out.insert(p);
            }
        }
        out
    }
}

/// Whether the statement tree rooted at `root` contains a `new`.
fn stmt_may_create(program: &LoweredProgram, root: StmtId) -> bool {
    match program.code.stmt(root) {
        LStmt::New { .. } => true,
        LStmt::Block(children) => children.iter().any(|&c| stmt_may_create(program, c)),
        LStmt::If { then, els, .. } => {
            stmt_may_create(program, *then) || stmt_may_create(program, *els)
        }
        LStmt::While { body, .. } => stmt_may_create(program, *body),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::{lower, Engine, ForeignEnv, Granularity};

    fn compile(src: &str) -> LoweredProgram {
        lower(&p_parser::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn sleep_set_ops() {
        let mut s = SleepSet::empty();
        assert!(!s.contains(MachineId(3)));
        s.insert(MachineId(3));
        s.insert(MachineId(0));
        assert!(s.contains(MachineId(3)));
        assert!(s.contains(MachineId(0)));
        // Untrackable ids are silently not slept.
        s.insert(MachineId(64));
        assert!(!s.contains(MachineId(64)));
        let mut t = SleepSet::empty();
        t.insert(MachineId(3));
        assert!(t.is_subset_of(s));
        assert!(!s.is_subset_of(t));
        assert_eq!(s.intersect(t), t);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![MachineId(3)]);
    }

    #[test]
    fn footprint_overlap_rules() {
        let mut a = Footprint::default();
        a.add_machine(MachineId(1));
        let mut b = Footprint::default();
        b.add_machine(MachineId(2));
        assert!(!a.overlaps(&b));
        b.add_machine(MachineId(1));
        assert!(a.overlaps(&b));

        // Two allocators race even with disjoint machines.
        let alloc_a = Footprint {
            alloc: true,
            ..Footprint::default()
        };
        let alloc_b = Footprint {
            alloc: true,
            ..Footprint::default()
        };
        assert!(alloc_a.overlaps(&alloc_b));

        // Unknown is dependent with everything, even the empty footprint.
        let unknown = Footprint {
            unknown: true,
            ..Footprint::default()
        };
        assert!(unknown.overlaps(&Footprint::default()));

        // Untracked big ids conservatively collide with each other only.
        let mut big_a = Footprint::default();
        big_a.add_machine(MachineId(100));
        let mut big_b = Footprint::default();
        big_b.add_machine(MachineId(200));
        assert!(big_a.overlaps(&big_b));
        let small = Footprint {
            machines: 1,
            ..Footprint::default()
        };
        assert!(!big_a.overlaps(&small));
    }

    #[test]
    fn caps_detect_creation_anywhere_in_the_tree() {
        let program = compile(
            r#"
            event go;
            machine Worker { state W { defer go; } }
            ghost machine Spawner {
                var w : id;
                state S { entry { if (*) { w := new Worker(); } } }
            }
            main Spawner();
        "#,
        );
        let por = Por::new(&program);
        let spawner = program.machine_type_named("Spawner").unwrap();
        let worker = program.machine_type_named("Worker").unwrap();
        assert!(por.caps[spawner.0 as usize].may_create);
        assert!(!por.caps[worker.0 as usize].may_create);
    }

    #[test]
    fn run_footprint_covers_send_target_and_allocation() {
        let program = compile(
            r#"
            event ping;
            machine Pong { state P { defer ping; } }
            ghost machine Env {
                var p : id;
                state E { entry { p := new Pong(); send(p, ping); } }
            }
            main Env();
        "#,
        );
        let por = Por::new(&program);
        let engine = Engine::new(&program, ForeignEnv::empty());
        let mut config = engine.initial_config();
        // First atomic run stops at the `new`.
        let r1 = engine
            .run_machine(
                &mut config,
                MachineId(0),
                &mut || false,
                Granularity::Atomic,
            )
            .unwrap();
        let fp1 = por.run_footprint(MachineId(0), &r1);
        assert!(fp1.alloc, "creation must claim the allocator: {r1:?}");
        assert!(fp1.machines & 0b10 != 0, "created id in footprint");
        // Second run stops at the send.
        let r2 = engine
            .run_machine(
                &mut config,
                MachineId(0),
                &mut || false,
                Granularity::Atomic,
            )
            .unwrap();
        let fp2 = por.run_footprint(MachineId(0), &r2);
        assert!(!fp2.alloc);
        assert!(fp2.machines & 0b10 != 0, "send target in footprint");

        // Env's static footprint sees its stored reference to Pong and
        // its ability to create.
        let sfp = por.static_footprint(&config, MachineId(0));
        assert!(sfp.alloc);
        assert!(sfp.machines & 0b10 != 0);
        // Pong holds no machine values: its static footprint is itself.
        let pong_fp = por.static_footprint(&config, MachineId(1));
        assert_eq!(pong_fp.machines, 0b10);
        assert!(!pong_fp.alloc && !pong_fp.unknown);
        assert!(!pong_fp.overlaps(&Footprint {
            machines: 0b1,
            ..Footprint::default()
        }));
    }
}
