//! The explicit-state search kernel (the Zing-substrate analog) and the
//! option/report types shared by all strategies.
//!
//! One kernel runs the exhaustive, delay-bounded, fault-injecting and
//! liveness strategies, monomorphised on a [`Scheduler`] (DESIGN.md §9): workers
//! pop tasks from a work-stealing frontier, expand them depth-first and
//! offer every successor to one sharded visited table keyed by
//! collision-safe 128-bit [`Fingerprint`]s. [`CheckerOptions::jobs`]
//! only sets how many workers run that loop; `unique_states` and the
//! verdict do not depend on it, only the particular counterexample
//! trace may differ with more than one worker (first violation wins).
//!
//! The search optionally runs *crash-safe* and *memory-bounded* (see
//! DESIGN.md §13): [`CheckerOptions::checkpoint`] periodically persists
//! the entire search state so a killed run resumes via
//! [`CheckerOptions::resume`], and [`CheckerOptions::mem_limit`] spills
//! the visited set to disk once its RAM share exceeds the budget.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use p_semantics::{
    canonical_digest, canonical_digest_counted, canonical_digest_replayed, canonical_pin, Config,
    Engine, ExecOutcome, ForeignEnv, Granularity, LoweredProgram, MachineId, MachineState, PError,
    SlotInterner,
};

use p_telemetry::Telemetry;

use crate::checkpoint::{self, malformed, CheckpointData, CheckpointPolicy, TaskEntry};
use crate::engine::{
    hot_budget_for, slot_budget_for, table_bytes, Admit, Frontier, IdBlock, SharedCounters,
    SharedTable, TaskId, TaskIds,
};
use crate::error::CheckerError;
use crate::fault::FaultDecision;
use crate::fingerprint::{prefetch_line, Fingerprint, FpHashSet};
use crate::memo::Replay;
use crate::phase::Phase;
use crate::por::{Por, SleepSet, SleeperFootprints};
use crate::stats::ExplorationStats;
use crate::succ::{successors_into, SuccArena, Successor};
use crate::trace::{Counterexample, TaskPath, TraceStep, NO_NODE};

/// How often a worker offers a progress snapshot to the
/// telemetry layer (further throttled there by wall-clock interval).
#[cfg(feature = "telemetry")]
const SNAPSHOT_EVERY_TASKS: usize = 256;

/// How many tasks a worker expands between flushes of its counters to
/// the shared totals (it also flushes before parking at a checkpoint
/// rendezvous and on exit, so no total ever misses a task).
const FLUSH_EVERY_TASKS: u64 = 64;

/// Entries of a worker's [`CanonMemo`] (512 KiB): the children a pin
/// settles never reach it.
const CANON_MEMO_ENTRIES: usize = 1 << 14;

/// (runs, appends) entries of a worker's slot-transition memo
/// ([`crate::memo`]); a smaller memo answers fewer runs, never others.
pub(crate) const SLOT_MEMO_ENTRIES: Option<(usize, usize)> = Some((1 << 10, 1 << 10));

/// A worker's concrete → canonical fingerprint memo: most successors
/// are revisits of a concrete state the worker canonicalized not long
/// ago, and canonicalization costs more than a probe. Direct-mapped and
/// fixed-size, so `symmetry` adds a constant to a run's memory whatever
/// its state count (under `mem_limit` too); a collision overwrites, a
/// hit compares the full concrete fingerprint, and the value is a pure
/// function of the key, so a miss only costs a re-canonicalization.
struct CanonMemo(Vec<(Fingerprint, Fingerprint)>);

impl CanonMemo {
    /// An empty memo; nothing is allocated with `symmetry` off.
    fn new(symmetry: bool) -> CanonMemo {
        let len = if symmetry { CANON_MEMO_ENTRIES } else { 0 };
        // `!i` and `i` differ in every bit, so entry `i` starts with a
        // concrete fingerprint that indexes elsewhere: no lookup can
        // match an entry nobody wrote.
        let unwritten = |i| {
            (
                Fingerprint::from_u128(!(i as u128)),
                Fingerprint::from_u128(0),
            )
        };
        CanonMemo((0..len).map(unwritten).collect())
    }

    fn index(concrete: Fingerprint) -> usize {
        concrete.as_u128() as usize & (CANON_MEMO_ENTRIES - 1)
    }

    /// Starts loading the entry a lookup of `concrete` reads.
    fn prefetch(&self, concrete: Fingerprint) {
        let entry = std::mem::size_of::<(Fingerprint, Fingerprint)>() * CanonMemo::index(concrete);
        prefetch_line(self.0.as_ptr() as usize + entry);
    }

    /// The canonical fingerprint of `concrete`, from the memo or else
    /// from `canon` (and then remembered).
    fn get_or_insert_with(
        &mut self,
        concrete: Fingerprint,
        canon: impl FnOnce() -> Fingerprint,
    ) -> Fingerprint {
        let entry = &mut self.0[CanonMemo::index(concrete)];
        if entry.0 != concrete {
            *entry = (concrete, canon());
        }
        entry.1
    }
}

/// A search strategy, plugged into [`Verifier::search_with`]. It says
/// which moves leave a node and what annotation the child of a move
/// carries (and serialises that annotation); the rest is the kernel's,
/// once, for every strategy. Its `Debug` form, parameters included,
/// goes into the checkpoint digest.
pub(crate) trait Scheduler: Sync + std::fmt::Debug {
    /// What a node carries besides its configuration: part of its
    /// visited key ([`node_key`]) and of its task.
    type Note: Clone + Send + Sync + std::fmt::Debug;
    /// One way out of a node.
    type Move;
    /// Whether nodes are annotated at all: then unique configurations are
    /// counted by [`SharedTable::mark`] and `por`/`symmetry` are refused.
    const ANNOTATED: bool = true;
    /// What a worker keeps of the graph it expands (`()`: nothing).
    type Graph: Default + Send;
    /// The liveness search: an error outcome is a terminal edge, not a
    /// violation; runs keep their dequeue log (so no slot memo answers
    /// them); `por`, `symmetry`, `checkpoint` and `resume` are refused.
    const LIVENESS: bool = false;

    /// The initial node's annotation.
    fn root(&self) -> Self::Note;

    /// The moves leaving `(config, note)` into `out` (cleared first), in
    /// exploration order; `note` may be normalised on the way. Returns
    /// whether `config` is quiescent (for the per-state diagnostics).
    fn moves(
        &self,
        engine: &Engine<'_>,
        config: &Config,
        note: &mut Self::Note,
        out: &mut Vec<Self::Move>,
    ) -> bool;

    /// What taking `mv` does to the configuration.
    fn step(mv: &Self::Move) -> Step;

    /// The annotation of the node `mv` leads to when it ends in `outcome`.
    fn child(&self, note: &Self::Note, mv: &Self::Move, outcome: &ExecOutcome) -> Self::Note;

    /// The annotation's bytes, as the node key and a checkpoint hold them.
    fn encode(note: &Self::Note, out: &mut Vec<u8>);

    /// Inverse of [`Scheduler::encode`]; `None` on malformed bytes.
    fn decode(bytes: &[u8]) -> Option<Self::Note>;

    /// Keeps expanded node `id`, whose edges were offered just before.
    fn keep_node(_: &mut Self::Graph, _id: TaskId, _config: &mut Config) {}

    /// Keeps an edge offered to the configuration of concrete fingerprint
    /// `to` (its machine run and dequeued events are `succ`'s).
    fn keep_edge(_: &mut Self::Graph, _to: Fingerprint, _succ: &Successor) {}
}

/// What a move does: run a machine (one successor per resolution of its
/// ghost choices) or tamper with a queue (one successor).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    Run(MachineId),
    Inject(FaultDecision),
}

/// The exhaustive strategy: run each enabled machine; no annotation.
#[derive(Debug)]
pub(crate) struct Exhaustive;

impl Scheduler for Exhaustive {
    type Note = ();
    type Move = MachineId;
    const ANNOTATED: bool = false;
    type Graph = ();

    fn root(&self) {}

    fn moves(
        &self,
        engine: &Engine<'_>,
        config: &Config,
        _: &mut (),
        out: &mut Vec<MachineId>,
    ) -> bool {
        engine.enabled_machines_into(config, out);
        out.is_empty()
    }

    fn step(mv: &MachineId) -> Step {
        Step::Run(*mv)
    }

    fn child(&self, _: &(), _: &MachineId, _: &ExecOutcome) {}

    fn encode(_: &(), _: &mut Vec<u8>) {}

    fn decode(bytes: &[u8]) -> Option<()> {
        bytes.is_empty().then_some(())
    }
}

/// The visited key of an annotated node: the fingerprint of the
/// configuration digest followed by the annotation's bytes.
fn node_key<S: Scheduler>(config: Fingerprint, note: &S::Note, buf: &mut Vec<u8>) -> Fingerprint {
    buf.clear();
    buf.extend_from_slice(&config.as_u128().to_le_bytes());
    S::encode(note, buf);
    Fingerprint::of(buf)
}

/// Bounds and knobs for exploration.
#[derive(Debug, Clone)]
pub struct CheckerOptions {
    /// Stop after visiting this many unique states.
    pub max_states: usize,
    /// Depth bound: maximum scheduler decisions along one path
    /// (the paper's depth-bounding baseline, §1).
    pub max_depth: usize,
    /// Scheduling granularity; [`Granularity::Fine`] only for the
    /// atomicity-reduction ablation.
    pub granularity: Granularity,
    /// Small-step budget per atomic run (detects private divergence).
    pub fuel: usize,
    /// Workers of the search. `0` or `1`: one worker on the
    /// calling thread, deterministic — same expansion order, same first
    /// counterexample and same counters on every run. `n > 1`: `n`
    /// spawned work-stealing workers; the totals of a completed run are
    /// exact, `unique_states` and the verdict are independent of `n`
    /// (so are `transitions` without a reduction; what `por` and
    /// `symmetry` save depends on arrival order), and an aborted run
    /// (violation, interrupt, abort-after) reports exact totals of a
    /// timing-dependent prefix of the search.
    pub jobs: usize,
    /// Sleep-set partial-order reduction for the exhaustive search.
    /// Sound for safety: it prunes redundant *transitions* between independent machine runs, never states —
    /// every reachable state (and hence every reachable error) is still
    /// visited, so the verdict and `unique_states` match the unreduced
    /// search; only `transitions` shrinks. Refused by the other kernel
    /// strategies ([`CheckerError::Unsupported`]: a run slept under one
    /// budget is not covered under another, nor is an edge a cycle needs),
    /// ignored by the random one. See DESIGN.md §10.
    pub por: bool,
    /// Symmetry reduction for the exhaustive search: the visited set is
    /// keyed by a canonical fingerprint invariant under permutations of
    /// same-type machine ids
    /// ([`p_semantics::canonical_digest`]), so up to `k!` symmetric
    /// duplicates per group of `k` interchangeable machines collapse
    /// into one stored state. Sound for safety — two states merge only
    /// if an id permutation maps one exactly onto the other, so they
    /// have isomorphic futures and identical verdicts; exploration and
    /// counterexample traces stay concrete. `unique_states` counts
    /// orbits (canonical classes) in this mode. Composes with
    /// [`CheckerOptions::por`]; refused by the other kernel strategies
    /// (their annotations and liveness verdicts name concrete machine
    /// ids), ignored by the random one. See DESIGN.md §12.
    pub symmetry: bool,
    /// Periodic crash-safe checkpointing of a kernel search;
    /// `None` (the default) disables it. The checkpoint does not record
    /// the worker count: a run checkpointed under `jobs = 4` resumes
    /// under `jobs = 1` and vice versa; liveness refuses it and `resume`
    /// (it would not hold the graph). See DESIGN.md §13.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume a previously checkpointed run from this directory. The
    /// checkpoint's config digest must match the current program,
    /// semantic options and strategy, else the run fails with
    /// [`CheckerError::CheckpointMismatch`]. Combine with
    /// [`CheckerOptions::checkpoint`] (typically the same directory) to
    /// keep checkpointing while resumed.
    pub resume: Option<PathBuf>,
    /// Approximate RAM budget (bytes) for the search kernel's
    /// visited set. When the hot (RAM) tier outgrows it, fingerprints
    /// spill to sorted disk runs with a bloom-filter front; the verdict,
    /// `unique_states` and traces are unaffected (a liveness graph and
    /// the frontier's paths stay in RAM). `None` (the default) keeps
    /// everything in RAM.
    pub mem_limit: Option<usize>,
    /// Cooperative interruption (SIGINT/SIGTERM): when the flag turns
    /// true the search stops at the next state boundary,
    /// writes a final checkpoint if [`CheckerOptions::checkpoint`] is
    /// set, and return with [`Report::interrupted`].
    pub interrupt: Option<Arc<AtomicBool>>,
}

impl Default for CheckerOptions {
    fn default() -> CheckerOptions {
        CheckerOptions {
            max_states: 1_000_000,
            max_depth: 1_000_000,
            granularity: Granularity::Atomic,
            fuel: 100_000,
            jobs: 1,
            por: false,
            symmetry: false,
            checkpoint: None,
            resume: None,
            mem_limit: None,
            interrupt: None,
        }
    }
}

/// Outcome of a safety check.
#[derive(Debug, Clone)]
pub struct Report {
    /// The first violation found, with its schedule.
    pub counterexample: Option<Counterexample>,
    /// Exploration statistics.
    pub stats: ExplorationStats,
    /// Whether the reachable state space was fully covered (within the
    /// strategy's own bound, e.g. the delay budget).
    pub complete: bool,
    /// True when the run stopped early on [`CheckerOptions::interrupt`]
    /// or [`CheckpointPolicy::abort_after_states`] (after writing a
    /// final checkpoint, if configured). Always false for a violation
    /// or a completed search.
    pub interrupted: bool,
}

impl Report {
    /// True when no violation was found.
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// The model checker: systematic testing of a P program per §5.
///
/// # Examples
///
/// ```
/// let src = r#"
///     event done;
///     machine M {
///         var x : int;
///         state Init { entry { x := 1; assert(x == 1); } }
///     }
///     main M();
/// "#;
/// let program = p_parser::parse(src).unwrap();
/// let lowered = p_semantics::lower(&program).unwrap();
/// let verifier = p_checker::Verifier::new(&lowered);
/// let report = verifier.try_check_exhaustive().unwrap();
/// assert!(report.passed());
/// assert!(report.complete);
/// ```
#[derive(Debug)]
pub struct Verifier<'p> {
    program: &'p LoweredProgram,
    foreign: ForeignEnv,
    options: CheckerOptions,
    telemetry: Telemetry,
}

impl<'p> Verifier<'p> {
    /// Creates a verifier with default options and no foreign functions.
    pub fn new(program: &'p LoweredProgram) -> Verifier<'p> {
        Verifier {
            program,
            foreign: ForeignEnv::empty(),
            options: CheckerOptions::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Supplies foreign-function implementations (which must be
    /// deterministic and pure for sound exploration).
    pub fn with_foreign(mut self, foreign: ForeignEnv) -> Verifier<'p> {
        self.foreign = foreign;
        self
    }

    /// Overrides the exploration options.
    pub fn with_options(mut self, options: CheckerOptions) -> Verifier<'p> {
        self.options = options;
        self
    }

    /// Attaches a telemetry handle. The exhaustive search then records
    /// periodic [`p_telemetry::ExplorationSnapshot`]s (states/sec,
    /// frontier size, dedup hit rate, POR prunes, depth) through it and
    /// drives its progress meter. A disabled handle (the default) makes
    /// every hook a single predictable branch; with the `telemetry`
    /// cargo feature off, the hook sites are compiled out entirely.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Verifier<'p> {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle (disabled unless set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The options in effect.
    pub fn options(&self) -> &CheckerOptions {
        &self.options
    }

    /// The program under check.
    pub fn program(&self) -> &'p LoweredProgram {
        self.program
    }

    pub(crate) fn engine(&self) -> Engine<'p> {
        Engine::new(self.program, self.foreign.clone()).with_fuel(self.options.fuel)
    }

    /// Exhaustive search over all schedules and ghost choices,
    /// deduplicating states, up to the configured bounds.
    ///
    /// This enumerates *all* interleavings at send/create scheduling
    /// points — the baseline the delay-bounded scheduler is measured
    /// against. [`CheckerOptions::jobs`] sets the number of workers:
    /// for a complete run, `unique_states`, the verdict and
    /// `transitions` are independent of it; with more than one worker
    /// the counterexample returned for a buggy program may differ
    /// between runs, but is always valid and replayable.
    /// [`CheckerOptions::max_depth`] truncates every path at that many
    /// scheduler decisions — the plain depth-bounding baseline the paper
    /// contrasts with delay bounding (§1, §5).
    ///
    /// # Errors
    ///
    /// The `Err` cases are rooted in the fallible options — checkpoint
    /// directory I/O, a corrupt or mismatched checkpoint on resume,
    /// spill-store I/O under a memory limit — or in a fatal
    /// [`CheckerError::Semantics`] engine error (a corrupt lowering — an
    /// engine bug, not a property violation).
    pub fn try_check_exhaustive(&self) -> Result<Report, CheckerError> {
        self.search(self.options.jobs).map(|(report, _)| report)
    }

    /// Digest of everything a checkpoint must agree on to be resumable:
    /// the lowered program, the semantics-relevant options and the
    /// `strategy` with its bound (they key nodes differently). `jobs`
    /// and the robustness options themselves are deliberately excluded —
    /// a checkpoint taken under one worker count, memory limit or
    /// checkpoint cadence is valid under another.
    fn config_digest(&self, strategy: &str) -> u128 {
        use std::fmt::Write as _;
        // NB: field by field, not `{:?}` of the whole program — the
        // interner's lookup map is a HashMap whose Debug order differs
        // between processes, and resume compares digests across runs.
        let p = self.program;
        let mut desc = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            p.events, p.machines, p.code, p.main, p.main_inits
        );
        for (_, name) in p.interner.iter() {
            let _ = write!(desc, "|{name}");
        }
        let o = &self.options;
        let _ = write!(
            desc,
            "|max_states={}|max_depth={}|granularity={:?}|fuel={}|por={}|symmetry={}|{strategy}",
            o.max_states, o.max_depth, o.granularity, o.fuel, o.por, o.symmetry
        );
        Fingerprint::of(desc.as_bytes()).as_u128()
    }

    /// Records the end-of-run snapshot and closes the progress line.
    #[cfg(feature = "telemetry")]
    fn final_snapshot(&self, stats: &ExplorationStats, frontier: usize, workers: u64) {
        self.telemetry.snapshot_now(0, |elapsed| {
            snapshot_from(stats, frontier, workers, elapsed)
        });
        self.telemetry.finish_progress();
    }

    /// [`Verifier::search_with`] the [`Exhaustive`] scheduler.
    pub(crate) fn search(&self, jobs: usize) -> Result<(Report, Vec<SlotInterner>), CheckerError> {
        let searched = self.search_with(&Exhaustive, jobs, SLOT_MEMO_ENTRIES);
        searched.map(|(report, interners, _)| (report, interners))
    }

    /// The search kernel (see DESIGN.md §9): `jobs` workers expand one
    /// frontier against one visited table by `sched`'s moves. A single
    /// worker (`jobs` of 0 or 1) runs on the calling thread; more are
    /// spawned and joined. The workers' intern tables and graphs come
    /// back with the report (the tables for the test that checks they
    /// share no allocation). `memo` sizes each worker's slot-transition
    /// memo as (runs, appends): [`SLOT_MEMO_ENTRIES`], or `None` for none.
    #[allow(clippy::type_complexity)]
    pub(crate) fn search_with<S: Scheduler>(
        &self,
        sched: &S,
        jobs: usize,
        memo: Option<(usize, usize)>,
    ) -> Result<(Report, Vec<SlotInterner>, Vec<S::Graph>), CheckerError> {
        let jobs = jobs.max(1);
        let start = Instant::now();
        let options = &self.options;
        if (S::ANNOTATED || S::LIVENESS) && (options.por || options.symmetry) {
            return Err(CheckerError::Unsupported(format!(
                "por and symmetry reduce the exhaustive search only, not {sched:?}"
            )));
        }
        if S::LIVENESS && (options.checkpoint.is_some() || options.resume.is_some()) {
            return Err(CheckerError::Unsupported(
                "no checkpoint holds a liveness graph".into(),
            ));
        }
        let digest = self.config_digest(&format!("{sched:?}"));
        let spill = SpillDir::prepare(options)?;
        let spill_cfg = spill_config(options, &spill);

        let resumed = match &options.resume {
            Some(dir) => Some(checkpoint::load(dir, digest, |ckpt, visited| {
                let stored = ckpt.stats.stored_bytes;
                let table = SharedTable::restore(options.max_states, spill_cfg, stored, visited)?;
                Ok(match S::ANNOTATED {
                    true => table.annotated(ckpt.markers),
                    false => table,
                })
            })?),
            None => None,
        };

        let counters = SharedCounters::default();
        // Every worker hash-conses into a table of its own and asks this
        // one set, only when its table misses, whether a slot's bytes
        // are new: every distinct slot counts exactly once globally, so
        // `stored_bytes` depends on neither arrival order nor `jobs`.
        let slot_digests = Mutex::new(FpHashSet::default());
        let slot_budget = slot_budget_for(options.mem_limit, jobs);
        #[cfg(test)]
        let slot_budget = TEST_SLOT_BUDGET.get().unwrap_or(slot_budget);
        let mut interners: Vec<SlotInterner> = (0..jobs)
            .map(|_| SlotInterner::with_budget(slot_budget))
            .collect();
        let mut base_duration = Duration::ZERO;
        let mut base_truncated = false;
        let ids = TaskIds::default();
        let (table, frontier) = match resumed {
            None => {
                let table = SharedTable::open(options.max_states, spill_cfg)?;
                let table = if S::ANNOTATED {
                    table.annotated(0)
                } else {
                    table
                };
                let mut config = self.engine().initial_config();
                let note = sched.root();
                let init_fp = Fingerprint::from_u128(config.digest());
                let init_key = if S::ANNOTATED {
                    table.mark(init_fp)?;
                    node_key::<S>(init_fp, &note, &mut Vec::new())
                } else if options.symmetry {
                    Fingerprint::from_u128(canonical_digest(&mut config))
                } else {
                    init_fp
                };
                let admitted = table.admit(
                    init_key,
                    if S::ANNOTATED { init_key } else { init_fp },
                    SleepSet::empty(),
                    || intern(&mut config, &mut interners[0], &slot_digests),
                )?;
                debug_assert_eq!(
                    admitted,
                    Admit::New,
                    "an empty table admits the initial state"
                );
                let root = Task {
                    config: Box::new(config),
                    id: ids.next(&mut IdBlock::default()),
                    path: TaskPath::default(),
                    depth: 0,
                    sleep: SleepSet::empty(),
                    fresh: true,
                    note,
                };
                (table, Frontier::new(jobs, root))
            }
            Some((ckpt, table)) => {
                let mut tasks =
                    decode_frontier::<S>(ckpt.paths, &ckpt.frontier, &ids, self.program)?;
                // Each task's slots go to the interner of the worker whose
                // queue `Frontier::from_tasks` puts it on, as its admit
                // put them in an uninterrupted run.
                for (i, task) in tasks.iter_mut().enumerate() {
                    intern(&mut task.config, &mut interners[i % jobs], &slot_digests);
                }
                let mut base = ckpt.stats;
                base_duration = base.duration;
                base_truncated = base.truncated;
                base.unique_states = 0;
                base.stored_bytes = 0;
                // Preload the cumulative exploration counters; spill
                // counters stay per-process (`flush` never moves them).
                counters.flush(&base, &mut ExplorationStats::default());
                (table, Frontier::from_tasks(jobs, tasks))
            }
        };

        let search = Search {
            last_ckpt: AtomicUsize::new(states::<S>(&table)),
            table,
            frontier,
            ids,
            slot_digests,
            counters,
            memo,
            depth_truncated: AtomicBool::new(false),
            violation: Mutex::new(None),
            error: Mutex::new(None),
            policy: options.checkpoint.as_ref(),
            digest,
            base_duration,
            base_truncated,
            start,
            claimed: AtomicBool::new(false),
            interrupted: AtomicBool::new(false),
        };

        let workers = if jobs == 1 {
            vec![self.expand_worker(0, &mut interners[0], &search, sched)]
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = interners
                    .iter_mut()
                    .enumerate()
                    .map(|(w, interner)| {
                        let search = &search;
                        scope.spawn(move || self.expand_worker(w, interner, search, sched))
                    })
                    .collect();
                // Join every worker before reporting a panic: the scope
                // itself panics if it ends with an unjoined panicked thread.
                let joined: Vec<_> = workers
                    .into_iter()
                    .map(|handle| handle.join().map_err(worker_panic))
                    .collect();
                joined.into_iter().collect::<Result<Vec<_>, CheckerError>>()
            })?
        };
        let (worker_tasks, graphs): (Vec<u64>, Vec<S::Graph>) = workers.into_iter().unzip();
        let Search {
            table,
            frontier,
            counters,
            ..
        } = &search;
        if let Some(error) = search.error.lock().take() {
            return Err(error);
        }

        // Final totals come exclusively from the shared counters (every
        // worker flushes its remaining delta on exit, including the
        // `break 'tasks` paths) and the table — never from re-merging
        // worker-local stats, so nothing can be counted twice and an
        // aborted run still reports exact totals.
        let mut stats = counters.totals();
        #[cfg(feature = "telemetry")]
        if let Some(metrics) = self.telemetry.metrics() {
            let utilization = metrics.histogram("checker.worker.tasks");
            for &tasks in &worker_tasks {
                utilization.observe(tasks);
            }
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (worker_tasks, frontier);

        stats.unique_states = states::<S>(table);
        if S::ANNOTATED {
            stats.scheduler_nodes = table.unique();
        }
        stats.stored_bytes = table.stored_bytes();
        stats.index_bytes = table.index_bytes();
        stats.slot_bytes = interners
            .iter()
            .map(|i| i.state_bytes() + table_bytes::<(u128, Arc<MachineState>)>(i.capacity()))
            .sum::<usize>()
            + table_bytes::<Fingerprint>(search.slot_digests.lock().capacity());
        table.spill_stats().write_to(&mut stats);
        stats.truncated |= search.truncated();
        stats.duration = base_duration + start.elapsed();
        #[cfg(feature = "telemetry")]
        self.final_snapshot(&stats, frontier.pending(), jobs as u64);

        let counterexample = search.violation.lock().take().map(|(path, step, error)| {
            let mut trace = path.render(self.program);
            trace.push(step);
            Counterexample { error, trace }
        });
        let interrupted = search.interrupted.load(Ordering::SeqCst) && counterexample.is_none();
        let complete = counterexample.is_none() && !stats.truncated && !interrupted;
        let report = Report {
            counterexample,
            stats,
            complete,
            interrupted,
        };
        Ok((report, interners, graphs))
    }

    /// One worker: expand tasks until the frontier drains or the search
    /// stops. Everything it writes per transition is its own — stats,
    /// intern table, id block, the children of the task in hand; the
    /// deltas of its stats go to the shared [`SharedCounters`] every
    /// [`FLUSH_EVERY_TASKS`] tasks, before it parks at a rendezvous and
    /// unconditionally on exit, so the shared totals are exact at every
    /// checkpoint and on every exit path. Returns the number of tasks
    /// this worker expanded (the per-worker utilization sample), and its graph.
    fn expand_worker<S: Scheduler>(
        &self,
        worker: usize,
        interner: &mut SlotInterner,
        search: &Search<'_, S>,
        sched: &S,
    ) -> (u64, S::Graph) {
        let Search {
            table,
            frontier,
            ids,
            slot_digests,
            counters,
            memo,
            ..
        } = search;
        // Only liveness reads `RunResult::dequeued` (which a replayed run
        // leaves empty); the safety search skips the per-run allocation.
        let engine = self.engine().with_dequeue_log(S::LIVENESS);
        let mut graph = S::Graph::default();
        let mut stats = ExplorationStats::default();
        let mut flushed = ExplorationStats::default();
        let mut tasks = 0u64;
        let por = self.options.por.then(|| Por::new(self.program));
        let mut sleepers = SleeperFootprints::default();
        let symmetry = self.options.symmetry;
        let granularity = self.options.granularity;
        // One task's batch: its successors, and per successor the move
        // that made it with the sleep set that move ran under (expand
        // pass), then its concrete fingerprint, table key and annotation
        // (key pass).
        let mut succs: Vec<Successor> = Vec::new();
        let mut tags: Vec<(usize, SleepSet)> = Vec::new();
        let mut keys: Vec<(Fingerprint, Fingerprint, S::Note)> = Vec::new();
        // A `Fine` run stops after every small step: nothing to remember.
        let atomic = granularity == Granularity::Atomic;
        let mut arena = SuccArena::with_memo(memo.filter(|_| atomic));
        let mut moves = Vec::new();
        let mut id_block = IdBlock::default();
        let mut children = Vec::new();
        let mut canon_memo = CanonMemo::new(symmetry);
        // The task's pin, and the successors that wait for the canon memo.
        let (mut pin, mut unkeyed) = (Vec::new(), Vec::new());
        let mut key_buf = Vec::new();
        // Leaves the fleet on every exit; a panic — which would otherwise
        // leave the others waiting for this worker's task — stops it too.
        struct Leave<'a, T>(&'a Frontier<T>);
        impl<T> Drop for Leave<'_, T> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.request_stop();
                }
                self.0.retire();
            }
        }
        let _leave = Leave(frontier);
        // A violation or an error stops the whole search, so the paths
        // that `break` out leave the frontier as it is.
        'tasks: while let Some((task, stolen)) =
            frontier.next(worker, || counters.flush(&stats, &mut flushed))
        {
            let Task {
                mut config,
                id: task_id,
                path,
                depth,
                sleep,
                fresh,
                mut note,
            } = task;
            if stolen {
                // The slots are the victim's allocations; keep no core
                // counting references on another core's lines.
                config.rehome_slots(interner);
            }
            debug_assert!(
                config.is_interned_in(interner),
                "a worker expands only configurations interned in its own table"
            );
            tasks += 1;
            arena.phases.begin_task(tasks);
            stats.max_depth = stats.max_depth.max(depth);
            if depth >= self.options.max_depth {
                search.depth_truncated.store(true, Ordering::SeqCst);
                frontier.finish_task(worker, &mut children);
                continue;
            }
            let quiescent = sched.moves(&engine, &config, &mut note, &mut moves);
            if fresh {
                // Diagnostics are per-state; a sleep-widening revisit
                // must not double-count quiescence or queue peaks.
                note_diagnostics(&config, quiescent, &mut stats);
            }
            // Expand (DESIGN.md §9): the successors of every move not
            // asleep, in move order, into one batch. Machines explored at
            // this state go to sleep for the ones after them (their
            // interleavings are covered below the earlier siblings); the
            // exhaustive moves are in ascending id order, so the
            // accumulation order is deterministic. The pass stops after a
            // move whose run failed or ended in an error: the search does
            // not get past it. For liveness an error is a terminal edge:
            // counted here, and dropped from the batch.
            let mut cur_sleep = sleep;
            sleepers.reset();
            let mut failed = None;
            for (m, mv) in moves.iter().enumerate() {
                let start = succs.len();
                let id = match S::step(mv) {
                    Step::Run(id) if cur_sleep.contains(id) => {
                        stats.sleep_pruned += 1;
                        continue;
                    }
                    Step::Run(id) => {
                        let (succs, arena) = (&mut succs, &mut arena);
                        let ran = successors_into(&engine, &config, id, granularity, succs, arena);
                        if let Err(error) = ran {
                            succs.truncate(start);
                            failed = Some(error);
                            break;
                        }
                        id
                    }
                    Step::Inject(fault) => {
                        stats.fault_transitions += 1;
                        succs.push(fault.successor(&config));
                        fault.machine
                    }
                };
                if S::LIVENESS {
                    stats.transitions += succs.iter().filter(|s| s.is_error()).count();
                    succs.retain(|succ| !succ.is_error());
                }
                tags.resize(succs.len(), (m, cur_sleep));
                if succs[start..].iter().any(Successor::is_error) {
                    break;
                }
                if por.is_some() {
                    cur_sleep.insert(id);
                }
            }
            // Key: each successor's table key, up to the first error,
            // with the bucket its offer will probe prefetched. The table
            // is keyed by the annotated fingerprint, or with symmetry on
            // by the canonical one; everything else (tasks, their
            // records, traces) stays concrete. Under symmetry a replayed
            // child whose changed slots avoid its parent's pin keys by its
            // concrete digest (DESIGN.md §12); any other child waits for
            // the canon memo, whose entry this loop prefetches and the
            // next one reads. A replayed child is built only where it is
            // needed: to canonicalize it when the interner lacks one of
            // its slots, to store it, to expand it.
            let pinned = symmetry && succs.iter().any(|s| s.replay.is_some()) && {
                arena.phases.enter(Phase::Canon);
                let pinned = canonical_pin(&mut config, &mut pin);
                arena.phases.enter(Phase::Other);
                pinned
            };
            for (succ, &(m, _)) in succs.iter_mut().zip(&tags) {
                if succ.is_error() {
                    break;
                }
                // Counted before a build takes the replay (an error
                // outcome is never replayed).
                stats.replayed_runs += usize::from(succ.replay.is_some());
                let child_note = sched.child(&note, &moves[m], &succ.result.outcome);
                arena.phases.enter(Phase::Digest);
                let succ_fp = Fingerprint::from_u128(succ.digest());
                arena.phases.enter(Phase::Other);
                let key = if S::ANNOTATED {
                    table.prefetch(succ_fp);
                    node_key::<S>(succ_fp, &child_note, &mut key_buf)
                } else {
                    succ_fp
                };
                let unpinned = |r: &Replay| r.slots().iter().all(|s| !pin.contains(&s.0 .0));
                let settled = pinned && succ.replay.as_ref().is_some_and(unpinned);
                if symmetry && !settled {
                    canon_memo.prefetch(succ_fp);
                    unkeyed.push(keys.len());
                } else {
                    stats.canon_pinned += usize::from(settled);
                    #[cfg(test)]
                    if settled {
                        check_key(succ, &config, &engine, interner, &mut arena, key, 0);
                    }
                    table.prefetch(key);
                }
                keys.push((succ_fp, key, child_note));
            }
            for &i in &unkeyed {
                let (succ, (succ_fp, key, _)) = (&mut succs[i], &mut keys[i]);
                *key = canon_memo.get_or_insert_with(*succ_fp, || {
                    canonical_key(succ, &config, &engine, interner, &mut arena, &mut stats)
                });
                table.prefetch(*key);
            }
            unkeyed.clear();
            // Offer, in order, walking the batch where it lies. A
            // violation stops the search here, ahead of a failed run the
            // expand pass recorded.
            let mut keyed = keys.drain(..);
            for (succ, &(m, ran_sleep)) in succs.iter_mut().zip(&tags) {
                stats.transitions += 1;
                if let ExecOutcome::Error(e) = &succ.result.outcome {
                    let choices = std::mem::take(&mut succ.choices);
                    let step =
                        TraceStep::from_run(self.program, succ.machine, &succ.result, choices);
                    search.stop_with(&search.violation, (path, step, e.clone()));
                    break 'tasks;
                }
                let (succ_fp, key, child_note) = keyed.next().expect("keyed up to the error");
                S::keep_edge(&mut graph, succ_fp, succ);
                let mv = &moves[m];
                arena.phases.enter(Phase::Table);
                let child_sleep = match &por {
                    None => SleepSet::empty(),
                    Some(por) => {
                        let taken = por.run_footprint(succ.machine, &succ.result);
                        sleepers.filter(por, &config, ran_sleep, &taken)
                    }
                };
                // A configuration over the bound is neither marked
                // nor pushed.
                let in_bound = !S::ANNOTATED
                    || match table.mark(succ_fp) {
                        Ok(marked) => marked != Admit::OverBound,
                        Err(error) => {
                            search.stop_with(&search.error, error);
                            break 'tasks;
                        }
                    };
                let (slots, replay) = (&mut succ.config, &mut succ.replay);
                let admitted = if in_bound {
                    table.admit(
                        key,
                        if S::ANNOTATED { key } else { succ_fp },
                        child_sleep,
                        || {
                            let rebuilt = arena.build(slots, replay, &config, &engine, interner);
                            stats.rebuilt_runs += usize::from(rebuilt);
                            let built = slots.as_mut().expect("built above");
                            intern(built, interner, slot_digests)
                        },
                    )
                } else {
                    Ok(Admit::OverBound)
                };
                // The task to push for the successor, if any: the sleep
                // set to expand it with, and whether this is its first
                // visit.
                let push = match admitted {
                    Err(error) => {
                        search.stop_with(&search.error, error);
                        break 'tasks;
                    }
                    Ok(Admit::New) => Some((child_sleep, true)),
                    Ok(Admit::Widen { sleep, merged }) => {
                        stats.symmetry_merges += usize::from(merged);
                        Some((sleep, false))
                    }
                    Ok(Admit::Covered { merged }) => {
                        stats.dedup_hits += 1;
                        stats.symmetry_merges += usize::from(merged);
                        None
                    }
                    Ok(Admit::OverBound) => None,
                };
                if let Some((sleep, fresh)) = push {
                    let s = &mut *succ;
                    let rebuilt =
                        arena.build(&mut s.config, &mut s.replay, &config, &engine, interner);
                    stats.rebuilt_runs += usize::from(rebuilt);
                    // Steps are stored packed; only an error path renders
                    // human-readable summaries.
                    let path = match S::step(mv) {
                        Step::Run(id) => path.then_run(id, &s.result, &s.choices),
                        Step::Inject(fault) => path.then_fault(&fault),
                    };
                    children.push(Task {
                        config: s.config.take().expect("built above"),
                        id: ids.next(&mut id_block),
                        path,
                        depth: depth + 1,
                        sleep,
                        fresh,
                        note: child_note,
                    });
                }
                arena.phases.enter(Phase::Other);
                arena.recycle(succ);
            }
            succs.clear();
            tags.clear();
            if let Some(error) = failed {
                search.stop_with(&search.error, error.into());
                break 'tasks;
            }
            S::keep_node(&mut graph, task_id, &mut config);
            arena.recycle_config(config);
            arena.phases.drain_into(&mut stats.phases);
            frontier.finish_task(worker, &mut children);
            if tasks.is_multiple_of(FLUSH_EVERY_TASKS) {
                counters.flush(&stats, &mut flushed);
            }
            self.control(search, || counters.flush(&stats, &mut flushed));
            #[cfg(feature = "telemetry")]
            if tasks.is_multiple_of(SNAPSHOT_EVERY_TASKS as u64) {
                self.telemetry.maybe_snapshot(worker as u32, |elapsed| {
                    let mut totals = counters.totals();
                    totals.unique_states = states::<S>(table);
                    table.spill_stats().write_to(&mut totals);
                    snapshot_from(
                        &totals,
                        frontier.pending(),
                        frontier.workers() as u64,
                        elapsed,
                    )
                });
            }
        }
        counters.flush(&stats, &mut flushed);
        (tasks, graph)
    }

    /// The checkpoint/interrupt control point, run by every worker
    /// between tasks. When a checkpoint or stop is due, one worker
    /// claims leadership, parks the others at the frontier rendezvous
    /// (making the table, counters and queues quiescent; immediate with
    /// one worker), serializes everything, and either resumes the fleet
    /// or shuts it down (interrupt / abort-after). A worker's deque is
    /// serialized front to back, the order [`Frontier::from_tasks`]
    /// refills it in, so a one-worker run resumes popping exactly where
    /// it stopped. `flush` folds the leader's own unflushed counters
    /// into the shared totals (the parked workers have flushed theirs).
    fn control<S: Scheduler>(&self, search: &Search<'_, S>, flush: impl FnOnce()) {
        let Search {
            table, frontier, ..
        } = search;
        let interrupt_hit = self
            .options
            .interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst));
        let Some(policy) = search.policy else {
            if interrupt_hit {
                search.interrupted.store(true, Ordering::SeqCst);
                frontier.request_stop();
            }
            return;
        };
        let reached = states::<S>(table);
        let abort_hit = policy.abort_after_states.is_some_and(|n| reached >= n);
        let due = reached >= search.last_ckpt.load(Ordering::SeqCst) + policy.every_states;
        if !(interrupt_hit || abort_hit || due) {
            return;
        }
        if search.claimed.swap(true, Ordering::SeqCst) {
            return; // another worker is already checkpointing
        }
        flush();
        frontier.pause_workers();
        frontier.await_rendezvous();
        match search.write_checkpoint(policy) {
            Err(error) => search.stop_with(&search.error, error),
            Ok(()) if interrupt_hit || abort_hit => {
                search.interrupted.store(true, Ordering::SeqCst);
                frontier.request_stop();
            }
            Ok(()) => search.last_ckpt.store(states::<S>(table), Ordering::SeqCst),
        }
        frontier.resume_workers();
        search.claimed.store(false, Ordering::SeqCst);
    }
}

/// Everything the workers of one search share.
struct Search<'a, S: Scheduler> {
    table: SharedTable,
    frontier: Frontier<Task<S::Note>>,
    ids: TaskIds,
    /// Digest of every machine slot any worker has interned.
    slot_digests: Mutex<FpHashSet>,
    counters: SharedCounters,
    /// Run and append entries of each worker's slot-transition memo.
    memo: Option<(usize, usize)>,
    depth_truncated: AtomicBool,
    /// First violation: (path of the task it was found in, final step,
    /// error).
    violation: Mutex<Option<(TaskPath, TraceStep, PError)>>,
    /// First [`CheckerError`] from any worker or the checkpoint leader.
    error: Mutex<Option<CheckerError>>,
    policy: Option<&'a CheckpointPolicy>,
    digest: u128,
    base_duration: Duration,
    base_truncated: bool,
    start: Instant,
    /// One checkpoint leader at a time.
    claimed: AtomicBool,
    /// [`states`] at the last checkpoint (cadence reference).
    last_ckpt: AtomicUsize,
    /// Set when the run stopped on interrupt or abort-after.
    interrupted: AtomicBool,
}

impl<S: Scheduler> Search<'_, S> {
    /// First value wins its slot, then the fleet shuts down: all
    /// workers drain on their next [`Frontier::next`] call.
    fn stop_with<T>(&self, slot: &Mutex<Option<T>>, value: T) {
        slot.lock().get_or_insert(value);
        self.frontier.request_stop();
    }

    /// Serializes the quiescent search into `policy`'s directory. Out of
    /// line: `control` is inlined into the worker loop, which three
    /// instantiations now share the optimizer's inlining budget for.
    #[inline(never)]
    fn write_checkpoint(&self, policy: &CheckpointPolicy) -> Result<(), CheckerError> {
        let tasks = self.frontier.snapshot_tasks();
        let (paths, ends) = TaskPath::flatten(tasks.iter().map(|task| &task.path));
        let mut stats = self.counters.totals();
        stats.unique_states = states::<S>(&self.table);
        stats.stored_bytes = self.table.stored_bytes();
        stats.truncated = self.truncated();
        stats.duration = self.base_duration + self.start.elapsed();
        // In queue order: a one-worker run must pop identically after a
        // resume.
        let frontier = tasks.iter().zip(ends).map(|(task, path)| {
            let mut note = Vec::new();
            S::encode(&task.note, &mut note);
            TaskEntry {
                cfg: task.config.canonical_bytes(),
                path,
                depth: task.depth as u64,
                sleep: task.sleep.0,
                fresh: task.fresh,
                note,
            }
        });
        let data = CheckpointData {
            stats,
            markers: self.table.marked(),
            paths,
            frontier: frontier.collect(),
        };
        let dir = &policy.dir;
        self.table
            .visited_run(|visited| checkpoint::write(dir, self.digest, &data, visited))
    }

    /// Whether a bound has cut the search short so far (in this process
    /// or before the checkpoint it resumed from).
    fn truncated(&self) -> bool {
        self.base_truncated || self.table.truncated() || self.depth_truncated.load(Ordering::SeqCst)
    }
}

/// What `unique_states`, the checkpoint cadence and `abort-after` count:
/// retained states, or an annotated search's marked configurations.
fn states<S: Scheduler>(table: &SharedTable) -> usize {
    match S::ANNOTATED {
        true => table.marked(),
        false => table.unique(),
    }
}

/// The typed error for a spawned worker's panic payload.
fn worker_panic(payload: Box<dyn std::any::Any + Send>) -> CheckerError {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "worker panicked".to_string());
    CheckerError::WorkerPanic(msg)
}

/// Where the spill (cold-tier) files live. Dropping the guard deletes
/// the directory: a checkpoint holds its visited keys, cold ones too,
/// so spill files never outlive the process that wrote them.
#[derive(Debug)]
struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Prepares a fresh spill directory when a memory limit is set:
    /// under the checkpoint (or resume) directory if one is configured,
    /// else under the system temp directory.
    fn prepare(options: &CheckerOptions) -> Result<Option<SpillDir>, CheckerError> {
        if options.mem_limit.is_none() {
            return Ok(None);
        }
        let path = match (&options.checkpoint, &options.resume) {
            (Some(policy), _) => policy.dir.join("spill"),
            (None, Some(dir)) => dir.join("spill"),
            (None, None) => std::env::temp_dir().join(format!("p-spill-{}", std::process::id())),
        };
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| CheckerError::io(&path, e))?;
        Ok(Some(SpillDir { path }))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// The `(dir, hot_budget_bytes)` pair [`SharedTable`] spills with,
/// derived from the prepared spill directory and the memory limit.
fn spill_config<'a>(
    options: &CheckerOptions,
    spill: &'a Option<SpillDir>,
) -> Option<(&'a Path, usize)> {
    let budget = hot_budget_for(options.mem_limit?);
    #[cfg(test)]
    let budget = TEST_HOT_BUDGET.get().unwrap_or(budget);
    spill.as_ref().map(|dir| (dir.path.as_path(), budget))
}

/// Hash-conses the slots of a freshly admitted `config` into the
/// worker's own `interner` and returns its marginal stored size. The
/// shared digest set is locked only for a slot the worker's table has
/// not met — once per distinct slot per worker, not once per state —
/// and it alone decides whether the slot's bytes are new.
fn intern(config: &mut Config, interner: &mut SlotInterner, digests: &Mutex<FpHashSet>) -> usize {
    config.intern_slots_with(interner, |digest| {
        digests.lock().insert(Fingerprint::from_u128(digest))
    })
}

/// The canonical key of `succ`, a child of `parent` that its parent's
/// pin does not settle: read through a view of `parent` when the run was
/// replayed and `interner` holds the slots it changed, else off the
/// built child.
fn canonical_key(
    succ: &mut Successor,
    parent: &Config,
    engine: &Engine<'_>,
    interner: &SlotInterner,
    arena: &mut SuccArena,
    stats: &mut ExplorationStats,
) -> Fingerprint {
    arena.phases.enter(Phase::Canon);
    let viewed = succ.replay.as_ref().and_then(|replay| {
        let slots = replay.slots();
        let changed = |&(id, digest, _): &(MachineId, u128, u32)| {
            Some((id, &**interner.get(digest)?, digest))
        };
        let first = changed(&slots[0])?;
        let second = slots.get(1).map_or(Some(first), changed)?;
        let changed = &[first, second][..slots.len()];
        Some(canonical_digest_replayed(parent, changed, replay.digest))
    });
    let (key, candidates) = match viewed {
        Some(viewed) => viewed,
        None => {
            let rebuilt = arena.build(&mut succ.config, &mut succ.replay, parent, engine, interner);
            stats.rebuilt_runs += usize::from(rebuilt);
            canonical_digest_counted(succ.config.as_mut().expect("built above"))
        }
    };
    arena.phases.enter(Phase::Other);
    stats.canon_calls += 1;
    stats.canon_candidates += candidates as usize;
    let key = Fingerprint::from_u128(key);
    #[cfg(test)]
    if succ.replay.is_some() {
        check_key(succ, parent, engine, interner, arena, key, 1);
    }
    key
}

/// Decodes checkpointed frontier tasks back into live configurations
/// on the paths rebuilt from `forest`, numbered afresh from `ids`.
fn decode_frontier<S: Scheduler>(
    forest: Vec<crate::trace::PathNode>,
    entries: &[TaskEntry],
    ids: &TaskIds,
    program: &LoweredProgram,
) -> Result<Vec<Task<S::Note>>, CheckerError> {
    let Some(paths) = TaskPath::rebuild(forest) else {
        return malformed("malformed path forest");
    };
    let mut block = IdBlock::default();
    entries
        .iter()
        .map(|t| {
            let config = Config::from_canonical_bytes(&t.cfg, program.event_count());
            let config =
                config.or_else(|e| malformed(format!("undecodable configuration: {e}")))?;
            let Some(note) = S::decode(&t.note) else {
                return malformed("undecodable scheduler annotation");
            };
            Ok(Task {
                config: Box::new(config),
                id: ids.next(&mut block),
                path: match t.path {
                    NO_NODE => TaskPath::default(),
                    end => paths[end as usize].clone(),
                },
                depth: t.depth as usize,
                sleep: SleepSet(t.sleep),
                fresh: t.fresh,
                note,
            })
        })
        .collect()
}

/// A unit of work: the state, its id, its path (the way back to the
/// root), its depth, the sleep set to expand it with, whether this is its
/// first visit, and the scheduler's annotation. The state is the box its
/// successor was built in, never copied.
#[derive(Debug, Clone)]
struct Task<N> {
    config: Box<Config>,
    id: TaskId,
    path: TaskPath,
    depth: usize,
    sleep: SleepSet,
    fresh: bool,
    note: N,
}

/// Records queue-length and quiescence diagnostics for one visited
/// configuration; `quiescent` comes out of the scheduler's enabledness
/// scan, so expansion and diagnostics share one scan per state.
fn note_diagnostics(config: &Config, quiescent: bool, stats: &mut ExplorationStats) {
    let mut pending = 0usize;
    for id in config.live_ids() {
        if let Some(m) = config.machine(id) {
            stats.max_queue_seen = stats.max_queue_seen.max(m.queue.len());
            pending += m.queue.len();
        }
    }
    if quiescent {
        stats.quiescent_states += 1;
        if pending > 0 {
            stats.stuck_states += 1;
        }
    }
}

/// Builds a telemetry snapshot from running exploration totals.
#[cfg(feature = "telemetry")]
fn snapshot_from(
    stats: &ExplorationStats,
    frontier: usize,
    workers: u64,
    elapsed_micros: u64,
) -> p_telemetry::ExplorationSnapshot {
    p_telemetry::ExplorationSnapshot {
        elapsed_micros,
        states: stats.unique_states as u64,
        transitions: stats.transitions as u64,
        frontier: frontier as u64,
        dedup_hits: stats.dedup_hits as u64,
        sleep_pruned: stats.sleep_pruned as u64,
        symmetry_merges: stats.symmetry_merges as u64,
        max_depth: stats.max_depth as u64,
        workers,
        spilled: stats.spilled_states as u64,
        cold_reads: stats.cold_reads,
    }
}

#[cfg(test)]
thread_local! {
    /// A hot-tier budget below [`hot_budget_for`]'s floor for the
    /// searches this thread starts ([`spill_config`]), so that a test
    /// spills programs of a thousand states.
    pub(crate) static TEST_HOT_BUDGET: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// A byte budget for every worker's slot interner in the searches
    /// this thread starts, in place of [`slot_budget_for`]'s, so that a
    /// test sweeps without spilling.
    pub(crate) static TEST_SLOT_BUDGET: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// The keys [`check_key`] confirmed on this thread: [pinned, viewed].
    pub(crate) static CHECKED_KEYS: std::cell::Cell<[usize; 2]> =
        const { std::cell::Cell::new([0; 2]) };
}

/// Test builds confirm every key a pin (`route` 0) or a view (1) gave
/// against the canonical digest of the child built after all.
#[cfg(test)]
fn check_key(
    succ: &Successor,
    parent: &Config,
    engine: &Engine<'_>,
    interner: &SlotInterner,
    arena: &mut SuccArena,
    key: Fingerprint,
    route: usize,
) {
    let (mut built, mut replay) = (None, succ.replay);
    arena.build(&mut built, &mut replay, parent, engine, interner);
    let mut built = built.expect("a replayed child builds");
    assert_eq!(Fingerprint::from_u128(canonical_digest(&mut built)), key);
    arena.recycle_config(built);
    CHECKED_KEYS.with(|checked| {
        let mut counts = checked.get();
        counts[route] += 1;
        checked.set(counts);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memo that can hold two runs answers fewer of them, never other
    /// ones: every count is the full-sized memo's, and the interpreter's
    /// without a memo.
    #[test]
    fn a_two_entry_memo_changes_no_count() {
        for (name, program) in [
            ("german4", p_corpus::german4()),
            ("switch_led", p_corpus::switch_led()),
        ] {
            let p = p_semantics::lower(&program).unwrap();
            let verifier = Verifier::new(&p);
            let run = |memo| {
                let (report, ..) = verifier.search_with(&Exhaustive, 1, memo).unwrap();
                assert!(report.passed() && report.complete, "{name}");
                let s = report.stats;
                (
                    (s.unique_states, s.transitions, s.stored_bytes),
                    s.replayed_runs,
                )
            };
            let (full, full_replayed) = run(SLOT_MEMO_ENTRIES);
            let (tiny, tiny_replayed) = run(Some((2, 2)));
            let (none, _) = run(None);
            assert_eq!(full, tiny, "{name}");
            assert_eq!(full, none, "{name}");
            assert!(
                tiny_replayed < full_replayed,
                "{name}: {tiny_replayed} !< {full_replayed}"
            );
        }
    }

    /// Sweeping the slot interners changes no count: with a budget of a
    /// few slots, a replayed child whose slot was swept is made by the
    /// interpreter again (`rebuilt_runs`), and states, transitions,
    /// stored bytes and spilled states are the unswept run's at every
    /// worker count, with and without a spill; at one worker so are the
    /// replayed runs, and an unswept run rebuilds none.
    #[test]
    fn a_swept_interner_changes_no_count() {
        for (name, program) in [
            ("german4", p_corpus::german4()),
            ("switch_led", p_corpus::switch_led()),
        ] {
            let p = p_semantics::lower(&program).unwrap();
            for (jobs, spill) in [(1, false), (2, false), (4, false), (1, true)] {
                let never = crate::CheckpointPolicy {
                    every_states: 1 << 40,
                    ..crate::CheckpointPolicy::new(crate::tests::scratch_dir("swept"))
                };
                let options = CheckerOptions {
                    mem_limit: spill.then_some(1 << 20),
                    checkpoint: spill.then_some(never),
                    ..CheckerOptions::default()
                };
                let verifier = Verifier::new(&p).with_options(options);
                let run = |budget| {
                    TEST_SLOT_BUDGET.set(Some(budget));
                    let (report, _) = verifier.search(jobs).unwrap();
                    TEST_SLOT_BUDGET.set(None);
                    let _ = std::fs::remove_dir_all(crate::tests::scratch_dir("swept"));
                    let mode = format!("{name} jobs={jobs} spill={spill}");
                    assert!(report.passed() && report.complete, "{mode}");
                    let s = report.stats;
                    let counts = (
                        s.unique_states,
                        s.transitions,
                        s.stored_bytes,
                        s.spilled_states,
                    );
                    let replayed = (jobs == 1).then_some(s.replayed_runs);
                    ((counts, replayed), s.rebuilt_runs, mode)
                };
                let (unswept, unswept_rebuilt, mode) = run(usize::MAX);
                let (swept, rebuilt, _) = run(1 << 10);
                assert_eq!(swept, unswept, "{mode}");
                assert!(rebuilt > 0, "{mode}: nothing rebuilt");
                if jobs == 1 {
                    assert_eq!(unswept_rebuilt, 0, "{mode}");
                }
                assert_eq!(spill, unswept.0 .3 > 0, "{mode}");
            }
        }
    }

    /// A path link lives as long as a queued or running task descends
    /// from it: a completed german4 search leaves none alive, and at its
    /// peak the live links are the frontier and its ancestors — a sliver
    /// of the tasks pushed, one per state.
    #[test]
    fn no_path_link_outlives_its_tasks() {
        use crate::trace::LIVE_LINKS;
        let p = p_semantics::lower(&p_corpus::german4()).unwrap();
        let (before, _) = LIVE_LINKS.get();
        LIVE_LINKS.set((before, before));
        let report = Verifier::new(&p).try_check_exhaustive().unwrap();
        assert!(report.passed() && report.complete);
        let (after, peak) = LIVE_LINKS.get();
        assert_eq!(after, before, "links alive after the search");
        let states = report.stats.unique_states as isize;
        assert!(
            peak - before < 1_000,
            "{} links alive at once",
            peak - before
        );
        assert!(states > 40_000, "{states} states");
    }

    /// Test builds confirm every key a pin or a view gives against the
    /// built child's canonical digest ([`check_key`]); german4 under
    /// `symmetry` takes both routes, and the pinned one for every child
    /// `canon_pinned` counts.
    #[test]
    fn pinned_and_viewed_keys_are_canonical() {
        let p = p_semantics::lower(&p_corpus::german4()).unwrap();
        let options = CheckerOptions {
            symmetry: true,
            ..CheckerOptions::default()
        };
        let before = CHECKED_KEYS.get();
        let report = Verifier::new(&p)
            .with_options(options)
            .try_check_exhaustive()
            .unwrap();
        assert!(report.passed() && report.complete);
        let after = CHECKED_KEYS.get();
        assert_eq!(after[0] - before[0], report.stats.canon_pinned);
        assert!(after[1] > before[1], "{before:?} → {after:?}");
        assert!(report.stats.canon_pinned > report.stats.canon_calls);
    }

    /// The memo is its constant however many states pass through it, a
    /// collision overwrites (and is recomputed, never aliased), and
    /// with symmetry off nothing is allocated.
    #[test]
    fn canon_memo_is_fixed_size_and_pure() {
        assert_eq!(CanonMemo::new(false).0.capacity(), 0);
        let mut memo = CanonMemo::new(true);
        let canon = |concrete: u128| Fingerprint::from_u128(concrete.wrapping_mul(3));
        let mut computed = 0usize;
        // Ten keys per entry, every one looked up twice in a row: the
        // first lookup computes, the second hits.
        for concrete in 0..10 * CANON_MEMO_ENTRIES as u128 {
            for _ in 0..2 {
                let key = memo.get_or_insert_with(Fingerprint::from_u128(concrete), || {
                    computed += 1;
                    canon(concrete)
                });
                assert_eq!(key, canon(concrete));
            }
        }
        assert_eq!(computed, 10 * CANON_MEMO_ENTRIES);
        assert_eq!(memo.0.len(), CANON_MEMO_ENTRIES);
        assert_eq!(memo.0.capacity(), CANON_MEMO_ENTRIES);
        // An entry nobody wrote matches no fingerprint that indexes it,
        // not even the all-zero and all-one ones.
        let mut fresh = CanonMemo::new(true);
        for concrete in [0, u128::MAX, CANON_MEMO_ENTRIES as u128 - 1] {
            let mut missed = false;
            fresh.get_or_insert_with(Fingerprint::from_u128(concrete), || {
                missed = true;
                canon(concrete)
            });
            assert!(missed, "{concrete:#x} hit an unwritten entry");
        }
    }
}
