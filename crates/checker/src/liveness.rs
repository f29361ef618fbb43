//! Bounded liveness checking — the two properties of §3.2.
//!
//! The paper specifies two liveness properties in LTL and leaves their
//! verification to future work; this module implements a bounded check as
//! the reproduction's extension. The search kernel, under the
//! [`Liveness`] scheduler, keeps the (bounded) reachable state graph; this
//! module decomposes it into strongly connected components and inspects
//! each SCC that can sustain an infinite fair execution:
//!
//! 1. **A machine runs forever** (`∃m. ◇□ sched(m)`): some machine's own
//!    edges form a cycle inside the SCC — it can be scheduled from some
//!    point on forever without being disabled.
//! 2. **An event is deferred forever** (`∃m,e. ◇(enq ∧ □¬deq)` under
//!    fairness): an event sits in some machine's queue in *every* state of
//!    the SCC, no edge of the SCC dequeues it, and it is not listed as
//!    postponed in any of the SCC's control states.
//!
//! Fairness (`∀m. fair(m)` with `fair(m) = □◇(en(m) ⇒ sched(m))`) prunes
//! SCCs that no fair schedule can stay in: a machine enabled throughout
//! the SCC but never scheduled inside it makes the SCC unreachable by fair
//! executions.

use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use std::time::Instant;

use p_semantics::{Config, Engine, EventId, ExecOutcome, MachineId};

use crate::engine::TaskId;
use crate::error::CheckerError;
use crate::explore::{Exhaustive, Scheduler, Step, Verifier};
use crate::fingerprint::{Fingerprint, FpHashMap};
use crate::stats::ExplorationStats;
use crate::succ::Successor;

/// A liveness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LivenessViolation {
    /// Some machine can be scheduled forever without being disabled
    /// (first property of §3.2).
    MachineRunsForever {
        /// The offending machine.
        machine: MachineId,
        /// Number of states in the witnessing SCC.
        scc_size: usize,
    },
    /// An event can stay queued forever under fair scheduling and is not
    /// declared `postpone`d (second property of §3.2).
    EventNeverDequeued {
        /// The machine whose queue holds the event.
        machine: MachineId,
        /// The starved event.
        event: EventId,
        /// Its source name.
        event_name: String,
        /// Number of states in the witnessing SCC.
        scc_size: usize,
    },
}

impl fmt::Display for LivenessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LivenessViolation::MachineRunsForever { machine, scc_size } => write!(
                f,
                "machine {machine} can run forever without being disabled \
                 (cycle through {scc_size} state(s))"
            ),
            LivenessViolation::EventNeverDequeued {
                machine,
                event_name,
                scc_size,
                ..
            } => write!(
                f,
                "event `{event_name}` queued at machine {machine} can be deferred forever \
                 (fair cycle through {scc_size} state(s))"
            ),
        }
    }
}

/// Result of [`Verifier::try_check_liveness`].
#[derive(Debug, Clone)]
pub struct LivenessReport {
    /// All violations found, deduplicated.
    pub violations: Vec<LivenessViolation>,
    /// Statistics of the underlying graph exploration.
    pub stats: ExplorationStats,
    /// Whether the state graph was fully built within bounds (a truncated
    /// graph can miss violations).
    pub complete: bool,
}

impl LivenessReport {
    /// True when no violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The exhaustive moves, with every expanded node and offered edge kept
/// in the worker's [`Graph`].
#[derive(Debug)]
pub(crate) struct Liveness;

/// One worker's share of the state graph, and after the search all of it.
#[derive(Default)]
pub(crate) struct Graph {
    /// Expanded nodes: task id, configuration and the range of `edges`
    /// offered from it.
    nodes: Vec<(TaskId, Box<Config>, Range<usize>)>,
    /// Offered edges: machine run, target, range of `dequeued`.
    edges: Vec<(MachineId, Fingerprint, Range<u32>)>,
    dequeued: Vec<EventId>,
    /// Per edge, the index in `nodes` of its target, or [`OUTSIDE`] when
    /// the target was never expanded (over a bound).
    targets: Vec<u32>,
}

/// No node: an edge out of the graph, or outside the SCC under inspection.
const OUTSIDE: u32 = u32::MAX;

impl Scheduler for Liveness {
    type Note = ();
    type Move = MachineId;
    const ANNOTATED: bool = false;
    type Graph = Graph;
    const LIVENESS: bool = true;

    fn root(&self) {}

    fn moves(
        &self,
        engine: &Engine<'_>,
        config: &Config,
        _: &mut (),
        out: &mut Vec<MachineId>,
    ) -> bool {
        Exhaustive.moves(engine, config, &mut (), out)
    }

    fn step(mv: &MachineId) -> Step {
        Step::Run(*mv)
    }

    fn child(&self, _: &(), _: &MachineId, _: &ExecOutcome) {}

    fn encode(_: &(), _: &mut Vec<u8>) {}

    fn decode(bytes: &[u8]) -> Option<()> {
        bytes.is_empty().then_some(())
    }

    /// Keeps a copy, which holds the interned slots but not the spare
    /// machine buffers of the pooled original. The node's edges are the
    /// ones offered since the last node was kept.
    fn keep_node(graph: &mut Graph, id: TaskId, config: &mut Config) {
        let edges = graph.nodes.last().map_or(0, |n| n.2.end)..graph.edges.len();
        graph.nodes.push((id, Box::new(config.clone()), edges));
    }

    fn keep_edge(graph: &mut Graph, to: Fingerprint, succ: &Successor) {
        let first = graph.dequeued.len() as u32;
        graph.dequeued.extend_from_slice(&succ.result.dequeued);
        let dequeued = first..graph.dequeued.len() as u32;
        graph.edges.push((succ.machine, to, dequeued));
    }
}

impl Graph {
    /// Joins the workers' graphs, nodes in task id order, and resolves
    /// each edge's target through the fingerprints of the expanded nodes.
    fn assemble(graphs: Vec<Graph>) -> Graph {
        let mut graphs = graphs.into_iter();
        let mut all = graphs.next().unwrap_or_default();
        for g in graphs {
            let (e, d) = (all.edges.len(), all.dequeued.len() as u32);
            let shift =
                |(id, config, r): (_, _, Range<usize>)| (id, config, r.start + e..r.end + e);
            all.nodes.extend(g.nodes.into_iter().map(shift));
            let shift = |(m, to, r): (_, _, Range<u32>)| (m, to, r.start + d..r.end + d);
            all.edges.extend(g.edges.into_iter().map(shift));
            all.dequeued.extend(g.dequeued);
        }
        all.nodes.sort_unstable_by_key(|node| node.0);
        let digest = |n: &mut (_, Box<Config>, _)| Fingerprint::from_u128(n.1.digest());
        let index: FpHashMap<u32> = all.nodes.iter_mut().map(digest).zip(0..).collect();
        let target = |e: &(_, Fingerprint, _)| index.get(&e.1).copied().unwrap_or(OUTSIDE);
        all.targets = all.edges.iter().map(target).collect();
        all
    }

    /// The node edge `e` leads to, if `local` (node → index in the SCC
    /// under inspection, else [`OUTSIDE`]; `None`: the whole graph)
    /// holds it, by its index there.
    fn target(&self, e: usize, local: Option<&[u32]>) -> Option<usize> {
        let to = match (self.targets[e], local) {
            (to, Some(local)) if to != OUTSIDE => local[to as usize],
            (to, _) => to,
        };
        (to != OUTSIDE).then_some(to as usize)
    }
}

impl Verifier<'_> {
    /// Explores the bounded reachable state graph on the search kernel
    /// and checks both liveness properties of §3.2 on its strongly
    /// connected components. [`crate::CheckerOptions::jobs`], the state
    /// and depth bounds, `mem_limit` (which bounds the visited tier, not
    /// the graph) and the interrupt flag apply as to the exhaustive search.
    ///
    /// Safety errors encountered while building the graph are treated as
    /// terminal states (run a safety check first).
    ///
    /// # Errors
    ///
    /// Those of [`Verifier::try_check_exhaustive`], and
    /// [`CheckerError::Unsupported`] for `por`, `symmetry`, `checkpoint`
    /// or `resume`.
    pub fn try_check_liveness(&self) -> Result<LivenessReport, CheckerError> {
        let start = Instant::now();
        let (report, _, graphs) = self.search_with(&Liveness, self.options().jobs, None)?;
        let graph = Graph::assemble(graphs);
        let n = graph.nodes.len();
        let (mut violations, mut seen) = (Vec::new(), HashSet::new());
        let mut local = vec![OUTSIDE; n];
        for scc in tarjan(n, |v| graph.nodes[v].2.clone(), |e| graph.target(e, None)) {
            for (i, &v) in scc.iter().enumerate() {
                local[v] = i as u32;
            }
            // (node, edge) of every edge inside the SCC.
            let internal: Vec<(usize, usize)> = scc
                .iter()
                .flat_map(|&v| graph.nodes[v].2.clone().map(move |e| (v, e)))
                .filter(|&(_, e)| graph.target(e, Some(&local)).is_some())
                .collect();
            // A trivial SCC has no cycle.
            if !internal.is_empty() {
                self.check_scc(&graph, &scc, &internal, &local, &mut violations, &mut seen);
            }
            for &v in &scc {
                local[v] = OUTSIDE;
            }
        }
        let mut stats = report.stats;
        stats.duration = start.elapsed();
        Ok(LivenessReport {
            violations,
            complete: report.complete,
            stats,
        })
    }

    /// Reports the violations of one SCC with an internal edge, each
    /// (kind, machine, event) once per run, machines and events in
    /// ascending order.
    fn check_scc(
        &self,
        graph: &Graph,
        scc: &[usize],
        internal: &[(usize, usize)],
        local: &[u32],
        violations: &mut Vec<LivenessViolation>,
        seen: &mut HashSet<(MachineId, Option<EventId>)>,
    ) {
        let engine = self.engine();
        let program = self.program();
        let config = |n: usize| &*graph.nodes[n].1;
        let machine = |e: usize| graph.edges[e].0;
        let dequeued = |e: usize| {
            let events = &graph.edges[e].2;
            &graph.dequeued[events.start as usize..events.end as usize]
        };

        // Machines alive somewhere in the SCC.
        let mut machines: Vec<MachineId> = scc.iter().flat_map(|&n| config(n).live_ids()).collect();
        machines.sort_unstable();
        machines.dedup();

        // Property 1: a machine whose own edges form a cycle — a
        // self-loop, or a component of two or more nodes of the SCC's
        // subgraph of that machine's edges.
        for &m in &machines {
            let own = |e| graph.target(e, Some(local)).filter(|_| machine(e) == m);
            let cycle = internal
                .iter()
                .any(|&(n, e)| own(e) == Some(local[n] as usize))
                || tarjan(scc.len(), |i| graph.nodes[scc[i]].2.clone(), own)
                    .iter()
                    .any(|c| c.len() >= 2);
            if cycle && seen.insert((m, None)) {
                violations.push(LivenessViolation::MachineRunsForever {
                    machine: m,
                    scc_size: scc.len(),
                });
            }
        }

        // Fairness feasibility: every machine enabled throughout the SCC
        // must be scheduled by some internal edge; otherwise no fair
        // execution stays in this SCC and property 2 is vacuous here.
        for &m in &machines {
            let enabled_everywhere = scc.iter().all(|&n| engine.enabled(config(n), m));
            if enabled_everywhere && !internal.iter().any(|&(_, e)| machine(e) == m) {
                return; // unfair SCC
            }
        }

        // Property 2: an event pinned in some queue across the whole SCC,
        // which no internal edge dequeues at m and no control state of m
        // inside the SCC postpones (the refined specification of §3.2).
        for &m in &machines {
            let queued = |n: usize| config(n).machine(m).map_or(&[][..], |ms| &ms.queue[..]);
            let mut candidates: Vec<EventId> = queued(scc[0]).iter().map(|&(e, _)| e).collect();
            candidates.sort_unstable();
            candidates.dedup();
            for &n in &scc[1..] {
                candidates.retain(|ev| queued(n).iter().any(|(e, _)| e == ev));
            }
            candidates.retain(|ev| {
                !internal
                    .iter()
                    .any(|&(_, e)| machine(e) == m && dequeued(e).contains(ev))
            });
            candidates.retain(|&ev| {
                !scc.iter().any(|&n| {
                    config(n).machine(m).is_some_and(|ms| {
                        let mt = program.machine(ms.ty);
                        mt.states[ms.current_state().0 as usize]
                            .postponed
                            .contains(ev)
                    })
                })
            });
            for ev in candidates {
                if seen.insert((m, Some(ev))) {
                    violations.push(LivenessViolation::EventNeverDequeued {
                        machine: m,
                        event: ev,
                        event_name: program.event_name(ev).to_owned(),
                        scc_size: scc.len(),
                    });
                }
            }
        }
    }
}

/// Iterative Tarjan over nodes `0..n`, where `out(v)` is the range of
/// `v`'s edges and `to(e)` the node edge `e` leads to (`None`: leave it
/// out). Each component comes out after every component it reaches.
fn tarjan(
    n: usize,
    out: impl Fn(usize) -> Range<usize>,
    to: impl Fn(usize) -> Option<usize>,
) -> Vec<Vec<usize>> {
    let (mut counter, mut indices, mut lowlink) = (0, vec![usize::MAX; n], vec![0; n]);
    let (mut on_stack, mut stack, mut sccs) = (vec![false; n], Vec::new(), Vec::new());

    // Explicit call stack: (node, its edges not yet followed).
    for root in 0..n {
        if indices[root] != usize::MAX {
            continue;
        }
        let mut call = vec![(root, out(root))];
        while let Some((v, edges)) = call.last_mut() {
            let v = *v;
            if indices[v] == usize::MAX {
                indices[v] = counter;
                lowlink[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(e) = edges.next() {
                let Some(w) = to(e) else { continue };
                if indices[w] == usize::MAX {
                    call.push((w, out(w)));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(indices[w]);
                }
            } else {
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == indices[v] {
                    let root_at = stack.iter().rposition(|&w| w == v).expect("v is stacked");
                    let scc: Vec<usize> = stack.drain(root_at..).rev().collect();
                    scc.iter().for_each(|&w| on_stack[w] = false);
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}
