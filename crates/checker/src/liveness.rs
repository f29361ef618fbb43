//! Bounded liveness checking — the two properties of §3.2.
//!
//! The paper specifies two liveness properties in LTL and leaves their
//! verification to future work; this module implements a bounded check as
//! the reproduction's extension. The explorer builds the (bounded)
//! reachable state graph, decomposes it into strongly connected
//! components, and inspects each SCC that can sustain an infinite fair
//! execution:
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

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use p_semantics::{Config, EventId, ExecOutcome, MachineId};

use crate::error::CheckerError;
use crate::explore::Verifier;
use crate::fingerprint::Fingerprint;
use crate::stats::ExplorationStats;
use crate::succ::successors_for;

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

/// Result of [`Verifier::check_liveness`].
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

struct Graph {
    configs: Vec<Config>,
    edges: Vec<Vec<Edge>>,
}

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    machine: MachineId,
    dequeued: Vec<EventId>,
}

impl Verifier<'_> {
    /// Builds the bounded reachable state graph and checks both liveness
    /// properties of §3.2 on its strongly connected components.
    ///
    /// Safety errors encountered while building the graph are treated as
    /// terminal states (run a safety check first).
    ///
    /// # Panics
    ///
    /// Panics on a fatal [`CheckerError`] (a corrupt lowering — an engine
    /// bug, not a property violation). Use
    /// [`Verifier::try_check_liveness`] to handle it.
    pub fn check_liveness(&self) -> LivenessReport {
        self.try_check_liveness()
            .expect("liveness search failed; use try_check_liveness to handle errors")
    }

    /// [`Verifier::check_liveness`], surfacing fatal semantics errors
    /// instead of panicking.
    pub fn try_check_liveness(&self) -> Result<LivenessReport, CheckerError> {
        let start = Instant::now();
        let (graph, mut stats) = self.build_graph()?;
        let sccs = tarjan(&graph);

        let mut violations = Vec::new();
        let mut seen = HashSet::new();

        for scc in &sccs {
            let scc_set: HashSet<usize> = scc.iter().copied().collect();
            // Internal edges of this SCC.
            let internal: Vec<(usize, &Edge)> = scc
                .iter()
                .flat_map(|&n| graph.edges[n].iter().map(move |e| (n, e)))
                .filter(|(_, e)| scc_set.contains(&e.to))
                .collect();
            if internal.is_empty() {
                continue; // trivial SCC, no cycle
            }

            self.check_scc(&graph, scc, &internal, &mut violations, &mut seen);
        }

        stats.duration = start.elapsed();
        Ok(LivenessReport {
            violations,
            complete: !stats.truncated,
            stats,
        })
    }

    fn check_scc(
        &self,
        graph: &Graph,
        scc: &[usize],
        internal: &[(usize, &Edge)],
        violations: &mut Vec<LivenessViolation>,
        seen: &mut HashSet<String>,
    ) {
        let engine = self.engine();
        let program = self.program();

        // Machines alive somewhere in the SCC.
        let mut machines: HashSet<MachineId> = HashSet::new();
        for &n in scc {
            machines.extend(graph.configs[n].live_ids());
        }

        // Property 1: a machine whose own edges form a cycle.
        for &m in &machines {
            if has_single_machine_cycle(graph, scc, m) {
                let key = format!("p1:{}", m.0);
                if seen.insert(key) {
                    violations.push(LivenessViolation::MachineRunsForever {
                        machine: m,
                        scc_size: scc.len(),
                    });
                }
            }
        }

        // Fairness feasibility: every machine enabled throughout the SCC
        // must be scheduled by some internal edge; otherwise no fair
        // execution stays in this SCC and property 2 is vacuous here.
        let scheduled: HashSet<MachineId> = internal.iter().map(|(_, e)| e.machine).collect();
        for &m in &machines {
            let enabled_everywhere = scc.iter().all(|&n| engine.enabled(&graph.configs[n], m));
            if enabled_everywhere && !scheduled.contains(&m) {
                return; // unfair SCC
            }
        }

        // Property 2: an event pinned in some queue across the whole SCC.
        for &m in &machines {
            // Candidate events: queued at m in every state of the SCC.
            let mut candidates: Option<HashSet<EventId>> = None;
            for &n in scc {
                let events: HashSet<EventId> = graph.configs[n]
                    .machine(m)
                    .map(|ms| ms.queue.iter().map(|&(e, _)| e).collect())
                    .unwrap_or_default();
                candidates = Some(match candidates {
                    None => events,
                    Some(prev) => prev.intersection(&events).copied().collect(),
                });
                if candidates.as_ref().is_some_and(HashSet::is_empty) {
                    break;
                }
            }
            let Some(mut candidates) = candidates else {
                continue;
            };
            // Remove events some internal edge dequeues at m.
            for (_, e) in internal {
                if e.machine == m {
                    for ev in &e.dequeued {
                        candidates.remove(ev);
                    }
                }
            }
            // Remove events postponed in any control state of m inside the
            // SCC (the refined specification of §3.2).
            candidates.retain(|&ev| {
                !scc.iter().any(|&n| {
                    graph.configs[n].machine(m).is_some_and(|ms| {
                        let mt = program.machine(ms.ty);
                        mt.states[ms.current_state().0 as usize]
                            .postponed
                            .contains(ev)
                    })
                })
            });
            for ev in candidates {
                let key = format!("p2:{}:{}", m.0, ev.0);
                if seen.insert(key) {
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

    /// Full exploration that materializes the state graph.
    fn build_graph(&self) -> Result<(Graph, ExplorationStats), CheckerError> {
        let engine = self.engine();
        let mut stats = ExplorationStats::default();

        let mut init = engine.initial_config();
        let mut index: HashMap<Fingerprint, usize> = HashMap::new();
        let (init_digest, init_len) = init.digest_and_len();
        index.insert(Fingerprint::from_u128(init_digest), 0);
        stats.stored_bytes += init_len;

        let mut graph = Graph {
            configs: vec![init],
            edges: vec![Vec::new()],
        };
        let mut worklist = vec![0usize];

        while let Some(n) = worklist.pop() {
            if graph.configs.len() > self.options().max_states {
                stats.truncated = true;
                break;
            }
            let config = graph.configs[n].clone();
            for id in engine.enabled_machines(&config) {
                for succ in successors_for(&engine, &config, id, self.options().granularity)? {
                    stats.transitions += 1;
                    if matches!(succ.result.outcome, ExecOutcome::Error(_)) {
                        continue; // terminal for liveness purposes
                    }
                    let mut child = *succ.config.expect("no memo: every successor is built");
                    let h = Fingerprint::from_u128(child.digest());
                    let to = match index.get(&h) {
                        Some(&i) => i,
                        None => {
                            let i = graph.configs.len();
                            index.insert(h, i);
                            stats.stored_bytes += child.encoded_len();
                            graph.configs.push(child);
                            graph.edges.push(Vec::new());
                            worklist.push(i);
                            i
                        }
                    };
                    graph.edges[n].push(Edge {
                        to,
                        machine: id,
                        dequeued: succ.result.dequeued.clone(),
                    });
                }
            }
        }

        stats.unique_states = graph.configs.len();
        Ok((graph, stats))
    }
}

/// Whether machine `m`'s own edges contain a cycle within `scc`.
fn has_single_machine_cycle(graph: &Graph, scc: &[usize], m: MachineId) -> bool {
    let scc_set: HashSet<usize> = scc.iter().copied().collect();
    // Self-loops are immediate cycles.
    for &n in scc {
        for e in &graph.edges[n] {
            if e.machine == m && e.to == n {
                return true;
            }
        }
    }
    // Otherwise look for a cycle in the m-only subgraph via DFS with
    // colors.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: HashMap<usize, Color> = scc.iter().map(|&n| (n, Color::White)).collect();
    for &start in scc {
        if color[&start] != Color::White {
            continue;
        }
        // Iterative DFS: (node, next edge index).
        let mut stack = vec![(start, 0usize)];
        color.insert(start, Color::Gray);
        while let Some(&mut (n, ref mut i)) = stack.last_mut() {
            let edges: Vec<usize> = graph.edges[n]
                .iter()
                .filter(|e| e.machine == m && scc_set.contains(&e.to))
                .map(|e| e.to)
                .collect();
            if *i < edges.len() {
                let to = edges[*i];
                *i += 1;
                match color[&to] {
                    Color::Gray => return true,
                    Color::White => {
                        color.insert(to, Color::Gray);
                        stack.push((to, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(n, Color::Black);
                stack.pop();
            }
        }
    }
    false
}

/// Iterative Tarjan SCC.
fn tarjan(graph: &Graph) -> Vec<Vec<usize>> {
    let n = graph.configs.len();
    let mut index_counter = 0usize;
    let mut indices = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit call stack: (node, edge cursor).
    for root in 0..n {
        if indices[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor == 0 {
                indices[v] = index_counter;
                lowlink[v] = index_counter;
                index_counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *cursor < graph.edges[v].len() {
                let w = graph.edges[v][*cursor].to;
                *cursor += 1;
                if indices[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(indices[w]);
                }
            } else {
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == indices[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}
