//! The `deliver_*` workloads: events injected into a sharded `Executor`
//! from one generator thread. Each repetition runs in a process of its
//! own (`benchmark child`), so that it starts with a fresh allocator and
//! its own peak-memory mark; the parent reads the child's report.

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use p_runtime::{Executor, Injection, OverflowPolicy, Runtime};
use p_semantics::{Config, Engine, ForeignEnv, MachineId, Value};
use p_telemetry::json::{num, obj, str as jstr, JsonValue};

use crate::rusage::{self_rss_bytes, wait_with_rusage};
use crate::schedule::Schedule;
use crate::stats::{highest_resolved_percentile, percentile};
use crate::trace::Tracer;
use crate::walk::{walk, Rng};
use crate::workloads::{Deliver, Outcome};
use crate::{Env, WALK_STEPS};

/// Worker shards: the sizing box has two cores, and the count is fixed
/// so that results from boxes with more cores stay comparable.
pub const SHARDS: usize = 2;
const MAILBOX: usize = 64;
const CREDITS: usize = 4096;

/// `Counter` machines in `deliver_fan_out` and `deliver_open_loop`.
const COUNTERS: usize = 10_000;
/// Injections of one `deliver_fan_out` repetition.
const FAN_OUT_INJECTIONS: usize = 500_000;

const RINGS: usize = 1_250;
const RING_LEN: usize = 8;
/// Hops one `go` carries: with the head's own, 64 handler executions
/// per injection, which the runtime makes in 71 atomic runs (a relay
/// that sent resumes once more, unless the next `go` reaches it first).
const RING_HOPS: i64 = 63;
/// Times every ring is started in one `deliver_ping_ring` repetition.
const RING_LAPS: usize = 50;

/// `deliver_open_loop`: about a fifth of what two shards sustain on the
/// sizing box.
const OPEN_RATE_PER_S: u64 = 100_000;
const OPEN_SECONDS: u64 = 1;
/// An open-loop injection is on time when it completes within this of
/// its due time.
const ON_TIME_NS: u64 = 1_000_000;

/// Set-ups of the set-up-only child of an untraced run.
const SETUP_REPS: usize = 25;
/// One injection in this many is timed call by call in a traced run.
const SAMPLE_EVERY: usize = 16;
/// Deliveries through a bare `Runtime` for `runtime.add_event_ns`.
const BARE_EVENTS: usize = 200_000;

const COUNTER: &str = r#"
    event tick;
    machine Counter {
        var n : int;
        state Run { on tick do bump; }
        action bump { n := n + 1; }
    }
    main Counter();
"#;

/// `Counter` with a handler that reports its completion: `stamp` is a
/// foreign function of the harness, `arg` the injection's sequence number.
const COUNTER_STAMPED: &str = r#"
    event tick : int;
    machine Counter {
        var n : int;
        var t : int;
        foreign fn stamp(int) : int;
        state Run { on tick do bump; }
        action bump { n := n + 1; t := stamp(arg); }
    }
    main Counter();
"#;

const RING: &str = r#"
    event go : int;
    event wire : id;
    machine Relay {
        var next : id;
        var hits : int;
        state Run {
            on wire do setnext;
            on go do forward;
        }
        action setnext { next := arg; }
        action forward {
            hits := hits + 1;
            if (arg > 0) { send(next, go, arg - 1); }
        }
    }
    main Relay();
"#;

/// What a child process measured in its one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub p50_us: f64,
    pub injected: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
    pub layers: Vec<(&'static str, f64)>,
    /// `(name, start, end)` in microseconds since the child started.
    pub spans: Vec<(&'static str, u64, u64)>,
}

/// Span names a child reports; the parent maps the strings it reads
/// back onto these.
const CHILD_SPANS: [&str; 5] = [
    "runtime.start",
    "runtime.create",
    "runtime.wire",
    "runtime.inject",
    "runtime.drain",
];

/// Call-by-call timing of sampled injections, in a traced run.
struct Sampler {
    new_ns: u64,
    call_ns: u64,
    /// When `inject` returned for sample `i / SAMPLE_EVERY`, in
    /// nanoseconds since the epoch the stamps use.
    returned_ns: Vec<u64>,
}

impl Rep {
    /// Records a span between two instants, relative to `epoch`.
    fn span(&mut self, epoch: Instant, name: &'static str, from: Instant, to: Instant) {
        let us = |t: Instant| t.duration_since(epoch).as_micros() as u64;
        self.spans.push((name, us(from), us(to)));
    }

    /// Records a failed check that cost `lost` operations.
    fn complain(&mut self, lost: u64, complaint: String) {
        self.failed += lost.max(1);
        self.complaints.push(complaint);
    }
}

/// The executor of one repetition with its population and the clocks the
/// checks and layer metrics need.
struct Bed {
    epoch: Instant,
    exec: Executor,
    ids: Vec<MachineId>,
    /// Handles that keep the machines readable after `shutdown`.
    runtimes: Vec<Runtime>,
    /// Completion time of injection `seq`, nanoseconds since `epoch`;
    /// 0 until its handler has run. Empty for an unstamped program.
    stamps: Arc<Vec<AtomicU64>>,
    rep: Rep,
    baseline_runs: u64,
}

impl Bed {
    /// Starts the executor and creates `machines` machines; `create`
    /// makes machine `i`, given the one made before it.
    fn start(
        source: &str,
        stamped_injections: usize,
        machines: usize,
        mut create: impl FnMut(&Executor, usize, Option<MachineId>) -> MachineId,
    ) -> Bed {
        let epoch = Instant::now();
        let program = p_parser::parse(source).expect("the workload's program parses");
        let stamps: Arc<Vec<AtomicU64>> =
            Arc::new((0..stamped_injections).map(|_| AtomicU64::new(0)).collect());
        let mut builder = Executor::builder(&program)
            .expect("the workload's program checks")
            .shards(SHARDS)
            .mailbox_capacity(MAILBOX)
            .credits(CREDITS)
            .overflow(OverflowPolicy::Block);
        if stamped_injections > 0 {
            let stamps = Arc::clone(&stamps);
            builder = builder.foreign("stamp", move |args| {
                if let Some(&Value::Int(seq)) = args.first() {
                    // Relaxed: the stamp publishes no other data, and it
                    // is read only after `shutdown` has joined the workers.
                    stamps[seq as usize]
                        .store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                Value::Int(0)
            });
        }
        let mut rep = Rep::default();
        let starting = Instant::now();
        let exec = builder.start();
        let creating = Instant::now();
        rep.span(epoch, "runtime.start", starting, creating);

        let rss_before = self_rss_bytes();
        let mut ids = Vec::with_capacity(machines);
        for i in 0..machines {
            let previous = ids.last().copied();
            ids.push(create(&exec, i, previous));
        }
        let created = Instant::now();
        let rss_after = self_rss_bytes();
        rep.span(epoch, "runtime.create", creating, created);
        rep.layers.extend([
            ("runtime.start_s", (creating - starting).as_secs_f64()),
            (
                "runtime.create_ns",
                (created - creating).as_nanos() as f64 / machines as f64,
            ),
            (
                "runtime.rss_per_machine_bytes",
                rss_after.saturating_sub(rss_before) as f64 / machines as f64,
            ),
        ]);
        let runtimes = (0..SHARDS)
            .map(|s| exec.shard_runtime(s).expect("shard exists").clone())
            .collect();
        Bed {
            epoch,
            exec,
            ids,
            runtimes,
            stamps,
            rep,
            baseline_runs: 0,
        }
    }

    /// Ends set-up: from here on every machine run is a timed one.
    fn ready(&mut self) {
        self.baseline_runs = self.runtimes.iter().map(Runtime::runs_executed).sum();
        self.rep.setup_s = self.epoch.elapsed().as_secs_f64();
    }

    /// Injects once, counting a refusal as a failed operation, and in a
    /// traced run times the two calls of every [`SAMPLE_EVERY`]th one.
    fn inject(
        &mut self,
        i: usize,
        target: MachineId,
        event: &str,
        payload: Value,
        sampler: &mut Option<Sampler>,
    ) {
        self.rep.injected += 1;
        let refused = match sampler {
            Some(s) if i.is_multiple_of(SAMPLE_EVERY) => {
                let a = Instant::now();
                let injection = Injection::new(target, event, payload);
                let b = Instant::now();
                let result = self.exec.inject(injection);
                let c = Instant::now();
                s.new_ns += (b - a).as_nanos() as u64;
                s.call_ns += (c - b).as_nanos() as u64;
                s.returned_ns.push((c - self.epoch).as_nanos() as u64);
                result.is_err()
            }
            _ => self
                .exec
                .inject(Injection::new(target, event, payload))
                .is_err(),
        };
        if refused {
            self.rep.failed += 1;
        }
    }

    /// Shuts the executor down and checks what it delivered: everything
    /// injected, nothing rejected or dropped, no machine halted or
    /// quarantined, and `var` summing to `expected_sum` over all
    /// machines. Returns the report and the completion stamps.
    fn finish(
        self,
        injecting_since: Instant,
        set_up_injections: u64,
        sampler: Option<Sampler>,
        var: &str,
        expected_sum: i64,
    ) -> (Rep, Arc<Vec<AtomicU64>>) {
        let Bed {
            epoch,
            exec,
            ids,
            runtimes,
            stamps,
            mut rep,
            baseline_runs,
        } = self;
        let locals: Vec<(usize, MachineId)> = ids
            .iter()
            .map(|&id| exec.locate(id).expect("created above"))
            .collect();
        let draining_since = Instant::now();
        let report = exec.shutdown();
        let done = Instant::now();
        rep.span(epoch, "runtime.inject", injecting_since, draining_since);
        rep.span(epoch, "runtime.drain", draining_since, done);
        rep.wall_s = (done - injecting_since).as_secs_f64();
        let injected = rep.injected;
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                rep.complain(injected, format!("shutdown: {e}"));
                return (rep, stamps);
            }
        };

        let stats = &report.stats;
        let due = injected + set_up_injections;
        if report.delivered != due {
            rep.complain(
                due.abs_diff(report.delivered),
                format!("delivered {} of {due} injections", report.delivered),
            );
        }
        if stats.failed + stats.dropped > 0 {
            rep.complain(
                stats.failed + stats.dropped,
                format!("{} rejected, {} dropped", stats.failed, stats.dropped),
            );
        }
        let (mut halted, mut quarantined) = (0, 0);
        for runtime in &runtimes {
            let s = runtime.stats();
            halted += s.halted;
            quarantined += s.quarantined;
        }
        if halted + quarantined > 0 {
            rep.complain(
                (halted + quarantined) as u64,
                format!("{halted} machines halted, {quarantined} quarantined"),
            );
        }
        let sum: i64 = locals
            .iter()
            .map(
                |&(shard, local)| match runtimes[shard].read_var(local, var) {
                    Some(Value::Int(v)) => v,
                    _ => 0,
                },
            )
            .sum();
        if sum != expected_sum {
            rep.complain(
                sum.abs_diff(expected_sum),
                format!("sum of `{var}` is {sum}, expected {expected_sum}"),
            );
        }

        let runs = runtimes.iter().map(Runtime::runs_executed).sum::<u64>() - baseline_runs;
        let per_shard: Vec<f64> = stats.shards.iter().map(|s| s.delivered as f64).collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        let max_depth = stats.shards.iter().map(|s| s.max_mailbox_depth).max();
        let batches = stats.batches.max(1) as f64;
        rep.layers.extend([
            ("runtime.drain_s", (done - draining_since).as_secs_f64()),
            ("runtime.events_per_s", runs as f64 / rep.wall_s),
            ("runtime.runs_per_injection", runs as f64 / injected as f64),
            ("runtime.steals", stats.steals as f64),
            ("runtime.batches", stats.batches as f64),
            ("runtime.events_per_batch", stats.delivered as f64 / batches),
            ("runtime.steal_share", stats.steals as f64 / batches),
            ("runtime.max_mailbox_depth", max_depth.unwrap_or(0) as f64),
            (
                "runtime.shard_imbalance",
                per_shard.iter().copied().fold(0.0, f64::max) / mean,
            ),
        ]);
        if let Some(s) = sampler {
            let samples = s.returned_ns.len() as f64;
            rep.layers.extend([
                ("runtime.injection_new_ns", s.new_ns as f64 / samples),
                ("runtime.inject_call_ns", s.call_ns as f64 / samples),
            ]);
            if !stamps.is_empty() {
                // `inject` returning → the handler's stamp: mailbox dwell,
                // lock wait and the run itself. A handler that finished
                // before `inject` returned dwelt for no time.
                let mut dwell: Vec<f64> = s
                    .returned_ns
                    .iter()
                    .enumerate()
                    .map(|(k, &returned)| {
                        let stamp = stamps[k * SAMPLE_EVERY].load(Ordering::Relaxed);
                        stamp.saturating_sub(returned) as f64 / 1e3
                    })
                    .collect();
                dwell.sort_by(f64::total_cmp);
                rep.layers.extend([
                    ("runtime.dwell_p50_us", percentile(&dwell, 50.0)),
                    ("runtime.dwell_p99_us", percentile(&dwell, 99.0)),
                ]);
            }
        }
        (rep, stamps)
    }
}

fn sampler(trace: bool, injections: usize) -> Option<Sampler> {
    trace.then(|| Sampler {
        new_ns: 0,
        call_ns: 0,
        returned_ns: Vec::with_capacity(injections / SAMPLE_EVERY + 1),
    })
}

/// Injections of one repetition.
fn injections(kind: Deliver) -> usize {
    match kind {
        Deliver::FanOut => FAN_OUT_INJECTIONS,
        Deliver::PingRing => RINGS * RING_LAPS,
        Deliver::OpenLoop => (OPEN_RATE_PER_S * OPEN_SECONDS) as usize,
    }
}

/// Everything before the timed section: executor start, machine
/// creation, ring wiring and its quiescence, and the seeded order in
/// which machines are sent to. Returns the bed, ready, with that order.
fn set_up(kind: Deliver, seed: u64, trace: bool) -> (Bed, Vec<MachineId>) {
    let counters = |source: &str, stamped_injections: usize| {
        let mut bed = Bed::start(source, stamped_injections, COUNTERS, |exec, _, _| {
            exec.create_machine("Counter", &[("n", Value::Int(0))])
                .expect("Counter is created")
        });
        let order = Rng::new(seed).permutation(COUNTERS);
        let targets = order.iter().map(|&k| bed.ids[k]).collect();
        bed.ready();
        (bed, targets)
    };
    match kind {
        Deliver::FanOut if !trace => counters(COUNTER, 0),
        Deliver::FanOut | Deliver::OpenLoop => counters(COUNTER_STAMPED, injections(kind)),
        Deliver::PingRing => {
            // Each ring lives on one shard; relay `i` sends on to the one
            // made before it, and `wire` closes the ring from its first
            // relay to its last.
            let relay = |exec: &Executor, i: usize, previous: Option<MachineId>| {
                let shard = (i / RING_LEN) % SHARDS;
                let mut inits = vec![("hits", Value::Int(0))];
                if let (Some(previous), true) = (previous, !i.is_multiple_of(RING_LEN)) {
                    inits.push(("next", Value::Machine(previous)));
                }
                exec.create_machine_on(shard, "Relay", &inits)
                    .expect("Relay is created")
            };
            let mut bed = Bed::start(RING, 0, RINGS * RING_LEN, relay);
            let wiring = Instant::now();
            let heads: Vec<MachineId> = bed.ids.iter().copied().step_by(RING_LEN).collect();
            for (ring, &head) in heads.iter().enumerate() {
                let last = bed.ids[ring * RING_LEN + RING_LEN - 1];
                bed.exec
                    .inject(Injection::new(head, "wire", Value::Machine(last)))
                    .expect("wire is accepted");
            }
            // Timing starts only once every `wire` has been delivered, so
            // that the timed event count does not depend on how the
            // shards were scheduled.
            while bed.exec.stats().delivered < RINGS as u64 {
                std::thread::yield_now();
            }
            bed.rep
                .span(bed.epoch, "runtime.wire", wiring, Instant::now());
            bed.ready();
            (bed, heads)
        }
    }
}

/// Set-up alone, `times` times over: seconds each took.
pub fn set_ups(kind: Deliver, seed: u64, times: usize) -> Vec<f64> {
    (0..times)
        .map(|_| {
            let (bed, _) = set_up(kind, seed, false);
            let setup_s = bed.rep.setup_s;
            // A failed shutdown fails the repetitions too; here only the
            // time is wanted.
            let _ = bed.exec.shutdown();
            setup_s
        })
        .collect()
}

/// Closed loop, back-pressured: one thread injects a fixed number of
/// events as fast as credits and mailboxes admit them. `deliver_fan_out`
/// sends `tick`s to counters, one machine run each; `deliver_ping_ring`
/// sends `go`s to ring heads, 64 handler executions each through
/// in-program sends.
fn closed_loop(kind: Deliver, seed: u64, trace: bool) -> Rep {
    let (mut bed, targets) = set_up(kind, seed, trace);
    let n = injections(kind);
    let ring = kind == Deliver::PingRing;
    let mut sampler = sampler(trace, n);
    let since = Instant::now();
    for i in 0..n {
        let (event, payload) = match (ring, trace) {
            (true, _) => ("go", Value::Int(RING_HOPS)),
            (false, true) => ("tick", Value::Int(i as i64)),
            (false, false) => ("tick", Value::Null),
        };
        bed.inject(i, targets[i % targets.len()], event, payload, &mut sampler);
    }
    let (mut rep, _) = if ring {
        let hits = (RING_HOPS + 1) * n as i64;
        bed.finish(since, RINGS as u64, sampler, "hits", hits)
    } else {
        bed.finish(since, 0, sampler, "n", n as i64)
    };
    rep.p50_us = rep.wall_s * 1e6 / n as f64;
    rep
}

/// Open loop: `tick`s sent on a fixed schedule whatever the executor has
/// completed; latency runs from the due time to the handler's stamp.
fn open_loop(seed: u64, trace: bool) -> Rep {
    let schedule = Schedule {
        rate_per_s: OPEN_RATE_PER_S,
        count: injections(Deliver::OpenLoop),
    };
    let n = schedule.count;
    let (mut bed, targets) = set_up(Deliver::OpenLoop, seed, trace);
    let mut sampler = sampler(trace, n);
    let since = Instant::now();
    let start_ns = (since - bed.epoch).as_nanos() as u64;
    let late = schedule.run(
        || since.elapsed().as_nanos() as u64,
        |i| {
            let target = targets[i % targets.len()];
            bed.inject(i, target, "tick", Value::Int(i as i64), &mut sampler);
        },
    );
    let schedule_s = since.elapsed().as_secs_f64();
    let backlog = bed.exec.stats().queued;
    let (mut rep, stamps) = bed.finish(since, 0, sampler, "n", n as i64);

    let mut latency_us = Vec::with_capacity(n);
    let (mut on_time, mut unstamped) = (0u64, 0u64);
    for i in 0..n {
        let stamp = stamps[i].load(Ordering::Relaxed);
        if stamp == 0 {
            unstamped += 1;
            continue;
        }
        let latency = stamp.saturating_sub(start_ns + schedule.due_ns(i));
        on_time += u64::from(latency <= ON_TIME_NS);
        latency_us.push(latency as f64 / 1e3);
    }
    if unstamped > 0 {
        rep.complain(unstamped, format!("{unstamped} injections never completed"));
    }
    latency_us.sort_by(f64::total_cmp);
    let mut late_us: Vec<f64> = late.iter().map(|&l| l as f64 / 1e3).collect();
    late_us.sort_by(f64::total_cmp);
    rep.p50_us = percentile(&latency_us, 50.0);
    rep.layers.extend([
        ("runtime.ontime_share", on_time as f64 / n as f64),
        ("runtime.p99_us", percentile(&latency_us, 99.0)),
        ("runtime.p999_us", percentile(&latency_us, 99.9)),
        ("runtime.max_us", percentile(&latency_us, 100.0)),
        ("runtime.achieved_rate_per_s", n as f64 / schedule_s),
        ("runtime.backlog_end", backlog as f64),
        ("runtime.generator_late_p99_us", percentile(&late_us, 99.0)),
        ("runtime.generator_late_max_us", percentile(&late_us, 100.0)),
    ]);
    if let Some(p) = highest_resolved_percentile(latency_us.len()) {
        eprintln!(
            "  latency p{p} = {:.1} us over {} samples",
            percentile(&latency_us, p),
            latency_us.len()
        );
    }
    rep
}

/// One repetition, in this process.
pub fn rep(kind: Deliver, seed: u64, trace: bool) -> Rep {
    match kind {
        Deliver::FanOut | Deliver::PingRing => closed_loop(kind, seed, trace),
        Deliver::OpenLoop => open_loop(seed, trace),
    }
}

impl Rep {
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("setup_s", num(self.setup_s)),
            ("wall_s", num(self.wall_s)),
            ("p50_us", num(self.p50_us)),
            ("injected", num(self.injected as f64)),
            ("failed", num(self.failed as f64)),
            (
                "complaints",
                JsonValue::Arr(self.complaints.iter().map(|c| jstr(c)).collect()),
            ),
            (
                "layers",
                obj(self.layers.iter().map(|&(k, v)| (k, num(v))).collect()),
            ),
            (
                "spans",
                JsonValue::Arr(
                    self.spans
                        .iter()
                        .map(|&(name, start, end)| {
                            JsonValue::Arr(vec![jstr(name), num(start as f64), num(end as f64)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads back what [`Rep::to_json`] wrote; `None` for anything else.
    pub fn from_json(doc: &JsonValue) -> Option<Rep> {
        let f = |key: &str| doc.get(key)?.as_f64();
        let mut layers = Vec::new();
        if let Some(JsonValue::Obj(fields)) = doc.get("layers") {
            for (key, value) in fields {
                let name = crate::workloads::PER_LAYER
                    .iter()
                    .find(|(name, _)| name == key)?
                    .0;
                layers.push((name, value.as_f64()?));
            }
        }
        let mut spans = Vec::new();
        for span in doc.get("spans")?.as_array()? {
            let parts = span.as_array()?;
            let name = parts.first()?.as_str()?;
            let name = *CHILD_SPANS.iter().find(|known| **known == name)?;
            spans.push((name, parts.get(1)?.as_u64()?, parts.get(2)?.as_u64()?));
        }
        Some(Rep {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            p50_us: f("p50_us")?,
            injected: f("injected")? as u64,
            failed: f("failed")? as u64,
            complaints: doc
                .get("complaints")?
                .as_array()?
                .iter()
                .filter_map(|c| c.as_str().map(str::to_owned))
                .collect(),
            layers,
            spans,
        })
    }
}

/// Runs one repetition in a child process and folds its report into
/// `out`; returns the report for the layer metrics.
fn child_rep(
    name: &str,
    env: &Env,
    seed: u64,
    trace: bool,
    tracer: &mut Tracer,
    rep_index: u32,
    out: &mut Outcome,
) -> std::io::Result<Option<Rep>> {
    let span = tracer.begin("bench.child_rep", None, rep_index);
    let mut child = Command::new(&env.self_exe)
        .args(["child", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let exit = wait_with_rusage(&mut child)?;
    tracer.end(span);
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        std::io::Read::read_to_string(&mut pipe, &mut stdout)?;
    }
    let report = crate::last_json_line(&stdout).and_then(|doc| Rep::from_json(&doc));
    let Some(rep) = report.filter(|_| exit.code == Some(0)) else {
        out.attempted += 1;
        out.fail(
            1,
            format!("rep {rep_index}: child exited with {:?}", exit.code),
        );
        return Ok(None);
    };
    out.attempted += rep.injected;
    if rep.failed > 0 || !rep.complaints.is_empty() {
        out.fail(
            rep.failed,
            format!("rep {rep_index}: {}", rep.complaints.join("; ")),
        );
    }
    out.push("setup_s", rep.setup_s);
    out.push("wall_s", rep.wall_s);
    out.push("p50_us", rep.p50_us);
    out.push("peak_rss_mib", exit.peak_rss_kib as f64 / 1024.0);
    for &(name, start, end) in &rep.spans {
        tracer.import(name, span, start, end);
    }
    Ok(Some(rep))
}

/// Set-up alone, [`SETUP_REPS`] times in one child process: with the
/// repetitions' own set-ups, the sample `setup_s` is the median of.
fn child_set_ups(name: &str, env: &Env, seed: u64, out: &mut Outcome) -> std::io::Result<()> {
    let output = Command::new(&env.self_exe)
        .args(["child", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--setups", &SETUP_REPS.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let times = crate::last_json_line(&String::from_utf8_lossy(&output.stdout));
    match times.as_ref().and_then(JsonValue::as_array) {
        Some(times) if output.status.success() => {
            for t in times.iter().filter_map(JsonValue::as_f64) {
                out.push("setup_s", t);
            }
        }
        _ => out.fail(1, format!("set-up child exited with {}", output.status)),
    }
    Ok(())
}

/// An untraced run: repetitions for `seconds`, whole repetitions only.
pub fn measure(name: &str, env: &Env, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    child_set_ups(name, env, seed, &mut out)?;
    let mut tracer = Tracer::new(false, "");
    crate::repeat_for(seconds, |rep| {
        child_rep(name, env, seed, false, &mut tracer, rep, &mut out).map(drop)
    })?;
    Ok(out)
}

/// The workload's machines in one configuration, for the walk and the
/// bare runtime: what to create, and which event wakes machine `k`.
struct Population {
    source: &'static str,
    machine: &'static str,
    machines: usize,
    event: &'static str,
    payload: Value,
    /// Machines an event may be sent to: every machine, or ring heads.
    stride: usize,
}

fn population(kind: Deliver) -> Population {
    match kind {
        Deliver::FanOut | Deliver::OpenLoop => Population {
            source: COUNTER,
            machine: "Counter",
            machines: COUNTERS,
            event: "tick",
            payload: Value::Null,
            stride: 1,
        },
        Deliver::PingRing => Population {
            source: RING,
            machine: "Relay",
            machines: RINGS * RING_LEN,
            event: "go",
            payload: Value::Int(RING_HOPS),
            stride: RING_LEN,
        },
    }
}

/// Nanoseconds per machine run when the same events go through one bare
/// `Runtime::add_event`, with the same population and no executor.
fn bare_add_event_ns(kind: Deliver, seed: u64) -> f64 {
    let p = population(kind);
    let program = p_parser::parse(p.source).expect("parses");
    let runtime = Runtime::builder(&program).expect("checks").start();
    let mut ids: Vec<MachineId> = Vec::with_capacity(p.machines);
    for i in 0..p.machines {
        let mut inits = Vec::new();
        if p.stride > 1 && i % p.stride != 0 {
            inits.push(("next", Value::Machine(ids[i - 1])));
        }
        ids.push(
            runtime
                .create_machine(p.machine, &inits)
                .expect("machine is created"),
        );
    }
    if p.stride > 1 {
        for head in (0..p.machines).step_by(p.stride) {
            let last = Value::Machine(ids[head + p.stride - 1]);
            runtime
                .add_event(ids[head], "wire", last)
                .expect("wire is accepted");
        }
    }
    let targets = p.machines / p.stride;
    let order = Rng::new(seed).permutation(targets);
    let events = BARE_EVENTS
        / if p.stride > 1 {
            RING_HOPS as usize + 1
        } else {
            1
        };
    let before = runtime.runs_executed();
    let since = Instant::now();
    for i in 0..events {
        let target = ids[order[i % targets] * p.stride];
        runtime
            .add_event(target, p.event, p.payload)
            .expect("the event is accepted");
    }
    let elapsed = since.elapsed();
    elapsed.as_nanos() as f64 / (runtime.runs_executed() - before) as f64
}

/// The semantics walk over the workload's program: one ring, or a few
/// counters, woken by the workload's event whenever all are blocked.
fn semantics_walk(kind: Deliver, seed: u64, out: &mut Outcome) {
    let p = population(kind);
    let program = p_parser::parse(p.source).expect("parses");
    let lowered = p_semantics::lower(&program).expect("lowers");
    let engine = Engine::new(&lowered, ForeignEnv::empty()).with_dequeue_log(false);
    let ty = lowered.machine_type_named(p.machine).expect("declared");
    let event = lowered.event_id_named(p.event).expect("declared");
    let next = lowered
        .interner
        .get("next")
        .and_then(|symbol| lowered.machine(ty).var_named(symbol));
    let mut start = Config::default();
    let ids: Vec<MachineId> = (0..RING_LEN)
        .map(|_| start.allocate(&lowered, ty))
        .collect();
    if let Some(next) = next {
        for (i, &id) in ids.iter().enumerate() {
            let to = ids[(i + RING_LEN - 1) % RING_LEN];
            start.machine_mut(id).expect("allocated").locals[next.0 as usize] = Value::Machine(to);
        }
    }
    // Run every machine's entry, as creation does, so that all block.
    for &id in &ids {
        engine
            .run_machine(&mut start, id, &mut || false, Default::default())
            .expect("entry runs");
    }
    let stride = p.stride.min(RING_LEN);
    let t = walk(
        &engine,
        &start,
        &mut Rng::new(seed),
        WALK_STEPS,
        &mut |config, rng| {
            let target = ids[rng.below(RING_LEN / stride) * stride];
            config
                .machine_mut(target)
                .expect("allocated")
                .enqueue(event, p.payload);
        },
    );
    t.record(out);
}

/// A traced run: one repetition without tracing and one with, the bare
/// runtime, and the semantics walk.
pub fn measure_traced(
    name: &str,
    kind: Deliver,
    env: &Env,
    seed: u64,
    tracer: &mut Tracer,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let untraced = child_rep(
        name,
        env,
        seed,
        false,
        &mut Tracer::new(false, ""),
        0,
        &mut out,
    )?;
    let traced = child_rep(name, env, seed, true, tracer, 1, &mut out)?;
    let (Some(untraced), Some(traced)) = (untraced, traced) else {
        return Ok(out);
    };
    for &(name, value) in &traced.layers {
        out.layer(name, value);
    }
    // The rate, and the overhead derived from it, come from the
    // repetition that ran untraced.
    if let Some(&(name, rate)) = untraced
        .layers
        .iter()
        .find(|layer| layer.0 == "runtime.events_per_s")
    {
        out.layer(name, rate);
    }
    out.layer(
        "bench.trace_overhead_share",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s,
    );

    let span = tracer.begin("runtime.bare_add_event", None, 0);
    let add_event_ns = bare_add_event_ns(kind, seed);
    tracer.end(span);
    let span = tracer.begin("semantics.walk", None, 0);
    semantics_walk(kind, seed, &mut out);
    tracer.end(span);
    let run_ns = out.per_layer["semantics.run_ns"];
    out.layer("runtime.add_event_ns", add_event_ns);
    out.layer("runtime.wrap_overhead_ns", add_event_ns - run_ns);
    if kind != Deliver::OpenLoop {
        // One shard's time per machine run at the measured rate, less
        // what the bare runtime needs for it. The open loop runs below
        // saturation, where a rate says nothing about cost.
        let events_per_s = out.per_layer["runtime.events_per_s"];
        out.layer(
            "runtime.exec_overhead_ns",
            SHARDS as f64 / events_per_s * 1e9 - add_event_ns,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_survives_the_pipe() {
        let rep = Rep {
            setup_s: 0.25,
            wall_s: 2.5,
            p50_us: 17.125,
            injected: 1_000_000,
            failed: 2,
            complaints: vec!["sum of `n` is 3, expected 5".to_owned()],
            layers: vec![("runtime.steals", 4.0), ("runtime.drain_s", 0.001)],
            spans: vec![("runtime.start", 0, 120), ("runtime.drain", 500, 900)],
        };
        let text = rep.to_json().render();
        let back = Rep::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(format!("{rep:?}"), format!("{back:?}"));
        assert!(Rep::from_json(&JsonValue::parse("{\"wall_s\":1}").unwrap()).is_none());
    }

    #[test]
    fn the_bare_runtime_makes_one_run_per_tick_and_71_per_go() {
        // `runs_executed` is the divisor of `runtime.add_event_ns`; pin
        // what it counts on the two populations.
        for (kind, runs_per_event) in [(Deliver::FanOut, 1), (Deliver::PingRing, 71)] {
            let p = population(kind);
            let program = p_parser::parse(p.source).unwrap();
            let runtime = Runtime::builder(&program).unwrap().start();
            let mut ids = Vec::new();
            for i in 0..RING_LEN {
                let mut inits = Vec::new();
                if p.stride > 1 && i > 0 {
                    inits.push(("next", Value::Machine(ids[i - 1])));
                }
                ids.push(runtime.create_machine(p.machine, &inits).unwrap());
            }
            if p.stride > 1 {
                let last = Value::Machine(ids[RING_LEN - 1]);
                runtime.add_event(ids[0], "wire", last).unwrap();
            }
            let before = runtime.runs_executed();
            runtime.add_event(ids[0], p.event, p.payload).unwrap();
            assert_eq!(runtime.runs_executed() - before, runs_per_event);
        }
    }
}
