//! A machine run in steady state allocates nothing. A test binary of its
//! own: it counts through a `#[global_allocator]`, which every test in the
//! process would share. The counter is per thread, so the harness's own
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use p_core::semantics::{lower, Config, Engine, ExecOutcome, ForeignEnv};
use p_core::{MachineId, Runtime, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a thread-local `Cell` with a
// const initializer and no destructor, so touching it neither allocates
// nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as `dealloc`, and the caller's obligations on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returned, and the allocations and reallocations this thread
/// made while it ran.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The `RING` program of `benchmark/src/deliver.rs`.
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
const RING_LEN: usize = 8;
const HOPS: i64 = 63;

#[test]
fn a_thousand_laps_through_a_bare_runtime_allocate_nothing() {
    let program = p_core::parser::parse(RING).unwrap();
    let runtime = Runtime::builder(&program).unwrap().start();
    let mut ids: Vec<MachineId> = Vec::new();
    for i in 0..RING_LEN {
        let mut inits = vec![("hits", Value::Int(0))];
        if i > 0 {
            inits.push(("next", Value::Machine(ids[i - 1])));
        }
        ids.push(runtime.create_machine("Relay", &inits).unwrap());
    }
    let last = Value::Machine(ids[RING_LEN - 1]);
    runtime.add_event(ids[0], "wire", last).unwrap();
    let lap = || runtime.add_event(ids[0], "go", Value::Int(HOPS)).unwrap();
    // Warm-up: queues, continuations and the work stack reach the
    // capacity they keep.
    for _ in 0..10 {
        lap();
    }
    let (_, counted) = allocations_in(|| std::hint::black_box(Vec::<u8>::with_capacity(16)));
    assert_eq!(counted, 1, "the allocator counts");
    let runs_before = runtime.runs_executed();
    let ((), allocations) = allocations_in(|| {
        for _ in 0..1_000 {
            lap();
        }
    });
    assert_eq!(runtime.runs_executed() - runs_before, 71_000);
    assert_eq!(allocations, 0);
    let hits: i64 = ids
        .iter()
        .map(|&id| match runtime.read_var(id, "hits") {
            Some(Value::Int(hits)) => hits,
            other => panic!("hits is {other:?}"),
        })
        .sum();
    assert_eq!(hits, 1_010 * (HOPS + 1));
}

#[test]
fn run_machine_without_the_dequeue_log_allocates_nothing() {
    let program = lower(&p_core::parser::parse(RING).unwrap()).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty()).with_dequeue_log(false);
    let relay = program.machine_type_named("Relay").unwrap();
    let go = program.event_id_named("go").unwrap();
    let next = program
        .machine(relay)
        .var_named(program.interner.get("next").unwrap())
        .unwrap();
    let mut config = Config::default();
    let ids: Vec<MachineId> = (0..RING_LEN)
        .map(|_| config.allocate(&program, relay))
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let to = ids[(i + RING_LEN - 1) % RING_LEN];
        let m = config.machine_mut(id).unwrap();
        m.locals[next.0 as usize] = Value::Machine(to);
        m.locals[1 - next.0 as usize] = Value::Int(0);
    }
    // One lap: the causal order of `Runtime::drain` — the receiver runs,
    // then the sender resumes — over the checker's `Config`. Returns the
    // runs made and the allocations inside `run_machine`.
    let mut work: Vec<MachineId> = Vec::with_capacity(2 * RING_LEN);
    let mut lap = |config: &mut Config| {
        let (mut runs, mut allocations) = (0u64, 0u64);
        config
            .machine_mut(ids[0])
            .unwrap()
            .enqueue(go, Value::Int(HOPS));
        work.push(ids[0]);
        while let Some(id) = work.pop() {
            if !engine.enabled(config, id) {
                continue;
            }
            let (run, allocated) = allocations_in(|| {
                engine.run_machine(config, id, &mut || false, Default::default())
            });
            allocations += allocated;
            runs += 1;
            match run.unwrap().outcome {
                ExecOutcome::Yield(p_core::semantics::YieldKind::Sent { to, .. }) => {
                    work.push(id);
                    work.push(to);
                }
                ExecOutcome::Blocked => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        (runs, allocations)
    };
    for _ in 0..10 {
        lap(&mut config);
    }
    let (mut runs, mut allocations) = (0, 0);
    for _ in 0..100 {
        let (r, a) = lap(&mut config);
        runs += r;
        allocations += a;
    }
    assert_eq!(runs, 100 * 71);
    assert_eq!(allocations, 0);
}
