//! Behavioral tests for the execution engine: one test per operational
//! rule or rule interaction of Figures 4–6.

use p_ast::{BinOp, Expr, ProgramBuilder, Stmt, Ty};

use crate::{
    lower, Config, Engine, ErrorKind, ExecOutcome, ForeignEnv, ForeignRegistry, Granularity,
    MachineId, Script, Value, YieldKind,
};

fn no_choices() -> impl FnMut() -> bool {
    || panic!("unexpected nondeterministic choice in a real machine")
}

/// Runs machine 0 until it blocks, panicking on errors. Returns the config.
fn run_main_to_block(engine: &Engine<'_>) -> Config {
    let mut config = engine.initial_config();
    let id = MachineId(0);
    let mut choices = no_choices();
    loop {
        let r = engine
            .run_machine(&mut config, id, &mut choices, Granularity::Atomic)
            .unwrap();
        match r.outcome {
            ExecOutcome::Blocked => return config,
            ExecOutcome::Yield(_) => continue,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

fn state_name(engine: &Engine<'_>, config: &Config, id: MachineId) -> String {
    let m = config.machine(id).unwrap();
    engine
        .program()
        .state_name(m.ty, m.current_state())
        .to_owned()
}

#[test]
fn entry_statement_runs_and_machine_blocks() {
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.var("x", Ty::Int);
    let x = m.sym("x");
    m.state("Init").entry(Stmt::assign(x, Expr::int(41)));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(41)
    );
}

#[test]
fn raise_takes_step_transition_and_runs_exit_entry() {
    let mut b = ProgramBuilder::new();
    b.event("go");
    let mut m = b.machine("M");
    m.var("trace", Ty::Int);
    let trace = m.sym("trace");
    let go = m.sym("go");
    // trace records the order: entry A (+1), exit A (*10 then +2), entry B (*10+3)
    let bump = |mul: i64, add: i64| {
        Stmt::assign(
            trace,
            Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, Expr::name(trace), Expr::int(mul)),
                Expr::int(add),
            ),
        )
    };
    m.state("A")
        .entry(Stmt::block(vec![
            Stmt::assign(trace, Expr::int(1)),
            Stmt::raise(go),
        ]))
        .exit(bump(10, 2));
    m.state("B").entry(bump(10, 3));
    m.step("A", "go", "B");
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    // 1 → exit: 12 → entry B: 123.
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(123)
    );
    assert_eq!(state_name(&engine, &config, MachineId(0)), "B");
}

#[test]
fn raise_discards_rest_of_statement() {
    let mut b = ProgramBuilder::new();
    b.event("go");
    let mut m = b.machine("M");
    m.var("x", Ty::Int);
    let x = m.sym("x");
    let go = m.sym("go");
    m.state("A").entry(Stmt::block(vec![
        Stmt::raise(go),
        Stmt::assign(x, Expr::int(99)), // must never run
    ]));
    m.state("B");
    m.step("A", "go", "B");
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    assert_eq!(config.machine(MachineId(0)).unwrap().locals[0], Value::Null);
}

#[test]
fn unhandled_event_error_on_empty_stack() {
    let mut b = ProgramBuilder::new();
    b.event("boom");
    let mut m = b.machine("M");
    let boom = m.sym("boom");
    m.state("A").entry(Stmt::raise(boom));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let r = engine
        .run_machine(
            &mut config,
            MachineId(0),
            &mut no_choices(),
            Granularity::Atomic,
        )
        .unwrap();
    match r.outcome {
        ExecOutcome::Error(e) => {
            assert!(matches!(e.kind, ErrorKind::UnhandledEvent { .. }));
        }
        other => panic!("expected unhandled-event error, got {other:?}"),
    }
}

#[test]
fn call_transition_pushes_and_return_pops() {
    let mut b = ProgramBuilder::new();
    b.event("enterSub");
    b.event("done");
    let mut m = b.machine("M");
    m.var("x", Ty::Int);
    let x = m.sym("x");
    let enter = m.sym("enterSub");
    m.state("Main").entry(Stmt::raise(enter));
    m.state("Sub").entry(Stmt::block(vec![
        Stmt::assign(x, Expr::int(7)),
        Stmt::ret(),
    ]));
    m.call("Main", "enterSub", "Sub");
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    let machine = config.machine(MachineId(0)).unwrap();
    assert_eq!(machine.locals[0], Value::Int(7));
    // After return we are back in Main with a single frame.
    assert_eq!(machine.stack.len(), 1);
    assert_eq!(state_name(&engine, &config, MachineId(0)), "Main");
}

#[test]
fn callee_inherits_deferred_and_actions_from_caller() {
    // Caller defers `d` and binds `a` to an action; callee handles
    // neither, so both must be inherited: `d` stays deferred, `a` runs the
    // caller's action without leaving the callee state.
    let mut b = ProgramBuilder::new();
    b.event("enterSub");
    b.event("d");
    b.event("a");
    let mut m = b.machine("M");
    m.var("hits", Ty::Int);
    let hits = m.sym("hits");
    let enter = m.sym("enterSub");
    m.action(
        "count",
        Stmt::assign(
            hits,
            Expr::binary(BinOp::Add, Expr::name(hits), Expr::int(1)),
        ),
    );
    m.state("Main").defer(&["d"]).entry(Stmt::block(vec![
        Stmt::assign(hits, Expr::int(0)),
        Stmt::raise(enter),
    ]));
    m.bind("Main", "a", "count");
    m.state("Sub");
    m.call("Main", "enterSub", "Sub");
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = run_main_to_block(&engine);
    let d = program.event_id_named("d").unwrap();
    let a = program.event_id_named("a").unwrap();
    {
        let machine = config.machine_mut(MachineId(0)).unwrap();
        assert_eq!(machine.stack.len(), 2, "must be inside Sub");
        machine.enqueue(d, Value::Null);
        machine.enqueue(a, Value::Null);
    }
    // Run again: `d` is inherited-deferred and skipped; `a` runs the
    // inherited action.
    let mut choices = no_choices();
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Blocked);
    let machine = config.machine(MachineId(0)).unwrap();
    assert_eq!(
        machine.locals[0],
        Value::Int(1),
        "inherited action ran once"
    );
    assert_eq!(machine.stack.len(), 2, "action does not pop the callee");
    assert_eq!(machine.queue.len(), 1, "deferred event still queued");
}

#[test]
fn transition_in_callee_overrides_inherited_deferral() {
    // The DEQUEUE rule: d' = (d ∪ Deferred(m,n)) - t. An event deferred by
    // the caller but with a transition in the callee is dequeuable.
    let mut b = ProgramBuilder::new();
    b.event("enterSub");
    b.event("d");
    let mut m = b.machine("M");
    let enter = m.sym("enterSub");
    m.state("Main").defer(&["d"]).entry(Stmt::raise(enter));
    m.state("Sub");
    m.state("Handled");
    m.call("Main", "enterSub", "Sub");
    m.step("Sub", "d", "Handled");
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = run_main_to_block(&engine);
    let d = program.event_id_named("d").unwrap();
    config
        .machine_mut(MachineId(0))
        .unwrap()
        .enqueue(d, Value::Null);
    let mut choices = no_choices();
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Blocked);
    assert_eq!(state_name(&engine, &config, MachineId(0)), "Handled");
}

#[test]
fn pop_redispatches_unhandled_event_in_caller() {
    // Callee does not handle `u`; caller has a step for it. POP1 then STEP.
    let mut b = ProgramBuilder::new();
    b.event("enterSub");
    b.event("u");
    let mut m = b.machine("M");
    let enter = m.sym("enterSub");
    m.state("Main").entry(Stmt::raise(enter));
    m.state("Sub");
    m.state("After");
    m.call("Main", "enterSub", "Sub");
    m.step("Main", "u", "After");
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = run_main_to_block(&engine);
    let u = program.event_id_named("u").unwrap();
    config
        .machine_mut(MachineId(0))
        .unwrap()
        .enqueue(u, Value::Null);
    let mut choices = no_choices();
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Blocked);
    let machine = config.machine(MachineId(0)).unwrap();
    assert_eq!(machine.stack.len(), 1, "callee frame popped");
    assert_eq!(state_name(&engine, &config, MachineId(0)), "After");
}

#[test]
fn send_yields_and_enqueues_with_dedup() {
    let mut b = ProgramBuilder::new();
    b.event("ping");
    let mut m = b.machine("Sender");
    m.var("peer", Ty::Id);
    let peer = m.sym("peer");
    let ping = m.sym("ping");
    let receiver = m.sym("Receiver");
    m.state("Init").entry(Stmt::block(vec![
        Stmt::new_machine(peer, receiver, vec![]),
        Stmt::send(Expr::name(peer), ping),
        Stmt::send(Expr::name(peer), ping), // duplicate: ⊕ drops it
    ]));
    m.finish();
    let mut r = b.machine("Receiver");
    r.state("Idle").defer(&["ping"]);
    r.finish();
    let program = lower(&b.finish("Sender")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let mut choices = no_choices();

    let r1 = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    assert!(matches!(
        r1.outcome,
        ExecOutcome::Yield(YieldKind::Created { .. })
    ));
    let r2 = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    assert!(matches!(
        r2.outcome,
        ExecOutcome::Yield(YieldKind::Sent { enqueued: true, .. })
    ));
    let r3 = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    assert!(matches!(
        r3.outcome,
        ExecOutcome::Yield(YieldKind::Sent {
            enqueued: false,
            ..
        })
    ));
    assert_eq!(config.machine(MachineId(1)).unwrap().queue.len(), 1);
}

#[test]
fn send_to_null_is_an_error() {
    let mut b = ProgramBuilder::new();
    b.event("ping");
    let mut m = b.machine("M");
    m.var("peer", Ty::Id);
    let peer = m.sym("peer");
    let ping = m.sym("ping");
    m.state("Init").entry(Stmt::send(Expr::name(peer), ping));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let r = engine
        .run_machine(
            &mut config,
            MachineId(0),
            &mut no_choices(),
            Granularity::Atomic,
        )
        .unwrap();
    match r.outcome {
        ExecOutcome::Error(e) => assert_eq!(e.kind, ErrorKind::SendToUndefined),
        other => panic!("expected send-to-undefined, got {other:?}"),
    }
}

#[test]
fn send_to_deleted_machine_is_an_error() {
    let mut b = ProgramBuilder::new();
    b.event("ping");
    let mut victim = b.machine("Victim");
    victim.state("Init").entry(Stmt::delete());
    victim.finish();
    let mut m = b.machine("Main");
    m.var("peer", Ty::Id);
    let peer = m.sym("peer");
    let ping = m.sym("ping");
    let victim_sym = m.sym("Victim");
    m.state("Init").entry(Stmt::block(vec![
        Stmt::new_machine(peer, victim_sym, vec![]),
        Stmt::send(Expr::name(peer), ping),
    ]));
    m.finish();
    let program = lower(&b.finish("Main")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let mut choices = no_choices();
    // Main creates Victim.
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    assert!(matches!(
        r.outcome,
        ExecOutcome::Yield(YieldKind::Created { .. })
    ));
    // Victim deletes itself.
    let r = engine
        .run_machine(&mut config, MachineId(1), &mut choices, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Deleted);
    // Main's send now fails.
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    match r.outcome {
        ExecOutcome::Error(e) => assert_eq!(
            e.kind,
            ErrorKind::SendToDeleted {
                target: MachineId(1)
            }
        ),
        other => panic!("expected send-to-deleted, got {other:?}"),
    }
}

#[test]
fn assert_failure_and_undefined() {
    for (expr, kind) in [
        (Expr::bool(false), ErrorKind::AssertionFailure),
        (Expr::null(), ErrorKind::AssertionUndefined),
        (Expr::int(1), ErrorKind::AssertionUndefined),
    ] {
        let mut b = ProgramBuilder::new();
        let mut m = b.machine("M");
        m.state("Init").entry(Stmt::assert(expr.clone()));
        m.finish();
        let program = lower(&b.finish("M")).unwrap();
        let engine = Engine::new(&program, ForeignEnv::empty());
        let mut config = engine.initial_config();
        let r = engine
            .run_machine(
                &mut config,
                MachineId(0),
                &mut no_choices(),
                Granularity::Atomic,
            )
            .unwrap();
        match r.outcome {
            ExecOutcome::Error(e) => assert_eq!(e.kind, kind),
            other => panic!("expected {kind:?}, got {other:?}"),
        }
    }
}

#[test]
fn call_statement_saves_and_resumes_continuation() {
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.var("x", Ty::Int);
    let x = m.sym("x");
    let sub = m.sym("Sub");
    m.state("Main").entry(Stmt::block(vec![
        Stmt::assign(x, Expr::int(1)),
        Stmt::call_state(sub),
        // Must resume here after Sub returns:
        Stmt::assign(x, Expr::binary(BinOp::Add, Expr::name(x), Expr::int(100))),
    ]));
    m.state("Sub").entry(Stmt::block(vec![
        Stmt::assign(x, Expr::binary(BinOp::Mul, Expr::name(x), Expr::int(10))),
        Stmt::ret(),
    ]));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    // 1 → ×10 = 10 → +100 = 110.
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(110)
    );
    assert_eq!(config.machine(MachineId(0)).unwrap().stack.len(), 1);
}

#[test]
fn leave_jumps_to_event_loop() {
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.var("x", Ty::Int);
    let x = m.sym("x");
    m.state("Init").entry(Stmt::block(vec![
        Stmt::assign(x, Expr::int(1)),
        Stmt::leave(),
        Stmt::assign(x, Expr::int(2)), // unreachable
    ]));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(1)
    );
}

#[test]
fn return_from_bottom_frame_underflows() {
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.state("Init").entry(Stmt::ret());
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let r = engine
        .run_machine(
            &mut config,
            MachineId(0),
            &mut no_choices(),
            Granularity::Atomic,
        )
        .unwrap();
    match r.outcome {
        ExecOutcome::Error(e) => assert_eq!(e.kind, ErrorKind::StackUnderflow),
        other => panic!("expected stack underflow, got {other:?}"),
    }
}

#[test]
fn infinite_private_loop_exhausts_fuel() {
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.state("Init")
        .entry(Stmt::while_loop(Expr::bool(true), Stmt::skip()));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty()).with_fuel(1000);
    let mut config = engine.initial_config();
    let r = engine
        .run_machine(
            &mut config,
            MachineId(0),
            &mut no_choices(),
            Granularity::Atomic,
        )
        .unwrap();
    match r.outcome {
        ExecOutcome::Error(e) => assert_eq!(e.kind, ErrorKind::FuelExhausted),
        other => panic!("expected fuel exhaustion, got {other:?}"),
    }
}

#[test]
fn nondet_consumes_script_and_requests_more() {
    let mut b = ProgramBuilder::new();
    let mut g = b.ghost_machine("G");
    g.var("x", Ty::Int);
    let x = g.sym("x");
    g.state("Init").entry(Stmt::if_else(
        Expr::nondet(),
        Stmt::assign(x, Expr::int(1)),
        Stmt::assign(x, Expr::int(2)),
    ));
    g.finish();
    let program = lower(&b.finish("G")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());

    // Empty script: the engine must ask for a choice.
    let mut config = engine.initial_config();
    let mut script = Script::new(&[]);
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut script, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::NeedChoice);

    // Script [true] → branch 1.
    let mut config = engine.initial_config();
    let mut script = Script::new(&[true]);
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut script, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Blocked);
    assert_eq!(r.choices_used, 1);
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(1)
    );

    // Script [false] → branch 2.
    let mut config = engine.initial_config();
    let mut script = Script::new(&[false]);
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut script, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Blocked);
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(2)
    );
}

#[test]
fn foreign_function_called_with_values() {
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.var("x", Ty::Int);
    let x = m.sym("x");
    let f = m.foreign_fn("triple", vec![Ty::Int], Ty::Int);
    m.state("Init")
        .entry(Stmt::foreign_into(x, f, vec![Expr::int(14)]));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let mut reg = ForeignRegistry::new();
    reg.register("triple", |args| match args[0] {
        Value::Int(i) => Value::Int(i * 3),
        _ => Value::Null,
    });
    let env = reg.resolve(&program);
    let engine = Engine::new(&program, env);
    let config = run_main_to_block(&engine);
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(42)
    );
}

#[test]
fn msg_and_arg_visible_to_handler() {
    let mut b = ProgramBuilder::new();
    b.event_with("data", Ty::Int);
    let mut m = b.machine("M");
    m.var("got", Ty::Int);
    let got = m.sym("got");
    m.state("Wait");
    m.state("Got").entry(Stmt::assign(got, Expr::arg()));
    m.step("Wait", "data", "Got");
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let data = program.event_id_named("data").unwrap();
    config
        .machine_mut(MachineId(0))
        .unwrap()
        .enqueue(data, Value::Int(55));
    let mut choices = no_choices();
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Blocked);
    let machine = config.machine(MachineId(0)).unwrap();
    assert_eq!(machine.locals[0], Value::Int(55));
    assert_eq!(machine.msg, Value::Event(data));
}

#[test]
fn fine_granularity_yields_every_step() {
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.var("x", Ty::Int);
    let x = m.sym("x");
    m.state("Init").entry(Stmt::block(vec![
        Stmt::assign(x, Expr::int(1)),
        Stmt::assign(x, Expr::int(2)),
    ]));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let mut choices = no_choices();
    let mut yields = 0;
    loop {
        let r = engine
            .run_machine(&mut config, MachineId(0), &mut choices, Granularity::Fine)
            .unwrap();
        match r.outcome {
            ExecOutcome::Yield(YieldKind::Internal) => {
                assert_eq!(r.steps, 1);
                yields += 1;
            }
            ExecOutcome::Blocked => break,
            other => panic!("unexpected {other:?}"),
        }
        assert!(yields < 100, "too many yields");
    }
    assert!(yields >= 3, "expected several fine-grained yields");
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(2)
    );
}

#[test]
fn deleted_machine_is_not_enabled() {
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.state("Init").entry(Stmt::delete());
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    assert_eq!(engine.enabled_machines(&config), vec![MachineId(0)]);
    let r = engine
        .run_machine(
            &mut config,
            MachineId(0),
            &mut no_choices(),
            Granularity::Atomic,
        )
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Deleted);
    assert!(engine.enabled_machines(&config).is_empty());
}

#[test]
fn canonical_bytes_stable_across_identical_runs() {
    let mut b = ProgramBuilder::new();
    b.event("tick");
    let mut m = b.machine("M");
    m.var("x", Ty::Int);
    let x = m.sym("x");
    m.state("Init").entry(Stmt::assign(x, Expr::int(5)));
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let c1 = run_main_to_block(&engine);
    let c2 = run_main_to_block(&engine);
    assert_eq!(c1.canonical_bytes(), c2.canonical_bytes());
}

#[test]
fn model_body_interpreted_when_no_native_impl() {
    // `foreign fn clamp(a : int) : int { result := a; if (a > 5) { result := 5; } }`
    let src = r#"
        machine M {
            var x : int;
            foreign fn clamp(a : int) : int {
                result := a;
                if (a > 5) { result := 5; }
            }
            state S { entry { x := clamp(9); } }
        }
        main M();
    "#;
    let parsed = p_parser::parse(src).unwrap();
    let program = lower(&parsed).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(5)
    );
}

#[test]
fn native_impl_overrides_model_body() {
    let src = r#"
        machine M {
            var x : int;
            foreign fn f(a : int) : int { result := 0; }
            state S { entry { x := f(3); } }
        }
        main M();
    "#;
    let parsed = p_parser::parse(src).unwrap();
    let program = lower(&parsed).unwrap();
    let mut reg = ForeignRegistry::new();
    reg.register("f", |args| match args[0] {
        Value::Int(i) => Value::Int(i * 100),
        _ => Value::Null,
    });
    let env = reg.resolve(&program);
    let engine = Engine::new(&program, env);
    let config = run_main_to_block(&engine);
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(300)
    );
}

#[test]
fn model_body_reads_machine_ghost_vars() {
    let src = r#"
        machine M {
            var x : int;
            ghost var g : int;
            foreign fn sense() : int { result := g + 1; }
            state S { entry { g := 41; x := sense(); } }
        }
        main M();
    "#;
    let parsed = p_parser::parse(src).unwrap();
    let program = lower(&parsed).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    // locals: x at 0, g at 1.
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(42)
    );
}

#[test]
fn model_body_nondet_requests_choices() {
    let src = r#"
        ghost machine G {
            var x : int;
            foreign fn flaky() : int {
                result := 0;
                if (*) { result := 1; }
            }
            state S { entry { x := flaky(); } }
        }
        main G();
    "#;
    let parsed = p_parser::parse(src).unwrap();
    let program = lower(&parsed).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());

    let mut config = engine.initial_config();
    let mut empty = Script::new(&[]);
    let r = engine
        .run_machine(&mut config, MachineId(0), &mut empty, Granularity::Atomic)
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::NeedChoice);

    for (bit, expected) in [(false, 0i64), (true, 1i64)] {
        let mut config = engine.initial_config();
        let script = [bit];
        let mut s = Script::new(&script);
        let r = engine
            .run_machine(&mut config, MachineId(0), &mut s, Granularity::Atomic)
            .unwrap();
        assert_eq!(r.outcome, ExecOutcome::Blocked);
        assert_eq!(
            config.machine(MachineId(0)).unwrap().locals[0],
            Value::Int(expected)
        );
    }
}

#[test]
fn model_body_while_loop_computes() {
    let src = r#"
        machine M {
            var x : int;
            foreign fn sum_to(n : int) : int {
                result := 0;
                while (n > 0) {
                    result := result + n;
                    n := n - 1;
                }
            }
            state S { entry { x := sum_to(4); } }
        }
        main M();
    "#;
    // `n` is a parameter — assignment to it inside the model is rejected
    // by the checker, so this variant writes through a shadow... instead
    // use result-only arithmetic:
    let src = src.replace(
        "result := 0;\n                while (n > 0) {\n                    result := result + n;\n                    n := n - 1;\n                }",
        "result := n * (n + 1) / 2;",
    );
    let parsed = p_parser::parse(&src).unwrap();
    let program = lower(&parsed).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let config = run_main_to_block(&engine);
    assert_eq!(
        config.machine(MachineId(0)).unwrap().locals[0],
        Value::Int(10)
    );
}

#[test]
fn model_body_runs_on_the_engines_fuel() {
    let src = r#"
        machine M {
            var x : int;
            foreign fn spin() : int { while (true) { skip; } }
            foreign fn count() : int {
                result := 0;
                while (result < 20000) { result := result + 1; }
            }
            state S { entry { x := count(); x := spin(); } }
        }
        main M();
    "#;
    let program = lower(&p_parser::parse(src).unwrap()).unwrap();
    let run = |engine: Engine<'_>| {
        let mut config = engine.initial_config();
        let r = engine
            .run_machine(
                &mut config,
                MachineId(0),
                &mut no_choices(),
                Granularity::Atomic,
            )
            .unwrap();
        let x = config.machine(MachineId(0)).unwrap().locals[0];
        (r.outcome, r.steps, x)
    };
    let exhausted = ExecOutcome::Error(crate::PError::new(ErrorKind::FuelExhausted, MachineId(0)));
    // 50 steps do not finish `count`, let alone `spin`; the machine's own
    // steps (block, two calls) are nowhere near 50.
    let (outcome, steps, x) = run(Engine::new(&program, ForeignEnv::empty()).with_fuel(50));
    assert_eq!(outcome, exhausted);
    assert!(steps < 10, "{steps}");
    assert_eq!(x, Value::Null);
    // The default budget is 100 000 per model call: `count` (60 001
    // steps) completes, `spin` is cut off.
    let (outcome, _, x) = run(Engine::new(&program, ForeignEnv::empty()));
    assert_eq!(outcome, exhausted);
    assert_eq!(x, Value::Int(20000));
}

#[test]
fn dead_machine_step_is_a_typed_error_not_a_panic() {
    // Asking the engine to run a machine that was never allocated (or
    // was deleted) must surface as `ExecError::DeadMachine`, not abort
    // the process: the checker propagates it as a `CheckerError`.
    let mut b = ProgramBuilder::new();
    let mut m = b.machine("M");
    m.state("S").entry(Stmt::skip());
    m.finish();
    let program = lower(&b.finish("M")).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let dead = MachineId(99);
    let err = engine
        .run_machine(&mut config, dead, &mut no_choices(), Granularity::Atomic)
        .unwrap_err();
    assert_eq!(err, crate::ExecError::DeadMachine { machine: dead });
    assert!(err.to_string().contains("dead machine"), "{err}");
    // The configuration is untouched: the live machine still runs fine.
    let r = engine
        .run_machine(
            &mut config,
            MachineId(0),
            &mut no_choices(),
            Granularity::Atomic,
        )
        .unwrap();
    assert_eq!(r.outcome, ExecOutcome::Blocked);
}
