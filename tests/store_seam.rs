//! The store seam is differential: the interpreter runs over two
//! `MachineStore`s — the checker's `Config` (copy-on-write slots, through
//! `Engine::run_machine`) and the runtime's owned `MachineState`s (through
//! `Runtime`) — and one script of creates and events, scheduled by the
//! same causal work stack on both sides, must leave every machine in the
//! same state after every delivery. This is the first step of "every
//! runtime execution is a path the checker explores".

use p_core::semantics::{
    Config, Engine, ExecOutcome, ForeignEnv, Granularity, MachineId, YieldKind,
};
use p_core::{corpus, Program, Runtime, Value};

/// The reference side: `Runtime`'s delivery discipline (enqueue, then
/// run the causal work stack to quiescence; a machine that took an error
/// transition never runs again) over a `Config`.
struct Reference<'p> {
    engine: Engine<'p>,
    config: Config,
    work: Vec<MachineId>,
    halted: Vec<MachineId>,
}

impl Reference<'_> {
    fn drain(&mut self) {
        while let Some(id) = self.work.pop() {
            if !self.engine.enabled(&self.config, id) || self.halted.contains(&id) {
                continue;
            }
            let run = self
                .engine
                .run_machine(&mut self.config, id, &mut || false, Granularity::Atomic)
                .expect("the machine is live");
            match run.outcome {
                ExecOutcome::Yield(YieldKind::Sent { to, .. }) => self.work.extend([id, to]),
                ExecOutcome::Yield(YieldKind::Created { id: new, .. }) => {
                    self.work.extend([id, new]);
                }
                ExecOutcome::Yield(YieldKind::Internal) => self.work.push(id),
                ExecOutcome::Blocked | ExecOutcome::Deleted => {}
                ExecOutcome::Error(_) => self.halted.push(id),
                ExecOutcome::NeedChoice => unreachable!("erased programs are deterministic"),
            }
        }
    }
}

/// Both sides of one script.
struct Pair<'p> {
    runtime: &'p Runtime,
    reference: Reference<'p>,
    steps: usize,
}

impl<'p> Pair<'p> {
    fn new(runtime: &'p Runtime) -> Pair<'p> {
        Pair {
            runtime,
            reference: Reference {
                engine: Engine::new(runtime.program(), ForeignEnv::empty()),
                config: Config::default(),
                work: Vec::new(),
                halted: Vec::new(),
            },
            steps: 0,
        }
    }

    fn create(&mut self, ty: &str, inits: &[(&str, Value)]) -> MachineId {
        let program = self.runtime.program();
        let type_id = program.machine_type_named(ty).expect("declared machine");
        let id = self.reference.config.allocate(program, type_id);
        let machine = self.reference.config.machine_mut(id).expect("allocated");
        for (name, value) in inits {
            let symbol = program.interner.get(name).expect("known name");
            let var = program.machine(type_id).var_named(symbol).expect("its var");
            machine.locals[var.0 as usize] = *value;
        }
        self.reference.work.push(id);
        self.reference.drain();
        // Errors are outcomes here, compared through the states.
        let created = self.runtime.create_machine(ty, inits);
        if let Ok(created) = created {
            assert_eq!(created, id, "ids are handed out densely on both sides");
        }
        self.compare(&format!("create {ty}"));
        id
    }

    fn event(&mut self, id: MachineId, event: &str, payload: Value) {
        let event_id = self.runtime.program().event_id_named(event).expect("event");
        let halted = self.reference.halted.contains(&id);
        if let (Some(machine), false) = (self.reference.config.machine_mut(id), halted) {
            machine.enqueue(event_id, payload);
            self.reference.work.push(id);
            self.reference.drain();
        }
        let _ = self.runtime.add_event(id, event, payload);
        self.compare(&format!("{event} to {id}"));
    }

    /// Every machine ever created compares `==`, tombstones included.
    fn compare(&mut self, after: &str) {
        self.steps += 1;
        let config = &self.reference.config;
        for i in 0..config.created_count() as u32 {
            let id = MachineId(i);
            assert_eq!(
                self.runtime.machine_state(id).as_ref(),
                config.machine(id),
                "machine {id} after step {} ({after})",
                self.steps
            );
        }
        assert!(!self
            .runtime
            .is_alive(MachineId(config.created_count() as u32)));
    }
}

fn differential(program: &Program, script: impl FnOnce(&mut Pair<'_>)) {
    let runtime = Runtime::builder(program).unwrap().start();
    let mut pair = Pair::new(&runtime);
    script(&mut pair);
    assert!(pair.steps > 1, "the script ran");
}

#[test]
fn german_script_agrees() {
    differential(&corpus::german(), |p| {
        let home = p.create(
            "Home",
            &[
                ("s1v", Value::Bool(false)),
                ("s2v", Value::Bool(false)),
                ("sharers", Value::Int(0)),
                ("exclHeld", Value::Bool(false)),
                ("pendingInv", Value::Int(0)),
            ],
        );
        let c1 = p.create("Client", &[("home", Value::Machine(home))]);
        let c2 = p.create("Client", &[("home", Value::Machine(home))]);
        for (client, event) in [
            (c1, "DoShared"),
            (c2, "DoShared"),
            (c1, "DoExcl"),
            (c2, "DoShared"),
            (c2, "DoExcl"),
            (c1, "DoShared"),
        ] {
            p.event(client, event, Value::Null);
        }
    });
}

#[test]
fn usb_device_script_agrees() {
    differential(&corpus::usb_dsm(), |p| {
        let dev = p.create("DeviceSm", &[]);
        for (event, payload) in [
            ("Attach", Value::Null),
            ("PowerOn", Value::Null),
            ("BusReset", Value::Null),
            ("SetAddress", Value::Int(5)),
            ("GetDescriptor", Value::Null),
            ("SetConfiguration", Value::Int(1)),
            ("DataRequest", Value::Null),
            ("Suspend", Value::Null),
            ("Resume", Value::Null),
            ("BusReset", Value::Null),
            ("Detach", Value::Null),
        ] {
            p.event(dev, event, payload);
        }
    });
}

#[test]
fn elevator_scripts_agree() {
    // Both elevator scripts of `runtime_drive.rs`: the door cycle, and
    // the call transition into the `StoppingTimer` subroutine and back.
    for script in [
        &[
            "OpenDoor",
            "DoorOpened",
            "TimerFired",
            "TimerFired",
            "DoorClosed",
        ][..],
        &["OpenDoor", "DoorOpened", "OpenDoor", "TimerStopped"][..],
    ] {
        differential(&corpus::elevator(), |p| {
            let lift = p.create("Elevator", &[]);
            for event in script {
                p.event(lift, event, Value::Null);
            }
        });
    }
}

#[test]
fn switch_led_script_agrees() {
    differential(&corpus::switch_led(), |p| {
        let drv = p.create("Driver", &[]);
        for (event, payload) in [
            ("DevicePowerUp", Value::Null),
            ("SwitchStateChange", Value::Int(1)),
            ("IoctlSetLed", Value::Int(1)),
            ("TransferFailed", Value::Null),
            ("TransferComplete", Value::Null),
            ("IoctlSetLed", Value::Int(0)),
            ("TransferFailed", Value::Null),
            ("TransferFailed", Value::Null),
            ("DevicePowerDown", Value::Null),
            ("SwitchDisarmed", Value::Null),
        ] {
            p.event(drv, event, payload);
        }
    });
}

/// The benchmark's ring (`deliver_ping_ring`): relays wired through
/// id-typed variables, one `go` cascading through in-program sends.
#[test]
fn benchmark_ring_agrees() {
    let source = r#"
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
    differential(&p_core::parser::parse(source).unwrap(), |p| {
        let mut ids: Vec<MachineId> = Vec::new();
        for i in 0..8 {
            let mut inits = vec![("hits", Value::Int(0))];
            if i > 0 {
                inits.push(("next", Value::Machine(ids[i - 1])));
            }
            ids.push(p.create("Relay", &inits));
        }
        p.event(ids[0], "wire", Value::Machine(ids[7]));
        p.event(ids[0], "go", Value::Int(63));
        p.event(ids[3], "go", Value::Int(5));
    });
}

/// `new`, `delete`, a self-send, `raise`, a call transition and
/// `return`, a send to a deleted machine (an error transition), and a
/// delivery to the machine it halted.
#[test]
fn create_delete_raise_and_call_agree() {
    let source = r#"
        event spawn;
        event work : int;
        event again;
        event local;
        event stop;
        event done;
        event poke;
        machine Parent {
            var child : id;
            var rounds : int;
            var acks : int;
            state Idle {
                on spawn do make;
                on work do pass;
                on done do count;
                on again goto Busy;
                on poke do prod;
            }
            state Busy {
                entry { rounds := rounds + 1; raise(local); }
                on local goto Idle;
            }
            action make { child := new Child(owner = this, left = 2); }
            action pass { send(child, work, arg); send(this, again); }
            state Tally { entry { acks := acks + 1; return; } }
            action count { call Tally; }
            action prod { send(child, stop); }
        }
        machine Child {
            var owner : id;
            var left : int;
            var sum : int;
            state Serve {
                on work push Crunch;
                on stop goto Gone;
            }
            state Crunch {
                entry {
                    sum := sum + arg;
                    left := left - 1;
                    send(owner, done);
                    return;
                }
            }
            state Gone { entry { delete; } }
        }
        main Parent();
    "#;
    differential(&p_core::parser::parse(source).unwrap(), |p| {
        let parent = p.create(
            "Parent",
            &[("rounds", Value::Int(0)), ("acks", Value::Int(0))],
        );
        p.event(parent, "spawn", Value::Null);
        p.event(parent, "work", Value::Int(4));
        p.event(parent, "work", Value::Int(6));
        assert_eq!(p.runtime.read_var(parent, "acks"), Some(Value::Int(2)));
        assert_eq!(p.runtime.read_var(parent, "rounds"), Some(Value::Int(2)));
        // The child deletes itself; the next send to it is an error
        // transition of the parent, after which both sides refuse it.
        p.event(parent, "poke", Value::Null);
        assert!(!p.runtime.is_alive(MachineId(parent.0 + 1)));
        p.event(parent, "poke", Value::Null);
        p.event(parent, "work", Value::Int(1));
    });
}
