//! C code generation — the compilation half of §4 of the paper.
//!
//! The paper's compiler emits "a collection of indexed and
//! statically-allocated data structures that are examined by the runtime":
//! event names become a C enumeration, machine types / variables / states
//! become enumerations, each state carries tables of outgoing transitions,
//! deferred events and installed actions plus entry/exit function
//! pointers, and a top-level driver structure indexes everything. Entry,
//! exit and action bodies are generated as C functions.
//!
//! [`generate_c`] reproduces that layout: it checks the program, erases
//! its ghost parts (ghost machines never reach generated code, §3.3),
//! lowers it to the dense table form, and prints one self-contained `.c`
//! translation unit containing the runtime ABI declarations, the tables
//! and the function bodies. The output is structured, compilable C; it
//! links against a `p_runtime.h` ABI whose declarations are included in
//! the prelude.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dot;
mod emit;

pub use dot::{machine_to_dot, program_to_dot};
pub use emit::{generate_c, generate_c_from_lowered, COutput, CodegenError, CodegenStats};

#[cfg(test)]
mod tests {
    use super::*;

    const ELEVATOR: &str = r#"
        event unit;
        event OpenDoor;
        event CloseDoor : int;

        machine Elevator {
            var floor : int;
            ghost var env : id;
            action Ignore { skip; }
            state Init {
                entry { floor := 0; raise(unit); }
                on unit goto Closed;
            }
            state Closed {
                defer CloseDoor;
                exit { floor := floor + 1; }
                on OpenDoor goto Opening;
                on unit push Init;
            }
            state Opening {
                on OpenDoor do Ignore;
            }
        }

        ghost machine Env {
            var e : id;
            state S { entry { e := new Elevator(); send(e, OpenDoor); } }
        }

        main Env();
    "#;

    fn output() -> COutput {
        let program = p_parser::parse(ELEVATOR).unwrap();
        generate_c(&program).unwrap()
    }

    #[test]
    fn emits_event_and_machine_enums() {
        let out = output();
        assert!(out.code.contains("typedef enum PEventId"));
        assert!(out.code.contains("P_EVENT_unit = 0"));
        assert!(out.code.contains("P_EVENT_OpenDoor = 1"));
        assert!(out.code.contains("P_EVENT_COUNT = 3"));
        assert!(out.code.contains("P_MACHINE_Elevator = 0"));
    }

    #[test]
    fn ghost_machines_are_not_generated() {
        let out = output();
        assert!(!out.code.contains("P_MACHINE_Env"));
        assert!(!out.code.contains("env"), "ghost var must be erased");
        assert_eq!(out.stats.machines, 1);
    }

    #[test]
    fn emits_state_tables() {
        let out = output();
        // Transition table entries: event, target state, kind.
        assert!(out
            .code
            .contains("{ P_EVENT_unit, P_STATE_Elevator_Closed, P_TRANS_STEP }"));
        assert!(out
            .code
            .contains("{ P_EVENT_unit, P_STATE_Elevator_Init, P_TRANS_CALL }"));
        // Deferred set of Closed.
        assert!(out.code.contains("Elevator_Closed_deferred"));
        assert!(out.code.contains("P_EVENT_CloseDoor"));
        // Action binding table.
        assert!(out
            .code
            .contains("{ P_EVENT_OpenDoor, P_ACTION_Elevator_Ignore }"));
    }

    #[test]
    fn emits_entry_exit_and_action_functions() {
        let out = output();
        assert!(out
            .code
            .contains("static void Elevator_Init_entry(StateMachineContext *ctx)"));
        assert!(out
            .code
            .contains("static void Elevator_Closed_exit(StateMachineContext *ctx)"));
        assert!(out
            .code
            .contains("static void Elevator_action_Ignore(StateMachineContext *ctx)"));
        // Statement translation.
        assert!(out
            .code
            .contains("p_assign(ctx, ELEVATOR_VAR_floor, p_int(0));"));
        assert!(out.code.contains("p_raise(ctx, P_EVENT_unit, p_null());"));
        assert!(
            out.code.contains("return;"),
            "raise must terminate the function"
        );
    }

    #[test]
    fn emits_driver_struct() {
        let out = output();
        assert!(out.code.contains("const PDriverDecl p_driver"));
        assert!(out.code.contains("Elevator_states"));
        assert_eq!(out.stats.events, 3);
        assert_eq!(out.stats.states, 3);
        assert!(out.stats.lines > 50);
    }

    #[test]
    fn braces_are_balanced() {
        let out = output();
        let opens = out.code.matches('{').count();
        let closes = out.code.matches('}').count();
        assert_eq!(opens, closes);
        let parens_open = out.code.matches('(').count();
        let parens_close = out.code.matches(')').count();
        assert_eq!(parens_open, parens_close);
    }

    #[test]
    fn unerased_ghosts_are_rejected_not_emitted() {
        // Lowering WITHOUT erasure keeps the ghost Env machine; the C
        // emitter must refuse it (it used to silently emit ghosts).
        let program = p_parser::parse(ELEVATOR).unwrap();
        let lowered = p_semantics::lower(&program).unwrap();
        let err = generate_c_from_lowered(&lowered).unwrap_err();
        assert!(matches!(err, CodegenError::Ghost { ref machine } if machine == "Env"));
        assert!(err.to_string().contains("ghost machine `Env`"));
    }

    #[test]
    fn rejects_invalid_programs() {
        let bad = p_parser::parse(
            "machine M { var x : int; state S { entry { x := true; } } } main M();",
        )
        .unwrap();
        assert!(generate_c(&bad).is_err());
    }

    #[test]
    fn control_flow_statements_translate() {
        let src = r#"
            event e : int;
            machine M {
                var x : int;
                var peer : id;
                foreign fn f(int) : int;
                state S {
                    entry {
                        while (x < 10) { x := x + 1; }
                        if (x == 10) { send(peer, e, x); } else { leave; }
                        x := f(x);
                        call T;
                        return;
                    }
                }
                state T { entry { delete; } }
            }
            main M();
        "#;
        let program = p_parser::parse(src).unwrap();
        let out = generate_c(&program).unwrap();
        assert!(out.code.contains("while (p_truthy(ctx,"));
        assert!(out.code.contains("if (p_truthy(ctx,"));
        assert!(out.code.contains("p_send(ctx,"));
        assert!(out.code.contains("p_call_state(ctx, P_STATE_M_T)"));
        assert!(out.code.contains("p_return(ctx); return;"));
        assert!(out.code.contains("p_delete(ctx); return;"));
        assert!(out.code.contains("p_foreign_M_f"));
        assert!(out.code.contains("extern PValue p_foreign_M_f"));
    }

    #[test]
    fn assert_translates_with_source_text() {
        let src = r#"
            machine M {
                var x : int;
                state S { entry { x := 1; assert(x == 1); } }
            }
            main M();
        "#;
        let program = p_parser::parse(src).unwrap();
        let out = generate_c(&program).unwrap();
        assert!(out.code.contains("p_assert(ctx,"));
    }
}
