//! Parser for the textual P language.
//!
//! The paper presents P as "a textual language with a simple core calculus"
//! (Figure 3). This crate implements a concrete syntax for that calculus,
//! including the sugar used throughout the paper: per-state deferred and
//! postponed sets, entry/exit blocks, `on e goto n` step transitions,
//! `on e push n` call transitions, `on e do a` action bindings, ghost
//! machines/variables, foreign functions, and the `call n` statement.
//!
//! # Grammar
//!
//! ```text
//! program     := (event | machine)* main
//! event       := "event" IDENT (":" type)? ";"
//! machine     := "ghost"? "machine" IDENT "{" item* "}"
//! item        := ("ghost")? "var" IDENT ":" type ("," IDENT ":" type)* ";"
//!              | "action" IDENT block
//!              | "state" IDENT "{" stateItem* "}"
//!              | "foreign" "fn" IDENT "(" (param ("," param)*)? ")"
//!                (":" type)? (";" | block)     -- block = erasable model body
//! param       := IDENT ":" type | type
//! stateItem   := "defer" IDENT ("," IDENT)* ";"
//!              | "postpone" IDENT ("," IDENT)* ";"
//!              | "entry" block | "exit" block
//!              | "on" IDENT ("goto" | "push") IDENT ";"
//!              | "on" IDENT "do" IDENT ";"
//! main        := "main" IDENT "(" inits? ")" ";"
//! inits       := IDENT "=" expr ("," IDENT "=" expr)*
//! block       := "{" stmt* "}"
//! stmt        := "skip" ";" | "delete" ";" | "leave" ";" | "return" ";"
//!              | IDENT ":=" "new" IDENT "(" inits? ")" ";"
//!              | IDENT ":=" expr ";"
//!              | IDENT "(" (expr ("," expr)*)? ")" ";"
//!              | "send" "(" expr "," IDENT ("," expr)? ")" ";"
//!              | "raise" "(" IDENT ("," expr)? ")" ";"
//!              | "assert" "(" expr ")" ";"
//!              | "if" "(" expr ")" block ("else" (block | if-stmt))?
//!              | "while" "(" expr ")" block
//!              | "call" IDENT ";"
//!              | block
//! expr        := precedence-climbing over
//!                "||" < "&&" < "=="/"!=" < "<"/"<="/">"/">=" < "+"/"-"
//!                < "*"/"/", unary "!" and "-",
//!                primaries: this msg arg null true false INT "*" IDENT
//!                IDENT "(" args ")" "(" expr ")"
//! ```
//!
//! Line comments `// ...` and block comments `/* ... */` are skipped.
//!
//! # Examples
//!
//! ```
//! let src = r#"
//!     event ping;
//!     event pong;
//!     machine Main {
//!         state Init {
//!             entry { raise(ping); }
//!             on ping goto Done;
//!         }
//!         state Done { }
//!     }
//!     main Main();
//! "#;
//! let program = p_parser::parse(src).unwrap();
//! assert_eq!(program.machines.len(), 1);
//! assert_eq!(program.events.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod lexer;
mod parser;

pub use error::ParseError;
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse;

#[cfg(test)]
mod fuzz {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use p_ast::Draws;

    const CASES: u64 = 128;

    /// Parses `input`; a panic fails the test naming the seed.
    fn parse_or_name(seed: u64, input: &str) {
        let parsed = catch_unwind(AssertUnwindSafe(|| crate::parse(input)));
        assert!(
            parsed.is_ok(),
            "seed {seed}: the parser panicked on {input:?}"
        );
    }

    /// The front end is total: arbitrary input produces `Ok` or a
    /// positioned error, never a panic.
    #[test]
    fn parser_never_panics() {
        for seed in 0..CASES {
            let d = &mut Draws::new(seed);
            let input: String = (0..d.below(201))
                .map(|_| char::from(b' ' + d.below(95) as u8))
                .collect();
            parse_or_name(seed, &input);
        }
    }

    /// Arbitrary ASCII keyword soup also parses or errors cleanly.
    #[test]
    fn keyword_soup_never_panics() {
        const WORDS: [&str; 18] = [
            "machine", "state", "event", "on", "goto", "push", "entry", "{", "}", "(", ")", ";",
            ":=", "x", "M", "main", "*", "defer",
        ];
        for seed in 0..CASES {
            let d = &mut Draws::new(seed);
            let words: Vec<&str> = (0..d.below(40))
                .map(|_| WORDS[d.below(WORDS.len())])
                .collect();
            parse_or_name(seed, &words.join(" "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_ast::{print_program, ExprKind, StmtKind, TransitionKind, Ty};

    const ELEVATOR_FRAGMENT: &str = r#"
        event OpenDoor;
        event CloseDoor;
        event DoorOpened;
        event SendCmdToOpen;
        event unit;

        machine Elevator {
            ghost var Door : id;
            action Ignore { skip; }
            state Init {
                entry {
                    Door := new DoorM(owner = this);
                    raise(unit);
                }
                on unit goto Closed;
            }
            state Closed {
                defer CloseDoor;
                on OpenDoor goto Opening;
            }
            state Opening {
                defer CloseDoor;
                entry { send(Door, SendCmdToOpen); }
                on OpenDoor do Ignore;
                on DoorOpened goto Opened;
            }
            state Opened { }
        }

        ghost machine DoorM {
            var owner : id;
            state Idle {
                entry {
                    if (*) { send(owner, DoorOpened); }
                }
                on SendCmdToOpen goto Idle;
            }
        }

        main Elevator();
    "#;

    #[test]
    fn parses_elevator_fragment() {
        let p = parse(ELEVATOR_FRAGMENT).unwrap();
        assert_eq!(p.events.len(), 5);
        assert_eq!(p.machines.len(), 2);
        let elevator = p.machine_named("Elevator").unwrap();
        assert!(!elevator.ghost);
        assert_eq!(elevator.states.len(), 4);
        assert_eq!(elevator.transitions.len(), 3);
        assert_eq!(elevator.bindings.len(), 1);
        assert!(elevator.vars[0].ghost);
        let door = p.machine_named("DoorM").unwrap();
        assert!(door.ghost);
        assert_eq!(p.name(p.main.machine), "Elevator");
    }

    #[test]
    fn transition_kinds_distinguished() {
        let src = r#"
            event e;
            machine M {
                state A { on e goto B; }
                state B { on e push A; }
            }
            main M();
        "#;
        let p = parse(src).unwrap();
        let m = p.machine_named("M").unwrap();
        assert_eq!(m.transitions[0].kind, TransitionKind::Step);
        assert_eq!(m.transitions[1].kind, TransitionKind::Call);
    }

    #[test]
    fn parses_all_statement_forms() {
        let src = r#"
            event e : int;
            machine M {
                var x : int;
                var target : id;
                foreign fn compute(int, int) : int;
                state S {
                    entry {
                        skip;
                        x := 1 + 2 * 3;
                        target := new M();
                        send(target, e, x);
                        raise(e, 0);
                        assert(x == 7);
                        if (x < 10) { x := x + 1; } else { x := 0; }
                        while (x > 0) { x := x - 1; }
                        call S;
                        x := compute(x, 2);
                        compute(1, 2);
                        leave;
                    }
                    exit { return; }
                }
            }
            main M(x = 5);
        "#;
        let p = parse(src).unwrap();
        let m = p.machine_named("M").unwrap();
        let entry = &m.states[0].entry;
        let stmts = entry.flatten();
        assert_eq!(stmts.len(), 12);
        assert!(matches!(stmts[0].kind, StmtKind::Skip));
        assert!(matches!(stmts[2].kind, StmtKind::New { .. }));
        assert!(matches!(
            stmts[10].kind,
            StmtKind::ForeignCall { dst: None, .. }
        ));
        assert!(matches!(
            stmts[9].kind,
            StmtKind::ForeignCall { dst: Some(_), .. }
        ));
        assert_eq!(p.main.inits.len(), 1);
        assert_eq!(m.foreign[0].param_types(), vec![Ty::Int, Ty::Int]);
    }

    #[test]
    fn nondet_star_in_expression_position() {
        let src = r#"
            event e;
            ghost machine G {
                var x : bool;
                state S {
                    entry { x := * && true; if (*) { raise(e); } }
                    on e goto S;
                }
            }
            main G();
        "#;
        let p = parse(src).unwrap();
        let g = p.machine_named("G").unwrap();
        let stmts = g.states[0].entry.flatten();
        match &stmts[0].kind {
            StmtKind::Assign { value, .. } => assert!(value.contains_nondet()),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn star_is_multiplication_in_binary_position() {
        let src = r#"
            machine M {
                var x : int;
                state S { entry { x := 2 * 3; } }
            }
            main M();
        "#;
        let p = parse(src).unwrap();
        let m = p.machine_named("M").unwrap();
        let stmts = m.states[0].entry.flatten();
        match &stmts[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Binary(op, _, _) => assert_eq!(*op, p_ast::BinOp::Mul),
                other => panic!("expected binary, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn precedence_parses_correctly() {
        let src = r#"
            machine M {
                var b : bool;
                state S { entry { b := 1 + 2 * 3 == 7 && true; } }
            }
            main M();
        "#;
        let p = parse(src).unwrap();
        let m = p.machine_named("M").unwrap();
        let stmts = m.states[0].entry.flatten();
        let text = match &stmts[0].kind {
            StmtKind::Assign { value, .. } => p_ast::print_expr(value, &p.interner),
            other => panic!("expected assign, got {other:?}"),
        };
        assert_eq!(text, "1 + 2 * 3 == 7 && true");
    }

    #[test]
    fn error_on_missing_main() {
        let err = parse("event e; machine M { state S { } }").unwrap_err();
        assert!(err.message().contains("main"));
    }

    #[test]
    fn error_on_reserved_word_as_name() {
        let err = parse("event machine;").unwrap_err();
        assert!(err.message().contains("reserved"));
    }

    #[test]
    fn error_reports_position() {
        let src = "event a;\nevent ;";
        let err = parse(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.starts_with("2:"), "got {rendered}");
    }

    #[test]
    fn print_parse_print_is_identity_on_elevator() {
        let p1 = parse(ELEVATOR_FRAGMENT).unwrap();
        let text1 = print_program(&p1);
        let p2 = parse(&text1).unwrap();
        let text2 = print_program(&p2);
        assert_eq!(text1, text2);
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            machine M {
                var x : int;
                state S {
                    entry {
                        if (x == 1) { x := 10; }
                        else if (x == 2) { x := 20; }
                        else { x := 30; }
                    }
                }
            }
            main M();
        "#;
        let p = parse(src).unwrap();
        let text1 = print_program(&p);
        let p2 = parse(&text1).unwrap();
        assert_eq!(text1, print_program(&p2));
    }

    #[test]
    fn comments_are_ignored() {
        let src = r#"
            // a line comment
            event e; /* block */ machine M { state S { } } main M();
        "#;
        assert!(parse(src).is_ok());
    }

    #[test]
    fn multi_var_declaration() {
        let src = r#"
            machine M {
                var x : int, y : bool;
                state S { }
            }
            main M();
        "#;
        let p = parse(src).unwrap();
        let m = p.machine_named("M").unwrap();
        assert_eq!(m.vars.len(), 2);
        assert_eq!(m.vars[0].ty, Ty::Int);
        assert_eq!(m.vars[1].ty, Ty::Bool);
    }

    #[test]
    fn foreign_fn_with_model_body() {
        let src = r#"
            machine M {
                foreign fn f(int) : bool { skip; }
                state S { }
            }
            main M();
        "#;
        let p = parse(src).unwrap();
        let m = p.machine_named("M").unwrap();
        assert!(m.foreign[0].model_body.is_some());
    }

    #[test]
    fn negative_via_unary_minus() {
        let src = r#"
            machine M {
                var x : int;
                state S { entry { x := -5 + 1; } }
            }
            main M();
        "#;
        let p = parse(src).unwrap();
        let m = p.machine_named("M").unwrap();
        let stmts = m.states[0].entry.flatten();
        match &stmts[0].kind {
            StmtKind::Assign { value, .. } => {
                assert!(matches!(
                    value.kind,
                    ExprKind::Binary(p_ast::BinOp::Add, _, _)
                ));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    const TWO_MACHINES: &str = r#"
        event go;
        event data : int;
        machine Real {
            state Init { on go goto Next; }
            state Next { }
        }
        ghost machine Env {
            state Idle { }
        }
        main Real();
    "#;

    #[test]
    fn lookups_by_name() {
        let p = parse(TWO_MACHINES).unwrap();
        assert!(p.machine_named("Real").is_some());
        assert!(p.machine_named("Env").unwrap().ghost);
        assert!(p.machine_named("Missing").is_none());
        let data = p.interner.get("data").unwrap();
        assert_eq!(p.event(data).unwrap().payload, Ty::Int);
    }

    #[test]
    fn real_and_ghost_partition() {
        let p = parse(TWO_MACHINES).unwrap();
        assert_eq!(p.real_machines().count(), 1);
        assert_eq!(p.ghost_machines().count(), 1);
        assert_eq!(p.machines.len(), 2);
    }

    #[test]
    fn counts_match_figure8_definition() {
        let p = parse(TWO_MACHINES).unwrap();
        assert_eq!(p.total_states(), 3);
        assert_eq!(p.total_transitions(), 1);
    }

    #[test]
    fn init_state_is_first() {
        let p = parse(TWO_MACHINES).unwrap();
        let m = p.machine_named("Real").unwrap();
        assert_eq!(p.name(m.init_state().unwrap().name), "Init");
    }
}
