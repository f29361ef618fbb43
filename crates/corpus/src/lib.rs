//! The benchmark corpus: every P program used in the paper's evaluation,
//! reconstructed from the paper's figures and descriptions.
//!
//! * [`ping_pong`] — the quickstart example;
//! * [`elevator`] — Figures 1 and 2 (Elevator + User/Door/Timer ghosts);
//! * [`switch_led`] — the switch-and-LED device driver of §4.1 (one real
//!   driver machine, four ghost machines);
//! * [`german`] — a software implementation of German's cache-coherence
//!   protocol (the third benchmark of Figure 7);
//! * [`usb_hsm`] / [`usb_psm30`] / [`usb_psm20`] / [`usb_dsm`] — scaled
//!   analogs of the four USB 3.0 machines of Figure 8 (hub, 3.0 port,
//!   2.0 port and device state machines);
//! * `*_buggy` variants with seeded concurrency bugs, used for the
//!   "bugs are found within a delay bound of 2" experiment of §5;
//! * [`lossy_link`] — the fault-injection benchmark (this reproduction's
//!   robustness extension): correct under reliable FIFO delivery, broken
//!   when the environment drops or reorders its configuration message.
//! * [`generated_src`] — seed-driven programs of two to four machines,
//!   not from the paper: the differential tests' input beside the
//!   hand-written corpus; [`generated_live_src`] — the same shape with
//!   cycles, for the liveness oracle; [`generated_family_src`] —
//!   seed-driven symmetric families (main and two or three
//!   interchangeable instances of one machine type), for the symmetry
//!   oracle.
//!
//! All programs are stored as textual P source (`programs/*.p`) and
//! parsed on demand; the environment machines take a *budget* parameter
//! bounding how many stimuli they inject, which is the scaling knob for
//! the exploration experiments. The crate holds sources only.
//! `german3/4/5.p` are [`german_family_src`] output, checked in because
//! CI and users read them by path; `CORPUS_REGEN=1 cargo test -p p-corpus`
//! rewrites those three files from the generator and touches nothing
//! else.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use p_ast::Program;

mod generated;

pub use generated::{
    generated_family_program, generated_family_src, generated_live_src, generated_program,
    generated_src,
};

/// Source text of the ping-pong quickstart.
pub const PING_PONG_SRC: &str = include_str!("../programs/ping_pong.p");
/// Source text of the elevator (Figures 1–2).
pub const ELEVATOR_SRC: &str = include_str!("../programs/elevator.p");
/// Source text of the switch-and-LED driver (§4.1).
pub const SWITCH_LED_SRC: &str = include_str!("../programs/switch_led.p");
/// Source text of German's cache-coherence protocol (two clients).
pub const GERMAN_SRC: &str = include_str!("../programs/german.p");
/// Source text of German's protocol with three symmetric clients
/// (generated by [`german_family_src`]).
pub const GERMAN3_SRC: &str = include_str!("../programs/german3.p");
/// Source text of German's protocol with four symmetric clients
/// (generated by [`german_family_src`]).
pub const GERMAN4_SRC: &str = include_str!("../programs/german4.p");
/// Source text of German's protocol with five symmetric clients
/// (generated by [`german_family_src`]).
pub const GERMAN5_SRC: &str = include_str!("../programs/german5.p");
/// Source text of the USB hub state machine analog (Figure 8, HSM).
pub const USB_HSM_SRC: &str = include_str!("../programs/usb_hsm.p");
/// Source text of the USB 3.0 port state machine analog (Figure 8, PSM 3.0).
pub const USB_PSM30_SRC: &str = include_str!("../programs/usb_psm30.p");
/// Source text of the USB 2.0 port state machine analog (Figure 8, PSM 2.0).
pub const USB_PSM20_SRC: &str = include_str!("../programs/usb_psm20.p");
/// Source text of the USB device state machine analog (Figure 8, DSM).
pub const USB_DSM_SRC: &str = include_str!("../programs/usb_dsm.p");
/// Source text of the lossy-link configuration handshake (the
/// fault-injection benchmark: correct under reliable FIFO delivery,
/// broken when the environment drops or reorders the `cfg` message).
pub const LOSSY_LINK_SRC: &str = include_str!("../programs/lossy_link.p");

fn parse(source: &str, what: &str) -> Program {
    match p_parser::parse(source) {
        Ok(p) => p,
        Err(e) => panic!(
            "corpus program {what} failed to parse: {}",
            e.render(source)
        ),
    }
}

/// Replaces the `budget = N` argument of the `main` declaration.
fn with_budget(source: &str, budget: i64) -> String {
    let Some(pos) = source.rfind("budget = ") else {
        return source.to_owned();
    };
    let tail = &source[pos..];
    let end = tail.find(')').expect("main initializer list is closed");
    format!(
        "{}budget = {budget}{}",
        &source[..pos],
        &source[pos + end..]
    )
}

/// The ping-pong quickstart program.
pub fn ping_pong() -> Program {
    parse(PING_PONG_SRC, "ping_pong")
}

/// The elevator of Figures 1–2, with the default user budget.
pub fn elevator() -> Program {
    parse(ELEVATOR_SRC, "elevator")
}

/// The elevator with `budget` user stimuli (the Figure 7 scaling knob).
pub fn elevator_with_budget(budget: i64) -> Program {
    parse(&with_budget(ELEVATOR_SRC, budget), "elevator")
}

/// The elevator with a seeded bug: `Opening` no longer ignores repeated
/// `OpenDoor` presses, so a second press while the door is opening is an
/// unhandled event. Found at small delay bounds (§5).
pub fn elevator_buggy() -> Program {
    let src = ELEVATOR_SRC.replace(
        "        on OpenDoor do Ignore;\n        on DoorOpened goto Opened;\n",
        "        on DoorOpened goto Opened;\n",
    );
    assert_ne!(src, ELEVATOR_SRC, "bug seeding must change the program");
    parse(&src, "elevator_buggy")
}

/// The switch-and-LED driver of §4.1, default stimulus budget.
pub fn switch_led() -> Program {
    parse(SWITCH_LED_SRC, "switch_led")
}

/// The switch-and-LED driver with a seeded bug: the driver forgets to
/// defer `SwitchStateChange` while a LED transfer is in flight, so a
/// switch flip racing the transfer is an unhandled event.
pub fn switch_led_buggy() -> Program {
    let src = SWITCH_LED_SRC.replace("        defer SwitchStateChange; // bug-seed-marker\n", "");
    assert_ne!(src, SWITCH_LED_SRC, "bug seeding must change the program");
    parse(&src, "switch_led_buggy")
}

/// German's cache-coherence protocol with two clients.
pub fn german() -> Program {
    parse(GERMAN_SRC, "german")
}

/// German's protocol with `budget` client requests.
pub fn german_with_budget(budget: i64) -> Program {
    parse(&with_budget(GERMAN_SRC, budget), "german")
}

/// German's protocol with three clients (multi-sharer invalidation).
pub fn german3() -> Program {
    parse(GERMAN3_SRC, "german3")
}

/// German's protocol with four symmetric clients.
pub fn german4() -> Program {
    parse(GERMAN4_SRC, "german4")
}

/// German's protocol with five symmetric clients.
pub fn german5() -> Program {
    parse(GERMAN5_SRC, "german5")
}

/// Default request budget of the checked-in `german3.p`.
pub const GERMAN3_BUDGET: i64 = 2;
/// Default request budget of the checked-in `german4.p`.
pub const GERMAN4_BUDGET: i64 = 2;
/// Default request budget of the checked-in `german5.p`.
pub const GERMAN5_BUDGET: i64 = 2;

/// Generates the `clients`-client *symmetric* German protocol: one Home
/// directory, `clients` interchangeable Client caches, and a ghost Env
/// injecting up to `budget` coherence requests into
/// nondeterministically chosen clients.
///
/// The checked-in `german3.p`/`german4.p`/`german5.p` are this
/// generator's output at 3/4/5 clients (kept in sync by a corpus test;
/// `CORPUS_REGEN=1 cargo test -p p-corpus` rewrites those three `.p`
/// files, and only those, after an edit to the generator).
///
/// Unlike the two-client [`german`], client identities are not pinned
/// forever: the Env nulls its client handles once its budget is spent,
/// and the Home nulls every stale id (freed sharer slots, the cleared
/// exclusive owner, the granted requester). Every configuration of the
/// resolution phase is therefore invariant under relabeling of the
/// clients up to its live content, which is exactly the orbit
/// structure the checker's `--symmetry` canonical fingerprint
/// collapses.
pub fn german_family_src(clients: usize, budget: i64) -> String {
    use std::fmt::Write;
    assert!(clients >= 2, "the protocol needs at least two clients");
    let k = clients;
    let mut s = String::new();
    writeln!(
        s,
        "// German's cache coherence protocol with {k} SYMMETRIC clients.
// GENERATED by corpus::german_family_src({k}, {budget}) -- edit the
// generator, not this file, then regenerate with CORPUS_REGEN=1.
//
// A Home (directory) machine serializes coherence requests from {k}
// interchangeable Client caches. A ghost Env injects a bounded number
// of DoShared/DoExcl commands into nondeterministically chosen
// clients. Shared grants may coexist; an exclusive grant requires
// invalidating every sharer and the previous owner first. The
// coherence invariant is checked by assertions in the Home machine.
//
// The protocol machines are deliberately symmetric: once its budget
// is spent the Env scrubs its client handles, and the Home nulls
// every stale id (freed sharer slots, the cleared owner, the granted
// requester) -- so in the whole resolution phase no variable pins a
// client to its creation order, and the checker's --symmetry
// reduction can merge id-permuted configurations.

// environment -> client
event DoShared;
event DoExcl;
// client -> home (payload: the requesting client)
event ReqShared : id;
event ReqExcl : id;
// home -> client
event GrantShared;
event GrantExcl;
event Invalidate;
// client -> home (payload: the acknowledging client)
event InvalidateAck : id;
// local events
event unit;
event waitAck;
event grantNow;

machine Home {{"
    )
    .unwrap();
    for i in 1..=k {
        writeln!(s, "    var s{i} : id;").unwrap();
    }
    for i in 1..=k {
        writeln!(s, "    var s{i}v : bool;").unwrap();
    }
    s.push_str(
        r#"    var sharers : int;
    var exclHeld : bool;
    var exclOwner : id;
    var reqClient : id;
    var pendingInv : int;

    action handleAck {
"#,
    );
    for i in 1..=k {
        writeln!(
            s,
            r#"        if (s{i}v) {{
            if (arg == s{i}) {{
                s{i}v := false;
                s{i} := null;
                sharers := sharers - 1;
            }}
        }}"#
        )
        .unwrap();
    }
    s.push_str(
        r#"        if (exclHeld) {
            if (arg == exclOwner) {
                exclHeld := false;
                exclOwner := null;
            }
        }
        pendingInv := pendingInv - 1;
        if (pendingInv == 0) {
            raise(grantNow);
        }
    }

    state HomeIdle {
        entry {
            assert(!(exclHeld && (sharers > 0)));
            assert(sharers >= 0);
        }
        on ReqShared goto CheckShared;
        on ReqExcl goto CheckExcl;
    }

    state CheckShared {
        defer ReqShared, ReqExcl;
        postpone ReqShared, ReqExcl;
        entry {
            reqClient := arg;
            if (exclHeld) { // bug-seed-marker
                send(exclOwner, Invalidate);
                pendingInv := 1;
                raise(waitAck);
            } else {
                raise(grantNow);
            }
        }
        on waitAck goto WaitAckShared;
        on grantNow goto DoGrantShared;
    }

    state WaitAckShared {
        defer ReqShared, ReqExcl;
        postpone ReqShared, ReqExcl;
        on InvalidateAck do handleAck;
        on grantNow goto DoGrantShared;
    }

    state DoGrantShared {
        entry {
"#,
    );
    grant_cascade(1, k, 12, &mut s);
    s.push_str(
        r#"            sharers := sharers + 1;
            send(reqClient, GrantShared);
            reqClient := null;
            raise(unit);
        }
        on unit goto HomeIdle;
    }

    state CheckExcl {
        defer ReqShared, ReqExcl;
        postpone ReqShared, ReqExcl;
        entry {
            reqClient := arg;
            pendingInv := 0;
            if (exclHeld) {
                send(exclOwner, Invalidate);
                pendingInv := pendingInv + 1;
            }
"#,
    );
    for i in 1..=k {
        writeln!(
            s,
            r#"            if (s{i}v) {{
                send(s{i}, Invalidate);
                pendingInv := pendingInv + 1;
            }}"#
        )
        .unwrap();
    }
    s.push_str(
        r#"            if (pendingInv == 0) {
                raise(grantNow);
            } else {
                raise(waitAck);
            }
        }
        on grantNow goto DoGrantExcl;
        on waitAck goto WaitAckExcl;
    }

    state WaitAckExcl {
        defer ReqShared, ReqExcl;
        postpone ReqShared, ReqExcl;
        on InvalidateAck do handleAck;
        on grantNow goto DoGrantExcl;
    }

    state DoGrantExcl {
        entry {
            assert(sharers == 0);
            assert(!exclHeld);
            exclOwner := reqClient;
            exclHeld := true;
            send(reqClient, GrantExcl);
            reqClient := null;
            raise(unit);
        }
        on unit goto HomeIdle;
    }
}

machine Client {
    var home : id;

    action ackInv {
        send(home, InvalidateAck, this);
    }

    action ignoreCmd { skip; }

    state Invalid {
        on DoShared goto AskingShared;
        on DoExcl goto AskingExcl;
    }

    state AskingShared {
        defer DoShared, DoExcl;
        postpone DoShared, DoExcl;
        entry { send(home, ReqShared, this); }
        on GrantShared goto SharedState;
    }

    state SharedState {
        on Invalidate goto AckAndInvalid;
        on DoExcl goto AskingExcl;
        on DoShared do ignoreCmd;
    }

    state AskingExcl {
        defer DoShared, DoExcl;
        postpone DoShared, DoExcl;
        entry { send(home, ReqExcl, this); }
        on Invalidate do ackInv;
        on GrantExcl goto ExclusiveState;
    }

    state ExclusiveState {
        on Invalidate goto AckAndInvalid;
        on DoShared do ignoreCmd;
        on DoExcl do ignoreCmd;
    }

    state AckAndInvalid {
        entry {
            send(home, InvalidateAck, this);
            raise(unit);
        }
        on unit goto Invalid;
    }
}

ghost machine Env {
    var h : id;
"#,
    );
    for i in 1..=k {
        writeln!(s, "    var c{i} : id;").unwrap();
    }
    s.push_str(
        r#"    var budget : int;

    state Init {
        entry {
"#,
    );
    let inits: Vec<String> = (1..=k).map(|i| format!("s{i}v = false")).collect();
    writeln!(
        s,
        "            h := new Home({},\n                          sharers = 0, exclHeld = false, pendingInv = 0);",
        inits.join(", ")
    )
    .unwrap();
    for i in 1..=k {
        writeln!(s, "            c{i} := new Client(home = h);").unwrap();
    }
    s.push_str(
        r#"            raise(unit);
        }
        on unit goto Loop;
    }

    state Loop {
        entry {
            if (budget > 0) {
                budget := budget - 1;
"#,
    );
    command_cascade(1, k, 16, &mut s);
    s.push_str(
        r#"                raise(unit);
            } else {
"#,
    );
    for i in 1..=k {
        writeln!(s, "                c{i} := null;").unwrap();
    }
    writeln!(
        s,
        "            }}
        }}
        on unit goto Loop;
    }}
}}

main Env(budget = {budget});"
    )
    .unwrap();
    s
}

/// Emits the nondeterministic command-injection cascade of the Env's
/// `Loop` state: pick a client (`c{{i}}` or recurse), then pick
/// DoShared vs DoExcl for it.
fn command_cascade(i: usize, k: usize, indent: usize, out: &mut String) {
    use std::fmt::Write;
    let pad = " ".repeat(indent);
    let command = |out: &mut String, pad: &str| {
        writeln!(
            out,
            "{pad}if (*) {{\n{pad}    send(c{i}, DoShared);\n{pad}}} else {{\n{pad}    send(c{i}, DoExcl);\n{pad}}}"
        )
        .unwrap();
    };
    if i == k {
        command(out, &pad);
    } else {
        writeln!(out, "{pad}if (*) {{").unwrap();
        command(out, &format!("{pad}    "));
        writeln!(out, "{pad}}} else {{").unwrap();
        command_cascade(i + 1, k, indent + 4, out);
        writeln!(out, "{pad}}}").unwrap();
    }
}

/// Emits the first-free-sharer-slot assignment cascade of
/// `DoGrantShared`: slot `i` if free, else recurse; the last slot is
/// taken unconditionally (a grant is only reachable with a free slot).
fn grant_cascade(i: usize, k: usize, indent: usize, out: &mut String) {
    use std::fmt::Write;
    let pad = " ".repeat(indent);
    if i == k {
        writeln!(out, "{pad}s{i} := reqClient;\n{pad}s{i}v := true;").unwrap();
    } else {
        writeln!(out, "{pad}if (s{i}v) {{").unwrap();
        grant_cascade(i + 1, k, indent + 4, out);
        writeln!(out, "{pad}}} else {{").unwrap();
        writeln!(out, "{pad}    s{i} := reqClient;\n{pad}    s{i}v := true;").unwrap();
        writeln!(out, "{pad}}}").unwrap();
    }
}

/// German's protocol with a seeded bug: the home node grants shared
/// access without first invalidating the exclusive owner, so exclusive
/// ownership and sharers coexist — caught by the coherence assertion.
pub fn german_buggy() -> Program {
    let src = GERMAN_SRC.replace("if (exclHeld) { // bug-seed-marker", "if (false) {");
    assert_ne!(src, GERMAN_SRC, "bug seeding must change the program");
    parse(&src, "german_buggy")
}

/// The USB hub state machine analog (Figure 8, HSM).
pub fn usb_hsm() -> Program {
    parse(USB_HSM_SRC, "usb_hsm")
}

/// The USB 3.0 port state machine analog (Figure 8, PSM 3.0).
pub fn usb_psm30() -> Program {
    parse(USB_PSM30_SRC, "usb_psm30")
}

/// The USB 2.0 port state machine analog (Figure 8, PSM 2.0).
pub fn usb_psm20() -> Program {
    parse(USB_PSM20_SRC, "usb_psm20")
}

/// The USB device state machine analog (Figure 8, DSM).
pub fn usb_dsm() -> Program {
    parse(USB_DSM_SRC, "usb_dsm")
}

/// The lossy-link handshake: correct under reliable FIFO delivery,
/// drop/reorder-sensitive under fault injection.
pub fn lossy_link() -> Program {
    parse(LOSSY_LINK_SRC, "lossy_link")
}

/// Every corpus program with its name (buggy variants excluded).
pub fn all() -> Vec<(&'static str, Program)> {
    vec![
        ("ping_pong", ping_pong()),
        ("elevator", elevator()),
        ("switch_led", switch_led()),
        ("german", german()),
        ("german3", german3()),
        ("german4", german4()),
        ("german5", german5()),
        ("usb_hsm", usb_hsm()),
        ("usb_psm30", usb_psm30()),
        ("usb_psm20", usb_psm20()),
        ("usb_dsm", usb_dsm()),
        ("lossy_link", lossy_link()),
    ]
}

/// The three Figure 7 benchmarks with their buggy variants:
/// `(name, correct, buggy)`.
pub fn figure7_benchmarks() -> Vec<(&'static str, Program, Program)> {
    vec![
        ("elevator", elevator(), elevator_buggy()),
        ("switch_led", switch_led(), switch_led_buggy()),
        ("german", german(), german_buggy()),
    ]
}

/// The four Figure 8 machines: `(name, program)`.
pub fn figure8_machines() -> Vec<(&'static str, Program)> {
    vec![
        ("HSM", usb_hsm()),
        ("PSM 3.0", usb_psm30()),
        ("PSM 2.0", usb_psm20()),
        ("DSM", usb_dsm()),
    ]
}

#[cfg(test)]
mod tests;
