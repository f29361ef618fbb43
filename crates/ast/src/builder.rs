//! Programmatic construction of P programs.
//!
//! The builder is the second front end next to the parser: the benchmark
//! corpus and many tests construct machines directly, which keeps them
//! independent of the concrete syntax.
//!
//! # Examples
//!
//! A two-machine ping-pong program:
//!
//! ```
//! use p_ast::{Expr, ProgramBuilder, Stmt, Ty};
//!
//! let mut b = ProgramBuilder::new();
//! b.event("ping");
//! b.event("pong");
//!
//! let mut client = b.machine("Client");
//! client.var("server", Ty::Id);
//! let ping = client.sym("ping");
//! let server_var = client.sym("server");
//! client
//!     .state("Send")
//!     .entry(Stmt::send(Expr::name(server_var), ping));
//! client.state("Wait");
//! client.step("Send", "pong", "Send");
//! client.finish();
//!
//! let mut server = b.machine("Server");
//! server.state("Idle");
//! server.finish();
//!
//! let program = b.finish("Client");
//! assert_eq!(program.machines.len(), 2);
//! ```

use crate::{
    ActionBinding, ActionDecl, EventDecl, ForeignFnDecl, ForeignParam, Initializer, Interner,
    MachineDecl, MainDecl, Program, Span, StateDecl, Stmt, Symbol, TransitionDecl, TransitionKind,
    Ty, VarDecl,
};

/// Incrementally builds a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    interner: Interner,
    events: Vec<EventDecl>,
    machines: Vec<MachineDecl>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Interns a name for use in expressions and statements.
    pub fn sym(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// The interner accumulated so far (useful for printing fragments
    /// before the program is finished).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Declares an event with no payload.
    pub fn event(&mut self, name: &str) -> Symbol {
        self.event_with(name, Ty::Void)
    }

    /// Declares an event carrying a payload of type `ty`.
    pub fn event_with(&mut self, name: &str, ty: Ty) -> Symbol {
        let sym = self.interner.intern(name);
        self.events.push(EventDecl {
            name: sym,
            payload: ty,
            span: Span::SYNTHETIC,
        });
        sym
    }

    /// Starts a real machine declaration.
    pub fn machine(&mut self, name: &str) -> MachineBuilder<'_> {
        self.machine_impl(name, false)
    }

    /// Starts a ghost machine declaration (§3.3).
    pub fn ghost_machine(&mut self, name: &str) -> MachineBuilder<'_> {
        self.machine_impl(name, true)
    }

    fn machine_impl(&mut self, name: &str, ghost: bool) -> MachineBuilder<'_> {
        let sym = self.interner.intern(name);
        MachineBuilder {
            decl: MachineDecl {
                name: sym,
                ghost,
                vars: Vec::new(),
                actions: Vec::new(),
                states: Vec::new(),
                transitions: Vec::new(),
                bindings: Vec::new(),
                foreign: Vec::new(),
                span: Span::SYNTHETIC,
            },
            builder: self,
        }
    }

    /// Closes the program with `main machine();`.
    ///
    /// # Panics
    ///
    /// Panics if `main_machine` names no declared machine (this indicates a
    /// bug in the calling test or corpus code; parser-produced programs are
    /// validated by the type checker instead).
    pub fn finish(self, main_machine: &str) -> Program {
        self.finish_with(main_machine, Vec::new())
    }

    /// Closes the program with `main machine(inits);`.
    ///
    /// # Panics
    ///
    /// Panics if `main_machine` names no declared machine.
    pub fn finish_with(mut self, main_machine: &str, inits: Vec<Initializer>) -> Program {
        let sym = self.interner.intern(main_machine);
        assert!(
            self.machines.iter().any(|m| m.name == sym),
            "main machine `{main_machine}` was never declared"
        );
        Program {
            events: self.events,
            machines: self.machines,
            main: MainDecl {
                machine: sym,
                inits,
                span: Span::SYNTHETIC,
            },
            interner: self.interner,
        }
    }
}

/// Builds one [`MachineDecl`]; created by [`ProgramBuilder::machine`].
///
/// Call [`MachineBuilder::finish`] to commit the machine to the program.
#[derive(Debug)]
pub struct MachineBuilder<'a> {
    builder: &'a mut ProgramBuilder,
    decl: MachineDecl,
}

impl<'a> MachineBuilder<'a> {
    /// Interns a name (for use with [`Stmt`]/[`Expr`] constructors).
    pub fn sym(&mut self, name: &str) -> Symbol {
        self.builder.interner.intern(name)
    }

    /// Declares a real variable.
    pub fn var(&mut self, name: &str, ty: Ty) -> Symbol {
        self.var_impl(name, ty, false)
    }

    /// Declares a ghost variable.
    pub fn ghost_var(&mut self, name: &str, ty: Ty) -> Symbol {
        self.var_impl(name, ty, true)
    }

    fn var_impl(&mut self, name: &str, ty: Ty, ghost: bool) -> Symbol {
        let sym = self.builder.interner.intern(name);
        self.decl.vars.push(VarDecl {
            name: sym,
            ty,
            ghost,
            span: Span::SYNTHETIC,
        });
        sym
    }

    /// Declares a named action.
    pub fn action(&mut self, name: &str, body: Stmt) -> Symbol {
        let sym = self.builder.interner.intern(name);
        self.decl.actions.push(ActionDecl {
            name: sym,
            body,
            span: Span::SYNTHETIC,
        });
        sym
    }

    /// Declares a state; the first declared state is the initial state.
    ///
    /// Returns a [`StateBuilder`] for attaching deferred sets and
    /// entry/exit statements.
    pub fn state<'m>(&'m mut self, name: &str) -> StateBuilder<'m, 'a> {
        let sym = self.builder.interner.intern(name);
        self.decl.states.push(StateDecl::empty(sym));
        let idx = self.decl.states.len() - 1;
        StateBuilder { machine: self, idx }
    }

    /// Declares a step transition `(from, event, to)`.
    pub fn step(&mut self, from: &str, event: &str, to: &str) -> &mut Self {
        self.transition(TransitionKind::Step, from, event, to)
    }

    /// Declares a call transition `(from, event, to)`.
    pub fn call(&mut self, from: &str, event: &str, to: &str) -> &mut Self {
        self.transition(TransitionKind::Call, from, event, to)
    }

    fn transition(&mut self, kind: TransitionKind, from: &str, event: &str, to: &str) -> &mut Self {
        let from = self.builder.interner.intern(from);
        let event = self.builder.interner.intern(event);
        let to = self.builder.interner.intern(to);
        self.decl.transitions.push(TransitionDecl {
            kind,
            from,
            event,
            to,
            span: Span::SYNTHETIC,
        });
        self
    }

    /// Binds `action` to `(state, event)`.
    pub fn bind(&mut self, state: &str, event: &str, action: &str) -> &mut Self {
        let state = self.builder.interner.intern(state);
        let event = self.builder.interner.intern(event);
        let action = self.builder.interner.intern(action);
        self.decl.bindings.push(ActionBinding {
            state,
            event,
            action,
            span: Span::SYNTHETIC,
        });
        self
    }

    /// Declares a foreign function signature with unnamed parameters.
    pub fn foreign_fn(&mut self, name: &str, params: Vec<Ty>, ret: Ty) -> Symbol {
        let params = params.into_iter().map(ForeignParam::unnamed).collect();
        self.foreign_fn_decl(name, params, ret, None)
    }

    /// Declares a foreign function from already-built parameters.
    pub fn foreign_fn_decl(
        &mut self,
        name: &str,
        params: Vec<ForeignParam>,
        ret: Ty,
        model_body: Option<Stmt>,
    ) -> Symbol {
        let sym = self.builder.interner.intern(name);
        self.decl.foreign.push(ForeignFnDecl {
            name: sym,
            params,
            ret,
            model_body,
            span: Span::SYNTHETIC,
        });
        sym
    }

    /// Commits the machine to the program.
    pub fn finish(self) {
        self.builder.machines.push(self.decl);
    }
}

/// Configures the most recently declared state; created by
/// [`MachineBuilder::state`].
#[derive(Debug)]
pub struct StateBuilder<'m, 'a> {
    machine: &'m mut MachineBuilder<'a>,
    idx: usize,
}

impl StateBuilder<'_, '_> {
    fn state_mut(&mut self) -> &mut StateDecl {
        &mut self.machine.decl.states[self.idx]
    }

    /// Adds events to the state's deferred set.
    pub fn defer(mut self, events: &[&str]) -> Self {
        let syms: Vec<Symbol> = events
            .iter()
            .map(|e| self.machine.builder.interner.intern(e))
            .collect();
        self.state_mut().deferred.extend(syms);
        self
    }

    /// Adds events to the state's postponed set (liveness annotation).
    pub fn postpone(mut self, events: &[&str]) -> Self {
        let syms: Vec<Symbol> = events
            .iter()
            .map(|e| self.machine.builder.interner.intern(e))
            .collect();
        self.state_mut().postponed.extend(syms);
        self
    }

    /// Sets the entry statement.
    pub fn entry(mut self, stmt: Stmt) -> Self {
        self.state_mut().entry = stmt;
        self
    }

    /// Sets the exit statement.
    pub fn exit(mut self, stmt: Stmt) -> Self {
        self.state_mut().exit = stmt;
        self
    }

    /// Shortcut: entry statement `raise(event);`.
    pub fn entry_raise(mut self, event: &str) -> Self {
        let s = self.machine.builder.interner.intern(event);
        self.state_mut().entry = Stmt::raise(s);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_complete_program() {
        let mut b = ProgramBuilder::new();
        b.event("e1");
        b.event_with("e2", Ty::Int);

        let mut m = b.machine("M");
        m.var("x", Ty::Int);
        m.ghost_var("g", Ty::Id);
        m.action("noop", Stmt::skip());
        m.state("A").defer(&["e2"]).entry(Stmt::skip());
        m.state("B").postpone(&["e1"]);
        m.step("A", "e1", "B");
        m.call("B", "e2", "A");
        m.bind("A", "e2", "noop");
        m.foreign_fn("f", vec![Ty::Int], Ty::Int);
        m.finish();

        let p = b.finish("M");
        let m = p.machine_named("M").unwrap();
        assert_eq!(m.vars.len(), 2);
        assert!(m.vars[1].ghost);
        assert_eq!(m.states.len(), 2);
        assert_eq!(m.transitions.len(), 2);
        assert_eq!(m.bindings.len(), 1);
        assert_eq!(m.foreign.len(), 1);
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.name(p.main.machine), "M");
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn finish_rejects_unknown_main() {
        let mut b = ProgramBuilder::new();
        let mut m = b.machine("M");
        m.state("A");
        m.finish();
        let _ = b.finish("Nope");
    }

    #[test]
    fn state_builder_accumulates_deferred() {
        let mut b = ProgramBuilder::new();
        b.event("x");
        b.event("y");
        let mut m = b.machine("M");
        m.state("S").defer(&["x"]).defer(&["y"]);
        m.finish();
        let p = b.finish("M");
        let m = p.machine_named("M").unwrap();
        assert_eq!(m.states[0].deferred.len(), 2);
    }

    #[test]
    fn entry_raise_shortcut() {
        let mut b = ProgramBuilder::new();
        b.event("go");
        let mut m = b.machine("M");
        m.state("S").entry_raise("go");
        m.finish();
        let p = b.finish("M");
        let m = p.machine_named("M").unwrap();
        match &m.states[0].entry.kind {
            crate::StmtKind::Raise { event, payload } => {
                assert_eq!(p.name(*event), "go");
                assert!(payload.is_none());
            }
            other => panic!("expected raise, got {other:?}"),
        }
    }
}
