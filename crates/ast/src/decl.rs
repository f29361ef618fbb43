//! Top-level declarations: events, machines, states, transitions, and
//! whole programs.
//!
//! A core-P program (Figure 3) is `evdecl machine+ m(init*)`: global event
//! declarations, one or more machine declarations, and one machine-creation
//! (`main`) statement naming the initial machine.

use crate::{Initializer, Interner, Span, Stmt, Symbol, Ty};

/// A global event declaration `event e : type;`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventDecl {
    /// The event's name.
    pub name: Symbol,
    /// Payload type; [`Ty::Void`] when the event carries no data.
    pub payload: Ty,
    /// Source location.
    pub span: Span,
}

/// A machine-local variable declaration `var x : type;` (optionally
/// `ghost var x : type;`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarDecl {
    /// The variable's name.
    pub name: Symbol,
    /// Declared type.
    pub ty: Ty,
    /// Whether the variable exists only during verification (§3.3).
    pub ghost: bool,
    /// Source location.
    pub span: Span,
}

/// A named action `action a { stmt }` — a piece of code bound to
/// (state, event) pairs without leaving the state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActionDecl {
    /// The action's name.
    pub name: Symbol,
    /// Code run when the action fires.
    pub body: Stmt,
    /// Source location.
    pub span: Span,
}

/// A state declaration.
///
/// In the core calculus a state is `(n, d, s_entry, s_exit)`; we also carry
/// the *postponed* set from §3.2's refined liveness specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateDecl {
    /// The state's name (unique within the machine).
    pub name: Symbol,
    /// Deferred events: not dequeued while control is in this state.
    pub deferred: Vec<Symbol>,
    /// Postponed events: exempt from the second liveness check (§3.2).
    pub postponed: Vec<Symbol>,
    /// Entry statement, run when control enters the state.
    pub entry: Stmt,
    /// Exit statement, run when control leaves the state.
    pub exit: Stmt,
    /// Source location.
    pub span: Span,
}

impl StateDecl {
    /// A state with empty deferred/postponed sets and `skip` entry/exit.
    pub fn empty(name: Symbol) -> StateDecl {
        StateDecl {
            name,
            deferred: Vec::new(),
            postponed: Vec::new(),
            entry: Stmt::skip(),
            exit: Stmt::skip(),
            span: Span::SYNTHETIC,
        }
    }
}

/// The two transition flavors of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// `step (n, e, n')` — exit `n`, enter `n'`.
    Step,
    /// `call (n, e, n')` — push `n'` on the call stack (subroutine-like).
    Call,
}

/// A transition `(from, event, to)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransitionDecl {
    /// Step or call.
    pub kind: TransitionKind,
    /// Source state.
    pub from: Symbol,
    /// Triggering event.
    pub event: Symbol,
    /// Target state.
    pub to: Symbol,
    /// Source location.
    pub span: Span,
}

/// An action binding `act (n, e, a)` — in state `n`, event `e` runs
/// action `a` without changing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActionBinding {
    /// The state the binding applies to.
    pub state: Symbol,
    /// The bound event.
    pub event: Symbol,
    /// The action to run.
    pub action: Symbol,
    /// Source location.
    pub span: Span,
}

/// A parameter of a foreign function: a type, optionally named so that an
/// erasable model body can refer to it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForeignParam {
    /// The parameter's name, if the declaration gives one.
    pub name: Option<Symbol>,
    /// The parameter's type.
    pub ty: Ty,
}

impl ForeignParam {
    /// An unnamed parameter.
    pub fn unnamed(ty: Ty) -> ForeignParam {
        ForeignParam { name: None, ty }
    }

    /// A named parameter.
    pub fn named(name: Symbol, ty: Ty) -> ForeignParam {
        ForeignParam {
            name: Some(name),
            ty,
        }
    }
}

/// A foreign-function declaration (§3, "Other features").
///
/// Foreign functions are implemented outside P (in this reproduction, as
/// Rust closures registered with the runtime). For verification the
/// declaration may carry an erasable P body that reads the (named)
/// parameters and the machine's ghost variables and assigns the special
/// variable `result`; the model body is interpreted by the checker when
/// no native implementation is registered, and erased for execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForeignFnDecl {
    /// The function's name.
    pub name: Symbol,
    /// Parameters.
    pub params: Vec<ForeignParam>,
    /// Return type ([`Ty::Void`] for effect-only functions).
    pub ret: Ty,
    /// Optional model body used during verification; must be erasable.
    pub model_body: Option<Stmt>,
    /// Source location.
    pub span: Span,
}

impl ForeignFnDecl {
    /// The parameter types, ignoring names.
    pub fn param_types(&self) -> Vec<Ty> {
        self.params.iter().map(|p| p.ty).collect()
    }
}

/// A machine declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineDecl {
    /// The machine's name.
    pub name: Symbol,
    /// Whether the machine is a verification-only ghost machine (§3.3).
    pub ghost: bool,
    /// Local variables.
    pub vars: Vec<VarDecl>,
    /// Named actions.
    pub actions: Vec<ActionDecl>,
    /// States; the first is the initial state `Init(m)`.
    pub states: Vec<StateDecl>,
    /// Step and call transitions.
    pub transitions: Vec<TransitionDecl>,
    /// Action bindings.
    pub bindings: Vec<ActionBinding>,
    /// Foreign-function declarations in scope for this machine.
    pub foreign: Vec<ForeignFnDecl>,
    /// Source location.
    pub span: Span,
}

impl MachineDecl {
    /// The machine's initial state (`Init(m)`), i.e. the first declared
    /// state.
    pub fn init_state(&self) -> Option<&StateDecl> {
        self.states.first()
    }

    /// Finds a state by name.
    pub fn state(&self, name: Symbol) -> Option<&StateDecl> {
        self.states.iter().find(|s| s.name == name)
    }

    /// Finds a variable by name.
    pub fn var(&self, name: Symbol) -> Option<&VarDecl> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Finds an action by name.
    pub fn action(&self, name: Symbol) -> Option<&ActionDecl> {
        self.actions.iter().find(|a| a.name == name)
    }

    /// Finds a foreign function by name.
    pub fn foreign_fn(&self, name: Symbol) -> Option<&ForeignFnDecl> {
        self.foreign.iter().find(|f| f.name == name)
    }

    /// Total number of declared transitions plus action bindings — the
    /// "P transitions" count reported in Figure 8.
    pub fn transition_count(&self) -> usize {
        self.transitions.len() + self.bindings.len()
    }
}

/// The `main m(init*)` declaration closing a program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MainDecl {
    /// The machine instantiated at program start.
    pub machine: Symbol,
    /// Initializers for its variables.
    pub inits: Vec<Initializer>,
    /// Source location.
    pub span: Span,
}

/// A complete P program: events, machines, a `main` declaration, and the
/// interner holding every identifier.
///
/// # Examples
///
/// Programs come from `p_parser::parse`:
///
/// ```
/// let src = r#"
///     event ping;
///     machine Main {
///         state Init {
///             entry { raise(ping); }
///             on ping goto Done;
///         }
///         state Done { }
///     }
///     main Main();
/// "#;
/// let program = p_parser::parse(src).unwrap();
/// assert_eq!(program.machines.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    /// Global event declarations.
    pub events: Vec<EventDecl>,
    /// Machine declarations (at least one).
    pub machines: Vec<MachineDecl>,
    /// The initial-machine declaration.
    pub main: MainDecl,
    /// Identifier table.
    pub interner: Interner,
}

impl Program {
    /// Finds an event declaration by name.
    pub fn event(&self, name: Symbol) -> Option<&EventDecl> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Finds a machine declaration by name.
    pub fn machine(&self, name: Symbol) -> Option<&MachineDecl> {
        self.machines.iter().find(|m| m.name == name)
    }

    /// Finds a machine declaration by its string name.
    pub fn machine_named(&self, name: &str) -> Option<&MachineDecl> {
        let sym = self.interner.get(name)?;
        self.machine(sym)
    }

    /// Resolves a symbol to its string.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Iterates over only the real (non-ghost) machines.
    pub fn real_machines(&self) -> impl Iterator<Item = &MachineDecl> {
        self.machines.iter().filter(|m| !m.ghost)
    }

    /// Iterates over only the ghost machines.
    pub fn ghost_machines(&self) -> impl Iterator<Item = &MachineDecl> {
        self.machines.iter().filter(|m| m.ghost)
    }

    /// Total states across all machines — the "P states" count of Figure 8.
    pub fn total_states(&self) -> usize {
        self.machines.iter().map(|m| m.states.len()).sum()
    }

    /// Total transitions + bindings across all machines.
    pub fn total_transitions(&self) -> usize {
        self.machines
            .iter()
            .map(MachineDecl::transition_count)
            .sum()
    }
}
