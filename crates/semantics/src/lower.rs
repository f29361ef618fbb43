//! Lowering from the surface AST to a dense, table-driven representation.
//!
//! The lowered form mirrors the data structures the P compiler generates
//! for execution (§4): events, machine types, variables and states become
//! dense indices; every state carries per-event transition, deferred and
//! action tables; statement and expression trees live in flat arenas and
//! are referenced by index, which makes machine configurations cheap to
//! clone and hash during model checking.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use p_ast::{
    BinOp, Expr, ExprKind, Interner, MachineDecl, Program, Stmt, StmtKind, Symbol, TransitionKind,
    Ty, UnOp,
};

/// Index of an event declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

/// Index of a machine type (declaration, not instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineTypeId(pub u32);

/// Index of a state within its machine type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

/// Index of a variable within its machine type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Index of an action within its machine type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub u32);

/// Index of a foreign function within its machine type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId(pub u32);

/// Index of a lowered statement in the program's code arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// Index of a lowered expression in the program's code arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// A lowered expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LExpr {
    /// `this`
    This,
    /// `msg`
    Msg,
    /// `arg`
    Arg,
    /// ⊥
    Null,
    /// A boolean literal.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// A resolved local variable.
    Var(VarId),
    /// A resolved event literal.
    Event(EventId),
    /// Nondeterministic boolean choice.
    Nondet,
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation.
    Binary(BinOp, ExprId, ExprId),
    /// Foreign function call in expression position.
    Foreign(FnId, Vec<ExprId>),
}

/// A lowered statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LStmt {
    /// `skip;`
    Skip,
    /// `x := e;`
    Assign(VarId, ExprId),
    /// `x := new M(v1 = e1, ...);`
    New {
        /// Destination variable.
        dst: VarId,
        /// Created machine type.
        ty: MachineTypeId,
        /// Initializers, resolved against the created machine's variables.
        inits: Vec<(VarId, ExprId)>,
    },
    /// `delete;`
    Delete,
    /// `send(target, e, payload);`
    Send {
        /// Target machine expression.
        target: ExprId,
        /// Event sent.
        event: EventId,
        /// Payload, if any.
        payload: Option<ExprId>,
    },
    /// `raise(e, payload);`
    Raise {
        /// Event raised.
        event: EventId,
        /// Payload, if any.
        payload: Option<ExprId>,
    },
    /// `leave;`
    Leave,
    /// `return;`
    Return,
    /// `assert(e);`
    Assert(ExprId),
    /// `{ ... }`
    Block(Vec<StmtId>),
    /// `if (c) { .. } else { .. }`
    If {
        /// Condition.
        cond: ExprId,
        /// Then branch.
        then: StmtId,
        /// Else branch.
        els: StmtId,
    },
    /// `while (c) { .. }`
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: StmtId,
    },
    /// `call n;` — push `n` with a saved continuation.
    CallState(StateId),
    /// Foreign call for value or effect.
    Foreign {
        /// Destination variable, if the call's value is stored.
        dst: Option<VarId>,
        /// Callee.
        func: FnId,
        /// Arguments.
        args: Vec<ExprId>,
    },
}

/// Flat arenas holding all lowered code of a program.
#[derive(Debug, Clone, Default)]
pub struct Code {
    stmts: Vec<LStmt>,
    exprs: Vec<LExpr>,
}

impl Code {
    /// Adds a statement, returning its id.
    pub fn push_stmt(&mut self, s: LStmt) -> StmtId {
        self.stmts.push(s);
        StmtId((self.stmts.len() - 1) as u32)
    }

    /// Adds an expression, returning its id.
    pub fn push_expr(&mut self, e: LExpr) -> ExprId {
        self.exprs.push(e);
        ExprId((self.exprs.len() - 1) as u32)
    }

    /// Looks up a statement.
    pub fn stmt(&self, id: StmtId) -> &LStmt {
        &self.stmts[id.0 as usize]
    }

    /// Looks up an expression.
    pub fn expr(&self, id: ExprId) -> &LExpr {
        &self.exprs[id.0 as usize]
    }

    /// Number of statements in the arena.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Number of expressions in the arena.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }
}

/// A set of events, densely indexed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventSet {
    bits: Vec<u64>,
}

impl EventSet {
    /// An empty set sized for `n` events.
    pub fn with_capacity(n: usize) -> EventSet {
        EventSet {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts an event.
    pub fn insert(&mut self, e: EventId) {
        let i = e.0 as usize;
        if i / 64 >= self.bits.len() {
            self.bits.resize(i / 64 + 1, 0);
        }
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    pub fn contains(&self, e: EventId) -> bool {
        let i = e.0 as usize;
        i / 64 < self.bits.len() && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1 << b) != 0)
                .map(move |b| EventId((w * 64 + b) as u32))
        })
    }
}

/// Event metadata.
#[derive(Debug, Clone)]
pub struct EventInfo {
    /// Source name.
    pub name: Symbol,
    /// Payload type.
    pub payload: Ty,
}

/// Variable metadata.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source name.
    pub name: Symbol,
    /// Declared type.
    pub ty: Ty,
    /// Whether the variable is ghost.
    pub ghost: bool,
}

/// Action metadata.
#[derive(Debug, Clone)]
pub struct ActionInfo {
    /// Source name.
    pub name: Symbol,
    /// Body.
    pub body: StmtId,
}

/// Foreign function metadata.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Source name.
    pub name: Symbol,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// Lowered model body, when the declaration gives one (§3: an
    /// erasable "P body" interpreted during verification when no native
    /// implementation is registered).
    pub model: Option<ModelInfo>,
}

/// A lowered foreign-function model body.
///
/// The body executes over an extended local frame: the machine's locals
/// (read-only in well-checked programs), then one slot per parameter, then
/// the `result` slot.
#[derive(Debug, Clone, Copy)]
pub struct ModelInfo {
    /// The body statement.
    pub body: StmtId,
    /// Index of the first parameter slot (= the machine's variable count).
    pub param_base: u32,
    /// Number of parameters.
    pub param_count: u32,
    /// Index of the `result` slot (= `param_base + param_count`).
    pub result_slot: u32,
}

/// A state's lowered tables: per-event transition targets, deferred and
/// postponed sets, and entry/exit code. This is the analog of the per-state
/// table entry in the paper's generated C code.
#[derive(Debug, Clone)]
pub struct StateInfo {
    /// Source name.
    pub name: Symbol,
    /// Deferred events (`Deferred(m, n)`).
    pub deferred: EventSet,
    /// Postponed events (liveness annotation, §3.2).
    pub postponed: EventSet,
    /// Entry statement.
    pub entry: StmtId,
    /// Exit statement.
    pub exit: StmtId,
    /// `Step(m, n, e)` table, indexed by event.
    pub steps: Vec<Option<StateId>>,
    /// `Call(m, n, e)` table, indexed by event.
    pub calls: Vec<Option<StateId>>,
    /// `Action(m, n, e)` table, indexed by event.
    pub actions: Vec<Option<ActionId>>,
}

impl StateInfo {
    /// Whether event `e` has a step or call transition or a bound action in
    /// this state (the set `t` in the DEQUEUE rule).
    pub fn handles(&self, e: EventId) -> bool {
        let i = e.0 as usize;
        self.steps[i].is_some() || self.calls[i].is_some() || self.actions[i].is_some()
    }
}

/// A lowered machine type.
#[derive(Debug, Clone)]
pub struct MachineType {
    /// Source name.
    pub name: Symbol,
    /// Whether the machine is ghost.
    pub ghost: bool,
    /// Variables (locals), in declaration order.
    pub vars: Vec<VarInfo>,
    /// States; index 0 is the initial state.
    pub states: Vec<StateInfo>,
    /// Actions.
    pub actions: Vec<ActionInfo>,
    /// Foreign functions.
    pub foreign: Vec<FnInfo>,
}

impl MachineType {
    /// The initial state id.
    pub fn init_state(&self) -> StateId {
        StateId(0)
    }

    /// Looks up a state by source name.
    pub fn state_named(&self, name: Symbol) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(|i| StateId(i as u32))
    }

    /// Looks up a variable by source name.
    pub fn var_named(&self, name: Symbol) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }
}

/// A fully lowered program: the unit of execution for both the model
/// checker and the runtime.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    /// Events, densely indexed by [`EventId`].
    pub events: Vec<EventInfo>,
    /// Machine types, densely indexed by [`MachineTypeId`].
    pub machines: Vec<MachineType>,
    /// All statements and expressions.
    pub code: Code,
    /// The machine instantiated at start.
    pub main: MachineTypeId,
    /// Initializers for the main machine.
    pub main_inits: Vec<(VarId, ExprId)>,
    /// Identifier table (shared with the source program).
    pub interner: Interner,
}

impl LoweredProgram {
    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Machine type lookup.
    pub fn machine(&self, id: MachineTypeId) -> &MachineType {
        &self.machines[id.0 as usize]
    }

    /// Event lookup.
    pub fn event(&self, id: EventId) -> &EventInfo {
        &self.events[id.0 as usize]
    }

    /// Resolves an event id to its source name.
    pub fn event_name(&self, id: EventId) -> &str {
        self.interner.resolve(self.events[id.0 as usize].name)
    }

    /// Resolves a machine type id to its source name.
    pub fn machine_name(&self, id: MachineTypeId) -> &str {
        self.interner.resolve(self.machines[id.0 as usize].name)
    }

    /// Resolves a state to its source name.
    pub fn state_name(&self, m: MachineTypeId, s: StateId) -> &str {
        self.interner
            .resolve(self.machines[m.0 as usize].states[s.0 as usize].name)
    }

    /// Finds a machine type by its string name.
    pub fn machine_type_named(&self, name: &str) -> Option<MachineTypeId> {
        let sym = self.interner.get(name)?;
        self.machines
            .iter()
            .position(|m| m.name == sym)
            .map(|i| MachineTypeId(i as u32))
    }

    /// Finds an event by its string name. Compares the declared names in
    /// turn — programs declare few events, and the runtime resolves one
    /// name per injection, where a scan costs less than hashing the name
    /// through the interner.
    pub fn event_id_named(&self, name: &str) -> Option<EventId> {
        self.events
            .iter()
            .position(|e| self.interner.resolve(e.name) == name)
            .map(|i| EventId(i as u32))
    }
}

/// An error during lowering (dangling name, duplicate declaration).
///
/// `p-typecheck` produces friendlier diagnostics for the same defects;
/// lowering re-checks them so that it is safe on unchecked programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    message: String,
}

impl LowerError {
    fn new(message: String) -> LowerError {
        LowerError { message }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering failed: {}", self.message)
    }
}

impl Error for LowerError {}

/// Lowers a program to its dense executable form.
///
/// # Errors
///
/// Fails on unresolved names (events, machines, states, variables, actions
/// or foreign functions) and on duplicate transition sources — defects that
/// `p-typecheck` reports with source positions.
pub fn lower(program: &Program) -> Result<LoweredProgram, LowerError> {
    Lowering::new(program).run()
}

struct Lowering<'p> {
    program: &'p Program,
    code: Code,
    event_ids: HashMap<Symbol, EventId>,
    machine_ids: HashMap<Symbol, MachineTypeId>,
}

struct MachineCtx {
    vars: HashMap<Symbol, VarId>,
    fns: HashMap<Symbol, FnId>,
    states: HashMap<Symbol, StateId>,
}

impl<'p> Lowering<'p> {
    fn new(program: &'p Program) -> Lowering<'p> {
        Lowering {
            program,
            code: Code::default(),
            event_ids: HashMap::new(),
            machine_ids: HashMap::new(),
        }
    }

    fn err(&self, msg: String) -> LowerError {
        LowerError::new(msg)
    }

    fn name(&self, s: Symbol) -> &str {
        self.program.interner.resolve(s)
    }

    fn run(mut self) -> Result<LoweredProgram, LowerError> {
        for (i, ev) in self.program.events.iter().enumerate() {
            if self.event_ids.insert(ev.name, EventId(i as u32)).is_some() {
                return Err(self.err(format!("duplicate event `{}`", self.name(ev.name))));
            }
        }
        for (i, m) in self.program.machines.iter().enumerate() {
            if self
                .machine_ids
                .insert(m.name, MachineTypeId(i as u32))
                .is_some()
            {
                return Err(self.err(format!("duplicate machine `{}`", self.name(m.name))));
            }
        }

        let mut machines = Vec::with_capacity(self.program.machines.len());
        for decl in &self.program.machines {
            machines.push(self.lower_machine(decl)?);
        }

        let main = *self
            .machine_ids
            .get(&self.program.main.machine)
            .ok_or_else(|| {
                self.err(format!(
                    "main machine `{}` not declared",
                    self.name(self.program.main.machine)
                ))
            })?;
        // Main initializers are resolved against the main machine's
        // variables and evaluated in an empty context.
        let main_decl = &self.program.machines[main.0 as usize];
        let main_ctx = self.machine_ctx(main_decl)?;
        let mut main_inits = Vec::new();
        // The initializer expressions themselves may not reference any
        // machine context; lower them in the main machine's own context
        // (they are constants in well-typed programs).
        for init in &self.program.main.inits {
            let var = *main_ctx.vars.get(&init.var).ok_or_else(|| {
                self.err(format!(
                    "main initializer references unknown variable `{}`",
                    self.name(init.var)
                ))
            })?;
            let value = self.lower_expr(&init.value, &main_ctx)?;
            main_inits.push((var, value));
        }

        Ok(LoweredProgram {
            events: self
                .program
                .events
                .iter()
                .map(|e| EventInfo {
                    name: e.name,
                    payload: e.payload,
                })
                .collect(),
            machines,
            code: self.code,
            main,
            main_inits,
            interner: self.program.interner.clone(),
        })
    }

    fn machine_ctx(&self, decl: &MachineDecl) -> Result<MachineCtx, LowerError> {
        let mut vars = HashMap::new();
        for (i, v) in decl.vars.iter().enumerate() {
            if vars.insert(v.name, VarId(i as u32)).is_some() {
                return Err(self.err(format!(
                    "duplicate variable `{}` in machine `{}`",
                    self.name(v.name),
                    self.name(decl.name)
                )));
            }
        }
        let mut fns = HashMap::new();
        for (i, f) in decl.foreign.iter().enumerate() {
            if fns.insert(f.name, FnId(i as u32)).is_some() {
                return Err(self.err(format!(
                    "duplicate foreign function `{}` in machine `{}`",
                    self.name(f.name),
                    self.name(decl.name)
                )));
            }
        }
        let mut states = HashMap::new();
        for (i, s) in decl.states.iter().enumerate() {
            if states.insert(s.name, StateId(i as u32)).is_some() {
                return Err(self.err(format!(
                    "duplicate state `{}` in machine `{}`",
                    self.name(s.name),
                    self.name(decl.name)
                )));
            }
        }
        Ok(MachineCtx { vars, fns, states })
    }

    fn lower_machine(&mut self, decl: &MachineDecl) -> Result<MachineType, LowerError> {
        if decl.states.is_empty() {
            return Err(self.err(format!(
                "machine `{}` declares no states",
                self.name(decl.name)
            )));
        }
        let ctx = self.machine_ctx(decl)?;
        let n_events = self.program.events.len();

        let mut action_ids = HashMap::new();
        let mut actions = Vec::new();
        for (i, a) in decl.actions.iter().enumerate() {
            if action_ids.insert(a.name, ActionId(i as u32)).is_some() {
                return Err(self.err(format!(
                    "duplicate action `{}` in machine `{}`",
                    self.name(a.name),
                    self.name(decl.name)
                )));
            }
            let body = self.lower_stmt(&a.body, &ctx)?;
            actions.push(ActionInfo { name: a.name, body });
        }

        let mut states = Vec::new();
        for s in &decl.states {
            let mut deferred = EventSet::with_capacity(n_events);
            for &e in &s.deferred {
                deferred.insert(self.event_id(e)?);
            }
            let mut postponed = EventSet::with_capacity(n_events);
            for &e in &s.postponed {
                postponed.insert(self.event_id(e)?);
            }
            let entry = self.lower_stmt(&s.entry, &ctx)?;
            let exit = self.lower_stmt(&s.exit, &ctx)?;
            states.push(StateInfo {
                name: s.name,
                deferred,
                postponed,
                entry,
                exit,
                steps: vec![None; n_events],
                calls: vec![None; n_events],
                actions: vec![None; n_events],
            });
        }

        for t in &decl.transitions {
            let from = *ctx.states.get(&t.from).ok_or_else(|| {
                self.err(format!(
                    "transition from unknown state `{}`",
                    self.name(t.from)
                ))
            })?;
            let to = *ctx.states.get(&t.to).ok_or_else(|| {
                self.err(format!("transition to unknown state `{}`", self.name(t.to)))
            })?;
            let ev = self.event_id(t.event)?;
            let state = &mut states[from.0 as usize];
            let table = match t.kind {
                TransitionKind::Step => &mut state.steps,
                TransitionKind::Call => &mut state.calls,
            };
            let slot = &mut table[ev.0 as usize];
            if slot.is_some() {
                return Err(self.err(format!(
                    "nondeterministic transitions from state `{}` on event `{}`",
                    self.name(t.from),
                    self.name(t.event)
                )));
            }
            *slot = Some(to);
        }

        for b in &decl.bindings {
            let state_id = *ctx.states.get(&b.state).ok_or_else(|| {
                self.err(format!("binding on unknown state `{}`", self.name(b.state)))
            })?;
            let action = *action_ids.get(&b.action).ok_or_else(|| {
                self.err(format!(
                    "binding to unknown action `{}`",
                    self.name(b.action)
                ))
            })?;
            let ev = self.event_id(b.event)?;
            let slot = &mut states[state_id.0 as usize].actions[ev.0 as usize];
            if slot.is_some() {
                return Err(self.err(format!(
                    "multiple actions bound to state `{}` on event `{}`",
                    self.name(b.state),
                    self.name(b.event)
                )));
            }
            *slot = Some(action);
        }

        // Foreign functions: lower model bodies in an extended context
        // where the named parameters and `result` become synthetic local
        // slots appended after the machine's variables.
        let mut foreign = Vec::with_capacity(decl.foreign.len());
        for f in &decl.foreign {
            let model = match &f.model_body {
                None => None,
                Some(body) => {
                    let param_base = decl.vars.len() as u32;
                    let mut model_ctx = self.machine_ctx(decl)?;
                    for (i, p) in f.params.iter().enumerate() {
                        if let Some(pname) = p.name {
                            model_ctx.vars.insert(pname, VarId(param_base + i as u32));
                        }
                    }
                    let result_slot = param_base + f.params.len() as u32;
                    let result_sym = self.program.interner.get("result");
                    if let Some(result_sym) = result_sym {
                        model_ctx
                            .vars
                            .entry(result_sym)
                            .or_insert(VarId(result_slot));
                    }
                    let body = self.lower_stmt(body, &model_ctx)?;
                    Some(ModelInfo {
                        body,
                        param_base,
                        param_count: f.params.len() as u32,
                        result_slot,
                    })
                }
            };
            foreign.push(FnInfo {
                name: f.name,
                params: f.param_types(),
                ret: f.ret,
                model,
            });
        }

        Ok(MachineType {
            name: decl.name,
            ghost: decl.ghost,
            vars: decl
                .vars
                .iter()
                .map(|v| VarInfo {
                    name: v.name,
                    ty: v.ty,
                    ghost: v.ghost,
                })
                .collect(),
            states,
            actions,
            foreign,
        })
    }

    fn event_id(&self, name: Symbol) -> Result<EventId, LowerError> {
        self.event_ids
            .get(&name)
            .copied()
            .ok_or_else(|| self.err(format!("unknown event `{}`", self.name(name))))
    }

    fn lower_stmt(&mut self, s: &Stmt, ctx: &MachineCtx) -> Result<StmtId, LowerError> {
        let lowered = match &s.kind {
            StmtKind::Skip => LStmt::Skip,
            StmtKind::Assign { dst, value } => {
                let var = self.var_id(*dst, ctx)?;
                let value = self.lower_expr(value, ctx)?;
                LStmt::Assign(var, value)
            }
            StmtKind::New {
                dst,
                machine,
                inits,
            } => {
                let var = self.var_id(*dst, ctx)?;
                let ty = *self.machine_ids.get(machine).ok_or_else(|| {
                    self.err(format!("new of unknown machine `{}`", self.name(*machine)))
                })?;
                // Initializer variables are resolved against the *created*
                // machine's declaration; initializer expressions are
                // evaluated in the *creating* machine's context.
                let target_decl = &self.program.machines[ty.0 as usize];
                let mut lowered_inits = Vec::new();
                for init in inits {
                    let var_pos = target_decl
                        .vars
                        .iter()
                        .position(|v| v.name == init.var)
                        .ok_or_else(|| {
                            self.err(format!(
                                "initializer for unknown variable `{}` of machine `{}`",
                                self.name(init.var),
                                self.name(*machine)
                            ))
                        })?;
                    let value = self.lower_expr(&init.value, ctx)?;
                    lowered_inits.push((VarId(var_pos as u32), value));
                }
                LStmt::New {
                    dst: var,
                    ty,
                    inits: lowered_inits,
                }
            }
            StmtKind::Delete => LStmt::Delete,
            StmtKind::Send {
                target,
                event,
                payload,
            } => {
                let target = self.lower_expr(target, ctx)?;
                let event = self.event_id(*event)?;
                let payload = payload
                    .as_ref()
                    .map(|p| self.lower_expr(p, ctx))
                    .transpose()?;
                LStmt::Send {
                    target,
                    event,
                    payload,
                }
            }
            StmtKind::Raise { event, payload } => {
                let event = self.event_id(*event)?;
                let payload = payload
                    .as_ref()
                    .map(|p| self.lower_expr(p, ctx))
                    .transpose()?;
                LStmt::Raise { event, payload }
            }
            StmtKind::Leave => LStmt::Leave,
            StmtKind::Return => LStmt::Return,
            StmtKind::Assert(e) => LStmt::Assert(self.lower_expr(e, ctx)?),
            StmtKind::Block(stmts) => {
                let ids = stmts
                    .iter()
                    .map(|st| self.lower_stmt(st, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                LStmt::Block(ids)
            }
            StmtKind::If { cond, then, els } => {
                let cond = self.lower_expr(cond, ctx)?;
                let then = self.lower_stmt(then, ctx)?;
                let els = self.lower_stmt(els, ctx)?;
                LStmt::If { cond, then, els }
            }
            StmtKind::While { cond, body } => {
                let cond = self.lower_expr(cond, ctx)?;
                let body = self.lower_stmt(body, ctx)?;
                LStmt::While { cond, body }
            }
            StmtKind::CallState(state) => {
                let id = *ctx.states.get(state).ok_or_else(|| {
                    self.err(format!("call of unknown state `{}`", self.name(*state)))
                })?;
                LStmt::CallState(id)
            }
            StmtKind::ForeignCall { dst, func, args } => {
                let func_id = *ctx.fns.get(func).ok_or_else(|| {
                    self.err(format!(
                        "call of undeclared foreign function `{}`",
                        self.name(*func)
                    ))
                })?;
                let dst = dst.map(|d| self.var_id(d, ctx)).transpose()?;
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                LStmt::Foreign {
                    dst,
                    func: func_id,
                    args,
                }
            }
        };
        Ok(self.code.push_stmt(lowered))
    }

    fn var_id(&self, name: Symbol, ctx: &MachineCtx) -> Result<VarId, LowerError> {
        ctx.vars
            .get(&name)
            .copied()
            .ok_or_else(|| self.err(format!("unknown variable `{}`", self.name(name))))
    }

    fn lower_expr(&mut self, e: &Expr, ctx: &MachineCtx) -> Result<ExprId, LowerError> {
        let lowered = match &e.kind {
            ExprKind::This => LExpr::This,
            ExprKind::Msg => LExpr::Msg,
            ExprKind::Arg => LExpr::Arg,
            ExprKind::Null => LExpr::Null,
            ExprKind::Bool(b) => LExpr::Bool(*b),
            ExprKind::Int(i) => LExpr::Int(*i),
            ExprKind::Nondet => LExpr::Nondet,
            ExprKind::Name(sym) => {
                // Variables shadow events.
                if let Some(&v) = ctx.vars.get(sym) {
                    LExpr::Var(v)
                } else if let Some(&ev) = self.event_ids.get(sym) {
                    LExpr::Event(ev)
                } else {
                    return Err(self.err(format!(
                        "unresolved name `{}` (neither a variable nor an event)",
                        self.name(*sym)
                    )));
                }
            }
            ExprKind::Unary(op, inner) => {
                let inner = self.lower_expr(inner, ctx)?;
                LExpr::Unary(*op, inner)
            }
            ExprKind::Binary(op, a, b) => {
                let a = self.lower_expr(a, ctx)?;
                let b = self.lower_expr(b, ctx)?;
                LExpr::Binary(*op, a, b)
            }
            ExprKind::ForeignCall(func, args) => {
                let func_id = *ctx.fns.get(func).ok_or_else(|| {
                    self.err(format!(
                        "call of undeclared foreign function `{}`",
                        self.name(*func)
                    ))
                })?;
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                LExpr::Foreign(func_id, args)
            }
        };
        Ok(self.code.push_expr(lowered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_ast::{Expr as AExpr, ProgramBuilder, Stmt as AStmt};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.event("go");
        b.event_with("data", Ty::Int);
        let mut m = b.machine("M");
        m.var("x", Ty::Int);
        let x = m.sym("x");
        let go = m.sym("go");
        m.action("bump", AStmt::assign(x, AExpr::int(1)));
        m.state("A").defer(&["data"]).entry(AStmt::raise(go));
        m.state("B").postpone(&["go"]);
        m.step("A", "go", "B");
        m.call("B", "data", "A");
        m.bind("B", "go", "bump");
        m.finish();
        b.finish("M")
    }

    #[test]
    fn lowers_tables() {
        let lowered = lower(&sample()).unwrap();
        assert_eq!(lowered.event_count(), 2);
        let m = lowered.machine(MachineTypeId(0));
        assert_eq!(m.states.len(), 2);
        let go = lowered.event_id_named("go").unwrap();
        let data = lowered.event_id_named("data").unwrap();
        let a = &m.states[0];
        assert_eq!(a.steps[go.0 as usize], Some(StateId(1)));
        assert!(a.deferred.contains(data));
        assert!(!a.deferred.contains(go));
        let b_state = &m.states[1];
        assert_eq!(b_state.calls[data.0 as usize], Some(StateId(0)));
        assert_eq!(b_state.actions[go.0 as usize], Some(ActionId(0)));
        assert!(b_state.postponed.contains(go));
    }

    #[test]
    fn handles_accounts_for_all_tables() {
        let lowered = lower(&sample()).unwrap();
        let m = lowered.machine(MachineTypeId(0));
        let go = lowered.event_id_named("go").unwrap();
        let data = lowered.event_id_named("data").unwrap();
        assert!(m.states[0].handles(go));
        assert!(!m.states[0].handles(data));
        assert!(m.states[1].handles(go)); // via action binding
        assert!(m.states[1].handles(data)); // via call transition
    }

    #[test]
    fn rejects_duplicate_transition() {
        let mut b = ProgramBuilder::new();
        b.event("e");
        let mut m = b.machine("M");
        m.state("A");
        m.state("B");
        m.step("A", "e", "B");
        m.step("A", "e", "A");
        m.finish();
        let err = lower(&b.finish("M")).unwrap_err();
        assert!(err.message().contains("nondeterministic"));
    }

    #[test]
    fn rejects_unknown_event() {
        let mut b = ProgramBuilder::new();
        let mut m = b.machine("M");
        m.state("A");
        m.state("B");
        m.step("A", "phantom", "B");
        m.finish();
        assert!(lower(&b.finish("M")).is_err());
    }

    #[test]
    fn rejects_machine_without_states() {
        let mut b = ProgramBuilder::new();
        let m = b.machine("M");
        m.finish();
        let err = lower(&b.finish("M")).unwrap_err();
        assert!(err.message().contains("no states"));
    }

    #[test]
    fn variables_shadow_events_in_expressions() {
        let mut b = ProgramBuilder::new();
        b.event("x");
        let mut m = b.machine("M");
        m.var("x", Ty::Int);
        let x = m.sym("x");
        m.state("A").entry(AStmt::assign(x, AExpr::name(x)));
        m.finish();
        let lowered = lower(&b.finish("M")).unwrap();
        let mt = lowered.machine(MachineTypeId(0));
        let entry = lowered.code.stmt(mt.states[0].entry);
        match entry {
            LStmt::Assign(var, value) => {
                assert_eq!(*var, VarId(0));
                assert_eq!(lowered.code.expr(*value), &LExpr::Var(VarId(0)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn event_set_iter_round_trips() {
        let mut s = EventSet::with_capacity(200);
        for i in [0u32, 5, 63, 64, 129, 199] {
            s.insert(EventId(i));
        }
        let collected: Vec<u32> = s.iter().map(|e| e.0).collect();
        assert_eq!(collected, vec![0, 5, 63, 64, 129, 199]);
        assert!(!s.contains(EventId(1)));
        assert!(s.contains(EventId(129)));
    }

    #[test]
    fn main_inits_resolved() {
        let mut b = ProgramBuilder::new();
        let mut m = b.machine("M");
        m.var("x", Ty::Int);
        m.state("A");
        m.finish();
        let x = b.sym("x");
        let p = b.finish_with(
            "M",
            vec![p_ast::Initializer {
                var: x,
                value: AExpr::int(7),
            }],
        );
        let lowered = lower(&p).unwrap();
        assert_eq!(lowered.main_inits.len(), 1);
        assert_eq!(lowered.main_inits[0].0, VarId(0));
    }
}
