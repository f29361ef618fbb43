//! Foreign functions.
//!
//! In the paper, foreign functions are C code linked with the generated
//! driver; they "are assumed to terminate and to limit any side effect to
//! the provided memory" (§4). In this reproduction they are Rust closures
//! registered by name. For verification the closures must additionally be
//! *deterministic pure functions of their arguments* — the model checker
//! calls them while exploring, and impure functions would make state
//! hashing unsound. The runtime relaxes this: runtime foreign functions may
//! also access a per-machine external context (see `p-runtime`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::lower::{FnId, LoweredProgram, MachineTypeId};
use crate::value::Value;
use crate::MachineId;

/// The signature of a pure foreign function used during verification and
/// plain interpretation.
pub type ForeignFn = dyn Fn(&[Value]) -> Value + Send + Sync;

/// A foreign function that also receives the identity of the calling
/// machine instance — the analog of the `void*` external-memory argument
/// the paper's runtime passes to every foreign function (§4). Used by
/// `p-runtime` to give each machine its own external context.
pub type InstanceForeignFn = dyn Fn(MachineId, &[Value]) -> Value + Send + Sync;

#[derive(Clone)]
enum ForeignImpl {
    Pure(Arc<ForeignFn>),
    Instance(Arc<InstanceForeignFn>),
}

impl ForeignImpl {
    fn call(&self, caller: MachineId, args: &[Value]) -> Value {
        match self {
            ForeignImpl::Pure(f) => f(args),
            ForeignImpl::Instance(f) => f(caller, args),
        }
    }
}

/// A registry of foreign-function implementations, keyed by name.
///
/// # Examples
///
/// ```
/// use p_semantics::{ForeignRegistry, Value};
///
/// let mut reg = ForeignRegistry::new();
/// reg.register("double", |args| match args[0] {
///     Value::Int(i) => Value::Int(i * 2),
///     _ => Value::Null,
/// });
/// assert!(reg.contains("double"));
/// assert!(!reg.contains("missing"));
/// ```
#[derive(Clone, Default)]
pub struct ForeignRegistry {
    fns: HashMap<String, ForeignImpl>,
}

impl ForeignRegistry {
    /// Creates an empty registry.
    pub fn new() -> ForeignRegistry {
        ForeignRegistry::default()
    }

    /// Registers `f` under `name`, replacing any previous registration.
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        self.fns
            .insert(name.to_owned(), ForeignImpl::Pure(Arc::new(f)));
    }

    /// Registers an instance-aware function that receives the calling
    /// machine's id (for per-machine external contexts, §4).
    pub fn register_with_self<F>(&mut self, name: &str, f: F)
    where
        F: Fn(MachineId, &[Value]) -> Value + Send + Sync + 'static,
    {
        self.fns
            .insert(name.to_owned(), ForeignImpl::Instance(Arc::new(f)));
    }

    /// Whether an implementation is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// Pre-resolves this registry against a lowered program, producing the
    /// dense per-(machine type, fn id) table the execution engine uses.
    ///
    /// Declared functions with no registered implementation resolve to a
    /// conservative default that returns ⊥ — the paper's stance that the
    /// verifier treats unmodeled foreign code as havoc on its result.
    pub fn resolve(&self, program: &LoweredProgram) -> ForeignEnv {
        let tables = program
            .machines
            .iter()
            .map(|m| {
                m.foreign
                    .iter()
                    .map(|f| {
                        let name = program.interner.resolve(f.name);
                        self.fns.get(name).cloned()
                    })
                    .collect()
            })
            .collect();
        ForeignEnv {
            tables: Arc::new(tables),
        }
    }
}

impl fmt::Debug for ForeignRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<_> = self.fns.keys().collect();
        names.sort();
        f.debug_struct("ForeignRegistry")
            .field("functions", &names)
            .finish()
    }
}

/// Foreign implementations resolved against one program; consulted by the
/// execution engine on every foreign call. The tables are immutable and
/// shared, so a clone — one per [`Engine`](crate::Engine) — is a
/// reference-count increment.
#[derive(Clone, Default)]
pub struct ForeignEnv {
    tables: Arc<Vec<Vec<Option<ForeignImpl>>>>,
}

impl ForeignEnv {
    /// An environment in which every foreign call returns ⊥.
    pub fn empty() -> ForeignEnv {
        ForeignEnv::default()
    }

    /// Whether a native implementation is registered for `func` of
    /// machine type `ty`.
    pub fn has_impl(&self, ty: MachineTypeId, func: FnId) -> bool {
        self.tables
            .get(ty.0 as usize)
            .and_then(|t| t.get(func.0 as usize))
            .is_some_and(Option::is_some)
    }

    /// Calls foreign function `func` of machine type `ty` on behalf of
    /// machine instance `caller`.
    ///
    /// Unresolved functions return ⊥.
    pub fn call(&self, caller: MachineId, ty: MachineTypeId, func: FnId, args: &[Value]) -> Value {
        self.tables
            .get(ty.0 as usize)
            .and_then(|t| t.get(func.0 as usize))
            .and_then(|f| f.as_ref())
            .map_or(Value::Null, |f| f.call(caller, args))
    }
}

impl fmt::Debug for ForeignEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForeignEnv")
            .field("machine_types", &self.tables.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lowered;

    #[test]
    fn register_and_call_through_env() {
        let program = lowered(
            r#"
            machine M {
                foreign fn inc(int) : int;
                foreign fn unimpl() : int;
                state S { }
            }
            main M();
        "#,
        );

        let mut reg = ForeignRegistry::new();
        reg.register("inc", |args| match args[0] {
            Value::Int(i) => Value::Int(i + 1),
            _ => Value::Null,
        });
        let env = reg.resolve(&program);
        let caller = MachineId(0);
        assert_eq!(
            env.call(caller, MachineTypeId(0), FnId(0), &[Value::Int(41)]),
            Value::Int(42)
        );
        // Unregistered function conservatively returns ⊥.
        assert_eq!(
            env.call(caller, MachineTypeId(0), FnId(1), &[]),
            Value::Null
        );
    }

    #[test]
    fn empty_env_returns_bottom() {
        let env = ForeignEnv::empty();
        assert_eq!(
            env.call(MachineId(0), MachineTypeId(0), FnId(0), &[]),
            Value::Null
        );
    }

    #[test]
    fn registration_replaces() {
        let mut reg = ForeignRegistry::new();
        reg.register("f", |_| Value::Int(1));
        reg.register("f", |_| Value::Int(2));
        assert_eq!(reg.len(), 1);
        assert!(reg.contains("f"));
    }

    #[test]
    fn instance_functions_see_caller_id() {
        let program = lowered("machine M { foreign fn whoami() : id; state S { } } main M();");
        let mut reg = ForeignRegistry::new();
        reg.register_with_self("whoami", |caller, _| Value::Machine(caller));
        let env = reg.resolve(&program);
        assert_eq!(
            env.call(MachineId(7), MachineTypeId(0), FnId(0), &[]),
            Value::Machine(MachineId(7))
        );
    }
}
