//! The evaluator [`Engine::eval`] is measured against: the recursive walk
//! over the expression arena, one `Result` per node, in the two copies the
//! engine used to carry (machine frames and model-body frames). Generated
//! trees of every [`LExpr`] form are evaluated by both over generated
//! frames; the value, the choice bits consumed, the bit at which
//! `NeedChoice` is raised and the native foreign calls made on the way
//! must agree.

use std::sync::{Arc, Mutex};

use p_ast::{BinOp, Draws, UnOp};

use super::*;
use crate::foreign::ForeignRegistry;
use crate::lower::{lower, VarId};

/// A model body's frame as the reference reads it.
struct RefModelFrame {
    locals: Vec<Value>,
    msg: Value,
    arg: Value,
    self_id: MachineId,
    ty: MachineTypeId,
}

impl Engine<'_> {
    fn reference_eval(
        &self,
        m: &MachineState,
        self_id: MachineId,
        expr: ExprId,
        choices: &mut dyn ChoiceSource,
    ) -> Result<Value, NeedChoiceMarker> {
        Ok(match self.program.code.expr(expr) {
            LExpr::This => Value::Machine(self_id),
            LExpr::Msg => m.msg,
            LExpr::Arg => m.arg,
            LExpr::Null => Value::Null,
            LExpr::Bool(b) => Value::Bool(*b),
            LExpr::Int(i) => Value::Int(*i),
            LExpr::Var(v) => m.locals[v.0 as usize],
            LExpr::Event(e) => Value::Event(*e),
            LExpr::Nondet => Value::Bool(choices.next_choice().ok_or(NeedChoiceMarker)?),
            LExpr::Unary(op, inner) => {
                let v = self.reference_eval(m, self_id, *inner, choices)?;
                Value::unary(*op, &v)
            }
            LExpr::Binary(op, a, b) => {
                let va = self.reference_eval(m, self_id, *a, choices)?;
                let vb = self.reference_eval(m, self_id, *b, choices)?;
                Value::binary(*op, &va, &vb)
            }
            LExpr::Foreign(func, args) => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.reference_eval(m, self_id, *a, choices)?);
                }
                match self.call_foreign(&Env::of(m, self_id), *func, &values, choices) {
                    Ok(v) => v,
                    Err(ModelAbort::NeedChoice) => return Err(NeedChoiceMarker),
                    Err(ModelAbort::Error(_)) => Value::Null,
                }
            }
        })
    }

    fn reference_model_expr(
        &self,
        frame: &RefModelFrame,
        expr: ExprId,
        choices: &mut dyn ChoiceSource,
    ) -> Result<Value, ModelAbort> {
        Ok(match self.program.code.expr(expr) {
            LExpr::This => Value::Machine(frame.self_id),
            LExpr::Msg => frame.msg,
            LExpr::Arg => frame.arg,
            LExpr::Null => Value::Null,
            LExpr::Bool(b) => Value::Bool(*b),
            LExpr::Int(i) => Value::Int(*i),
            LExpr::Var(v) => frame
                .locals
                .get(v.0 as usize)
                .copied()
                .unwrap_or(Value::Null),
            LExpr::Event(e) => Value::Event(*e),
            LExpr::Nondet => Value::Bool(choices.next_choice().ok_or(ModelAbort::NeedChoice)?),
            LExpr::Unary(op, inner) => {
                let v = self.reference_model_expr(frame, *inner, choices)?;
                Value::unary(*op, &v)
            }
            LExpr::Binary(op, a, b) => {
                let va = self.reference_model_expr(frame, *a, choices)?;
                let vb = self.reference_model_expr(frame, *b, choices)?;
                Value::binary(*op, &va, &vb)
            }
            LExpr::Foreign(func, args) => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.reference_model_expr(frame, *a, choices)?);
                }
                if self.foreign.has_impl(frame.ty, *func) {
                    self.foreign.call(frame.self_id, frame.ty, *func, &values)
                } else {
                    Value::Null
                }
            }
        })
    }
}

/// One machine type with a variable of every kind and a foreign function
/// of every resolution: `native` is registered, `modelled` and `strict`
/// have model bodies (one draws a `*`, one can fail its `assert`), `bare`
/// has neither and answers ⊥.
const HOST: &str = r#"
    event ping : int;
    event pong;
    ghost machine Host {
        var i : int;
        var b : bool;
        var e : event;
        var m : id;
        var unset : int;
        foreign fn native(int, int) : int;
        foreign fn modelled(a : int) : int {
            result := a + i;
            if (*) { result := 0 - result; }
        }
        foreign fn strict(a : int) : int { assert(a > 0); result := a; }
        foreign fn bare(int) : int;
        state S { }
    }
    main Host();
"#;
const VARS: u32 = 5;
const FNS: u32 = 4;
const EVENTS: u32 = 2;
/// Locals of a model frame: the machine's, two parameters, `result`.
const MODEL_SLOTS: u32 = VARS + 3;
const MAX_DEPTH: u32 = 4;
/// More bits than a tree of [`MAX_DEPTH`] can draw: at most 16 leaves
/// and 15 calls of `modelled`, one bit each.
const SCRIPT_BITS: usize = 40;

fn pick<T: Copy>(rng: &mut Draws, options: &[T]) -> T {
    options[rng.below(options.len())]
}

/// A value of any kind, ⊥ and the integers operators trip over included.
fn arb_value(rng: &mut Draws) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(rng.one_in(2)),
        2 => Value::Int(pick(rng, &[0, 1, -1, 2, 7, i64::MAX, i64::MIN])),
        3 => Value::Int(rng.below(9) as i64 - 4),
        4 => Value::Event(EventId(rng.below(EVENTS as usize) as u32)),
        _ => Value::Machine(MachineId(rng.below(3) as u32)),
    }
}

/// A tree of at most `depth` operators over leaves reading `slots` locals.
/// Operands are untyped on purpose: mixed-type and ⊥ operands are cases.
fn arb_expr(rng: &mut Draws, code: &mut crate::lower::Code, depth: u32, slots: u32) -> ExprId {
    let operator = depth > 0 && rng.below(4) > 0;
    let expr = if !operator {
        match rng.below(10) {
            0 => LExpr::This,
            1 => LExpr::Msg,
            2 => LExpr::Arg,
            3 => LExpr::Null,
            4 => LExpr::Bool(rng.one_in(2)),
            5 => LExpr::Int(pick(rng, &[0, 1, -1, 3, i64::MAX, i64::MIN])),
            6 | 7 => LExpr::Var(VarId(rng.below(slots as usize) as u32)),
            8 => LExpr::Event(EventId(rng.below(EVENTS as usize) as u32)),
            _ => LExpr::Nondet,
        }
    } else {
        match rng.below(8) {
            0 => {
                let inner = arb_expr(rng, code, depth - 1, slots);
                LExpr::Unary(pick(rng, &[UnOp::Not, UnOp::Neg]), inner)
            }
            1 => {
                let args = (0..rng.below(3))
                    .map(|_| arb_expr(rng, code, depth - 1, slots))
                    .collect();
                LExpr::Foreign(FnId(rng.below(FNS as usize) as u32), args)
            }
            _ => {
                const OPS: [BinOp; 12] = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ];
                let a = arb_expr(rng, code, depth - 1, slots);
                let b = arb_expr(rng, code, depth - 1, slots);
                LExpr::Binary(pick(rng, &OPS), a, b)
            }
        }
    };
    code.push_expr(expr)
}

/// What one evaluation showed: its result (`None` for `NeedChoice`), the
/// bits it drew, and the arguments of every native call it made.
type Observed = (Option<Value>, usize, Vec<Vec<Value>>);
/// One evaluator over one frame and tree, given the script to draw from.
type Run<'a> = &'a dyn Fn(&mut Script<'_>) -> Option<Value>;

#[test]
fn eval_matches_the_recursive_reference() {
    for seed in 0..256 {
        let mut rng = Draws::new(seed);
        let mut program = lower(&p_parser::parse(HOST).unwrap()).unwrap();
        assert_eq!(program.machine(program.main).vars.len() as u32, VARS);
        assert_eq!(program.machine(program.main).foreign.len() as u32, FNS);
        let on_machine = arb_expr(&mut rng, &mut program.code, MAX_DEPTH, VARS);
        let in_model = arb_expr(&mut rng, &mut program.code, MAX_DEPTH, MODEL_SLOTS);

        let calls = Arc::new(Mutex::new(Vec::new()));
        let mut registry = ForeignRegistry::new();
        let log = Arc::clone(&calls);
        registry.register("native", move |args| {
            log.lock().unwrap().push(args.to_vec());
            Value::binary(
                BinOp::Sub,
                args.first().unwrap_or(&Value::Null),
                args.get(1).unwrap_or(&Value::Int(1)),
            )
        });
        let engine = Engine::new(&program, registry.resolve(&program));

        let self_id = MachineId(rng.below(3) as u32);
        let mut m = MachineState::initial(&program, program.main);
        m.locals = (0..VARS).map(|_| arb_value(&mut rng)).collect();
        m.locals[VARS as usize - 1] = Value::Null;
        m.msg = arb_value(&mut rng);
        m.arg = arb_value(&mut rng);
        let frame = RefModelFrame {
            locals: (0..MODEL_SLOTS).map(|_| arb_value(&mut rng)).collect(),
            msg: arb_value(&mut rng),
            arg: arb_value(&mut rng),
            self_id,
            ty: program.main,
        };
        let model_env = Env {
            locals: &frame.locals,
            msg: frame.msg,
            arg: frame.arg,
            self_id,
            ty: frame.ty,
            in_model: true,
        };
        let bits: Vec<bool> = (0..SCRIPT_BITS).map(|_| rng.one_in(2)).collect();

        let observe = |run: Run<'_>, bits: &[bool]| -> Observed {
            calls.lock().unwrap().clear();
            let mut script = Script::new(bits);
            let value = run(&mut script);
            (
                value,
                script.used(),
                std::mem::take(&mut *calls.lock().unwrap()),
            )
        };
        let pairs: [(Run<'_>, Run<'_>); 2] = [
            (
                &|s| engine.eval(&Env::of(&m, self_id), on_machine, s).ok(),
                &|s| engine.reference_eval(&m, self_id, on_machine, s).ok(),
            ),
            (
                &|s| engine.eval(&model_env, in_model, s).ok(),
                &|s| match engine.reference_model_expr(&frame, in_model, s) {
                    Ok(v) => Some(v),
                    Err(ModelAbort::NeedChoice) => None,
                    Err(ModelAbort::Error(kind)) => {
                        panic!("seed {seed}: a model expression raised {kind:?}")
                    }
                },
            ),
        ];
        for (eval, reference) in pairs {
            let full = observe(reference, &bits);
            assert!(full.0.is_some(), "seed {seed}: the script is too short");
            assert_eq!(observe(eval, &bits), full, "seed {seed}");
            // Cut short at every length: `NeedChoice` at the same bit,
            // after the same native calls.
            for cut in 0..full.1 {
                let expected = observe(reference, &bits[..cut]);
                assert_eq!(expected, (None, cut, expected.2.clone()), "seed {seed}");
                assert_eq!(observe(eval, &bits[..cut]), expected, "seed {seed}");
            }
        }
    }
}
