//! Runtime values and the ⊥-propagating operator semantics.
//!
//! §3 of the paper: "Binary and unary operators evaluate to ⊥ if any of the
//! operand expressions evaluate to ⊥. The value ⊥ arises either as a
//! constant, or if an expression reads a variable whose value is
//! uninitialized, and propagates through operators in an expression."

use std::fmt;

use p_ast::{BinOp, UnOp};

use crate::lower::EventId;
use crate::MachineId;

/// A P runtime value.
///
/// # Examples
///
/// ```
/// use p_semantics::Value;
/// use p_ast::BinOp;
///
/// let v = Value::binary(BinOp::Add, &Value::Int(2), &Value::Int(3));
/// assert_eq!(v, Value::Int(5));
/// // ⊥ propagates:
/// assert_eq!(Value::binary(BinOp::Add, &Value::Null, &Value::Int(3)), Value::Null);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// The undefined value ⊥.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// An event name.
    Event(EventId),
    /// A machine identifier.
    Machine(MachineId),
}

impl Value {
    /// Whether this value is ⊥.
    pub fn is_null(self) -> bool {
        self == Value::Null
    }

    /// Extracts a boolean, or `None` for ⊥ and other types.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Extracts an integer, or `None`.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Extracts a machine reference, or `None`.
    pub fn as_machine(self) -> Option<MachineId> {
        match self {
            Value::Machine(m) => Some(m),
            _ => None,
        }
    }

    /// Applies a unary operator with ⊥ propagation.
    ///
    /// Type mismatches (e.g. `!3`) also yield ⊥; the static type checker
    /// rules them out for checked programs.
    pub fn unary(op: UnOp, v: &Value) -> Value {
        match (op, v) {
            (_, Value::Null) => Value::Null,
            (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
            (UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
            _ => Value::Null,
        }
    }

    /// Applies a binary operator with ⊥ propagation.
    ///
    /// Division by zero yields ⊥. Equality is defined across all value
    /// forms (events can be compared with `msg`, machine ids with each
    /// other); ordering is defined only on integers.
    pub fn binary(op: BinOp, a: &Value, b: &Value) -> Value {
        if a.is_null() || b.is_null() {
            return Value::Null;
        }
        match op {
            BinOp::Eq => Value::Bool(a == b),
            BinOp::Ne => Value::Bool(a != b),
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => match (a.as_int(), b.as_int()) {
                (Some(x), Some(y)) => match op {
                    BinOp::Add => Value::Int(x.wrapping_add(y)),
                    BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                    BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                    BinOp::Div => {
                        if y == 0 {
                            Value::Null
                        } else {
                            Value::Int(x.wrapping_div(y))
                        }
                    }
                    _ => unreachable!(),
                },
                _ => Value::Null,
            },
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match (a.as_int(), b.as_int()) {
                (Some(x), Some(y)) => Value::Bool(match op {
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    BinOp::Ge => x >= y,
                    _ => unreachable!(),
                }),
                _ => Value::Null,
            },
            BinOp::And | BinOp::Or => match (a.as_bool(), b.as_bool()) {
                (Some(x), Some(y)) => Value::Bool(match op {
                    BinOp::And => x && y,
                    BinOp::Or => x || y,
                    _ => unreachable!(),
                }),
                _ => Value::Null,
            },
        }
    }

    /// Serializes the value as [`Value::encode`] does, but with machine
    /// ids rewritten through `map` (ids beyond `map`'s length pass
    /// through unchanged). This is the primitive the canonicalization
    /// layer uses to hash a configuration under a candidate renumbering
    /// without materializing the renamed configuration.
    pub(crate) fn encode_renamed(&self, out: &mut Vec<u8>, map: &[u32]) {
        match self {
            Value::Machine(m) => {
                out.push(4);
                let renamed = map.get(m.0 as usize).copied().unwrap_or(m.0);
                out.extend_from_slice(&renamed.to_le_bytes());
            }
            other => other.encode(out),
        }
    }

    /// Serializes the value into `out` for configuration hashing.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Event(e) => {
                out.push(3);
                out.extend_from_slice(&e.0.to_le_bytes());
            }
            Value::Machine(m) => {
                out.push(4);
                out.extend_from_slice(&m.0.to_le_bytes());
            }
        }
    }

    /// Inverse of [`Value::encode`]: consumes one value from the front
    /// of `buf`, or returns `None` on a malformed prefix. Round-tripping
    /// is what lets checkpoints persist frontier configurations.
    pub(crate) fn decode(buf: &mut &[u8]) -> Option<Value> {
        use crate::wire::{read_u32, read_u8};
        Some(match read_u8(buf)? {
            0 => Value::Null,
            1 => Value::Bool(match read_u8(buf)? {
                0 => false,
                1 => true,
                _ => return None,
            }),
            2 => {
                let bytes = crate::wire::take(buf, 8)?;
                Value::Int(i64::from_le_bytes(bytes.try_into().ok()?))
            }
            3 => Value::Event(EventId(read_u32(buf)?)),
            4 => Value::Machine(MachineId(read_u32(buf)?)),
            _ => return None,
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Event(e) => write!(f, "event#{}", e.0),
            Value::Machine(m) => write!(f, "machine#{}", m.0),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_propagates_through_all_operators() {
        for op in [BinOp::Add, BinOp::Eq, BinOp::Lt, BinOp::And] {
            assert_eq!(Value::binary(op, &Value::Null, &Value::Int(1)), Value::Null);
            assert_eq!(Value::binary(op, &Value::Int(1), &Value::Null), Value::Null);
        }
        assert_eq!(Value::unary(UnOp::Not, &Value::Null), Value::Null);
        assert_eq!(Value::unary(UnOp::Neg, &Value::Null), Value::Null);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            Value::binary(BinOp::Sub, &Value::Int(5), &Value::Int(7)),
            Value::Int(-2)
        );
        assert_eq!(
            Value::binary(BinOp::Mul, &Value::Int(4), &Value::Int(3)),
            Value::Int(12)
        );
        assert_eq!(
            Value::binary(BinOp::Div, &Value::Int(9), &Value::Int(2)),
            Value::Int(4)
        );
    }

    #[test]
    fn division_by_zero_is_bottom() {
        assert_eq!(
            Value::binary(BinOp::Div, &Value::Int(1), &Value::Int(0)),
            Value::Null
        );
    }

    #[test]
    fn equality_across_kinds() {
        assert_eq!(
            Value::binary(
                BinOp::Eq,
                &Value::Event(EventId(2)),
                &Value::Event(EventId(2))
            ),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binary(
                BinOp::Ne,
                &Value::Machine(MachineId(0)),
                &Value::Machine(MachineId(1))
            ),
            Value::Bool(true)
        );
        // Cross-kind equality is simply false (both defined).
        assert_eq!(
            Value::binary(BinOp::Eq, &Value::Int(1), &Value::Bool(true)),
            Value::Bool(false)
        );
    }

    #[test]
    fn type_mismatch_yields_bottom() {
        assert_eq!(
            Value::binary(BinOp::Add, &Value::Bool(true), &Value::Int(1)),
            Value::Null
        );
        assert_eq!(Value::unary(UnOp::Not, &Value::Int(3)), Value::Null);
    }

    #[test]
    fn comparison_and_logic() {
        assert_eq!(
            Value::binary(BinOp::Le, &Value::Int(2), &Value::Int(2)),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binary(BinOp::And, &Value::Bool(true), &Value::Bool(false)),
            Value::Bool(false)
        );
        assert_eq!(
            Value::binary(BinOp::Or, &Value::Bool(false), &Value::Bool(true)),
            Value::Bool(true)
        );
    }

    #[test]
    fn encoding_is_injective_on_samples() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(1),
            Value::Event(EventId(0)),
            Value::Machine(MachineId(0)),
        ];
        let mut encodings = std::collections::HashSet::new();
        for v in &values {
            let mut bytes = Vec::new();
            v.encode(&mut bytes);
            assert!(encodings.insert(bytes), "duplicate encoding for {v}");
        }
    }

    #[test]
    fn wrapping_instead_of_panicking() {
        assert_eq!(
            Value::binary(BinOp::Add, &Value::Int(i64::MAX), &Value::Int(1)),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            Value::unary(UnOp::Neg, &Value::Int(i64::MIN)),
            Value::Int(i64::MIN)
        );
    }
}
