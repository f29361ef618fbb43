//! The P type language.
//!
//! Figure 3 of the paper gives `type ::= void | bool | int | event | id`.
//! `void` is only used as the payload type of events that carry no data and
//! as the return type of foreign functions called for effect.

use std::fmt;

/// A P type.
///
/// # Examples
///
/// ```
/// use p_ast::Ty;
///
/// assert_eq!(Ty::Int.to_string(), "int");
/// assert_eq!(Ty::from_keyword("id"), Some(Ty::Id));
/// assert!(Ty::Void.accepts(Ty::Void));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ty {
    /// No value; payload of bare events, return type of effect-only
    /// foreign functions.
    #[default]
    Void,
    /// Booleans.
    Bool,
    /// Machine integers (the paper also mentions `byte`; we model both as
    /// signed 64-bit integers).
    Int,
    /// Event names as first-class values (`msg` has this type).
    Event,
    /// A reference to a dynamically created machine (`this` has this type).
    Id,
}

impl Ty {
    /// All types, in declaration order of the grammar.
    pub const ALL: [Ty; 5] = [Ty::Void, Ty::Bool, Ty::Int, Ty::Event, Ty::Id];

    /// Whether a value of type `other` may be stored where `self` is
    /// expected.
    ///
    /// P's type system is nominal and flat: a type accepts only itself.
    /// The undefined value ⊥ inhabits every type and is checked
    /// dynamically, not here.
    pub fn accepts(self, other: Ty) -> bool {
        self == other
    }

    /// Parses a type keyword.
    pub fn from_keyword(kw: &str) -> Option<Ty> {
        match kw {
            "void" => Some(Ty::Void),
            "bool" => Some(Ty::Bool),
            "int" | "byte" => Some(Ty::Int),
            "event" => Some(Ty::Event),
            "id" => Some(Ty::Id),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::Void => "void",
            Ty::Bool => "bool",
            Ty::Int => "int",
            Ty::Event => "event",
            Ty::Id => "id",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for ty in Ty::ALL {
            assert_eq!(Ty::from_keyword(&ty.to_string()), Some(ty));
        }
        assert_eq!(Ty::from_keyword("byte"), Some(Ty::Int));
        assert_eq!(Ty::from_keyword("machine"), None);
    }

    #[test]
    fn accepts_is_reflexive_only() {
        for a in Ty::ALL {
            for b in Ty::ALL {
                assert_eq!(a.accepts(b), a == b);
            }
        }
    }

    #[test]
    fn default_is_void() {
        assert_eq!(Ty::default(), Ty::Void);
    }
}
