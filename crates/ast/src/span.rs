//! Source locations.
//!
//! Spans are byte ranges into the original source text. Nodes that have
//! none, made by the [`crate::Stmt`]/[`crate::Expr`] constructors or by a
//! pass such as ghost erasure, carry [`Span::SYNTHETIC`].

use std::fmt;

/// A half-open byte range `[start, end)` into a source file.
///
/// # Examples
///
/// ```
/// use p_ast::Span;
///
/// let span = Span::new(4, 10);
/// assert_eq!(span.len(), 6);
/// assert!(!span.is_synthetic());
/// assert!(Span::SYNTHETIC.is_synthetic());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// The span of a node that has no source text.
    pub const SYNTHETIC: Span = Span {
        start: u32::MAX,
        end: u32::MAX,
    };

    /// Creates a span covering bytes `start..end`.
    pub fn new(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    /// Length in bytes; zero for synthetic spans.
    pub fn len(self) -> usize {
        if self.is_synthetic() {
            0
        } else {
            (self.end - self.start) as usize
        }
    }

    /// Whether the span is empty.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Whether this node was constructed without source text.
    pub fn is_synthetic(self) -> bool {
        self.start == u32::MAX
    }

    /// Smallest span covering both `self` and `other`.
    ///
    /// Synthetic spans are absorbing on either side only if both are
    /// synthetic; otherwise the real span wins.
    pub fn merge(self, other: Span) -> Span {
        match (self.is_synthetic(), other.is_synthetic()) {
            (true, true) => Span::SYNTHETIC,
            (true, false) => other,
            (false, true) => self,
            (false, false) => Span {
                start: self.start.min(other.start),
                end: self.end.max(other.end),
            },
        }
    }

    /// Converts this span to a 1-based `(line, column)` pair within `source`.
    ///
    /// Returns `None` for synthetic spans or spans out of range.
    pub fn line_col(self, source: &str) -> Option<(usize, usize)> {
        if self.is_synthetic() || self.start as usize > source.len() {
            return None;
        }
        let upto = &source[..self.start as usize];
        let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = upto
            .rfind('\n')
            .map_or(self.start as usize + 1, |nl| self.start as usize - nl);
        Some((line, col))
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_synthetic() {
            write!(f, "<synthetic>")
        } else {
            write!(f, "{}..{}", self.start, self.end)
        }
    }
}

impl Default for Span {
    fn default() -> Span {
        Span::SYNTHETIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_real_spans() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.merge(b), Span::new(2, 9));
        assert_eq!(b.merge(a), Span::new(2, 9));
    }

    #[test]
    fn merge_with_synthetic() {
        let a = Span::new(2, 5);
        assert_eq!(a.merge(Span::SYNTHETIC), a);
        assert_eq!(Span::SYNTHETIC.merge(a), a);
        assert!(Span::SYNTHETIC.merge(Span::SYNTHETIC).is_synthetic());
    }

    #[test]
    fn line_col_reports_position() {
        let src = "event a;\nevent b;\n";
        // `event b` starts at byte 9, line 2 col 1.
        assert_eq!(Span::new(9, 16).line_col(src), Some((2, 1)));
        assert_eq!(Span::new(0, 5).line_col(src), Some((1, 1)));
        assert_eq!(Span::new(6, 7).line_col(src), Some((1, 7)));
        assert_eq!(Span::SYNTHETIC.line_col(src), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Span::new(1, 4).to_string(), "1..4");
        assert_eq!(Span::SYNTHETIC.to_string(), "<synthetic>");
    }
}
