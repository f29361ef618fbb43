//! Diagnostics produced by the static checker.

use std::error::Error;
use std::fmt;

use p_ast::Span;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The program is rejected.
    Error,
    /// Suspicious but legal (e.g. an action binding shadowed by a
    /// transition on the same event).
    Warning,
}

/// A single checker finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Source location ([`Span::SYNTHETIC`] for a node with no source text).
    pub span: Span,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(message: String, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            message,
            span,
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(message: String, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            message,
            span,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        if self.span.is_synthetic() {
            write!(f, "{sev}: {}", self.message)
        } else {
            write!(f, "{sev} at bytes {}: {}", self.span, self.message)
        }
    }
}

/// The failure value of [`crate::check`]: all errors found, plus any
/// warnings gathered before the first error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckErrors {
    /// Every diagnostic, errors and warnings interleaved in source order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckErrors {
    /// Only the error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }
}

impl fmt::Display for CheckErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} error(s):", self.error_count())?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl Error for CheckErrors {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_severity() {
        let d = Diagnostic::error("bad".into(), Span::SYNTHETIC);
        assert_eq!(d.to_string(), "error: bad");
        let w = Diagnostic::warning("meh".into(), Span::new(1, 2));
        assert!(w.to_string().starts_with("warning at bytes 1..2"));
    }

    #[test]
    fn error_count_filters_warnings() {
        let errs = CheckErrors {
            diagnostics: vec![
                Diagnostic::warning("w".into(), Span::SYNTHETIC),
                Diagnostic::error("e".into(), Span::SYNTHETIC),
            ],
        };
        assert_eq!(errs.error_count(), 1);
        assert!(errs.to_string().contains("1 error(s)"));
    }
}
