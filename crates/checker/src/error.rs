//! Typed checker errors.
//!
//! Before checkpointing and disk spilling, exploration could not fail —
//! the engine had no I/O and the worker channels were structurally
//! panic-free, so `unwrap()` was (mostly) honest. A crash-safety layer
//! changes that: spill files and checkpoint writes can hit real I/O
//! errors, resume can be handed a stale or corrupted snapshot, and none
//! of those should take the process down with a panic. This module is
//! the error type those paths surface, all the way out through
//! `p verify`'s exit codes.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// An error from the exploration engine's fallible paths.
///
/// The `try_check_*` methods return this; the plain `check_*` ones
/// panic on it, which without checkpoint, resume or mem-limit options
/// and with a supported option pair cannot arise.
#[derive(Debug)]
pub enum CheckerError {
    /// An I/O operation on a checkpoint or spill file failed.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A checkpoint file is malformed: bad magic, unknown version,
    /// checksum mismatch, or undecodable payload.
    CheckpointFormat(String),
    /// A structurally valid checkpoint was written by a different
    /// program or different semantic checker options.
    CheckpointMismatch(String),
    /// An exploration worker thread panicked.
    WorkerPanic(String),
    /// The semantics engine rejected an execution request — a dead-machine
    /// step or a corrupt continuation/lowering. These indicate a checker or
    /// lowering bug, not a property violation of the program under test.
    Semantics(p_semantics::ExecError),
    /// The options ask a strategy for a reduction that is not sound for
    /// it (`por` or `symmetry` with a delay bound or a fault budget).
    Unsupported(String),
}

impl CheckerError {
    /// Wraps an I/O error with the path it occurred on.
    pub(crate) fn io(path: impl Into<PathBuf>, source: io::Error) -> CheckerError {
        CheckerError::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for CheckerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckerError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            CheckerError::CheckpointFormat(why) => write!(f, "invalid checkpoint: {why}"),
            CheckerError::CheckpointMismatch(why) => write!(f, "stale checkpoint: {why}"),
            CheckerError::WorkerPanic(why) => write!(f, "exploration worker panicked: {why}"),
            CheckerError::Semantics(e) => write!(f, "semantics error: {e}"),
            CheckerError::Unsupported(why) => write!(f, "unsupported options: {why}"),
        }
    }
}

impl From<p_semantics::ExecError> for CheckerError {
    fn from(e: p_semantics::ExecError) -> CheckerError {
        CheckerError::Semantics(e)
    }
}

impl std::error::Error for CheckerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckerError::Io { source, .. } => Some(source),
            CheckerError::Semantics(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = CheckerError::io(
            "/tmp/ckpt/checkpoint.bin",
            io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        );
        let text = e.to_string();
        assert!(text.contains("checkpoint.bin"), "{text}");
        assert!(text.contains("denied"), "{text}");
        assert!(
            CheckerError::CheckpointMismatch("program digest differs".into())
                .to_string()
                .contains("stale checkpoint"),
        );
    }
}
