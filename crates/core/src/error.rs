//! The crate's error type.
//!
//! Every fallible public API in this crate returns [`Error`] rather than
//! a bare `String` or a panic: configuration validation
//! ([`crate::engine::StreamingEngine::new`]) and both sinks
//! ([`crate::pipeline::Analyzer`], [`crate::engine::StreamingEngine`]).
//! Callers
//! that prefer strings (the CLI's `Result<(), String>` plumbing) get one
//! for free through the `From<Error> for String` impl.

use std::fmt;

/// Errors surfaced by the analysis APIs.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An invalid configuration value (a zero or out-of-range window or
    /// idle timeout).
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let s: String = Error::Config("bad CIDR".into()).into();
        assert!(s.contains("bad CIDR"));
    }
}
