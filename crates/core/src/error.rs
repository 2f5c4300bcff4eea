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
    /// An I/O failure while reading or writing a trace.
    Io {
        /// What was being read or written when the failure occurred
        /// (usually a file path).
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Input bytes that could not be parsed as the expected format.
    Parse(String),
    /// An invalid configuration value (a zero or out-of-range window or
    /// idle timeout).
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { context, source } => write!(f, "{context}: {source}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

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
        let e = Error::Io {
            context: "trace.pcap".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(e.to_string().contains("trace.pcap"));
        let s: String = Error::Config("bad CIDR".into()).into();
        assert!(s.contains("bad CIDR"));
    }
}
