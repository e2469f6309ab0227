//! Error types for the `minhash` crate.

use std::fmt;

/// Errors produced by signature computation and compression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinHashError {
    /// The input column was empty.
    EmptyInput,
    /// A parameter was outside its valid domain.
    InvalidParam(String),
}

impl fmt::Display for MinHashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinHashError::EmptyInput => write!(f, "cannot hash an empty input"),
            MinHashError::InvalidParam(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for MinHashError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MinHashError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MinHashError::EmptyInput.to_string().contains("empty"));
        assert!(MinHashError::InvalidParam("d = 0".into())
            .to_string()
            .contains("d = 0"));
    }
}
