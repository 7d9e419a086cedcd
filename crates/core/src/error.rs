//! Error type for the F² scheme.

use std::fmt;

/// Errors raised by the F² encryption/decryption pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum F2Error {
    /// The configuration was invalid (α out of range, zero split factor, …).
    InvalidConfig(String),
    /// An error bubbled up from the relational substrate.
    Relation(String),
    /// An error bubbled up from the cryptographic substrate.
    Crypto(String),
    /// Decryption was attempted with provenance that does not match the table.
    ProvenanceMismatch(String),
    /// The input table cannot be encrypted (e.g. empty schema).
    UnsupportedInput(String),
    /// A worker thread panicked while encrypting a chunk. The panic was contained
    /// (the process keeps running, other chunks finished or were abandoned cleanly);
    /// the payload message is preserved for diagnosis.
    WorkerPanicked {
        /// Index of the chunk whose encryption panicked.
        chunk: usize,
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// A streaming job's frame write failed, possibly part-way, so its store may
    /// end in a torn frame. The job refuses further appends and its finish;
    /// reopening the store with `Engine::resume_job` truncates the tear and
    /// continues byte-exactly.
    TornStream {
        /// Index of the chunk whose frame write failed.
        chunk: usize,
    },
}

impl fmt::Display for F2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            F2Error::InvalidConfig(m) => write!(f, "invalid F2 configuration: {m}"),
            F2Error::Relation(m) => write!(f, "relational error: {m}"),
            F2Error::Crypto(m) => write!(f, "cryptographic error: {m}"),
            F2Error::ProvenanceMismatch(m) => write!(f, "provenance mismatch: {m}"),
            F2Error::UnsupportedInput(m) => write!(f, "unsupported input: {m}"),
            F2Error::WorkerPanicked { chunk, message } => {
                write!(f, "worker panicked while encrypting chunk {chunk}: {message}")
            }
            F2Error::TornStream { chunk } => write!(
                f,
                "the frame write of chunk {chunk} failed, so the stream may end in a torn \
                 frame; reopen the store with Engine::resume_job"
            ),
        }
    }
}

impl std::error::Error for F2Error {}

impl From<f2_relation::RelationError> for F2Error {
    fn from(e: f2_relation::RelationError) -> Self {
        F2Error::Relation(e.to_string())
    }
}

impl From<f2_crypto::CryptoError> for F2Error {
    fn from(e: f2_crypto::CryptoError) -> Self {
        F2Error::Crypto(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = F2Error::InvalidConfig("alpha".into());
        assert!(e.to_string().contains("alpha"));
        let r: F2Error = f2_relation::RelationError::SchemaMismatch.into();
        assert!(matches!(r, F2Error::Relation(_)));
        let c: F2Error = f2_crypto::CryptoError::DecryptionFailed.into();
        assert!(matches!(c, F2Error::Crypto(_)));
        let p = F2Error::WorkerPanicked { chunk: 3, message: "index out of bounds".into() };
        assert!(p.to_string().contains("chunk 3"), "{p}");
        assert!(p.to_string().contains("index out of bounds"), "{p}");
    }
}
