//! The typed error surface of the persistence layer.
//!
//! Every way stored state can be unusable maps to a distinct variant, so
//! callers can distinguish "nothing saved yet" from "saved but corrupt"
//! from "saved by an incompatible build" — and recovery code never panics
//! on bad bytes.

/// Any failure while writing, reading, or validating persisted state.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes — it is not
    /// (or is no longer) a file of the expected kind.
    BadMagic {
        /// The expected magic, as ASCII.
        expected: &'static str,
    },
    /// The file's format version is not one this build can read.
    UnknownVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// A complete, length-intact record failed checksum verification.
    ChecksumMismatch {
        /// Byte offset of the corrupt frame within the file.
        offset: u64,
        /// Checksum stored in the frame header.
        stored: u64,
        /// Checksum computed over the payload actually on disk.
        computed: u64,
    },
    /// The stored bytes are structurally invalid beyond a torn tail
    /// (e.g. a frame length that cannot fit in the file header region, or
    /// a write-ahead log shorter than the snapshot says it must be).
    Corrupt(String),
    /// A frame's payload is intact (checksum passed) but is not valid JSON
    /// for the expected type.
    Decode(serde_json::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::BadMagic { expected } => {
                write!(f, "bad magic: not an {expected} file")
            }
            PersistError::UnknownVersion { found, supported } => write!(
                f,
                "unknown persistence format version {found} (this build supports up to {supported})"
            ),
            PersistError::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at byte offset {offset}: stored {stored:#018x}, computed {computed:#018x}"
            ),
            PersistError::Corrupt(why) => write!(f, "corrupt persisted state: {why}"),
            PersistError::Decode(e) => write!(f, "persisted payload failed to decode: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Decode(e) => Some(e),
            PersistError::BadMagic { .. }
            | PersistError::UnknownVersion { .. }
            | PersistError::ChecksumMismatch { .. }
            | PersistError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Decode(e)
    }
}
