//! Generic sequenced snapshot files, shared by the simulator's state
//! directory ([`crate::PersistSession`]) and the `elasticflow-serve`
//! gateway directory:
//! `snapshot-NNNNNN.<extension>`, each an 8-byte magic+version header
//! and one checksummed frame around a JSON payload. Writes are atomic
//! (temp file `snapshot-NNNNNN.<extension>.tmp` + rename), keep the
//! newest file plus enough older ones to hold [`KEEP_SNAPSHOTS`] intact
//! snapshots, and clear temp files a crashed write left behind; loading
//! takes the newest file that passes validation.

use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::PersistError;
use crate::frame::{
    check_header, decode_frame, encode_frame, encode_header, FrameRead, HEADER_LEN, PERSIST_VERSION,
};

/// Intact snapshot files kept on disk after each write: the newest plus
/// one fallback for when the newest fails validation.
pub const KEEP_SNAPSHOTS: usize = 2;

/// Identity of one snapshot file format.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotKind {
    /// The 4 ASCII magic bytes opening the file.
    pub magic: &'static [u8; 4],
    /// The magic rendered as ASCII, for [`PersistError::BadMagic`].
    pub magic_name: &'static str,
    /// File extension without the dot (e.g. `"efsnap"`).
    pub extension: &'static str,
    /// Name used in error messages (e.g. `"snapshot"`).
    pub long_name: &'static str,
}

/// A snapshot payload: JSON carrying the format version it was written
/// under.
pub trait SnapshotPayload: Serialize + DeserializeOwned {
    /// The format version recorded in the payload.
    fn version(&self) -> u32;
}

impl SnapshotKind {
    /// Serializes `payload` into its on-disk bytes.
    pub fn encode<T: SnapshotPayload>(&self, payload: &T) -> Result<Vec<u8>, PersistError> {
        let json = serde_json::to_string(payload)?;
        let mut bytes = Vec::with_capacity(HEADER_LEN + json.len() + 16);
        bytes.extend_from_slice(&encode_header(self.magic, PERSIST_VERSION));
        encode_frame(&mut bytes, json.as_bytes());
        Ok(bytes)
    }

    /// Parses and validates snapshot bytes: magic, version, frame
    /// integrity, checksum, and payload decode. A truncated file is
    /// [`PersistError::Corrupt`]: snapshots are written atomically, so a
    /// short file is not a crash artifact the way a torn log tail is.
    pub fn decode<T: SnapshotPayload>(&self, bytes: &[u8]) -> Result<T, PersistError> {
        let payload = self.payload(bytes)?;
        let text = std::str::from_utf8(payload).map_err(|_| {
            PersistError::Corrupt(format!("{} payload is not valid UTF-8", self.long_name))
        })?;
        let value: T = serde_json::from_str(text)?;
        let found = value.version();
        if found == 0 || found > PERSIST_VERSION {
            let supported = PERSIST_VERSION;
            return Err(PersistError::UnknownVersion { found, supported });
        }
        Ok(value)
    }

    /// The payload of snapshot bytes whose envelope is intact — magic,
    /// version header, one complete frame whose checksum matches, and
    /// nothing after it — without parsing the payload. Every byte of a
    /// file is covered by these checks, so an on-disk corruption or a
    /// truncation fails here exactly as it fails [`SnapshotKind::decode`].
    fn payload<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], PersistError> {
        let name = self.long_name;
        check_header(bytes, self.magic, self.magic_name)?;
        let FrameRead::Complete { payload, next } = decode_frame(bytes, HEADER_LEN)? else {
            return Err(PersistError::Corrupt(format!(
                "{name} file is truncated mid-frame"
            )));
        };
        if next != bytes.len() {
            return Err(PersistError::Corrupt(format!(
                "{name} file has {} trailing bytes after its frame",
                bytes.len() - next
            )));
        }
        Ok(payload)
    }
}

/// What a newest-valid-wins scan found.
#[derive(Debug)]
pub struct LatestValid<T> {
    /// The newest snapshot that passed validation, with its sequence
    /// number; `None` when none did.
    pub valid: Option<(u64, T)>,
    /// Newer files that failed validation, as `(sequence, reason)`
    /// pairs, newest first.
    pub skipped: Vec<(u64, String)>,
}

/// The sequenced snapshot files of one kind in one directory.
#[derive(Debug, Clone)]
pub struct SnapshotStore<T> {
    kind: SnapshotKind,
    root: PathBuf,
    payload: PhantomData<fn() -> T>,
}

impl<T: SnapshotPayload> SnapshotStore<T> {
    /// The store of `kind` snapshots in the existing directory `root`.
    pub fn new(kind: SnapshotKind, root: PathBuf) -> Self {
        SnapshotStore {
            kind,
            root,
            payload: PhantomData,
        }
    }

    /// The directory holding the snapshots.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of snapshot number `seq`.
    pub fn path(&self, seq: u64) -> PathBuf {
        self.root
            .join(format!("snapshot-{seq:06}.{}", self.kind.extension))
    }

    /// Every snapshot sequence number present on disk, ascending.
    pub fn seqs(&self) -> Result<Vec<u64>, PersistError> {
        let mut seqs = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let stem = name.to_str().and_then(|n| {
                let n = n.strip_prefix("snapshot-")?;
                n.strip_suffix(self.kind.extension)?.strip_suffix('.')
            });
            seqs.extend(stem.and_then(|s| s.parse::<u64>().ok()));
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Removes every snapshot file of this kind; the next write starts
    /// the sequence again at 1.
    pub fn clear(&self) -> Result<(), PersistError> {
        for seq in self.seqs()? {
            std::fs::remove_file(self.path(seq))?;
        }
        Ok(())
    }

    /// Writes `payload` as the next snapshot in sequence, then prunes.
    /// Returns the new sequence number and the snapshot's encoded size
    /// in bytes.
    ///
    /// Pruning keeps every older file down to the newest
    /// `KEEP_SNAPSHOTS - 1` whose envelope is intact (magic, version
    /// header, checksum, length) and removes the files older than those,
    /// so a corrupt file never takes the place of a fallback: it stays
    /// until enough intact snapshots are newer than it. Older files are
    /// kept when none of them is intact. The payload is not parsed: the
    /// checksum covers it, and it was written by
    /// [`SnapshotKind::encode`], so an intact file decodes.
    ///
    /// A temp file of this kind found before the write is the leftover
    /// of a write that crashed before its rename, and is removed. Both
    /// removals are best-effort: once the rename has put the new
    /// snapshot in place the write has succeeded, so a file that cannot
    /// be removed stays behind and the next write tries again.
    pub fn write_next(&self, payload: &T) -> Result<(u64, u64), PersistError> {
        let temp_suffix = format!(".{}.tmp", self.kind.extension);
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str());
            if name.is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(&temp_suffix)) {
                std::fs::remove_file(&path).ok();
            }
        }
        let older = self.seqs()?;
        let seq = older.last().copied().unwrap_or(0) + 1;
        let bytes = self.kind.encode(payload)?;
        let tmp_path = self.root.join(format!("snapshot-{seq:06}{temp_suffix}"));
        std::fs::write(&tmp_path, &bytes)?;
        std::fs::rename(&tmp_path, self.path(seq))?;
        let mut older = older.iter().rev();
        let mut fallbacks = 0;
        while fallbacks + 1 < KEEP_SNAPSHOTS {
            let Some(&old) = older.next() else { break };
            let intact = std::fs::read(self.path(old)).is_ok_and(|b| self.kind.payload(&b).is_ok());
            fallbacks += usize::from(intact);
        }
        if fallbacks + 1 == KEEP_SNAPSHOTS {
            for &old in older {
                // Ignored on failure: the file is still listed by the next
                // write's `seqs`, which retries the removal.
                std::fs::remove_file(self.path(old)).ok();
            }
        }
        Ok((seq, bytes.len() as u64))
    }

    /// Loads the newest snapshot that passes full validation, skipping
    /// corrupt or unreadable ones and reporting what it passed over.
    pub fn latest_valid(&self) -> Result<LatestValid<T>, PersistError> {
        let mut skipped = Vec::new();
        let mut valid = None;
        for seq in self.seqs()?.into_iter().rev() {
            let bytes = std::fs::read(self.path(seq)).map_err(PersistError::from);
            match bytes.and_then(|bytes| self.kind.decode(&bytes)) {
                Ok(payload) => {
                    valid = Some((seq, payload));
                    break;
                }
                Err(e) => skipped.push((seq, e.to_string())),
            }
        }
        Ok(LatestValid { valid, skipped })
    }
}
