//! Shared on-disk framing primitives.
//!
//! Every persisted artifact uses the same record frame:
//!
//! ```text
//! u32 LE payload length | u64 LE FNV-1a-64 checksum | payload bytes
//! ```
//!
//! and the same 8-byte file header: 4 ASCII magic bytes (`EFSN`/`EFWL`
//! for the simulator's snapshots and log, `EFGS`/`EFGW` for the
//! gateway's) followed by a `u32` LE format version. Checksums use the
//! simulator's own [`elasticflow_sim::fnv1a64`] so a digest printed by
//! the persistence layer is directly comparable with golden-replay digests.
//!
//! Parsing distinguishes three shapes of bad bytes: a frame whose header
//! or payload extends past end-of-file is a *torn tail* (the expected
//! shape after a crash mid-write — recoverable by truncation); a complete
//! frame whose payload hashes to something other than its stored checksum
//! is *corruption* (a typed error, never a panic); anything else is
//! structural corruption.

use elasticflow_sim::fnv1a64;

use crate::error::PersistError;

/// Current on-disk format version for every artifact.
pub const PERSIST_VERSION: u32 = 1;

/// Byte length of the file header (magic + version).
pub const HEADER_LEN: usize = 8;
/// Byte length of a record-frame header (length + checksum).
pub const FRAME_HEADER_LEN: usize = 12;

/// Encodes the 8-byte file header.
pub fn encode_header(magic: &[u8; 4], version: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(magic);
    h[4..].copy_from_slice(&version.to_le_bytes());
    h
}

/// Validates a file header in place: magic first (wrong magic means this
/// is not our file at all), then version. Returns the version on success.
pub fn check_header(
    bytes: &[u8],
    magic: &'static [u8; 4],
    magic_name: &'static str,
) -> Result<u32, PersistError> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != magic {
        return Err(PersistError::BadMagic {
            expected: magic_name,
        });
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version == 0 || version > PERSIST_VERSION {
        return Err(PersistError::UnknownVersion {
            found: version,
            supported: PERSIST_VERSION,
        });
    }
    Ok(version)
}

/// Appends one framed record (length, checksum, payload) to `out`.
pub fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("record payload exceeds u32::MAX bytes");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The outcome of decoding one frame at `offset`.
#[derive(Debug)]
pub enum FrameRead<'a> {
    /// A complete, checksum-verified payload; `next` is the offset just
    /// past this frame.
    Complete {
        /// The verified payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// The bytes end before the frame does — a torn tail.
    Torn,
}

/// Decodes the frame starting at `offset` within `bytes`.
///
/// An incomplete frame header or payload yields [`FrameRead::Torn`]; a
/// complete frame with a wrong checksum yields
/// [`PersistError::ChecksumMismatch`].
pub fn decode_frame(bytes: &[u8], offset: usize) -> Result<FrameRead<'_>, PersistError> {
    let Some(rest) = bytes.get(offset..) else {
        return Ok(FrameRead::Torn);
    };
    if rest.len() < FRAME_HEADER_LEN {
        return Ok(FrameRead::Torn);
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let stored = u64::from_le_bytes([
        rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
    ]);
    let Some(payload) = rest.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len) else {
        return Ok(FrameRead::Torn);
    };
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(PersistError::ChecksumMismatch {
            offset: offset as u64,
            stored,
            computed,
        });
    }
    Ok(FrameRead::Complete {
        payload,
        next: offset + FRAME_HEADER_LEN + len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, b"hello");
        encode_frame(&mut buf, b"");
        match decode_frame(&buf, 0).unwrap() {
            FrameRead::Complete { payload, next } => {
                assert_eq!(payload, b"hello");
                match decode_frame(&buf, next).unwrap() {
                    FrameRead::Complete { payload, next } => {
                        assert_eq!(payload, b"");
                        assert_eq!(next, buf.len());
                    }
                    FrameRead::Torn => panic!("second frame torn"),
                }
            }
            FrameRead::Torn => panic!("first frame torn"),
        }
    }

    #[test]
    fn every_truncation_of_a_frame_is_torn_not_an_error() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, b"payload-bytes");
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut], 0) {
                Ok(FrameRead::Torn) => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
        assert!(matches!(
            decode_frame(&buf, 0),
            Ok(FrameRead::Complete { .. })
        ));
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, b"payload-bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(matches!(
            decode_frame(&buf, 0),
            Err(PersistError::ChecksumMismatch { offset: 0, .. })
        ));
    }

    #[test]
    fn header_checks_magic_then_version() {
        const SNAPSHOT_MAGIC: &[u8; 4] = b"EFSN";
        let h = encode_header(SNAPSHOT_MAGIC, PERSIST_VERSION);
        assert_eq!(check_header(&h, SNAPSHOT_MAGIC, "EFSN").unwrap(), 1);
        assert!(matches!(
            check_header(&h, b"EFWL", "EFWL"),
            Err(PersistError::BadMagic { expected: "EFWL" })
        ));
        let newer = encode_header(SNAPSHOT_MAGIC, PERSIST_VERSION + 1);
        assert!(matches!(
            check_header(&newer, SNAPSHOT_MAGIC, "EFSN"),
            Err(PersistError::UnknownVersion { found, supported })
                if found == PERSIST_VERSION + 1 && supported == PERSIST_VERSION
        ));
        assert!(matches!(
            check_header(b"EFS", SNAPSHOT_MAGIC, "EFSN"),
            Err(PersistError::BadMagic { .. })
        ));
    }
}
