//! Shared on-disk framing primitives.
//!
//! Every persisted artifact uses the same record frame:
//!
//! ```text
//! u32 LE payload length | u64 LE FNV-1a-64 checksum | payload bytes
//! ```
//!
//! and the same 8-byte file header: 4 ASCII magic bytes (`EFSN` for
//! the simulator's snapshots, `EFGS`/`EFGW` for the gateway's snapshots
//! and log) followed by a `u32` LE format version. Checksums use the
//! simulator's own [`elasticflow_sim::fnv1a64`] so a digest printed by
//! the persistence layer is directly comparable with golden-replay digests.
//!
//! Parsing distinguishes three shapes of bad bytes: a frame whose header
//! or payload extends past end-of-file is a *torn tail* (the expected
//! shape after a crash mid-write — recoverable by truncation); a complete
//! frame whose payload hashes to something other than its stored checksum
//! is *corruption* (a typed error, never a panic); anything else is
//! structural corruption.
//!
//! FNV-1a-64 is one serial multiply chain per payload, but frames are
//! independent of each other: [`decode_frames`] and [`encode_frames`]
//! checksum up to [`CHECKSUM_LANES`] frames at once in interleaved lanes
//! ([`fnv1a64_lanes`]), which changes neither a byte nor an error.

use elasticflow_sim::{fnv1a64, Fnv1a64};

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

/// Payloads [`fnv1a64_lanes`] hashes at once.
pub const CHECKSUM_LANES: usize = 4;

/// FNV-1a-64 of up to [`CHECKSUM_LANES`] payloads at once: lane `i`
/// holds exactly [`fnv1a64`]`(payloads[i])`; lanes past
/// `payloads.len()` hold nothing meaningful.
///
/// Each hash is a serial chain of multiplies, so one payload runs at the
/// multiplier's latency. The lanes run in lockstep over the shortest
/// payload's length, which keeps four independent chains in flight, and
/// then each finishes its tail alone.
///
/// # Panics
///
/// When given more than [`CHECKSUM_LANES`] payloads.
pub fn fnv1a64_lanes(payloads: &[&[u8]]) -> [u64; CHECKSUM_LANES] {
    assert!(
        payloads.len() <= CHECKSUM_LANES,
        "{} payloads for {CHECKSUM_LANES} checksum lanes",
        payloads.len()
    );
    let Some(&first) = payloads.first() else {
        return [Fnv1a64::new().finish(); CHECKSUM_LANES];
    };
    // Unused lanes repeat the first payload: the lockstep runs at the
    // pace of one chain however many lanes carry work.
    let lanes: [&[u8]; CHECKSUM_LANES] =
        std::array::from_fn(|i| payloads.get(i).copied().unwrap_or(first));
    let shared = lanes.iter().map(|p| p.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|p| &p[..shared]);
    let mut h = [Fnv1a64::new(); CHECKSUM_LANES];
    for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
        h[0].update(std::slice::from_ref(a));
        h[1].update(std::slice::from_ref(b));
        h[2].update(std::slice::from_ref(c));
        h[3].update(std::slice::from_ref(d));
    }
    for (hash, payload) in h.iter_mut().zip(lanes) {
        hash.update(&payload[shared..]);
    }
    h.map(|hash| hash.finish())
}

/// Appends one framed record (length, checksum, payload) to `out`.
pub fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) {
    push_frame(out, payload, fnv1a64(payload));
}

/// Appends up to [`CHECKSUM_LANES`] framed records to `out`, back to
/// back, with their checksums computed together. The bytes equal
/// [`encode_frame`] over each payload in turn; a single payload takes
/// that scalar path.
///
/// # Panics
///
/// When given more than [`CHECKSUM_LANES`] payloads.
pub fn encode_frames(out: &mut Vec<u8>, payloads: &[&[u8]]) {
    if let [payload] = payloads {
        encode_frame(out, payload);
        return;
    }
    let checksums = fnv1a64_lanes(payloads);
    for (payload, checksum) in payloads.iter().zip(checksums) {
        push_frame(out, payload, checksum);
    }
}

fn push_frame(out: &mut Vec<u8>, payload: &[u8], checksum: u64) {
    let len = u32::try_from(payload.len()).expect("record payload exceeds u32::MAX bytes");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
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
    let Some(frame) = frame_at(bytes, offset) else {
        return Ok(FrameRead::Torn);
    };
    let payload = frame.payload(bytes);
    frame.verify(fnv1a64(payload))?;
    Ok(FrameRead::Complete {
        payload,
        next: frame.next,
    })
}

/// Decodes every frame from `offset` to the end of `bytes`, pushing onto
/// `ends` the offset just past each verified frame, in file order.
/// Returns `true` when the bytes end in a torn frame.
///
/// The result is that of [`decode_frame`] called frame after frame, but
/// the checksums are verified [`CHECKSUM_LANES`] frames at a time. A
/// group is checked in file order, so the first bad frame is the
/// [`PersistError::ChecksumMismatch`] reported, at its own offset, with
/// `ends` holding every frame before it. Headers read past a bad frame
/// are discarded with it, and a torn frame is reached only after every
/// frame before it verified.
pub fn decode_frames(
    bytes: &[u8],
    mut offset: usize,
    ends: &mut Vec<u64>,
) -> Result<bool, PersistError> {
    let mut group = [Frame::default(); CHECKSUM_LANES];
    loop {
        let mut n = 0;
        let mut torn = false;
        while n < CHECKSUM_LANES && offset < bytes.len() {
            let Some(frame) = frame_at(bytes, offset) else {
                torn = true;
                break;
            };
            group[n] = frame;
            n += 1;
            offset = frame.next;
        }
        let mut payloads: [&[u8]; CHECKSUM_LANES] = [&[]; CHECKSUM_LANES];
        for (payload, frame) in payloads.iter_mut().zip(&group[..n]) {
            *payload = frame.payload(bytes);
        }
        let computed = fnv1a64_lanes(&payloads[..n]);
        for (frame, computed) in group[..n].iter().zip(computed) {
            frame.verify(computed)?;
            ends.push(frame.next as u64);
        }
        if torn || offset >= bytes.len() {
            return Ok(torn);
        }
    }
}

/// One complete frame's position and stored checksum.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    offset: usize,
    stored: u64,
    /// Offset of the byte after the frame.
    next: usize,
}

impl Frame {
    fn payload<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.offset + FRAME_HEADER_LEN..self.next]
    }

    fn verify(&self, computed: u64) -> Result<(), PersistError> {
        if computed == self.stored {
            Ok(())
        } else {
            Err(PersistError::ChecksumMismatch {
                offset: self.offset as u64,
                stored: self.stored,
                computed,
            })
        }
    }
}

/// The complete frame starting at `offset`; `None` when its header or
/// payload runs past the end of `bytes` (a torn tail).
fn frame_at(bytes: &[u8], offset: usize) -> Option<Frame> {
    let header = bytes.get(offset..offset + FRAME_HEADER_LEN)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let stored = u64::from_le_bytes([
        header[4], header[5], header[6], header[7], header[8], header[9], header[10], header[11],
    ]);
    let next = offset + FRAME_HEADER_LEN + len;
    (next <= bytes.len()).then_some(Frame {
        offset,
        stored,
        next,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Zero to nine payloads of unequal lengths, hashed in groups of
        /// up to four lanes (a short final group included): every lane
        /// equals the scalar hash, and the grouped frames equal frames
        /// encoded one at a time.
        #[test]
        fn lanes_equal_the_scalar_hash(
            payloads in prop::collection::vec(
                prop::collection::vec(any::<u8>(), 0..301),
                0..10,
            ),
        ) {
            let slices: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let mut grouped = Vec::new();
            let mut scalar = Vec::new();
            for group in slices.chunks(CHECKSUM_LANES) {
                let lanes = fnv1a64_lanes(group);
                for (payload, hash) in group.iter().zip(lanes) {
                    prop_assert_eq!(hash, fnv1a64(payload));
                    encode_frame(&mut scalar, payload);
                }
                encode_frames(&mut grouped, group);
            }
            prop_assert_eq!(grouped, scalar);
        }
    }

    #[test]
    fn lanes_cover_lockstep_and_tails() {
        let long = [0xa5u8; 300];
        let cases: [&[&[u8]]; 5] = [
            &[],
            &[b"solo"],
            &[b"", &long],
            &[b"abc", b"abcdef", &long[..7]],
            &[&long[..1], &long[..2], &long[..3], &long],
        ];
        for payloads in cases {
            let lanes = fnv1a64_lanes(payloads);
            for (payload, hash) in payloads.iter().zip(lanes) {
                assert_eq!(hash, fnv1a64(payload), "{payloads:?}");
            }
        }
    }

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
            check_header(&h, b"EFGS", "EFGS"),
            Err(PersistError::BadMagic { expected: "EFGS" })
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
