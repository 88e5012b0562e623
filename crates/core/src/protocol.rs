//! The client ↔ edge wire protocol.
//!
//! Edge-PrivLocAd's deployment separates the mobile client from the edge
//! device; this module defines the message set exchanged between them and
//! its compact binary frames.
//! [`EdgeHandle`](crate::EdgeHandle) is the client side of one shard and
//! the shard it calls the server side, both in process: a call hands its
//! request frame to the shard and gets the response frame back on the
//! same thread; a production deployment would move the same frames over
//! the radio link, one message per frame.
//!
//! Frames carry a one-byte tag followed by a fixed layout per message
//! type, all integers big-endian. Decoding is *total*: every parse path
//! is bounds-checked and rejects truncated, trailing-garbage, and
//! unknown-tag input with a [`FrameError`] — corrupted bytes can never
//! panic the serving loop. The fabric's sequenced envelope
//! ([`encode_sequenced`], [`split_sequenced`]) wraps a request frame in
//! its lane, its sequence number and a checksum over all three.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::{fnv1a32_extend, FNV1A32_OFFSET};
use serde::{Deserialize, Serialize};

/// A client → edge request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClientRequest {
    /// Passively report a true-location check-in (no response expected).
    CheckIn {
        /// The reporting user.
        user: UserId,
        /// True location in study-plane meters.
        location: Point,
        /// Seconds since the study epoch.
        timestamp: i64,
    },
    /// Ask the edge which location to report for an LBA request.
    RequestLocation {
        /// The requesting user.
        user: UserId,
        /// Current true location.
        location: Point,
    },
    /// Ask the edge to close the user's profile window now.
    FinalizeWindow {
        /// The user whose window closes.
        user: UserId,
    },
    /// Orderly shutdown of the serving loop.
    Shutdown,
}

/// An edge → client response.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EdgeResponse {
    /// The obfuscated location to use for the LBA request.
    ReportedLocation {
        /// The location to send to the ad network.
        location: Point,
    },
    /// Window closed; how many top locations were freshly obfuscated.
    WindowClosed {
        /// Newly protected top locations.
        fresh_obfuscations: u32,
    },
    /// Acknowledgement without payload (check-ins, shutdown).
    Ack,
    /// The request could not be served; the supervisor reports why so the
    /// client's reply channel fails explicitly instead of hanging.
    Error {
        /// Why the request failed.
        code: ErrorCode,
        /// Code-specific detail: remaining malformed-frame strikes for
        /// [`ErrorCode::Malformed`], worker restart count for
        /// [`ErrorCode::WorkerFailed`].
        detail: u32,
    },
}

/// Failure reason carried by an [`EdgeResponse::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request frame failed to decode on the server side.
    Malformed,
    /// The worker serving the request failed permanently (panicked past
    /// its restart budget).
    WorkerFailed,
    /// A sequenced frame carried a sequence number older than the
    /// server's dedup window: the original response can no longer be
    /// replayed, and re-serving would double-apply the request, so it is
    /// rejected explicitly.
    StaleSequence,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0x01,
            ErrorCode::WorkerFailed => 0x02,
            ErrorCode::StaleSequence => 0x03,
        }
    }

    fn from_wire(byte: u8) -> Result<Self, FrameError> {
        match byte {
            0x01 => Ok(ErrorCode::Malformed),
            0x02 => Ok(ErrorCode::WorkerFailed),
            0x03 => Ok(ErrorCode::StaleSequence),
            other => Err(FrameError::UnknownErrorCode(other)),
        }
    }
}

/// Error decoding a protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer is shorter than the frame layout requires.
    Truncated {
        /// Bytes required by the tag's layout.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The leading tag byte is not a known message type.
    UnknownTag(u8),
    /// The buffer is empty.
    Empty,
    /// The frame is longer than its tag's fixed layout — trailing bytes
    /// mean the sender and receiver disagree about the layout, so the
    /// whole frame is suspect.
    TrailingBytes {
        /// The frame's tag byte.
        tag: u8,
        /// Bytes past the end of the layout.
        extra: usize,
    },
    /// An [`EdgeResponse::Error`] frame carries an unknown failure code.
    UnknownErrorCode(u8),
    /// A sequenced frame's header checksum does not match its contents —
    /// the frame was corrupted in transit and nothing in it (not even the
    /// lane and sequence fields) can be trusted.
    ChecksumMismatch {
        /// The checksum the header declares.
        declared: u32,
        /// The checksum computed over the received bytes.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            FrameError::Empty => write!(f, "empty frame"),
            FrameError::TrailingBytes { tag, extra } => {
                write!(f, "frame with tag {tag:#04x} has {extra} trailing bytes")
            }
            FrameError::UnknownErrorCode(c) => {
                write!(f, "unknown error code {c:#04x} in error frame")
            }
            FrameError::ChecksumMismatch { declared, computed } => {
                write!(
                    f,
                    "sequenced frame checksum mismatch: header declares {declared:#010x}, bytes hash to {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

const TAG_CHECK_IN: u8 = 0x01;
const TAG_REQUEST_LOCATION: u8 = 0x02;
const TAG_FINALIZE: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_SEQUENCED: u8 = 0x05;
const TAG_REPORTED: u8 = 0x81;
const TAG_WINDOW_CLOSED: u8 = 0x82;
const TAG_ACK: u8 = 0x83;
const TAG_ERROR: u8 = 0x84;

/// Bytes of the longest request frame, a check-in: tag, user, two
/// coordinates and a timestamp.
const MAX_REQUEST_LEN: usize = 1 + 4 + 8 + 8 + 8;

/// Upper bound on a frame's length in bytes, sequenced envelope included:
/// the longest, a sequenced check-in, is 42 bytes.
const MAX_FRAME_LEN: usize = 64;

fn need(buf: &[u8], needed: usize) -> Result<(), FrameError> {
    if buf.len() < needed {
        Err(FrameError::Truncated { needed, got: buf.len() })
    } else {
        Ok(())
    }
}

/// Rejects frames longer than their tag's fixed layout: `rest` must be
/// exactly what the layout consumed.
fn finish(tag: u8, rest: &[u8]) -> Result<(), FrameError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(FrameError::TrailingBytes { tag, extra: rest.len() })
    }
}

/// The delivery header of a sequenced request frame: which per-user lane
/// the request belongs to and its position in that lane's logical
/// sequence. The pair identifies one *logical* request however many
/// times the transport delivers it, which is what lets the server's
/// dedup window give every request exactly-once effect under
/// retransmission and duplication (see [`crate::fabric`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceHeader {
    /// The per-user delivery lane (the raw user id).
    pub lane: u32,
    /// Zero-based position of this logical request in its lane.
    pub seq: u32,
}

/// Byte length of a sequenced-frame header: tag, lane, seq, checksum.
const SEQUENCED_HEADER_LEN: usize = 13;

/// Where a sequenced header's checksum sits: its last four bytes.
const SEQUENCED_CHECKSUM: std::ops::Range<usize> = SEQUENCED_HEADER_LEN - 4..SEQUENCED_HEADER_LEN;

/// FNV-1a (32-bit) over the header fields and the inner frame — the
/// transit checksum a sequenced frame carries so that *any* corruption,
/// including of the lane/seq fields themselves, is detected before the
/// dedup window is consulted. A corrupted header that aliased another
/// lane's sequence number would otherwise replay the wrong cached
/// response.
fn sequenced_checksum(lane: u32, seq: u32, inner: &[u8]) -> u32 {
    let hash = fnv1a32_extend(FNV1A32_OFFSET, &lane.to_be_bytes());
    fnv1a32_extend(fnv1a32_extend(hash, &seq.to_be_bytes()), inner)
}

/// Flips one bit, chosen by `salt`, inside a sequenced frame's declared
/// checksum. The recomputed checksum can then never match, so the shard
/// is guaranteed to detect the damage and answer with a malformed-frame
/// strike — a corrupted frame can never alias a cached response or apply
/// as fresh.
pub(crate) fn corrupt_sequenced_checksum(frame: &mut [u8], salt: u32) {
    let byte = SEQUENCED_CHECKSUM.start + salt as usize % SEQUENCED_CHECKSUM.len();
    frame[byte] ^= 1 << ((salt >> 8) % 8);
}

/// Wraps an encoded request frame in a sequenced delivery envelope:
/// tag, big-endian lane and sequence number, an FNV-1a checksum over
/// lane/seq/body, then the inner frame bytes.
///
/// # Panics
///
/// Panics if the wrapped frame would exceed the 64-byte frame cap — inner
/// frames produced by [`ClientRequest::encode`] never do.
pub fn encode_sequenced(lane: u32, seq: u32, request: &ClientRequest) -> Vec<u8> {
    // One buffer, written once: the header with a zeroed checksum slot,
    // then the inner frame, then the checksum over what was written.
    let mut buf = Vec::with_capacity(SEQUENCED_HEADER_LEN + MAX_REQUEST_LEN);
    buf.push(TAG_SEQUENCED);
    buf.extend_from_slice(&lane.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&[0; 4]);
    request.encode_into(&mut buf);
    assert!(buf.len() <= MAX_FRAME_LEN, "sequenced frame exceeds MAX_FRAME_LEN");
    let checksum = sequenced_checksum(lane, seq, &buf[SEQUENCED_HEADER_LEN..]);
    buf[SEQUENCED_CHECKSUM].copy_from_slice(&checksum.to_be_bytes());
    buf
}

/// Splits a sequenced frame into its verified [`SequenceHeader`] and the
/// inner request frame. Returns `Ok(None)` for frames that are not
/// sequenced (no leading envelope tag), so plain unsequenced frames
/// keep working unchanged.
///
/// Total like every other decode path: truncated headers and checksum
/// mismatches are rejected with a [`FrameError`], never a panic — a
/// corrupted sequenced frame costs its sender a malformed-frame strike
/// exactly like any other corrupted frame. The inner frame still has to
/// pass its own strict [`ClientRequest::decode`].
///
/// # Errors
///
/// Returns [`FrameError::Truncated`] for a short header and
/// [`FrameError::ChecksumMismatch`] when the frame was damaged in
/// transit.
pub fn split_sequenced(buf: &[u8]) -> Result<Option<(SequenceHeader, &[u8])>, FrameError> {
    match buf.first() {
        Some(&TAG_SEQUENCED) => {}
        _ => return Ok(None),
    }
    need(buf, SEQUENCED_HEADER_LEN)?;
    let lane = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
    let seq = u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]);
    let declared = u32::from_be_bytes([buf[9], buf[10], buf[11], buf[12]]);
    let inner = &buf[SEQUENCED_HEADER_LEN..];
    let computed = sequenced_checksum(lane, seq, inner);
    if computed != declared {
        return Err(FrameError::ChecksumMismatch { declared, computed });
    }
    Ok(Some((SequenceHeader { lane, seq }, inner)))
}

impl ClientRequest {
    /// The user this request operates on — `None` only for
    /// [`ClientRequest::Shutdown`]. A serving shard uses this to save,
    /// before each attempt at a request, the state of the one user the
    /// request can change — all a rollback of it needs.
    pub fn user(&self) -> Option<UserId> {
        match *self {
            ClientRequest::CheckIn { user, .. }
            | ClientRequest::RequestLocation { user, .. }
            | ClientRequest::FinalizeWindow { user } => Some(user),
            ClientRequest::Shutdown => None,
        }
    }

    /// Encodes the request into its wire frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(MAX_REQUEST_LEN);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the wire frame to `buf` without allocating a fresh buffer —
    /// how a client writes a frame once into the buffer it sends, and how
    /// [`encode_sequenced`] writes the inner frame behind its header.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        match *self {
            ClientRequest::CheckIn { user, location, timestamp } => {
                buf.put_u8(TAG_CHECK_IN);
                buf.put_u32(user.raw());
                buf.put_f64(location.x);
                buf.put_f64(location.y);
                buf.put_i64(timestamp);
            }
            ClientRequest::RequestLocation { user, location } => {
                buf.put_u8(TAG_REQUEST_LOCATION);
                buf.put_u32(user.raw());
                buf.put_f64(location.x);
                buf.put_f64(location.y);
            }
            ClientRequest::FinalizeWindow { user } => {
                buf.put_u8(TAG_FINALIZE);
                buf.put_u32(user.raw());
            }
            ClientRequest::Shutdown => buf.put_u8(TAG_SHUTDOWN),
        }
    }

    /// The wire frame in a buffer of its own, written once — what an
    /// [`crate::EdgeHandle`] sends.
    pub(crate) fn encode_vec(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(MAX_REQUEST_LEN);
        self.encode_into(&mut frame);
        frame
    }

    /// Decodes a request frame. Strict: the frame must be exactly its
    /// tag's fixed layout — truncated or trailing bytes are rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] for empty, truncated, over-long, or
    /// unknown frames.
    pub fn decode(mut buf: &[u8]) -> Result<Self, FrameError> {
        if buf.is_empty() {
            return Err(FrameError::Empty);
        }
        let tag = buf.get_u8();
        let decoded = match tag {
            TAG_CHECK_IN => {
                need(buf, 28)?;
                ClientRequest::CheckIn {
                    user: UserId::new(buf.get_u32()),
                    location: Point::new(buf.get_f64(), buf.get_f64()),
                    timestamp: buf.get_i64(),
                }
            }
            TAG_REQUEST_LOCATION => {
                need(buf, 20)?;
                ClientRequest::RequestLocation {
                    user: UserId::new(buf.get_u32()),
                    location: Point::new(buf.get_f64(), buf.get_f64()),
                }
            }
            TAG_FINALIZE => {
                need(buf, 4)?;
                ClientRequest::FinalizeWindow { user: UserId::new(buf.get_u32()) }
            }
            TAG_SHUTDOWN => ClientRequest::Shutdown,
            other => return Err(FrameError::UnknownTag(other)),
        };
        finish(tag, buf)?;
        Ok(decoded)
    }
}

impl EdgeResponse {
    /// Encodes the response into its wire frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(17);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the wire frame to `buf` without allocating a fresh buffer,
    /// for a caller that writes several frames into one buffer.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        // Each frame is assembled in a stack array and appended with one
        // `put_slice`: a single length check and copy per response, which
        // matters at batched-serving rates.
        match *self {
            EdgeResponse::ReportedLocation { location } => {
                let mut frame = [0u8; 17];
                frame[0] = TAG_REPORTED;
                frame[1..9].copy_from_slice(&location.x.to_bits().to_be_bytes());
                frame[9..17].copy_from_slice(&location.y.to_bits().to_be_bytes());
                buf.put_slice(&frame);
            }
            EdgeResponse::WindowClosed { fresh_obfuscations } => {
                let mut frame = [0u8; 5];
                frame[0] = TAG_WINDOW_CLOSED;
                frame[1..5].copy_from_slice(&fresh_obfuscations.to_be_bytes());
                buf.put_slice(&frame);
            }
            EdgeResponse::Ack => buf.put_u8(TAG_ACK),
            EdgeResponse::Error { code, detail } => {
                let mut frame = [0u8; 6];
                frame[0] = TAG_ERROR;
                frame[1] = code.to_wire();
                frame[2..6].copy_from_slice(&detail.to_be_bytes());
                buf.put_slice(&frame);
            }
        }
    }

    /// Decodes a response frame. Strict: the frame must be exactly its
    /// tag's fixed layout — truncated or trailing bytes are rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] for empty, truncated, over-long, or
    /// unknown frames.
    pub fn decode(mut buf: &[u8]) -> Result<Self, FrameError> {
        if buf.is_empty() {
            return Err(FrameError::Empty);
        }
        let tag = buf.get_u8();
        let decoded = match tag {
            TAG_REPORTED => {
                need(buf, 16)?;
                EdgeResponse::ReportedLocation {
                    location: Point::new(buf.get_f64(), buf.get_f64()),
                }
            }
            TAG_WINDOW_CLOSED => {
                need(buf, 4)?;
                EdgeResponse::WindowClosed { fresh_obfuscations: buf.get_u32() }
            }
            TAG_ACK => EdgeResponse::Ack,
            TAG_ERROR => {
                need(buf, 5)?;
                EdgeResponse::Error {
                    code: ErrorCode::from_wire(buf.get_u8())?,
                    detail: buf.get_u32(),
                }
            }
            other => return Err(FrameError::UnknownTag(other)),
        };
        finish(tag, buf)?;
        Ok(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<ClientRequest> {
        vec![
            ClientRequest::CheckIn {
                user: UserId::new(9),
                location: Point::new(-12.5, 98_000.25),
                timestamp: 86_400 * 500 + 3,
            },
            ClientRequest::RequestLocation {
                user: UserId::new(u32::MAX),
                location: Point::new(0.0, -0.0),
            },
            ClientRequest::FinalizeWindow { user: UserId::new(0) },
            ClientRequest::Shutdown,
        ]
    }

    fn responses() -> Vec<EdgeResponse> {
        vec![
            EdgeResponse::ReportedLocation { location: Point::new(1.25, -7.5) },
            EdgeResponse::WindowClosed { fresh_obfuscations: 3 },
            EdgeResponse::Ack,
            EdgeResponse::Error { code: ErrorCode::Malformed, detail: 2 },
            EdgeResponse::Error { code: ErrorCode::WorkerFailed, detail: 9 },
            EdgeResponse::Error { code: ErrorCode::StaleSequence, detail: 41 },
        ]
    }

    #[test]
    fn request_round_trips() {
        for r in requests() {
            assert_eq!(ClientRequest::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_round_trips() {
        for r in responses() {
            assert_eq!(EdgeResponse::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn truncation_detected() {
        for r in requests() {
            let bytes = r.encode();
            if bytes.len() > 1 {
                let err = ClientRequest::decode(&bytes[..bytes.len() - 1]).unwrap_err();
                assert!(matches!(err, FrameError::Truncated { .. }), "{r:?}: {err}");
            }
        }
        for r in responses() {
            let bytes = r.encode();
            if bytes.len() > 1 {
                let err = EdgeResponse::decode(&bytes[..bytes.len() - 1]).unwrap_err();
                assert!(matches!(err, FrameError::Truncated { .. }));
            }
        }
    }

    #[test]
    fn empty_and_unknown_frames() {
        assert_eq!(ClientRequest::decode(&[]), Err(FrameError::Empty));
        assert_eq!(EdgeResponse::decode(&[]), Err(FrameError::Empty));
        assert_eq!(ClientRequest::decode(&[0xFF]), Err(FrameError::UnknownTag(0xFF)));
        assert_eq!(EdgeResponse::decode(&[0x00]), Err(FrameError::UnknownTag(0x00)));
    }

    #[test]
    fn request_and_response_tags_do_not_overlap() {
        // Client tags < 0x80, edge tags ≥ 0x80: decoding a frame with the
        // wrong decoder fails rather than aliasing.
        for r in requests() {
            assert!(EdgeResponse::decode(&r.encode()).is_err());
        }
        for r in responses() {
            assert!(ClientRequest::decode(&r.encode()).is_err());
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(FrameError::Empty.to_string(), "empty frame");
        assert!(FrameError::UnknownTag(0xAB).to_string().contains("0xab"));
        assert!(FrameError::Truncated { needed: 20, got: 3 }.to_string().contains("need 20"));
        assert!(FrameError::TrailingBytes { tag: 0x01, extra: 4 }
            .to_string()
            .contains("4 trailing"));
        assert!(FrameError::UnknownErrorCode(0x7F).to_string().contains("0x7f"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        for r in requests() {
            let mut bytes = r.encode().to_vec();
            bytes.push(0x00);
            let err = ClientRequest::decode(&bytes).unwrap_err();
            assert!(matches!(err, FrameError::TrailingBytes { .. }), "{r:?}: {err}");
        }
        for r in responses() {
            let mut bytes = r.encode().to_vec();
            bytes.push(0xFF);
            let err = EdgeResponse::decode(&bytes).unwrap_err();
            assert!(matches!(err, FrameError::TrailingBytes { .. }), "{r:?}: {err}");
        }
    }

    #[test]
    fn unknown_error_code_rejected() {
        let mut bytes =
            EdgeResponse::Error { code: ErrorCode::Malformed, detail: 0 }.encode().to_vec();
        bytes[1] = 0x7F;
        assert_eq!(EdgeResponse::decode(&bytes), Err(FrameError::UnknownErrorCode(0x7F)));
    }

    #[test]
    fn sequenced_frames_round_trip() {
        for (seq, request) in requests().into_iter().enumerate() {
            let wire = encode_sequenced(7, seq as u32, &request);
            assert!(wire.len() <= MAX_FRAME_LEN);
            let (header, inner) = split_sequenced(&wire).unwrap().unwrap();
            assert_eq!(header, SequenceHeader { lane: 7, seq: seq as u32 });
            assert_eq!(ClientRequest::decode(inner).unwrap(), request);
        }
    }

    #[test]
    fn sequenced_frame_bytes_are_pinned() {
        // Tag, lane 7, seq 3, the FNV-1a-32 checksum over lane, seq and
        // body, then the inner window-close frame.
        let wire = encode_sequenced(7, 3, &ClientRequest::FinalizeWindow { user: UserId::new(7) });
        let pinned = [5, 0, 0, 0, 7, 0, 0, 0, 3, 0xad, 0x02, 0x61, 0x97, 3, 0, 0, 0, 7];
        assert_eq!(wire, pinned);
    }

    #[test]
    fn plain_frames_are_not_sequenced() {
        for request in requests() {
            assert_eq!(split_sequenced(&request.encode()), Ok(None));
        }
        assert_eq!(split_sequenced(&[]), Ok(None));
        // A sequenced frame is not decodable as a plain request: the
        // envelope tag is rejected, never aliased.
        let wire = encode_sequenced(1, 0, &ClientRequest::Shutdown);
        assert_eq!(ClientRequest::decode(&wire), Err(FrameError::UnknownTag(TAG_SEQUENCED)));
    }

    #[test]
    fn sequenced_corruption_is_detected_everywhere() {
        let wire = encode_sequenced(
            3,
            12,
            &ClientRequest::CheckIn {
                user: UserId::new(3),
                location: Point::new(5.0, -5.0),
                timestamp: 17,
            },
        );
        // Truncated header.
        assert!(matches!(
            split_sequenced(&wire[..SEQUENCED_HEADER_LEN - 1]),
            Err(FrameError::Truncated { .. })
        ));
        // A single flipped bit anywhere past the tag — lane, seq,
        // checksum, or body — fails the checksum: corruption can never
        // alias another lane's cached response.
        for byte in 1..wire.len() {
            let mut bad = wire.clone();
            bad[byte] ^= 0x40;
            assert!(
                matches!(split_sequenced(&bad), Err(FrameError::ChecksumMismatch { .. })),
                "flip at byte {byte} went undetected"
            );
        }
        // Truncated body fails the checksum too (it covers the length).
        assert!(matches!(
            split_sequenced(&wire[..wire.len() - 3]),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // So does every flip the fabric injects into the checksum: each
        // of its 4 bytes, each of 8 bits.
        for salt in (0..4).flat_map(|byte| (0..8).map(move |bit| byte | bit << 8)) {
            let mut bad = wire.clone();
            corrupt_sequenced_checksum(&mut bad, salt);
            assert!(matches!(split_sequenced(&bad), Err(FrameError::ChecksumMismatch { .. })));
        }
    }

    #[test]
    fn checksum_mismatch_display() {
        let e = FrameError::ChecksumMismatch { declared: 1, computed: 2 };
        assert!(e.to_string().contains("checksum mismatch"));
    }
}
