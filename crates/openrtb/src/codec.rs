//! The OpenRTB-lite object model and its framed binary wire codec.
//!
//! The object shapes follow OpenRTB 2.x in miniature — a [`BidRequest`]
//! carries one [`Imp`] and one [`Device`] whose [`Geo`] holds the *released*
//! (obfuscated) candidate coordinate; a [`BidResponse`] carries at most one
//! [`SeatBid`] with the winning [`Bid`] — while the wire format is a compact
//! length-prefixed binary frame in the style of the v2 checkpoint frames:
//!
//! ```text
//! [version u8][kind u8][body_len u16 BE][body ...][checksum u32 BE]
//! ```
//!
//! The checksum is FNV-1a-32 over everything before it (header + body).
//! Frames are versioned for forward compatibility: a decoder at version `N`
//! accepts frames from versions `> N` by reading the body prefix it knows
//! and ignoring trailing extension bytes, while version-1 frames must carry
//! exactly the version-1 body. All integers are big-endian; prices are
//! integer micro-currency units so digests never depend on float formatting.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use privlocad_geo::Point;
use serde::{Deserialize, Serialize};

/// Wire-format version emitted by this codec.
pub const WIRE_VERSION: u8 = 1;

/// Frame kind byte for [`BidRequest`].
pub const KIND_BID_REQUEST: u8 = 0x01;

/// Frame kind byte for [`BidResponse`].
const KIND_BID_RESPONSE: u8 = 0x02;

/// Frame header length: version, kind, and the `u16` body length.
pub const HEADER_LEN: usize = 4;

/// Trailing FNV-1a-32 checksum length.
pub const CHECKSUM_LEN: usize = 4;

/// Version-1 [`BidRequest`] body length: `id` + `seq` + [`Imp`] + [`Device`].
pub const REQUEST_BODY_LEN: usize = 8 + 8 + 12 + 24;

/// Length of one framed version-1 [`BidRequest`], as its encoders write it.
pub(crate) const REQUEST_FRAME_LEN: usize = HEADER_LEN + REQUEST_BODY_LEN + CHECKSUM_LEN;

/// Version-1 no-bid [`BidResponse`] body length: `id` + seatbid flag.
const RESPONSE_NOBID_BODY_LEN: usize = 8 + 1;

/// Version-1 winning [`BidResponse`] body length: no-bid body + [`SeatBid`].
const RESPONSE_WIN_BODY_LEN: usize = RESPONSE_NOBID_BODY_LEN + 8 + 20;

/// FNV-1a-32 offset basis: the hash of no bytes, where
/// [`fnv1a32_extend`] starts a message.
pub const FNV1A32_OFFSET: u32 = 0x811c_9dc5;

/// FNV-1a 32-bit hash — the frame checksum.
#[must_use]
pub fn fnv1a32(data: &[u8]) -> u32 {
    fnv1a32_extend(FNV1A32_OFFSET, data)
}

/// Continues an FNV-1a-32 hash from the state `hash` over `data`. Fed a
/// message piece by piece from [`FNV1A32_OFFSET`], it returns [`fnv1a32`]
/// of the concatenated pieces without copying them together.
#[must_use]
pub fn fnv1a32_extend(mut hash: u32, data: &[u8]) -> u32 {
    for &b in data {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// FNV-1a-64 offset basis: the hash of no bytes, where
/// [`fnv1a64_extend`] starts a message.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash — request ids, creative ids and log digests.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, data)
}

/// Continues an FNV-1a-64 hash from the state `hash` over `data`. Fed a
/// message piece by piece from [`FNV1A64_OFFSET`], it returns [`fnv1a64`]
/// of the concatenated pieces without copying them together — the one
/// hash behind every seed-pure output digest the harnesses report.
#[must_use]
pub fn fnv1a64_extend(mut hash: u64, data: &[u8]) -> u64 {
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A typed decode failure. Every malformed input maps to one of these;
/// decoding never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs (once the header is readable, the full
        /// framed length; before that, the header length).
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The version byte is below the oldest version this codec speaks.
    UnsupportedVersion(u8),
    /// The kind byte names no known frame kind.
    UnknownKind(u8),
    /// The trailing FNV-1a-32 checksum does not match the frame content.
    ChecksumMismatch {
        /// Checksum recomputed over the received header + body.
        expected: u32,
        /// Checksum carried by the frame.
        got: u32,
    },
    /// The body length does not fit the object the kind byte announces:
    /// too short for any version, or not the exact length for a version-1
    /// frame (only frames from *newer* versions may carry trailing bytes).
    BadBodyLen {
        /// Frame kind whose body was malformed.
        kind: u8,
        /// Body bytes the version-1 object requires.
        needed: usize,
        /// Body bytes the frame carried.
        got: usize,
    },
    /// A well-formed response frame carried a seatbid flag other than 0/1.
    BadSeatBidFlag(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (oldest supported is {WIRE_VERSION})")
            }
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            DecodeError::ChecksumMismatch { expected, got } => {
                write!(f, "checksum mismatch: computed {expected:#010x}, frame says {got:#010x}")
            }
            DecodeError::BadBodyLen { kind, needed, got } => {
                write!(f, "kind 0x{kind:02x} body length mismatch: need {needed} bytes, got {got}")
            }
            DecodeError::BadSeatBidFlag(flag) => {
                write!(f, "seatbid flag must be 0 or 1, got {flag}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// An opaque stable device identifier, as carried in bid requests.
///
/// The ad network observes this identifier on every request — it is the
/// longitudinal linkage handle of the paper's threat model (§II). It lives
/// in this crate because it is a *wire* concept; `privlocad-adnet` re-exports
/// it for its serving ledger and auction requests.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DeviceId(u64);

impl DeviceId {
    /// Creates a device identifier from its raw value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        DeviceId(raw)
    }

    /// The raw identifier value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device-{:016x}", self.0)
    }
}

impl From<u64> for DeviceId {
    fn from(raw: u64) -> Self {
        DeviceId(raw)
    }
}

/// The OpenRTB `geo` object: the released coordinate, in projected meters.
///
/// Only *obfuscated* candidates may reach the wire here — the flow-analysis
/// lint models [`BidRequest::encode`] and the sink's `submit` as wire sinks.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Geo {
    /// Eastward offset from the projection origin, in meters.
    pub x: f64,
    /// Northward offset from the projection origin, in meters.
    pub y: f64,
}

impl Geo {
    /// Wraps a projected point.
    #[must_use]
    pub const fn from_point(p: Point) -> Self {
        Geo { x: p.x, y: p.y }
    }

    /// The coordinate as a geometry [`Point`].
    #[must_use]
    pub const fn point(self) -> Point {
        Point::new(self.x, self.y)
    }
}

/// The OpenRTB `imp` object: one impression offered for auction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Imp {
    /// Impression ordinal within the request (always 1 for this codec).
    pub id: u32,
    /// Reserve price in micro-currency units per mille.
    pub bidfloor_micros: u64,
}

impl Default for Imp {
    fn default() -> Self {
        Imp { id: 1, bidfloor_micros: 0 }
    }
}

/// The OpenRTB `device` object: the stable identifier plus its reported geo.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Device {
    /// Stable device identifier.
    pub id: DeviceId,
    /// Released (obfuscated) coordinate reported for this request.
    pub geo: Geo,
}

/// An OpenRTB-lite bid request: one impression from one device.
///
/// `seq` is the per-device request ordinal assigned at emission; it replaces
/// a wall-clock timestamp so the wire bytes stay a pure function of the
/// request stream (shard-count invariant). `id` is derived from
/// `(device, seq)` via FNV-1a-64, so it is stable too.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BidRequest {
    /// Exchange-unique request identifier, `fnv1a64(device ‖ seq)`.
    pub id: u64,
    /// Per-device request ordinal (0-based).
    pub seq: u64,
    /// The single impression offered.
    pub imp: Imp,
    /// The requesting device and its reported geo.
    pub device: Device,
}

impl BidRequest {
    /// Builds a request for `device`'s `seq`-th served location.
    #[must_use]
    pub fn new(device: DeviceId, seq: u64, geo: Geo) -> Self {
        let mut id_input = [0u8; 16];
        id_input[..8].copy_from_slice(&device.raw().to_be_bytes());
        id_input[8..].copy_from_slice(&seq.to_be_bytes());
        BidRequest {
            id: fnv1a64(&id_input),
            seq,
            imp: Imp::default(),
            device: Device { id: device, geo },
        }
    }

    /// Encodes the request as one framed wire message.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(REQUEST_FRAME_LEN);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the framed request to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_BID_REQUEST);
        buf.put_u16(REQUEST_BODY_LEN as u16);
        buf.put_u64(self.id);
        buf.put_u64(self.seq);
        buf.put_u32(self.imp.id);
        buf.put_u64(self.imp.bidfloor_micros);
        buf.put_u64(self.device.id.raw());
        buf.put_f64(self.device.geo.x);
        buf.put_f64(self.device.geo.y);
        let checksum = fnv1a32(&buf[start..]);
        buf.put_u32(checksum);
    }

    /// Decodes one framed request from the front of `bytes`, returning the
    /// request and the number of bytes consumed. The body is read in place,
    /// so decoding costs nothing beyond the checksum walk.
    pub fn decode_slice(bytes: &[u8]) -> Result<(BidRequest, usize), DecodeError> {
        let (frame, consumed) = FrameRef::decode(bytes)?;
        let request = BidRequest::from_frame_ref(frame)?;
        Ok((request, consumed))
    }

    /// Decodes the request body out of an already-verified [`FrameRef`].
    pub fn from_frame_ref(frame: FrameRef<'_>) -> Result<BidRequest, DecodeError> {
        if frame.kind != KIND_BID_REQUEST {
            return Err(DecodeError::UnknownKind(frame.kind));
        }
        frame.check_body_len(REQUEST_BODY_LEN)?;
        let mut body: &[u8] = frame.body;
        let id = body.get_u64();
        let seq = body.get_u64();
        let imp = Imp { id: body.get_u32(), bidfloor_micros: body.get_u64() };
        let device = Device {
            id: DeviceId::new(body.get_u64()),
            geo: Geo { x: body.get_f64(), y: body.get_f64() },
        };
        Ok(BidRequest { id, seq, imp, device })
    }
}

/// One bid inside a [`SeatBid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bid {
    /// The impression this bid is for (matches [`Imp::id`]).
    pub imp: u32,
    /// Clearing price in micro-currency units per mille (second price).
    pub price_micros: u64,
    /// Creative identifier (`adm` markup digest) of the winning campaign.
    pub adm: u64,
}

/// The OpenRTB `seatbid` object: the winning seat and its bid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeatBid {
    /// Winning seat — the campaign's raw identifier.
    pub seat: u64,
    /// The winning bid.
    pub bid: Bid,
}

/// An OpenRTB-lite bid response: either a no-bid or one winning seatbid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BidResponse {
    /// Echo of [`BidRequest::id`].
    pub id: u64,
    /// The winning seatbid, or `None` when no eligible campaign matched.
    pub seatbid: Option<SeatBid>,
}

impl BidResponse {
    /// Builds a no-bid response for request `id`.
    #[must_use]
    pub const fn no_bid(id: u64) -> Self {
        BidResponse { id, seatbid: None }
    }

    /// Builds a winning response for request `id`.
    #[must_use]
    pub const fn win(id: u64, seatbid: SeatBid) -> Self {
        BidResponse { id, seatbid: Some(seatbid) }
    }

    /// Whether this response carries a winning bid.
    #[must_use]
    pub const fn is_win(&self) -> bool {
        self.seatbid.is_some()
    }

    /// Encodes the response as one framed wire message.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + RESPONSE_WIN_BODY_LEN + CHECKSUM_LEN);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the framed response to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let start = buf.len();
        let body_len =
            if self.seatbid.is_some() { RESPONSE_WIN_BODY_LEN } else { RESPONSE_NOBID_BODY_LEN };
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_BID_RESPONSE);
        buf.put_u16(body_len as u16);
        buf.put_u64(self.id);
        match &self.seatbid {
            None => buf.put_u8(0),
            Some(sb) => {
                buf.put_u8(1);
                buf.put_u64(sb.seat);
                buf.put_u32(sb.bid.imp);
                buf.put_u64(sb.bid.price_micros);
                buf.put_u64(sb.bid.adm);
            }
        }
        let checksum = fnv1a32(&buf[start..]);
        buf.put_u32(checksum);
    }

    /// Decodes one framed response from the front of `bytes`, returning the
    /// response and the number of bytes consumed.
    pub fn decode_slice(bytes: &[u8]) -> Result<(BidResponse, usize), DecodeError> {
        let (frame, consumed) = FrameRef::decode(bytes)?;
        let response = BidResponse::from_frame_ref(frame)?;
        Ok((response, consumed))
    }

    /// Decodes the response body out of an already-verified [`FrameRef`].
    pub fn from_frame_ref(frame: FrameRef<'_>) -> Result<BidResponse, DecodeError> {
        if frame.kind != KIND_BID_RESPONSE {
            return Err(DecodeError::UnknownKind(frame.kind));
        }
        // The flag byte picks which of the two version-1 body lengths
        // applies, so length-check in two steps: first enough for the flag,
        // then the exact (or, on newer versions, prefix) length it implies.
        frame.check_body_prefix(RESPONSE_NOBID_BODY_LEN)?;
        let mut body: &[u8] = frame.body;
        let id = body.get_u64();
        let flag = body.get_u8();
        match flag {
            0 => {
                frame.check_body_len(RESPONSE_NOBID_BODY_LEN)?;
                Ok(BidResponse { id, seatbid: None })
            }
            1 => {
                frame.check_body_len(RESPONSE_WIN_BODY_LEN)?;
                let seat = body.get_u64();
                let bid =
                    Bid { imp: body.get_u32(), price_micros: body.get_u64(), adm: body.get_u64() };
                Ok(BidResponse { id, seatbid: Some(SeatBid { seat, bid }) })
            }
            other => Err(DecodeError::BadSeatBidFlag(other)),
        }
    }
}

/// A verified wire frame borrowed straight out of the input buffer.
///
/// [`FrameRef::decode`] validates framing (length, checksum, version, kind
/// — in that order) and hands back a plain `&[u8]` body view, so decoding
/// costs nothing beyond the checksum walk; the typed `from_frame_ref`
/// constructors then parse the body. Every decode path goes through this
/// type.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    /// Frame version byte (`>= WIRE_VERSION`).
    pub version: u8,
    /// Frame kind byte.
    pub kind: u8,
    /// Borrowed view of the body bytes.
    pub body: &'a [u8],
}

impl<'a> FrameRef<'a> {
    /// Decodes and verifies one frame from the front of `bytes`, returning
    /// the frame and the total bytes consumed (header + body + checksum).
    pub fn decode(bytes: &'a [u8]) -> Result<(FrameRef<'a>, usize), DecodeError> {
        if bytes.len() < HEADER_LEN {
            return Err(DecodeError::Truncated { needed: HEADER_LEN, got: bytes.len() });
        }
        let version = bytes[0];
        let kind = bytes[1];
        let body_len = usize::from(u16::from_be_bytes([bytes[2], bytes[3]]));
        let framed = HEADER_LEN + body_len + CHECKSUM_LEN;
        if bytes.len() < framed {
            return Err(DecodeError::Truncated { needed: framed, got: bytes.len() });
        }
        // Integrity first: only a frame whose checksum holds gets semantic
        // version/kind errors, so corruption is never misdiagnosed.
        let checksum_at = HEADER_LEN + body_len;
        let expected = fnv1a32(&bytes[..checksum_at]);
        let got = u32::from_be_bytes([
            bytes[checksum_at],
            bytes[checksum_at + 1],
            bytes[checksum_at + 2],
            bytes[checksum_at + 3],
        ]);
        if expected != got {
            return Err(DecodeError::ChecksumMismatch { expected, got });
        }
        if version < WIRE_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        if kind != KIND_BID_REQUEST && kind != KIND_BID_RESPONSE {
            return Err(DecodeError::UnknownKind(kind));
        }
        let body = &bytes[HEADER_LEN..checksum_at];
        Ok((FrameRef { version, kind, body }, framed))
    }

    /// Enforces the version-compatibility body-length rule: version-1 frames
    /// must carry exactly `needed` bytes; newer versions may append
    /// extension bytes after the known prefix (still checksummed).
    fn check_body_len(self, needed: usize) -> Result<(), DecodeError> {
        let got = self.body.len();
        let ok = if self.version == WIRE_VERSION { got == needed } else { got >= needed };
        if ok {
            Ok(())
        } else {
            Err(DecodeError::BadBodyLen { kind: self.kind, needed, got })
        }
    }

    /// Requires at least `needed` body bytes regardless of version.
    fn check_body_prefix(self, needed: usize) -> Result<(), DecodeError> {
        let got = self.body.len();
        if got >= needed {
            Ok(())
        } else {
            Err(DecodeError::BadBodyLen { kind: self.kind, needed, got })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> BidRequest {
        BidRequest::new(DeviceId::new(0xDEAD_BEEF), 7, Geo { x: 1234.5, y: -678.25 })
    }

    #[test]
    fn request_round_trips() {
        let req = request();
        let wire = req.encode();
        assert_eq!(wire.len(), HEADER_LEN + REQUEST_BODY_LEN + CHECKSUM_LEN);
        let (decoded, consumed) = BidRequest::decode_slice(&wire).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn response_round_trips_both_shapes() {
        let win = BidResponse::win(
            9,
            SeatBid { seat: 4, bid: Bid { imp: 1, price_micros: 2_500_000, adm: 77 } },
        );
        let no_bid = BidResponse::no_bid(9);
        for resp in [win, no_bid] {
            let wire = resp.encode();
            let (decoded, consumed) = BidResponse::decode_slice(&wire).unwrap();
            assert_eq!(decoded, resp);
            assert_eq!(consumed, wire.len());
        }
    }

    #[test]
    fn request_id_is_a_pure_function_of_device_and_seq() {
        let a = BidRequest::new(DeviceId::new(3), 5, Geo::default());
        let b = BidRequest::new(DeviceId::new(3), 5, Geo { x: 9.0, y: 9.0 });
        let c = BidRequest::new(DeviceId::new(3), 6, Geo::default());
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn streaming_decode_consumes_frame_by_frame() {
        let mut buf = BytesMut::new();
        request().encode_into(&mut buf);
        BidResponse::no_bid(request().id).encode_into(&mut buf);
        let block = buf.freeze();
        let (_, first) = BidRequest::decode_slice(&block).unwrap();
        let (resp, second) = BidResponse::decode_slice(&block[first..]).unwrap();
        assert_eq!(first + second, block.len());
        assert!(!resp.is_win());
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let wire = request().encode();
        assert_eq!(
            BidResponse::decode_slice(&wire),
            Err(DecodeError::UnknownKind(KIND_BID_REQUEST))
        );
    }

    #[test]
    fn version_zero_is_rejected() {
        let mut raw = request().encode().to_vec();
        raw[0] = 0;
        let checksum_at = raw.len() - CHECKSUM_LEN;
        let fixed = fnv1a32(&raw[..checksum_at]);
        raw[checksum_at..].copy_from_slice(&fixed.to_be_bytes());
        let err = BidRequest::decode_slice(&raw).unwrap_err();
        assert_eq!(err, DecodeError::UnsupportedVersion(0));
    }

    #[test]
    fn newer_version_with_extension_bytes_decodes_the_known_prefix() {
        let req = request();
        // Hand-build a version-2 frame: version-1 body + 4 extension bytes.
        let mut raw = Vec::new();
        raw.put_u8(2);
        raw.put_u8(KIND_BID_REQUEST);
        raw.put_u16((REQUEST_BODY_LEN + 4) as u16);
        let body_start = raw.len();
        raw.extend_from_slice(&req.encode()[HEADER_LEN..HEADER_LEN + REQUEST_BODY_LEN]);
        raw.extend_from_slice(&[0xAA; 4]);
        assert_eq!(raw.len() - body_start, REQUEST_BODY_LEN + 4);
        let checksum = fnv1a32(&raw);
        raw.put_u32(checksum);
        let (decoded, consumed) = BidRequest::decode_slice(&raw).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn version_one_frame_with_trailing_body_bytes_is_rejected() {
        let req = request();
        let mut raw = Vec::new();
        raw.put_u8(WIRE_VERSION);
        raw.put_u8(KIND_BID_REQUEST);
        raw.put_u16((REQUEST_BODY_LEN + 2) as u16);
        raw.extend_from_slice(&req.encode()[HEADER_LEN..HEADER_LEN + REQUEST_BODY_LEN]);
        raw.extend_from_slice(&[0, 0]);
        let checksum = fnv1a32(&raw);
        raw.put_u32(checksum);
        let err = BidRequest::decode_slice(&raw).unwrap_err();
        assert_eq!(
            err,
            DecodeError::BadBodyLen {
                kind: KIND_BID_REQUEST,
                needed: REQUEST_BODY_LEN,
                got: REQUEST_BODY_LEN + 2,
            }
        );
    }

    #[test]
    fn corrupted_byte_fails_the_checksum() {
        let wire = request().encode();
        for i in 0..wire.len() - CHECKSUM_LEN {
            let mut raw = wire.to_vec();
            raw[i] ^= 0x10;
            let err = BidRequest::decode_slice(&raw).unwrap_err();
            // Flips in the length prefix may re-frame into a truncation
            // instead; everything else must die on the checksum, because the
            // semantic version/kind checks run only on intact frames.
            assert!(
                matches!(err, DecodeError::ChecksumMismatch { .. } | DecodeError::Truncated { .. }),
                "byte {i}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let wire = request().encode();
        for len in 0..wire.len() {
            let err = BidRequest::decode_slice(&wire[..len]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "len {len}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bad_seatbid_flag_is_rejected() {
        let mut raw = Vec::new();
        raw.put_u8(WIRE_VERSION);
        raw.put_u8(KIND_BID_RESPONSE);
        raw.put_u16(RESPONSE_NOBID_BODY_LEN as u16);
        raw.put_u64(9);
        raw.put_u8(2);
        let checksum = fnv1a32(&raw);
        raw.put_u32(checksum);
        let err = BidResponse::decode_slice(&raw).unwrap_err();
        assert_eq!(err, DecodeError::BadSeatBidFlag(2));
    }

    #[test]
    fn device_id_displays_as_hex() {
        assert_eq!(DeviceId::new(0xAB).to_string(), "device-00000000000000ab");
    }
}
