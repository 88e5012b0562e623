//! OpenRTB-lite: the wire protocol between the serving fleet and the ad
//! exchange.
//!
//! The paper's threat model (§II–§III) has the attacker observing the *bid
//! request stream* an ad network emits. This crate is that stream's
//! substrate, in three pieces:
//!
//! - [`codec`]: a zero-copy OpenRTB-lite binary codec — [`BidRequest`] with
//!   `imp`/`device`/`geo` objects carrying the released obfuscated
//!   coordinate, [`BidResponse`] with `seatbid`/price/`adm`, framed with a
//!   version byte, length prefix and FNV-1a checksum, decoded in place from
//!   a borrowed byte slice ([`FrameRef`]).
//! - [`sink`]: the [`BidSink`] shards submit served locations into, with
//!   per-device sequence numbering that keeps the stream shard-count
//!   invariant.
//! - [`log`]: the deterministic [`BidExchangeLog`] of settled auctions that
//!   `privlocad-attack` ingests — re-identification runs over the exact
//!   bytes the fleet put on the wire.
//!
//! # Examples
//!
//! ```
//! use privlocad_openrtb::{BidRequest, DeviceId, Geo};
//!
//! let request = BidRequest::new(DeviceId::new(7), 0, Geo { x: 120.0, y: -40.0 });
//! let wire = request.encode();
//! let (decoded, consumed) = BidRequest::decode_slice(&wire)?;
//! assert_eq!(decoded, request);
//! assert_eq!(consumed, wire.len());
//! # Ok::<(), privlocad_openrtb::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod log;
pub mod sink;

pub use codec::{
    fnv1a32, fnv1a32_extend, fnv1a64, fnv1a64_extend, Bid, BidRequest, BidResponse, DecodeError,
    Device, DeviceId, FrameRef, Geo, Imp, SeatBid, CHECKSUM_LEN, FNV1A32_OFFSET, FNV1A64_OFFSET,
    HEADER_LEN, KIND_BID_REQUEST, REQUEST_BODY_LEN, WIRE_VERSION,
};
pub use log::{BidExchangeLog, ExchangeRecord};
pub use sink::{BidSink, PendingBid};
