//! The deterministic bid-exchange log — the attacker's observation channel.
//!
//! Every auctioned request appends one [`ExchangeRecord`] holding both the
//! decoded objects and the exact wire frames. Records are keyed by
//! `(device, seq)`, so iteration order, the log's wire bytes and
//! [`BidExchangeLog::digest`] are pure functions of the per-device request
//! sequences: two fleets serving the same workload produce bit-identical
//! logs regardless of shard count or fault schedule, and the digest is the
//! cheap equality witness the integration tests compare.

use bytes::Bytes;
use privlocad_geo::Point;
use std::collections::BTreeMap;

use crate::codec::{fnv1a64, fnv1a64_extend, BidRequest, BidResponse, DeviceId};

/// One auctioned request: decoded objects plus the exact wire frames.
#[derive(Debug, Clone)]
pub struct ExchangeRecord {
    /// The decoded bid request.
    pub request: BidRequest,
    /// The auction outcome.
    pub response: BidResponse,
    /// The request frame exactly as it crossed the wire.
    pub request_frame: Bytes,
    /// The encoded response frame.
    pub response_frame: Bytes,
}

impl ExchangeRecord {
    /// The released coordinate the request carried.
    #[must_use]
    pub fn location(&self) -> Point {
        self.request.device.geo.point()
    }
}

/// An append-only log of every request/response pair an exchange settled.
///
/// This is what the attack crate consumes: re-identification runs over the
/// exact bytes the fleet put on the wire.
#[derive(Debug, Clone, Default)]
pub struct BidExchangeLog {
    records: BTreeMap<(u64, u64), ExchangeRecord>,
}

impl BidExchangeLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        BidExchangeLog::default()
    }

    /// Appends one settled auction. A re-appended `(device, seq)` key
    /// replaces the previous record, keeping the log idempotent under
    /// at-least-once pump retries.
    pub fn append(&mut self, record: ExchangeRecord) {
        let key = (record.request.device.id.raw(), record.request.seq);
        self.records.insert(key, record);
    }

    /// Number of settled auctions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in canonical `(device, seq)` order.
    pub fn records(&self) -> impl Iterator<Item = &ExchangeRecord> {
        self.records.values()
    }

    /// The released locations observed for `device`, in request order.
    ///
    /// The canonical key order doubles as the per-device index: one range
    /// scan, no full-log rescan.
    #[must_use]
    pub fn locations_of(&self, device: DeviceId) -> Vec<Point> {
        self.records
            .range((device.raw(), 0)..=(device.raw(), u64::MAX))
            .map(|(_, r)| r.location())
            .collect()
    }

    /// Every device that appears in the log, ascending.
    #[must_use]
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = Vec::new();
        for &(device, _) in self.records.keys() {
            if out.last().is_none_or(|d| d.raw() != device) {
                out.push(DeviceId::new(device));
            }
        }
        out
    }

    /// Total cleared revenue across winning auctions, in micro-units.
    #[must_use]
    pub fn revenue_micros(&self) -> u64 {
        self.records
            .values()
            .filter_map(|r| r.response.seatbid.as_ref())
            .map(|sb| sb.bid.price_micros)
            .sum()
    }

    /// Number of auctions that cleared with a winning bid.
    #[must_use]
    pub fn wins(&self) -> usize {
        self.records.values().filter(|r| r.response.is_win()).count()
    }

    /// FNV-1a-64 digest of the log's wire bytes — every frame, request
    /// then response, per record, in canonical order: the log "as the
    /// attacker taps it". Hashed in place, record by record; the cheap
    /// bit-identity witness used by the determinism tests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.records.values().fold(fnv1a64(&[]), |hash, record| {
            let hash = fnv1a64_extend(hash, &record.request_frame);
            fnv1a64_extend(hash, &record.response_frame)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Bid, Geo, SeatBid};

    fn settle(log: &mut BidExchangeLog, device: u64, seq: u64, x: f64, win: bool) {
        let request = BidRequest::new(DeviceId::new(device), seq, Geo { x, y: 0.0 });
        let response = if win {
            BidResponse::win(
                request.id,
                SeatBid { seat: 1, bid: Bid { imp: 1, price_micros: 1_000_000, adm: 2 } },
            )
        } else {
            BidResponse::no_bid(request.id)
        };
        log.append(ExchangeRecord {
            request,
            response,
            request_frame: request.encode(),
            response_frame: response.encode(),
        });
    }

    #[test]
    fn per_device_queries_use_the_key_range() {
        let mut log = BidExchangeLog::new();
        settle(&mut log, 2, 0, 20.0, true);
        settle(&mut log, 1, 1, 11.0, false);
        settle(&mut log, 1, 0, 10.0, true);
        assert_eq!(log.devices(), vec![DeviceId::new(1), DeviceId::new(2)]);
        let xs: Vec<f64> = log.locations_of(DeviceId::new(1)).iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![10.0, 11.0]);
        assert_eq!(log.locations_of(DeviceId::new(3)), Vec::new());
        assert_eq!(log.wins(), 2);
        assert_eq!(log.revenue_micros(), 2_000_000);
    }

    /// Every frame, request then response, per record, in canonical
    /// order: the byte stream the digest hashes.
    fn wire_bytes(log: &BidExchangeLog) -> Vec<u8> {
        let frames = log.records.values().flat_map(|r| [&r.request_frame, &r.response_frame]);
        frames.flat_map(|frame| frame.iter().copied()).collect()
    }

    #[test]
    fn digest_is_insertion_order_independent() {
        let mut a = BidExchangeLog::new();
        let mut b = BidExchangeLog::new();
        settle(&mut a, 1, 0, 1.0, true);
        settle(&mut a, 2, 0, 2.0, false);
        settle(&mut b, 2, 0, 2.0, false);
        settle(&mut b, 1, 0, 1.0, true);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(wire_bytes(&a), wire_bytes(&b));
    }

    #[test]
    fn streamed_digest_is_the_hash_of_the_concatenated_frames() {
        let mut log = BidExchangeLog::new();
        assert_eq!(log.digest(), fnv1a64(&[]));
        for (device, seq) in [(3, 0), (1, 2), (1, 0), (2, 5)] {
            settle(&mut log, device, seq, device as f64 + seq as f64, seq % 2 == 0);
            assert_eq!(log.digest(), fnv1a64(&wire_bytes(&log)));
        }
        // Piece by piece from the empty hash is the one-shot hash.
        let bytes = wire_bytes(&log);
        let (head, tail) = bytes.split_at(17);
        assert_eq!(fnv1a64_extend(fnv1a64_extend(fnv1a64(&[]), head), tail), fnv1a64(&bytes));
    }

    #[test]
    fn reappending_a_key_is_idempotent() {
        let mut log = BidExchangeLog::new();
        settle(&mut log, 1, 0, 1.0, true);
        let digest = log.digest();
        settle(&mut log, 1, 0, 1.0, true);
        assert_eq!(log.len(), 1);
        assert_eq!(log.digest(), digest);
    }
}
