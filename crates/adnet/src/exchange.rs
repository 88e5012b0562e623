//! The live bid exchange: drains the fleet's [`BidSink`] through the ad
//! network's auction and appends every settled request to a deterministic
//! [`BidExchangeLog`].
//!
//! Determinism contract: [`BidSink::drain`] yields pending requests in
//! canonical `(device, seq)` order, and [`BidExchange::pump`] auctions them
//! in exactly that order — so ledger spend, frequency-cap state and the
//! exchange-log bytes are a pure function of the per-device request
//! sequences. Two fleets serving the same workload settle bit-identical
//! logs regardless of shard count or fault schedule, provided each pump
//! runs at a workload synchronization point (e.g. after the fleet drains).

use privlocad_openrtb::{
    BidExchangeLog, BidRequest, BidSink, DecodeError, ExchangeRecord, PendingBid,
};
use privlocad_telemetry::{Determinism, Telemetry};

use crate::AdNetwork;

/// Per-pump counters, flushed by [`BidExchange::drain_telemetry`].
#[derive(Debug, Clone, Copy, Default)]
struct ExchangeStats {
    bid_requests: u64,
    bids_won: u64,
    no_bids: u64,
    revenue_micros: u64,
}

/// An ad exchange bridging the serving fleet's bid sink to the
/// [`AdNetwork`] auction, accumulating the attacker-observable
/// [`BidExchangeLog`].
#[derive(Debug, Default)]
pub struct BidExchange {
    network: AdNetwork,
    log: BidExchangeLog,
    stats: ExchangeStats,
}

impl BidExchange {
    /// Creates an exchange auctioning through `network`.
    pub fn new(network: AdNetwork) -> Self {
        BidExchange { network, log: BidExchangeLog::new(), stats: ExchangeStats::default() }
    }

    /// Drains every pending request from `sink` and auctions them in
    /// canonical order, returning how many were settled.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] if a drained frame is malformed —
    /// impossible for frames the sink itself encoded, but kept typed so a
    /// corrupted hand-off fails loudly instead of panicking.
    pub fn pump(&mut self, sink: &BidSink) -> Result<usize, DecodeError> {
        let pending = sink.drain();
        self.pump_pending(&pending)
    }

    /// Auctions an already-drained batch in its given order. Split out from
    /// [`BidExchange::pump`] so benchmarks can re-run the same batch
    /// against fresh exchanges.
    pub fn pump_pending(&mut self, pending: &[PendingBid]) -> Result<usize, DecodeError> {
        for p in pending {
            let (request, _) = BidRequest::decode_slice(&p.frame)?;
            let response = self.network.serve_exchange(&request);
            self.stats.bid_requests += 1;
            match &response.seatbid {
                Some(sb) => {
                    self.stats.bids_won += 1;
                    self.stats.revenue_micros += sb.bid.price_micros;
                }
                None => self.stats.no_bids += 1,
            }
            self.log.append(ExchangeRecord {
                request,
                response,
                request_frame: p.frame.clone(),
                response_frame: response.encode(),
            });
        }
        Ok(pending.len())
    }

    /// The settled-auction log — the longitudinal attacker's live feed.
    pub fn log(&self) -> &BidExchangeLog {
        &self.log
    }

    /// The underlying ad network (inventory, ledger state).
    pub fn network(&self) -> &AdNetwork {
        &self.network
    }

    /// Flushes the accumulated exchange counters into `telemetry`'s
    /// registry, resetting the local buffer. Every metric registers on
    /// every drain so the exported schema stays stable.
    pub fn drain_telemetry(&mut self, telemetry: &Telemetry) {
        let stats = std::mem::take(&mut self.stats);
        let registry = telemetry.registry();
        let class = Determinism::Deterministic;
        registry.counter("rtb.bid_requests", class).add(stats.bid_requests);
        registry.counter("rtb.bids_won", class).add(stats.bids_won);
        registry.counter("rtb.no_bids", class).add(stats.no_bids);
        registry.counter("rtb.revenue_micros", class).add(stats.revenue_micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, Targeting};
    use privlocad_geo::Point;
    use privlocad_openrtb::{DeviceId, Geo};

    fn exchange() -> BidExchange {
        let campaigns = vec![
            Campaign::new(0u64, "near", Targeting::radius(Point::ORIGIN, 5_000.0).unwrap(), 8.0)
                .unwrap(),
            Campaign::new(
                1u64,
                "also-near",
                Targeting::radius(Point::ORIGIN, 5_000.0).unwrap(),
                5.0,
            )
            .unwrap(),
        ];
        BidExchange::new(AdNetwork::new(campaigns))
    }

    #[test]
    fn pump_settles_in_canonical_order() {
        let sink = BidSink::new();
        sink.submit(DeviceId::new(2), Geo { x: 100.0, y: 0.0 });
        sink.submit(DeviceId::new(1), Geo { x: 90_000.0, y: 0.0 });
        let mut ex = exchange();
        assert_eq!(ex.pump(&sink).unwrap(), 2);
        assert_eq!(sink.pending(), 0);
        let records: Vec<(u64, bool)> =
            ex.log().records().map(|r| (r.request.device.id.raw(), r.response.is_win())).collect();
        assert_eq!(records, vec![(1, false), (2, true)]);
        assert_eq!(ex.log().revenue_micros(), 5_000_000);
    }

    #[test]
    fn pump_order_decides_spend_deterministically() {
        // Same submissions, two interleavings — the canonical drain order
        // must make ledger spend and log digests identical.
        let make_log = |first_device: u64| {
            let sink = BidSink::new();
            sink.submit(DeviceId::new(first_device), Geo::default());
            sink.submit(DeviceId::new(3 - first_device), Geo::default());
            let mut ex = exchange();
            ex.pump(&sink).unwrap();
            ex.log().digest()
        };
        assert_eq!(make_log(1), make_log(2));
    }

    #[test]
    fn telemetry_drain_flushes_counters() {
        use privlocad_telemetry::Telemetry;
        let sink = BidSink::new();
        sink.submit(DeviceId::new(1), Geo::default());
        sink.submit(DeviceId::new(1), Geo { x: 90_000.0, y: 0.0 });
        let mut ex = exchange();
        ex.pump(&sink).unwrap();
        let telemetry = Telemetry::new();
        ex.drain_telemetry(&telemetry);
        let snapshot = telemetry.registry().snapshot();
        assert_eq!(snapshot.counter("rtb.bid_requests"), Some(2));
        assert_eq!(snapshot.counter("rtb.bids_won"), Some(1));
        assert_eq!(snapshot.counter("rtb.no_bids"), Some(1));
        assert_eq!(snapshot.counter("rtb.revenue_micros"), Some(5_000_000));
        // The buffer reset: a second drain adds nothing.
        ex.drain_telemetry(&telemetry);
        assert_eq!(telemetry.registry().snapshot().counter("rtb.bid_requests"), Some(2));
    }
}
