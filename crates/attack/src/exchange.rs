//! Ingestion of the live OpenRTB-lite bid stream — the attacker's actual
//! observation channel.
//!
//! Section III's observer does not get a curated per-user dataset; it taps
//! the bid-request bytes an ad exchange settles. [`ExchangeObservations`]
//! rebuilds the per-device observation sequences from exactly that
//! material: either the raw concatenated wire frames
//! ([`ExchangeObservations::from_wire`], decoding request frames and
//! skipping responses) or an already-settled
//! [`BidExchangeLog`]
//! ([`ExchangeObservations::from_log`]). Every experiment runs the attack
//! off these observations; there is no other feed.

use privlocad_geo::Point;
use privlocad_openrtb::{
    BidExchangeLog, BidRequest, DecodeError, DeviceId, FrameRef, KIND_BID_REQUEST,
};
use std::collections::BTreeMap;

use crate::deobfuscation::{DeobfuscationAttack, InferredLocation};

/// Per-device observation sequences reconstructed from the bid stream.
#[derive(Debug, Clone, Default)]
pub struct ExchangeObservations {
    per_device: BTreeMap<u64, Vec<Point>>,
}

impl ExchangeObservations {
    /// Parses a concatenated stream of OpenRTB-lite frames — the bytes as
    /// the attacker taps them. Bid-request frames contribute one
    /// observation each, keyed by the device identifier and ordered by the
    /// request sequence number; response frames are decoded (to advance
    /// the stream) and skipped.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] on a malformed or truncated
    /// frame; a real observer would resynchronize, but the evaluation
    /// demands bit-exact input.
    pub fn from_wire(mut stream: &[u8]) -> Result<Self, DecodeError> {
        let mut sequenced: BTreeMap<u64, Vec<(u64, Point)>> = BTreeMap::new();
        while !stream.is_empty() {
            let (frame, consumed) = FrameRef::decode(stream)?;
            if frame.kind == KIND_BID_REQUEST {
                let request = BidRequest::from_frame_ref(frame)?;
                sequenced
                    .entry(request.device.id.raw())
                    .or_default()
                    .push((request.seq, request.device.geo.point()));
            }
            stream = &stream[consumed..];
        }
        let per_device = sequenced
            .into_iter()
            .map(|(device, mut seen)| {
                seen.sort_by_key(|&(seq, _)| seq);
                (device, seen.into_iter().map(|(_, p)| p).collect())
            })
            .collect();
        Ok(ExchangeObservations { per_device })
    }

    /// Reads the observation sequences out of a settled exchange log.
    pub fn from_log(log: &BidExchangeLog) -> Self {
        let per_device = log
            .devices()
            .into_iter()
            .map(|device| (device.raw(), log.locations_of(device)))
            .collect();
        ExchangeObservations { per_device }
    }

    /// Every observed device, ascending.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.per_device.keys().map(|&raw| DeviceId::new(raw)).collect()
    }

    /// One device's observation sequence, in request order.
    pub fn locations_of(&self, device: DeviceId) -> &[Point] {
        self.per_device.get(&device.raw()).map_or(&[], Vec::as_slice)
    }

    /// Total observations across all devices.
    pub fn len(&self) -> usize {
        self.per_device.values().map(Vec::len).sum()
    }

    /// Whether no observations were captured.
    pub fn is_empty(&self) -> bool {
        self.per_device.is_empty()
    }

    /// Runs Algorithm 1 against one device's live observations.
    pub fn infer_top_locations(
        &self,
        attack: &DeobfuscationAttack,
        device: DeviceId,
        k: usize,
    ) -> Vec<InferredLocation> {
        attack.infer_top_locations(self.locations_of(device), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};
    use privlocad_openrtb::{BidResponse, Geo};

    fn wire(frames: &[(u64, u64, f64)]) -> Bytes {
        let mut buf = BytesMut::new();
        for &(device, seq, x) in frames {
            let request = BidRequest::new(DeviceId::new(device), seq, Geo { x, y: 0.0 });
            request.encode_into(&mut buf);
            BidResponse::no_bid(request.id).encode_into(&mut buf);
        }
        buf.freeze()
    }

    #[test]
    fn wire_taps_rebuild_per_device_sequences() {
        let stream = wire(&[(2, 0, 20.0), (1, 0, 10.0), (1, 1, 11.0)]);
        let obs = ExchangeObservations::from_wire(&stream).unwrap();
        assert_eq!(obs.devices(), vec![DeviceId::new(1), DeviceId::new(2)]);
        assert_eq!(obs.len(), 3);
        let xs: Vec<f64> = obs.locations_of(DeviceId::new(1)).iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![10.0, 11.0]);
        assert!(obs.locations_of(DeviceId::new(9)).is_empty());
    }

    #[test]
    fn truncated_streams_surface_a_decode_error() {
        let stream = wire(&[(1, 0, 1.0)]);
        assert!(matches!(
            ExchangeObservations::from_wire(&stream[..stream.len() - 3]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn observations_sort_by_sequence_not_arrival() {
        let stream = wire(&[(1, 1, 11.0), (1, 0, 10.0)]);
        let obs = ExchangeObservations::from_wire(&stream).unwrap();
        let xs: Vec<f64> = obs.locations_of(DeviceId::new(1)).iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![10.0, 11.0]);
    }
}
