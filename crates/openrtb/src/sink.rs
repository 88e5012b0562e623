//! The bid-emission sink: where the serving fleet hands released locations
//! to the ad exchange.
//!
//! A [`BidSink`] is shared (`Arc`) between every shard of a serving fleet
//! and the exchange pump. Shards call [`BidSink::submit`] once per *applied*
//! request — the server's commit phase guarantees exactly-once emission —
//! and the exchange drains pending encoded requests in canonical
//! `(device, seq)` order, which makes the downstream auction stream a pure
//! function of the per-device request sequences and therefore invariant
//! across shard counts and fault schedules.
//!
//! The flow-analysis lint models [`BidSink::submit`] as a wire sink: only
//! released (obfuscated) coordinates may reach it.

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::codec::{BidRequest, DeviceId, Geo, REQUEST_FRAME_LEN};

/// Request frames per arena chunk.
pub const CHUNK_FRAMES: usize = 1_024;

/// Bytes of one arena chunk, allocated in full when the chunk opens.
const CHUNK_BYTES: usize = CHUNK_FRAMES * REQUEST_FRAME_LEN;

/// One submitted-but-not-yet-auctioned bid request.
#[derive(Debug, Clone)]
pub struct PendingBid {
    /// Submitting device.
    pub device: DeviceId,
    /// Per-device request ordinal (0-based submission count).
    pub seq: u64,
    /// The encoded OpenRTB-lite request frame.
    pub frame: Bytes,
}

#[derive(Debug, Default)]
struct SinkState {
    /// Next `seq` to assign, per device.
    next_seq: BTreeMap<u64, u64>,
    /// Encoded frames awaiting a pump, back to back in submission order
    /// across fixed-size chunks; every chunk but the last is full.
    chunks: Vec<BytesMut>,
}

/// A shared, thread-safe collection point for emitted bid requests.
///
/// Sequence numbers are assigned by submission count per device, so they are
/// independent of wall time and of which shard served the request; the
/// per-user in-order serving contract makes them stable across fleet
/// layouts. The sink outlives individual servers (it is cloned into the
/// fleet's `ServerOptions` template), so sequences stay continuous across
/// worker restarts and fabric heals.
///
/// Pending frames live back to back in chunks of [`CHUNK_FRAMES`] frames,
/// each allocated once at full size and never grown, so a pending bid
/// costs exactly its 60 wire bytes and the backlog never copies itself.
/// No index is kept: [`BidSink::drain`] reads each frame's `(device,
/// seq)` key back from the frame.
#[derive(Debug, Default)]
pub struct BidSink {
    state: Mutex<SinkState>,
}

impl BidSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        BidSink::default()
    }

    /// Encodes and enqueues one bid request for `device` at `geo`,
    /// returning the assigned per-device sequence number.
    ///
    /// `geo` must be a *released* obfuscated coordinate; this method is a
    /// modelled wire sink in the flow-analysis lint.
    pub fn submit(&self, device: DeviceId, geo: Geo) -> u64 {
        let mut state = self.state.lock();
        let counter = state.next_seq.entry(device.raw()).or_insert(0);
        let seq = *counter;
        *counter += 1;
        let request = BidRequest::new(device, seq, geo);
        match state.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_BYTES => request.encode_into(chunk),
            _ => {
                let mut chunk = BytesMut::with_capacity(CHUNK_BYTES);
                request.encode_into(&mut chunk);
                state.chunks.push(chunk);
            }
        }
        seq
    }

    /// Drains every pending request in canonical `(device, seq)` order.
    /// Each returned frame is a zero-copy view into a drained chunk.
    pub fn drain(&self) -> Vec<PendingBid> {
        let chunks: Vec<Bytes> = std::mem::take(&mut self.state.lock().chunks)
            .into_iter()
            .map(BytesMut::freeze)
            .collect();
        // `(device, seq, submission position)`, positions counted across
        // the chunks in order.
        let mut keys: Vec<(u64, u64, usize)> = chunks
            .iter()
            .flat_map(|chunk| chunk.chunks_exact(REQUEST_FRAME_LEN))
            .enumerate()
            .map(|(at, frame)| {
                let (device, seq) = BidRequest::frame_key(frame);
                (device, seq, at)
            })
            .collect();
        // `(device, seq)` keys are unique, so an unstable sort is canonical.
        keys.sort_unstable_by_key(|&(device, seq, _)| (device, seq));
        keys.into_iter()
            .map(|(device, seq, at)| {
                let offset = at % CHUNK_FRAMES * REQUEST_FRAME_LEN;
                PendingBid {
                    device: DeviceId::new(device),
                    seq,
                    frame: chunks[at / CHUNK_FRAMES].slice(offset..offset + REQUEST_FRAME_LEN),
                }
            })
            .collect()
    }

    /// Number of requests awaiting a drain.
    #[must_use]
    pub fn pending(&self) -> usize {
        let bytes: usize = self.state.lock().chunks.iter().map(|c| c.len()).sum();
        bytes / REQUEST_FRAME_LEN
    }

    /// Total requests submitted so far (drained or not).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.state.lock().next_seq.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_count_per_device() {
        let sink = BidSink::new();
        assert_eq!(sink.submit(DeviceId::new(1), Geo::default()), 0);
        assert_eq!(sink.submit(DeviceId::new(2), Geo::default()), 0);
        assert_eq!(sink.submit(DeviceId::new(1), Geo::default()), 1);
        assert_eq!(sink.submitted(), 3);
    }

    #[test]
    fn drain_is_in_canonical_order_and_empties_the_sink() {
        let sink = BidSink::new();
        sink.submit(DeviceId::new(9), Geo::default());
        sink.submit(DeviceId::new(1), Geo::default());
        sink.submit(DeviceId::new(9), Geo::default());
        let drained = sink.drain();
        let keys: Vec<(u64, u64)> =
            drained.iter().map(|p| (p.device.raw(), p.seq)).collect();
        assert_eq!(keys, vec![(1, 0), (9, 0), (9, 1)]);
        assert_eq!(sink.pending(), 0);
        // Sequences keep counting after a drain.
        assert_eq!(sink.submit(DeviceId::new(9), Geo::default()), 2);
    }

    #[test]
    fn submitted_frames_decode_back() {
        let sink = BidSink::new();
        let geo = Geo { x: 10.0, y: -4.5 };
        sink.submit(DeviceId::new(5), geo);
        let drained = sink.drain();
        let (req, consumed) = BidRequest::decode_slice(&drained[0].frame).unwrap();
        assert_eq!(consumed, drained[0].frame.len());
        assert_eq!(req.device.id, DeviceId::new(5));
        assert_eq!(req.device.geo, geo);
        assert_eq!(req.seq, 0);
    }
}
