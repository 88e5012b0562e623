//! The bid-emission sink: where the serving fleet hands released locations
//! to the ad exchange.
//!
//! A [`BidSink`] is shared (`Arc`) between every shard of a serving fleet
//! and the exchange pump. Shards call [`BidSink::submit`] once per *applied*
//! request — the server's commit phase guarantees exactly-once emission —
//! and the exchange drains the pending requests, encoded, in canonical
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

/// Pending bids per backlog chunk: a chunk holds this many 24-byte
/// records, and is allocated once at full size when it opens.
pub const CHUNK_FRAMES: usize = 1_024;

/// One drained, not yet auctioned bid request.
#[derive(Debug, Clone)]
pub struct PendingBid {
    /// Submitting device.
    pub device: DeviceId,
    /// Per-device request ordinal (0-based submission count).
    pub seq: u64,
    /// The encoded OpenRTB-lite request frame: a zero-copy view into the
    /// one buffer its [`BidSink::drain`] encoded every frame into.
    pub frame: Bytes,
}

/// A pending bid as the sink holds it: what its frame says that nothing
/// else does. The seq is implied by the device's counter at the drain,
/// and the id, `imp`, header and checksum follow from the rest.
#[derive(Debug, Clone, Copy)]
struct Pending {
    device: DeviceId,
    geo: Geo,
}

// A field added to `Pending` regrows every bid of the backlog.
const _: () = assert!(std::mem::size_of::<Pending>() == 24);

#[derive(Debug, Default)]
struct SinkState {
    /// Next `seq` to assign, per device.
    next_seq: BTreeMap<u64, u64>,
    /// Bids awaiting a pump, in submission order across fixed-size
    /// chunks; every chunk but the last is full.
    chunks: Vec<Vec<Pending>>,
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
/// A pending bid is held as a 24-byte `(device, geo)` record, not as its
/// 60-byte frame, in chunks of [`CHUNK_FRAMES`] records, each allocated
/// once at full size and never grown, so the backlog never copies itself.
/// [`BidSink::submit`] only counts and appends; [`BidSink::drain`] encodes
/// every frame once, in canonical order.
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

    /// Enqueues one bid request for `device` at `geo`, returning the
    /// assigned per-device sequence number.
    ///
    /// `geo` must be a *released* obfuscated coordinate; this method is a
    /// modelled wire sink in the flow-analysis lint.
    pub fn submit(&self, device: DeviceId, geo: Geo) -> u64 {
        let mut state = self.state.lock();
        let counter = state.next_seq.entry(device.raw()).or_insert(0);
        let seq = *counter;
        *counter += 1;
        let bid = Pending { device, geo };
        match state.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_FRAMES => chunk.push(bid),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_FRAMES);
                chunk.push(bid);
                state.chunks.push(chunk);
            }
        }
        seq
    }

    /// Drains every pending request in canonical `(device, seq)` order.
    /// The frames are encoded here, back to back in that order into one
    /// buffer of exactly their size; each returned frame is a zero-copy
    /// view into it.
    pub fn drain(&self) -> Vec<PendingBid> {
        // The backlog and the counters come from one lock hold, so a
        // device's `k` pending bids are its last `k` submissions: seqs
        // `next - k .. next`, in submission order.
        let (chunks, next_seq) = {
            let mut state = self.state.lock();
            if state.chunks.is_empty() {
                return Vec::new();
            }
            (std::mem::take(&mut state.chunks), state.next_seq.clone())
        };
        let mut pending = chunks.concat();
        drop(chunks);
        // Stable, so each device's bids stay in submission order.
        pending.sort_by_key(|bid| bid.device);

        let mut keys = Vec::with_capacity(pending.len());
        let mut frames = BytesMut::with_capacity(pending.len() * REQUEST_FRAME_LEN);
        for run in pending.chunk_by(|a, b| a.device == b.device) {
            let device = run[0].device;
            let next = next_seq[&device.raw()];
            for (seq, bid) in (next - run.len() as u64..).zip(run) {
                BidRequest::new(device, seq, bid.geo).encode_into(&mut frames);
                keys.push((device, seq));
            }
        }
        let frames = frames.freeze();
        keys.into_iter()
            .enumerate()
            .map(|(at, (device, seq))| {
                let offset = at * REQUEST_FRAME_LEN;
                PendingBid { device, seq, frame: frames.slice(offset..offset + REQUEST_FRAME_LEN) }
            })
            .collect()
    }

    /// Number of requests awaiting a drain.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.state.lock().chunks.iter().map(Vec::len).sum()
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
        let keys: Vec<(u64, u64)> = drained.iter().map(|p| (p.device.raw(), p.seq)).collect();
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
