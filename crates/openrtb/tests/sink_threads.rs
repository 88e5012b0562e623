//! The bid sink under concurrent use: two submitter threads share device
//! ids while a third drains over and over. Every drain must be in
//! canonical `(device, seq)` order, the drains together must hand back
//! each submitted `(device, seq)` exactly once, and each frame must be the
//! request encoded from the geo that `submit` returned that seq for.
//!
//! The single-threaded model in `sink_proptests` cannot tell a drain that
//! reads the per-device counters in the lock hold that takes the backlog
//! from one that reads them in a later hold; here a submission landing
//! between the two shifts the drained seqs and breaks all three checks.

use privlocad_openrtb::{BidRequest, BidSink, DeviceId, Geo, PendingBid};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Raw device ids both submitters draw from.
const DEVICES: [u64; 5] = [3, 0, u64::MAX, 1 << 40, 17];

/// Bids each submitter sends per round.
const PER_SUBMITTER: usize = 20_000;

/// Rounds, each on a fresh sink: how long the threads overlap within one
/// round is up to the scheduler, so a race the checks can see gets
/// several chances to show.
const ROUNDS: usize = 8;

/// Submits `PER_SUBMITTER` bids round-robin over the devices, each with a
/// geo unique to `(submitter, i)`, and returns `((device, seq), geo)` as
/// `submit` assigned them.
fn submit_all(sink: &BidSink, submitter: usize) -> Vec<((u64, u64), Geo)> {
    (0..PER_SUBMITTER)
        .map(|i| {
            let device = DEVICES[(i + submitter) % DEVICES.len()];
            let geo = Geo { x: submitter as f64, y: i as f64 };
            ((device, sink.submit(DeviceId::new(device), geo)), geo)
        })
        .collect()
}

#[test]
fn concurrent_drains_hand_back_every_bid_once_in_canonical_order() {
    for _ in 0..ROUNDS {
        round();
    }
}

/// One round: both submitters and the drainer start together on a fresh
/// sink, and the drains are checked once all three are done.
fn round() {
    let sink = BidSink::new();
    let start = Barrier::new(3);
    let finished = AtomicUsize::new(0);
    let (submitted, drains) = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2)
            .map(|submitter| {
                let (sink, start, finished) = (&sink, &start, &finished);
                scope.spawn(move || {
                    start.wait();
                    let bids = submit_all(sink, submitter);
                    finished.fetch_add(1, Ordering::SeqCst);
                    bids
                })
            })
            .collect();
        let drainer = scope.spawn(|| {
            start.wait();
            let mut drains: Vec<Vec<PendingBid>> = Vec::new();
            loop {
                // Read before draining: once both submitters are done,
                // this drain is the last and takes whatever is left.
                let last = finished.load(Ordering::SeqCst) == 2;
                let drain = sink.drain();
                if !drain.is_empty() {
                    drains.push(drain);
                }
                if last {
                    return drains;
                }
            }
        });
        let submitted: BTreeMap<(u64, u64), Geo> =
            submitters.into_iter().flat_map(|s| s.join().expect("submitter panicked")).collect();
        (submitted, drainer.join().expect("drainer panicked"))
    });

    assert_eq!(submitted.len(), 2 * PER_SUBMITTER, "submit handed out a seq twice");
    assert_eq!(sink.pending(), 0);
    assert_eq!(sink.submitted(), (2 * PER_SUBMITTER) as u64);

    let mut drained: BTreeMap<(u64, u64), PendingBid> = BTreeMap::new();
    for drain in drains {
        let keys: Vec<(u64, u64)> = drain.iter().map(|bid| (bid.device.raw(), bid.seq)).collect();
        assert!(
            keys.windows(2).all(|pair| pair[0] < pair[1]),
            "a drain left canonical (device, seq) order"
        );
        for (key, bid) in keys.into_iter().zip(drain) {
            assert!(drained.insert(key, bid).is_none(), "{key:?} was drained twice");
        }
    }
    assert!(
        drained.keys().eq(submitted.keys()),
        "the drains do not hold exactly the submitted (device, seq) keys"
    );
    for (&(device, seq), bid) in &drained {
        let expected = BidRequest::new(DeviceId::new(device), seq, submitted[&(device, seq)]);
        assert_eq!(bid.frame, expected.encode(), "frame of ({device}, {seq})");
    }
}
