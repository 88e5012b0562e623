//! The bid sink against a model: random interleavings of `submit` over a
//! few devices, drained at random points, must drain exactly what a
//! `BTreeMap<(device, seq), frame>` of individually encoded requests holds
//! — same canonical order, same bytes — with sequence numbers continuing
//! across drains. Bulk submissions of up to three chunks' worth of bids
//! make drains span full, partial and freshly opened chunks.

use privlocad_openrtb::sink::CHUNK_FRAMES;
use privlocad_openrtb::{BidRequest, BidSink, DeviceId, Geo};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Raw device ids the cases draw from: small, sparse and extreme values,
/// so canonical order is exercised across the whole `u64` key space.
const DEVICES: [u64; 4] = [3, 0, u64::MAX, 1 << 40];

/// Drains the sink and asserts it handed back exactly the model's frames,
/// in the model's `(device, seq)` order, leaving both empty.
fn check_drain(sink: &BidSink, model: &mut BTreeMap<(u64, u64), Vec<u8>>) {
    let drained: Vec<(u64, u64, Vec<u8>)> = sink
        .drain()
        .into_iter()
        .map(|bid| (bid.device.raw(), bid.seq, bid.frame.to_vec()))
        .collect();
    let expected: Vec<(u64, u64, Vec<u8>)> = std::mem::take(model)
        .into_iter()
        .map(|((device, seq), frame)| (device, seq, frame))
        .collect();
    assert_eq!(drained, expected);
    assert_eq!(sink.pending(), 0);
}

/// Submits one bid to the sink and records it in the model.
fn submit(
    sink: &BidSink,
    next_seq: &mut BTreeMap<u64, u64>,
    model: &mut BTreeMap<(u64, u64), Vec<u8>>,
    device: u64,
    geo: Geo,
) {
    let counter = next_seq.entry(device).or_insert(0);
    let seq = *counter;
    *counter += 1;
    assert_eq!(sink.submit(DeviceId::new(device), geo), seq);
    let frame = BidRequest::new(DeviceId::new(device), seq, geo).encode();
    model.insert((device, seq), frame.to_vec());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn drains_match_a_model_of_individually_encoded_requests(
        ops in proptest::collection::vec(
            (0u8..12, 0usize..DEVICES.len(), -1e5f64..1e5, -1e5f64..1e5, 0..=3 * CHUNK_FRAMES),
            0..96,
        ),
    ) {
        let sink = BidSink::new();
        let mut next_seq: BTreeMap<u64, u64> = BTreeMap::new();
        let mut model: BTreeMap<(u64, u64), Vec<u8>> = BTreeMap::new();
        for (kind, pick, x, y, bulk) in ops {
            match kind {
                0 => check_drain(&sink, &mut model),
                // A bulk op: `bulk` bids round-robin over the devices.
                1 => {
                    for i in 0..bulk {
                        let device = DEVICES[(pick + i) % DEVICES.len()];
                        let geo = Geo { x: x + i as f64, y };
                        submit(&sink, &mut next_seq, &mut model, device, geo);
                    }
                }
                _ => submit(&sink, &mut next_seq, &mut model, DEVICES[pick], Geo { x, y }),
            }
            prop_assert_eq!(sink.pending(), model.len());
            prop_assert_eq!(sink.submitted(), next_seq.values().sum::<u64>());
        }
        check_drain(&sink, &mut model);
        prop_assert_eq!(sink.submitted(), next_seq.values().sum::<u64>());
    }
}
