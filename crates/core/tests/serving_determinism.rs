//! The posterior-weight cache is pure post-processing acceleration: serving
//! with warm cached tables and serving with the cache flushed before every
//! single request (forcing a from-scratch weight recompute) must produce
//! bit-for-bit identical output streams — across multiple protection-window
//! cycles, and with per-user streams regardless of how users are
//! partitioned over worker threads. The checkpoint bytes a device
//! produces are pinned against a golden digest.

use privlocad::{filter_ads_by, EdgeDevice, SystemConfig};
use privlocad_adnet::{AdNetwork, Campaign, Targeting};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::{fnv1a64, BidRequest, BidResponse, DeviceId, Geo};

const WINDOW_CYCLES: usize = 3;
const REQUESTS_PER_CYCLE: usize = 25;

fn network() -> AdNetwork {
    AdNetwork::new(vec![
        Campaign::new(
            0u64,
            "home-cafe",
            Targeting::radius(Point::new(0.0, 0.0), 25_000.0).unwrap(),
            2.0,
        )
        .unwrap(),
        Campaign::new(
            1u64,
            "office-gym",
            Targeting::radius(Point::new(9_000.0, 0.0), 25_000.0).unwrap(),
            3.0,
        )
        .unwrap(),
        Campaign::new(2u64, "countrywide", Targeting::Country(86), 1.0).unwrap(),
    ])
}

/// One served ad request: the reported location, the exchange's response
/// to the bid carrying it, and the names of the ads that pass the AOI
/// filter at the true location.
type AdOutput = (Point, BidResponse, Vec<String>);

/// Drives one edge device through 3 protection-window cycles, recording the
/// full ad output stream: each reported location goes to the exchange as
/// an OpenRTB-lite bid, and the matching ads are filtered to the true area
/// of interest. When `flush` is set, the selection cache is dropped before
/// every request, so every draw recomputes its posterior weights from
/// scratch.
fn drive_edge(seed: u64, flush: bool) -> Vec<AdOutput> {
    let mut edge = EdgeDevice::new(SystemConfig::builder().build().unwrap(), seed);
    let radius = edge.config().targeting_radius_m();
    let mut net = network();
    let user = UserId::new(1);
    let home = Point::new(0.0, 0.0);
    let office = Point::new(9_000.0, 0.0);
    let mut stream = Vec::new();
    let mut seq = 0u64;
    for cycle in 0..WINDOW_CYCLES {
        // The office grows more prominent every cycle, so the top set (and
        // with it the cache keys) genuinely changes across windows.
        for _ in 0..40 {
            edge.report_checkin(user, home);
        }
        for _ in 0..(10 + 15 * cycle) {
            edge.report_checkin(user, office);
        }
        edge.finalize_window(user);
        for i in 0..REQUESTS_PER_CYCLE {
            if flush {
                edge.flush_selection_cache();
            }
            let at = match i % 3 {
                0 => home,
                1 => office,
                _ => Point::new(40_000.0, 40_000.0), // nomadic
            };
            let reported = edge.reported_location(user, at);
            let bid = BidRequest::new(DeviceId::new(1), seq, Geo::from_point(reported));
            let response = net.serve_exchange(&bid);
            let delivered = filter_ads_by(net.matching(reported), at, radius)
                .into_iter()
                .map(|ad| ad.name().to_owned())
                .collect();
            stream.push((reported, response, delivered));
            seq += 1;
        }
    }
    stream
}

#[test]
fn cached_and_from_scratch_ad_streams_are_identical() {
    for seed in [3, 17, 4242] {
        let cached = drive_edge(seed, false);
        let uncached = drive_edge(seed, true);
        assert_eq!(cached.len(), WINDOW_CYCLES * REQUESTS_PER_CYCLE);
        assert_eq!(cached, uncached, "seed {seed}: cache changed an output stream");
    }
}

/// Serves 6 users through 3 window cycles on `threads` worker threads,
/// each owning one per-user-stream device over a contiguous range of user
/// ids. When `flush` is set, the worker drops its device's selection cache
/// before every request. Returns the per-user reported-location streams,
/// which must not depend on `threads` or on `flush`.
fn drive_partitioned(seed: u64, threads: usize, flush: bool) -> Vec<Vec<Point>> {
    const USERS: u32 = 6;
    let config = SystemConfig::builder().build().unwrap();
    let per_worker = USERS.div_ceil(threads as u32);
    let handles: Vec<_> = (0..threads as u32)
        .map(|w| {
            std::thread::spawn(move || {
                let mut edge = EdgeDevice::new(config, seed);
                let mut out = Vec::new();
                for u in w * per_worker..((w + 1) * per_worker).min(USERS) {
                    let user = UserId::new(u);
                    let home = Point::new(f64::from(u) * 4_000.0, 0.0);
                    let away = home + Point::new(0.0, 7_000.0);
                    let mut stream = Vec::new();
                    for cycle in 0..WINDOW_CYCLES {
                        for _ in 0..30 {
                            edge.report_checkin(user, home);
                        }
                        for _ in 0..(5 + 12 * cycle) {
                            edge.report_checkin(user, away);
                        }
                        edge.finalize_window(user);
                        for i in 0..REQUESTS_PER_CYCLE {
                            if flush {
                                edge.flush_selection_cache();
                            }
                            let at = if i % 2 == 0 { home } else { away };
                            stream.push(edge.reported_location(user, at));
                        }
                    }
                    out.push((u, stream));
                }
                out
            })
        })
        .collect();
    let mut per_user = vec![Vec::new(); USERS as usize];
    for h in handles {
        for (u, stream) in h.join().unwrap() {
            per_user[u as usize] = stream;
        }
    }
    per_user
}

#[test]
fn per_user_streams_are_invariant_to_partition_and_cache_state() {
    let baseline = drive_partitioned(77, 1, false);
    for stream in &baseline {
        assert_eq!(stream.len(), WINDOW_CYCLES * REQUESTS_PER_CYCLE);
    }
    for threads in [1, 2] {
        for flush in [false, true] {
            if threads == 1 && !flush {
                continue;
            }
            let got = drive_partitioned(77, threads, flush);
            assert_eq!(
                got, baseline,
                "threads={threads} flush={flush} diverged from the 1-thread cached run"
            );
        }
    }
}

/// A small seeded workload that touches every field of a v2 checkpoint:
/// two top locations per user (candidate-set and posterior pools), served
/// requests at both tops and at a nomadic position (RNG positions), and
/// an open window of buffered check-ins.
fn golden_workload(edge: &mut EdgeDevice) {
    for u in 0..4u32 {
        let user = UserId::new(u);
        let home = Point::new(f64::from(u) * 7_000.0, 1_500.0);
        let office = home + Point::new(3_000.0, 0.0);
        for _ in 0..30 {
            edge.report_checkin(user, home);
        }
        for _ in 0..12 {
            edge.report_checkin(user, office);
        }
        edge.finalize_window(user);
        for i in 0..6 {
            let at = match i % 3 {
                0 => home,
                1 => office,
                _ => Point::new(-40_000.0, 0.0),
            };
            edge.reported_location(user, at);
        }
        for _ in 0..5 {
            edge.report_checkin(user, home);
        }
    }
}

/// The v2 checkpoint format is frozen: FNV-1a-64 of `checkpoint()` and its
/// length, pinned for a device with per-user streams. Any change to the
/// byte layout, the header's generator words or op-counter slot, or the
/// per-user draws shows up here.
#[test]
fn checkpoint_bytes_match_the_golden_digests() {
    let config = SystemConfig::builder().build().unwrap();
    let mut device = EdgeDevice::new(config, 2024);
    golden_workload(&mut device);
    let image = device.checkpoint();
    assert_eq!(image.len(), 3_451);
    assert_eq!(fnv1a64(&image), 0x0496_1cc9_7991_f31e);
    // The restore brings the device back to the same bytes, holding what
    // the decoder reads from them.
    let restored = EdgeDevice::restore_from_checkpoint(config, &image).unwrap();
    assert_eq!(restored.checkpoint(), image);
    let decoded = privlocad::recovery::DeviceSnapshot::decode(&image).unwrap();
    assert_eq!(restored.snapshot(), decoded);
}
