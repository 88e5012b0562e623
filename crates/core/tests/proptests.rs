//! Property-based tests of the Edge-PrivLocAd system invariants.

use privlocad::protocol::{ClientRequest, EdgeResponse};
use privlocad::{frequent_location_set, EdgeDevice, EtaThreshold, SystemConfig};
use privlocad_attack::{LocationProfile, ProfileEntry};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use proptest::prelude::*;

fn profile() -> impl Strategy<Value = LocationProfile> {
    proptest::collection::vec(1usize..500, 1..15).prop_map(|freqs| {
        LocationProfile::from_entries(freqs.into_iter().enumerate().map(|(i, f)| ProfileEntry {
            location: Point::new(i as f64 * 10_000.0, 0.0),
            frequency: f,
        }))
    })
}

proptest! {
    #[test]
    fn frequent_set_is_minimal_prefix(p in profile(), eta in 0.01..1.0f64) {
        let set = frequent_location_set(&p, EtaThreshold::Fraction(eta));
        let target = (eta * p.total_checkins() as f64).ceil() as usize;
        let covered: usize = set.iter().map(|e| e.frequency).sum();
        // Reaches the threshold (or exhausts the profile)…
        prop_assert!(covered >= target.min(p.total_checkins()));
        // …and is minimal: dropping the last entry goes below target.
        if set.len() > 1 {
            let without_last: usize = set[..set.len() - 1].iter().map(|e| e.frequency).sum();
            prop_assert!(without_last < target);
        }
        // It is a prefix of the rank-ordered profile.
        for (a, b) in set.iter().zip(p.iter()) {
            prop_assert_eq!(a.frequency, b.frequency);
        }
    }

    #[test]
    fn frequent_set_grows_with_eta(p in profile(), e1 in 0.05..0.9f64, de in 0.0..0.1f64) {
        let small = frequent_location_set(&p, EtaThreshold::Fraction(e1)).len();
        let large = frequent_location_set(&p, EtaThreshold::Fraction((e1 + de).min(1.0))).len();
        prop_assert!(large >= small);
    }

    #[test]
    fn reports_at_top_locations_come_from_candidates(
        seed in 0u64..200,
        hx in -10_000.0..10_000.0f64,
        hy in -10_000.0..10_000.0f64,
        window in 10usize..80,
        requests in 1usize..30,
    ) {
        let config = SystemConfig::builder().build().unwrap();
        let mut edge = EdgeDevice::new(config, seed);
        let user = UserId::new(0);
        let home = Point::new(hx, hy);
        for _ in 0..window {
            edge.report_checkin(user, home);
        }
        prop_assert_eq!(edge.finalize_window(user), 1);
        let candidates = edge.candidates(user, home).unwrap();
        prop_assert_eq!(candidates.len(), config.geo_ind().n());
        for _ in 0..requests {
            let reported = edge.reported_location(user, home);
            prop_assert!(candidates.contains(&reported));
            prop_assert!(reported != home, "the true location must never be reported");
        }
    }

    #[test]
    fn protocol_decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Fuzz the wire decoders: any byte soup must yield Ok or Err,
        // never a panic.
        let _ = ClientRequest::decode(&bytes);
        let _ = EdgeResponse::decode(&bytes);
    }

    #[test]
    fn protocol_request_round_trip(
        user in any::<u32>(),
        x in -1e6f64..1e6,
        y in -1e6f64..1e6,
        ts in 0i64..100_000_000,
        kind in 0usize..4,
    ) {
        let req = match kind {
            0 => ClientRequest::CheckIn {
                user: UserId::new(user),
                location: Point::new(x, y),
                timestamp: ts,
            },
            1 => ClientRequest::RequestLocation {
                user: UserId::new(user),
                location: Point::new(x, y),
            },
            2 => ClientRequest::FinalizeWindow { user: UserId::new(user) },
            _ => ClientRequest::Shutdown,
        };
        prop_assert_eq!(ClientRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn nomadic_reports_are_fresh_and_finite(
        seed in 0u64..200,
        x in -10_000.0..10_000.0f64,
        y in -10_000.0..10_000.0f64,
    ) {
        let config = SystemConfig::builder().build().unwrap();
        let mut edge = EdgeDevice::new(config, seed);
        let user = UserId::new(3);
        let spot = Point::new(x, y);
        let a = edge.reported_location(user, spot);
        let b = edge.reported_location(user, spot);
        prop_assert!(a.is_finite() && b.is_finite());
        prop_assert!(a != b);
        prop_assert!(a != spot && b != spot);
    }
}
