//! Trace replay: one user's trace through the serving path to what the
//! longitudinal attacker observes.
//!
//! The attacker of Section III sees only what the ad network receives. A
//! replay takes exactly the path a fleet shard takes, minus the transport:
//! the trace's request [`schedule`] goes through
//! [`EdgeDevice::serve_batch`], the serving loop's own [`emit_bids`] turns
//! every served ad request into an OpenRTB-lite bid in a [`BidSink`], and
//! [`observe`] reads the drained frames back the way the attacker taps
//! them ([`ExchangeObservations::from_wire`]). Fig. 6, the integration
//! tests and the examples all read the attacker's view through here.
//!
//! # Examples
//!
//! ```
//! use privlocad::replay::{observe, replay_trace};
//! use privlocad::{EdgeDevice, SystemConfig};
//! use privlocad_mobility::PopulationConfig;
//! use privlocad_openrtb::{BidSink, DeviceId};
//!
//! let trace = PopulationConfig::builder().num_users(2).seed(3).build().generate_user(0);
//! let mut edge = EdgeDevice::new(SystemConfig::builder().build()?, 9);
//! let sink = BidSink::new();
//! replay_trace(&mut edge, &trace, &sink);
//! let seen = observe(&sink)?;
//! // One bid per check-in, none of them at a true location.
//! let observed = seen.locations_of(DeviceId::new(0));
//! assert_eq!(observed.len(), trace.checkins.len());
//! assert!(trace.checkins.iter().all(|c| !observed.contains(&c.location)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use bytes::BytesMut;
use privlocad_attack::ExchangeObservations;
use privlocad_mobility::{UserTrace, SECONDS_PER_DAY};
use privlocad_openrtb::{BidSink, DecodeError, DeviceId, Geo};

use crate::protocol::{ClientRequest, EdgeResponse};
use crate::EdgeDevice;

/// The requests one trace sends its edge, in time order: the profile
/// window closes every `window_days` days, so each check-in is preceded
/// by a `FinalizeWindow` for every window boundary passed since the
/// previous one, then sends a `CheckIn` (passive collection) and a
/// `RequestLocation` (the ad request it triggers) at its true location.
pub fn schedule(trace: &UserTrace, window_days: u32) -> impl Iterator<Item = ClientRequest> + '_ {
    let user = trace.user;
    let window = i64::from(window_days) * SECONDS_PER_DAY;
    let mut window_end = window;
    trace.checkins.iter().flat_map(move |checkin| {
        let timestamp = checkin.time.seconds();
        let mut closes = 0;
        while timestamp >= window_end {
            closes += 1;
            window_end += window;
        }
        let location = checkin.location;
        std::iter::repeat_n(ClientRequest::FinalizeWindow { user }, closes).chain([
            ClientRequest::CheckIn { user, location, timestamp },
            ClientRequest::RequestLocation { user, location },
        ])
    })
}

/// Serves `trace`'s [`schedule`] on `device` and emits one bid per served
/// ad request into `sink`.
pub fn replay_trace(device: &mut EdgeDevice, trace: &UserTrace, sink: &BidSink) {
    let requests: Vec<ClientRequest> = schedule(trace, device.config().window_days()).collect();
    let mut responses = Vec::with_capacity(requests.len());
    device.serve_batch(&requests, &mut responses);
    emit_bids(sink, &requests, &responses);
}

/// Emits one OpenRTB-lite bid request per applied ad request in a
/// committed batch. `requests` and `responses` are the serving loop's
/// parallel vectors, so the `(request, response)` pairs line up
/// one-to-one; only `RequestLocation` entries answered with a
/// `ReportedLocation` produce a bid, and the coordinate that crosses into
/// the sink is the *released* obfuscated candidate out of the response —
/// never the true position. The sink assigns the per-device sequence
/// number (submission count), which the per-user in-order serving
/// contract makes invariant to the user→shard partition.
pub fn emit_bids(sink: &BidSink, requests: &[ClientRequest], responses: &[EdgeResponse]) {
    for (request, response) in requests.iter().zip(responses) {
        if let (
            ClientRequest::RequestLocation { user, .. },
            EdgeResponse::ReportedLocation { location },
        ) = (request, response)
        {
            sink.submit(DeviceId::new(u64::from(user.raw())), Geo::from_point(*location));
        }
    }
}

/// Drains `sink` and parses the request frames, back to back as they
/// cross the wire, into the attacker's per-device observation sequences.
///
/// # Errors
///
/// Returns the [`DecodeError`] of the first malformed frame; frames the
/// sink encoded always decode.
pub fn observe(sink: &BidSink) -> Result<ExchangeObservations, DecodeError> {
    let pending = sink.drain();
    let mut wire = BytesMut::with_capacity(pending.iter().map(|bid| bid.frame.len()).sum());
    for bid in &pending {
        wire.extend_from_slice(&bid.frame);
    }
    ExchangeObservations::from_wire(&wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_attack::DeobfuscationAttack;
    use privlocad_geo::Point;
    use privlocad_mechanisms::NFoldGaussian;
    use privlocad_mobility::PopulationConfig;

    use crate::SystemConfig;

    fn population(n: usize) -> PopulationConfig {
        PopulationConfig::builder().num_users(n).seed(5).checkin_log_normal(5.5, 0.4).build()
    }

    /// Replays `trace` on a fresh device over `master` and returns what
    /// the attacker observes of it.
    fn observed(trace: &UserTrace, master: u64) -> Vec<Point> {
        let mut edge = EdgeDevice::new(SystemConfig::builder().build().unwrap(), master);
        let sink = BidSink::new();
        replay_trace(&mut edge, trace, &sink);
        let device = DeviceId::new(u64::from(trace.user.raw()));
        observe(&sink).unwrap().locations_of(device).to_vec()
    }

    #[test]
    fn schedule_closes_each_passed_window_before_the_checkin() {
        let user = population(1).generate_user(0);
        let window_days = 90;
        let requests: Vec<ClientRequest> = schedule(&user, window_days).collect();
        let window = i64::from(window_days) * SECONDS_PER_DAY;
        let last = user.checkins.last().unwrap().time.seconds();
        assert_eq!(
            requests.len(),
            2 * user.checkins.len() + (last / window) as usize,
            "two requests per check-in plus one close per boundary passed"
        );
        let mut checkins = user.checkins.iter();
        let mut closes = 0i64;
        for (i, request) in requests.iter().enumerate() {
            match *request {
                ClientRequest::FinalizeWindow { .. } => closes += 1,
                ClientRequest::CheckIn { location, timestamp, .. } => {
                    let checkin = checkins.next().unwrap();
                    assert_eq!((location, timestamp), (checkin.location, checkin.time.seconds()));
                    assert_eq!(closes, timestamp / window, "closes before check-in at {i}");
                    assert_eq!(
                        requests[i + 1],
                        ClientRequest::RequestLocation { user: user.user, location }
                    );
                }
                ClientRequest::RequestLocation { .. } => {
                    assert!(matches!(requests[i - 1], ClientRequest::CheckIn { .. }));
                }
                ClientRequest::Shutdown => panic!("a schedule never shuts the edge down"),
            }
        }
    }

    #[test]
    fn every_checkin_becomes_a_logged_request() {
        let user = population(1).generate_user(0);
        let mut edge = EdgeDevice::new(SystemConfig::builder().build().unwrap(), 1);
        let sink = BidSink::new();
        replay_trace(&mut edge, &user, &sink);
        assert_eq!(sink.pending(), user.checkins.len());
        let seen = observe(&sink).unwrap();
        assert_eq!(seen.devices(), vec![DeviceId::new(0)]);
        assert_eq!(seen.locations_of(DeviceId::new(0)).len(), user.checkins.len());
    }

    #[test]
    fn distinct_reports_collapse_after_first_window() {
        // User 10 is a *routine* user (~89 % of check-ins at 2 top
        // locations) — the population the collapse property speaks about.
        // Diverse users (couriers etc., ~12 % of the population) spend a
        // third of their requests at nomadic one-offs, each of which is
        // legitimately a unique report.
        let user = population(11).generate_user(10);
        let mut reported = observed(&user, 2);
        let requests = reported.len();
        reported.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        reported.dedup();
        // Nomadic requests and the cold-start first window produce unique
        // points, but the bulk of requests reuse ≤ n×|tops| candidates:
        // far fewer distinct points than requests.
        assert!(
            reported.len() < requests / 2,
            "distinct {} of {requests} requests",
            reported.len()
        );
    }

    #[test]
    fn true_locations_never_reach_the_network() {
        let user = population(1).generate_user(0);
        let observed = observed(&user, 3);
        for checkin in &user.checkins {
            assert!(
                !observed.contains(&checkin.location),
                "a raw check-in leaked to the bid stream"
            );
        }
    }

    #[test]
    fn longitudinal_attack_fails_against_the_system() {
        let config = SystemConfig::builder().build().unwrap();
        let user = population(1).generate_user(0);
        let observed = observed(&user, 4);
        let mech = NFoldGaussian::new(config.geo_ind());
        let attack = DeobfuscationAttack::for_gaussian(&mech, 0.05).unwrap();
        let inferred = attack.infer_top_locations(&observed, 1);
        let err = inferred[0].location.distance(user.truth.top_locations[0]);
        assert!(err > 200.0, "attack recovered the top location to {err} m");
    }

    #[test]
    fn replay_is_deterministic() {
        let user = population(1).generate_user(0);
        assert_eq!(observed(&user, 7), observed(&user, 7));
    }
}
