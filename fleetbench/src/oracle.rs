//! The marketplace, the in-process settle path, and the correctness
//! oracle: an in-process reference replay of the exact operation list that
//! every fleet run is checked against after its timed phase.

use privlocad::protocol::{ClientRequest, EdgeResponse};
use privlocad::{candidate_redraws, DeviceSnapshot, EdgeDevice};
use privlocad_adnet::inventory::{generate, InventoryConfig};
use privlocad_adnet::{AdNetwork, BidExchange, Campaign, ServingPolicy};
use privlocad_geo::Point;
use privlocad_mobility::{shanghai, UserId};
use privlocad_openrtb::{BidSink, DeviceId, Geo, PendingBid};
use privlocad_telemetry::{top_key, Telemetry};

use crate::fleet::{Digests, Finished, Reply};
use crate::workload::{user_of, Generated, Kind, Spec, CLIENTS, SHARDS};

/// The `bench auction` marketplace: radius-targeted campaigns over the
/// study area, each under a budget and a per-device frequency cap.
#[derive(Debug, Clone)]
pub struct Market {
    campaigns: Vec<Campaign>,
    policy: ServingPolicy,
}

impl Market {
    /// The marketplace of `spec`'s seed: 400 campaigns, budget 200,
    /// frequency cap 24, as `bench auction` runs it.
    pub fn new(spec: &Spec) -> Market {
        let inventory = InventoryConfig {
            count: 400,
            ..InventoryConfig::default()
        };
        let campaigns = generate(
            &inventory,
            shanghai::bounding_box(),
            &shanghai::projection(),
            spec.market_seed(),
        );
        Market {
            campaigns,
            policy: ServingPolicy::unlimited()
                .with_budget(200.0)
                .with_frequency_cap(24),
        }
    }

    /// A fresh ad network over this marketplace, every policy attached.
    pub fn network(&self) -> AdNetwork {
        let mut network = AdNetwork::new(self.campaigns.clone());
        for campaign in &self.campaigns {
            network.set_policy(campaign.id(), self.policy);
        }
        network
    }

    /// A fresh exchange with every pending bid settled through it.
    pub fn settle(&self, pending: &[PendingBid]) -> BidExchange {
        let mut exchange = BidExchange::new(self.network());
        exchange
            .pump_pending(pending)
            .expect("frames the sink encoded decode");
        exchange
    }
}

/// Settles one user in process: its first-window check-ins, then the
/// window close — what `ServerOptions::restore_from` later hands a shard.
pub fn settle_user(device: &mut EdgeDevice, user: UserId, checkins: &[(i64, Point)]) {
    if checkins.is_empty() {
        return;
    }
    for &(_, location) in checkins {
        device.report_checkin(user, location);
    }
    device.finalize_window(user);
}

/// One per-user-stream device per shard, each holding the users
/// `user % SHARDS` routes to it, settled in process on one thread per shard.
/// Their budget spends drain into `hub`.
pub fn settled_shards(
    spec: &Spec,
    settle: &[Vec<(i64, Point)>],
    hub: &Telemetry,
) -> Vec<EdgeDevice> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..SHARDS)
            .map(|shard| {
                scope.spawn(move || {
                    let mut device = EdgeDevice::with_per_user_streams(spec.config, spec.master());
                    for u in (shard..settle.len()).step_by(SHARDS) {
                        settle_user(&mut device, UserId::new(u as u32), &settle[u]);
                    }
                    device.drain_telemetry(hub);
                    device
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("settle thread"))
            .collect()
    })
}

/// What the in-process reference replay produced.
#[derive(Debug)]
pub struct Reference {
    /// Per-user output digests over the same replies the fleet folds.
    pub digests: Digests,
    /// Digest of the exchange log from settling the reference's bids.
    pub exchange_digest: u64,
    /// Final snapshot of each reference device.
    pub snapshots: Vec<DeviceSnapshot>,
}

/// Replays `generated` on [`CLIENTS`] in-process per-user-stream devices,
/// partitioned like the clients (contiguous id halves, not the fleet's
/// `user % shards`), one thread each.
pub fn reference(spec: &Spec, generated: &Generated, market: &Market) -> Reference {
    let settle_ops = if spec.kind == Kind::FaultyFabric {
        generated.settle_ops()
    } else {
        Vec::new()
    };
    let fresh = Digests::new(spec.users);
    let halves: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (settle_ops, fresh) = (&settle_ops, &fresh);
                scope.spawn(move || {
                    let mine = |op: &&ClientRequest| spec.client_of(user_of(op)) == client;
                    let mut device = EdgeDevice::with_per_user_streams(spec.config, spec.master());
                    if spec.kind == Kind::SteadyAds {
                        for (u, checkins) in generated.settle.iter().enumerate() {
                            let user = UserId::new(u as u32);
                            if spec.client_of(user) == client {
                                settle_user(&mut device, user, checkins);
                            }
                        }
                    }
                    let mut digests = fresh.clone();
                    let mut bids = Vec::new();
                    let mut responses = Vec::new();
                    for op in settle_ops
                        .iter()
                        .filter(mine)
                        .chain(generated.ops.iter().filter(mine))
                    {
                        responses.clear();
                        device.serve_batch(std::slice::from_ref(op), &mut responses);
                        let user = user_of(op).raw();
                        let slot = &mut digests.0[user as usize];
                        *slot = Reply::from_response(&responses[0]).fold(*slot);
                        if let EdgeResponse::ReportedLocation { location } = responses[0] {
                            bids.push((user, location));
                        }
                    }
                    (digests, bids, device.snapshot())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference thread"))
            .collect()
    });

    // Each user's digest comes from the half that served it; bids go
    // through a sink in per-user order, which is all its sequence numbers
    // depend on.
    let mut digests = fresh;
    let sink = BidSink::new();
    let mut snapshots = Vec::new();
    for (client, (half, bids, snapshot)) in halves.into_iter().enumerate() {
        for (u, digest) in half.0.into_iter().enumerate() {
            if spec.client_of(UserId::new(u as u32)) == client {
                digests.0[u] = digest;
            }
        }
        for (user, location) in bids {
            sink.submit(DeviceId::new(u64::from(user)), Geo::from_point(location));
        }
        snapshots.push(snapshot);
    }
    let exchange_digest = market.settle(&sink.drain()).log().digest();
    Reference {
        digests,
        exchange_digest,
        snapshots,
    }
}

/// One oracle check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was compared.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Everything the oracle compares, gathered after the timed phase.
#[derive(Debug)]
pub struct Observed<'a> {
    /// The fleet's per-user digests.
    pub digests: &'a Digests,
    /// Digest of the exchange log the fleet's bids settled into.
    pub exchange_digest: u64,
    /// The fleet after shutdown.
    pub finished: &'a Finished,
    /// Failed timed operations.
    pub failed: u64,
}

/// Runs the reference replay on `regenerated` (the workload generated
/// afresh after the timed phase) and every check. `corrupt_reference`
/// flips one bit of the reference digest, to show that a mismatch fails
/// the run.
pub fn check(
    spec: &Spec,
    ops: &[ClientRequest],
    regenerated: &Generated,
    market: &Market,
    observed: &Observed<'_>,
    corrupt_reference: bool,
) -> Vec<Check> {
    let mut checks = Vec::new();
    checks.push(Check::new(
        "operation list regenerates",
        regenerated.ops == ops,
        format!("{} ops", ops.len()),
    ));
    let reference = reference(spec, regenerated, market);
    let expected = reference.digests.total() ^ u64::from(corrupt_reference);
    let fleet_digest = observed.digests.total();
    checks.push(Check::new(
        "served outputs = reference",
        fleet_digest == expected,
        format!("fleet {fleet_digest:016x} reference {expected:016x}"),
    ));
    checks.push(Check::new(
        "exchange log = reference bids settled",
        observed.exchange_digest == reference.exchange_digest,
        format!(
            "fleet {:016x} reference {:016x}",
            observed.exchange_digest, reference.exchange_digest
        ),
    ));

    let fleet_snapshots: Vec<DeviceSnapshot> = observed
        .finished
        .devices
        .iter()
        .map(EdgeDevice::snapshot)
        .collect();
    let mut live = Vec::new();
    for snapshot in &fleet_snapshots {
        for (user, top) in snapshot.released_sets().expect("final snapshots decode") {
            live.push((u64::from(user.raw()), top_key(top.x, top.y)));
        }
    }
    let audit = observed
        .finished
        .hub
        .ledger()
        .assert_no_double_spend(live.iter().copied());
    checks.push(Check::new(
        "ledger: no double spend",
        audit.is_ok(),
        format!("{} released sets, {:?}", live.len(), audit.err()),
    ));
    let mut redraws = 0;
    for before in &reference.snapshots {
        for after in &fleet_snapshots {
            redraws += candidate_redraws(before, after).expect("snapshots are well-formed");
        }
    }
    checks.push(Check::new(
        "candidate re-draws = 0",
        redraws == 0,
        format!("{redraws} re-draws"),
    ));
    checks.push(Check::new(
        "no failed operations",
        observed.failed == 0,
        format!("{} failed", observed.failed),
    ));

    let metrics = observed.finished.hub.registry().snapshot();
    let counter = |name: &str| metrics.counter(name).unwrap_or(0);
    if let Some(stats) = observed.finished.fabric {
        let suppressed = counter("server.duplicates_suppressed");
        checks.push(Check::new(
            "duplicates suppressed = injected",
            suppressed == stats.duplicates_injected,
            format!("{suppressed} of {}", stats.duplicates_injected),
        ));
        checks.push(Check::new(
            "every kill is one restart",
            counter("server.restarts") == observed.finished.kills,
            format!(
                "{} restarts, {} kills",
                counter("server.restarts"),
                observed.finished.kills
            ),
        ));
        checks.push(Check::new(
            "faults stay masked",
            stats.breaker_transitions == 0
                && stats.deadline_misses == 0
                && stats.degraded_serves == 0,
            format!(
                "{} breaker transitions, {} deadline misses, {} degraded",
                stats.breaker_transitions, stats.deadline_misses, stats.degraded_serves
            ),
        ));
    }
    checks
}
