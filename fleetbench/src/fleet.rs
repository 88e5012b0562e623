//! The live stack under test and the closed-loop clients that drive it.
//!
//! Both fronts are driven through their public typed calls only:
//! [`ShardRouter`] (`steady_ads`, `trace_replay`) and [`FabricRouter`]
//! (`faulty_fabric`). Every shard commits served ad requests into one
//! shared [`BidSink`], which the benchmark drains after the timed phase.

use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bytes::Bytes;
use privlocad::protocol::{ClientRequest, EdgeResponse};
use privlocad::{
    ChannelFaultPlan, EdgeDevice, FabricOptions, FabricRouter, FabricStats, FaultPlan,
    ServedLocation, ServerOptions, ShardRouter, TransportError,
};
use privlocad_geo::rng::derive_seed;
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::{BidSink, PendingBid};
use privlocad_telemetry::Telemetry;

use crate::host;
use crate::workload::{user_of, Spec, CLIENTS, SHARDS};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Per-user output digests: FNV-1a over each user's replies in order,
/// seeded with the user id. XOR-ing them ([`Digests::total`]) gives a
/// digest that does not depend on how users were partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digests(pub Vec<u64>);

impl Digests {
    /// One fresh digest per user id in `0..users`.
    pub fn new(users: u32) -> Digests {
        Digests(
            (0..users)
                .map(|u| fnv1a(FNV_OFFSET, &u.to_le_bytes()))
                .collect(),
        )
    }

    /// The partition-insensitive total.
    pub fn total(&self) -> u64 {
        self.0.iter().fold(0, |acc, d| acc ^ d)
    }
}

/// A decoded reply, whatever front served it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// A check-in acknowledgement.
    Ack,
    /// A freshly released location.
    Location(Point),
    /// A location replayed from the fabric's stale cache.
    Degraded(Point),
    /// A window close and its fresh candidate-set count.
    Closed(u32),
}

impl Reply {
    /// The reply a device-level response stands for.
    pub fn from_response(response: &EdgeResponse) -> Reply {
        match *response {
            EdgeResponse::ReportedLocation { location } => Reply::Location(location),
            EdgeResponse::WindowClosed { fresh_obfuscations } => Reply::Closed(fresh_obfuscations),
            _ => Reply::Ack,
        }
    }

    /// Folds the reply into a user's running digest.
    pub fn fold(self, hash: u64) -> u64 {
        let point = |hash, tag, p: Point| {
            fnv1a(
                fnv1a(fnv1a(hash, &[tag]), &p.x.to_bits().to_le_bytes()),
                &p.y.to_bits().to_le_bytes(),
            )
        };
        match self {
            Reply::Ack => fnv1a(hash, &[1]),
            Reply::Location(p) => point(hash, 2, p),
            Reply::Degraded(p) => point(hash, 3, p),
            Reply::Closed(fresh) => fnv1a(fnv1a(hash, &[4]), &fresh.to_le_bytes()),
        }
    }
}

/// The fleet front: the direct shard router or the faulty fabric.
#[derive(Debug)]
pub enum Front {
    /// [`ShardRouter`]: direct links.
    Direct(ShardRouter),
    /// [`FabricRouter`]: seeded faulty links with worker kills.
    Faulty(Box<FabricRouter>),
}

impl Front {
    /// One typed call; blocks until the decoded reply.
    pub fn call(&self, op: &ClientRequest) -> Result<Reply, String> {
        match (self, *op) {
            (
                Front::Direct(r),
                ClientRequest::CheckIn {
                    user,
                    location,
                    timestamp,
                },
            ) => r
                .check_in(user, location, timestamp)
                .map(|()| Reply::Ack)
                .map_err(|e| e.to_string()),
            (Front::Direct(r), ClientRequest::RequestLocation { user, location }) => r
                .request_location(user, location)
                .map(Reply::Location)
                .map_err(|e| e.to_string()),
            (Front::Direct(r), ClientRequest::FinalizeWindow { user }) => r
                .finalize_window(user)
                .map(Reply::Closed)
                .map_err(|e| e.to_string()),
            (
                Front::Faulty(f),
                ClientRequest::CheckIn {
                    user,
                    location,
                    timestamp,
                },
            ) => f
                .check_in(user, location, timestamp)
                .map(|()| Reply::Ack)
                .map_err(|e| e.to_string()),
            (Front::Faulty(f), ClientRequest::RequestLocation { user, location }) => f
                .request_location(user, location)
                .map(|served| match served {
                    ServedLocation::Fresh(p) => Reply::Location(p),
                    ServedLocation::Degraded(p) => Reply::Degraded(p),
                })
                .map_err(|e| e.to_string()),
            (Front::Faulty(f), ClientRequest::FinalizeWindow { user }) => f
                .finalize_window(user)
                .map(Reply::Closed)
                .map_err(|e| e.to_string()),
            (_, ClientRequest::Shutdown) => Err("workloads never send shutdown".to_owned()),
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operation index (the span id).
    pub op: u32,
    /// Send time, in ns since the phase epoch.
    pub start_ns: u64,
    /// Round trip: send to decoded reply, in ns.
    pub ns: u64,
}

impl Sample {
    /// The value a sample slot holds until its call is made.
    const UNSET: Sample = Sample {
        op: u32::MAX,
        start_ns: 0,
        ns: 0,
    };
}

/// One client's share of an operation list: the indices it sends, in list
/// order, and one sample slot per index.
#[derive(Debug)]
pub struct Lane {
    ops: Vec<u32>,
    /// The calls' samples, in `ops` order.
    pub samples: Vec<Sample>,
}

/// The [`CLIENTS`] lanes of `ops`. Every sample slot is written here, so
/// the buffers are resident before the fleet exists and the fleet's peak
/// memory does not include them.
pub fn lanes(spec: &Spec, ops: &[ClientRequest]) -> Vec<Lane> {
    let mut indices: Vec<Vec<u32>> = vec![Vec::new(); CLIENTS];
    for (i, op) in ops.iter().enumerate() {
        indices[spec.client_of(user_of(op))].push(i as u32);
    }
    indices
        .into_iter()
        .map(|ops| Lane {
            samples: vec![Sample::UNSET; ops.len()],
            ops,
        })
        .collect()
}

/// One round of a phase: a contiguous slice of the operation list that
/// both clients start together and finish before the next round starts.
#[derive(Debug, Clone)]
pub struct Round {
    /// The operation indices it covered.
    pub ops: Range<usize>,
    /// Wall-clock seconds from the start to the last reply.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the round.
    pub cpu_s: f64,
}

/// What one phase of closed-loop calls measured. The samples stay in the
/// lanes.
#[derive(Debug, Default)]
pub struct PhaseRun {
    /// The rounds, in list order.
    pub rounds: Vec<Round>,
    /// Calls that returned an error or a degraded answer.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Wall-clock seconds summed over the rounds.
    pub wall_s: f64,
    /// Process CPU seconds summed over the rounds.
    pub cpu_s: f64,
    /// Host steal share over the phase.
    pub steal_share: f64,
}

/// Drives `ops` through `front` from [`CLIENTS`] closed-loop client
/// threads, each owning a contiguous half of the user ids and sending its
/// users' operations (its lane of [`lanes`]) in list order, in `rounds`
/// rounds of equal length. Replies fold into `digests`.
pub fn run_phase(
    front: &Front,
    spec: &Spec,
    ops: &[ClientRequest],
    lanes: &mut [Lane],
    rounds: usize,
    digests: &mut Digests,
) -> PhaseRun {
    let rounds = rounds.clamp(1, ops.len().max(1));
    let bounds: Vec<usize> = (0..=rounds).map(|r| r * ops.len() / rounds).collect();
    let boundary = spec.users.div_ceil(2);
    let (low, high) = digests.0.split_at_mut(boundary as usize);
    let (start_line, finish_line) = (Barrier::new(CLIENTS + 1), Barrier::new(CLIENTS + 1));
    let epoch = Instant::now();
    let mut run = PhaseRun::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = [(low, 0u32), (high, boundary)]
            .into_iter()
            .zip(lanes.iter_mut())
            .map(|((digests, first_user), lane)| {
                let (bounds, start_line, finish_line) = (&bounds, &start_line, &finish_line);
                scope.spawn(move || {
                    let mut failed = 0;
                    let mut errors = Vec::new();
                    let mut next = 0;
                    for round_end in &bounds[1..] {
                        let end = lane.ops.partition_point(|&k| (k as usize) < *round_end);
                        start_line.wait();
                        for i in next..end {
                            let k = lane.ops[i];
                            let op = &ops[k as usize];
                            let sent = Instant::now();
                            let outcome = front.call(op);
                            let done = Instant::now();
                            lane.samples[i] = Sample {
                                op: k,
                                start_ns: (sent - epoch).as_nanos() as u64,
                                ns: (done - sent).as_nanos() as u64,
                            };
                            let slot = &mut digests[(user_of(op).raw() - first_user) as usize];
                            match outcome {
                                Ok(Reply::Degraded(p)) => {
                                    failed += 1;
                                    *slot = Reply::Degraded(p).fold(*slot);
                                }
                                Ok(reply) => *slot = reply.fold(*slot),
                                Err(e) => {
                                    failed += 1;
                                    if errors.len() < 4 {
                                        errors.push(format!("op {k}: {e}"));
                                    }
                                }
                            }
                        }
                        next = end;
                        finish_line.wait();
                    }
                    (failed, errors)
                })
            })
            .collect();
        let ticks = host::host_ticks();
        for r in 0..rounds {
            let cpu = host::process_cpu_s();
            start_line.wait();
            let start = Instant::now();
            finish_line.wait();
            run.rounds.push(Round {
                ops: bounds[r]..bounds[r + 1],
                wall_s: start.elapsed().as_secs_f64(),
                cpu_s: host::process_cpu_s() - cpu,
            });
        }
        run.steal_share = ticks.steal_share_until(host::host_ticks());
        for client in clients {
            let (failed, errors) = client.join().expect("client thread");
            run.failed += failed;
            run.errors.extend(errors);
        }
    });
    run.wall_s = run.rounds.iter().map(|r| r.wall_s).sum();
    run.cpu_s = run.rounds.iter().map(|r| r.cpu_s).sum();
    run
}

/// A running fleet plus what it shares: one telemetry hub, one bid sink.
#[derive(Debug)]
pub struct Fleet {
    /// The front the clients call.
    pub front: Front,
    /// The hub every shard publishes into.
    pub hub: Telemetry,
    /// The bid sink every shard commits into.
    pub sink: Arc<BidSink>,
    /// Worker kills scheduled across the shards.
    pub kills: u64,
}

/// A fleet after shutdown.
#[derive(Debug)]
pub struct Finished {
    /// Final shard devices, in shard order.
    pub devices: Vec<EdgeDevice>,
    /// The fabric's totals (faulty front only), read after the shutdown
    /// flushed every delayed duplicate.
    pub fabric: Option<FabricStats>,
    /// Every bid the fleet emitted, in canonical `(device, seq)` order.
    pub pending: Vec<PendingBid>,
    /// The hub every shard published into.
    pub hub: Telemetry,
    /// Worker kills that were scheduled.
    pub kills: u64,
}

impl Fleet {
    /// Spawns the direct fleet: [`SHARDS`] supervised servers behind a
    /// [`ShardRouter`], each optionally restored from a checkpoint, then
    /// waits until every shard's serving loop answers.
    pub fn direct(spec: &Spec, hub: Telemetry, checkpoints: Vec<Option<Bytes>>) -> Fleet {
        let sink = Arc::new(BidSink::new());
        let options = checkpoints
            .into_iter()
            .map(|restore_from| ServerOptions {
                telemetry: hub.clone(),
                bid_sink: Some(Arc::clone(&sink)),
                restore_from,
                ..ServerOptions::default()
            })
            .collect();
        let router = ShardRouter::spawn_with(spec.config, spec.master(), options);
        for shard in 0..SHARDS as u32 {
            // Readiness probe: an empty frame is rejected by the decode
            // path without touching device state, and the rejection can
            // only come back once the loop (and any restore) is running.
            match router.handle(UserId::new(shard)).call_raw(Vec::new()) {
                Err(TransportError::Malformed { .. }) => {}
                other => panic!("shard {shard} readiness probe: {other:?}"),
            }
        }
        Fleet {
            front: Front::Direct(router),
            hub,
            sink,
            kills: 0,
        }
    }

    /// Spawns the faulty fleet: [`SHARDS`] shards behind a
    /// [`FabricRouter`] with the chaos bench's link fault rates and
    /// `kills_per_shard` in-budget worker kills on every shard, placed in
    /// the timed phase `ops`, which follows `settle_ops`.
    pub fn faulty(
        spec: &Spec,
        settle_ops: &[ClientRequest],
        ops: &[ClientRequest],
        kills_per_shard: u64,
    ) -> Fleet {
        let hub = Telemetry::new();
        let sink = Arc::new(BidSink::new());
        let per_shard = |ops: &[ClientRequest], shard: usize| {
            ops.iter()
                .filter(|op| user_of(op).raw() as usize % SHARDS == shard)
                .count() as u64
        };
        let kill_plans: Vec<FaultPlan> = (0..SHARDS)
            .map(|s| {
                // The kill clock counts applied requests per shard. Kills
                // are spread evenly over the shard's timed operations and
                // staggered between shards: two shards restoring at once
                // would stack their restore transients and make peak
                // memory depend on scheduling.
                let settled = per_shard(settle_ops, s);
                let timed = per_shard(ops, s);
                let budget = kills_per_shard.min(timed);
                let slots = budget * SHARDS as u64 + 1;
                FaultPlan::kill_at(
                    (0..budget)
                        .map(|k| settled + timed * (k * SHARDS as u64 + s as u64 + 1) / slots),
                )
            })
            .collect();
        let kills = kill_plans.iter().map(|p| p.remaining() as u64).sum();
        let fabric = FabricRouter::spawn(
            spec.config,
            spec.master(),
            FabricOptions {
                shards: SHARDS,
                fault_plan: fabric_plan(spec.seed),
                kill_plans,
                server: ServerOptions {
                    telemetry: hub.clone(),
                    bid_sink: Some(Arc::clone(&sink)),
                    max_restarts: 8,
                    backoff_base: 1,
                    backoff_cap: 1,
                    ..ServerOptions::default()
                },
                ..FabricOptions::default()
            },
        );
        Fleet {
            front: Front::Faulty(Box::new(fabric)),
            hub,
            sink,
            kills,
        }
    }

    /// Shuts every shard down, joins them and drains the bid sink.
    pub fn finish(self) -> Result<Finished, String> {
        let (devices, fabric) = match self.front {
            Front::Direct(router) => {
                router.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                (router.join().map_err(|e| format!("join: {e}"))?, None)
            }
            Front::Faulty(fabric) => {
                fabric.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                let stats = fabric.stats();
                (
                    (*fabric).join().map_err(|e| format!("join: {e}"))?,
                    Some(stats),
                )
            }
        };
        Ok(Finished {
            devices,
            fabric,
            pending: self.sink.drain(),
            hub: self.hub,
            kills: self.kills,
        })
    }
}

/// The `bench chaos` wire profile: drops, delayed duplicates and
/// corruption together, every family masked by the fabric.
fn fabric_plan(seed: u64) -> ChannelFaultPlan {
    ChannelFaultPlan {
        seed: derive_seed(seed, 0xfab2),
        drop_per_mille: 100,
        duplicate_per_mille: 200,
        duplicate_delay: 3,
        corrupt_per_mille: 80,
        outages: Vec::new(),
    }
}
