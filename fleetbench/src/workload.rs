//! Seeded workloads: who the users are, how the fleet is settled before
//! timing, and the fixed-length operation list the timed phase replays.
//!
//! Everything here is a pure function of `(workload, seed, size)`; the
//! fleet only ever sees the generated operations. The position of an
//! operation in [`Generated::ops`] is its span id: the fleet run, the
//! reference replay and the traced layer replay all key on it.

use privlocad::protocol::ClientRequest;
use privlocad::SystemConfig;
use privlocad_geo::rng::derive_seed;
use privlocad_geo::Point;
use privlocad_mobility::{PopulationConfig, UserId, DAYS_IN_STUDY, SECONDS_PER_DAY};

/// The three workloads. See `fleetbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reads only, on a large settled fleet behind the shard router.
    SteadyAds,
    /// Full two-year traces: check-in + ad request per point, window
    /// closes at every 90-day boundary.
    TraceReplay,
    /// A settled fleet behind the faulty fabric, 1:1 check-in/ad mix.
    FaultyFabric,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::SteadyAds, Kind::TraceReplay, Kind::FaultyFabric];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SteadyAds => "steady_ads",
            Kind::TraceReplay => "trace_replay",
            Kind::FaultyFabric => "faulty_fabric",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn domain(self) -> u64 {
        match self {
            Kind::SteadyAds => 0x05ea_dad5,
            Kind::TraceReplay => 0x7ace_2e91,
            Kind::FaultyFabric => 0x00fa_b1e7,
        }
    }
}

/// Shards in every fleet, and client threads driving it: the VM has two
/// vCPUs, and every typed call blocks its caller until the reply.
pub const SHARDS: usize = 2;
/// See [`SHARDS`].
pub const CLIENTS: usize = 2;

/// Users in the `steady_ads` fleet: 12k users per shard at ~1.8 KB each
/// put each shard's state at about ten times a 2 MiB per-core L2.
const STEADY_USERS: u32 = 24_000;
/// Settle check-ins per `steady_ads` user: window-close cost grows with
/// the square of a dense window, and the heaviest first windows hold over
/// a thousand points; 128 still makes every regular place a top location.
const STEADY_SETTLE_CAP: usize = 128;
/// Timed ad requests per requested second of `steady_ads`, calibrated so a
/// run on a 2-vCPU VM lasts about the requested time. The list length is
/// fixed by this, never by the clock, so counters repeat exactly.
const STEADY_ADS_PER_S: usize = 40_000;
/// Timed operations per requested second of `trace_replay`, reached with
/// whole two-year traces.
const REPLAY_OPS_PER_S: usize = 40_000;
/// Check-in/ad pairs per requested second of `faulty_fabric`.
const FABRIC_PAIRS_PER_S: usize = 12_000;
/// Settle check-ins per `faulty_fabric` user: enough to make the user's
/// home a protected top location, few enough to keep set-up through the
/// fabric short.
const FABRIC_SETTLE_CAP: usize = 12;
/// Trace days of `faulty_fabric` traffic after settling: inside one
/// 90-day window, so the 1:1 mix never needs a window close.
const FABRIC_HORIZON_DAYS: i64 = 80;

/// A workload at one size: cheap to build, generates nothing yet.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// The command-line seed every input derives from.
    pub seed: u64,
    /// Fleet size; user ids are `0..users`.
    pub users: u32,
    /// Target length of the timed operation list.
    pub target_ops: usize,
    /// The serving configuration (paper defaults).
    pub config: SystemConfig,
    population: PopulationConfig,
}

impl Spec {
    /// The workload sized for a run of about `seconds` on the reference VM.
    pub fn for_run(kind: Kind, seed: u64, seconds: u64) -> Spec {
        let seconds = seconds.max(1) as usize;
        match kind {
            Kind::SteadyAds => Spec::sized(kind, seed, STEADY_USERS, STEADY_ADS_PER_S * seconds),
            Kind::TraceReplay => {
                // Whole users until their check-in + ad pairs reach the
                // target: heavy-tailed trace lengths would otherwise make
                // the list length (and memory) swing with the seed.
                let target = REPLAY_OPS_PER_S * seconds;
                let probe = Spec::sized(kind, seed, u32::MAX, target);
                let mut pairs = 0;
                let users = (0..u32::MAX)
                    .find(|&u| {
                        pairs += 2 * probe.population.generate_user(u).checkins.len();
                        pairs >= target
                    })
                    .map_or(u32::MAX, |u| u + 1);
                Spec::sized(kind, seed, users, target)
            }
            Kind::FaultyFabric => {
                let pairs = FABRIC_PAIRS_PER_S * seconds;
                // ~0.9 check-ins per user-day on average (the paper's ~670
                // per user over two years): size the fleet so the pairs fit
                // inside the horizon with room to spare.
                let users = (pairs as f64 / (0.8 * FABRIC_HORIZON_DAYS as f64)).ceil() as u32;
                Spec::sized(kind, seed, users, 2 * pairs)
            }
        }
    }

    /// The workload at an explicit size (the self-test uses small ones).
    /// `target_ops` is ignored by `trace_replay`, whose length is the
    /// users' full traces.
    pub fn sized(kind: Kind, seed: u64, users: u32, target_ops: usize) -> Spec {
        let users = users.max(CLIENTS as u32);
        let population = PopulationConfig::builder()
            .num_users(users as usize)
            .seed(derive_seed(seed, kind.domain()))
            .build();
        Spec {
            kind,
            seed,
            users,
            target_ops,
            config: SystemConfig::builder()
                .build()
                .expect("the paper's defaults are valid"),
            population,
        }
    }

    /// The fleet master seed: every shard's per-user streams derive from it.
    pub fn master(&self) -> u64 {
        derive_seed(self.seed, self.kind.domain() ^ 0xf1ee7)
    }

    /// The marketplace seed (campaign inventory).
    pub fn market_seed(&self) -> u64 {
        derive_seed(self.seed, 0xad5)
    }

    /// The client that owns `user`: client `c` owns the contiguous id
    /// range `[c·users/2, (c+1)·users/2)`, which keeps each user's
    /// operations in order on one thread and cuts across the
    /// `user % shards` routing.
    pub fn client_of(&self, user: UserId) -> usize {
        (u64::from(user.raw()) * CLIENTS as u64 / u64::from(self.users)) as usize
    }

    fn window_s(&self) -> i64 {
        i64::from(self.config.window_days()) * SECONDS_PER_DAY
    }

    /// Trace days after the settle window that the timed phase draws from.
    fn horizon_days(&self) -> i64 {
        let after_window = DAYS_IN_STUDY - i64::from(self.config.window_days());
        match self.kind {
            Kind::SteadyAds => {
                // Twice the expected need, so heavy-tailed users cannot run
                // the list short.
                let days = 2 * self.target_ops as i64 / i64::from(self.users) + 1;
                days.clamp(1, after_window)
            }
            Kind::FaultyFabric => FABRIC_HORIZON_DAYS,
            Kind::TraceReplay => DAYS_IN_STUDY,
        }
    }

    /// One user's plan, cut from its synthetic two-year trace.
    fn plan_user(&self, user: u32) -> UserPlan {
        let trace = self.population.generate_user(user);
        let window = self.window_s();
        let mut plan = UserPlan::default();
        match self.kind {
            Kind::TraceReplay => {
                plan.later = trace
                    .checkins
                    .iter()
                    .map(|c| (c.time.seconds(), c.location))
                    .collect();
            }
            Kind::SteadyAds | Kind::FaultyFabric => {
                let cap = if self.kind == Kind::FaultyFabric {
                    FABRIC_SETTLE_CAP
                } else {
                    STEADY_SETTLE_CAP
                };
                let end = window + self.horizon_days() * SECONDS_PER_DAY;
                for c in &trace.checkins {
                    let t = c.time.seconds();
                    if t < window {
                        if plan.settle.len() < cap {
                            plan.settle.push((t, c.location));
                        }
                    } else if t < end {
                        plan.later.push((t, c.location));
                    }
                }
            }
        }
        plan
    }

    /// Generates every user's plan (two threads, users split by parity)
    /// and assembles the settle inputs and the timed operation list.
    pub fn generate(&self) -> Generated {
        let halves: Vec<Vec<(u32, UserPlan)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u32)
                .map(|half| {
                    scope.spawn(move || {
                        (half..self.users)
                            .step_by(2)
                            .map(|u| (u, self.plan_user(u)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("plan generator thread"))
                .collect()
        });
        let mut plans: Vec<(u32, UserPlan)> = halves.into_iter().flatten().collect();
        plans.sort_unstable_by_key(|(u, _)| *u);

        // Every timed operation keyed by (trace time, user, per-user
        // order); sorting the keys gives trace-time order across users.
        let window = self.window_s();
        let mut keyed: Vec<(i64, u32, u32, ClientRequest)> = Vec::new();
        for (u, plan) in &plans {
            let user = UserId::new(*u);
            let mut seq = 0u32;
            let mut push = |t: i64, op: ClientRequest| {
                keyed.push((t, *u, seq, op));
                seq += 1;
            };
            match self.kind {
                Kind::SteadyAds => {
                    for &(t, location) in &plan.later {
                        push(t, ClientRequest::RequestLocation { user, location });
                    }
                }
                Kind::FaultyFabric => {
                    for &(t, location) in &plan.later {
                        push(
                            t,
                            ClientRequest::CheckIn {
                                user,
                                location,
                                timestamp: t,
                            },
                        );
                        push(t, ClientRequest::RequestLocation { user, location });
                    }
                }
                Kind::TraceReplay => {
                    let mut window_end = window;
                    for &(t, location) in &plan.later {
                        while t >= window_end {
                            push(t, ClientRequest::FinalizeWindow { user });
                            window_end += window;
                        }
                        push(
                            t,
                            ClientRequest::CheckIn {
                                user,
                                location,
                                timestamp: t,
                            },
                        );
                        push(t, ClientRequest::RequestLocation { user, location });
                    }
                }
            }
        }
        keyed.sort_unstable_by_key(|&(t, u, seq, _)| (t, u, seq));
        let mut ops: Vec<ClientRequest> = keyed.into_iter().map(|(_, _, _, op)| op).collect();
        if self.kind != Kind::TraceReplay {
            ops.truncate(self.target_ops);
        }
        let settle = plans.into_iter().map(|(_, plan)| plan.settle).collect();
        Generated { settle, ops }
    }
}

/// One user's share of a workload.
#[derive(Debug, Default)]
struct UserPlan {
    settle: Vec<(i64, Point)>,
    later: Vec<(i64, Point)>,
}

/// A generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Generated {
    /// Per user id: the first-window check-ins `(trace time, location)`
    /// that settle the user before timing. Empty for `trace_replay`.
    pub settle: Vec<Vec<(i64, Point)>>,
    /// The timed operations in trace-time order.
    pub ops: Vec<ClientRequest>,
}

impl Generated {
    /// The settle phase as protocol operations: each user's check-ins,
    /// then its window close. Used where the fleet is settled through its
    /// own front (`faulty_fabric`).
    pub fn settle_ops(&self) -> Vec<ClientRequest> {
        let mut ops = Vec::new();
        for (u, checkins) in self.settle.iter().enumerate() {
            if checkins.is_empty() {
                continue;
            }
            let user = UserId::new(u as u32);
            ops.extend(
                checkins
                    .iter()
                    .map(|&(timestamp, location)| ClientRequest::CheckIn {
                        user,
                        location,
                        timestamp,
                    }),
            );
            ops.push(ClientRequest::FinalizeWindow { user });
        }
        ops
    }
}

/// The operation's kind, for per-kind latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `request_location`.
    Ad,
    /// `check_in`.
    CheckIn,
    /// `finalize_window`.
    Close,
}

impl OpKind {
    /// Every kind, in report order.
    pub const ALL: [OpKind; 3] = [OpKind::Ad, OpKind::CheckIn, OpKind::Close];

    /// The kind of `op`.
    pub fn of(op: &ClientRequest) -> OpKind {
        match op {
            ClientRequest::RequestLocation { .. } => OpKind::Ad,
            ClientRequest::CheckIn { .. } => OpKind::CheckIn,
            ClientRequest::FinalizeWindow { .. } | ClientRequest::Shutdown => OpKind::Close,
        }
    }

    /// Prefix of the kind's end-to-end latency metrics.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Ad => "ad",
            OpKind::CheckIn => "checkin",
            OpKind::Close => "close",
        }
    }
}

/// The user an operation belongs to.
pub fn user_of(op: &ClientRequest) -> UserId {
    op.user().expect("workloads hold no shutdown requests")
}
