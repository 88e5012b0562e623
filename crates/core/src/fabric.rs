//! Self-healing robustness fabric between the fleet front and its
//! shards: seeded faulty links, exactly-once delivery, deterministic
//! circuit breakers, and a privacy-safe degradation ladder.
//!
//! [`crate::ShardRouter`] (DESIGN.md §16) assumes its shards answer;
//! this module drops that assumption. A [`FabricRouter`] is a seeded
//! link in front of one `ShardRouter`: it spawns, routes, shuts down and
//! joins its shards through the router, and drives every router↔shard
//! call through a fault-injectable link governed by a
//! [`ChannelFaultPlan`] — frames are dropped, duplicated after a delay,
//! or corrupted in flight under a schedule derived from the master seed
//! — and keeps the paper's privacy contract intact anyway:
//!
//! 1. **Exactly-once delivery.** Every logical request travels in a
//!    sequence-numbered envelope ([`crate::protocol::encode_sequenced`])
//!    on its user's lane. The shard's dedup window replays the cached
//!    response frame for a duplicate, so device state and the
//!    privacy-budget ledger record each logical request exactly once no
//!    matter how many copies the wire delivers.
//! 2. **Supervision.** Per-shard consecutive-failure accounting feeds a
//!    deterministic circuit breaker ([`BreakerConfig`]): open after K
//!    failures, half-open probe after a *logical* cooldown counted in
//!    shed calls — never wall clock, consistent with
//!    [`crate::RetryPolicy`]'s spin-based design — and every call runs
//!    under a transmission budget so a dead link fails a request
//!    explicitly instead of hanging it.
//! 3. **Privacy-safe degradation.** While a breaker is open, location
//!    requests are served from a bounded stale cache holding only
//!    *previously released obfuscated* locations (decoded from earlier
//!    responses — never fresh draws, never true locations), or rejected
//!    with an explicit [`FabricError::Degraded`]. Degradation fails
//!    closed in the geo-indistinguishability sense: nothing leaves the
//!    fabric that the adversary has not already seen.
//! 4. **Self-healing.** A shard that dies past its restart budget is
//!    healed in place: its serving core is rebuilt around its committed
//!    device, exactly as a shard restored from that device's checkpoint
//!    would start, so every user's RNG stream resumes bit-for-bit and
//!    not one released candidate is re-drawn (the longitudinal-privacy
//!    violation [`crate::recovery`] exists to prevent). No image is
//!    streamed and no server spawned. A shard with no device is lost
//!    ([`FabricError::ShardLost`]), never replaced by an empty one.
//!
//! Fault draws are keyed per *lane* (user) and per-lane delivery
//! ordinal, not per link: the same master seed injects the same faults
//! into a user's traffic whether the fleet runs 1, 4, or 16 shards,
//! which is what keeps the chaos bench's survival contract bit-for-bit
//! across shard counts.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_telemetry::Telemetry;
use rand::Rng;

use crate::protocol::{encode_sequenced, ClientRequest, EdgeResponse};
use crate::server::{FaultPlan, ServerOptions, TransportError};
use crate::{EdgeDevice, ShardRouter, SystemConfig, SystemError};

/// Domain separator for fault-schedule RNG streams, far from the
/// per-user serving streams derived in `crate::edge`.
const FABRIC_FAULT_DOMAIN: u64 = u64::MAX - 2;

/// A deterministic outage: the link refuses `calls` consecutive
/// deliveries on one lane (ordinals `from .. from + calls`), as if the
/// shard were unreachable. Outage failures are what trip the circuit
/// breaker in tests and the chaos bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOutage {
    /// The affected lane (raw user id).
    pub lane: u32,
    /// First lane-ordinal that fails.
    pub from: u64,
    /// How many consecutive lane-ordinals fail.
    pub calls: u32,
}

/// A seeded schedule of link faults on the router↔shard path.
///
/// Rates are per-mille probabilities drawn from a private RNG stream
/// per `(lane, ordinal)` — `derive_seed(derive_seed(derive_seed(seed,
/// FABRIC_FAULT_DOMAIN), lane), ordinal)` — so the schedule depends
/// only on the master seed and each user's own delivery sequence,
/// never on the user→shard partition or thread interleaving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelFaultPlan {
    /// Master seed for the fault streams.
    pub seed: u64,
    /// Per-mille chance a transmission is dropped on the wire (drawn up
    /// to twice per delivery: a delivery loses at most 2 transmissions).
    pub drop_per_mille: u32,
    /// Per-mille chance a served delivery leaves a stale duplicate copy
    /// behind on the link.
    pub duplicate_per_mille: u32,
    /// Upper bound on a duplicate's delay, counted in further
    /// deliveries on the same link before the copy is re-sent (the
    /// "delay-by-k-deliveries" model; actual k is drawn in `1..=max`).
    pub duplicate_delay: u32,
    /// Per-mille chance a transmission is corrupted in flight (drawn up
    /// to twice per delivery).
    pub corrupt_per_mille: u32,
    /// Scheduled lane outages (deterministic breaker fuel).
    pub outages: Vec<LaneOutage>,
}

/// What the plan decided for one logical delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DeliveryProfile {
    /// Leading transmissions that vanish on the wire.
    drops: u32,
    /// Transmissions (after the drops) that arrive corrupted.
    corrupts: u32,
    /// If set, a stale duplicate copy is queued and re-delivered after
    /// this many further deliveries on the link.
    duplicate: Option<u32>,
    /// Salt selecting which checksum bit the corruption flips.
    corrupt_salt: u32,
}

impl ChannelFaultPlan {
    /// The quiet plan: no faults, no outages.
    pub fn none() -> Self {
        ChannelFaultPlan::default()
    }

    /// True when `ordinal` on `lane` falls inside a scheduled outage.
    fn outage_active(&self, lane: u32, ordinal: u64) -> bool {
        self.outages
            .iter()
            .any(|o| o.lane == lane && o.from <= ordinal && ordinal < o.from + u64::from(o.calls))
    }

    /// Draws the fault profile for one delivery. Pure in `(self, lane,
    /// ordinal)`.
    fn draw(&self, lane: u32, ordinal: u64) -> DeliveryProfile {
        if self.drop_per_mille == 0 && self.duplicate_per_mille == 0 && self.corrupt_per_mille == 0
        {
            return DeliveryProfile::default();
        }
        let mut rng = seeded(derive_seed(
            derive_seed(derive_seed(self.seed, FABRIC_FAULT_DOMAIN), u64::from(lane)),
            ordinal,
        ));
        let mut drops = 0;
        while drops < 2 && rng.gen_range(0u32..1_000) < self.drop_per_mille {
            drops += 1;
        }
        let mut corrupts = 0;
        while corrupts < 2 && rng.gen_range(0u32..1_000) < self.corrupt_per_mille {
            corrupts += 1;
        }
        let duplicate = if rng.gen_range(0u32..1_000) < self.duplicate_per_mille {
            Some(1 + rng.gen_range(0..self.duplicate_delay.max(1)))
        } else {
            None
        };
        DeliveryProfile { drops, corrupts, duplicate, corrupt_salt: rng.gen() }
    }
}

/// Flips one bit inside a sequenced frame's declared checksum. The
/// recomputed checksum can then never match, so the shard is guaranteed
/// to detect the damage and answer with a malformed-frame strike — a
/// corrupted frame can never alias a cached response or apply as fresh.
fn corrupt_checksum(frame: &mut [u8], salt: u32) {
    // Checksum bytes sit at 9..13 of the sequenced header.
    let byte = 9 + (salt as usize % 4);
    let bit = (salt >> 8) % 8;
    frame[byte] ^= 1 << bit;
}

/// Circuit-breaker tuning. All quantities are logical counts — calls
/// and failures — never wall-clock durations, so breaker behaviour is
/// reproducible under any scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// Calls shed while open before the next call probes (half-open).
    pub cooldown: u32,
    /// Upper bound on the cooldown after repeated probe failures (the
    /// cooldown doubles on every reopen, capped here).
    pub max_cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, cooldown: 4, max_cooldown: 64 }
    }
}

/// The breaker's position in its open/half-open/closed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Calls pass through; failures accumulate.
    Closed,
    /// Calls are shed (degraded serving) until the cooldown elapses.
    Open,
    /// The next call is a probe deciding between close and reopen.
    HalfOpen,
}

/// One entry of the breaker transition trace — the deterministic
/// witness the chaos tests compare across shard counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// The breaker opened after `failures` consecutive failures.
    Opened {
        /// Shard whose breaker transitioned.
        shard: usize,
        /// Consecutive failures that tripped it.
        failures: u32,
    },
    /// The cooldown elapsed; the triggering call runs as a probe.
    Probe {
        /// Shard whose breaker transitioned.
        shard: usize,
    },
    /// A probe succeeded; the breaker closed.
    Closed {
        /// Shard whose breaker transitioned.
        shard: usize,
    },
    /// A probe failed; the breaker reopened with a doubled cooldown.
    Reopened {
        /// Shard whose breaker transitioned.
        shard: usize,
        /// The new (doubled, capped) cooldown in shed calls.
        cooldown: u32,
    },
}

/// How the breaker admitted one call.
enum Admission {
    /// Closed: the call passes normally.
    Pass,
    /// Half-open: the call passes as the deciding probe.
    Probe,
    /// Open: the call is shed to the degradation ladder.
    Shed,
}

/// Per-shard consecutive-failure accounting and the deterministic
/// open → shed → probe → close/reopen state machine.
#[derive(Debug)]
struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    sheds: u32,
    cooldown: u32,
}

impl CircuitBreaker {
    fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            sheds: 0,
            cooldown: config.cooldown.max(1),
        }
    }

    fn admit(&mut self, shard: usize, trace: &mut Vec<BreakerEvent>) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Pass,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => {
                self.sheds += 1;
                if self.sheds >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                    trace.push(BreakerEvent::Probe { shard });
                    Admission::Probe
                } else {
                    Admission::Shed
                }
            }
        }
    }

    fn record_success(&mut self, shard: usize, trace: &mut Vec<BreakerEvent>) {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
                self.sheds = 0;
                self.cooldown = self.config.cooldown.max(1);
                trace.push(BreakerEvent::Closed { shard });
            }
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::Open => {}
        }
    }

    fn record_failure(&mut self, shard: usize, trace: &mut Vec<BreakerEvent>) {
        match self.state {
            BreakerState::HalfOpen => {
                self.cooldown =
                    self.cooldown.saturating_mul(2).min(self.config.max_cooldown.max(1));
                self.state = BreakerState::Open;
                self.sheds = 0;
                trace.push(BreakerEvent::Reopened { shard, cooldown: self.cooldown });
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold.max(1) {
                    self.state = BreakerState::Open;
                    self.sheds = 0;
                    self.cooldown = self.config.cooldown.max(1);
                    trace.push(BreakerEvent::Opened { shard, failures: self.consecutive_failures });
                }
            }
            BreakerState::Open => {}
        }
    }
}

/// A bounded per-lane cache of the last *released obfuscated* location
/// each user was served — the only thing degraded serving may answer
/// with.
///
/// The cache is populated exclusively from decoded
/// [`EdgeResponse::ReportedLocation`] frames, i.e. outputs that already
/// crossed the release boundary: a degraded answer repeats something
/// the adversary has observed, so it spends zero additional privacy
/// budget. [`StaleCache::insert`] is modelled as a sink in the lint
/// flow analysis (the `degraded-cache` pattern) so a fresh taint source
/// can never reach it.
#[derive(Debug)]
struct StaleCache {
    capacity: usize,
    entries: BTreeMap<u32, Point>,
    order: std::collections::VecDeque<u32>,
}

impl StaleCache {
    /// An empty cache holding at most `capacity` lanes (clamped ≥ 1).
    fn new(capacity: usize) -> Self {
        StaleCache {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            order: std::collections::VecDeque::new(),
        }
    }

    /// Records `released` as the last released location on `lane`,
    /// evicting the oldest lane when full. Callers must only ever pass
    /// locations decoded from a response frame — never device state.
    fn insert(&mut self, lane: u32, released: Point) {
        if self.entries.insert(lane, released).is_none() {
            self.order.push_back(lane);
            while self.entries.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.entries.remove(&evicted);
                }
            }
        }
    }

    /// The last released location on `lane`, if any survives.
    fn get(&self, lane: u32) -> Option<Point> {
        self.entries.get(&lane).copied()
    }
}

/// Errors surfaced by [`FabricRouter`] calls.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// The shard answered with a transport-level error.
    Transport(TransportError),
    /// The shard's breaker is open and no privacy-safe degraded answer
    /// exists (writes always take this path; reads take it when the
    /// stale cache has nothing for the lane).
    Degraded {
        /// The shard whose breaker shed the call.
        shard: usize,
    },
    /// An injected outage made the shard unreachable for this call.
    Unreachable {
        /// The unreachable shard.
        shard: usize,
    },
    /// The per-call transmission budget ran out before a clean delivery.
    DeadlineExceeded {
        /// The budget that was exhausted.
        budget: u32,
    },
    /// The shard died permanently and its heal budget is spent.
    ShardLost {
        /// The lost shard.
        shard: usize,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Transport(e) => write!(f, "transport error: {e}"),
            FabricError::Degraded { shard } => {
                write!(f, "shard {shard} breaker open and no released location to degrade to")
            }
            FabricError::Unreachable { shard } => write!(f, "shard {shard} unreachable (outage)"),
            FabricError::DeadlineExceeded { budget } => {
                write!(f, "transmission budget of {budget} exhausted before a clean delivery")
            }
            FabricError::ShardLost { shard } => {
                write!(f, "shard {shard} lost permanently (heal budget spent)")
            }
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for FabricError {
    fn from(e: TransportError) -> Self {
        FabricError::Transport(e)
    }
}

/// A location answer from the fabric, labelled with how it was served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServedLocation {
    /// Drawn fresh by the owning shard (normal operation).
    Fresh(Point),
    /// Replayed from the stale cache while the shard's breaker is open
    /// — a previously released obfuscated location, nothing new.
    Degraded(Point),
}

impl ServedLocation {
    /// The reported location, however it was served.
    pub fn point(&self) -> Point {
        match *self {
            ServedLocation::Fresh(p) | ServedLocation::Degraded(p) => p,
        }
    }
}

/// Injected-fault and recovery totals, read via [`FabricRouter::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Transmissions dropped on the wire (masked by retransmission).
    pub drops_injected: u64,
    /// Transmissions corrupted in flight (caught by the checksum).
    pub corruptions_injected: u64,
    /// Stale duplicate copies re-delivered to shards.
    pub duplicates_injected: u64,
    /// Calls failed by scheduled outages.
    pub outage_failures: u64,
    /// Calls that exhausted their transmission budget.
    pub deadline_misses: u64,
    /// Reads answered from the stale cache while a breaker was open.
    pub degraded_serves: u64,
    /// Calls shed with an explicit [`FabricError::Degraded`] instead.
    pub degraded_rejections: u64,
    /// Failed shards healed in place around their committed devices.
    pub heals: u64,
    /// Breaker transition events recorded (length of the trace).
    pub breaker_transitions: u64,
}

/// Tuning for a [`FabricRouter`].
#[derive(Debug, Clone)]
pub struct FabricOptions {
    /// Number of shards (clamped ≥ 1).
    pub shards: usize,
    /// The link fault schedule.
    pub fault_plan: ChannelFaultPlan,
    /// Circuit-breaker tuning, one breaker per shard.
    pub breaker: BreakerConfig,
    /// Stale-cache capacity in lanes.
    pub stale_capacity: usize,
    /// Transmissions allowed per logical call before it fails with
    /// [`FabricError::DeadlineExceeded`] (clamped ≥ 1).
    pub call_budget: u32,
    /// In-place heals allowed per shard.
    pub max_heals: u32,
    /// Per-shard worker crash schedules (index = shard; missing entries
    /// mean no injected kills).
    pub kill_plans: Vec<FaultPlan>,
    /// Template for each shard's [`ServerOptions`], its fault plan taken
    /// from `kill_plans`; its telemetry hub is shared by every shard.
    pub server: ServerOptions,
}

impl Default for FabricOptions {
    fn default() -> Self {
        FabricOptions {
            shards: 1,
            fault_plan: ChannelFaultPlan::none(),
            breaker: BreakerConfig::default(),
            stale_capacity: 1_024,
            call_budget: 8,
            max_heals: 1,
            kill_plans: Vec::new(),
            server: ServerOptions::default(),
        }
    }
}

/// A queued stale duplicate waiting out its delivery delay.
#[derive(Debug)]
struct PendingDup {
    countdown: u32,
    frame: Vec<u8>,
}

/// One shard's link state: client-side sequence numbers, fault ordinals,
/// pending duplicates, its breaker and its heal count.
#[derive(Debug)]
struct LinkState {
    breaker: CircuitBreaker,
    lane_seq: BTreeMap<u32, u32>,
    lane_ordinal: BTreeMap<u32, u64>,
    pending: Vec<PendingDup>,
    heals: u32,
}

/// The self-healing fleet front: a seeded faulty link in front of one
/// [`ShardRouter`], keeping its semantics (O(1) user→shard routing,
/// per-user streams, one shared telemetry hub) under the fault model —
/// every call crosses a [`ChannelFaultPlan`]-governed link in a
/// sequenced envelope, under a per-shard circuit breaker, with in-place
/// healing for shards that die permanently.
///
/// # Examples
///
/// ```
/// use privlocad::{ChannelFaultPlan, FabricOptions, FabricRouter, ServedLocation, SystemConfig};
/// use privlocad_geo::Point;
/// use privlocad_mobility::UserId;
///
/// let options = FabricOptions {
///     shards: 2,
///     fault_plan: ChannelFaultPlan {
///         seed: 7,
///         drop_per_mille: 100,
///         duplicate_per_mille: 100,
///         duplicate_delay: 3,
///         corrupt_per_mille: 100,
///         ..ChannelFaultPlan::none()
///     },
///     ..FabricOptions::default()
/// };
/// let fabric = FabricRouter::spawn(SystemConfig::builder().build()?, 7, options);
/// let user = UserId::new(1);
/// for t in 0..40 {
///     fabric.check_in(user, Point::new(100.0, 100.0), t)?;
/// }
/// assert_eq!(fabric.finalize_window(user)?, 1);
/// let served = fabric.request_location(user, Point::new(100.0, 100.0))?;
/// assert!(matches!(served, ServedLocation::Fresh(_)));
/// fabric.shutdown()?;
/// fabric.join()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FabricRouter {
    router: ShardRouter,
    links: Vec<Mutex<LinkState>>,
    stale: Mutex<StaleCache>,
    stats: Mutex<FabricStats>,
    trace: Mutex<Vec<BreakerEvent>>,
    fault_plan: ChannelFaultPlan,
    call_budget: u32,
    max_heals: u32,
}

impl FabricRouter {
    /// Spawns `options.shards` supervised shards behind faulty links, one
    /// [`ServerOptions`] per shard: `options.server` with that shard's
    /// entry of `options.kill_plans`. Every shard serves per-user streams
    /// from `master` and publishes into the hub carried by
    /// `options.server.telemetry`.
    pub fn spawn(config: SystemConfig, master: u64, options: FabricOptions) -> FabricRouter {
        let shard_options = (0..options.shards.max(1))
            .map(|i| ServerOptions {
                fault_plan: options.kill_plans.get(i).cloned().unwrap_or_default(),
                ..options.server.clone()
            })
            .collect();
        let router = ShardRouter::spawn_with(config, master, shard_options);
        let links = (0..router.shards())
            .map(|_| {
                Mutex::new(LinkState {
                    breaker: CircuitBreaker::new(options.breaker),
                    lane_seq: BTreeMap::new(),
                    lane_ordinal: BTreeMap::new(),
                    pending: Vec::new(),
                    heals: 0,
                })
            })
            .collect();
        FabricRouter {
            router,
            links,
            stale: Mutex::new(StaleCache::new(options.stale_capacity)),
            stats: Mutex::new(FabricStats::default()),
            trace: Mutex::new(Vec::new()),
            fault_plan: options.fault_plan,
            call_budget: options.call_budget.max(1),
            max_heals: options.max_heals,
        }
    }

    /// Number of shards behind this fabric.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The shard owning `user` ([`ShardRouter::route`]).
    pub fn route(&self, user: UserId) -> usize {
        self.router.route(user)
    }

    /// Injected-fault and recovery totals so far.
    pub fn stats(&self) -> FabricStats {
        let mut stats = *self.stats.lock();
        stats.breaker_transitions = self.trace.lock().len() as u64;
        stats
    }

    /// The breaker transition trace so far, in event order — the
    /// deterministic witness compared across shard counts.
    pub fn trace(&self) -> Vec<BreakerEvent> {
        self.trace.lock().clone()
    }

    /// The telemetry hub every shard publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        self.router.telemetry()
    }

    /// Routes one typed request through the faulty link, the breaker,
    /// and the exactly-once envelope.
    ///
    /// # Errors
    ///
    /// See [`FabricError`]; shed reads are *not* degraded here — use
    /// [`FabricRouter::request_location`] for the degradation ladder.
    pub fn call(&self, user: UserId, request: ClientRequest) -> Result<EdgeResponse, FabricError> {
        let shard = self.route(user);
        let mut link = self.links[shard].lock();
        self.drive(shard, &mut link, user.raw(), request)
    }

    /// Routes a check-in. Writes have no privacy-safe degraded answer:
    /// a shed check-in fails with [`FabricError::Degraded`].
    ///
    /// # Errors
    ///
    /// Propagates [`FabricError`].
    pub fn check_in(
        &self,
        user: UserId,
        location: Point,
        timestamp: i64,
    ) -> Result<(), FabricError> {
        match self
            .guard_write(self.call(user, ClientRequest::CheckIn { user, location, timestamp }))?
        {
            EdgeResponse::Ack => Ok(()),
            _ => Err(FabricError::Transport(TransportError::UnexpectedResponse)),
        }
    }

    /// Routes an ad-request location report, falling down the
    /// degradation ladder while the owning shard's breaker is open: the
    /// lane's last *released* location if the stale cache holds one
    /// ([`ServedLocation::Degraded`]), an explicit
    /// [`FabricError::Degraded`] otherwise. Never a fresh draw from
    /// stale state, never the true location.
    ///
    /// # Errors
    ///
    /// Propagates [`FabricError`].
    pub fn request_location(
        &self,
        user: UserId,
        location: Point,
    ) -> Result<ServedLocation, FabricError> {
        match self.call(user, ClientRequest::RequestLocation { user, location }) {
            Ok(EdgeResponse::ReportedLocation { location }) => {
                // The decoded response is a released candidate — the only
                // thing allowed into the degradation cache. Qualified call:
                // the flow engine models `StaleCache::insert` as a sink.
                StaleCache::insert(&mut self.stale.lock(), user.raw(), location);
                Ok(ServedLocation::Fresh(location))
            }
            Ok(_) => Err(FabricError::Transport(TransportError::UnexpectedResponse)),
            Err(FabricError::Degraded { shard }) => match self.stale.lock().get(user.raw()) {
                Some(last_released) => {
                    self.stats.lock().degraded_serves += 1;
                    Ok(ServedLocation::Degraded(last_released))
                }
                None => {
                    self.stats.lock().degraded_rejections += 1;
                    Err(FabricError::Degraded { shard })
                }
            },
            Err(e) => Err(e),
        }
    }

    /// Routes a window close (a write: no degraded answer).
    ///
    /// # Errors
    ///
    /// Propagates [`FabricError`].
    pub fn finalize_window(&self, user: UserId) -> Result<u32, FabricError> {
        match self.guard_write(self.call(user, ClientRequest::FinalizeWindow { user }))? {
            EdgeResponse::WindowClosed { fresh_obfuscations } => Ok(fresh_obfuscations),
            _ => Err(FabricError::Transport(TransportError::UnexpectedResponse)),
        }
    }

    /// Books a shed write in the stats before propagating it.
    fn guard_write(
        &self,
        outcome: Result<EdgeResponse, FabricError>,
    ) -> Result<EdgeResponse, FabricError> {
        if let Err(FabricError::Degraded { .. }) = &outcome {
            self.stats.lock().degraded_rejections += 1;
        }
        outcome
    }

    /// The full link + exactly-once + breaker pipeline for one call.
    fn drive(
        &self,
        shard: usize,
        link: &mut LinkState,
        lane: u32,
        request: ClientRequest,
    ) -> Result<EdgeResponse, FabricError> {
        let admission = link.breaker.admit(shard, &mut self.trace.lock());
        if matches!(admission, Admission::Shed) {
            return Err(FabricError::Degraded { shard });
        }
        // One lane-ordinal per admitted call: the clock outages and
        // fault draws run on, invariant to the user→shard partition.
        let ordinal = {
            let next = link.lane_ordinal.entry(lane).or_insert(0);
            let current = *next;
            *next += 1;
            current
        };
        if self.fault_plan.outage_active(lane, ordinal) {
            self.stats.lock().outage_failures += 1;
            link.breaker.record_failure(shard, &mut self.trace.lock());
            return Err(FabricError::Unreachable { shard });
        }
        let profile = self.fault_plan.draw(lane, ordinal);
        let seq = *link.lane_seq.entry(lane).or_insert(0);
        let frame = encode_sequenced(lane, seq, &request);
        let handle = self.router.handle_at(shard);
        let mut drops_left = profile.drops;
        let mut corrupts_left = profile.corrupts;
        let mut budget = self.call_budget;
        let response = loop {
            if budget == 0 {
                self.stats.lock().deadline_misses += 1;
                link.breaker.record_failure(shard, &mut self.trace.lock());
                return Err(FabricError::DeadlineExceeded { budget: self.call_budget });
            }
            budget -= 1;
            if drops_left > 0 {
                // The transmission vanishes on the wire; the link notices
                // the missing response and retransmits.
                drops_left -= 1;
                self.stats.lock().drops_injected += 1;
                continue;
            }
            if corrupts_left > 0 {
                corrupts_left -= 1;
                self.stats.lock().corruptions_injected += 1;
                let mut damaged = frame.clone();
                corrupt_checksum(&mut damaged, profile.corrupt_salt);
                match handle.call_raw(damaged) {
                    // The checksum caught the damage; the strike reply is
                    // the link's cue to retransmit cleanly.
                    Err(TransportError::Malformed { .. }) => continue,
                    Err(TransportError::WorkerFailed { .. } | TransportError::Disconnected) => {
                        self.heal(shard, link)?;
                        continue;
                    }
                    // Decode of a checksum-flipped frame cannot succeed;
                    // treat anything else as a lost transmission.
                    _ => continue,
                }
            }
            match handle.call_raw(&frame) {
                Ok(response) => break response,
                Err(TransportError::WorkerFailed { .. } | TransportError::Disconnected) => {
                    // Commit-before-reply means the failed call was never
                    // applied: the healed shard sees the same seq as a
                    // first (and only) application.
                    self.heal(shard, link)?;
                    continue;
                }
                Err(e) => {
                    link.breaker.record_failure(shard, &mut self.trace.lock());
                    return Err(FabricError::Transport(e));
                }
            }
        };
        link.lane_seq.insert(lane, seq.wrapping_add(1));
        link.breaker.record_success(shard, &mut self.trace.lock());
        if let Some(delay) = profile.duplicate {
            link.pending.push(PendingDup { countdown: delay, frame });
        }
        self.flush_due(shard, link);
        Ok(response)
    }

    /// Heals a shard that failed past its restart budget in place: its
    /// serving core is rebuilt around its committed device — the failed
    /// step rolled its request back before the shard gave up — exactly as
    /// a shard restored from that device's checkpoint would start. A shard
    /// with no device — its own restore image was unreadable — is lost,
    /// not healed: an empty replacement would answer that image's users
    /// with fresh draws from a device that forgot their released
    /// candidate sets.
    /// Pending stale duplicates are discarded: the healed shard's dedup
    /// window is empty, so re-delivering them would double-apply.
    fn heal(&self, shard: usize, link: &mut LinkState) -> Result<(), FabricError> {
        if link.heals >= self.max_heals || !self.router.revive(shard) {
            link.breaker.record_failure(shard, &mut self.trace.lock());
            return Err(FabricError::ShardLost { shard });
        }
        link.pending.clear();
        link.heals += 1;
        self.stats.lock().heals += 1;
        Ok(())
    }

    /// Ticks pending duplicates by one delivery and re-sends the due
    /// ones. The shard replays each from its dedup window (or rejects
    /// it as stale) — never a second application.
    fn flush_due(&self, shard: usize, link: &mut LinkState) {
        let mut i = 0;
        while i < link.pending.len() {
            if link.pending[i].countdown > 1 {
                link.pending[i].countdown -= 1;
                i += 1;
            } else {
                let dup = link.pending.remove(i);
                self.stats.lock().duplicates_injected += 1;
                let _ = self.router.handle_at(shard).call_raw(dup.frame);
            }
        }
    }

    /// Flushes every shard's pending duplicates, then stops every shard
    /// through the router (first failure wins; remaining shards are still
    /// asked to stop). Delayed copies must not silently disappear, or the
    /// injected/suppressed accounting would depend on timing; every link
    /// stays locked until the shards stop, so no call queues another.
    ///
    /// # Errors
    ///
    /// Returns the first shard's [`TransportError`], if any — a shard
    /// already lost permanently reports `Disconnected`.
    pub fn shutdown(&self) -> Result<(), TransportError> {
        let mut links: Vec<_> = self.links.iter().map(|link| link.lock()).collect();
        for (shard, link) in links.iter_mut().enumerate() {
            for dup in link.pending.drain(..) {
                self.stats.lock().duplicates_injected += 1;
                let _ = self.router.handle_at(shard).call_raw(dup.frame);
            }
        }
        self.router.shutdown()
    }

    /// Stops every shard still serving and returns the final devices in
    /// shard order ([`ShardRouter::join`]). Nothing waits: the shards
    /// have no threads.
    ///
    /// # Errors
    ///
    /// Returns the first shard's [`SystemError`]; later shards are
    /// still joined, so each hands its device out.
    pub fn join(self) -> Result<Vec<EdgeDevice>, SystemError> {
        self.router.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_openrtb::fnv1a64;

    fn config() -> SystemConfig {
        SystemConfig::builder().build().unwrap()
    }

    fn home_of(user: UserId) -> Point {
        Point::new(f64::from(user.raw()) * 7_000.0, 300.0)
    }

    fn chaos_plan(seed: u64) -> ChannelFaultPlan {
        ChannelFaultPlan {
            seed,
            drop_per_mille: 120,
            duplicate_per_mille: 150,
            duplicate_delay: 3,
            corrupt_per_mille: 120,
            outages: Vec::new(),
        }
    }

    #[test]
    fn fault_draws_are_deterministic_and_lane_keyed() {
        let plan = chaos_plan(42);
        for lane in 0..8 {
            for ordinal in 0..32 {
                assert_eq!(plan.draw(lane, ordinal), plan.draw(lane, ordinal));
            }
        }
        // Different lanes see different schedules (at these rates, 64
        // draws collapsing to identical profiles would be astronomical).
        let a: Vec<_> = (0..64).map(|o| plan.draw(1, o)).collect();
        let b: Vec<_> = (0..64).map(|o| plan.draw(2, o)).collect();
        assert_ne!(a, b);
        assert_eq!(ChannelFaultPlan::none().draw(5, 5), DeliveryProfile::default());
    }

    #[test]
    fn breaker_walks_open_shed_probe_close_and_reopen() {
        let mut trace = Vec::new();
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: 2,
            max_cooldown: 8,
        });
        assert!(matches!(breaker.admit(0, &mut trace), Admission::Pass));
        breaker.record_failure(0, &mut trace);
        assert!(trace.is_empty(), "one failure is below the threshold");
        breaker.record_failure(0, &mut trace);
        assert_eq!(trace, vec![BreakerEvent::Opened { shard: 0, failures: 2 }]);
        // Shed once, then the cooldown elapses and the next call probes.
        assert!(matches!(breaker.admit(0, &mut trace), Admission::Shed));
        assert!(matches!(breaker.admit(0, &mut trace), Admission::Probe));
        // Probe fails: reopen with doubled cooldown.
        breaker.record_failure(0, &mut trace);
        assert_eq!(trace.last(), Some(&BreakerEvent::Reopened { shard: 0, cooldown: 4 }));
        for _ in 0..3 {
            assert!(matches!(breaker.admit(0, &mut trace), Admission::Shed));
        }
        assert!(matches!(breaker.admit(0, &mut trace), Admission::Probe));
        breaker.record_success(0, &mut trace);
        assert_eq!(trace.last(), Some(&BreakerEvent::Closed { shard: 0 }));
        assert!(matches!(breaker.admit(0, &mut trace), Admission::Pass));
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn stale_cache_is_bounded_and_last_release_wins() {
        let mut cache = StaleCache::new(2);
        assert!(cache.entries.is_empty());
        cache.insert(1, Point::new(1.0, 1.0));
        cache.insert(1, Point::new(2.0, 2.0));
        assert_eq!(cache.get(1), Some(Point::new(2.0, 2.0)));
        assert_eq!(cache.entries.len(), 1);
        cache.insert(2, Point::new(3.0, 3.0));
        cache.insert(3, Point::new(4.0, 4.0));
        // Lane 1 (oldest) was evicted to stay within capacity.
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.get(3), Some(Point::new(4.0, 4.0)));
    }

    #[test]
    fn faulty_links_mask_drops_corruption_and_duplicates() {
        let drive = |options: FabricOptions| {
            let fabric = FabricRouter::spawn(config(), 23, options);
            let users: Vec<UserId> = (0..6).map(UserId::new).collect();
            for t in 0..40 {
                for &u in &users {
                    fabric.check_in(u, home_of(u), t).unwrap();
                }
            }
            for &u in &users {
                assert_eq!(fabric.finalize_window(u).unwrap(), 1);
            }
            let reports: Vec<Point> = users
                .iter()
                .map(|&u| fabric.request_location(u, home_of(u)).unwrap().point())
                .collect();
            let stats = fabric.stats();
            fabric.shutdown().unwrap();
            let digests: Vec<u64> =
                fabric.join().unwrap().iter().map(|d| fnv1a64(&d.checkpoint())).collect();
            (reports, digests, stats)
        };
        let clean = drive(FabricOptions::default());
        assert_eq!(clean.2, FabricStats::default());
        let faulty =
            drive(FabricOptions { fault_plan: chaos_plan(23), ..FabricOptions::default() });
        // Faults were actually injected, and every one was masked: the
        // outputs and full device state match the fault-free run.
        assert!(faulty.2.drops_injected > 0);
        assert!(faulty.2.corruptions_injected > 0);
        assert!(faulty.2.duplicates_injected > 0);
        assert_eq!(faulty.2.breaker_transitions, 0);
        assert_eq!(faulty.0, clean.0);
        assert_eq!(faulty.1, clean.1);
    }

    #[test]
    fn duplicate_suppression_totals_are_shard_count_invariant() {
        let drive = |shards: usize| {
            let fabric = FabricRouter::spawn(
                config(),
                31,
                FabricOptions { shards, fault_plan: chaos_plan(31), ..FabricOptions::default() },
            );
            let users: Vec<UserId> = (0..8).map(UserId::new).collect();
            for t in 0..40 {
                for &u in &users {
                    fabric.check_in(u, home_of(u), t).unwrap();
                }
            }
            for &u in &users {
                fabric.finalize_window(u).unwrap();
            }
            let reports: Vec<Point> = users
                .iter()
                .map(|&u| fabric.request_location(u, home_of(u)).unwrap().point())
                .collect();
            let stats = fabric.stats();
            fabric.shutdown().unwrap();
            let suppressed = fabric
                .telemetry()
                .registry()
                .snapshot()
                .counter("server.duplicates_suppressed")
                .unwrap();
            fabric.join().unwrap();
            (reports, stats, suppressed)
        };
        let one = drive(1);
        let four = drive(4);
        assert_eq!(one.0, four.0);
        // Lane-keyed fault draws: injected totals are identical whatever
        // the partition, and the shards suppressed every single copy.
        assert_eq!(one.1, four.1);
        assert!(one.1.duplicates_injected > 0);
        assert_eq!(one.2, four.2);
        assert_eq!(one.2, one.1.duplicates_injected);
    }

    #[test]
    fn degraded_serving_fails_closed() {
        // Lane 0 goes dark for 3 calls starting at its 42nd delivery
        // (after priming: 40 check-ins + finalize + 1 request = 42).
        let outage = LaneOutage { lane: 0, from: 42, calls: 3 };
        let fabric = FabricRouter::spawn(
            config(),
            5,
            FabricOptions {
                fault_plan: ChannelFaultPlan {
                    seed: 5,
                    outages: vec![outage],
                    ..ChannelFaultPlan::none()
                },
                breaker: BreakerConfig { failure_threshold: 2, cooldown: 4, max_cooldown: 8 },
                ..FabricOptions::default()
            },
        );
        let user = UserId::new(0);
        let fresh = UserId::new(1);
        for t in 0..40 {
            fabric.check_in(user, home_of(user), t).unwrap();
        }
        fabric.finalize_window(user).unwrap();
        let released = fabric.request_location(user, home_of(user)).unwrap();
        assert!(matches!(released, ServedLocation::Fresh(_)));
        // Outage: two failures open the breaker.
        for _ in 0..2 {
            assert_eq!(
                fabric.request_location(user, home_of(user)).unwrap_err(),
                FabricError::Unreachable { shard: 0 }
            );
        }
        assert_eq!(fabric.trace(), vec![BreakerEvent::Opened { shard: 0, failures: 2 }]);
        // Shed 1: reads degrade to the last *released* location —
        // bit-identical to what already crossed the trust boundary.
        let degraded = fabric.request_location(user, home_of(user)).unwrap();
        assert_eq!(degraded, ServedLocation::Degraded(released.point()));
        // Sheds 2 and 3: writes fail closed, and a lane with no release
        // history gets an explicit error — never a fresh draw, never a
        // true location.
        assert_eq!(
            fabric.check_in(user, home_of(user), 99).unwrap_err(),
            FabricError::Degraded { shard: 0 }
        );
        assert_eq!(
            fabric.request_location(fresh, home_of(fresh)).unwrap_err(),
            FabricError::Degraded { shard: 0 }
        );
        // Shed 4 elapses the cooldown: this call probes. The outage has
        // one failing call left (ordinal 44), so the probe reopens the
        // breaker with a doubled cooldown...
        assert_eq!(
            fabric.request_location(user, home_of(user)).unwrap_err(),
            FabricError::Unreachable { shard: 0 }
        );
        assert_eq!(fabric.trace().last(), Some(&BreakerEvent::Reopened { shard: 0, cooldown: 8 }));
        // ...and after 7 more degraded sheds the second probe lands past
        // the outage window and closes it.
        let mut degraded_serves = 0;
        loop {
            match fabric.request_location(user, home_of(user)) {
                Ok(ServedLocation::Degraded(p)) => {
                    assert_eq!(p, released.point());
                    degraded_serves += 1;
                }
                Ok(ServedLocation::Fresh(_)) => break,
                Err(e) => panic!("probe should succeed after the outage: {e}"),
            }
        }
        assert_eq!(degraded_serves, 7);
        assert_eq!(fabric.trace().last(), Some(&BreakerEvent::Closed { shard: 0 }));
        let stats = fabric.stats();
        assert_eq!(stats.outage_failures, 3);
        assert_eq!(stats.degraded_serves, 1 + 7);
        assert_eq!(stats.degraded_rejections, 2);
        assert_eq!(stats.breaker_transitions, fabric.trace().len() as u64);
        fabric.shutdown().unwrap();
        fabric.join().unwrap();
    }

    #[test]
    fn healed_shard_resumes_bit_for_bit() {
        use privlocad_telemetry::top_key;
        let drive = |kill_plans: Vec<FaultPlan>, max_restarts: u32| {
            let fabric = FabricRouter::spawn(
                config(),
                13,
                FabricOptions {
                    kill_plans,
                    server: ServerOptions {
                        max_restarts,
                        backoff_base: 1,
                        backoff_cap: 1,
                        ..ServerOptions::default()
                    },
                    ..FabricOptions::default()
                },
            );
            let users: Vec<UserId> = (0..3).map(UserId::new).collect();
            for t in 0..40 {
                for &u in &users {
                    fabric.check_in(u, home_of(u), t).unwrap();
                }
            }
            for &u in &users {
                assert_eq!(fabric.finalize_window(u).unwrap(), 1);
            }
            let reports: Vec<Point> = users
                .iter()
                .map(|&u| fabric.request_location(u, home_of(u)).unwrap().point())
                .collect();
            let stats = fabric.stats();
            fabric.shutdown().unwrap();
            let ledger = fabric.telemetry().ledger().clone();
            let devices = fabric.join().unwrap();
            // Every candidate set the final devices released was charged
            // to the hub's ledger exactly once, across the heal too.
            let released = devices.iter().flat_map(|device| {
                let sets = device.snapshot().released_sets().unwrap();
                sets.into_iter().map(|(user, top)| (u64::from(user.raw()), top_key(top.x, top.y)))
            });
            ledger.assert_no_double_spend(released).unwrap();
            let charged = ledger.totals().candidate_sets;
            let digests: Vec<u64> = devices.iter().map(|d| fnv1a64(&d.checkpoint())).collect();
            (reports, digests, stats, charged)
        };
        let clean = drive(Vec::new(), 8);
        // Kill ordinals 60 and 61 with a zero restart budget: the shard
        // dies permanently mid-run and the fabric must heal it in place
        // around its committed device.
        let healed = drive(vec![FaultPlan::kill_at([60, 61])], 0);
        assert_eq!(healed.2.heals, 1);
        assert_eq!(healed.0, clean.0);
        assert_eq!(healed.1, clean.1);
        // The heal charged no candidate set the clean run did not.
        assert_eq!(clean.3, 3);
        assert_eq!(healed.3, clean.3);
    }

    #[test]
    fn lost_shard_past_heal_budget_fails_explicitly() {
        let fabric = FabricRouter::spawn(
            config(),
            3,
            FabricOptions {
                // Every served ordinal is a kill point: the first heal's
                // replacement is clean, but the original dies immediately
                // and a zero heal budget leaves nothing to swap in.
                kill_plans: vec![FaultPlan::kill_at(0..4)],
                max_heals: 0,
                server: ServerOptions {
                    max_restarts: 0,
                    backoff_base: 1,
                    backoff_cap: 1,
                    ..ServerOptions::default()
                },
                ..FabricOptions::default()
            },
        );
        let user = UserId::new(0);
        let err = fabric.check_in(user, home_of(user), 0).unwrap_err();
        assert_eq!(err, FabricError::ShardLost { shard: 0 });
        // The loss is also a breaker failure.
        assert_eq!(fabric.stats().heals, 0);
        let _ = fabric.shutdown();
        assert!(fabric.join().is_err());
    }

    #[test]
    fn a_shard_without_a_committed_image_is_lost_not_healed() {
        // An image releasing user 0's candidates at home, its last byte
        // flipped: the shard cannot restore it.
        let user = UserId::new(0);
        let mut edge = EdgeDevice::new(config(), 3);
        for _ in 0..40 {
            edge.report_checkin(user, home_of(user));
        }
        edge.finalize_window(user);
        let mut image = edge.checkpoint().to_vec();
        *image.last_mut().unwrap() ^= 1;
        let fabric = FabricRouter::spawn(
            config(),
            3,
            FabricOptions {
                server: ServerOptions {
                    restore_from: Some(bytes::Bytes::from(image)),
                    ..ServerOptions::default()
                },
                ..FabricOptions::default()
            },
        );
        // No fresh draw from a device that forgot the user's candidates:
        // the call fails, and nothing was healed.
        assert_eq!(
            fabric.request_location(user, home_of(user)).unwrap_err(),
            FabricError::ShardLost { shard: 0 }
        );
        assert_eq!(fabric.stats().heals, 0);
        let _ = fabric.shutdown();
        assert!(matches!(fabric.join().unwrap_err(), SystemError::Recovery(_)));
    }

    #[test]
    fn deadline_budget_bounds_a_dead_wire() {
        // 100% drop rate with the 2-drop cap still converges; a budget
        // of 1 cannot absorb even one drop and must fail explicitly.
        let plan = ChannelFaultPlan { seed: 9, drop_per_mille: 1_000, ..ChannelFaultPlan::none() };
        let fabric = FabricRouter::spawn(
            config(),
            9,
            FabricOptions {
                fault_plan: plan.clone(),
                call_budget: 1,
                breaker: BreakerConfig { failure_threshold: 1, cooldown: 1, max_cooldown: 2 },
                ..FabricOptions::default()
            },
        );
        let user = UserId::new(0);
        assert_eq!(
            fabric.check_in(user, home_of(user), 0).unwrap_err(),
            FabricError::DeadlineExceeded { budget: 1 }
        );
        assert_eq!(fabric.stats().deadline_misses, 1);
        assert_eq!(fabric.trace(), vec![BreakerEvent::Opened { shard: 0, failures: 1 }]);
        fabric.shutdown().unwrap();
        fabric.join().unwrap();
    }

    #[test]
    fn fabric_error_display_and_source() {
        use std::error::Error;
        let e = FabricError::Transport(TransportError::Disconnected);
        assert!(e.to_string().contains("transport error"));
        assert!(e.source().is_some());
        for e in [
            FabricError::Degraded { shard: 1 },
            FabricError::Unreachable { shard: 2 },
            FabricError::DeadlineExceeded { budget: 3 },
            FabricError::ShardLost { shard: 4 },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
        assert_eq!(
            FabricError::from(TransportError::Overloaded),
            FabricError::Transport(TransportError::Overloaded)
        );
    }
}
