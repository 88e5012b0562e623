use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_telemetry::{Counter, Determinism, Gauge, Telemetry, Tracer};
use rand::rngs::StdRng;
use rand::Rng;

use crate::edge::DeviceCounters;
use crate::protocol::{
    split_sequenced, ClientRequest, EdgeResponse, ErrorCode, FrameError, SequenceHeader,
};
use crate::{EdgeDevice, SystemConfig, SystemError};

/// RNG stream index reserved for the supervisor's backoff jitter, far
/// away from the per-operation streams the devices derive.
const SUPERVISOR_STREAM: u64 = u64::MAX - 1;

/// A handle for calling an [`EdgeServer`] from any thread.
///
/// Cloneable; all clones call the same shard, and each clone has its own
/// client identity for the server's per-connection error accounting. A
/// call serves its request on the calling thread. Requests and responses
/// cross in their binary frame encoding, exactly as they would over a
/// radio link.
#[derive(Debug)]
pub struct EdgeHandle {
    shard: Arc<Shard>,
    client: u64,
}

impl Clone for EdgeHandle {
    fn clone(&self) -> Self {
        EdgeHandle {
            shard: Arc::clone(&self.shard),
            client: self.shard.next_client.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// Errors surfaced by [`EdgeHandle`] calls.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The shard no longer serves this client: it was shut down or
    /// joined, it failed, or it dropped the client.
    Disconnected,
    /// A frame failed to decode.
    Frame(FrameError),
    /// The server answered with an unexpected response type.
    UnexpectedResponse,
    /// The server rejected this client's frame as malformed. After
    /// `strikes_left` more consecutive malformed frames the client is
    /// dropped.
    Malformed {
        /// Consecutive malformed frames left before the server drops
        /// this client.
        strikes_left: u32,
    },
    /// [`ServerOptions::queue_capacity`] callers already wait on the
    /// shard; back off and retry ([`EdgeHandle::call_with_retry`]) or
    /// shed the request.
    Overloaded,
    /// The request failed after `restarts` supervised restarts: it killed
    /// its step twice, or the shard went past its restart budget.
    WorkerFailed {
        /// How many times the supervisor restarted the shard's serving
        /// so far.
        restarts: u32,
    },
    /// The server rejected a sequenced frame as older than its dedup
    /// window: the cached response is gone, and re-serving would
    /// double-apply the request.
    StaleSequence {
        /// The rejected sequence number.
        seq: u32,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "edge server disconnected"),
            TransportError::Frame(e) => write!(f, "frame error: {e}"),
            TransportError::UnexpectedResponse => write!(f, "unexpected response type"),
            TransportError::Malformed { strikes_left } => {
                write!(f, "server rejected malformed frame ({strikes_left} strikes left)")
            }
            TransportError::Overloaded => write!(f, "edge server has too many waiting callers"),
            TransportError::WorkerFailed { restarts } => {
                write!(f, "edge serving failed after {restarts} restarts")
            }
            TransportError::StaleSequence { seq } => {
                write!(f, "server rejected sequence number {seq} as older than its dedup window")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

/// Client-side retry policy for [`EdgeHandle::call_with_retry`]: a
/// bounded attempt budget with exponential, wall-clock-free backoff
/// (cooperative yield spins), so overload handling is deterministic and
/// testable without sleeping on a real clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1), for
    /// [`TransportError::Overloaded`] rejections.
    pub max_attempts: u32,
    /// Yield spins before the first retry; doubles every retry.
    pub backoff_base: u32,
    /// Upper bound on spins for one backoff step.
    pub backoff_cap: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff_base: 32, backoff_cap: 4_096 }
    }
}

impl RetryPolicy {
    fn spins(&self, attempt: u32) -> u32 {
        let exp = attempt.min(16);
        self.backoff_base.saturating_mul(1 << exp).min(self.backoff_cap)
    }
}

impl EdgeHandle {
    /// Sends one request frame and returns the response: the request is
    /// served on the calling thread once it holds the shard's lock, however
    /// many callers wait ahead of it.
    pub fn call(&self, request: ClientRequest) -> Result<EdgeResponse, TransportError> {
        self.call_raw(request.encode_vec())
    }

    /// [`EdgeHandle::call`] with reject-instead-of-wait overload semantics
    /// and a deterministic retry budget: once
    /// [`ServerOptions::queue_capacity`] callers already wait on the shard,
    /// an attempt fails fast with [`TransportError::Overloaded`] instead of
    /// waiting too, backs off (bounded exponential yield spins — no wall
    /// clock) and retries until `policy` is exhausted. Every other
    /// outcome, a disconnect included, is returned as it comes: nothing
    /// revives a stopped or failed shard between attempts.
    pub fn call_with_retry(
        &self,
        request: ClientRequest,
        policy: &RetryPolicy,
    ) -> Result<EdgeResponse, TransportError> {
        let frame = request.encode_vec();
        let overload_budget = policy.max_attempts.max(1);
        let mut overloads = 0;
        loop {
            match self.try_call_raw(&frame) {
                Err(TransportError::Overloaded) => {
                    overloads += 1;
                    if overloads >= overload_budget {
                        return Err(TransportError::Overloaded);
                    }
                    for _ in 0..policy.spins(overloads - 1) {
                        std::thread::yield_now();
                    }
                }
                outcome => return outcome,
            }
        }
    }

    /// Sends a pre-encoded request frame — possibly corrupted, which is
    /// exactly what the chaos harness does to exercise the server's
    /// hardened decode path — and returns the decoded response frame.
    pub fn call_raw(&self, frame: impl AsRef<[u8]>) -> Result<EdgeResponse, TransportError> {
        self.shard.waiting.fetch_add(1, Ordering::Relaxed);
        self.step(frame.as_ref())
    }

    /// [`EdgeHandle::call_raw`] with reject-instead-of-wait overload
    /// semantics: one attempt of [`EdgeHandle::call_with_retry`].
    fn try_call_raw(&self, frame: impl AsRef<[u8]>) -> Result<EdgeResponse, TransportError> {
        let capacity = self.shard.queue_capacity;
        let admitted = self.shard.waiting.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < capacity).then_some(n + 1)
        });
        if admitted.is_err() {
            self.shard.metrics.overload_rejections.inc();
            return Err(TransportError::Overloaded);
        }
        self.step(frame.as_ref())
    }

    /// Waits as an admitted caller for the shard's lock, steps `frame` on
    /// this thread, and decodes the reply once the lock is released.
    fn step(&self, frame: &[u8]) -> Result<EdgeResponse, TransportError> {
        let shard = &self.shard;
        shard.metrics.queue_depth.add(1);
        let reply = {
            let mut core = shard.core.lock();
            shard.waiting.fetch_sub(1, Ordering::Relaxed);
            shard.metrics.queue_depth.sub(1);
            core.step(self.client, frame)
        };
        let frame = reply.ok_or(TransportError::Disconnected)?;
        match EdgeResponse::decode(&frame)? {
            EdgeResponse::Error { code: ErrorCode::Malformed, detail } => {
                Err(TransportError::Malformed { strikes_left: detail })
            }
            EdgeResponse::Error { code: ErrorCode::WorkerFailed, detail } => {
                Err(TransportError::WorkerFailed { restarts: detail })
            }
            EdgeResponse::Error { code: ErrorCode::StaleSequence, detail } => {
                Err(TransportError::StaleSequence { seq: detail })
            }
            response => Ok(response),
        }
    }

    /// Reports a check-in (fire-and-forget semantics at the API level; the
    /// transport still acknowledges).
    pub fn check_in(
        &self,
        user: UserId,
        location: Point,
        timestamp: i64,
    ) -> Result<(), TransportError> {
        match self.call(ClientRequest::CheckIn { user, location, timestamp })? {
            EdgeResponse::Ack => Ok(()),
            _ => Err(TransportError::UnexpectedResponse),
        }
    }

    /// Asks for the location to report for an ad request.
    pub fn request_location(&self, user: UserId, location: Point) -> Result<Point, TransportError> {
        match self.call(ClientRequest::RequestLocation { user, location })? {
            EdgeResponse::ReportedLocation { location } => Ok(location),
            _ => Err(TransportError::UnexpectedResponse),
        }
    }

    /// Closes the user's profile window.
    pub fn finalize_window(&self, user: UserId) -> Result<u32, TransportError> {
        match self.call(ClientRequest::FinalizeWindow { user })? {
            EdgeResponse::WindowClosed { fresh_obfuscations } => Ok(fresh_obfuscations),
            _ => Err(TransportError::UnexpectedResponse),
        }
    }

    /// Stops the shard: every later call observes a disconnect.
    pub fn shutdown(&self) -> Result<(), TransportError> {
        match self.call(ClientRequest::Shutdown)? {
            EdgeResponse::Ack => Ok(()),
            _ => Err(TransportError::UnexpectedResponse),
        }
    }
}

/// Tuning knobs for a supervised [`EdgeServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// How many callers may wait on the shard's lock before an attempt of
    /// [`EdgeHandle::call_with_retry`] is rejected with
    /// [`TransportError::Overloaded`] ([`EdgeHandle::call`] waits
    /// regardless). Counted per shard, even
    /// when shards share a hub.
    pub queue_capacity: usize,
    /// Consecutive malformed frames from one client before the server
    /// drops that client instead of answering it.
    pub malformed_limit: u32,
    /// Supervised restarts (a caught panic, rolled back and retried) the
    /// shard survives before it fails permanently with
    /// [`SystemError::WorkerFailed`].
    pub max_restarts: u32,
    /// Backoff spins (cooperative yields) before the first restart;
    /// doubles every restart.
    pub backoff_base: u32,
    /// Upper bound on spins for one backoff step.
    pub backoff_cap: u32,
    /// Deterministic crash schedule, for supervision tests and the chaos
    /// harness. Empty in production.
    pub fault_plan: FaultPlan,
    /// The telemetry hub this server publishes into: serving metrics,
    /// logical-clock spans, and the privacy-budget ledger. Defaults to a
    /// private hub; hand several servers a clone of one hub to aggregate a
    /// fleet (cloning `ServerOptions` shares the hub — it is a handle).
    pub telemetry: Telemetry,
    /// Per-lane exactly-once dedup depth: how many committed sequenced
    /// responses each user lane caches for duplicate replay (see
    /// [`crate::protocol::split_sequenced`]). A duplicate older than the
    /// window is rejected with [`TransportError::StaleSequence`] instead
    /// of being double-applied. Clamped to at least 1.
    pub dedup_window: usize,
    /// Start the device from this committed checkpoint instead of empty
    /// — how a shard resumes a persisted device (the
    /// [`EdgeDevice::checkpoint`] of an earlier shard's joined device, say)
    /// without re-drawing a single released candidate
    /// ([`crate::recovery`]). An
    /// unreadable checkpoint fails the shard (every call observes a
    /// disconnect and [`EdgeServer::join`] returns the recovery error),
    /// never silently serves from empty state. The spawn reads the image
    /// once, on the calling thread, and drops its reference as soon as the
    /// device is restored, so the image is freed before the spawn returns
    /// unless the caller kept a clone.
    pub restore_from: Option<Bytes>,
    /// Where served ad requests are emitted as OpenRTB-lite bid requests.
    /// `None` (the default) serves without a bid pipeline. The sink is
    /// shared — hand every shard of a fleet a clone of one `Arc` — and it
    /// outlives individual shards, so per-device sequence numbers stay
    /// continuous across restarts and fabric heals. Emission happens in
    /// the commit phase, strictly after the commit, giving each *applied*
    /// request exactly one bid (duplicates and rolled-back requests never
    /// emit); only the released obfuscated candidate from the response
    /// crosses into the sink.
    pub bid_sink: Option<Arc<privlocad_openrtb::BidSink>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            queue_capacity: 1_024,
            malformed_limit: 8,
            max_restarts: 8,
            backoff_base: 16,
            backoff_cap: 4_096,
            fault_plan: FaultPlan::none(),
            telemetry: Telemetry::new(),
            dedup_window: 32,
            restore_from: None,
            bid_sink: None,
        }
    }
}

/// A deterministic schedule of injected crashes: serving panics after
/// request ordinal `k` is served and before its step commits it (0-based,
/// counted over served requests across the shard's lifetime), so the
/// rollback undoes state the request really changed. Each point fires
/// exactly once — the retry after the supervised restart proceeds past it,
/// like a real transient fault.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    kill_at: Vec<u64>,
}

impl FaultPlan {
    /// The empty schedule: no injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A schedule crashing serving at each listed request ordinal.
    pub fn kill_at<I: IntoIterator<Item = u64>>(points: I) -> Self {
        let mut kill_at: Vec<u64> = points.into_iter().collect();
        kill_at.sort_unstable();
        kill_at.dedup();
        FaultPlan { kill_at }
    }

    /// Number of crash points remaining.
    pub fn remaining(&self) -> usize {
        self.kill_at.len()
    }

    /// Removes one crash point at `ordinal`, if any is scheduled, and
    /// reports whether it did.
    fn take(&mut self, ordinal: u64) -> bool {
        let Some(i) = self.kill_at.iter().position(|&k| k == ordinal) else {
            return false;
        };
        self.kill_at.remove(i);
        true
    }
}

/// Registry-backed serving metrics: one set of pre-registered handles
/// shared by the shard's core and every client handle, publishing into
/// the hub carried by [`ServerOptions::telemetry`].
#[derive(Debug)]
struct ServerMetrics {
    requests: Counter,
    restarts: Counter,
    malformed_frames: Counter,
    dropped_clients: Counter,
    failed_replies: Counter,
    overload_rejections: Counter,
    checkpoints: Counter,
    wakeups: Counter,
    duplicates_suppressed: Counter,
    stale_rejections: Counter,
    queue_depth: Gauge,
}

impl ServerMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.registry();
        use Determinism::{Deterministic, Scheduling};
        // Request, decode, and restart counts are pure functions of the
        // workload and seed; anything that counts steps (checkpoints,
        // wakeups) or cross-thread races (overload, failed replies) is
        // scheduling-dependent and excluded from the deterministic export.
        ServerMetrics {
            requests: registry.counter("server.requests", Deterministic),
            // Restarts count *caught crashes*, which land wherever the
            // fault plan (or the real world) puts them — scheduling-
            // dependent, like the recovery restores they trigger.
            restarts: registry.counter("server.restarts", Scheduling),
            malformed_frames: registry.counter("server.malformed_frames", Deterministic),
            dropped_clients: registry.counter("server.dropped_clients", Deterministic),
            failed_replies: registry.counter("server.failed_replies", Scheduling),
            overload_rejections: registry.counter("server.overload_rejections", Scheduling),
            checkpoints: registry.counter("server.checkpoints", Scheduling),
            // One per step, so `server.requests / server.wakeups` reads the
            // requests served per step.
            wakeups: registry.counter("server.wakeups", Scheduling),
            // Duplicate suppression counts logical re-deliveries, which a
            // deterministic per-lane fault plan places independently of
            // the user→shard partition.
            duplicates_suppressed: registry.counter("server.duplicates_suppressed", Deterministic),
            stale_rejections: registry.counter("server.stale_rejections", Deterministic),
            queue_depth: registry.gauge("server.queue_depth", Scheduling),
        }
    }

    fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            restarts: self.restarts.value(),
            malformed_frames: self.malformed_frames.value(),
            dropped_clients: self.dropped_clients.value(),
            failed_replies: self.failed_replies.value(),
            overload_rejections: self.overload_rejections.value(),
            queue_depth: self.queue_depth.value().max(0) as u64,
            checkpoints: self.checkpoints.value(),
            duplicates_suppressed: self.duplicates_suppressed.value(),
        }
    }
}

/// A point-in-time health snapshot of a supervised [`EdgeServer`] — what
/// a fleet operator scrapes to see a device degrading before it fails.
///
/// Backed by the telemetry registry: when several servers share one hub
/// (see [`ServerOptions::telemetry`]), the numbers are hub-wide totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Supervised restarts so far.
    pub restarts: u64,
    /// Malformed request frames rejected by the hardened decode path.
    pub malformed_frames: u64,
    /// Clients dropped for exceeding the consecutive-malformed limit.
    pub dropped_clients: u64,
    /// Requests answered with an explicit `WorkerFailed` (one that killed
    /// its step twice, or the one that took the shard past its restart
    /// budget) instead of left hanging.
    pub failed_replies: u64,
    /// Requests rejected with `Overloaded` because
    /// [`ServerOptions::queue_capacity`] callers already waited.
    pub overload_rejections: u64,
    /// Callers currently waiting for a shard's lock (approximate under
    /// concurrency).
    pub queue_depth: u64,
    /// Steps committed (one per frame stepped): each is a recovery point,
    /// the device as it stands between steps.
    pub checkpoints: u64,
    /// Duplicate sequenced deliveries answered from the dedup window's
    /// cached responses instead of being re-applied.
    pub duplicates_suppressed: u64,
}

/// An edge device behind a supervised serving core that its callers run.
///
/// [`EdgeServer::spawn`] builds an [`EdgeDevice`] and returns a cloneable
/// [`EdgeHandle`]; any number of client threads can then check in and
/// request locations concurrently — the deployment shape of Fig. 5 where
/// one edge node fronts many nearby mobile users. There is no serving
/// thread: each call takes the shard's lock and runs its own request to
/// completion on the calling thread, so the lock is what serializes
/// access to the device.
///
/// The device serves per-user RNG streams derived from the spawn seed
/// ([`EdgeDevice::new`]): a user's outputs depend only
/// on the seed and that user's own requests, never on how other clients'
/// requests interleave with them or on which server of a fleet holds the
/// user.
///
/// Each request is served under a supervisor: a panic is caught, the
/// request is rolled back to the device's last committed state
/// (candidates, posterior tables, window buffers, and RNG position — see
/// [`crate::recovery`]), and it is retried once, bit-for-bit. A reply
/// leaves only after its request commits, so a crash can never expose
/// state that the rollback then undoes. A request that fails twice, and
/// the one that takes the shard past its restart budget, is answered
/// explicitly ([`TransportError::WorkerFailed`]), never left hanging.
///
/// # Examples
///
/// ```
/// use privlocad::{EdgeServer, SystemConfig};
/// use privlocad_geo::Point;
/// use privlocad_mobility::UserId;
///
/// let (server, handle) = EdgeServer::spawn(SystemConfig::builder().build()?, 5);
/// let user = UserId::new(1);
/// for t in 0..30 {
///     handle.check_in(user, Point::new(100.0, 100.0), t)?;
/// }
/// assert_eq!(handle.finalize_window(user)?, 1);
/// let reported = handle.request_location(user, Point::new(100.0, 100.0))?;
/// assert!(reported.is_finite());
/// handle.shutdown()?;
/// let edge = server.join()?;
/// assert_eq!(edge.user_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EdgeServer {
    shard: Arc<Shard>,
    telemetry: Telemetry,
}

impl EdgeServer {
    /// Starts a shard with default [`ServerOptions`] and returns the
    /// server plus a client handle.
    pub fn spawn(config: SystemConfig, seed: u64) -> (EdgeServer, EdgeHandle) {
        EdgeServer::spawn_with(config, seed, ServerOptions::default())
    }

    /// Starts a shard with explicit options. A
    /// [`ServerOptions::restore_from`] image is restored here, on the
    /// calling thread.
    pub fn spawn_with(
        config: SystemConfig,
        seed: u64,
        options: ServerOptions,
    ) -> (EdgeServer, EdgeHandle) {
        let telemetry = options.telemetry.clone();
        let metrics = Arc::new(ServerMetrics::new(&telemetry));
        let queue_capacity = options.queue_capacity.max(1);
        let core = ShardCore::new(config, seed, options, Arc::clone(&metrics), Tracer::default());
        let shard = Arc::new(Shard {
            core: Mutex::new(core),
            metrics,
            // lint:allow(telemetry-hygiene): per-shard admission count that `try_call_raw` bounds, not a metric — the hub-wide `server.queue_depth` gauge is the exported view
            waiting: AtomicUsize::new(0),
            queue_capacity,
            // lint:allow(telemetry-hygiene): client-identity allocator, not a metric — never exported
            next_client: AtomicU64::new(1),
        });
        let handle = EdgeHandle { shard: Arc::clone(&shard), client: 0 };
        (EdgeServer { shard, telemetry }, handle)
    }

    /// Revives a stopped or failed shard in place around its committed
    /// device, as a shard restored from that device's checkpoint would
    /// start. Returns `false`, and leaves the shard as it is, when
    /// there is no device to revive.
    pub(crate) fn revive(&self) -> bool {
        self.shard.core.lock().revive()
    }

    /// The server's current health counters, read from the telemetry
    /// registry. Hub-wide totals when servers share a hub.
    pub fn health(&self) -> HealthSnapshot {
        self.shard.metrics.snapshot()
    }

    /// The telemetry hub this server publishes into (the one passed via
    /// [`ServerOptions::telemetry`], or the private default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Stops the shard, if no client has shut it down yet, and returns the
    /// edge device with its final state for inspection. Nothing waits:
    /// there is no serving thread, and a call in progress finishes first.
    /// Calls made afterwards observe a disconnect.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::WorkerFailed`] if the shard failed past its
    /// restart budget (the failing request got an explicit failure, later
    /// ones a disconnect), or the recovery error if its
    /// [`ServerOptions::restore_from`] image was unreadable.
    pub fn join(self) -> Result<EdgeDevice, SystemError> {
        self.shard.core.lock().finish()
    }
}

/// One shard as its callers share it: the serving core behind its lock,
/// and what callers touch without the lock.
#[derive(Debug)]
struct Shard {
    core: Mutex<ShardCore>,
    metrics: Arc<ServerMetrics>,
    /// Callers admitted to wait for the lock that do not hold it yet —
    /// what [`ServerOptions::queue_capacity`] bounds for `try_call_raw`.
    waiting: AtomicUsize,
    queue_capacity: usize,
    next_client: AtomicU64,
}

/// Whether a shard still serves.
#[derive(Debug)]
enum Status {
    Serving,
    /// A client shut it down; [`EdgeServer::join`] hands its device out.
    Stopped,
    /// It went past its restart budget, or its restore image was
    /// unreadable.
    Failed(SystemError),
}

/// A shard's serving state: the device and everything that decides how a
/// frame is answered. [`ShardCore::step`] serves one frame to completion,
/// and whichever caller holds the shard's lock runs it.
#[derive(Debug)]
struct ShardCore {
    /// The device. Between steps it holds the committed state — the
    /// recovery checkpoint: a reply leaves only after its request commits,
    /// and a request that dies is undone in place from the pre-request
    /// state of its user, so nothing a client has observed is ever rolled
    /// back. No byte image is kept: a shard that failed past its restart
    /// budget leaves this device behind, its last request rolled back, and
    /// the fabric revives the shard around it in place. `None` once
    /// [`EdgeServer::join`] took it, or when the restore image was
    /// unreadable.
    device: Option<EdgeDevice>,
    status: Status,
    /// The options, with `restore_from` taken, `fault_plan` consumed as
    /// its points fire, and `malformed_limit` and `dedup_window` clamped.
    options: ServerOptions,
    /// The device's counters and ledger, opened once: every step drains
    /// into the same handles with no registration by name.
    device_counters: DeviceCounters,
    backoff_rng: StdRng,
    /// Served-request ordinal (successfully decoded, non-shutdown), the
    /// clock the fault plan runs on.
    served: u64,
    restarts: u32,
    /// Per-client consecutive-malformed counts and the ban set. BTree
    /// keeps health iteration order deterministic.
    strikes: BTreeMap<u64, u32>,
    banned: BTreeSet<u64>,
    /// Exactly-once state: one lane per user carrying its sequence
    /// horizon and replay window, created at a lane's first commit.
    /// Committed responses are inserted at commit time only, so a request
    /// the supervisor rolls back leaves no trace here and its retry is a
    /// first application.
    lanes: BTreeMap<u32, LaneState>,
    metrics: Arc<ServerMetrics>,
    /// The shard's span tracer. Every step records six spans that tile it
    /// in order — `server.decode`, `server.serve_batch`, `server.commit`,
    /// `server.drain`, `server.emit`, `server.encode` — on a logical clock
    /// that advances one tick per decoded request, never wall time. A
    /// retried request records one `server.serve_batch` span over all its
    /// attempts. The ring keeps the latest spans only, and is empty with
    /// the `trace` feature off.
    tracer: Tracer,
}

/// What a step does with its frame.
#[derive(Clone, Copy)]
enum Verdict {
    /// Serve the request. A sequenced one carries its header, whose lane
    /// learns the response at commit.
    Serve(ClientRequest, Option<SequenceHeader>),
    /// Answer without serving: a committed duplicate's cached response
    /// (re-encoded, byte-for-byte the frame the original got, since
    /// encoding is deterministic), a stale-sequence or malformed-frame
    /// rejection, or a shutdown's acknowledgement.
    Answer(EdgeResponse),
    /// Answer nothing (banned client): the client observes a disconnect.
    Drop,
}

/// Per-user exactly-once state: the next expected sequence number (one
/// past the highest committed) and the window of recently committed
/// `(seq, response)` pairs available for duplicate replay. The window is
/// allocated once at the dedup depth, and a commit makes room before it
/// adds, so the window never reallocates.
#[derive(Debug)]
struct LaneState {
    next_seq: u32,
    window: VecDeque<(u32, EdgeResponse)>,
}

impl LaneState {
    fn new(dedup_window: usize) -> Self {
        LaneState { next_seq: 0, window: VecDeque::with_capacity(dedup_window) }
    }

    /// The committed response to `seq`, while it is still in the window.
    fn cached(&self, seq: u32) -> Option<EdgeResponse> {
        self.window.iter().find(|(s, _)| *s == seq).map(|&(_, response)| response)
    }

    /// Records `response` as the committed reply to `seq`, evicting the
    /// oldest entry first once the window holds `dedup_window`.
    fn commit(&mut self, seq: u32, response: EdgeResponse, dedup_window: usize) {
        if self.window.len() >= dedup_window {
            self.window.pop_front();
        }
        self.window.push_back((seq, response));
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
    }
}

impl ShardCore {
    /// A core serving a fresh device, or one restored from
    /// `options.restore_from`. An unreadable image fails the core
    /// outright — serving from empty state here would silently re-draw
    /// released candidates. Taken, not borrowed: the image is read once
    /// and freed here.
    fn new(
        config: SystemConfig,
        seed: u64,
        mut options: ServerOptions,
        metrics: Arc<ServerMetrics>,
        tracer: Tracer,
    ) -> ShardCore {
        let device = match options.restore_from.take() {
            Some(image) => EdgeDevice::restore_from_checkpoint(config, &image).map_err(Into::into),
            None => Ok(EdgeDevice::new(config, seed)),
        };
        ShardCore::around(device, seed, options, metrics, tracer)
    }

    /// A core with nothing served yet around `device`, or failed with its
    /// error and no device.
    fn around(
        device: Result<EdgeDevice, SystemError>,
        seed: u64,
        mut options: ServerOptions,
        metrics: Arc<ServerMetrics>,
        tracer: Tracer,
    ) -> ShardCore {
        let (device, status) = match device {
            Ok(edge) => (Some(edge), Status::Serving),
            Err(e) => (None, Status::Failed(e)),
        };
        options.malformed_limit = options.malformed_limit.max(1);
        options.dedup_window = options.dedup_window.max(1);
        ShardCore {
            device,
            status,
            device_counters: DeviceCounters::open(&options.telemetry),
            backoff_rng: seeded(derive_seed(seed, SUPERVISOR_STREAM)),
            options,
            served: 0,
            restarts: 0,
            strikes: BTreeMap::new(),
            banned: BTreeSet::new(),
            lanes: BTreeMap::new(),
            metrics,
            tracer,
        }
    }

    /// Rebuilds the core around its committed device exactly as a core
    /// restored from that device's checkpoint would start: serving, no
    /// restarts, the kill plan disarmed, fresh lanes, strikes and bans,
    /// and the device's run-local buffers restarted as after a restore.
    /// Returns `false`, changing nothing, when there is no device.
    fn revive(&mut self) -> bool {
        let Some(mut edge) = self.device.take() else {
            return false;
        };
        edge.restart_run();
        let seed = edge.master();
        let options = ServerOptions { fault_plan: FaultPlan::none(), ..self.options.clone() };
        let (metrics, tracer) = (Arc::clone(&self.metrics), self.tracer.clone());
        *self = ShardCore::around(Ok(edge), seed, options, metrics, tracer);
        true
    }

    /// Serves `frame` from `client` to completion and returns the reply
    /// frame, or `None` when the client gets none: the shard no longer
    /// serves, or it has banned the client.
    fn step(&mut self, client: u64, frame: &[u8]) -> Option<Bytes> {
        if !matches!(self.status, Status::Serving) {
            return None;
        }
        self.metrics.wakeups.inc();
        // Decode phase — total: every frame passes the hardened strict
        // decode, and malformed input costs its sender strikes, never the
        // shard its life.
        let verdict = {
            let _span = self.tracer.span("server.decode");
            let verdict = self.decode(client, frame);
            // The tracer's logical clock: one tick per decoded request,
            // never wall time.
            self.tracer.advance(u64::from(matches!(verdict, Verdict::Serve(..))));
            verdict
        };
        let edge = self.device.as_mut()?;

        // Serve phase, under the supervisor. Each attempt first saves the
        // pre-request state of the user the request names; a panic rolls
        // back only that (`serve_attempt`), and the retry runs on exactly
        // the committed state: the restored RNG position makes it
        // bit-for-bit identical, and an injected fault point has already
        // been consumed. A second panic on the same request fails it
        // explicitly and drops it.
        let served = {
            let _span = self.tracer.span("server.serve_batch");
            match verdict {
                Verdict::Serve(request, _) => {
                    let mut attempts = 0;
                    let response = loop {
                        let ordinal = self.served;
                        let plan = &mut self.options.fault_plan;
                        if let Some(response) = serve_attempt(edge, request, plan, ordinal) {
                            break response;
                        }
                        self.restarts += 1;
                        self.metrics.restarts.inc();
                        if self.restarts > self.options.max_restarts {
                            // Past the restart budget: fail this request
                            // explicitly and stop serving — never a hang,
                            // never an escaped panic. The rollback already
                            // returned the device to its committed state,
                            // which the core keeps for `join` and `revive`;
                            // its undrained telemetry is never
                            // drained — only committed requests ever reach
                            // the ledger.
                            let restarts = self.restarts;
                            self.status = Status::Failed(SystemError::WorkerFailed { restarts });
                            return Some(failed_reply(restarts, &self.metrics));
                        }
                        backoff(&mut self.backoff_rng, self.restarts, &self.options);
                        attempts += 1;
                        if attempts >= 2 {
                            // The request killed its step twice: answer it
                            // with an explicit failure and serve on with the
                            // rolled-back device.
                            return Some(failed_reply(self.restarts, &self.metrics));
                        }
                    };
                    self.served += 1;
                    self.metrics.requests.inc();
                    Some(response)
                }
                Verdict::Answer(_) | Verdict::Drop => None,
            }
        };

        // Commit phase: the request stands, so its undo is gone with its
        // attempt, and its lane's dedup window learns its response — before
        // the reply leaves and before the lock is released, so neither a
        // client nor a reader of the device can observe state a rollback
        // would undo, and a duplicate behind its original can only ever
        // observe the committed response.
        {
            let _span = self.tracer.span("server.commit");
            if let (Verdict::Serve(_, Some(header)), Some(response)) = (verdict, served) {
                let dedup_window = self.options.dedup_window;
                self.lanes
                    .entry(header.lane)
                    .or_insert_with(|| LaneState::new(dedup_window))
                    .commit(header.seq, response, dedup_window);
            }
            self.metrics.checkpoints.inc();
        }
        // Telemetry drains strictly after the commit: a crash wipes any
        // undelivered ledger events together with the device state they
        // described, keeping budget-spend delivery exactly-once. The drain
        // of a shutdown's step is the shard's last.
        {
            let _span = self.tracer.span("server.drain");
            edge.drain_into(&self.device_counters);
        }
        // Bid emission shares the same post-commit slot and therefore the
        // same exactly-once guarantee: only an applied request emits
        // (replays never reach `Serve`; a killed request rolls back before
        // reaching here).
        {
            let _span = self.tracer.span("server.emit");
            if let (Some(sink), Verdict::Serve(request, _), Some(response)) =
                (&self.options.bid_sink, verdict, served)
            {
                crate::replay::emit_bids(
                    sink,
                    std::slice::from_ref(&request),
                    std::slice::from_ref(&response),
                );
            }
        }
        let _span = self.tracer.span("server.encode");
        match (served, verdict) {
            (Some(response), _) | (None, Verdict::Answer(response)) => Some(response.encode()),
            (None, _) => None,
        }
    }

    /// Decides what the step does with `frame`, booking strikes, bans,
    /// suppressed duplicates and stale rejections as it goes.
    fn decode(&mut self, client: u64, frame: &[u8]) -> Verdict {
        if self.banned.contains(&client) {
            return Verdict::Drop;
        }
        // Peel the exactly-once envelope first. The checksum over (lane,
        // seq, inner) fails closed: a corrupted header can never alias
        // another lane's cached response, it lands on the malformed path
        // like any other damaged frame.
        let (header, inner) = match split_sequenced(frame) {
            Ok(Some((header, inner))) => (Some(header), inner),
            Ok(None) => (None, frame),
            Err(_) => return self.book_malformed(client),
        };
        if let Some(header) = header {
            let lane = self.lanes.get(&header.lane);
            if let Some(cached) = lane.and_then(|lane| lane.cached(header.seq)) {
                // Committed duplicate: replay the response the original
                // received.
                self.strikes.remove(&client);
                self.metrics.duplicates_suppressed.inc();
                return Verdict::Answer(cached);
            }
            if header.seq < lane.map_or(0, |lane| lane.next_seq) {
                // Older than the replay window: re-serving would
                // double-apply, so reject explicitly instead.
                self.strikes.remove(&client);
                self.metrics.stale_rejections.inc();
                let code = ErrorCode::StaleSequence;
                return Verdict::Answer(EdgeResponse::Error { code, detail: header.seq });
            }
        }
        match ClientRequest::decode(inner) {
            Ok(ClientRequest::Shutdown) => {
                // The shard stops once this step completes.
                self.status = Status::Stopped;
                Verdict::Answer(EdgeResponse::Ack)
            }
            Ok(request) => {
                self.strikes.remove(&client);
                Verdict::Serve(request, header)
            }
            Err(_) => self.book_malformed(client),
        }
    }

    /// Books one malformed frame against its sender: a strike with an
    /// explicit countdown reply while under the limit, a ban (silent drop,
    /// the client observes a disconnect) once the limit is reached.
    fn book_malformed(&mut self, client: u64) -> Verdict {
        self.metrics.malformed_frames.inc();
        let limit = self.options.malformed_limit;
        let count = self.strikes.entry(client).or_insert(0);
        *count += 1;
        if *count >= limit {
            self.strikes.remove(&client);
            self.banned.insert(client);
            self.metrics.dropped_clients.inc();
            Verdict::Drop
        } else {
            let detail = limit - *count;
            Verdict::Answer(EdgeResponse::Error { code: ErrorCode::Malformed, detail })
        }
    }

    /// Stops serving, if the shard still serves, and hands the device out.
    /// The final drain carries what no commit did: the restore events of
    /// a request that killed its step twice and was dropped.
    fn finish(&mut self) -> Result<EdgeDevice, SystemError> {
        if let Status::Failed(e) = &self.status {
            return Err(e.clone());
        }
        self.status = Status::Stopped;
        let mut edge =
            self.device.take().ok_or(SystemError::WorkerFailed { restarts: self.restarts })?;
        edge.drain_into(&self.device_counters);
        Ok(edge)
    }
}

/// One supervised attempt at a decoded request: saves the pre-request
/// state of the user it names, serves it, and rolls the device back to
/// that state if serving panics. Returns the response once served.
fn serve_attempt(
    edge: &mut EdgeDevice,
    request: ClientRequest,
    fault_plan: &mut FaultPlan,
    ordinal: u64,
) -> Option<EdgeResponse> {
    let undo = edge.save_undo(&request);
    // `AssertUnwindSafe` is sound because the rollback repairs whatever
    // the unwind leaves torn. Serving changes three things: the slot of
    // the user the request names, the user map's key set (a first contact
    // adds a slot), and the device's stats, pending spends and scratch
    // arena. `roll_back` puts the saved slot back, removes a first
    // contact, and restarts the stats, pending spends and arena as a
    // restore does. `fault_plan` gives up a kill point before the panic it
    // causes.
    let outcome =
        catch_unwind(AssertUnwindSafe(|| serve_request(edge, request, fault_plan, ordinal)));
    if outcome.is_err() {
        edge.roll_back(undo);
    }
    outcome.ok()
}

/// Serves a decoded request, injecting any crash scheduled at its
/// ordinal: the request is served — mutating device state, the realistic
/// partial-failure shape the rollback must undo — and then serving dies,
/// before the step can commit it.
fn serve_request(
    edge: &mut EdgeDevice,
    request: ClientRequest,
    fault_plan: &mut FaultPlan,
    ordinal: u64,
) -> EdgeResponse {
    let response = edge.serve(request);
    if fault_plan.take(ordinal) {
        // lint:allow(panic-hygiene): the injected fault IS a panic — the supervisor's catch_unwind/rollback path is what it exercises
        panic!("injected fault: worker killed after serving request {ordinal}, before its commit");
    }
    response
}

/// The explicit failure reply for a request its step could not serve.
fn failed_reply(restarts: u32, metrics: &ServerMetrics) -> Bytes {
    metrics.failed_replies.inc();
    EdgeResponse::Error { code: ErrorCode::WorkerFailed, detail: restarts }.encode()
}

/// Bounded, deterministic, wall-clock-free backoff between restarts:
/// exponential in the restart count with seeded jitter, realized as
/// cooperative yields so supervision is testable without real sleeps.
fn backoff(rng: &mut StdRng, restarts: u32, options: &ServerOptions) {
    let exp = restarts.saturating_sub(1).min(16);
    let spins = options
        .backoff_base
        .saturating_mul(1 << exp)
        .min(options.backoff_cap)
        .saturating_add(rng.gen_range(0..options.backoff_base.max(1)));
    for _ in 0..spins {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceStats;

    fn spawn() -> (EdgeServer, EdgeHandle) {
        EdgeServer::spawn(SystemConfig::builder().build().unwrap(), 11)
    }

    fn spawn_with(options: ServerOptions) -> (EdgeServer, EdgeHandle) {
        EdgeServer::spawn_with(SystemConfig::builder().build().unwrap(), 11, options)
    }

    #[test]
    fn full_protocol_round_trip() {
        let (server, handle) = spawn();
        let user = UserId::new(3);
        let home = Point::new(10.0, 20.0);
        for t in 0..40 {
            handle.check_in(user, home, t).unwrap();
        }
        assert_eq!(handle.finalize_window(user).unwrap(), 1);
        let reported = handle.request_location(user, home).unwrap();
        assert_ne!(reported, home);
        handle.shutdown().unwrap();
        let edge = server.join().unwrap();
        assert_eq!(edge.user_count(), 1);
        assert!(edge.candidates(user, home).unwrap().contains(&reported));
    }

    #[test]
    fn bid_sink_gets_exactly_one_released_location_per_ad_request() {
        let sink = Arc::new(privlocad_openrtb::BidSink::new());
        let (server, handle) = spawn_with(ServerOptions {
            bid_sink: Some(Arc::clone(&sink)),
            ..ServerOptions::default()
        });
        let user = UserId::new(3);
        let home = Point::new(10.0, 20.0);
        for t in 0..40 {
            handle.check_in(user, home, t).unwrap();
        }
        handle.finalize_window(user).unwrap();
        let first = handle.request_location(user, home).unwrap();
        let second = handle.request_location(user, home).unwrap();
        handle.shutdown().unwrap();
        server.join().unwrap();
        // Check-ins and window closes emit nothing; the two ad requests
        // emit exactly one bid each, carrying the released candidate the
        // client saw — never the true check-in position.
        let pending = sink.drain();
        assert_eq!(pending.len(), 2);
        for (bid, reported) in pending.iter().zip([first, second]) {
            let (decoded, _) = privlocad_openrtb::BidRequest::decode_slice(&bid.frame).unwrap();
            assert_eq!(decoded.device.id.raw(), 3);
            assert_eq!(decoded.device.geo.point(), reported);
            assert_ne!(decoded.device.geo.point(), home);
        }
        assert_eq!(pending[0].seq, 0);
        assert_eq!(pending[1].seq, 1);
    }

    #[test]
    fn many_client_threads_share_one_edge() {
        // Each user's script: a settling window, then ad requests.
        let replies = |handle: &EdgeHandle, user: UserId| -> Vec<EdgeResponse> {
            let home = Point::new(f64::from(user.raw()) * 3_000.0, 0.0);
            (0..30)
                .map(|t| ClientRequest::CheckIn { user, location: home, timestamp: t })
                .chain([ClientRequest::FinalizeWindow { user }])
                .chain((0..5).map(|_| ClientRequest::RequestLocation { user, location: home }))
                .map(|request| handle.call(request).unwrap())
                .collect()
        };
        let users: Vec<UserId> = (0..6).map(UserId::new).collect();
        // Serial: one caller, one user after another.
        let (server, handle) = spawn();
        let serial: Vec<Vec<EdgeResponse>> = users.iter().map(|&u| replies(&handle, u)).collect();
        let serial_device = server.join().unwrap();
        // Concurrent: one thread per user, all calling one shard, get
        // every user the replies of the serial run.
        let (server, handle) = spawn();
        let concurrent: Vec<Vec<EdgeResponse>> = std::thread::scope(|scope| {
            let callers: Vec<_> = users
                .iter()
                .map(|&u| {
                    let handle = handle.clone();
                    scope.spawn(move || replies(&handle, u))
                })
                .collect();
            callers.into_iter().map(|caller| caller.join().unwrap()).collect()
        });
        assert_eq!(concurrent, serial);
        handle.shutdown().unwrap();
        let edge = server.join().unwrap();
        assert_eq!(edge.user_count(), 6);
        assert_eq!(edge.checkpoint(), serial_device.checkpoint());
    }

    #[test]
    fn handle_calls_after_shutdown_fail() {
        let (server, handle) = spawn();
        handle.shutdown().unwrap();
        server.join().unwrap();
        let err = handle.check_in(UserId::new(0), Point::ORIGIN, 0).unwrap_err();
        assert_eq!(err, TransportError::Disconnected);
    }

    #[test]
    fn dropping_all_handles_stops_the_loop() {
        let (server, handle) = spawn();
        drop(handle);
        let edge = server.join().unwrap();
        assert_eq!(edge.user_count(), 0);
    }

    #[test]
    fn transport_error_display_and_source() {
        use std::error::Error;
        let e = TransportError::Frame(FrameError::Empty);
        assert!(e.to_string().contains("frame error"));
        assert!(e.source().is_some());
        for e in [
            TransportError::Disconnected,
            TransportError::UnexpectedResponse,
            TransportError::Malformed { strikes_left: 3 },
            TransportError::Overloaded,
            TransportError::WorkerFailed { restarts: 2 },
            TransportError::StaleSequence { seq: 7 },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
    }

    #[test]
    fn malformed_frames_are_rejected_then_client_dropped() {
        let (server, handle) =
            spawn_with(ServerOptions { malformed_limit: 3, ..ServerOptions::default() });
        let polluter = handle.clone();
        // Strikes 1 and 2: explicit Malformed rejections with a countdown.
        for strikes_left in [2u32, 1] {
            let err = polluter.call_raw(vec![0xFF, 0x00, 0x01]).unwrap_err();
            assert_eq!(err, TransportError::Malformed { strikes_left });
        }
        // Strike 3: the client is dropped; its reply channel just closes.
        assert_eq!(polluter.call_raw(vec![0xFF]).unwrap_err(), TransportError::Disconnected);
        // And stays dropped even for well-formed frames.
        assert_eq!(
            polluter.check_in(UserId::new(0), Point::ORIGIN, 0).unwrap_err(),
            TransportError::Disconnected
        );
        // The original handle (a different client id) is unaffected.
        handle.check_in(UserId::new(0), Point::ORIGIN, 0).unwrap();
        let health = server.health();
        assert_eq!(health.malformed_frames, 3);
        assert_eq!(health.dropped_clients, 1);
        handle.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn well_formed_frames_reset_the_strike_count() {
        let (server, handle) =
            spawn_with(ServerOptions { malformed_limit: 2, ..ServerOptions::default() });
        for _ in 0..4 {
            let err = handle.call_raw(vec![0xEE]).unwrap_err();
            assert_eq!(err, TransportError::Malformed { strikes_left: 1 });
            // A good frame in between resets the consecutive count.
            handle.check_in(UserId::new(1), Point::ORIGIN, 0).unwrap();
        }
        handle.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn supervisor_restarts_through_injected_faults() {
        let (server, handle) = spawn_with(ServerOptions {
            fault_plan: FaultPlan::kill_at([0, 3, 7]),
            ..ServerOptions::default()
        });
        let user = UserId::new(2);
        let home = Point::new(50.0, 50.0);
        // Every call succeeds: the supervisor rolls the killed request back
        // and retries it.
        for t in 0..30 {
            handle.check_in(user, home, t).unwrap();
        }
        assert_eq!(handle.finalize_window(user).unwrap(), 1);
        let reported = handle.request_location(user, home).unwrap();
        assert_eq!(server.health().restarts, 3);
        assert!(server.health().checkpoints > 0);
        handle.shutdown().unwrap();
        let edge = server.join().unwrap();
        assert!(edge.candidates(user, home).unwrap().contains(&reported));
    }

    #[test]
    fn faulty_run_matches_fault_free_run_bit_for_bit() {
        let drive = |fault_plan: FaultPlan| {
            let (server, handle) =
                spawn_with(ServerOptions { fault_plan, ..ServerOptions::default() });
            let user = UserId::new(4);
            let home = Point::new(75.0, -25.0);
            for t in 0..25 {
                handle.check_in(user, home, t).unwrap();
            }
            handle.finalize_window(user).unwrap();
            let reports: Vec<Point> =
                (0..10).map(|_| handle.request_location(user, home).unwrap()).collect();
            handle.shutdown().unwrap();
            server.join().unwrap();
            reports
        };
        let faulty = drive(FaultPlan::kill_at([1, 5, 26, 30, 33]));
        let clean = drive(FaultPlan::none());
        assert_eq!(faulty, clean);
    }

    #[test]
    fn worker_failing_past_restart_budget_fails_explicitly() {
        // One kill point per served ordinal: every call crashes the worker
        // once (the retry succeeds because the point is consumed), so the
        // cumulative restart count walks through the budget.
        let (server, handle) = spawn_with(ServerOptions {
            fault_plan: FaultPlan::kill_at(0..10),
            max_restarts: 2,
            ..ServerOptions::default()
        });
        // Restarts 1 and 2 are within budget: the calls still succeed.
        for t in 0..2 {
            handle.check_in(UserId::new(0), Point::ORIGIN, t).unwrap();
        }
        // Restart 3 exceeds it: explicit failure, never a hang.
        let err = handle.check_in(UserId::new(0), Point::ORIGIN, 2).unwrap_err();
        assert_eq!(err, TransportError::WorkerFailed { restarts: 3 });
        assert_eq!(server.join().unwrap_err(), SystemError::WorkerFailed { restarts: 3 });
        // The loop has terminated; later calls observe a disconnect.
        assert_eq!(
            handle.check_in(UserId::new(0), Point::ORIGIN, 3).unwrap_err(),
            TransportError::Disconnected
        );
    }

    #[test]
    fn poisoned_batch_fails_its_replies_and_worker_recovers() {
        // A request that kills its step on the retry too — its kill point
        // scheduled twice, which `FaultPlan::kill_at` cannot build: the
        // supervisor answers it with an explicit failure and the shard
        // serves on with the rolled-back device.
        let (server, handle) = spawn_with(ServerOptions {
            fault_plan: FaultPlan { kill_at: vec![0, 0] },
            backoff_base: 1,
            backoff_cap: 1,
            ..ServerOptions::default()
        });
        let check_in = |t| ClientRequest::CheckIn {
            user: UserId::new(1),
            location: Point::ORIGIN,
            timestamp: t,
        };
        let err = handle.call(check_in(0)).unwrap_err();
        assert_eq!(err, TransportError::WorkerFailed { restarts: 2 });
        // The request was dropped after the rollback: no check-in survived.
        let fresh = EdgeDevice::new(SystemConfig::builder().build().unwrap(), 11);
        assert_eq!(committed_image(&server), fresh.checkpoint());
        let health = server.health();
        assert_eq!((health.restarts, health.failed_replies), (2, 1));
        // The shard serves on: the next request is its first.
        handle.call(check_in(1)).unwrap();
        assert_eq!(handle.shard.metrics.requests.value(), 1);
        handle.shutdown().unwrap();
        assert_eq!(server.join().unwrap().user_count(), 1);
    }

    #[test]
    fn overload_rejects_and_retry_budget_is_bounded() {
        // Client-side path against a full shard: capacity 1, its one
        // waiting slot occupied directly.
        let (_server, handle) =
            spawn_with(ServerOptions { queue_capacity: 1, ..ServerOptions::default() });
        let metrics = Arc::clone(&handle.shard.metrics);
        handle.shard.waiting.fetch_add(1, Ordering::Relaxed);
        let err = handle.try_call_raw(ClientRequest::Shutdown.encode_vec()).unwrap_err();
        assert_eq!(err, TransportError::Overloaded);
        let policy = RetryPolicy { max_attempts: 3, backoff_base: 4, backoff_cap: 64 };
        let err = handle.call_with_retry(ClientRequest::Shutdown, &policy).unwrap_err();
        assert_eq!(err, TransportError::Overloaded);
        assert_eq!(metrics.overload_rejections.value(), 4);
        // Rejected callers never wait; the only waiter went around the
        // handle, so the depth reads zero.
        assert_eq!(metrics.queue_depth.value(), 0);
    }

    #[test]
    fn try_call_is_overloaded_once_queue_capacity_callers_wait_on_the_shard() {
        // Two shards on one hub, each admitting two waiting callers.
        let hub = Telemetry::new();
        let options =
            ServerOptions { queue_capacity: 2, telemetry: hub.clone(), ..ServerOptions::default() };
        let (busy, busy_handle) = spawn_with(options.clone());
        let (_idle, idle_handle) = spawn_with(options);
        let check_in = |t| ClientRequest::CheckIn {
            user: UserId::new(1),
            location: Point::ORIGIN,
            timestamp: t,
        };
        std::thread::scope(|scope| {
            // The test holds the busy shard's lock, so the callers it
            // admits wait.
            let held = busy_handle.shard.core.lock();
            let waiters: Vec<_> = (0..2)
                .map(|t| {
                    let handle = busy_handle.clone();
                    scope.spawn(move || handle.try_call_raw(check_in(t).encode_vec()))
                })
                .collect();
            let waiting = || busy_handle.shard.waiting.load(Ordering::Relaxed);
            while waiting() < 2 && !waiters.iter().any(|w| w.is_finished()) {
                std::thread::yield_now();
            }
            assert_eq!(waiting(), 2, "both callers under the capacity are admitted");
            // Two callers wait: the third is shed at once...
            assert_eq!(
                busy_handle.try_call_raw(check_in(2).encode_vec()).unwrap_err(),
                TransportError::Overloaded
            );
            // ...while the other shard still admits, though the hub-wide
            // gauge already counts two waiters.
            assert_eq!(busy.health().queue_depth, 2);
            assert_eq!(
                idle_handle.try_call_raw(check_in(0).encode_vec()).unwrap(),
                EdgeResponse::Ack
            );
            drop(held);
            for waiter in waiters {
                assert_eq!(waiter.join().unwrap().unwrap(), EdgeResponse::Ack);
            }
        });
        let health = busy.health();
        assert_eq!((health.queue_depth, health.overload_rejections), (0, 1));
    }

    #[test]
    fn health_snapshot_counts_queue_depth() {
        let (server, handle) = spawn();
        handle.check_in(UserId::new(0), Point::ORIGIN, 0).unwrap();
        let health = server.health();
        assert_eq!(health.queue_depth, 0);
        assert_eq!(health.restarts, 0);
        assert!(health.checkpoints >= 1);
        handle.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn telemetry_hub_records_serving_and_ledger_audits_clean() {
        use privlocad_telemetry::top_key;
        let hub = Telemetry::new();
        let (server, handle) = EdgeServer::spawn_with(
            SystemConfig::builder().build().unwrap(),
            11,
            ServerOptions { telemetry: hub.clone(), ..ServerOptions::default() },
        );
        let user = UserId::new(6);
        let home = Point::new(30.0, 40.0);
        for t in 0..30 {
            handle.check_in(user, home, t).unwrap();
        }
        assert_eq!(handle.finalize_window(user).unwrap(), 1);
        for _ in 0..5 {
            handle.request_location(user, home).unwrap();
        }
        handle.shutdown().unwrap();
        let edge = server.join().unwrap();

        let metrics = hub.registry().snapshot();
        // 30 check-ins + 1 finalize + 5 requests (shutdown is transport-level).
        assert_eq!(metrics.counter("server.requests"), Some(36));
        assert_eq!(metrics.counter("edge.checkins"), Some(30));
        assert_eq!(metrics.counter("edge.windows_closed"), Some(1));
        assert_eq!(metrics.counter("edge.location_requests"), Some(5));
        assert_eq!(metrics.counter("server.restarts"), Some(0));

        // Every budget spend the device released is in the ledger, exactly
        // once.
        let live: Vec<(u64, _)> = edge
            .snapshot()
            .released_sets()
            .unwrap()
            .into_iter()
            .map(|(u, p)| (u64::from(u.raw()), top_key(p.x, p.y)))
            .collect();
        assert_eq!(live.len(), 1);
        hub.ledger().assert_no_double_spend(live).unwrap();
        assert_eq!(hub.ledger().totals().candidate_sets, 1);
        // The JSON export carries all three sections.
        let json = hub.to_json();
        for key in ["server.requests", "edge.checkins", "\"ledger\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn fault_plan_take_consumes_points_in_order() {
        let mut plan = FaultPlan::kill_at([5, 2, 9, 2]);
        assert_eq!(plan.remaining(), 3);
        assert!(plan.take(2));
        assert!(!plan.take(2), "a point fires once");
        assert!(!plan.take(4));
        assert!(plan.take(5));
        assert!(plan.take(9));
        assert_eq!(plan.remaining(), 0);
        assert_eq!(FaultPlan::none(), FaultPlan::default());
    }

    #[test]
    fn sequenced_duplicates_replay_without_reapplying() {
        use crate::protocol::encode_sequenced;
        let hub = Telemetry::new();
        let (server, handle) =
            spawn_with(ServerOptions { telemetry: hub.clone(), ..ServerOptions::default() });
        let user = UserId::new(5);
        let home = Point::new(25.0, 75.0);
        for t in 0..30i64 {
            let frame = encode_sequenced(
                5,
                t as u32,
                &ClientRequest::CheckIn { user, location: home, timestamp: t },
            );
            assert_eq!(handle.call_raw(frame).unwrap(), EdgeResponse::Ack);
        }
        let finalize = encode_sequenced(5, 30, &ClientRequest::FinalizeWindow { user });
        let first = handle.call_raw(&finalize).unwrap();
        assert_eq!(first, EdgeResponse::WindowClosed { fresh_obfuscations: 1 });
        // Re-delivering the committed finalize replays its cached
        // response — no second window ever closes.
        for _ in 0..3 {
            assert_eq!(handle.call_raw(&finalize).unwrap(), first);
        }
        assert_eq!(server.health().duplicates_suppressed, 3);
        handle.shutdown().unwrap();
        server.join().unwrap();
        let metrics = hub.registry().snapshot();
        assert_eq!(metrics.counter("edge.checkins"), Some(30));
        assert_eq!(metrics.counter("edge.windows_closed"), Some(1));
        assert_eq!(metrics.counter("server.duplicates_suppressed"), Some(3));
    }

    #[test]
    fn sequences_older_than_the_window_are_rejected() {
        use crate::protocol::encode_sequenced;
        let (server, handle) =
            spawn_with(ServerOptions { dedup_window: 2, ..ServerOptions::default() });
        let user = UserId::new(1);
        let checkin = |seq: u32| {
            encode_sequenced(
                1,
                seq,
                &ClientRequest::CheckIn { user, location: Point::ORIGIN, timestamp: seq as i64 },
            )
        };
        for seq in 0..5 {
            handle.call_raw(checkin(seq)).unwrap();
        }
        // The window holds seqs {3, 4}; seq 0 fell out, so its duplicate
        // is rejected explicitly instead of being double-applied.
        assert_eq!(
            handle.call_raw(checkin(0)).unwrap_err(),
            TransportError::StaleSequence { seq: 0 }
        );
        // An in-window duplicate still replays fine.
        assert_eq!(handle.call_raw(checkin(4)).unwrap(), EdgeResponse::Ack);
        assert_eq!(server.health().duplicates_suppressed, 1);
        handle.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn corrupted_sequenced_frames_cost_strikes_not_replays() {
        use crate::protocol::encode_sequenced;
        let (server, handle) = spawn();
        let user = UserId::new(2);
        let good = encode_sequenced(
            2,
            0,
            &ClientRequest::CheckIn { user, location: Point::ORIGIN, timestamp: 0 },
        );
        handle.call_raw(&good).unwrap();
        // A corrupted duplicate of seq 0: the checksum catches the damage
        // before the dedup window is ever consulted.
        let mut corrupt = good;
        corrupt[6] ^= 0x10;
        let err = handle.call_raw(corrupt).unwrap_err();
        assert!(matches!(err, TransportError::Malformed { .. }));
        assert_eq!(server.health().duplicates_suppressed, 0);
        assert_eq!(server.health().malformed_frames, 1);
        handle.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn restore_from_continues_streams_bit_for_bit() {
        let config = SystemConfig::builder().build().unwrap();
        let user = UserId::new(4);
        let home = Point::new(60.0, 10.0);
        let prime = |handle: &EdgeHandle| {
            for t in 0..30 {
                handle.check_in(user, home, t).unwrap();
            }
            handle.finalize_window(user).unwrap();
        };
        // Continuous run: five draws on one server.
        let (server, handle) = EdgeServer::spawn_with(config, 11, ServerOptions::default());
        prime(&handle);
        let continuous: Vec<Point> =
            (0..5).map(|_| handle.request_location(user, home).unwrap()).collect();
        handle.shutdown().unwrap();
        server.join().unwrap();
        // Split run: four draws, then a new server restored from the
        // committed checkpoint takes the fifth — bit-for-bit the same.
        let (server, handle) = EdgeServer::spawn_with(config, 11, ServerOptions::default());
        prime(&handle);
        let mut split: Vec<Point> =
            (0..4).map(|_| handle.request_location(user, home).unwrap()).collect();
        handle.shutdown().unwrap();
        let snapshot = server.join().unwrap().checkpoint();
        let image = snapshot.clone();
        let (server, handle) = EdgeServer::spawn_with(
            config,
            11,
            ServerOptions { restore_from: Some(snapshot), ..ServerOptions::default() },
        );
        split.push(handle.request_location(user, home).unwrap());
        // The restored worker reads the image once and lets go of it.
        assert!(image.is_unique(), "the serving loop still holds the restore image");
        handle.shutdown().unwrap();
        assert_eq!(server.join().unwrap().user_count(), 1);
        assert_eq!(split, continuous);
    }

    #[test]
    fn retry_policy_backoff_is_capped() {
        let policy = RetryPolicy { max_attempts: 10, backoff_base: 8, backoff_cap: 100 };
        assert_eq!(policy.spins(0), 8);
        assert_eq!(policy.spins(1), 16);
        assert_eq!(policy.spins(30), 100);
    }

    /// A device with committed state to roll back to: user 1 settled at
    /// home with a released set and a served draw, user 2 with an open
    /// window dense enough to close onto a fresh top. Telemetry drained,
    /// as after a commit.
    fn committed_device() -> EdgeDevice {
        let mut edge = EdgeDevice::new(SystemConfig::builder().build().unwrap(), 11);
        for _ in 0..40 {
            edge.report_checkin(UserId::new(1), Point::new(100.0, 100.0));
        }
        edge.finalize_window(UserId::new(1));
        edge.reported_location(UserId::new(1), Point::new(100.0, 100.0));
        for _ in 0..40 {
            edge.report_checkin(UserId::new(2), Point::new(-3_000.0, 500.0));
        }
        edge.drain_telemetry(&Telemetry::new());
        edge
    }

    /// Requests the supervisor must be able to undo, each killed after it
    /// is served: one that first-contacts a user (3), a window close that
    /// draws a fresh set (2), and a draw from a released set (1).
    fn killed_requests() -> [(&'static str, ClientRequest); 3] {
        let stranger = Point::new(9_000.0, 9_000.0);
        let home_1 = Point::new(100.0, 100.0);
        [
            (
                "first contact",
                ClientRequest::CheckIn { user: UserId::new(3), location: stranger, timestamp: 0 },
            ),
            (
                "window close with a fresh set",
                ClientRequest::FinalizeWindow { user: UserId::new(2) },
            ),
            (
                "draw from a released set",
                ClientRequest::RequestLocation { user: UserId::new(1), location: home_1 },
            ),
        ]
    }

    #[test]
    fn a_killed_batch_rolls_back_to_the_committed_device() {
        for (case, request) in killed_requests() {
            let mut edge = committed_device();
            let before = edge.checkpoint();
            // Served in full, the request changes the committed device.
            let mut clean = committed_device();
            let expected = clean.serve(request);
            assert_ne!(clean.checkpoint(), before, "{case}: nothing to undo");
            let mut plan = FaultPlan::kill_at([0]);
            let served = serve_attempt(&mut edge, request, &mut plan, 0);
            assert_eq!(served, None, "{case}: the kill fires");
            // The device is back at its pre-request bytes, and it reads as
            // freshly restored: one restore and one `Restore` spend per
            // committed user, nothing the killed request did.
            assert_eq!(edge.checkpoint(), before, "{case}");
            assert_eq!(edge.user_count(), 2, "{case}");
            let restored = DeviceStats { restores: 2, ..DeviceStats::default() };
            assert_eq!(edge.stats(), restored, "{case}");
            assert_eq!(edge.pending_spends(), 2, "{case}");
            let telemetry = Telemetry::new();
            edge.drain_telemetry(&telemetry);
            let totals = telemetry.ledger().totals();
            assert_eq!((totals.events, totals.restores), (2, 2), "{case}");
            let restores: Vec<(u64, u64)> = telemetry
                .ledger()
                .user_totals()
                .into_iter()
                .map(|(user, totals)| (user, totals.restores))
                .collect();
            assert_eq!(restores, vec![(1, 1), (2, 1)], "{case}");

            // The retry answers exactly as a run the kill never touched,
            // and leaves the same device behind.
            let served = serve_attempt(&mut edge, request, &mut plan, 0);
            assert_eq!(served, Some(expected), "{case}: the retry is served");
            assert_eq!(edge.checkpoint(), clean.checkpoint(), "{case}");
        }
        // The close case really drew a fresh set before the kill.
        let close = killed_requests()[1].1;
        let fresh = EdgeResponse::WindowClosed { fresh_obfuscations: 1 };
        assert_eq!(committed_device().serve(close), fresh);
    }

    #[test]
    fn past_the_budget_the_server_keeps_its_committed_device() {
        let committed = committed_device().checkpoint();
        let settle =
            ClientRequest::CheckIn { user: UserId::new(1), location: Point::ORIGIN, timestamp: 0 };
        for (case, request) in killed_requests() {
            // No restart to spare: the kill after the second request fails
            // the shard.
            let (server, handle) = spawn_with(ServerOptions {
                fault_plan: FaultPlan::kill_at([1]),
                max_restarts: 0,
                restore_from: Some(committed.clone()),
                ..ServerOptions::default()
            });
            let mut expected = committed_device();
            assert_eq!(handle.call(settle).unwrap(), expected.serve(settle), "{case}");
            let failed = TransportError::WorkerFailed { restarts: 1 };
            assert_eq!(handle.call(request).unwrap_err(), failed, "{case}");
            assert_eq!(handle.call(request).unwrap_err(), TransportError::Disconnected, "{case}");
            // The step rolled its request back before the shard gave up:
            // what it leaves is the committed device, byte for byte.
            let last = committed_image(&server);
            assert_eq!(last, expected.checkpoint(), "{case}");
            assert_eq!(server.join().unwrap_err(), SystemError::WorkerFailed { restarts: 1 });

            // A server restored from it continues every stream bit for
            // bit: the killed request, then one more draw per user.
            let follow_up: Vec<ClientRequest> = [settle, request]
                .iter()
                .filter_map(ClientRequest::user)
                .map(|user| ClientRequest::RequestLocation { user, location: Point::ORIGIN })
                .collect();
            let (server, handle) =
                spawn_with(ServerOptions { restore_from: Some(last), ..ServerOptions::default() });
            let responses: Vec<EdgeResponse> = std::iter::once(&request)
                .chain(&follow_up)
                .map(|&request| handle.call(request).unwrap())
                .collect();
            handle.shutdown().unwrap();
            let resumed = server.join().unwrap();
            let mut continuous = committed_device();
            let mut expected = Vec::new();
            continuous.serve_batch(&[settle, request], &mut expected);
            continuous.serve_batch(&follow_up, &mut expected);
            assert_eq!(responses, expected[1..], "{case}");
            assert_eq!(resumed.checkpoint(), continuous.checkpoint(), "{case}");
        }
    }

    #[test]
    fn a_revived_core_is_a_core_restored_from_its_checkpoint() {
        let committed = committed_device().checkpoint();
        let core = |restore_from: Bytes, fault_plan: FaultPlan| {
            let options = ServerOptions {
                fault_plan,
                max_restarts: 0,
                restore_from: Some(restore_from),
                ..ServerOptions::default()
            };
            let metrics = Arc::new(ServerMetrics::new(&options.telemetry));
            let telemetry = options.telemetry.clone();
            let config = SystemConfig::builder().build().unwrap();
            (ShardCore::new(config, 11, options, metrics, Tracer::default()), telemetry)
        };
        let (close, draw) = (killed_requests()[1].1, killed_requests()[2].1);
        // A kill past the zero restart budget fails the core.
        let (mut revived, revived_hub) = core(committed.clone(), FaultPlan::kill_at([0]));
        let reply = revived.step(0, &close.encode_vec()).unwrap();
        let failed = EdgeResponse::Error { code: ErrorCode::WorkerFailed, detail: 1 };
        assert_eq!(EdgeResponse::decode(&reply).unwrap(), failed);
        assert!(revived.step(0, &draw.encode_vec()).is_none());
        assert!(revived.revive());
        // Revived, it serves as a core restored from the committed image
        // with no kill plan: the same replies, device and deterministic
        // telemetry, the ledger's `Restore` spends included.
        let (mut restored, restored_hub) = core(committed.clone(), FaultPlan::none());
        for request in [close, draw] {
            let frame = request.encode_vec();
            assert_eq!(revived.step(0, &frame), restored.step(0, &frame));
        }
        let revived = revived.finish().unwrap();
        assert_eq!(revived.checkpoint(), restored.finish().unwrap().checkpoint());
        assert_eq!(revived_hub.deterministic_json(), restored_hub.deterministic_json());
        // A core with no device has nothing to revive.
        let mut image = committed.to_vec();
        *image.last_mut().unwrap() ^= 1;
        let (mut lost, _) = core(Bytes::from(image), FaultPlan::none());
        assert!(!lost.revive());
        assert!(matches!(lost.finish().unwrap_err(), SystemError::Recovery(_)));
    }

    #[test]
    fn an_unreadable_restore_image_fails_every_call_and_join() {
        let mut image = committed_device().checkpoint().to_vec();
        *image.last_mut().unwrap() ^= 1;
        let (server, handle) = spawn_with(ServerOptions {
            restore_from: Some(Bytes::from(image)),
            ..ServerOptions::default()
        });
        // Never an empty device in its place: no call is served, and there
        // is no committed image to heal from.
        for user in [1, 3] {
            let err = handle.request_location(UserId::new(user), Point::ORIGIN).unwrap_err();
            assert_eq!(err, TransportError::Disconnected);
        }
        assert!(committed_image(&server).is_empty());
        assert!(matches!(server.join().unwrap_err(), SystemError::Recovery(_)));
    }

    /// The checkpoint of the shard's committed device, read under the
    /// shard lock so a step in progress is waited out; empty when the
    /// shard has no device.
    fn committed_image(server: &EdgeServer) -> Bytes {
        server.shard.core.lock().device.as_ref().map_or_else(Bytes::new, EdgeDevice::checkpoint)
    }

    /// Steps `frame` as this handle's client on the test thread and
    /// returns the reply frame as the shard encoded it.
    fn call_frame(handle: &EdgeHandle, frame: Vec<u8>) -> Bytes {
        handle.shard.core.lock().step(handle.client, &frame).unwrap()
    }

    #[test]
    fn replayed_duplicates_are_the_original_frames_byte_for_byte() {
        use crate::protocol::encode_sequenced;
        let (server, handle) = spawn();
        let user = UserId::new(5);
        let home = Point::new(25.0, 75.0);
        let checkin = |seq: u32| {
            encode_sequenced(
                5,
                seq,
                &ClientRequest::CheckIn { user, location: home, timestamp: i64::from(seq) },
            )
        };
        for seq in 0..29 {
            call_frame(&handle, checkin(seq));
        }
        let frames = [
            checkin(29),
            encode_sequenced(5, 30, &ClientRequest::FinalizeWindow { user }),
            encode_sequenced(5, 31, &ClientRequest::RequestLocation { user, location: home }),
        ];
        let originals: Vec<Bytes> = frames.iter().map(|f| call_frame(&handle, f.clone())).collect();
        let decoded: Vec<EdgeResponse> =
            originals.iter().map(|f| EdgeResponse::decode(f).unwrap()).collect();
        assert_eq!(decoded[0], EdgeResponse::Ack);
        assert_eq!(decoded[1], EdgeResponse::WindowClosed { fresh_obfuscations: 1 });
        assert!(matches!(decoded[2], EdgeResponse::ReportedLocation { .. }));
        // Each duplicate is answered from the window with the very bytes
        // its original got, however many times it comes back.
        for _ in 0..2 {
            for (frame, original) in frames.iter().zip(&originals) {
                assert_eq!(&call_frame(&handle, frame.clone()), original);
            }
        }
        assert_eq!(server.health().duplicates_suppressed, 6);
        handle.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn a_lane_window_never_outgrows_its_first_allocation() {
        let dedup_window = ServerOptions::default().dedup_window;
        let mut lane = LaneState::new(dedup_window);
        let capacity = lane.window.capacity();
        assert!(capacity >= dedup_window);
        let response = |seq: u32| EdgeResponse::WindowClosed { fresh_obfuscations: seq };
        for seq in 0..3 * dedup_window as u32 {
            lane.commit(seq, response(seq), dedup_window);
            assert_eq!(lane.window.capacity(), capacity, "commit {seq} reallocated the window");
        }
        // It holds the last `dedup_window` commits, oldest first.
        assert_eq!(lane.window.len(), dedup_window);
        let last = 3 * dedup_window as u32 - 1;
        let oldest = last + 1 - dedup_window as u32;
        assert_eq!(lane.next_seq, last + 1);
        assert_eq!(lane.cached(last), Some(response(last)));
        assert_eq!(lane.cached(oldest), Some(response(oldest)));
        assert_eq!(lane.cached(oldest - 1), None);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn six_spans_tile_every_step() {
        const STAGES: [&str; 6] = [
            "server.decode",
            "server.serve_batch",
            "server.commit",
            "server.drain",
            "server.emit",
            "server.encode",
        ];
        let (server, handle) = spawn();
        handle.check_in(UserId::new(1), Point::ORIGIN, 0).unwrap();
        handle.shutdown().unwrap();
        let tracer = handle.shard.core.lock().tracer.clone();
        server.join().unwrap();
        let records = tracer.records();
        // Two steps — the check-in, then the shutdown — each recorded as
        // the six stages in order.
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, [STAGES, STAGES].concat());
        // The first covers the logical-clock interval of its one request,
        // each stage starting where the one before it ended; the shutdown
        // serves nothing, so its stages all sit at the clock it found.
        let intervals: Vec<(u64, u64)> = records.iter().map(|r| (r.seq_start, r.seq_end)).collect();
        assert_eq!(intervals[0], (0, 1));
        assert!(intervals[1..].iter().all(|&interval| interval == (1, 1)), "{intervals:?}");
    }
}
