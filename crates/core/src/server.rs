use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_telemetry::{Counter, Determinism, Gauge, Telemetry};
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

/// Consecutive malformed frames from one client before the shard drops
/// that client instead of answering it.
const MALFORMED_LIMIT: u32 = 8;

/// Per-lane exactly-once dedup depth: how many committed sequenced
/// responses each user lane caches for duplicate replay (see
/// [`crate::protocol::split_sequenced`]). A duplicate older than the
/// window is rejected with [`TransportError::StaleSequence`] instead of
/// being double-applied.
const DEDUP_WINDOW: usize = 32;

/// The raw connection to one supervised edge shard, callable from any
/// thread. Only a [`crate::Router`] spawns shards; a one-shard router is a
/// single edge node, the deployment shape of Fig. 5 where one edge device
/// fronts many nearby mobile users.
///
/// Cloneable; all clones call the same shard, and each clone has its own
/// client identity for the shard's per-connection error accounting.
/// Requests and responses cross in their binary frame encoding, exactly as
/// they would over a radio link.
///
/// There is no serving thread: a call takes the shard's lock and runs its
/// request to completion on the calling thread, so the lock is what
/// serializes access to the device. Each request is served under a
/// supervisor: a panic is caught, the request is rolled back to the
/// device's last committed state (candidates, posterior tables, window
/// buffers, and RNG position — see [`crate::recovery`]), and it is retried
/// once, bit-for-bit. A reply leaves only after its request commits, so a
/// crash can never expose state that the rollback then undoes. A request
/// that fails twice, and the one that takes the shard past its restart
/// budget, is answered explicitly ([`TransportError::WorkerFailed`]),
/// never left hanging.
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
    /// Starts one shard serving per-user streams derived from `seed` and
    /// returns its first client handle. A [`ServerOptions::restore_from`]
    /// image is restored here, on the calling thread.
    pub(crate) fn spawn(config: SystemConfig, seed: u64, options: ServerOptions) -> EdgeHandle {
        let metrics = Arc::new(ServerMetrics::new(&options.telemetry));
        let queue_capacity = options.queue_capacity.max(1);
        let core = ShardCore::new(config, seed, options, Arc::clone(&metrics));
        let shard = Arc::new(Shard {
            core: Mutex::new(core),
            metrics,
            // lint:allow(telemetry-hygiene): per-shard admission count that `try_call_raw` bounds, not a metric — the hub-wide `server.queue_depth` gauge is the exported view
            waiting: AtomicUsize::new(0),
            queue_capacity,
            // lint:allow(telemetry-hygiene): client-identity allocator, not a metric — never exported
            next_client: AtomicU64::new(1),
        });
        EdgeHandle { shard, client: 0 }
    }

    /// Revives a stopped or failed shard in place around its committed
    /// device, as a shard restored from that device's checkpoint would
    /// start. Returns `false`, and leaves the shard as it is, when there is
    /// no device to revive.
    pub(crate) fn revive(&self) -> bool {
        self.shard.core.lock().revive()
    }

    /// Stops the shard, if no client has shut it down yet, and hands out
    /// its device with its final state. Nothing waits: a call in progress
    /// finishes first, and calls made afterwards observe a disconnect.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::WorkerFailed`] if the shard failed past its
    /// restart budget (the failing request got an explicit failure, later
    /// ones a disconnect), or the recovery error if its
    /// [`ServerOptions::restore_from`] image was unreadable.
    pub(crate) fn join(&self) -> Result<EdgeDevice, SystemError> {
        self.shard.core.lock().finish()
    }

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
}

/// Tuning knobs for one supervised shard.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// How many callers may wait on the shard's lock before an attempt of
    /// [`EdgeHandle::call_with_retry`] is rejected with
    /// [`TransportError::Overloaded`] ([`EdgeHandle::call`] waits
    /// regardless). Counted per shard, even
    /// when shards share a hub.
    pub queue_capacity: usize,
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
    /// The telemetry hub this server publishes into: serving counters and
    /// gauges, and the privacy-budget ledger. Defaults to a private hub;
    /// hand several servers a clone of one hub to aggregate a fleet
    /// (cloning `ServerOptions` shares the hub — it is a handle).
    pub telemetry: Telemetry,
    /// Start the device from this committed checkpoint instead of empty
    /// — how a shard resumes a persisted device (the
    /// [`EdgeDevice::checkpoint`] of an earlier shard's joined device, say)
    /// without re-drawing a single released candidate
    /// ([`crate::recovery`]). An
    /// unreadable checkpoint fails the shard (every call observes a
    /// disconnect and [`crate::Router::join`] returns the recovery error),
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
            max_restarts: 8,
            backoff_base: 16,
            backoff_cap: 4_096,
            fault_plan: FaultPlan::none(),
            telemetry: Telemetry::new(),
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
    /// A client shut it down; [`crate::Router::join`] hands its device
    /// out.
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
    /// [`crate::Router::join`] took it, or when the restore image was
    /// unreadable.
    device: Option<EdgeDevice>,
    status: Status,
    /// The options, with `restore_from` taken and `fault_plan` consumed
    /// as its points fire.
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
/// allocated once at [`DEDUP_WINDOW`], and a commit makes room before it
/// adds, so the window never reallocates.
#[derive(Debug)]
struct LaneState {
    next_seq: u32,
    window: VecDeque<(u32, EdgeResponse)>,
}

impl LaneState {
    fn new() -> Self {
        LaneState { next_seq: 0, window: VecDeque::with_capacity(DEDUP_WINDOW) }
    }

    /// The committed response to `seq`, while it is still in the window.
    fn cached(&self, seq: u32) -> Option<EdgeResponse> {
        self.window.iter().find(|(s, _)| *s == seq).map(|&(_, response)| response)
    }

    /// Records `response` as the committed reply to `seq`, evicting the
    /// oldest entry first once the window holds [`DEDUP_WINDOW`].
    fn commit(&mut self, seq: u32, response: EdgeResponse) {
        if self.window.len() >= DEDUP_WINDOW {
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
    ) -> ShardCore {
        let device = match options.restore_from.take() {
            Some(image) => EdgeDevice::restore_from_checkpoint(config, &image).map_err(Into::into),
            None => Ok(EdgeDevice::new(config, seed)),
        };
        ShardCore::around(device, seed, options, metrics)
    }

    /// A core with nothing served yet around `device`, or failed with its
    /// error and no device.
    fn around(
        device: Result<EdgeDevice, SystemError>,
        seed: u64,
        options: ServerOptions,
        metrics: Arc<ServerMetrics>,
    ) -> ShardCore {
        let (device, status) = match device {
            Ok(edge) => (Some(edge), Status::Serving),
            Err(e) => (None, Status::Failed(e)),
        };
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
        *self = ShardCore::around(Ok(edge), seed, options, Arc::clone(&self.metrics));
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
        let verdict = self.decode(client, frame);
        let edge = self.device.as_mut()?;

        // Serve phase, under the supervisor. Each attempt first saves the
        // pre-request state of the user the request names; a panic rolls
        // back only that (`serve_attempt`), and the retry runs on exactly
        // the committed state: the restored RNG position makes it
        // bit-for-bit identical, and an injected fault point has already
        // been consumed. A second panic on the same request fails it
        // explicitly and drops it.
        let served = match verdict {
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
                        // explicitly and stop serving — never a hang, never
                        // an escaped panic. The rollback already returned
                        // the device to its committed state, which the core
                        // keeps for `join` and `revive`; its undrained
                        // telemetry is never drained — only committed
                        // requests ever reach the ledger.
                        let restarts = self.restarts;
                        self.status = Status::Failed(SystemError::WorkerFailed { restarts });
                        return Some(failed_reply(restarts, &self.metrics));
                    }
                    backoff(&mut self.backoff_rng, self.restarts, &self.options);
                    attempts += 1;
                    if attempts >= 2 {
                        // The request killed its step twice: answer it with
                        // an explicit failure and serve on with the
                        // rolled-back device.
                        return Some(failed_reply(self.restarts, &self.metrics));
                    }
                };
                self.served += 1;
                self.metrics.requests.inc();
                Some(response)
            }
            Verdict::Answer(_) | Verdict::Drop => None,
        };

        // Commit phase: the request stands, so its undo is gone with its
        // attempt, and its lane's dedup window learns its response — before
        // the reply leaves and before the lock is released, so neither a
        // client nor a reader of the device can observe state a rollback
        // would undo, and a duplicate behind its original can only ever
        // observe the committed response.
        if let (Verdict::Serve(_, Some(header)), Some(response)) = (verdict, served) {
            self.lanes
                .entry(header.lane)
                .or_insert_with(LaneState::new)
                .commit(header.seq, response);
        }
        self.metrics.checkpoints.inc();
        // Telemetry drains strictly after the commit: a crash wipes any
        // undelivered ledger events together with the device state they
        // described, keeping budget-spend delivery exactly-once. The drain
        // of a shutdown's step is the shard's last.
        edge.drain_into(&self.device_counters);
        // Bid emission shares the same post-commit slot and therefore the
        // same exactly-once guarantee: only an applied request emits
        // (replays never reach `Serve`; a killed request rolls back before
        // reaching here).
        if let (Some(sink), Verdict::Serve(request, _), Some(response)) =
            (&self.options.bid_sink, verdict, served)
        {
            crate::replay::emit_bids(
                sink,
                std::slice::from_ref(&request),
                std::slice::from_ref(&response),
            );
        }
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
        let count = self.strikes.entry(client).or_insert(0);
        *count += 1;
        if *count >= MALFORMED_LIMIT {
            self.strikes.remove(&client);
            self.banned.insert(client);
            self.metrics.dropped_clients.inc();
            Verdict::Drop
        } else {
            let detail = MALFORMED_LIMIT - *count;
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
    // adds a slot), and the device's stats and pending spends. `roll_back`
    // puts the saved slot back, removes a first contact, and restarts the
    // stats and pending spends as a restore does. `fault_plan` gives up a
    // kill point before the panic it causes.
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
    use crate::{DeviceStats, ShardRouter};
    use privlocad_geo::Point;
    use privlocad_mobility::UserId;

    fn spawn() -> ShardRouter {
        spawn_with(ServerOptions::default())
    }

    /// A one-shard router: a single edge node serving from seed 11.
    fn spawn_with(options: ServerOptions) -> ShardRouter {
        ShardRouter::spawn_with(SystemConfig::builder().build().unwrap(), 11, vec![options])
    }

    /// Joins a one-shard router and hands out its device.
    fn join(router: ShardRouter) -> Result<EdgeDevice, SystemError> {
        router.join().map(|mut devices| devices.remove(0))
    }

    /// A counter of the hub the router's shards publish into.
    fn counter(router: &ShardRouter, name: &str) -> u64 {
        router.telemetry().registry().snapshot().counter(name).unwrap()
    }

    fn check_in(user: u32, timestamp: i64) -> ClientRequest {
        ClientRequest::CheckIn { user: UserId::new(user), location: Point::ORIGIN, timestamp }
    }

    #[test]
    fn full_protocol_round_trip() {
        let router = spawn();
        let user = UserId::new(3);
        let home = Point::new(10.0, 20.0);
        for t in 0..40 {
            router.check_in(user, home, t).unwrap();
        }
        assert_eq!(router.finalize_window(user).unwrap(), 1);
        let reported = router.request_location(user, home).unwrap();
        assert_ne!(reported, home);
        router.shutdown().unwrap();
        let edge = join(router).unwrap();
        assert_eq!(edge.user_count(), 1);
        assert!(edge.candidates(user, home).unwrap().contains(&reported));
    }

    #[test]
    fn bid_sink_gets_exactly_one_released_location_per_ad_request() {
        use crate::protocol::encode_sequenced;
        let sink = Arc::new(privlocad_openrtb::BidSink::new());
        // Served ordinal 43, the ad request after 40 check-ins, a window
        // close and two ad requests, kills its step twice.
        let router = spawn_with(ServerOptions {
            bid_sink: Some(Arc::clone(&sink)),
            fault_plan: FaultPlan { kill_at: vec![43, 43] },
            backoff_base: 1,
            backoff_cap: 1,
            ..ServerOptions::default()
        });
        let user = UserId::new(3);
        let home = Point::new(10.0, 20.0);
        for t in 0..40 {
            router.check_in(user, home, t).unwrap();
        }
        router.finalize_window(user).unwrap();
        let first = router.request_location(user, home).unwrap();
        let second = router.request_location(user, home).unwrap();
        // The killed request fails before its commit, so neither the drain
        // nor the emission behind the commit runs: the counters and the
        // ledger stay as it found them, and no bid leaves.
        let settled = router.telemetry().deterministic_json();
        let err = router.request_location(user, home).unwrap_err();
        assert_eq!(err, TransportError::WorkerFailed { restarts: 2 });
        assert_eq!(router.telemetry().deterministic_json(), settled);
        // A sequenced ad request emits once; its duplicate is answered from
        // the dedup window with the original's bytes and emits nothing.
        let sequenced =
            encode_sequenced(3, 0, &ClientRequest::RequestLocation { user, location: home });
        let original = call_frame(&router.shards[0], sequenced.clone());
        assert_eq!(call_frame(&router.shards[0], sequenced), original);
        let EdgeResponse::ReportedLocation { location: third } =
            EdgeResponse::decode(&original).unwrap()
        else {
            panic!("a settled user's ad request is answered with a location");
        };
        router.shutdown().unwrap();
        router.join().unwrap();
        // Check-ins, window closes, the killed request and the duplicate
        // emit nothing; the three served ad requests emit exactly one bid
        // each, carrying the released candidate the client saw — never the
        // true check-in position.
        let pending = sink.drain();
        assert_eq!(pending.len(), 3);
        for (bid, reported) in pending.iter().zip([first, second, third]) {
            let (decoded, _) = privlocad_openrtb::BidRequest::decode_slice(&bid.frame).unwrap();
            assert_eq!(decoded.device.id.raw(), 3);
            assert_eq!(decoded.device.geo.point(), reported);
            assert_ne!(decoded.device.geo.point(), home);
        }
        assert_eq!(pending.iter().map(|bid| bid.seq).collect::<Vec<_>>(), [0, 1, 2]);
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
        let router = spawn();
        let serial: Vec<Vec<EdgeResponse>> =
            users.iter().map(|&u| replies(&router.shards[0], u)).collect();
        let serial_device = join(router).unwrap();
        // Concurrent: one thread per user, all calling one shard, get
        // every user the replies of the serial run.
        let router = spawn();
        let concurrent: Vec<Vec<EdgeResponse>> = std::thread::scope(|scope| {
            let callers: Vec<_> = users
                .iter()
                .map(|&u| {
                    let handle = router.shards[0].clone();
                    scope.spawn(move || replies(&handle, u))
                })
                .collect();
            callers.into_iter().map(|caller| caller.join().unwrap()).collect()
        });
        assert_eq!(concurrent, serial);
        router.shutdown().unwrap();
        let edge = join(router).unwrap();
        assert_eq!(edge.user_count(), 6);
        assert_eq!(edge.checkpoint(), serial_device.checkpoint());
    }

    #[test]
    fn handle_calls_after_shutdown_fail() {
        let router = spawn();
        let handle = router.shards[0].clone();
        router.shutdown().unwrap();
        router.join().unwrap();
        assert_eq!(handle.call(check_in(0, 0)).unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn dropping_all_handles_stops_the_loop() {
        // Joining stops a shard no client shut down and hands its device
        // out.
        let edge = join(spawn()).unwrap();
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
        let router = spawn();
        let polluter = router.shards[0].clone();
        // Every strike short of the limit: an explicit Malformed rejection
        // with a countdown.
        for strikes_left in (1..MALFORMED_LIMIT).rev() {
            let err = polluter.call_raw(vec![0xFF, 0x00, 0x01]).unwrap_err();
            assert_eq!(err, TransportError::Malformed { strikes_left });
        }
        // The last strike: the client is dropped; its reply channel just
        // closes.
        assert_eq!(polluter.call_raw(vec![0xFF]).unwrap_err(), TransportError::Disconnected);
        // And stays dropped even for well-formed frames.
        assert_eq!(polluter.call(check_in(0, 0)).unwrap_err(), TransportError::Disconnected);
        // The original handle (a different client id) is unaffected.
        router.check_in(UserId::new(0), Point::ORIGIN, 0).unwrap();
        assert_eq!(counter(&router, "server.malformed_frames"), u64::from(MALFORMED_LIMIT));
        assert_eq!(counter(&router, "server.dropped_clients"), 1);
        router.shutdown().unwrap();
        router.join().unwrap();
    }

    #[test]
    fn well_formed_frames_reset_the_strike_count() {
        let router = spawn();
        for _ in 0..2 {
            // One strike short of the ban...
            for strikes_left in (1..MALFORMED_LIMIT).rev() {
                let err = router.shards[0].call_raw(vec![0xEE]).unwrap_err();
                assert_eq!(err, TransportError::Malformed { strikes_left });
            }
            // ...and a good frame from the same client resets the
            // consecutive count.
            router.check_in(UserId::new(1), Point::ORIGIN, 0).unwrap();
        }
        assert_eq!(counter(&router, "server.dropped_clients"), 0);
        router.shutdown().unwrap();
        router.join().unwrap();
    }

    #[test]
    fn supervisor_restarts_through_injected_faults() {
        let router = spawn_with(ServerOptions {
            fault_plan: FaultPlan::kill_at([0, 3, 7]),
            ..ServerOptions::default()
        });
        let user = UserId::new(2);
        let home = Point::new(50.0, 50.0);
        // Every call succeeds: the supervisor rolls the killed request back
        // and retries it.
        for t in 0..30 {
            router.check_in(user, home, t).unwrap();
        }
        assert_eq!(router.finalize_window(user).unwrap(), 1);
        let reported = router.request_location(user, home).unwrap();
        assert_eq!(counter(&router, "server.restarts"), 3);
        assert!(counter(&router, "server.checkpoints") > 0);
        router.shutdown().unwrap();
        let edge = join(router).unwrap();
        assert!(edge.candidates(user, home).unwrap().contains(&reported));
    }

    #[test]
    fn faulty_run_matches_fault_free_run_bit_for_bit() {
        let drive = |fault_plan: FaultPlan| {
            let router = spawn_with(ServerOptions { fault_plan, ..ServerOptions::default() });
            let user = UserId::new(4);
            let home = Point::new(75.0, -25.0);
            for t in 0..25 {
                router.check_in(user, home, t).unwrap();
            }
            router.finalize_window(user).unwrap();
            let reports: Vec<Point> =
                (0..10).map(|_| router.request_location(user, home).unwrap()).collect();
            router.shutdown().unwrap();
            router.join().unwrap();
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
        let router = spawn_with(ServerOptions {
            fault_plan: FaultPlan::kill_at(0..10),
            max_restarts: 2,
            ..ServerOptions::default()
        });
        let handle = router.shards[0].clone();
        // Restarts 1 and 2 are within budget: the calls still succeed.
        for t in 0..2 {
            handle.call(check_in(0, t)).unwrap();
        }
        // Restart 3 exceeds it: explicit failure, never a hang.
        let err = handle.call(check_in(0, 2)).unwrap_err();
        assert_eq!(err, TransportError::WorkerFailed { restarts: 3 });
        assert_eq!(join(router).unwrap_err(), SystemError::WorkerFailed { restarts: 3 });
        // The shard has stopped; later calls observe a disconnect.
        assert_eq!(handle.call(check_in(0, 3)).unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn poisoned_batch_fails_its_replies_and_worker_recovers() {
        // A request that kills its step on the retry too — its kill point
        // scheduled twice, which `FaultPlan::kill_at` cannot build: the
        // supervisor answers it with an explicit failure and the shard
        // serves on with the rolled-back device.
        let router = spawn_with(ServerOptions {
            fault_plan: FaultPlan { kill_at: vec![0, 0] },
            backoff_base: 1,
            backoff_cap: 1,
            ..ServerOptions::default()
        });
        let handle = &router.shards[0];
        let err = handle.call(check_in(1, 0)).unwrap_err();
        assert_eq!(err, TransportError::WorkerFailed { restarts: 2 });
        // The request was dropped after the rollback: no check-in survived.
        let fresh = EdgeDevice::new(SystemConfig::builder().build().unwrap(), 11);
        assert_eq!(committed_image(handle), fresh.checkpoint());
        let failed =
            (counter(&router, "server.restarts"), counter(&router, "server.failed_replies"));
        assert_eq!(failed, (2, 1));
        // The shard serves on: the next request is its first.
        handle.call(check_in(1, 1)).unwrap();
        assert_eq!(handle.shard.metrics.requests.value(), 1);
        router.shutdown().unwrap();
        assert_eq!(join(router).unwrap().user_count(), 1);
    }

    #[test]
    fn overload_rejects_and_retry_budget_is_bounded() {
        // Client-side path against a full shard: capacity 1, its one
        // waiting slot occupied directly.
        let router = spawn_with(ServerOptions { queue_capacity: 1, ..ServerOptions::default() });
        let handle = &router.shards[0];
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
        let options = ServerOptions { queue_capacity: 2, ..ServerOptions::default() };
        let config = SystemConfig::builder().build().unwrap();
        let router = ShardRouter::spawn_with(config, 11, vec![options.clone(), options]);
        let (busy_handle, idle_handle) = (&router.shards[0], &router.shards[1]);
        let queue_depth = || router.telemetry().registry().snapshot().gauge("server.queue_depth");
        std::thread::scope(|scope| {
            // The test holds the busy shard's lock, so the callers it
            // admits wait.
            let held = busy_handle.shard.core.lock();
            let waiters: Vec<_> = (0..2)
                .map(|t| {
                    let handle = busy_handle.clone();
                    scope.spawn(move || handle.try_call_raw(check_in(1, t).encode_vec()))
                })
                .collect();
            let waiting = || busy_handle.shard.waiting.load(Ordering::Relaxed);
            while waiting() < 2 && !waiters.iter().any(|w| w.is_finished()) {
                std::thread::yield_now();
            }
            assert_eq!(waiting(), 2, "both callers under the capacity are admitted");
            // Two callers wait: the third is shed at once...
            assert_eq!(
                busy_handle.try_call_raw(check_in(1, 2).encode_vec()).unwrap_err(),
                TransportError::Overloaded
            );
            // ...while the other shard still admits, though the hub-wide
            // gauge already counts two waiters.
            assert_eq!(queue_depth(), Some(2));
            assert_eq!(
                idle_handle.try_call_raw(check_in(1, 0).encode_vec()).unwrap(),
                EdgeResponse::Ack
            );
            drop(held);
            for waiter in waiters {
                assert_eq!(waiter.join().unwrap().unwrap(), EdgeResponse::Ack);
            }
        });
        assert_eq!(queue_depth(), Some(0));
        assert_eq!(counter(&router, "server.overload_rejections"), 1);
    }

    #[test]
    fn health_snapshot_counts_queue_depth() {
        let router = spawn();
        router.check_in(UserId::new(0), Point::ORIGIN, 0).unwrap();
        let health = router.telemetry().registry().snapshot();
        assert_eq!(health.gauge("server.queue_depth"), Some(0));
        assert_eq!(health.counter("server.restarts"), Some(0));
        assert!(health.counter("server.checkpoints").unwrap() >= 1);
        router.shutdown().unwrap();
        router.join().unwrap();
    }

    #[test]
    fn telemetry_hub_records_serving_and_ledger_audits_clean() {
        use privlocad_telemetry::top_key;
        let hub = Telemetry::new();
        let router =
            spawn_with(ServerOptions { telemetry: hub.clone(), ..ServerOptions::default() });
        let user = UserId::new(6);
        let home = Point::new(30.0, 40.0);
        for t in 0..30 {
            router.check_in(user, home, t).unwrap();
        }
        assert_eq!(router.finalize_window(user).unwrap(), 1);
        for _ in 0..5 {
            router.request_location(user, home).unwrap();
        }
        router.shutdown().unwrap();
        let edge = join(router).unwrap();

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
        let router =
            spawn_with(ServerOptions { telemetry: hub.clone(), ..ServerOptions::default() });
        let handle = &router.shards[0];
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
        router.shutdown().unwrap();
        router.join().unwrap();
        let metrics = hub.registry().snapshot();
        assert_eq!(metrics.counter("edge.checkins"), Some(30));
        assert_eq!(metrics.counter("edge.windows_closed"), Some(1));
        assert_eq!(metrics.counter("server.duplicates_suppressed"), Some(3));
    }

    #[test]
    fn sequences_older_than_the_window_are_rejected() {
        use crate::protocol::encode_sequenced;
        let router = spawn();
        let handle = &router.shards[0];
        let checkin = |seq: u32| encode_sequenced(1, seq, &check_in(1, i64::from(seq)));
        let window = DEDUP_WINDOW as u32;
        for seq in 0..window + 3 {
            handle.call_raw(checkin(seq)).unwrap();
        }
        // The window holds seqs 3 ..= window + 2; seqs 0 to 2 fell out, so
        // their duplicates are rejected explicitly instead of being
        // double-applied.
        for seq in [0, 2] {
            let err = handle.call_raw(checkin(seq)).unwrap_err();
            assert_eq!(err, TransportError::StaleSequence { seq });
        }
        // The oldest in-window duplicate still replays fine.
        assert_eq!(handle.call_raw(checkin(3)).unwrap(), EdgeResponse::Ack);
        assert_eq!(counter(&router, "server.duplicates_suppressed"), 1);
        assert_eq!(counter(&router, "server.stale_rejections"), 2);
        router.shutdown().unwrap();
        router.join().unwrap();
    }

    #[test]
    fn corrupted_sequenced_frames_cost_strikes_not_replays() {
        use crate::protocol::encode_sequenced;
        let router = spawn();
        let handle = &router.shards[0];
        let good = encode_sequenced(2, 0, &check_in(2, 0));
        handle.call_raw(&good).unwrap();
        // A corrupted duplicate of seq 0: the checksum catches the damage
        // before the dedup window is ever consulted.
        let mut corrupt = good;
        corrupt[6] ^= 0x10;
        let err = handle.call_raw(corrupt).unwrap_err();
        assert!(matches!(err, TransportError::Malformed { .. }));
        assert_eq!(counter(&router, "server.duplicates_suppressed"), 0);
        assert_eq!(counter(&router, "server.malformed_frames"), 1);
        router.shutdown().unwrap();
        router.join().unwrap();
    }

    #[test]
    fn restore_from_continues_streams_bit_for_bit() {
        let user = UserId::new(4);
        let home = Point::new(60.0, 10.0);
        let prime = |router: &ShardRouter| {
            for t in 0..30 {
                router.check_in(user, home, t).unwrap();
            }
            router.finalize_window(user).unwrap();
        };
        // Continuous run: five draws on one shard.
        let router = spawn();
        prime(&router);
        let continuous: Vec<Point> =
            (0..5).map(|_| router.request_location(user, home).unwrap()).collect();
        router.shutdown().unwrap();
        router.join().unwrap();
        // Split run: four draws, then a new shard restored from the
        // committed checkpoint takes the fifth — bit-for-bit the same.
        let router = spawn();
        prime(&router);
        let mut split: Vec<Point> =
            (0..4).map(|_| router.request_location(user, home).unwrap()).collect();
        router.shutdown().unwrap();
        let snapshot = join(router).unwrap().checkpoint();
        let image = snapshot.clone();
        let router =
            spawn_with(ServerOptions { restore_from: Some(snapshot), ..ServerOptions::default() });
        split.push(router.request_location(user, home).unwrap());
        // The restored shard reads the image once and lets go of it.
        assert!(image.is_unique(), "the shard still holds the restore image");
        router.shutdown().unwrap();
        assert_eq!(join(router).unwrap().user_count(), 1);
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
            let router = spawn_with(ServerOptions {
                fault_plan: FaultPlan::kill_at([1]),
                max_restarts: 0,
                restore_from: Some(committed.clone()),
                ..ServerOptions::default()
            });
            let handle = &router.shards[0];
            let mut expected = committed_device();
            assert_eq!(handle.call(settle).unwrap(), expected.serve(settle), "{case}");
            let failed = TransportError::WorkerFailed { restarts: 1 };
            assert_eq!(handle.call(request).unwrap_err(), failed, "{case}");
            assert_eq!(handle.call(request).unwrap_err(), TransportError::Disconnected, "{case}");
            // The step rolled its request back before the shard gave up:
            // what it leaves is the committed device, byte for byte.
            let last = committed_image(handle);
            assert_eq!(last, expected.checkpoint(), "{case}");
            assert_eq!(join(router).unwrap_err(), SystemError::WorkerFailed { restarts: 1 });

            // A shard restored from it continues every stream bit for
            // bit: the killed request, then one more draw per user.
            let follow_up: Vec<ClientRequest> = [settle, request]
                .iter()
                .filter_map(ClientRequest::user)
                .map(|user| ClientRequest::RequestLocation { user, location: Point::ORIGIN })
                .collect();
            let router =
                spawn_with(ServerOptions { restore_from: Some(last), ..ServerOptions::default() });
            let responses: Vec<EdgeResponse> = std::iter::once(&request)
                .chain(&follow_up)
                .map(|&request| router.shards[0].call(request).unwrap())
                .collect();
            router.shutdown().unwrap();
            let resumed = join(router).unwrap();
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
            (ShardCore::new(config, 11, options, metrics), telemetry)
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
        let router = spawn_with(ServerOptions {
            restore_from: Some(Bytes::from(image)),
            ..ServerOptions::default()
        });
        // Never an empty device in its place: no call is served, and there
        // is no committed image to heal from.
        for user in [1, 3] {
            let err = router.request_location(UserId::new(user), Point::ORIGIN).unwrap_err();
            assert_eq!(err, TransportError::Disconnected);
        }
        assert!(committed_image(&router.shards[0]).is_empty());
        assert!(matches!(join(router).unwrap_err(), SystemError::Recovery(_)));
    }

    /// The checkpoint of the shard's committed device, read under the
    /// shard lock so a step in progress is waited out; empty when the
    /// shard has no device.
    fn committed_image(handle: &EdgeHandle) -> Bytes {
        handle.shard.core.lock().device.as_ref().map_or_else(Bytes::new, EdgeDevice::checkpoint)
    }

    /// Steps `frame` as this handle's client on the test thread and
    /// returns the reply frame as the shard encoded it.
    fn call_frame(handle: &EdgeHandle, frame: Vec<u8>) -> Bytes {
        handle.shard.core.lock().step(handle.client, &frame).unwrap()
    }

    #[test]
    fn replayed_duplicates_are_the_original_frames_byte_for_byte() {
        use crate::protocol::encode_sequenced;
        let router = spawn();
        let handle = &router.shards[0];
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
            call_frame(handle, checkin(seq));
        }
        let frames = [
            checkin(29),
            encode_sequenced(5, 30, &ClientRequest::FinalizeWindow { user }),
            encode_sequenced(5, 31, &ClientRequest::RequestLocation { user, location: home }),
        ];
        let originals: Vec<Bytes> = frames.iter().map(|f| call_frame(handle, f.clone())).collect();
        let decoded: Vec<EdgeResponse> =
            originals.iter().map(|f| EdgeResponse::decode(f).unwrap()).collect();
        assert_eq!(decoded[0], EdgeResponse::Ack);
        assert_eq!(decoded[1], EdgeResponse::WindowClosed { fresh_obfuscations: 1 });
        assert!(matches!(decoded[2], EdgeResponse::ReportedLocation { .. }));
        // Each duplicate is answered from the window with the very bytes
        // its original got, however many times it comes back.
        for _ in 0..2 {
            for (frame, original) in frames.iter().zip(&originals) {
                assert_eq!(&call_frame(handle, frame.clone()), original);
            }
        }
        assert_eq!(counter(&router, "server.duplicates_suppressed"), 6);
        router.shutdown().unwrap();
        router.join().unwrap();
    }

    #[test]
    fn a_lane_window_never_outgrows_its_first_allocation() {
        let mut lane = LaneState::new();
        let capacity = lane.window.capacity();
        assert!(capacity >= DEDUP_WINDOW);
        let response = |seq: u32| EdgeResponse::WindowClosed { fresh_obfuscations: seq };
        let window = DEDUP_WINDOW as u32;
        for seq in 0..3 * window {
            lane.commit(seq, response(seq));
            assert_eq!(lane.window.capacity(), capacity, "commit {seq} reallocated the window");
        }
        // It holds the last `DEDUP_WINDOW` commits, oldest first.
        assert_eq!(lane.window.len(), DEDUP_WINDOW);
        let last = 3 * window - 1;
        let oldest = last + 1 - window;
        assert_eq!(lane.next_seq, last + 1);
        assert_eq!(lane.cached(last), Some(response(last)));
        assert_eq!(lane.cached(oldest), Some(response(oldest)));
        assert_eq!(lane.cached(oldest - 1), None);
    }
}
