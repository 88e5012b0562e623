use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_telemetry::{Counter, Determinism, Gauge, Histogram, Telemetry, Tracer};
use rand::rngs::StdRng;
use rand::Rng;

use crate::edge::DeviceCounters;
use crate::protocol::{split_sequenced, ClientRequest, EdgeResponse, ErrorCode, FrameError};
use crate::recovery::CommittedLog;
use crate::{EdgeDevice, SystemConfig, SystemError};

/// RNG stream index reserved for the supervisor's backoff jitter, far
/// away from the per-operation streams the devices derive.
const SUPERVISOR_STREAM: u64 = u64::MAX - 1;

/// An encoded request frame, tagged with the sending client's identity
/// (for per-connection malformed-frame accounting) and paired with the
/// channel its response frame is sent back on. Responses travel as
/// [`Bytes`] so a batched wakeup can encode every response into one block
/// and send O(1) slices of it.
#[derive(Debug)]
struct Envelope {
    client: u64,
    frame: Vec<u8>,
    reply: SyncSender<Bytes>,
}

/// A handle for talking to a running [`EdgeServer`] from any thread.
///
/// Cloneable; all clones feed the same serving loop, and each clone has
/// its own client identity for the server's per-connection error
/// accounting. Requests and responses cross the transport in their
/// binary frame encoding, exactly as they would over a radio link.
#[derive(Debug)]
pub struct EdgeHandle {
    tx: SyncSender<Envelope>,
    client: u64,
    next_client: Arc<AtomicU64>,
    metrics: Arc<ServerMetrics>,
}

impl Clone for EdgeHandle {
    fn clone(&self) -> Self {
        EdgeHandle {
            tx: self.tx.clone(),
            client: self.next_client.fetch_add(1, Ordering::Relaxed),
            next_client: Arc::clone(&self.next_client),
            metrics: Arc::clone(&self.metrics),
        }
    }
}

/// Errors surfaced by [`EdgeHandle`] calls.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The serving loop has shut down.
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
    /// The request queue is full; back off and retry
    /// ([`EdgeHandle::call_with_retry`]) or shed the request.
    Overloaded,
    /// The serving worker failed permanently after `restarts` supervised
    /// restarts.
    WorkerFailed {
        /// How many times the supervisor restarted the worker before
        /// giving up.
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
            TransportError::Overloaded => write!(f, "edge server request queue is full"),
            TransportError::WorkerFailed { restarts } => {
                write!(f, "edge worker failed permanently after {restarts} restarts")
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
    /// Total attempts, including the first (minimum 1), for
    /// [`TransportError::Disconnected`] — its own budget, separate from
    /// the overload one: during a supervised shard restart the transport
    /// briefly has no live endpoint, and a bounded reconnect retry
    /// bridges the gap (the fabric swaps the healed shard's handle in
    /// between attempts — see [`crate::fabric`]). `1` fails fast, the
    /// pre-fabric behaviour.
    pub disconnect_attempts: u32,
    /// Yield spins before the first retry; doubles every retry.
    pub backoff_base: u32,
    /// Upper bound on spins for one backoff step.
    pub backoff_cap: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            disconnect_attempts: 2,
            backoff_base: 32,
            backoff_cap: 4_096,
        }
    }
}

impl RetryPolicy {
    fn spins(&self, attempt: u32) -> u32 {
        let exp = attempt.min(16);
        self.backoff_base.saturating_mul(1 << exp).min(self.backoff_cap)
    }
}

impl EdgeHandle {
    /// Sends one request frame and waits for the response frame, blocking
    /// while the request queue is full.
    pub fn call(&self, request: ClientRequest) -> Result<EdgeResponse, TransportError> {
        self.call_raw(request.encode().to_vec())
    }

    /// [`EdgeHandle::call`] with reject-instead-of-block overload
    /// semantics: a full request queue fails fast with
    /// [`TransportError::Overloaded`] instead of parking the caller.
    pub fn try_call(&self, request: ClientRequest) -> Result<EdgeResponse, TransportError> {
        self.try_call_raw(request.encode().to_vec())
    }

    /// [`EdgeHandle::try_call`] with a deterministic retry budget: on
    /// [`TransportError::Overloaded`], backs off (bounded exponential
    /// yield spins — no wall clock) and retries until `policy` is
    /// exhausted. A transient [`TransportError::Disconnected`] — the
    /// window where a supervised restart has torn the old endpoint down
    /// — is retried too, on its own
    /// [`RetryPolicy::disconnect_attempts`] budget.
    pub fn call_with_retry(
        &self,
        request: ClientRequest,
        policy: &RetryPolicy,
    ) -> Result<EdgeResponse, TransportError> {
        let frame = request.encode().to_vec();
        let overload_budget = policy.max_attempts.max(1);
        let disconnect_budget = policy.disconnect_attempts.max(1);
        let mut overloads = 0;
        let mut disconnects = 0;
        loop {
            match self.try_call_raw(frame.clone()) {
                Err(TransportError::Overloaded) => {
                    overloads += 1;
                    if overloads >= overload_budget {
                        return Err(TransportError::Overloaded);
                    }
                    for _ in 0..policy.spins(overloads - 1) {
                        std::thread::yield_now();
                    }
                }
                Err(TransportError::Disconnected) => {
                    disconnects += 1;
                    if disconnects >= disconnect_budget {
                        return Err(TransportError::Disconnected);
                    }
                    self.metrics.disconnect_retries.inc();
                    for _ in 0..policy.spins(disconnects - 1) {
                        std::thread::yield_now();
                    }
                }
                outcome => return outcome,
            }
        }
    }

    /// Sends a pre-encoded request frame — possibly corrupted, which is
    /// exactly what the chaos harness does to exercise the server's
    /// hardened decode path — and waits for the response frame.
    pub fn call_raw(&self, frame: Vec<u8>) -> Result<EdgeResponse, TransportError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.metrics.queue_depth.add(1);
        if self
            .tx
            .send(Envelope { client: self.client, frame, reply: reply_tx })
            .is_err()
        {
            self.metrics.queue_depth.sub(1);
            return Err(TransportError::Disconnected);
        }
        self.receive(&reply_rx)
    }

    /// [`EdgeHandle::call_raw`] with reject-instead-of-block overload
    /// semantics.
    pub fn try_call_raw(&self, frame: Vec<u8>) -> Result<EdgeResponse, TransportError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.metrics.queue_depth.add(1);
        match self.tx.try_send(Envelope { client: self.client, frame, reply: reply_tx }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.metrics.queue_depth.sub(1);
                self.metrics.overload_rejections.inc();
                return Err(TransportError::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.queue_depth.sub(1);
                return Err(TransportError::Disconnected);
            }
        }
        self.receive(&reply_rx)
    }

    fn receive(&self, reply_rx: &Receiver<Bytes>) -> Result<EdgeResponse, TransportError> {
        let frame = reply_rx.recv().map_err(|_| TransportError::Disconnected)?;
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
    pub fn request_location(
        &self,
        user: UserId,
        location: Point,
    ) -> Result<Point, TransportError> {
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

    /// Stops the serving loop.
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
    /// Request-queue capacity; beyond it, [`EdgeHandle::try_call`]
    /// rejects with [`TransportError::Overloaded`] (and [`EdgeHandle::call`]
    /// blocks).
    pub queue_capacity: usize,
    /// Consecutive malformed frames from one client before the server
    /// drops that client instead of answering it.
    pub malformed_limit: u32,
    /// Worker restarts the supervisor attempts before failing the server
    /// permanently with [`SystemError::WorkerFailed`].
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
    /// — how the fabric respawns a permanently failed shard without
    /// re-drawing a single released candidate ([`crate::fabric`]). An
    /// unreadable checkpoint fails the spawn (the serving loop exits
    /// with the recovery error; clients observe a disconnect), never
    /// silently serves from empty state. The serving loop reads the
    /// image once and drops its reference as soon as the device is
    /// restored, so the image is freed before the first request is served
    /// unless the caller kept a clone.
    pub restore_from: Option<Bytes>,
    /// Where served ad requests are emitted as OpenRTB-lite bid requests.
    /// `None` (the default) serves without a bid pipeline. The sink is
    /// shared — hand every shard of a fleet a clone of one `Arc` — and it
    /// outlives individual workers, so per-device sequence numbers stay
    /// continuous across restarts and fabric heals. Emission happens in
    /// the commit phase, strictly after the checkpoint, giving each
    /// *applied* request exactly one bid (duplicates and rolled-back
    /// batches never emit); only the released obfuscated candidate from
    /// the response crosses into the sink.
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

/// A deterministic schedule of injected worker crashes: the worker
/// panics just before serving request ordinal `k` (0-based, counted over
/// successfully decoded, non-shutdown requests across the server's
/// lifetime). Each point fires exactly once — the retry after the
/// supervised restart proceeds past it, like a real transient fault.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    kill_at: Vec<u64>,
}

impl FaultPlan {
    /// The empty schedule: no injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A schedule crashing the worker at each listed request ordinal.
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

    /// Removes and returns the first crash point in `[start, end)`.
    fn take(&mut self, start: u64, end: u64) -> Option<u64> {
        let i = self.kill_at.iter().position(|&k| start <= k && k < end)?;
        Some(self.kill_at.remove(i))
    }
}

/// Registry-backed serving metrics: one set of pre-registered handles
/// shared by the serving loop and every client handle, publishing into
/// the hub carried by [`ServerOptions::telemetry`].
///
/// Replaces the old hand-rolled atomic `HealthCounters` — the same
/// numbers now come out of the telemetry registry, so they appear in the
/// JSON export alongside everything else while [`EdgeServer::health`]
/// keeps its [`HealthSnapshot`] API.
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
    disconnect_retries: Counter,
    queue_depth: Gauge,
    batch_size: Histogram,
    checkpoint_bytes: Histogram,
}

impl ServerMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.registry();
        use Determinism::{Deterministic, Scheduling};
        // Request, decode, and restart counts are pure functions of the
        // workload and seed; anything keyed to wakeup boundaries (batch
        // shapes, checkpoint cadence) or cross-thread races (overload,
        // failed replies) is scheduling-dependent and excluded from the
        // deterministic export.
        ServerMetrics {
            requests: registry.counter("server.requests", Deterministic),
            // Restarts count *caught crashes*, which land wherever the
            // fault plan (or the real world) puts them relative to wakeup
            // boundaries — scheduling-dependent, like the recovery
            // restores they trigger.
            restarts: registry.counter("server.restarts", Scheduling),
            malformed_frames: registry.counter("server.malformed_frames", Deterministic),
            dropped_clients: registry.counter("server.dropped_clients", Deterministic),
            failed_replies: registry.counter("server.failed_replies", Scheduling),
            overload_rejections: registry.counter("server.overload_rejections", Scheduling),
            checkpoints: registry.counter("server.checkpoints", Scheduling),
            wakeups: registry.counter("server.wakeups", Scheduling),
            // Duplicate suppression counts logical re-deliveries, which a
            // deterministic per-lane fault plan places independently of
            // batch boundaries and the user→shard partition.
            duplicates_suppressed: registry.counter("server.duplicates_suppressed", Deterministic),
            stale_rejections: registry.counter("server.stale_rejections", Deterministic),
            // Reconnect retries land wherever a restart races the caller —
            // scheduling-dependent, like the restarts that cause them.
            disconnect_retries: registry.counter("server.disconnect_retries", Scheduling),
            queue_depth: registry.gauge("server.queue_depth", Scheduling),
            batch_size: registry.histogram("server.batch_size", Scheduling),
            checkpoint_bytes: registry.histogram("server.checkpoint_bytes", Scheduling),
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
    /// Supervised worker restarts so far.
    pub restarts: u64,
    /// Malformed request frames rejected by the hardened decode path.
    pub malformed_frames: u64,
    /// Clients dropped for exceeding the consecutive-malformed limit.
    pub dropped_clients: u64,
    /// Pending replies failed explicitly (worker gave up or queue was
    /// abandoned) instead of left hanging.
    pub failed_replies: u64,
    /// Requests rejected with `Overloaded` by a full queue.
    pub overload_rejections: u64,
    /// Requests currently queued (approximate under concurrency).
    pub queue_depth: u64,
    /// Recovery checkpoints committed (one per delivered batch).
    pub checkpoints: u64,
    /// Duplicate sequenced deliveries answered from the dedup window's
    /// cached response frames instead of being re-applied.
    pub duplicates_suppressed: u64,
}

/// An edge device behind a supervised message-passing serving loop.
///
/// [`EdgeServer::spawn`] starts a dedicated thread owning an
/// [`EdgeDevice`] and returns a cloneable [`EdgeHandle`]; any number of
/// client threads can then check in and request locations concurrently,
/// with the loop serializing access — the deployment shape of Fig. 5
/// where one edge node fronts many nearby mobile users.
///
/// The device serves per-user RNG streams derived from the spawn seed
/// ([`EdgeDevice::new`]): a user's outputs depend only
/// on the seed and that user's own requests, never on how other clients'
/// requests interleave with them or on which server of a fleet holds the
/// user.
///
/// The loop runs under a supervisor: worker panics are caught, the device
/// is restored from its last committed recovery checkpoint (candidates,
/// posterior tables, window buffers, and RNG position — see
/// [`crate::recovery`]), and the interrupted batch is retried once,
/// bit-for-bit. Responses are delivered only after a batch commits, so a
/// crash can never expose state that the restore then rolls back. A
/// worker that keeps dying fails pending replies explicitly
/// ([`TransportError::WorkerFailed`]) rather than hanging its clients.
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
    thread: std::thread::JoinHandle<Result<EdgeDevice, SystemError>>,
    metrics: Arc<ServerMetrics>,
    telemetry: Telemetry,
    checkpoint: Arc<Mutex<Option<CommittedLog>>>,
}

impl EdgeServer {
    /// Spawns the serving loop with default [`ServerOptions`] and returns
    /// the server plus a client handle.
    pub fn spawn(config: SystemConfig, seed: u64) -> (EdgeServer, EdgeHandle) {
        EdgeServer::spawn_with(config, seed, ServerOptions::default())
    }

    /// Spawns the serving loop with explicit options.
    pub fn spawn_with(
        config: SystemConfig,
        seed: u64,
        options: ServerOptions,
    ) -> (EdgeServer, EdgeHandle) {
        let (tx, rx): (SyncSender<Envelope>, Receiver<_>) =
            sync_channel(options.queue_capacity.max(1));
        let telemetry = options.telemetry.clone();
        let metrics = Arc::new(ServerMetrics::new(&telemetry));
        let worker_metrics = Arc::clone(&metrics);
        let checkpoint = Arc::new(Mutex::new(None));
        let worker_checkpoint = Arc::clone(&checkpoint);
        let thread = std::thread::spawn(move || {
            serve(config, seed, rx, options, worker_metrics, worker_checkpoint)
        });
        let handle = EdgeHandle {
            tx,
            client: 0,
            // lint:allow(telemetry-hygiene): client-identity allocator, not a metric — never exported
            next_client: Arc::new(AtomicU64::new(1)),
            metrics: Arc::clone(&metrics),
        };
        (EdgeServer { thread, metrics, telemetry, checkpoint }, handle)
    }

    /// The last committed recovery checkpoint (empty until the serving
    /// loop has started). The loop maintains the committed state
    /// incrementally — O(batch) per commit, not O(device) — and this
    /// call materializes it into the versioned v2 byte image on demand.
    /// This is what the fabric feeds back through
    /// [`ServerOptions::restore_from`] to respawn a permanently failed
    /// shard from its committed state — released candidate sets, window
    /// buffers, and RNG positions all resume exactly, so not a single
    /// released candidate is ever re-drawn by the replacement.
    pub fn last_checkpoint(&self) -> Bytes {
        self.checkpoint.lock().as_ref().map_or_else(Bytes::new, CommittedLog::materialize)
    }

    /// The server's current health counters, read from the telemetry
    /// registry. Hub-wide totals when servers share a hub.
    pub fn health(&self) -> HealthSnapshot {
        self.metrics.snapshot()
    }

    /// The telemetry hub this server publishes into (the one passed via
    /// [`ServerOptions::telemetry`], or the private default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Waits for the serving loop to finish (after a shutdown request or
    /// once every handle is dropped) and returns the edge device with its
    /// final state for inspection.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::WorkerFailed`] if the worker died past its
    /// restart budget (its clients all received explicit failures, never
    /// a hung channel).
    pub fn join(self) -> Result<EdgeDevice, SystemError> {
        let restarts = self.metrics.restarts.value() as u32;
        match self.thread.join() {
            Ok(outcome) => outcome,
            // The supervisor itself never panics by design; if it somehow
            // does, surface a structured error instead of re-panicking.
            Err(_) => Err(SystemError::WorkerFailed { restarts }),
        }
    }
}

/// What the serving loop decided to do with one envelope of a batch.
enum Verdict {
    /// Serve it: reply with response at this index of the batch output.
    /// A same-batch duplicate of a sequenced request shares its
    /// original's index, so both clients receive the one response.
    Serve(usize),
    /// A duplicate of an already-committed sequenced request: reply with
    /// the cached response frame, byte-for-byte what the original got,
    /// without re-applying anything.
    Replay(Bytes),
    /// A sequenced request older than the dedup window: the cached
    /// response is gone and re-serving would double-apply, so reject it
    /// explicitly with [`ErrorCode::StaleSequence`].
    RejectStale(u32),
    /// Reject it as malformed, with this many strikes left.
    Reject(u32),
    /// Drop it silently (banned client): the reply channel closes and the
    /// client observes a disconnect.
    Drop,
}

/// Per-user exactly-once state: the next expected sequence number (one
/// past the highest committed) and the window of recently committed
/// `(seq, response frame)` pairs available for duplicate replay.
#[derive(Debug, Default)]
struct LaneState {
    next_seq: u32,
    window: VecDeque<(u32, Bytes)>,
}

/// Books one malformed frame against its sender: a strike with an
/// explicit countdown reply while under the limit, a ban (silent drop,
/// the client observes a disconnect) once the limit is reached.
fn book_malformed(
    client: u64,
    strikes: &mut BTreeMap<u64, u32>,
    banned: &mut BTreeSet<u64>,
    malformed_limit: u32,
    metrics: &ServerMetrics,
) -> Verdict {
    metrics.malformed_frames.inc();
    let count = strikes.entry(client).or_insert(0);
    *count += 1;
    if *count >= malformed_limit {
        strikes.remove(&client);
        banned.insert(client);
        metrics.dropped_clients.inc();
        Verdict::Drop
    } else {
        Verdict::Reject(malformed_limit - *count)
    }
}

fn serve(
    config: SystemConfig,
    seed: u64,
    rx: Receiver<Envelope>,
    mut options: ServerOptions,
    metrics: Arc<ServerMetrics>,
    checkpoint_cell: Arc<Mutex<Option<CommittedLog>>>,
) -> Result<EdgeDevice, SystemError> {
    let mut edge = EdgeDevice::new(config, seed);
    // Taken, not borrowed: the image is read once and freed here instead
    // of living as long as the worker.
    if let Some(snapshot) = options.restore_from.take() {
        // Resume from the committed checkpoint of a failed predecessor.
        // An unreadable snapshot fails the spawn outright — serving from
        // empty state here would silently re-draw released candidates.
        restore_checkpoint(&snapshot, config, &mut edge)?;
    }
    // The device's counters and ledger, opened once: every wakeup drains
    // into the same handles with no registration by name.
    let device_counters = DeviceCounters::open(&options.telemetry);
    // Logical-clock tracer for the per-wakeup pipeline stages. The clock
    // advances one tick per decoded request — never wall time — so span
    // boundaries are reproducible. With the `trace` feature off this is a
    // zero-sized no-op.
    let tracer = Tracer::default();
    // The committed recovery checkpoint: the state behind the versioned,
    // checksummed byte log described in `crate::recovery`, maintained
    // incrementally — every delivered batch re-captures only the users it
    // touched (O(batch) per commit, not O(device)) and the byte image is
    // materialized only on the read paths (rollback after a caught panic,
    // shard respawn, `EdgeServer::last_checkpoint`). Replies go out only
    // after the commit, so restoring it can never roll back state a
    // client has already observed.
    *checkpoint_cell.lock() = Some(CommittedLog::rebuild(&edge));
    let mut backoff_rng = seeded(derive_seed(seed, SUPERVISOR_STREAM));
    let mut fault_plan = options.fault_plan.clone();
    let malformed_limit = options.malformed_limit.max(1);
    let dedup_window = options.dedup_window.max(1);
    // Served-request ordinal (successfully decoded, non-shutdown), the
    // clock the fault plan runs on.
    let mut served: u64 = 0;
    let mut restarts: u32 = 0;
    // Per-client consecutive-malformed counts and the ban set. BTree
    // keeps health iteration order deterministic.
    let mut strikes: BTreeMap<u64, u32> = BTreeMap::new();
    let mut banned: BTreeSet<u64> = BTreeSet::new();
    // Exactly-once state: one lane per user carrying its sequence
    // horizon and replay window. Committed response frames are inserted
    // at commit time only, so a batch the supervisor rolls back leaves
    // no trace here and its retry is a first application.
    let mut lanes: BTreeMap<u32, LaneState> = BTreeMap::new();
    // Per-batch scratch: first index of each fresh (lane, seq) in the
    // batch, and the (lane, seq, response index) triples to cache at
    // commit.
    let mut batch_seen: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let mut pending_cache: Vec<(u32, u32, usize)> = Vec::new();

    // Scratch reused across wakeups: one blocking recv per batch, then the
    // queue is drained non-blocking and handed to `EdgeDevice::serve_batch`
    // in one call, so the per-wakeup cost is amortized over the batch.
    let mut batch: Vec<Envelope> = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut requests: Vec<ClientRequest> = Vec::new();
    let mut touched: Vec<UserId> = Vec::new();
    let mut responses: Vec<EdgeResponse> = Vec::new();
    let mut frame_buf: Vec<u8> = Vec::new();
    let mut offsets: Vec<std::ops::Range<usize>> = Vec::new();

    'accept: while let Ok(first) = rx.recv() {
        batch.clear();
        batch.push(first);
        while let Ok(next) = rx.try_recv() {
            batch.push(next);
        }
        metrics.wakeups.inc();
        metrics.batch_size.observe(batch.len() as u64);
        metrics.queue_depth.sub(batch.len() as i64);

        // Decode phase — total: every frame passes the hardened strict
        // decode, and malformed input costs its sender strikes, never the
        // worker its life.
        verdicts.clear();
        requests.clear();
        batch_seen.clear();
        pending_cache.clear();
        let mut shutdown_at = None;
        {
            let _span = tracer.span("server.decode");
            for (i, envelope) in batch.iter().enumerate() {
                if banned.contains(&envelope.client) {
                    verdicts.push(Verdict::Drop);
                    continue;
                }
                // Peel the exactly-once envelope first. The checksum over
                // (lane, seq, inner) fails closed: a corrupted header can
                // never alias another lane's cached response, it lands on
                // the malformed path like any other damaged frame.
                let (sequenced, inner) = match split_sequenced(&envelope.frame) {
                    Ok(Some((header, inner))) => (Some(header), inner),
                    Ok(None) => (None, envelope.frame.as_slice()),
                    Err(_) => {
                        verdicts.push(book_malformed(
                            envelope.client,
                            &mut strikes,
                            &mut banned,
                            malformed_limit,
                            &metrics,
                        ));
                        continue;
                    }
                };
                if let Some(header) = sequenced {
                    let lane = lanes.entry(header.lane).or_default();
                    if let Some((_, cached)) =
                        lane.window.iter().find(|(seq, _)| *seq == header.seq)
                    {
                        // Committed duplicate: replay the exact response
                        // frame the original received.
                        strikes.remove(&envelope.client);
                        metrics.duplicates_suppressed.inc();
                        verdicts.push(Verdict::Replay(cached.clone()));
                        continue;
                    }
                    if let Some(&index) = batch_seen.get(&(header.lane, header.seq)) {
                        // Same-batch duplicate: share the original's
                        // response slot; it is applied exactly once.
                        strikes.remove(&envelope.client);
                        metrics.duplicates_suppressed.inc();
                        verdicts.push(Verdict::Serve(index));
                        continue;
                    }
                    if header.seq < lane.next_seq {
                        // Older than the replay window: re-serving would
                        // double-apply, so reject explicitly instead.
                        strikes.remove(&envelope.client);
                        metrics.stale_rejections.inc();
                        verdicts.push(Verdict::RejectStale(header.seq));
                        continue;
                    }
                }
                match ClientRequest::decode(inner) {
                    Ok(ClientRequest::Shutdown) => {
                        shutdown_at = Some(i);
                        break;
                    }
                    Ok(request) => {
                        strikes.remove(&envelope.client);
                        if let Some(header) = sequenced {
                            batch_seen.insert((header.lane, header.seq), requests.len());
                            pending_cache.push((header.lane, header.seq, requests.len()));
                        }
                        verdicts.push(Verdict::Serve(requests.len()));
                        requests.push(request);
                    }
                    Err(_) => {
                        verdicts.push(book_malformed(
                            envelope.client,
                            &mut strikes,
                            &mut banned,
                            malformed_limit,
                            &metrics,
                        ));
                    }
                }
            }
        }

        // Serve phase, under the supervisor. A panic rolls the device
        // back to the committed checkpoint (unwinding leaves `edge` in an
        // unknown state, which is exactly why it is replaced wholesale —
        // that is what makes the `AssertUnwindSafe` sound) and retries
        // the batch once: the restored RNG position makes the retry
        // bit-for-bit identical, and injected fault points have already
        // been consumed. A second panic on the same batch fails its
        // replies explicitly and drops the batch.
        let mut attempt = 0;
        loop {
            responses.clear();
            let outcome = {
                let _span = tracer.span("server.serve_batch");
                catch_unwind(AssertUnwindSafe(|| {
                    serve_requests(&mut edge, &requests, &mut responses, &mut fault_plan, served)
                }))
            };
            if outcome.is_ok() {
                break;
            }
            restarts += 1;
            metrics.restarts.inc();
            // Materialize the committed image only here, on the rollback
            // path — the hot loop never pays for the full encode.
            let restored = restarts <= options.max_restarts
                && checkpoint_cell
                    .lock()
                    .as_ref()
                    .map(CommittedLog::materialize)
                    .is_some_and(|log| restore_checkpoint(&log, config, &mut edge).is_ok());
            if restored {
                // The restored device is a fresh allocation graph, so the
                // committed log is rebuilt wholesale: pool pointer
                // identities must track the live `Arc`s.
                *checkpoint_cell.lock() = Some(CommittedLog::rebuild(&edge));
            }
            if !restored {
                // Past the restart budget (or the checkpoint itself is
                // unreadable): fail every pending reply explicitly and
                // surface a structured error — never a hang, never an
                // escaped panic. The device is in an unknown post-panic
                // state, so its undrained telemetry dies with it — only
                // committed batches ever reach the ledger.
                fail_replies(batch.drain(..), restarts, &metrics);
                while let Ok(envelope) = rx.try_recv() {
                    metrics.queue_depth.sub(1);
                    fail_replies(std::iter::once(envelope), restarts, &metrics);
                }
                return Err(SystemError::WorkerFailed { restarts });
            }
            backoff(&mut backoff_rng, restarts, &options);
            attempt += 1;
            if attempt >= 2 {
                // The batch poisoned the worker twice: reply with an
                // explicit failure and move on with the restored device.
                fail_replies(batch.drain(..), restarts, &metrics);
                continue 'accept;
            }
        }
        served += requests.len() as u64;
        metrics.requests.add(requests.len() as u64);
        tracer.advance(requests.len() as u64);

        // Commit phase: checkpoint first, deliver second. A crash between
        // the two replays the batch from the *old* checkpoint without
        // having exposed anything, so clients never observe rolled-back
        // state. The committed log is updated incrementally: only the
        // users this batch touched are re-captured, so the commit costs
        // O(batch) — the full encode happens only if someone actually
        // restores or reads it.
        touched.clear();
        touched.extend(requests.iter().filter_map(ClientRequest::user));
        touched.sort_unstable();
        touched.dedup();
        {
            let mut cell = checkpoint_cell.lock();
            let committed = cell.get_or_insert_with(|| CommittedLog::rebuild(&edge));
            for &user in &touched {
                if let Some(state) = edge.user_state(user) {
                    committed.capture_user(user, state);
                }
            }
            metrics.checkpoint_bytes.observe(committed.encoded_len() as u64);
        }
        metrics.checkpoints.inc();
        // Telemetry drains strictly after the commit: a crash wipes any
        // undelivered ledger events together with the device state they
        // described, keeping budget-spend delivery exactly-once.
        edge.drain_into(&device_counters);
        // Bid emission shares the same post-commit slot and therefore the
        // same exactly-once guarantee: `requests`/`responses` are parallel
        // and hold only the non-duplicate requests this batch *applied*
        // (replays and same-batch duplicates never enter them; a killed
        // batch rolls back before reaching here).
        if let Some(sink) = options.bid_sink.as_ref() {
            crate::replay::emit_bids(sink, &requests, &responses);
        }

        // One encode block per wakeup: every response frame lands in
        // `frame_buf`, is frozen into a single shared allocation, and each
        // client gets a zero-copy slice — no per-response allocation.
        frame_buf.clear();
        offsets.clear();
        {
            let _span = tracer.span("server.encode");
            for response in &responses {
                let start = frame_buf.len();
                response.encode_into(&mut frame_buf);
                offsets.push(start..frame_buf.len());
            }
        }
        let block = Bytes::copy_from_slice(&frame_buf);
        // Dedup-window commit, strictly before any reply leaves: the
        // cached frames are the exact bytes the clients are about to
        // receive, so a duplicate racing in behind its original can only
        // ever observe the committed response.
        for &(lane_id, seq, index) in &pending_cache {
            let lane = lanes.entry(lane_id).or_default();
            lane.window.push_back((seq, block.slice(offsets[index].clone())));
            while lane.window.len() > dedup_window {
                lane.window.pop_front();
            }
            lane.next_seq = lane.next_seq.max(seq.saturating_add(1));
        }
        for (envelope, verdict) in batch.iter().zip(verdicts.iter()) {
            match verdict {
                Verdict::Serve(i) => {
                    let _ = envelope.reply.send(block.slice(offsets[*i].clone()));
                }
                Verdict::Replay(frame) => {
                    let _ = envelope.reply.send(frame.clone());
                }
                Verdict::RejectStale(seq) => {
                    let _ = envelope.reply.send(
                        EdgeResponse::Error { code: ErrorCode::StaleSequence, detail: *seq }
                            .encode(),
                    );
                }
                Verdict::Reject(strikes_left) => {
                    let _ = envelope.reply.send(
                        EdgeResponse::Error {
                            code: ErrorCode::Malformed,
                            detail: *strikes_left,
                        }
                        .encode(),
                    );
                }
                Verdict::Drop => {}
            }
        }
        if let Some(i) = shutdown_at {
            // Ack the shutdown itself; envelopes queued behind it are
            // dropped, so their clients observe a disconnect — the same
            // outcome as racing a shutdown in the unbatched loop.
            let _ = batch[i].reply.send(EdgeResponse::Ack.encode());
            break;
        }
        // Drop the batch's envelopes now: a `Drop` verdict answers its
        // banned client by closing the reply channel, which must not wait
        // for the next wakeup.
        batch.clear();
    }
    // Final drain: a restore whose batch was then abandoned (the poisoned
    // twice-crashing case) leaves its restore events pending with no later
    // commit to carry them.
    edge.drain_into(&device_counters);
    Ok(edge)
}

/// Serves one decoded batch, injecting any scheduled crash: requests
/// before the kill point are served (mutating device state — the
/// realistic partial-failure shape the checkpoint restore must undo),
/// then the worker dies.
fn serve_requests(
    edge: &mut EdgeDevice,
    requests: &[ClientRequest],
    responses: &mut Vec<EdgeResponse>,
    fault_plan: &mut FaultPlan,
    served_before: u64,
) {
    match fault_plan.take(served_before, served_before + requests.len() as u64) {
        None => edge.serve_batch(requests, responses),
        Some(kill_at) => {
            let prefix = (kill_at - served_before) as usize;
            edge.serve_batch(&requests[..prefix], responses);
            // lint:allow(panic-hygiene): the injected fault IS a panic — the supervisor's catch_unwind/restore path is what it exercises
            panic!("injected fault: worker killed before request {kill_at}");
        }
    }
}

/// Decodes the committed checkpoint and swaps the restored device in.
fn restore_checkpoint(
    log: &Bytes,
    config: SystemConfig,
    edge: &mut EdgeDevice,
) -> Result<(), crate::recovery::RecoveryError> {
    *edge = EdgeDevice::restore_from_checkpoint(config, log)?;
    Ok(())
}

/// Fails pending replies with an explicit error frame instead of leaving
/// the clients hanging on dead channels.
fn fail_replies(
    envelopes: impl Iterator<Item = Envelope>,
    restarts: u32,
    metrics: &ServerMetrics,
) {
    for envelope in envelopes {
        metrics.failed_replies.inc();
        let _ = envelope.reply.send(
            EdgeResponse::Error { code: ErrorCode::WorkerFailed, detail: restarts }.encode(),
        );
    }
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
        let (server, handle) = spawn();
        let handles: Vec<_> = (0..6u32)
            .map(|u| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    let user = UserId::new(u);
                    let home = Point::new(u as f64 * 3_000.0, 0.0);
                    for t in 0..30 {
                        h.check_in(user, home, t).unwrap();
                    }
                    assert_eq!(h.finalize_window(user).unwrap(), 1);
                    h.request_location(user, home).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap().is_finite());
        }
        handle.shutdown().unwrap();
        assert_eq!(server.join().unwrap().user_count(), 6);
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
        let (server, handle) = spawn_with(ServerOptions {
            malformed_limit: 3,
            ..ServerOptions::default()
        });
        let polluter = handle.clone();
        // Strikes 1 and 2: explicit Malformed rejections with a countdown.
        for strikes_left in [2u32, 1] {
            let err = polluter.call_raw(vec![0xFF, 0x00, 0x01]).unwrap_err();
            assert_eq!(err, TransportError::Malformed { strikes_left });
        }
        // Strike 3: the client is dropped; its reply channel just closes.
        assert_eq!(
            polluter.call_raw(vec![0xFF]).unwrap_err(),
            TransportError::Disconnected
        );
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
        let (server, handle) = spawn_with(ServerOptions {
            malformed_limit: 2,
            ..ServerOptions::default()
        });
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
        // Every call succeeds: the supervisor restores the checkpoint and
        // retries the interrupted batch.
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
            let (server, handle) = spawn_with(ServerOptions {
                fault_plan,
                ..ServerOptions::default()
            });
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
        // Two kill points inside one batch: the retry dies too, so the
        // supervisor fails the batch's replies explicitly and keeps the
        // (restored) worker alive for later traffic. Queue the whole batch
        // before running `serve` so it drains in a single wakeup.
        let config = SystemConfig::builder().build().unwrap();
        let (tx, rx) = sync_channel::<Envelope>(16);
        let options = ServerOptions {
            fault_plan: FaultPlan::kill_at([0, 2]),
            backoff_base: 1,
            backoff_cap: 1,
            ..ServerOptions::default()
        };
        let metrics = Arc::new(ServerMetrics::new(&options.telemetry));
        let mut replies = Vec::new();
        for t in 0..4 {
            let (reply_tx, reply_rx) = sync_channel(1);
            let frame = ClientRequest::CheckIn {
                user: UserId::new(1),
                location: Point::ORIGIN,
                timestamp: t,
            }
            .encode()
            .to_vec();
            metrics.queue_depth.add(1);
            tx.send(Envelope { client: 0, frame, reply: reply_tx }).unwrap();
            replies.push(reply_rx);
        }
        drop(tx);
        let edge = serve(
            config,
            7,
            rx,
            options,
            Arc::clone(&metrics),
            Arc::new(Mutex::new(None)),
        )
        .unwrap();
        for reply_rx in replies {
            let frame = reply_rx.recv().unwrap();
            assert_eq!(
                EdgeResponse::decode(&frame).unwrap(),
                EdgeResponse::Error { code: ErrorCode::WorkerFailed, detail: 2 }
            );
        }
        // The batch was dropped after the restore: no check-in survived.
        assert_eq!(edge.user_count(), 0);
        assert_eq!(metrics.restarts.value(), 2);
        assert_eq!(metrics.failed_replies.value(), 4);
    }

    #[test]
    fn overload_rejects_and_retry_budget_is_bounded() {
        // Client-side path against a full queue: a capacity-1 channel with
        // no consumer, its single slot occupied directly.
        let (tx, _rx) = sync_channel::<Envelope>(1);
        let telemetry = Telemetry::new();
        let metrics = Arc::new(ServerMetrics::new(&telemetry));
        let handle = EdgeHandle {
            tx,
            client: 0,
            next_client: Arc::new(AtomicU64::new(1)),
            metrics: Arc::clone(&metrics),
        };
        let (reply_tx, _parked) = sync_channel(1);
        handle.tx.send(Envelope { client: 9, frame: Vec::new(), reply: reply_tx }).unwrap();
        let err = handle.try_call(ClientRequest::Shutdown).unwrap_err();
        assert_eq!(err, TransportError::Overloaded);
        let policy = RetryPolicy {
            max_attempts: 3,
            disconnect_attempts: 1,
            backoff_base: 4,
            backoff_cap: 64,
        };
        let err = handle.call_with_retry(ClientRequest::Shutdown, &policy).unwrap_err();
        assert_eq!(err, TransportError::Overloaded);
        assert_eq!(metrics.overload_rejections.value(), 4);
        // Rejected sends roll their depth increment back; the only queued
        // envelope went around the handle, so the depth reads zero.
        assert_eq!(metrics.queue_depth.value(), 0);
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
        assert_eq!(plan.take(0, 3), Some(2));
        assert_eq!(plan.take(0, 3), None);
        assert_eq!(plan.take(4, 10), Some(5));
        assert_eq!(plan.take(4, 10), Some(9));
        assert_eq!(plan.remaining(), 0);
        assert_eq!(FaultPlan::none(), FaultPlan::default());
    }

    #[test]
    fn sequenced_duplicates_replay_without_reapplying() {
        use crate::protocol::encode_sequenced;
        let hub = Telemetry::new();
        let (server, handle) = spawn_with(ServerOptions {
            telemetry: hub.clone(),
            ..ServerOptions::default()
        });
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
        let first = handle.call_raw(finalize.clone()).unwrap();
        assert_eq!(first, EdgeResponse::WindowClosed { fresh_obfuscations: 1 });
        // Re-delivering the committed finalize replays its cached
        // response — no second window ever closes.
        for _ in 0..3 {
            assert_eq!(handle.call_raw(finalize.clone()).unwrap(), first);
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
        let (server, handle) = spawn_with(ServerOptions {
            dedup_window: 2,
            ..ServerOptions::default()
        });
        let user = UserId::new(1);
        let checkin = |seq: u32| {
            encode_sequenced(
                1,
                seq,
                &ClientRequest::CheckIn {
                    user,
                    location: Point::ORIGIN,
                    timestamp: seq as i64,
                },
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
        handle.call_raw(good.clone()).unwrap();
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
        let snapshot = server.last_checkpoint();
        assert!(!snapshot.is_empty());
        handle.shutdown().unwrap();
        server.join().unwrap();
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
    fn disconnect_retries_have_their_own_budget() {
        // A dead endpoint: every attempt observes Disconnected.
        let (tx, rx) = sync_channel::<Envelope>(4);
        drop(rx);
        let telemetry = Telemetry::new();
        let metrics = Arc::new(ServerMetrics::new(&telemetry));
        let handle = EdgeHandle {
            tx,
            client: 0,
            next_client: Arc::new(AtomicU64::new(1)),
            metrics: Arc::clone(&metrics),
        };
        let policy = RetryPolicy {
            max_attempts: 1,
            disconnect_attempts: 3,
            backoff_base: 1,
            backoff_cap: 4,
        };
        let err = handle.call_with_retry(ClientRequest::Shutdown, &policy).unwrap_err();
        assert_eq!(err, TransportError::Disconnected);
        // Two retries ran before the third attempt gave up.
        assert_eq!(metrics.disconnect_retries.value(), 2);
        // The pre-fabric fail-fast shape: a budget of 1 never retries.
        let policy = RetryPolicy { disconnect_attempts: 1, ..policy };
        handle.call_with_retry(ClientRequest::Shutdown, &policy).unwrap_err();
        assert_eq!(metrics.disconnect_retries.value(), 2);
    }

    #[test]
    fn retry_policy_backoff_is_capped() {
        let policy = RetryPolicy {
            max_attempts: 10,
            disconnect_attempts: 1,
            backoff_base: 8,
            backoff_cap: 100,
        };
        assert_eq!(policy.spins(0), 8);
        assert_eq!(policy.spins(1), 16);
        assert_eq!(policy.spins(30), 100);
    }
}
