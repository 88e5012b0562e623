use std::collections::BTreeSet;

use bytes::Bytes;
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mechanisms::{NFoldGaussian, PlanarLaplace, PosteriorTable};
use privlocad_mobility::UserId;

use privlocad_telemetry::{
    top_key, Counter, Determinism, Ledger, SpendEvent, SpendKind, Telemetry,
};

use crate::protocol::{ClientRequest, EdgeResponse};
use crate::recovery::{DeviceSnapshot, RecoveryError};
use crate::shard::StateFootprint;
use crate::user::{RequestStats, UserMap, UserState};
use crate::{CandidateArena, PreparedSet, SystemConfig};

/// Domain separator for per-user stream derivation: streams are drawn
/// from `derive_seed(derive_seed(master, DOMAIN), user)`, so they can
/// never collide with shard seeds or workload streams derived from the
/// same master.
const USER_STREAM_DOMAIN: u64 = 0x7573_6572_5f73_7472; // "user_str"

/// The user's state on a device with master seed `master`, created on
/// first sight with the user's private generator.
fn user_entry(users: &mut UserMap<UserState>, master: u64, user: UserId) -> &mut UserState {
    users.entry_or_insert_with(user, || {
        let stream = derive_seed(derive_seed(master, USER_STREAM_DOMAIN), u64::from(user.raw()));
        UserState::new(seeded(stream))
    })
}

/// The pre-request state of the user a request in flight names — `None`
/// for a first contact — from which [`EdgeDevice::roll_back`] undoes the
/// request. `None` outright for a request that names no user.
pub(crate) type RequestUndo = Option<(UserId, Option<UserState>)>;

/// Serving observations accumulated by an [`EdgeDevice`] since it was
/// last drained: by [`EdgeDevice::drain_telemetry`], or by a serving
/// shard's step, which drains into counter handles it opened once.
///
/// Every field is a pure function of the construction seed and the served
/// workload, so after a full drain the exported counters are bit-for-bit
/// reproducible across runs and shard layouts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// True-location check-ins recorded into profile windows.
    pub checkins: u64,
    /// Ad-request location reports produced.
    pub location_requests: u64,
    /// Profile windows closed (full finalizations and profile-only closes).
    pub windows_closed: u64,
    /// Permanent candidate sets generated — each one a `(r, ε, δ, n)`
    /// budget spend mirrored as a [`SpendKind::CandidateSet`] ledger event.
    pub fresh_candidate_sets: u64,
    /// Posterior draws from a set whose weights were already stored —
    /// every draw, unless the request had to draw the set itself.
    pub posterior_cache_hits: u64,
    /// Posterior draws whose request first drew, and weighed, the set.
    pub posterior_cache_misses: u64,
    /// Reports drawn by posterior selection over permanent candidates.
    pub posterior_draws: u64,
    /// Reports drawn by the uniform ablation selector.
    pub uniform_draws: u64,
    /// Reports drawn by the one-time planar-Laplace nomadic fallback.
    pub nomadic_draws: u64,
    /// User states rebuilt from a checkpoint.
    pub restores: u64,
}

impl DeviceStats {
    fn absorb(&mut self, request: RequestStats) {
        self.posterior_cache_hits += request.cache_hits;
        self.posterior_cache_misses += request.cache_misses;
        self.posterior_draws += request.posterior_draws;
        self.uniform_draws += request.uniform_draws;
        self.nomadic_draws += request.nomadic_draws;
    }

    /// Every field, in [`DEVICE_COUNTERS`] order.
    fn counts(self) -> [u64; DEVICE_COUNTERS.len()] {
        [
            self.checkins,
            self.location_requests,
            self.windows_closed,
            self.fresh_candidate_sets,
            self.posterior_cache_hits,
            self.posterior_cache_misses,
            self.posterior_draws,
            self.uniform_draws,
            self.nomadic_draws,
            self.restores,
        ]
    }
}

/// The exported counter behind each [`DeviceStats`] field.
const DEVICE_COUNTERS: [(&str, Determinism); 10] = [
    ("edge.checkins", Determinism::Deterministic),
    ("edge.location_requests", Determinism::Deterministic),
    ("edge.windows_closed", Determinism::Deterministic),
    ("edge.fresh_candidate_sets", Determinism::Deterministic),
    ("edge.posterior_cache_hits", Determinism::Deterministic),
    ("edge.posterior_cache_misses", Determinism::Deterministic),
    ("edge.posterior_draws", Determinism::Deterministic),
    ("edge.uniform_draws", Determinism::Deterministic),
    ("edge.nomadic_draws", Determinism::Deterministic),
    // Restore counts depend on where kills land relative to wakeup
    // boundaries (how many users existed at each restore), so they are
    // scheduling-dependent, not workload-deterministic.
    ("recovery.restores", Determinism::Scheduling),
];

/// The telemetry an [`EdgeDevice`] drains into: its counters, registered
/// when opened, and the hub's ledger. A serving shard opens them once and
/// drains into them every step ([`EdgeDevice::drain_into`]).
#[derive(Debug)]
pub(crate) struct DeviceCounters {
    counters: [Counter; DEVICE_COUNTERS.len()],
    ledger: Ledger,
}

impl DeviceCounters {
    pub(crate) fn open(telemetry: &Telemetry) -> Self {
        DeviceCounters {
            counters: DEVICE_COUNTERS
                .map(|(name, class)| telemetry.registry().counter(name, class)),
            ledger: telemetry.ledger().clone(),
        }
    }
}

/// Records the budget spend of every candidate set the user's table gained
/// since it held `sets_before` entries. The table is append-only, so the
/// fresh sets are exactly the tail past that index.
fn record_fresh_sets(
    config: &SystemConfig,
    user: UserId,
    state: &UserState,
    sets_before: usize,
    stats: &mut DeviceStats,
    pending: &mut Vec<SpendEvent>,
) {
    let params = config.geo_ind();
    for (top, _) in state.obfuscation.table().entries().skip(sets_before) {
        stats.fresh_candidate_sets += 1;
        pending.push(SpendEvent {
            user: u64::from(user.raw()),
            kind: SpendKind::CandidateSet {
                top: top_key(top.x, top.y),
                epsilon: params.epsilon(),
                delta: params.delta(),
                n: params.n() as u32,
            },
        });
    }
}

/// A trusted edge device serving many users (Fig. 5).
///
/// Owns every user's location-management state and obfuscation table,
/// whose candidate sets carry their posterior weights, and performs output
/// selection per ad request. The config and the two mechanisms built from
/// it are held once here and lent to every user's calls. Every user draws from a private RNG stream
/// derived from the device's master seed, so a user's outputs depend only
/// on `(master, user id, that user's own operation sequence)`: parallel
/// serving runs one device per worker thread, and outputs do not depend on
/// how users are partitioned over the devices ([`crate::ShardRouter`]).
#[derive(Debug)]
pub struct EdgeDevice {
    config: SystemConfig,
    nomadic: PlanarLaplace,
    /// The n-fold Gaussian mechanism every user's candidate sets are drawn
    /// from, built once from the config.
    mechanism: NFoldGaussian,
    users: UserMap<UserState>,
    /// Serving observations since the last [`EdgeDevice::drain_telemetry`].
    /// Deliberately *not* part of [`DeviceSnapshot`]: telemetry describes a
    /// run, not the recoverable device state.
    stats: DeviceStats,
    /// Privacy-budget events not yet delivered to a ledger. The serving
    /// loop drains this only *after* a checkpoint commit, which makes
    /// delivery exactly-once under crash recovery: a crash wipes the
    /// undelivered buffer together with the device state it described, and
    /// the post-restore retry regenerates both identically.
    pending_spends: Vec<SpendEvent>,
    /// Reusable batched candidate-generation buffers, shared by every
    /// window close on this device. Pure scratch: never part of a
    /// snapshot, never observable in outputs.
    arena: CandidateArena,
    /// The master seed every user's private stream derives from.
    master: u64,
}

impl EdgeDevice {
    /// Creates an edge device whose users draw from private RNG streams
    /// derived from `master` — a fleet partitioned over any number of
    /// devices on the same master produces bit-for-bit the same responses
    /// per user.
    pub fn new(config: SystemConfig, master: u64) -> Self {
        EdgeDevice {
            nomadic: PlanarLaplace::new(config.nomadic()),
            mechanism: NFoldGaussian::new(config.geo_ind()),
            config,
            users: UserMap::new(),
            stats: DeviceStats::default(),
            pending_spends: Vec::new(),
            arena: CandidateArena::new(),
            master,
        }
    }

    /// Alias of [`EdgeDevice::new`]: every device serves per-user streams.
    pub fn with_per_user_streams(config: SystemConfig, master: u64) -> Self {
        EdgeDevice::new(config, master)
    }

    /// The device configuration.
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Number of users with state on this device.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The master seed of this device's per-user streams.
    pub(crate) fn master(&self) -> u64 {
        self.master
    }

    fn state_mut(&mut self, user: UserId) -> &mut UserState {
        user_entry(&mut self.users, self.master, user)
    }

    /// Records a true-location check-in into the user's current profile
    /// window (the passive collection of Section V-B).
    pub fn report_checkin(&mut self, user: UserId, true_location: Point) {
        self.stats.checkins += 1;
        self.state_mut(user).manager.record(true_location);
    }

    /// Closes the user's profile window: recomputes the η-frequent
    /// location set and generates permanent candidates, weights included,
    /// for any new top location. Returns the number of freshly obfuscated
    /// top locations.
    pub fn finalize_window(&mut self, user: UserId) -> usize {
        let config = self.config;
        let state = user_entry(&mut self.users, self.master, user);
        let sets_before = state.obfuscation.table().len();
        let (scratch, lanes) = self.arena.buffers();
        // Candidate generation draws from the user's private stream, so the
        // sets a user receives never depend on how other users' operations
        // interleave on this shard.
        let fresh = state.finalize_window_with(&config, &self.mechanism, scratch, lanes);
        self.stats.windows_closed += 1;
        self.pending_spends
            .push(SpendEvent { user: u64::from(user.raw()), kind: SpendKind::WindowClose });
        record_fresh_sets(
            &config,
            user,
            state,
            sets_before,
            &mut self.stats,
            &mut self.pending_spends,
        );
        fresh
    }

    /// Closes the user's window and returns the *local* profile without
    /// obfuscating anything — the first half of the multi-edge flow, where
    /// a fleet authority merges partial profiles before a single
    /// obfuscation pass. Returns `None` for unknown users.
    pub fn close_window_profile(
        &mut self,
        user: UserId,
    ) -> Option<privlocad_attack::LocationProfile> {
        let state = self.users.get_mut(user)?;
        state.manager.finalize_window(self.config.profile_theta_m(), self.config.eta());
        self.stats.windows_closed += 1;
        self.pending_spends
            .push(SpendEvent { user: u64::from(user.raw()), kind: SpendKind::WindowClose });
        Some(state.manager.profile().clone())
    }

    /// Installs a merged top set plus its (fleet-generated) permanent
    /// candidate sets — the second half of the multi-edge flow. Candidate
    /// sets for already-covered locations are ignored (permanence).
    ///
    /// The staged sets arrive as shared [`PreparedSet`] handles (see
    /// [`CandidateArena::prepare`]): installing is an `Arc` bump, not a
    /// `Vec` clone, and the posterior weights the authority computed come
    /// with the set — this device never recomputes them.
    pub fn install_protection(
        &mut self,
        user: UserId,
        tops: Vec<privlocad_attack::ProfileEntry>,
        sets: &[PreparedSet],
    ) {
        let config = self.config;
        let state = user_entry(&mut self.users, self.master, user);
        state.manager.set_top_set(tops);
        let sets_before = state.obfuscation.table().len();
        for set in sets {
            let candidates = set.candidates().clone();
            state.obfuscation.install(set.top(), candidates, config.top_match_radius_m());
        }
        // The fleet spent the budget when it generated these sets; the
        // install point is where this device's ledger learns about it.
        record_fresh_sets(
            &config,
            user,
            state,
            sets_before,
            &mut self.stats,
            &mut self.pending_spends,
        );
    }

    /// Assesses the longitudinal exposure of a user's last profiled window
    /// (the "assess the risk of location privacy breaches" role of the
    /// edge). Returns `None` for unknown users.
    pub fn risk_report(&self, user: UserId) -> Option<crate::RiskReport> {
        let state = self.users.get(user)?;
        Some(crate::RiskAssessor::default().assess(state.manager.profile()))
    }

    /// A copy of the permanent candidates covering `location`, if the user
    /// is at a protected top location.
    pub fn candidates(&self, user: UserId, location: Point) -> Option<Vec<Point>> {
        let state = self.users.get(user)?;
        let radius = self.config.top_match_radius_m();
        let top = state.manager.matching_top(location, radius)?;
        Some(state.obfuscation.table().get(top, radius)?.points().collect())
    }

    /// Produces the location to report for an ad request at
    /// `current_true`: a posterior-selected permanent candidate when the
    /// user is at a top location (Algorithm 4), or a fresh one-time
    /// planar-Laplace obfuscation for nomadic positions.
    pub fn reported_location(&mut self, user: UserId, current_true: Point) -> Point {
        // Split borrows: no per-request copy of the config.
        let Self { users, config, nomadic, mechanism, stats, pending_spends, master, .. } = self;
        let state = user_entry(users, *master, user);
        let sets_before = state.obfuscation.table().len();
        let mut request = RequestStats::default();
        let point = state.reported_location(config, nomadic, mechanism, current_true, &mut request);
        stats.location_requests += 1;
        stats.absorb(request);
        // A first request at a freshly merged top can draw its permanent
        // candidate set lazily — ledger that spend too.
        record_fresh_sets(config, user, state, sets_before, stats, pending_spends);
        point
    }

    /// Serves a batch of protocol requests in order, pushing exactly one
    /// response per request onto `responses` (appended; the caller owns
    /// clearing) — the unsupervised path trace replays take
    /// ([`crate::replay`]). A serving shard (behind a [`crate::Router`]) runs
    /// the same per-request body one request per step, under its
    /// supervisor.
    ///
    /// `Shutdown` is a transport-level concern; at the device level it is
    /// a no-op acknowledged with [`EdgeResponse::Ack`].
    pub fn serve_batch(&mut self, requests: &[ClientRequest], responses: &mut Vec<EdgeResponse>) {
        responses.extend(requests.iter().map(|&request| self.serve(request)));
    }

    /// Serves one protocol request and returns its response.
    pub(crate) fn serve(&mut self, request: ClientRequest) -> EdgeResponse {
        match request {
            ClientRequest::CheckIn { user, location, .. } => {
                self.report_checkin(user, location);
                EdgeResponse::Ack
            }
            ClientRequest::RequestLocation { user, location } => {
                EdgeResponse::ReportedLocation { location: self.reported_location(user, location) }
            }
            ClientRequest::FinalizeWindow { user } => {
                EdgeResponse::WindowClosed { fresh_obfuscations: self.finalize_window(user) as u32 }
            }
            ClientRequest::Shutdown => EdgeResponse::Ack,
        }
    }

    /// Captures a full recovery checkpoint: every user's window state and
    /// permanent candidate sets, plus each user's raw RNG stream words —
    /// enough to resume serving bit-for-bit where the device stood, without
    /// re-drawing a single released candidate (see [`crate::recovery`] for
    /// why re-drawing is a privacy violation). The posterior weights are
    /// not captured: they are a function of each set and the σ the image's
    /// header records.
    ///
    /// This is the decode of [`EdgeDevice::checkpoint`]'s image, so the
    /// snapshot and the committed bytes cannot disagree.
    pub fn snapshot(&self) -> DeviceSnapshot {
        // lint:allow(panic-hygiene): provably infallible — the image was streamed from this device just now, so its checksum and every frame and pool reference are intact
        DeviceSnapshot::decode(&self.checkpoint()).expect("a freshly streamed checkpoint decodes")
    }

    /// Every user's live serving state, ascending by id — the order a
    /// checkpoint image lists them in.
    pub(crate) fn user_states(&self) -> impl Iterator<Item = (UserId, &UserState)> {
        self.users.keys().zip(self.users.values())
    }

    /// Encodes the device into one contiguous checkpoint buffer (the
    /// counted frame format of [`crate::recovery`]) — what
    /// [`EdgeDevice::restore_from_checkpoint`] rebuilds a device from
    /// without per-record allocation.
    ///
    /// The image is streamed straight from the live user states into one
    /// buffer allocated once at its exact length: a first pass interns the
    /// candidate-set pool and sums the frame lengths, a second writes. The
    /// header binds the config's σ, match radius and selection kind; no
    /// posterior weight is written. No [`DeviceSnapshot`] is built on the
    /// way.
    pub fn checkpoint(&self) -> Bytes {
        crate::recovery::stream_image(self)
    }

    /// Rebuilds a device from a checkpoint image, reading it once. Every
    /// user's RNG stream resumes exactly where the captured device left
    /// it, so any draw that was in flight when the original crashed is
    /// re-executed identically — a mid-window restart never re-draws
    /// candidates. Each pooled candidate set is materialized once, its
    /// posterior weights recomputed under `config`, and shared by every
    /// user record that cites it, and each user frame becomes its serving
    /// state as soon as it is read — no [`DeviceSnapshot`] is built. The
    /// image reader is the one behind [`DeviceSnapshot::decode`], so the
    /// two fail alike.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError`] on a corrupt, truncated or non-canonical
    /// checkpoint, and [`RecoveryError::InvalidPosterior`] on an image whose
    /// σ, match radius or selection kind is not `config`'s, or whose table
    /// section overlaps.
    pub fn restore_from_checkpoint(
        config: SystemConfig,
        log: &[u8],
    ) -> Result<EdgeDevice, RecoveryError> {
        crate::recovery::restore_image(&config, log)
            .map(|restored| Self::restored(config, restored))
    }

    /// A device serving restored `users` under seed `master`.
    fn restored(config: SystemConfig, (master, users): (u64, UserMap<UserState>)) -> EdgeDevice {
        let mut device = EdgeDevice::new(config, master);
        device.users = users;
        device.restart_run();
        device
    }

    /// Starts the run-local buffers afresh after the user states were
    /// restored: the stats count one restore per user, the pending spends
    /// hold one [`SpendKind::Restore`] per user and nothing else, and the
    /// scratch arena is new. The one body behind a restore from bytes, a
    /// rollback ([`EdgeDevice::roll_back`]) and a shard revived in place,
    /// so all three read alike in the exported counters and the ledger.
    pub(crate) fn restart_run(&mut self) {
        self.stats = DeviceStats { restores: self.users.len() as u64, ..DeviceStats::default() };
        self.pending_spends.clear();
        self.pending_spends.extend(
            self.users
                .keys()
                .map(|user| SpendEvent { user: u64::from(user.raw()), kind: SpendKind::Restore }),
        );
        self.arena = CandidateArena::new();
    }

    /// Saves the pre-request state of the user `request` names — a clone
    /// of the user's state, or `None` for a user the device has not seen.
    /// O(1) in the device: only that user is saved, never the device.
    pub(crate) fn save_undo(&self, request: &ClientRequest) -> RequestUndo {
        request.user().map(|user| (user, self.users.get(user).cloned()))
    }

    /// Rolls back a request that died part-way: the saved user gets its
    /// saved state back, or is removed if it was a first contact, and the
    /// run-local buffers restart as after a restore of the rolled-back
    /// device.
    ///
    /// Serving a request changes nothing else — the user it names, the
    /// user map's key set (a first contact), and the stats, pending spends
    /// and scratch arena — so after this the device equals its state
    /// before the request, whatever the request did before it died.
    pub(crate) fn roll_back(&mut self, undo: RequestUndo) {
        match undo {
            Some((user, Some(state))) => self.users.insert(user, state),
            Some((user, None)) => {
                self.users.remove(user);
            }
            None => {}
        }
        self.restart_run();
    }

    /// Serving observations accumulated since the last drain (or
    /// construction).
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Privacy-budget events awaiting delivery to a ledger.
    #[cfg(test)]
    pub(crate) fn pending_spends(&self) -> usize {
        self.pending_spends.len()
    }

    /// Flushes the accumulated [`DeviceStats`] into `telemetry`'s metrics
    /// registry and the pending budget events into its ledger, resetting
    /// both device-local buffers.
    ///
    /// A supervised serving shard (behind a [`crate::Router`]) drains right
    /// *after* each commit — see the `pending_spends` field for why that
    /// ordering gives ledger events exactly-once semantics across
    /// crashes — into counter handles it opens once per shard, the same
    /// drain without the per-call registration. Every metric is registered
    /// before its first drain, so the exported schema is stable even when
    /// a counter never fires.
    pub fn drain_telemetry(&mut self, telemetry: &Telemetry) {
        self.drain_into(&DeviceCounters::open(telemetry));
    }

    /// [`EdgeDevice::drain_telemetry`] into handles opened beforehand: no
    /// name lookup, and a counter with nothing to add is not touched.
    pub(crate) fn drain_into(&mut self, counters: &DeviceCounters) {
        let stats = std::mem::take(&mut self.stats);
        for (counter, delta) in counters.counters.iter().zip(stats.counts()) {
            if delta > 0 {
                counter.add(delta);
            }
        }
        // The buffer goes with its events: a drained device keeps no staged
        // capacity (the in-process settle stages a window of them).
        for event in std::mem::take(&mut self.pending_spends) {
            counters.ledger.record(event);
        }
    }

    /// Measures the resident state of this shard: bytes attributable to
    /// individual users versus bytes in shared pools (candidate sets,
    /// weights included, stored once per *distinct* allocation, however
    /// many users cite them). The scale bench reports
    /// [`StateFootprint::bytes_per_user`] from this — see DESIGN.md §16
    /// for the budget it is held to.
    pub fn footprint(&self) -> StateFootprint {
        let mut fp = StateFootprint::default();
        self.accumulate_footprint(&mut fp, &mut BTreeSet::new());
        fp
    }

    /// [`EdgeDevice::footprint`] with caller-owned dedup state, so a
    /// fleet can sum several devices while counting an `Arc` shared
    /// *across* devices once ([`crate::EdgeFleet::footprint`]).
    pub(crate) fn accumulate_footprint(
        &self,
        fp: &mut StateFootprint,
        seen_sets: &mut BTreeSet<usize>,
    ) {
        use std::mem::size_of;
        fp.users += self.users.len();
        for state in self.users.values() {
            let mut bytes = size_of::<UserId>() + size_of::<UserState>();
            bytes += state.manager.stored_bytes();
            for (_, set) in state.obfuscation.table().entries() {
                fp.candidate_set_refs += 1;
                bytes += size_of::<(Point, PosteriorTable)>();
                if seen_sets.insert(set.addr()) {
                    fp.distinct_candidate_sets += 1;
                    fp.shared_bytes += set.heap_bytes() as u64;
                }
            }
            fp.user_bytes += bytes as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_adnet::{AdNetwork, Campaign, Targeting};
    use privlocad_mechanisms::PosteriorSelector;
    use privlocad_openrtb::BidSink;

    use crate::SelectionKind;

    fn edge() -> EdgeDevice {
        EdgeDevice::new(SystemConfig::builder().build().unwrap(), 99)
    }

    fn settle_home(edge: &mut EdgeDevice, user: UserId, home: Point) {
        for _ in 0..60 {
            edge.report_checkin(user, home);
        }
        edge.finalize_window(user);
    }

    #[test]
    fn top_location_requests_use_permanent_candidates() {
        let mut e = edge();
        let user = UserId::new(1);
        let home = Point::new(1_000.0, 1_000.0);
        settle_home(&mut e, user, home);
        let candidates = e.candidates(user, home).unwrap();
        assert_eq!(candidates.len(), 10);
        for _ in 0..50 {
            let reported = e.reported_location(user, home);
            assert!(candidates.contains(&reported));
        }
    }

    #[test]
    fn nomadic_requests_use_fresh_laplace() {
        let mut e = edge();
        let user = UserId::new(2);
        settle_home(&mut e, user, Point::ORIGIN);
        let nowhere = Point::new(40_000.0, 40_000.0);
        let a = e.reported_location(user, nowhere);
        let b = e.reported_location(user, nowhere);
        assert_ne!(a, b, "nomadic reports must be independently obfuscated");
        // Laplace noise at l = ln4, r = 200 keeps reports within a few km.
        assert!(a.distance(nowhere) < 5_000.0);
    }

    #[test]
    fn unknown_user_is_nomadic_by_default() {
        let mut e = edge();
        let p = e.reported_location(UserId::new(77), Point::ORIGIN);
        assert!(p.is_finite());
        assert!(e.candidates(UserId::new(77), Point::ORIGIN).is_none());
    }

    #[test]
    fn window_change_keeps_old_candidates_permanent() {
        let mut e = edge();
        let user = UserId::new(3);
        let home = Point::new(500.0, 500.0);
        settle_home(&mut e, user, home);
        let before = e.candidates(user, home).unwrap();
        // Same home appears in the next window: candidates must not change.
        settle_home(&mut e, user, home);
        let after = e.candidates(user, home).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn reported_candidates_follow_posterior_distribution_bias() {
        // The candidate closest to the candidate-mean should be reported
        // most often under posterior selection.
        let mut e = edge();
        let user = UserId::new(4);
        let home = Point::new(0.0, 0.0);
        settle_home(&mut e, user, home);
        let candidates = e.candidates(user, home).unwrap();
        let mech = NFoldGaussian::new(e.config().geo_ind());
        let probs = PosteriorSelector::new(mech.sigma()).probabilities(&candidates);
        let best = probs.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let mut counts = vec![0usize; candidates.len()];
        for _ in 0..2_000 {
            let rep = e.reported_location(user, home);
            let idx = candidates.iter().position(|&c| c == rep).unwrap();
            counts[idx] += 1;
        }
        let observed_best = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(observed_best, best, "counts {counts:?} probs {probs:?}");
    }

    #[test]
    fn end_to_end_request_filters_to_aoi() {
        let mut e = edge();
        let user = UserId::new(5);
        let home = Point::new(0.0, 0.0);
        settle_home(&mut e, user, home);
        // One campaign right at home, one far outside any plausible AOR.
        let mut network = AdNetwork::new(vec![
            Campaign::new(0u64, "local", Targeting::radius(home, 25_000.0).unwrap(), 2.0).unwrap(),
            Campaign::new(
                1u64,
                "remote",
                Targeting::radius(Point::new(60_000.0, 60_000.0), 25_000.0).unwrap(),
                9.0,
            )
            .unwrap(),
        ]);
        let requests = [ClientRequest::RequestLocation { user, location: home }; 20];
        let mut responses = Vec::new();
        e.serve_batch(&requests, &mut responses);
        let sink = BidSink::new();
        crate::replay::emit_bids(&sink, &requests, &responses);
        let bids = sink.drain();
        assert_eq!(bids.len(), 20);
        let candidates = e.candidates(user, home).unwrap();
        let mut saw_local = false;
        for bid in &bids {
            let (request, _) = privlocad_openrtb::BidRequest::decode_slice(&bid.frame).unwrap();
            network.serve_exchange(&request);
            // The wire carries only obfuscated candidates, never `home`.
            let reported = request.device.geo.point();
            assert!(candidates.contains(&reported), "leaked non-candidate location");
            assert!(reported.distance(home) > 0.0);
            // Everything delivered must be inside the true AOI.
            let radius = e.config().targeting_radius_m();
            for ad in crate::filter_ads_by(network.matching(reported), home, radius) {
                let loc = ad.business_location().unwrap();
                assert!(loc.distance(home) <= radius);
                saw_local |= ad.name() == "local";
            }
        }
        assert!(saw_local, "the relevant local ad should be delivered");
    }

    #[test]
    fn uniform_selection_ablation_reports_all_candidates() {
        let config = SystemConfig::builder().selection(SelectionKind::Uniform).build().unwrap();
        let mut e = EdgeDevice::new(config, 1);
        let user = UserId::new(6);
        let home = Point::ORIGIN;
        settle_home(&mut e, user, home);
        let candidates = e.candidates(user, home).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let rep = e.reported_location(user, home);
            seen.insert(candidates.iter().position(|&c| c == rep).unwrap());
        }
        assert_eq!(seen.len(), candidates.len(), "uniform selection should hit all candidates");
    }

    #[test]
    fn risk_report_flags_the_routine_home() {
        let mut e = edge();
        let user = UserId::new(9);
        settle_home(&mut e, user, Point::new(100.0, 100.0));
        let report = e.risk_report(user).unwrap();
        assert_eq!(report.flagged().len(), 1);
        assert!(report.entropy < 0.1, "single-location window");
        assert!(e.risk_report(UserId::new(12345)).is_none());
    }

    #[test]
    fn determinism_given_seed() {
        let run = || {
            let mut e = EdgeDevice::new(SystemConfig::builder().build().unwrap(), 12);
            let user = UserId::new(0);
            settle_home(&mut e, user, Point::new(3.0, 4.0));
            (0..10).map(|_| e.reported_location(user, Point::new(3.0, 4.0))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn serve_batch_matches_singular_calls() {
        let user = UserId::new(8);
        let home = Point::new(250.0, -250.0);
        let requests: Vec<ClientRequest> = (0..40)
            .map(|t| ClientRequest::CheckIn { user, location: home, timestamp: t })
            .chain([ClientRequest::FinalizeWindow { user }])
            .chain((0..20).map(|_| ClientRequest::RequestLocation { user, location: home }))
            .chain([ClientRequest::Shutdown])
            .collect();

        // Batched device.
        let mut batched = edge();
        let mut responses = Vec::new();
        batched.serve_batch(&requests, &mut responses);
        assert_eq!(responses.len(), requests.len());

        // Same requests served one call at a time.
        let mut singular = edge();
        let mut expected = Vec::new();
        for r in &requests {
            singular.serve_batch(std::slice::from_ref(r), &mut expected);
        }
        assert_eq!(responses, expected);

        // Spot-check the shape: one window close, reports from candidates.
        assert_eq!(responses[40], EdgeResponse::WindowClosed { fresh_obfuscations: 1 });
        let candidates = batched.candidates(user, home).unwrap();
        for r in &responses[41..61] {
            match r {
                EdgeResponse::ReportedLocation { location } => {
                    assert!(candidates.contains(location));
                }
                other => panic!("expected a reported location, got {other:?}"),
            }
        }
        assert_eq!(responses[61], EdgeResponse::Ack); // device-level Shutdown is a no-op
    }

    #[test]
    fn snapshot_restore_continues_the_run_bit_for_bit() {
        let mut original = edge();
        let user = UserId::new(1);
        let home = Point::new(1_000.0, 1_000.0);
        settle_home(&mut original, user, home);
        original.reported_location(user, home);
        original.reported_location(user, Point::new(40_000.0, 0.0)); // nomadic draw

        let snap = original.snapshot();
        let mut restored =
            EdgeDevice::restore_from_checkpoint(original.config(), &original.checkpoint()).unwrap();
        assert_eq!(restored.user_count(), 1);
        // Candidates restored bit-for-bit: no re-draw happened.
        assert_eq!(
            restored.candidates(user, home).unwrap(),
            original.candidates(user, home).unwrap()
        );
        assert_eq!(crate::recovery::candidate_redraws(&snap, &restored.snapshot()).unwrap(), 0);
        // And the RNG resumes the exact stream: future outputs agree.
        for _ in 0..20 {
            assert_eq!(
                restored.reported_location(user, home),
                original.reported_location(user, home)
            );
            assert_eq!(
                restored.reported_location(user, Point::new(40_000.0, 0.0)),
                original.reported_location(user, Point::new(40_000.0, 0.0))
            );
        }
    }

    #[test]
    fn mid_window_restore_resumes_the_open_window() {
        let mut original = edge();
        let user = UserId::new(2);
        let home = Point::new(-500.0, 250.0);
        // Open window with buffered check-ins, not yet finalized.
        for _ in 0..45 {
            original.report_checkin(user, home);
        }
        let mut restored =
            EdgeDevice::restore_from_checkpoint(original.config(), &original.checkpoint()).unwrap();
        // Both close the window now: identical top set and candidates.
        assert_eq!(restored.finalize_window(user), original.finalize_window(user));
        assert_eq!(
            restored.candidates(user, home).unwrap(),
            original.candidates(user, home).unwrap()
        );
    }

    #[test]
    fn telemetry_drain_matches_workload_and_ledger_audits_clean() {
        let mut e = edge();
        let user = UserId::new(1);
        let home = Point::new(1_000.0, 1_000.0);
        settle_home(&mut e, user, home); // 60 check-ins, 1 close, 1 fresh set
        for _ in 0..5 {
            e.reported_location(user, home);
        }
        e.reported_location(user, Point::new(40_000.0, 0.0)); // nomadic

        let telemetry = Telemetry::new();
        e.drain_telemetry(&telemetry);
        assert_eq!(e.stats(), DeviceStats::default());
        assert_eq!(e.pending_spends(), 0);

        let metrics = telemetry.registry().snapshot();
        assert_eq!(metrics.counter("edge.checkins"), Some(60));
        assert_eq!(metrics.counter("edge.location_requests"), Some(6));
        assert_eq!(metrics.counter("edge.windows_closed"), Some(1));
        assert_eq!(metrics.counter("edge.fresh_candidate_sets"), Some(1));
        assert_eq!(metrics.counter("edge.posterior_draws"), Some(5));
        assert_eq!(metrics.counter("edge.nomadic_draws"), Some(1));
        // finalize_window pre-warms the cache, so every draw hits.
        assert_eq!(metrics.counter("edge.posterior_cache_hits"), Some(5));
        assert_eq!(metrics.counter("edge.posterior_cache_misses"), Some(0));

        // The ledger holds exactly one spend per released set; auditing it
        // against the live snapshot finds no double spend and no gap.
        let live: Vec<(u64, _)> = e
            .snapshot()
            .released_sets()
            .unwrap()
            .into_iter()
            .map(|(u, p)| (u64::from(u.raw()), top_key(p.x, p.y)))
            .collect();
        assert_eq!(live.len(), 1);
        telemetry.ledger().assert_no_double_spend(live).unwrap();
        let totals = telemetry.ledger().totals();
        assert_eq!(totals.candidate_sets, 1);
        assert_eq!(totals.window_closes, 1);
        assert_eq!(totals.restores, 0);

        // A restore drains per-user restore events.
        let mut restored =
            EdgeDevice::restore_from_checkpoint(e.config(), &e.checkpoint()).unwrap();
        assert_eq!(restored.stats().restores, 1);
        assert_eq!(restored.pending_spends(), 1);
        restored.drain_telemetry(&telemetry);
        assert_eq!(telemetry.ledger().totals().restores, 1);
        assert_eq!(telemetry.registry().snapshot().counter("recovery.restores"), Some(1));
    }

    #[test]
    fn per_user_streams_are_shard_partition_invariant() {
        let config = SystemConfig::builder().build().unwrap();
        let master = 42;
        let users: Vec<UserId> = (0..3).map(UserId::new).collect();
        let home_of = |u: UserId| Point::new(f64::from(u.raw()) * 12_000.0, 500.0);

        // One shard serving all three users, operations interleaved.
        let mut combined = EdgeDevice::new(config, master);
        for _ in 0..60 {
            for &u in &users {
                combined.report_checkin(u, home_of(u));
            }
        }
        for &u in &users {
            combined.finalize_window(u);
        }
        let reports = |e: &mut EdgeDevice, u: UserId| {
            (0..15).map(|_| e.reported_location(u, home_of(u))).collect::<Vec<_>>()
        };
        let mut combined_reports = Vec::new();
        for &u in &users {
            combined_reports.push(reports(&mut combined, u));
        }

        // Three single-user shards from the same master: bit-identical
        // per-user outputs regardless of the partition.
        for (i, &u) in users.iter().enumerate() {
            let mut solo = EdgeDevice::new(config, master);
            for _ in 0..60 {
                solo.report_checkin(u, home_of(u));
            }
            solo.finalize_window(u);
            assert_eq!(reports(&mut solo, u), combined_reports[i], "user {}", u.raw());
        }
    }

    #[test]
    fn per_user_snapshot_restore_resumes_private_streams() {
        let config = SystemConfig::builder().build().unwrap();
        let mut original = EdgeDevice::new(config, 7);
        let users = [UserId::new(4), UserId::new(9)];
        for &u in &users {
            settle_home(&mut original, u, Point::new(f64::from(u.raw()) * 1_000.0, 0.0));
            original.reported_location(u, Point::new(f64::from(u.raw()) * 1_000.0, 0.0));
        }

        let log = original.checkpoint();
        let mut restored = EdgeDevice::restore_from_checkpoint(config, &log).unwrap();
        // Future draws resume each private stream exactly where it stood.
        for _ in 0..20 {
            for &u in &users {
                let home = Point::new(f64::from(u.raw()) * 1_000.0, 0.0);
                assert_eq!(
                    restored.reported_location(u, home),
                    original.reported_location(u, home)
                );
                let nomadic = Point::new(40_000.0, 40_000.0);
                assert_eq!(
                    restored.reported_location(u, nomadic),
                    original.reported_location(u, nomadic)
                );
            }
        }
        assert_eq!(restored.checkpoint(), original.checkpoint());
    }

    #[test]
    fn restore_shares_pooled_state_and_footprint_counts_it_once() {
        let config = SystemConfig::builder().build().unwrap();
        let top = Point::new(800.0, -300.0);
        let tops = vec![privlocad_attack::ProfileEntry { location: top, frequency: 60 }];

        // A fleet-style install: one prepared set shared by two users.
        let mut authority = crate::ObfuscationModule::default();
        let (mechanism, radius) =
            (NFoldGaussian::new(config.geo_ind()), config.top_match_radius_m());
        let mut arena = CandidateArena::new();
        let mut pair_counter = 0;
        arena.prepare(&mut authority, &mechanism, radius, &[top], 11, &mut pair_counter);
        let mut e = edge();
        e.install_protection(UserId::new(1), tops.clone(), arena.sets());
        e.install_protection(UserId::new(2), tops, arena.sets());

        let fp = e.footprint();
        assert_eq!(fp.users, 2);
        assert_eq!(fp.candidate_set_refs, 2);
        assert_eq!(fp.distinct_candidate_sets, 1, "shared set stored once");
        assert_eq!(fp.shared_bytes, 10 * 24 + 16, "one block: ten points and their weights");
        assert!(fp.user_bytes > 0);
        assert!(fp.bytes_per_user() > 0.0);

        // The snapshot pools it once too, and the pooled restore rebuilds
        // the sharing: same footprint, identical re-encoded checkpoint.
        let snap = e.snapshot();
        assert_eq!(snap.distinct_candidate_sets(), 1);
        let restored = EdgeDevice::restore_from_checkpoint(config, &e.checkpoint()).unwrap();
        let rfp = restored.footprint();
        assert_eq!(rfp.users, 2);
        assert_eq!(rfp.candidate_set_refs, 2);
        assert_eq!(rfp.distinct_candidate_sets, 1);
        assert_eq!(rfp, fp);
        assert_eq!(restored.checkpoint(), e.checkpoint());
    }

    /// A merged top set that is not the user's profile prefix keeps its
    /// own entries through checkpoint, restore and re-checkpoint, and the
    /// image writes them out; a window-closed set, and an installed one
    /// that is the prefix, stay the prefix, which the image writes as its
    /// length, and the footprint counts no copy of it.
    #[test]
    fn installed_top_sets_keep_their_form_across_a_restore() {
        use crate::management::TopSet;

        let config = SystemConfig::builder().build().unwrap();
        let (closed, settled, merged) = (UserId::new(0), UserId::new(1), UserId::new(2));
        let home = Point::new(1_000.0, 0.0);
        let mut e = edge();
        settle_home(&mut e, closed, home);
        settle_home(&mut e, settled, home);
        settle_home(&mut e, merged, home);
        let prefix = e.users.get(settled).unwrap().manager.top_set().to_vec();
        let tops = vec![privlocad_attack::ProfileEntry { frequency: 90, ..prefix[0] }];
        e.install_protection(settled, prefix.clone(), &[]);
        e.install_protection(merged, tops.clone(), &[]);
        let aliased = |e: &EdgeDevice, user| {
            let manager = &e.users.get(user).unwrap().manager;
            manager.top_set().as_ptr() == manager.profile().entries().as_ptr()
        };
        let image = e.checkpoint();
        let snap = DeviceSnapshot::decode(&image).unwrap();
        let form = |user| &snap.record(user).unwrap().top_set;
        assert_eq!(*form(closed), TopSet::Prefix(1), "a window close writes its prefix");
        assert_eq!(*form(settled), TopSet::Prefix(1), "an installed prefix too");
        assert_eq!(*form(merged), TopSet::Installed(tops.clone().into_boxed_slice()));
        let restored = EdgeDevice::restore_from_checkpoint(config, &image).unwrap();
        for device in [&e, &restored] {
            assert!(aliased(device, closed) && aliased(device, settled), "prefixes stored once");
            assert!(!aliased(device, merged), "the merged set keeps its own entries");
            assert_eq!(device.users.get(merged).unwrap().manager.top_set(), tops);
        }
        assert_eq!(restored.checkpoint(), image);
        let stored = |user| e.users.get(user).unwrap().manager.stored_bytes();
        assert_eq!(stored(merged), stored(settled) + 24);
    }

    #[test]
    fn a_close_rebuilds_no_weights() {
        let mut e = edge();
        let user = UserId::new(3);
        let home = Point::new(2_000.0, 0.0);
        let office = Point::new(9_000.0, 0.0);
        settle_home(&mut e, user, home);
        let stored = |e: &EdgeDevice| {
            let table = e.users.get(user).unwrap().obfuscation.table();
            table.get(home, e.config.top_match_radius_m()).unwrap().addr()
        };
        let before = stored(&e);
        for _ in 0..4 {
            e.reported_location(user, home);
        }
        // The next window keeps home and adds an office: the home set and
        // its weights stay where they are, the office set is weighed as
        // it is drawn.
        for _ in 0..30 {
            e.report_checkin(user, home);
            e.report_checkin(user, office);
        }
        assert_eq!(e.finalize_window(user), 1);
        assert_eq!(stored(&e), before);
        for at in [home, office, home, office, Point::new(60_000.0, 0.0)] {
            e.reported_location(user, at);
        }
        let telemetry = Telemetry::new();
        e.drain_telemetry(&telemetry);
        let metrics = telemetry.registry().snapshot();
        assert_eq!(metrics.counter("edge.posterior_draws"), Some(8));
        assert_eq!(metrics.counter("edge.posterior_cache_hits"), Some(8));
        assert_eq!(metrics.counter("edge.posterior_cache_misses"), Some(0));
    }

    #[test]
    fn a_drained_device_keeps_no_staged_capacity() {
        let mut e = edge();
        for u in 0..20 {
            settle_home(&mut e, UserId::new(u), Point::new(f64::from(u) * 3_000.0, 0.0));
        }
        assert_eq!(e.pending_spends(), 40, "a close and a fresh set per user");
        e.drain_telemetry(&Telemetry::new());
        assert_eq!(e.pending_spends.capacity(), 0);
        // The next spend starts a buffer of its own.
        settle_home(&mut e, UserId::new(0), Point::ORIGIN);
        assert_eq!(e.pending_spends(), 1);
    }
}
