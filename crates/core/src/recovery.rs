//! Privacy-preserving crash recovery for edge devices.
//!
//! The paper's privacy argument rests on the n-fold candidate set being
//! **permanent** (Theorem 2 / Algorithm 3): a device that crashes, loses
//! its obfuscation table, and re-draws fresh candidates for the same top
//! locations silently spends a second `(r, ε, δ, n)` budget — exactly the
//! longitudinal leak the mechanism exists to prevent. Snapshot-restore,
//! by contrast, is privacy-free: replaying already-released bytes reveals
//! nothing new, and restoring the RNG state words means any draw that was
//! rolled back mid-crash is re-executed bit-for-bit identically.
//!
//! [`DeviceSnapshot`] captures everything a device needs to resume
//! exactly where it stood: per-user candidate sets (the obfuscation
//! table), posterior-weight tables, the open window's check-in buffer,
//! the profile, the window epoch, and the generator state. Candidate
//! sets and posterior tables are **pooled**: the snapshot stores each
//! distinct set once (deduplicated by `Arc` identity at capture time)
//! and user records hold `u32` references into the pools, so a
//! fleet-distributed set shared by a thousand users costs one pool entry
//! plus a thousand 20-byte references — this is what keeps the per-shard
//! bytes/user budget flat as the fleet grows (DESIGN.md §16).
//!
//! The image is versioned, length-prefix-framed, and FNV-1a checksummed.
//! Version 2 is the only format: one contiguous buffer per device, every
//! pool entry and user record carried as a length-prefixed frame. A live
//! device streams it straight from its user states
//! ([`crate::EdgeDevice::checkpoint`]), and one in-place slice reader
//! reads it, for [`crate::EdgeDevice::restore_from_checkpoint`] and for
//! [`DeviceSnapshot::decode`] alike. The restore takes each pool entry and
//! user frame straight into live serving state as it is read, so the only
//! allocations are that state (one `Arc` per **distinct** candidate set,
//! not one per user record); the decode collects the same parts into a
//! read-only view for audits. Bit rot in persisted state surfaces as a
//! structured [`RecoveryError`] instead of a corrupted privacy ledger.
//!
//! A serving shard ([`crate::EdgeServer`]) keeps no image between
//! requests. It commits by **undo**: before a request it saves the state
//! of the user the request touches, and a request that dies is rolled
//! back from that save in place. Its device is therefore its committed
//! state between requests: an image is streamed from it only when a shard
//! is joined or checkpointed, and the fabric heals a failed shard in place
//! around that same device, with no image at all.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use privlocad_attack::{LocationProfile, ProfileEntry};
use privlocad_geo::rng::seeded;
use privlocad_geo::Point;
use privlocad_mechanisms::{PosteriorTable, SelectionCache};
use privlocad_mobility::UserId;
use privlocad_openrtb::fnv1a64;
use rand::rngs::StdRng;

use crate::user::{UserMap, UserState};
use crate::{LocationManager, ObfuscationModule, ObfuscationTable, SystemConfig};

/// Log magic: `"PLAD"` big-endian.
const MAGIC: u32 = 0x504C_4144;
/// Log format version: pooled, length-prefix-framed.
const VERSION: u16 = 2;

/// The v2 header's stream byte: per-user RNG streams derived from the
/// master seed, the only mode a device has. Any other value — 0 marks an
/// image of a device-wide generator — is refused as
/// [`RecoveryError::BadStreamMode`].
const PER_USER_STREAMS: u8 = 1;

/// Fixed header bytes of a v2 image: magic, version, stream byte +
/// master, four RNG words, and the always-zero op-counter slot.
const V2_HEADER_LEN: usize = 4 + 2 + 1 + 8 + 32 + 8;

/// Fixed bytes of every v2 image: the header, the set-pool, CDF-pool and
/// user counts, and the trailing FNV-1a checksum.
const IMAGE_FIXED_LEN: usize = V2_HEADER_LEN + 3 * 4 + 8;

/// Writes the fixed v2 header: magic, version, stream byte, master, four
/// RNG words and the op-counter slot. The words are the untouched
/// device-wide generator of a per-user device, `seeded(master)`, so they
/// are a function of the master and the decoder skips them; the op-counter
/// slot is always zero. Both stay so the byte layout is unchanged.
fn put_header<B: BufMut>(buf: &mut B, master: u64) {
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
    buf.put_u8(PER_USER_STREAMS);
    buf.put_u64(master);
    for word in seeded(master).state() {
        buf.put_u64(word);
    }
    buf.put_u64(0);
}

/// Appends the FNV-1a checksum of everything written so far and freezes
/// the image.
fn seal(mut buf: BytesMut) -> Bytes {
    let checksum = fnv1a64(&buf);
    buf.put_u64(checksum);
    buf.freeze()
}

/// Encoded bytes of one set-pool entry: length prefix, point count and
/// `points` points.
fn set_entry_len(points: usize) -> usize {
    4 + 4 + points * 16
}

/// Encoded bytes of one CDF-pool entry: length prefix, weight count and
/// `weights` weights.
fn cdf_entry_len(weights: usize) -> usize {
    4 + 4 + weights * 8
}

/// Writes the two pool sections: each a count, then one length-prefixed
/// frame per entry.
fn put_pools<'a, B: BufMut>(
    buf: &mut B,
    sets: impl ExactSizeIterator<Item = &'a [Point]>,
    cdfs: impl ExactSizeIterator<Item = &'a [f64]>,
) {
    buf.put_u32(sets.len() as u32);
    for set in sets {
        buf.put_u32((set_entry_len(set.len()) - 4) as u32);
        put_points(buf, set);
    }
    buf.put_u32(cdfs.len() as u32);
    for cdf in cdfs {
        buf.put_u32((cdf_entry_len(cdf.len()) - 4) as u32);
        buf.put_u32(cdf.len() as u32);
        for &w in cdf {
            buf.put_f64(w);
        }
    }
}

/// Encoded bytes of one user frame, its length prefix included: the
/// fixed fields plus `buffer` check-ins, `profile` and `top_set` entries,
/// and `table` and `cache` pool references.
fn user_frame_len(
    buffer: usize,
    profile: usize,
    top_set: usize,
    table: usize,
    cache: usize,
) -> usize {
    // Length prefix, user id, window epoch, four RNG words, match radius
    // and the five section counts; then 16-byte points, 24-byte profile
    // entries and 20-byte pool references.
    4 + 4 + 8 + 32 + 8 + 5 * 4 + buffer * 16 + (profile + top_set) * 24 + (table + cache) * 20
}

/// One user frame's fields, borrowed from live serving state
/// ([`Pools::put_user`]). The corruption tests write hand-built records
/// through the same [`put_user_frame`], so the v2 user layout is written
/// in one place.
struct UserFrame<'a> {
    user: u32,
    windows_closed: u64,
    rng_words: [u64; 4],
    buffer: &'a [Point],
    profile: &'a [ProfileEntry],
    top_set: &'a [ProfileEntry],
    table_radius: f64,
    table: &'a [(Point, u32)],
    cache: &'a [(Point, u32)],
}

impl UserFrame<'_> {
    fn len(&self) -> usize {
        user_frame_len(
            self.buffer.len(),
            self.profile.len(),
            self.top_set.len(),
            self.table.len(),
            self.cache.len(),
        )
    }
}

/// Writes one user frame, length prefix first — the one writer of the v2
/// user layout, behind the streamed checkpoint. The flow lint models it as
/// a sink: it serializes true window state.
fn put_user_frame<B: BufMut>(buf: &mut B, frame: &UserFrame<'_>) {
    buf.put_u32((frame.len() - 4) as u32);
    buf.put_u32(frame.user);
    buf.put_u64(frame.windows_closed);
    for word in frame.rng_words {
        buf.put_u64(word);
    }
    put_points(buf, frame.buffer);
    put_entries(buf, frame.profile);
    put_entries(buf, frame.top_set);
    buf.put_f64(frame.table_radius);
    for refs in [frame.table, frame.cache] {
        buf.put_u32(refs.len() as u32);
        for &(top, idx) in refs {
            buf.put_f64(top.x);
            buf.put_f64(top.y);
            buf.put_u32(idx);
        }
    }
}

/// One user's checkpointed serving state. Bulky payloads (candidate
/// sets, posterior CDFs) live in the snapshot-level pools; the record
/// holds `u32` references into them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UserRecord {
    pub(crate) user: UserId,
    /// Window epoch: how many profile windows this user has closed.
    pub(crate) windows_closed: u64,
    /// The user's private RNG stream position.
    pub(crate) rng_words: [u64; 4],
    /// The open window's buffered check-ins, oldest first.
    pub(crate) buffer: Vec<Point>,
    /// The last computed profile, in its recorded entry order.
    pub(crate) profile: Vec<ProfileEntry>,
    /// The η-frequent location set.
    pub(crate) top_set: Vec<ProfileEntry>,
    /// The obfuscation table's proximity match radius, meters.
    pub(crate) table_radius: f64,
    /// The permanent obfuscation table: `(top, candidate-pool index)` —
    /// the released candidate sets whose loss would be a budget
    /// violation.
    pub(crate) table: Vec<(Point, u32)>,
    /// The posterior cache: `(top, CDF-pool index)`.
    pub(crate) cache: Vec<(Point, u32)>,
}

/// The two pools of a v2 image streamed from a live device: candidate
/// sets and posterior tables deduplicated by `Arc` identity, so state
/// installed fleet-wide through [`crate::CandidateArena`] sharing is
/// stored once per **distinct** allocation, not once per user. Indices
/// are assigned in first-seen order over the (ascending) user sequence,
/// which keeps the image deterministic.
///
/// Entries are **pinned**: the pool holds its own `Arc` clone of every
/// indexed allocation, so none can be freed and its address reused while
/// the index is live. The pools live only inside one [`stream_image`]
/// call, over a device that call borrows.
#[derive(Debug, Default)]
struct Pools {
    sets: Vec<Arc<[Point]>>,
    /// `Arc` data pointer → pool index; lookup only, never iterated.
    set_index: BTreeMap<usize, u32>,
    cdfs: Vec<Arc<PosteriorTable>>,
    cdf_index: BTreeMap<usize, u32>,
    /// Encoded bytes of every entry of both pool sections.
    bytes: usize,
    /// The pool references of the user interned last.
    table: Vec<(Point, u32)>,
    cache: Vec<(Point, u32)>,
}

impl Pools {
    /// Interns every candidate set and posterior table `state` cites,
    /// leaves the user's pool references in `self.table` and
    /// `self.cache`, and returns the user's frame length.
    fn intern(&mut self, state: &UserState) -> usize {
        self.table.clear();
        for (top, shared) in state.obfuscation.table().shared_entries() {
            let next = self.sets.len() as u32;
            let idx = *self.set_index.entry(shared.as_ptr() as usize).or_insert(next);
            if idx == next {
                self.bytes += set_entry_len(shared.len());
                self.sets.push(Arc::clone(shared));
            }
            self.table.push((top, idx));
        }
        self.cache.clear();
        for (top, shared) in state.selection.shared_entries() {
            let next = self.cdfs.len() as u32;
            let idx = *self.cdf_index.entry(Arc::as_ptr(shared) as usize).or_insert(next);
            if idx == next {
                self.bytes += cdf_entry_len(shared.cdf().len());
                self.cdfs.push(Arc::clone(shared));
            }
            self.cache.push((top, idx));
        }
        let (buffer, profile, top_set) = state.manager.window_lens();
        user_frame_len(buffer, profile, top_set, self.table.len(), self.cache.len())
    }

    /// Writes both pool sections.
    fn put_sections<B: BufMut>(&self, buf: &mut B) {
        put_pools(buf, self.sets.iter().map(|s| &**s), self.cdfs.iter().map(|t| t.cdf()));
    }

    /// Writes the frame of `state`, which must be the state interned last:
    /// its pool references are the ones [`Pools::intern`] left behind. The
    /// one place live true state reaches [`put_user_frame`], behind the
    /// streamed checkpoint.
    fn put_user<B: BufMut>(&self, buf: &mut B, user: UserId, state: &UserState) {
        let frame = UserFrame {
            user: user.raw(),
            windows_closed: state.manager.windows_closed() as u64,
            rng_words: state.stream.state(),
            buffer: state.manager.buffered(),
            profile: state.manager.profile().entries(),
            top_set: state.manager.top_set(),
            table_radius: state.obfuscation.table().match_radius_m(),
            table: &self.table,
            cache: &self.cache,
        };
        // lint:allow(location-leak): the checkpoint must carry the true window state to restore bit-identically; the image is streamed on demand inside the trusted edge and its only consumers are the restore paths (DESIGN.md §12)
        put_user_frame(buf, &frame);
    }
}

/// Streams a v2 image of `edge` straight from its live state into one
/// buffer allocated once at its exact length. Pass 1 interns both pools
/// and sums the frame lengths; pass 2 writes.
pub(crate) fn stream_image(edge: &crate::EdgeDevice) -> Bytes {
    let mut pools = Pools::default();
    let mut frames = 0;
    for (_, state) in edge.user_states() {
        frames += pools.intern(state);
    }
    let len = IMAGE_FIXED_LEN + pools.bytes + frames;
    let mut buf = BytesMut::with_capacity(len);
    put_header(&mut buf, edge.master());
    pools.put_sections(&mut buf);
    buf.put_u32(edge.user_count() as u32);
    for (user, state) in edge.user_states() {
        pools.intern(state);
        pools.put_user(&mut buf, user, state);
    }
    let image = seal(buf);
    debug_assert_eq!(image.len(), len, "pass 1 sized the image exactly");
    image
}

/// The shared-state side of a restore: every pooled candidate set and
/// posterior table materialized **once**, then handed to each user
/// record as two `Arc` bumps. Validation (CDF invariants) also happens
/// once per distinct table instead of once per user.
#[derive(Debug, Default)]
struct RestorePools {
    sets: Vec<Arc<[Point]>>,
    tables: Vec<Arc<PosteriorTable>>,
}

/// A section of a v2 image, announced to an [`ImageSink`] before its
/// entries arrive.
#[derive(Debug, Clone, Copy)]
enum Section {
    Sets,
    Cdfs,
    Users,
}

/// Receives the parts of a v2 image in image order: the set pool, the CDF
/// pool, then one record per user frame, each bounds-checked by
/// [`read_image`]. [`DeviceSnapshot`] collects them; [`Restore`] builds
/// live serving state from them as they arrive. The two sinks see the
/// same parts, so they fail alike on every defect the reader finds.
trait ImageSink {
    /// Reserves for the `count` entries of the section about to arrive.
    fn reserve(&mut self, section: Section, count: usize);
    fn set(&mut self, set: Arc<[Point]>);
    fn cdf(&mut self, cdf: Vec<f64>);
    fn user(&mut self, record: UserRecord) -> Result<(), RecoveryError>;
}

/// A restore in progress: each pooled set is kept as the shared handle it
/// arrives in, each CDF is validated once into its [`PosteriorTable`], and
/// each user record becomes its [`UserState`] at once
/// ([`restore_user_owned`]).
struct Restore<'c> {
    config: &'c SystemConfig,
    pools: RestorePools,
    users: UserMap<UserState>,
    /// The first pooled CDF that is not a valid posterior table, and the first
    /// user whose cache cites it. The restore fails once the image has
    /// been read to its end; until then records are only checked for the
    /// citation, so a later structural defect is still the error reported.
    invalid: Option<(usize, Option<u32>)>,
}

impl ImageSink for Restore<'_> {
    fn reserve(&mut self, section: Section, count: usize) {
        match section {
            Section::Sets => self.pools.sets.reserve_exact(count),
            Section::Cdfs => self.pools.tables.reserve_exact(count),
            Section::Users => self.users.reserve(count),
        }
    }

    fn set(&mut self, set: Arc<[Point]>) {
        self.pools.sets.push(set);
    }

    fn cdf(&mut self, cdf: Vec<f64>) {
        if self.invalid.is_some() {
            return;
        }
        match PosteriorTable::from_cdf(cdf) {
            Some(table) => self.pools.tables.push(Arc::new(table)),
            None => self.invalid = Some((self.pools.tables.len(), None)),
        }
    }

    fn user(&mut self, record: UserRecord) -> Result<(), RecoveryError> {
        if let Some((idx, blamed)) = &mut self.invalid {
            if blamed.is_none() && record.cache.iter().any(|&(_, i)| i as usize == *idx) {
                *blamed = Some(record.user.raw());
            }
            return Ok(());
        }
        let user = record.user;
        let state = restore_user_owned(self.config, record, &self.pools)?;
        self.users.insert(user, state);
        Ok(())
    }
}

impl<'c> Restore<'c> {
    fn new(config: &'c SystemConfig) -> Self {
        Restore { config, pools: RestorePools::default(), users: UserMap::new(), invalid: None }
    }

    /// The restored users of a device with seed `master`, once every part
    /// has arrived — or [`RecoveryError::InvalidPosterior`] naming the
    /// first user whose cache cites the first invalid pooled CDF
    /// (`u32::MAX` if none does).
    fn finish(self, master: u64) -> Result<(u64, UserMap<UserState>), RecoveryError> {
        match self.invalid {
            Some((_, user)) => {
                Err(RecoveryError::InvalidPosterior { user: user.unwrap_or(u32::MAX) })
            }
            None => Ok((master, self.users)),
        }
    }
}

/// Restores the users of a v2 image straight into live serving state,
/// reading the image once; returns its master seed with the users.
pub(crate) fn restore_image(
    config: &SystemConfig,
    buf: &[u8],
) -> Result<(u64, UserMap<UserState>), RecoveryError> {
    let mut restore = Restore::new(config);
    let master = read_image(buf, &mut restore)?;
    restore.finish(master)
}

/// Rebuilds one user's serving state from its checkpoint record: window
/// state verbatim (profile entries in their recorded order — the order is
/// load-bearing, `from_checkins` does not sort), the private RNG stream at
/// its saved position, and the obfuscation table and posterior cache as
/// shared handles into the restore pools. The
/// record is consumed: the check-in buffer, profile, and top set move
/// straight into the rebuilt state with no intermediate clones.
fn restore_user_owned(
    config: &SystemConfig,
    record: UserRecord,
    pools: &RestorePools,
) -> Result<UserState, RecoveryError> {
    let user = record.user.raw();
    let mut manager = LocationManager::new(config.profile_theta_m(), config.eta());
    manager.restore_window_state(
        record.buffer,
        LocationProfile::from_ordered_entries(record.profile),
        record.top_set,
        record.windows_closed as usize,
    );
    if !(record.table_radius.is_finite() && record.table_radius > 0.0) {
        return Err(RecoveryError::InvalidRadius(record.table_radius));
    }
    let mut table = ObfuscationTable::new(record.table_radius);
    for (top, idx) in record.table {
        let set = pools.sets.get(idx as usize).ok_or(RecoveryError::BadPoolRef { user })?;
        table.insert_shared(top, Arc::clone(set));
    }
    let obfuscation = ObfuscationModule::from_table(config.geo_ind(), table);
    let mut selection = SelectionCache::new();
    for (top, idx) in record.cache {
        let shared = pools.tables.get(idx as usize).ok_or(RecoveryError::BadPoolRef { user })?;
        selection.install_shared(top, Arc::clone(shared));
    }
    // Resume the user's private stream at its exact saved position — a
    // restored shard never re-draws anything a user already received.
    let stream = StdRng::from_state(record.rng_words);
    Ok(UserState { manager, obfuscation, selection, stream })
}

/// The read-only decoded view of one device's checkpoint image: every
/// user's state plus each user's stream position and the master seed the
/// streams derive from ([`crate::EdgeDevice::snapshot`],
/// [`DeviceSnapshot::decode`]). Audits read it — the released sets, the
/// candidate re-draws between two images — and nothing restores from it:
/// a device comes back from the bytes
/// ([`crate::EdgeDevice::restore_from_checkpoint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSnapshot {
    /// The master seed of the captured device's per-user streams.
    pub(crate) master: u64,
    /// Distinct permanent candidate sets, in first-seen capture order.
    pub(crate) sets: Vec<Arc<[Point]>>,
    /// Distinct posterior cumulative-weight tables, first-seen order.
    pub(crate) cdfs: Vec<Vec<f64>>,
    pub(crate) users: Vec<UserRecord>,
}

impl DeviceSnapshot {
    /// Number of users captured in the snapshot.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The users captured in the snapshot, with their window epochs.
    pub fn users(&self) -> impl Iterator<Item = (UserId, u64)> + '_ {
        self.users.iter().map(|r| (r.user, r.windows_closed))
    }

    /// Number of distinct pooled candidate sets.
    pub fn distinct_candidate_sets(&self) -> usize {
        self.sets.len()
    }

    pub(crate) fn record(&self, user: UserId) -> Option<&UserRecord> {
        self.users.iter().find(|r| r.user == user)
    }

    /// The pooled candidate set behind reference `idx` of `user`.
    pub(crate) fn set(&self, idx: u32, user: u32) -> Result<&[Point], RecoveryError> {
        self.sets.get(idx as usize).map(|s| &**s).ok_or(RecoveryError::BadPoolRef { user })
    }

    /// Every `(user, top location)` pair holding a released permanent
    /// candidate set in this snapshot — the live-set input to the privacy
    /// ledger's double-spend audit
    /// ([`privlocad_telemetry::Ledger::assert_no_double_spend`]).
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError`] if a record cites a missing pool entry.
    pub fn released_sets(&self) -> Result<Vec<(UserId, Point)>, RecoveryError> {
        let mut sets = Vec::new();
        for record in &self.users {
            for &(top, idx) in &record.table {
                self.set(idx, record.user.raw())?;
                sets.push((record.user, top));
            }
        }
        Ok(sets)
    }

    /// Decodes a v2 checkpoint image: the records of the one image reader,
    /// collected.
    ///
    /// Total: truncated, oversized, bit-flipped, or wrong-format input
    /// yields a structured [`RecoveryError`], never a panic or an
    /// unbounded allocation. The checksum is verified before any field is
    /// trusted, and every pool reference is bounds-checked during decode.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError`] describing the first defect found.
    pub fn decode(buf: &[u8]) -> Result<Self, RecoveryError> {
        let mut snapshot =
            DeviceSnapshot { master: 0, sets: Vec::new(), cdfs: Vec::new(), users: Vec::new() };
        snapshot.master = read_image(buf, &mut snapshot)?;
        Ok(snapshot)
    }
}

impl ImageSink for DeviceSnapshot {
    fn reserve(&mut self, section: Section, count: usize) {
        match section {
            Section::Sets => self.sets.reserve_exact(count),
            Section::Cdfs => self.cdfs.reserve_exact(count),
            Section::Users => self.users.reserve_exact(count),
        }
    }

    fn set(&mut self, set: Arc<[Point]>) {
        self.sets.push(set);
    }

    fn cdf(&mut self, cdf: Vec<f64>) {
        self.cdfs.push(cdf);
    }

    fn user(&mut self, record: UserRecord) -> Result<(), RecoveryError> {
        self.users.push(record);
        Ok(())
    }
}

/// Bounds-checked big-endian reader over a borrowed log body. Frames
/// ([`Reader::frame`]) are sub-slices of the same buffer — the reader
/// never copies bytes; only the final owned state allocates.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn need(&self, needed: usize) -> Result<(), RecoveryError> {
        if self.buf.len() < needed {
            Err(RecoveryError::Truncated)
        } else {
            Ok(())
        }
    }

    fn get_u8(&mut self) -> Result<u8, RecoveryError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn get_u16(&mut self) -> Result<u16, RecoveryError> {
        self.need(2)?;
        Ok(self.buf.get_u16())
    }

    fn get_u32(&mut self) -> Result<u32, RecoveryError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    fn get_u64(&mut self) -> Result<u64, RecoveryError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    fn get_f64(&mut self) -> Result<f64, RecoveryError> {
        self.need(8)?;
        Ok(self.buf.get_f64())
    }

    /// Reads a length prefix and splits off that many bytes as a
    /// sub-reader — the length-prefixed frame primitive. The parent
    /// advances past the frame whether or not the caller consumes it.
    fn frame(&mut self) -> Result<Reader<'a>, RecoveryError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(Reader { buf: head })
    }

    /// Reads a `u32` count and splits off that many `width`-byte items.
    fn items(&mut self, width: usize) -> Result<&'a [u8], RecoveryError> {
        let len = (self.get_u32()? as usize).saturating_mul(width);
        self.need(len)?;
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    /// Asserts the reader was fully consumed.
    fn finish(self) -> Result<(), RecoveryError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(RecoveryError::TrailingBytes(self.buf.len()))
        }
    }
}

/// Reads a v2 image into `sink` and returns its master seed — the one
/// reader of the layout, behind [`DeviceSnapshot::decode`] and
/// [`restore_image`]. The checksum is verified before any field is
/// trusted; every frame and pool reference is bounds-checked before its
/// part reaches the sink; and no section count is reserved for beyond what
/// the remaining bytes can hold.
fn read_image(buf: &[u8], sink: &mut impl ImageSink) -> Result<u64, RecoveryError> {
    if buf.len() < 8 {
        return Err(RecoveryError::Truncated);
    }
    let (body, mut tail) = buf.split_at(buf.len() - 8);
    let stored = tail.get_u64();
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(RecoveryError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader { buf: body };
    r.need(6)?;
    let magic = r.get_u32()?;
    if magic != MAGIC {
        return Err(RecoveryError::BadMagic(magic));
    }
    match r.get_u16()? {
        VERSION => {}
        v => return Err(RecoveryError::UnsupportedVersion(v)),
    }
    r.need(1 + 8 + 4 * 8 + 8 + 4)?;
    match r.get_u8()? {
        PER_USER_STREAMS => {}
        m => return Err(RecoveryError::BadStreamMode(m)),
    }
    let master = r.get_u64()?;
    // The four device-wide generator words (`seeded(master)`, see
    // `put_header`) and the op-counter slot carry nothing to restore.
    for _ in 0..5 {
        r.get_u64()?;
    }

    let sets = r.get_u32()? as usize;
    sink.reserve(Section::Sets, sets.min(r.buf.len() / set_entry_len(0)));
    for _ in 0..sets {
        let mut f = r.frame()?;
        let set = get_points(&mut f)?;
        f.finish()?;
        sink.set(set);
    }

    let cdfs = r.get_u32()? as usize;
    sink.reserve(Section::Cdfs, cdfs.min(r.buf.len() / cdf_entry_len(0)));
    for _ in 0..cdfs {
        let mut f = r.frame()?;
        let cdf = f.items(8)?.chunks_exact(8).map(|mut w| w.get_f64()).collect();
        f.finish()?;
        sink.cdf(cdf);
    }

    let users = r.get_u32()? as usize;
    sink.reserve(Section::Users, users.min(r.buf.len() / user_frame_len(0, 0, 0, 0, 0)));
    for _ in 0..users {
        let mut f = r.frame()?;
        let record = get_user(&mut f, sets, cdfs)?;
        f.finish()?;
        sink.user(record)?;
    }
    r.finish()?;
    Ok(master)
}

/// Reads one user frame's body; its pool references must fall inside
/// pools of `sets` and `cdfs` entries.
fn get_user(f: &mut Reader<'_>, sets: usize, cdfs: usize) -> Result<UserRecord, RecoveryError> {
    f.need(12)?;
    let user = UserId::new(f.get_u32()?);
    let windows_closed = f.get_u64()?;
    let mut rng_words = [0u64; 4];
    for word in rng_words.iter_mut() {
        *word = f.get_u64()?;
    }
    let buffer = get_points(f)?;
    let profile = get_entries(f)?;
    let top_set = get_entries(f)?;
    let table_radius = f.get_f64()?;
    if !(table_radius.is_finite() && table_radius > 0.0) {
        return Err(RecoveryError::InvalidRadius(table_radius));
    }
    let table = get_refs(f, sets, user)?;
    let cache = get_refs(f, cdfs, user)?;
    Ok(UserRecord {
        user,
        windows_closed,
        rng_words,
        buffer,
        profile,
        top_set,
        table_radius,
        table,
        cache,
    })
}

/// Reads a counted list of `(top, pool index)` references into a pool of
/// `pool` entries.
fn get_refs(
    f: &mut Reader<'_>,
    pool: usize,
    user: UserId,
) -> Result<Vec<(Point, u32)>, RecoveryError> {
    let count = f.get_u32()? as usize;
    let mut refs = Vec::with_capacity(count.min(f.buf.len() / 20));
    for _ in 0..count {
        f.need(20)?;
        let top = Point::new(f.get_f64()?, f.get_f64()?);
        let idx = f.get_u32()?;
        if idx as usize >= pool {
            return Err(RecoveryError::BadPoolRef { user: user.raw() });
        }
        refs.push((top, idx));
    }
    Ok(refs)
}

fn put_points<B: BufMut>(buf: &mut B, points: &[Point]) {
    buf.put_u32(points.len() as u32);
    for p in points {
        buf.put_f64(p.x);
        buf.put_f64(p.y);
    }
}

/// Reads a counted point list straight into its final collection — a
/// window buffer's `Vec`, or a pooled set's `Arc<[Point]>` — allocated
/// once at its exact length.
fn get_points<C: FromIterator<Point>>(r: &mut Reader<'_>) -> Result<C, RecoveryError> {
    Ok(r.items(16)?.chunks_exact(16).map(|mut p| Point::new(p.get_f64(), p.get_f64())).collect())
}

fn put_entries<B: BufMut>(buf: &mut B, entries: &[ProfileEntry]) {
    buf.put_u32(entries.len() as u32);
    for e in entries {
        buf.put_f64(e.location.x);
        buf.put_f64(e.location.y);
        buf.put_u64(e.frequency as u64);
    }
}

fn get_entries(r: &mut Reader<'_>) -> Result<Vec<ProfileEntry>, RecoveryError> {
    Ok(r.items(24)?
        .chunks_exact(24)
        .map(|mut e| ProfileEntry {
            location: Point::new(e.get_f64(), e.get_f64()),
            frequency: e.get_u64() as usize,
        })
        .collect())
}

/// Counts candidate re-draws between two snapshots of the same device: a
/// top location present in both whose candidate set changed. The chaos
/// harness asserts this is **zero** across every crash-restore cycle —
/// any non-zero count is a silent privacy-budget double-spend.
///
/// Top locations appearing only in `after` are fresh first releases (a
/// normal window close), not re-draws.
///
/// # Errors
///
/// Propagates [`RecoveryError::BadPoolRef`] if either snapshot cites a
/// missing pool entry.
pub fn candidate_redraws(
    before: &DeviceSnapshot,
    after: &DeviceSnapshot,
) -> Result<usize, RecoveryError> {
    let mut redraws = 0;
    for record in &before.users {
        let Some(newer) = after.record(record.user) else {
            continue;
        };
        for &(top, old_idx) in &record.table {
            let old_candidates = before.set(old_idx, record.user.raw())?;
            if let Some(&(_, new_idx)) = newer.table.iter().find(|(t, _)| *t == top) {
                let new_candidates = after.set(new_idx, newer.user.raw())?;
                if new_candidates != old_candidates {
                    redraws += 1;
                }
            }
        }
    }
    Ok(redraws)
}

/// Error reading a checkpoint image.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The log ends before its declared content.
    Truncated,
    /// The log does not start with the snapshot magic.
    BadMagic(u32),
    /// The log was written by an unknown format version.
    UnsupportedVersion(u16),
    /// The log carries a stream byte other than per-user streams — an
    /// unknown value, or 0 from the retired device-wide generator mode.
    BadStreamMode(u8),
    /// The FNV-1a checksum does not match the body — bit rot or
    /// truncation in persisted state.
    ChecksumMismatch {
        /// Checksum stored in the log.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// The log continues past its declared content.
    TrailingBytes(usize),
    /// A user record's obfuscation-table match radius is not positive and
    /// finite.
    InvalidRadius(f64),
    /// A user record references a pooled candidate set or posterior
    /// table that is not present in the snapshot.
    BadPoolRef {
        /// The raw id of the affected user.
        user: u32,
    },
    /// A checkpointed posterior table violates the cumulative-weight
    /// invariants.
    InvalidPosterior {
        /// The raw id of the affected user.
        user: u32,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Truncated => write!(f, "truncated snapshot log"),
            RecoveryError::BadMagic(m) => write!(f, "bad snapshot magic {m:#010x}"),
            RecoveryError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            RecoveryError::BadStreamMode(m) => {
                write!(f, "unknown snapshot stream mode {m}")
            }
            RecoveryError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            RecoveryError::TrailingBytes(n) => {
                write!(f, "snapshot log has {n} trailing bytes")
            }
            RecoveryError::InvalidRadius(r) => {
                write!(f, "snapshot obfuscation-table match radius {r} is invalid")
            }
            RecoveryError::BadPoolRef { user } => {
                write!(f, "user {user} references a missing snapshot pool entry")
            }
            RecoveryError::InvalidPosterior { user } => {
                write!(f, "invalid checkpointed posterior table for user {user}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-user image in the layout every device commits: the per-user
    /// header and a user frame carrying its stream words.
    fn snapshot() -> DeviceSnapshot {
        let set: Arc<[Point]> = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)].into();
        DeviceSnapshot {
            master: 0xfeed,
            sets: vec![set],
            cdfs: vec![vec![0.5, 1.0]],
            users: vec![UserRecord {
                user: UserId::new(7),
                windows_closed: 2,
                rng_words: [9, 8, 7, 6],
                buffer: vec![Point::new(5.0, 6.0)],
                profile: vec![ProfileEntry { location: Point::new(10.0, 20.0), frequency: 30 }],
                top_set: vec![ProfileEntry { location: Point::new(10.0, 20.0), frequency: 30 }],
                table_radius: 200.0,
                table: vec![(Point::new(10.0, 20.0), 0)],
                cache: vec![(Point::new(10.0, 20.0), 0)],
            }],
        }
    }

    impl DeviceSnapshot {
        /// Writes the snapshot as a v2 image through the production frame
        /// writers: the hand-built images the corruption tests start from.
        fn encode(&self) -> Bytes {
            let mut buf = BytesMut::new();
            put_header(&mut buf, self.master);
            let cdfs = self.cdfs.iter().map(Vec::as_slice);
            put_pools(&mut buf, self.sets.iter().map(|s| &**s), cdfs);
            buf.put_u32(self.users.len() as u32);
            for r in &self.users {
                let frame = UserFrame {
                    user: r.user.raw(),
                    windows_closed: r.windows_closed,
                    rng_words: r.rng_words,
                    buffer: &r.buffer,
                    profile: &r.profile,
                    top_set: &r.top_set,
                    table_radius: r.table_radius,
                    table: &r.table,
                    cache: &r.cache,
                };
                put_user_frame(&mut buf, &frame);
            }
            seal(buf)
        }
    }

    /// Corrupt a field, then re-stamp a valid checksum so the defect
    /// reaches the structural check.
    fn restamp(mut body: Vec<u8>) -> Vec<u8> {
        let split = body.len() - 8;
        let sum = fnv1a64(&body[..split]);
        body[split..].copy_from_slice(&sum.to_be_bytes());
        body
    }

    /// Decodes `image` and restores a device from it — the one reader into
    /// its two sinks — asserts that they agree, and returns the restored
    /// device's checkpoint or the error. They agree when both refuse the
    /// image with the same error, when only the restore refuses a pooled
    /// CDF as a posterior table (the decoder takes any CDF bytes), or when
    /// the device holds the decoded user states: its snapshot is the
    /// decoded one. Errors compare by `Debug`, so a NaN radius matches
    /// itself.
    fn restore_both(image: &[u8]) -> Result<Bytes, String> {
        let config = SystemConfig::builder().build().unwrap();
        let restored = crate::EdgeDevice::restore_from_checkpoint(config, image);
        match (DeviceSnapshot::decode(image), restored) {
            (Ok(snap), Ok(device)) => {
                assert_eq!(device.snapshot(), snap, "the restored device is not the decoded one");
                Ok(device.checkpoint())
            }
            (Ok(_), Err(e @ RecoveryError::InvalidPosterior { .. })) => Err(format!("{e:?}")),
            (Err(a), Err(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "decode and restore disagree");
                Err(format!("{a:?}"))
            }
            (decoded, restored) => {
                panic!("decode and restore disagree: {decoded:?} against {:?}", restored.err())
            }
        }
    }

    /// `DeviceSnapshot::decode`'s error for `image`, asserted to be what
    /// the restore reports too.
    fn decode_err(image: &[u8]) -> RecoveryError {
        let err = DeviceSnapshot::decode(image).expect_err("a defective image must not decode");
        assert_eq!(restore_both(image), Err(format!("{err:?}")));
        err
    }

    /// The one-pass restore holds exactly the decoded user states, and
    /// the restored device checkpoints back to the image it came from:
    /// for the fixtures and for a settled device with several closed
    /// windows per user, open windows, served and nomadic requests, and a
    /// candidate set shared by two users.
    #[test]
    fn streamed_restore_matches_decode() {
        let mut open = snapshot();
        open.users[0].table.clear();
        open.users[0].cache.clear();
        open.sets.clear();
        open.cdfs.clear();
        let mut two = snapshot();
        let mut second = two.users[0].clone();
        second.user = UserId::new(8);
        second.rng_words = [1, 2, 3, 4];
        two.users.push(second);
        for snap in [snapshot(), open, two] {
            let image = snap.encode();
            assert_eq!(restore_both(&image), Ok(image));
        }

        let config = SystemConfig::builder().build().unwrap();
        let mut edge = crate::EdgeDevice::new(config, 17);
        for window in 0..3 {
            for u in 0..5u32 {
                let user = UserId::new(u);
                let home = Point::new(f64::from(u) * 5_000.0, 0.0);
                let away = Point::new(-9_000.0, f64::from(window) * 4_000.0);
                for _ in 0..30 {
                    edge.report_checkin(user, home);
                }
                for _ in 0..15 {
                    edge.report_checkin(user, away);
                }
                edge.finalize_window(user);
                let _ = edge.reported_location(user, home);
                let _ = edge.reported_location(user, Point::new(60_000.0, 60_000.0));
            }
        }
        for _ in 0..9 {
            edge.report_checkin(UserId::new(1), Point::ORIGIN);
        }
        let top = Point::new(800.0, -300.0);
        let mut authority =
            crate::ObfuscationModule::new(config.geo_ind(), config.top_match_radius_m());
        let mut arena = crate::CandidateArena::new();
        arena.prepare(&mut authority, &[top], 11, &mut 0);
        let tops = vec![ProfileEntry { location: top, frequency: 60 }];
        for u in [20, 21] {
            edge.install_protection(UserId::new(u), tops.clone(), arena.sets());
        }
        let image = edge.checkpoint();
        let snap = DeviceSnapshot::decode(&image).unwrap();
        let shared = |u: u32| snap.record(UserId::new(u)).unwrap().table[0].1;
        assert_eq!(shared(20), shared(21), "one pooled set for both installs");
        assert_eq!(restore_both(&image), Ok(image));
    }

    /// The test writer writes the streamed checkpoint's bytes for a
    /// settled device's snapshot, so the hand-built images above are in
    /// the production layout.
    #[test]
    fn test_writer_matches_the_streamed_checkpoint() {
        let config = SystemConfig::builder().build().unwrap();
        let mut edge = crate::EdgeDevice::new(config, 5);
        for u in 0..4u32 {
            let user = UserId::new(u);
            let home = Point::new(f64::from(u) * 4_000.0, 0.0);
            for i in 0..40 {
                edge.report_checkin(user, home);
                edge.report_checkin(user, Point::new(-9_000.0, f64::from(i) * 900.0));
            }
            edge.finalize_window(user);
            let _ = edge.reported_location(user, home);
            // Users 0 and 2 leave a half-filled window open.
            if u % 2 == 0 {
                for _ in 0..7 {
                    edge.report_checkin(user, home);
                }
            }
        }
        assert_eq!(edge.snapshot().encode(), edge.checkpoint());
    }

    #[test]
    fn log_round_trips() {
        let snap = snapshot();
        let log = snap.encode();
        let back = DeviceSnapshot::decode(&log).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.user_count(), 1);
        assert_eq!(back.users().collect::<Vec<_>>(), vec![(UserId::new(7), 2)]);
        assert_eq!(back.distinct_candidate_sets(), 1);

        // A user whose first window is still open: no table, no cache.
        let mut open = snapshot();
        open.users[0].table.clear();
        open.users[0].cache.clear();
        assert_eq!(DeviceSnapshot::decode(&open.encode()).unwrap(), open);
    }

    #[test]
    fn per_user_stream_log_round_trips() {
        // The master and each user's own stream position survive the
        // log independently: users at different positions of their
        // streams come back at exactly those positions.
        let mut snap = snapshot();
        snap.master = 0xbeef;
        let mut second = snap.users[0].clone();
        second.user = UserId::new(8);
        second.rng_words = [1, 2, 3, 4];
        snap.users.push(second);
        let log = snap.encode();
        let back = DeviceSnapshot::decode(&log).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.master, 0xbeef);
        assert_eq!(back.users[0].rng_words, [9, 8, 7, 6]);
        assert_eq!(back.users[1].rng_words, [1, 2, 3, 4]);
        // The header's generator words are the master's untouched
        // device-wide stream, which the decoder skips.
        for (i, word) in seeded(0xbeef).state().into_iter().enumerate() {
            let at = 4 + 2 + 1 + 8 + 8 * i;
            assert_eq!(log[at..at + 8], word.to_be_bytes(), "header word {i}");
        }
    }

    #[test]
    fn shared_sets_are_pooled_once() {
        // Two users sharing one candidate set and one posterior table:
        // the pools stay at length 1 and the encoded log carries the
        // payload once.
        let top = Point::new(10.0, 20.0);
        let base = snapshot();
        let mut two = base.clone();
        let mut second = two.users[0].clone();
        second.user = UserId::new(8);
        two.users.push(second);
        assert_eq!(two.distinct_candidate_sets(), 1);
        let solo_extra = {
            let mut solo = base.clone();
            solo.sets.push(vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)].into());
            solo.cdfs.push(vec![0.5, 1.0]);
            let mut second = solo.users[0].clone();
            second.user = UserId::new(8);
            second.table = vec![(top, 1)];
            second.cache = vec![(top, 1)];
            solo.users.push(second);
            solo.encode().len()
        };
        // The shared encoding saves exactly the duplicated payload.
        assert!(two.encode().len() < solo_extra, "pooling must shrink the log");
        let back = DeviceSnapshot::decode(&two.encode()).unwrap();
        assert_eq!(back, two);
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let log = snapshot().encode();
        for byte in 0..log.len() {
            for bit in 0..8 {
                let mut bad = log.to_vec();
                bad[byte] ^= 1 << bit;
                let err = DeviceSnapshot::decode(&bad)
                    .expect_err("a flipped bit must not decode cleanly");
                // Flips in the trailing checksum itself also surface as a
                // mismatch — the body hash no longer agrees.
                assert!(
                    matches!(err, RecoveryError::ChecksumMismatch { .. }),
                    "byte {byte} bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn truncation_is_caught() {
        let log = snapshot().encode();
        for len in 0..log.len() {
            assert!(
                DeviceSnapshot::decode(&log[..len]).is_err(),
                "prefix of {len} bytes decoded cleanly"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_caught() {
        let log = snapshot().encode().to_vec();
        let mut bad = log.clone();
        bad[0] = 0x00;
        assert!(matches!(DeviceSnapshot::decode(&restamp(bad)), Err(RecoveryError::BadMagic(_))));
        let mut bad = log.clone();
        bad[5] = 0xEE;
        assert!(matches!(
            DeviceSnapshot::decode(&restamp(bad)),
            Err(RecoveryError::UnsupportedVersion(_))
        ));
        // The retired v1 layout is refused by its version field.
        let mut bad = log.clone();
        bad[5] = 1;
        assert_eq!(
            DeviceSnapshot::decode(&restamp(bad)),
            Err(RecoveryError::UnsupportedVersion(1))
        );
        let mut bad = log;
        bad.splice(bad.len() - 8..bad.len() - 8, [0u8]);
        assert!(matches!(
            DeviceSnapshot::decode(&restamp(bad)),
            Err(RecoveryError::TrailingBytes(_) | RecoveryError::Truncated)
        ));
    }

    #[test]
    fn corrupt_frames_are_structural_errors() {
        // Byte offset of the first set frame's length prefix: the header
        // plus set_count(4). Every case is refused alike by the decoder
        // and by the restore (`decode_err`).
        let frame_len_at = V2_HEADER_LEN + 4;
        let log = snapshot().encode().to_vec();

        // Frame length pointing past the end of the buffer.
        let mut bad = log.clone();
        bad[frame_len_at..frame_len_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode_err(&restamp(bad)), RecoveryError::Truncated));

        // Frame declared longer than its own content: the sub-reader
        // keeps trailing bytes.
        let mut bad = log.clone();
        let declared = u32::from_be_bytes(bad[frame_len_at..frame_len_at + 4].try_into().unwrap());
        bad[frame_len_at..frame_len_at + 4].copy_from_slice(&(declared + 1).to_be_bytes());
        decode_err(&restamp(bad));

        // Unknown stream-mode discriminant.
        let mut bad = log.clone();
        bad[6] = 9;
        assert!(matches!(decode_err(&restamp(bad)), RecoveryError::BadStreamMode(9)));

        // Stream byte 0 marks an image of the retired device-wide
        // generator mode: refused, like the v1 layout.
        let mut bad = log.clone();
        bad[6] = 0;
        assert_eq!(decode_err(&restamp(bad)), RecoveryError::BadStreamMode(0));

        // A pool reference past the pool bounds.
        let mut snap = snapshot();
        snap.users[0].table[0].1 = 5;
        assert!(matches!(decode_err(&snap.encode()), RecoveryError::BadPoolRef { user: 7 }));

        // A match radius that could not build an obfuscation table.
        let mut snap = snapshot();
        snap.users[0].table_radius = f64::NAN;
        assert!(matches!(
            decode_err(&snap.encode()),
            RecoveryError::InvalidRadius(r) if r.is_nan()
        ));
    }

    #[test]
    fn invalid_pooled_posterior_is_caught_at_pool_build() {
        // The decoder takes any CDF bytes; the restore refuses a pooled
        // table that is not a CDF and blames the first user whose cache
        // cites it.
        let refused = |snap: &DeviceSnapshot| {
            let image = snap.encode();
            assert_eq!(&DeviceSnapshot::decode(&image).unwrap(), snap);
            let config = SystemConfig::builder().build().unwrap();
            let err = crate::EdgeDevice::restore_from_checkpoint(config, &image)
                .expect_err("invalid CDF restored");
            assert_eq!(restore_both(&image), Err(format!("{err:?}")));
            err
        };
        let mut snap = snapshot();
        snap.cdfs[0] = vec![1.0, 0.5]; // decreasing — not a CDF
        assert_eq!(refused(&snap), RecoveryError::InvalidPosterior { user: 7 });

        // Of two invalid entries the first is blamed, on the first user
        // citing it — though an earlier user cites only the second.
        let top = Point::new(10.0, 20.0);
        let mut many = snapshot();
        many.cdfs.push(vec![2.0, 1.0]);
        many.cdfs.push(vec![0.0]);
        many.users[0].cache = vec![(top, 2)];
        for (raw, cdf) in [(8, 0), (9, 1), (10, 1)] {
            let mut user = many.users[0].clone();
            user.user = UserId::new(raw);
            user.cache = vec![(top, cdf)];
            many.users.push(user);
        }
        assert_eq!(refused(&many), RecoveryError::InvalidPosterior { user: 9 });

        // An invalid entry no user cites is blamed on no user.
        let mut orphan = snapshot();
        orphan.cdfs.push(vec![0.0]);
        assert_eq!(refused(&orphan), RecoveryError::InvalidPosterior { user: u32::MAX });

        // A structural defect in a later frame is still the error reported.
        let mut image = orphan.encode().to_vec();
        let radius_at = image.len() - 8 - 2 * (4 + 20) - 8;
        image[radius_at..radius_at + 8].copy_from_slice(&(-1.0f64).to_be_bytes());
        assert_eq!(decode_err(&restamp(image)), RecoveryError::InvalidRadius(-1.0));
    }

    #[test]
    fn redraw_counting_flags_changed_candidates() {
        let before = snapshot();
        // Identical snapshots: no re-draws.
        assert_eq!(candidate_redraws(&before, &before).unwrap(), 0);

        // Same top, different candidates: one re-draw.
        let mut redrawn = before.clone();
        redrawn.sets[0] = vec![Point::new(9.0, 9.0), Point::new(8.0, 8.0)].into();
        assert_eq!(candidate_redraws(&before, &redrawn).unwrap(), 1);

        // A fresh top released after the first snapshot is not a re-draw.
        let mut grown = before.clone();
        grown.sets.push(vec![Point::new(9_001.0, 1.0)].into());
        grown.users[0].table.push((Point::new(9_000.0, 0.0), 1));
        assert_eq!(candidate_redraws(&before, &grown).unwrap(), 0);
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        for e in [
            RecoveryError::Truncated,
            RecoveryError::BadMagic(0xDEAD_BEEF),
            RecoveryError::UnsupportedVersion(9),
            RecoveryError::BadStreamMode(3),
            RecoveryError::ChecksumMismatch { stored: 1, computed: 2 },
            RecoveryError::TrailingBytes(3),
            RecoveryError::InvalidRadius(f64::NAN),
            RecoveryError::BadPoolRef { user: 6 },
            RecoveryError::InvalidPosterior { user: 4 },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
    }
}
