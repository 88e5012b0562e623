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
//! The byte log ([`DeviceSnapshot::encode`]) is versioned,
//! length-prefix-framed, and FNV-1a checksummed. Version 2 is the only
//! format: one contiguous buffer per device, every pool entry and user
//! record carried as a length-prefixed frame, decoded by an in-place
//! slice reader — the only allocations on the decode path are the final
//! owned state (one `Arc` per **distinct** candidate set, not one per
//! user record). Bit rot in persisted state surfaces as a structured
//! [`RecoveryError`] instead of a corrupted privacy ledger.
//!
//! The budget guard lives in [`crate::EdgeDevice::adopt_snapshot`]: a
//! live device refuses to adopt a snapshot that has *forgotten* any of
//! its released candidates ([`RecoveryError::BudgetViolation`]), because
//! the forgotten top location would be silently re-obfuscated at the
//! next window close.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use privlocad_attack::{LocationProfile, ProfileEntry};
use privlocad_geo::rng::seeded;
use privlocad_geo::Point;
use privlocad_mechanisms::{PosteriorTable, SelectionCache};
use privlocad_mobility::UserId;
use rand::rngs::StdRng;

use crate::user::UserState;
use crate::{LocationManager, ObfuscationModule, ObfuscationTable, SystemConfig};

/// Log magic: `"PLAD"` big-endian.
const MAGIC: u32 = 0x504C_4144;
/// Log format version: pooled, length-prefix-framed.
const VERSION: u16 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the log body — cheap, dependency-free, and plenty to catch
/// truncation and bit rot in persisted snapshots.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The v2 header's stream byte: per-user RNG streams derived from the
/// master seed, the only mode a device has. Any other value — 0 marks an
/// image of a device-wide generator — is refused as
/// [`RecoveryError::BadStreamMode`].
const PER_USER_STREAMS: u8 = 1;

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

/// Accumulates user captures into a pooled [`DeviceSnapshot`]:
/// candidate sets and posterior tables are deduplicated by `Arc`
/// identity, so state installed fleet-wide through
/// [`crate::CandidateArena`] sharing is stored once per **distinct**
/// set, not once per user. Pool indices are assigned in first-seen
/// order over the (ascending) capture sequence, which keeps the
/// resulting snapshot — and its encoded bytes — deterministic.
pub(crate) struct SnapshotBuilder {
    sets: Vec<Arc<[Point]>>,
    /// `Arc` data-pointer → pool index; lookup only, never iterated.
    set_index: BTreeMap<usize, u32>,
    cdfs: Vec<Vec<f64>>,
    cdf_index: BTreeMap<usize, u32>,
    users: Vec<UserRecord>,
}

impl SnapshotBuilder {
    pub(crate) fn new() -> Self {
        SnapshotBuilder {
            sets: Vec::new(),
            set_index: BTreeMap::new(),
            cdfs: Vec::new(),
            cdf_index: BTreeMap::new(),
            users: Vec::new(),
        }
    }

    /// Captures one user's live serving state into the pools.
    pub(crate) fn capture(&mut self, user: UserId, state: &UserState) {
        let table = state.obfuscation.table();
        let mut table_refs = Vec::with_capacity(table.len());
        for (top, shared) in table.shared_entries() {
            let key = shared.as_ptr() as usize;
            let idx = match self.set_index.get(&key) {
                Some(&i) => i,
                None => {
                    let i = self.sets.len() as u32;
                    self.sets.push(Arc::clone(shared));
                    self.set_index.insert(key, i);
                    i
                }
            };
            table_refs.push((top, idx));
        }
        let mut cache_refs = Vec::new();
        for (top, shared) in state.selection.shared_entries() {
            let key = Arc::as_ptr(shared) as usize;
            let idx = match self.cdf_index.get(&key) {
                Some(&i) => i,
                None => {
                    let i = self.cdfs.len() as u32;
                    self.cdfs.push(shared.cdf().to_vec());
                    self.cdf_index.insert(key, i);
                    i
                }
            };
            cache_refs.push((top, idx));
        }
        self.users.push(UserRecord {
            user,
            windows_closed: state.manager.windows_closed() as u64,
            rng_words: state.stream.state(),
            buffer: state.manager.buffered().to_vec(),
            profile: state.manager.profile().entries().to_vec(),
            top_set: state.manager.top_set().to_vec(),
            table_radius: table.match_radius_m(),
            table: table_refs,
            cache: cache_refs,
        });
    }

    /// Seals the builder into a snapshot of a device on `master`.
    pub(crate) fn finish(self, master: u64) -> DeviceSnapshot {
        DeviceSnapshot { master, sets: self.sets, cdfs: self.cdfs, users: self.users }
    }
}

/// The serving loop's committed checkpoint, maintained **incrementally**:
/// instead of re-encoding the whole device after every delivered batch —
/// O(fleet) work per commit, which is what caps a shard's sustainable
/// request rate once the fleet is large — the loop re-captures only the
/// users the batch touched, and the full byte image is materialized
/// lazily on the rare paths that actually read it (rollback after a
/// caught panic, respawn of a dead shard,
/// [`crate::EdgeServer::last_checkpoint`]).
///
/// Pool entries are append-only and **pinned**: the pool holds its own
/// `Arc` clone of every indexed candidate set and posterior table, so an
/// indexed allocation can never be freed and its address reused while
/// the index is live — the pointer-identity dedup stays sound for the
/// log's whole lifetime. Restore paths rebuild the log wholesale (the
/// restored device is a fresh allocation graph), which also sheds any
/// pool growth accumulated from re-captures.
#[derive(Debug)]
pub(crate) struct CommittedLog {
    master: u64,
    sets: Vec<Arc<[Point]>>,
    set_index: BTreeMap<usize, u32>,
    /// Encoded bytes of the set pool section (length prefixes included).
    set_bytes: usize,
    cdfs: Vec<Arc<PosteriorTable>>,
    cdf_index: BTreeMap<usize, u32>,
    cdf_bytes: usize,
    /// Per-user encoded frame bodies, ascending by raw id — the same
    /// order [`crate::EdgeDevice::snapshot`] captures in.
    frames: BTreeMap<u32, Vec<u8>>,
    frame_bytes: usize,
}

/// Fixed header bytes of a v2 image: magic, version, stream byte +
/// master, four RNG words, and the always-zero op-counter slot.
const V2_HEADER_LEN: usize = 4 + 2 + 1 + 8 + 32 + 8;

impl CommittedLog {
    pub(crate) fn new(master: u64) -> Self {
        CommittedLog {
            master,
            sets: Vec::new(),
            set_index: BTreeMap::new(),
            set_bytes: 0,
            cdfs: Vec::new(),
            cdf_index: BTreeMap::new(),
            cdf_bytes: 0,
            frames: BTreeMap::new(),
            frame_bytes: 0,
        }
    }

    /// Captures the device wholesale — spawn, restore, and test entry
    /// point. Per-batch maintenance goes through
    /// [`CommittedLog::capture_user`] instead.
    pub(crate) fn rebuild(edge: &crate::EdgeDevice) -> Self {
        let mut log = CommittedLog::new(edge.master());
        for (user, state) in edge.user_states() {
            log.capture_user(user, state);
        }
        log
    }

    fn intern_set(&mut self, shared: &Arc<[Point]>) -> u32 {
        let key = shared.as_ptr() as usize;
        match self.set_index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.sets.len() as u32;
                self.set_bytes += 4 + 4 + shared.len() * 16;
                self.sets.push(Arc::clone(shared));
                self.set_index.insert(key, i);
                i
            }
        }
    }

    fn intern_cdf(&mut self, shared: &Arc<PosteriorTable>) -> u32 {
        let key = Arc::as_ptr(shared) as usize;
        match self.cdf_index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.cdfs.len() as u32;
                self.cdf_bytes += 4 + 4 + shared.cdf().len() * 8;
                self.cdfs.push(Arc::clone(shared));
                self.cdf_index.insert(key, i);
                i
            }
        }
    }

    /// Re-encodes one user's frame into the log, interning any candidate
    /// set or posterior table it references that the pools have not seen
    /// yet. O(user state), independent of the fleet size. A re-capture
    /// overwrites the user's existing frame buffer in place, so a commit
    /// allocates only when the frame outgrows it.
    pub(crate) fn capture_user(&mut self, user: UserId, state: &UserState) {
        let table = state.obfuscation.table();
        let mut frame = std::mem::take(self.frames.entry(user.raw()).or_default());
        if !frame.is_empty() {
            self.frame_bytes -= 4 + frame.len();
        }
        frame.clear();
        frame.put_u32(user.raw());
        frame.put_u64(state.manager.windows_closed() as u64);
        for word in state.stream.state() {
            frame.put_u64(word);
        }
        put_points(&mut frame, state.manager.buffered());
        put_entries(&mut frame, state.manager.profile().entries());
        put_entries(&mut frame, state.manager.top_set());
        frame.put_f64(table.match_radius_m());
        frame.put_u32(table.len() as u32);
        for (top, shared) in table.shared_entries() {
            let idx = self.intern_set(shared);
            frame.put_f64(top.x);
            frame.put_f64(top.y);
            frame.put_u32(idx);
        }
        let cache_count_at = frame.len();
        frame.put_u32(0);
        let mut cache_count: u32 = 0;
        for (top, shared) in state.selection.shared_entries() {
            let idx = self.intern_cdf(shared);
            frame.put_f64(top.x);
            frame.put_f64(top.y);
            frame.put_u32(idx);
            cache_count += 1;
        }
        frame[cache_count_at..cache_count_at + 4].copy_from_slice(&cache_count.to_be_bytes());
        self.frame_bytes += 4 + frame.len();
        self.frames.insert(user.raw(), frame);
    }

    /// The byte length [`CommittedLog::materialize`] would produce —
    /// tracked incrementally so the commit path can export it without
    /// encoding anything.
    pub(crate) fn encoded_len(&self) -> usize {
        V2_HEADER_LEN + 4 + self.set_bytes + 4 + self.cdf_bytes + 4 + self.frame_bytes + 8
    }

    /// Encodes the committed image as a [`DeviceSnapshot::decode`]-able
    /// v2 byte log. O(total state) — called only on the read paths, never
    /// per commit.
    pub(crate) fn materialize(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        put_header(&mut buf, self.master);
        buf.put_u32(self.sets.len() as u32);
        for set in &self.sets {
            buf.put_u32((4 + set.len() * 16) as u32);
            put_points(&mut buf, set);
        }
        buf.put_u32(self.cdfs.len() as u32);
        for table in &self.cdfs {
            let cdf = table.cdf();
            buf.put_u32((4 + cdf.len() * 8) as u32);
            buf.put_u32(cdf.len() as u32);
            for &w in cdf {
                buf.put_f64(w);
            }
        }
        buf.put_u32(self.frames.len() as u32);
        for frame in self.frames.values() {
            buf.put_u32(frame.len() as u32);
            buf.put_slice(frame);
        }
        let checksum = fnv1a(&buf);
        buf.put_u64(checksum);
        buf.freeze()
    }
}

/// The shared-state side of a restore: every pooled candidate set and
/// posterior table materialized **once**, then handed to each user
/// record as two `Arc` bumps. Validation (CDF invariants) also happens
/// once per distinct table instead of once per user.
#[derive(Debug)]
pub(crate) struct RestorePools {
    pub(crate) sets: Vec<Arc<[Point]>>,
    pub(crate) tables: Vec<Arc<PosteriorTable>>,
}

/// Rebuilds one user's serving state from its checkpoint record: window
/// state verbatim (profile entries in their recorded order — the order is
/// load-bearing, `from_checkins` does not sort), the private RNG stream at
/// its saved position, and the obfuscation table and posterior cache as
/// shared handles into the restore pools. The
/// record is consumed: the check-in buffer, profile, and top set move
/// straight into the rebuilt state with no intermediate clones.
pub(crate) fn restore_user_owned(
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
        let set =
            pools.sets.get(idx as usize).ok_or(RecoveryError::BadPoolRef { user })?;
        table.insert_shared(top, Arc::clone(set));
    }
    let obfuscation = ObfuscationModule::from_table(config.geo_ind(), table);
    let mut selection = SelectionCache::new();
    for (top, idx) in record.cache {
        let shared =
            pools.tables.get(idx as usize).ok_or(RecoveryError::BadPoolRef { user })?;
        selection.install_shared(top, Arc::clone(shared));
    }
    // Resume the user's private stream at its exact saved position — a
    // restored shard never re-draws anything a user already received.
    let stream = StdRng::from_state(record.rng_words);
    Ok(UserState { manager, obfuscation, selection, stream })
}

/// A full checkpoint of one edge device: every user's state plus each
/// user's stream position and the master seed the streams derive from,
/// captured by [`crate::EdgeDevice::snapshot`] and restored by
/// [`crate::EdgeDevice::restore`].
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
        self.sets
            .get(idx as usize)
            .map(|s| &**s)
            .ok_or(RecoveryError::BadPoolRef { user })
    }

    /// Builds the restore pools: every pooled CDF validated and
    /// materialized as a shared [`PosteriorTable`] exactly once.
    pub(crate) fn pools(&self) -> Result<RestorePools, RecoveryError> {
        let mut tables = Vec::with_capacity(self.cdfs.len());
        for (idx, cdf) in self.cdfs.iter().enumerate() {
            let table = PosteriorTable::from_cdf(cdf.clone()).ok_or_else(|| {
                // Error context: the first user whose cache cites the
                // defective pool entry (error path only — never hot).
                let user = self
                    .users
                    .iter()
                    .find(|r| r.cache.iter().any(|&(_, i)| i as usize == idx))
                    .map_or(u32::MAX, |r| r.user.raw());
                RecoveryError::InvalidPosterior { user }
            })?;
            tables.push(Arc::new(table));
        }
        Ok(RestorePools { sets: self.sets.clone(), tables })
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

    /// Serializes the snapshot into the versioned, length-prefix-framed,
    /// FNV-1a-checksummed byte log (format version 2): one contiguous
    /// buffer, pools first, then one frame per user holding `u32`
    /// references into them. An edge deployment persists this image
    /// durably and restores it with [`DeviceSnapshot::decode`] on
    /// startup.
    pub fn encode(&self) -> Bytes {
        let mut capacity = 64 + 8;
        for set in &self.sets {
            capacity += 8 + set.len() * 16;
        }
        for cdf in &self.cdfs {
            capacity += 8 + cdf.len() * 8;
        }
        for record in &self.users {
            capacity += 4 + user_frame_len(record);
        }
        let mut buf = BytesMut::with_capacity(capacity);
        put_header(&mut buf, self.master);
        buf.put_u32(self.sets.len() as u32);
        for set in &self.sets {
            buf.put_u32((4 + set.len() * 16) as u32);
            put_points(&mut buf, set);
        }
        buf.put_u32(self.cdfs.len() as u32);
        for cdf in &self.cdfs {
            buf.put_u32((4 + cdf.len() * 8) as u32);
            buf.put_u32(cdf.len() as u32);
            for &w in cdf {
                buf.put_f64(w);
            }
        }
        buf.put_u32(self.users.len() as u32);
        for record in &self.users {
            buf.put_u32(user_frame_len(record) as u32);
            buf.put_u32(record.user.raw());
            buf.put_u64(record.windows_closed);
            for word in record.rng_words {
                buf.put_u64(word);
            }
            put_points(&mut buf, &record.buffer);
            put_entries(&mut buf, &record.profile);
            put_entries(&mut buf, &record.top_set);
            buf.put_f64(record.table_radius);
            buf.put_u32(record.table.len() as u32);
            for &(top, idx) in &record.table {
                buf.put_f64(top.x);
                buf.put_f64(top.y);
                buf.put_u32(idx);
            }
            buf.put_u32(record.cache.len() as u32);
            for &(top, idx) in &record.cache {
                buf.put_f64(top.x);
                buf.put_f64(top.y);
                buf.put_u32(idx);
            }
        }
        let checksum = fnv1a(&buf);
        buf.put_u64(checksum);
        buf.freeze()
    }

    /// Restores a snapshot from its v2 byte log.
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
        if buf.len() < 8 {
            return Err(RecoveryError::Truncated);
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let stored = u64::from_be_bytes([
            tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
        ]);
        let computed = fnv1a(body);
        if stored != computed {
            return Err(RecoveryError::ChecksumMismatch { stored, computed });
        }
        let mut reader = Reader { buf: body };
        reader.need(6)?;
        let magic = reader.get_u32()?;
        if magic != MAGIC {
            return Err(RecoveryError::BadMagic(magic));
        }
        match reader.get_u16()? {
            VERSION => decode_v2(reader),
            v => Err(RecoveryError::UnsupportedVersion(v)),
        }
    }
}

/// The byte length of one user record's v2 frame body.
fn user_frame_len(record: &UserRecord) -> usize {
    4 + 8
        + 32
        + 4
        + record.buffer.len() * 16
        + 4
        + record.profile.len() * 24
        + 4
        + record.top_set.len() * 24
        + 8
        + 4
        + record.table.len() * 20
        + 4
        + record.cache.len() * 20
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

    /// Asserts the reader was fully consumed.
    fn finish(self) -> Result<(), RecoveryError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(RecoveryError::TrailingBytes(self.buf.len()))
        }
    }
}

/// Decodes the pooled, framed v2 body.
fn decode_v2(mut r: Reader<'_>) -> Result<DeviceSnapshot, RecoveryError> {
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

    let set_count = r.get_u32()? as usize;
    let mut sets: Vec<Arc<[Point]>> = Vec::with_capacity(set_count.min(1_024));
    for _ in 0..set_count {
        let mut f = r.frame()?;
        let points = get_points(&mut f)?;
        f.finish()?;
        sets.push(Arc::from(points));
    }

    let cdf_count = r.get_u32()? as usize;
    let mut cdfs: Vec<Vec<f64>> = Vec::with_capacity(cdf_count.min(1_024));
    for _ in 0..cdf_count {
        let mut f = r.frame()?;
        let len = f.get_u32()? as usize;
        f.need(len.saturating_mul(8))?;
        let mut cdf = Vec::with_capacity(len);
        for _ in 0..len {
            cdf.push(f.get_f64()?);
        }
        f.finish()?;
        cdfs.push(cdf);
    }

    let user_count = r.get_u32()? as usize;
    let mut users = Vec::with_capacity(user_count.min(1_024));
    for _ in 0..user_count {
        let mut f = r.frame()?;
        f.need(12)?;
        let user = UserId::new(f.get_u32()?);
        let raw = user.raw();
        let windows_closed = f.get_u64()?;
        let mut rng_words = [0u64; 4];
        for word in rng_words.iter_mut() {
            *word = f.get_u64()?;
        }
        let buffer = get_points(&mut f)?;
        let profile = get_entries(&mut f)?;
        let top_set = get_entries(&mut f)?;
        let table_radius = f.get_f64()?;
        if !(table_radius.is_finite() && table_radius > 0.0) {
            return Err(RecoveryError::InvalidRadius(table_radius));
        }
        let table_count = f.get_u32()? as usize;
        let mut table = Vec::with_capacity(table_count.min(1_024));
        for _ in 0..table_count {
            f.need(20)?;
            let top = Point::new(f.get_f64()?, f.get_f64()?);
            let idx = f.get_u32()?;
            if idx as usize >= sets.len() {
                return Err(RecoveryError::BadPoolRef { user: raw });
            }
            table.push((top, idx));
        }
        let cache_count = f.get_u32()? as usize;
        let mut cache = Vec::with_capacity(cache_count.min(1_024));
        for _ in 0..cache_count {
            f.need(20)?;
            let top = Point::new(f.get_f64()?, f.get_f64()?);
            let idx = f.get_u32()?;
            if idx as usize >= cdfs.len() {
                return Err(RecoveryError::BadPoolRef { user: raw });
            }
            cache.push((top, idx));
        }
        f.finish()?;
        users.push(UserRecord {
            user,
            windows_closed,
            rng_words,
            buffer,
            profile,
            top_set,
            table_radius,
            table,
            cache,
        });
    }
    r.finish()?;
    Ok(DeviceSnapshot { master, sets, cdfs, users })
}

fn put_points<B: BufMut>(buf: &mut B, points: &[Point]) {
    buf.put_u32(points.len() as u32);
    for p in points {
        buf.put_f64(p.x);
        buf.put_f64(p.y);
    }
}

fn get_points(r: &mut Reader<'_>) -> Result<Vec<Point>, RecoveryError> {
    let count = r.get_u32()? as usize;
    r.need(count.saturating_mul(16))?;
    let mut points = Vec::with_capacity(count);
    for _ in 0..count {
        points.push(Point::new(r.get_f64()?, r.get_f64()?));
    }
    Ok(points)
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
    let count = r.get_u32()? as usize;
    r.need(count.saturating_mul(24))?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(ProfileEntry {
            location: Point::new(r.get_f64()?, r.get_f64()?),
            frequency: r.get_u64()? as usize,
        });
    }
    Ok(entries)
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

/// Error restoring or validating a [`DeviceSnapshot`].
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
    /// Adopting the snapshot would forget candidates the live device has
    /// already released: the affected user's next window close would
    /// silently re-draw them, double-spending the privacy budget.
    BudgetViolation {
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
            RecoveryError::BudgetViolation { user } => write!(
                f,
                "restoring would forget released candidates of user {user}; \
                 the next window close would re-draw them (privacy budget double-spend)"
            ),
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

    /// The committed log maintained per-batch must materialize an image
    /// that restores to exactly the state a full `checkpoint()` encode
    /// restores to — at every commit point, with users touched in an
    /// order different from id order, with re-captures (a long mid-window
    /// frame re-encoded as a short post-close one in the same buffer), and
    /// across a simulated rollback-rebuild.
    #[test]
    fn incremental_committed_log_matches_the_full_encoder() {
        let config = SystemConfig::builder().build().unwrap();
        // Materializes the log and checks it against the full encoder,
        // returning the device restored from the log's image.
        let assert_matches = |log: &CommittedLog, edge: &crate::EdgeDevice, at: &str| {
            let image = log.materialize();
            assert_eq!(image.len(), log.encoded_len(), "tracked length must be exact ({at})");
            let via_log = crate::EdgeDevice::restore_from_checkpoint(config, &image).unwrap();
            let via_full =
                crate::EdgeDevice::restore_from_checkpoint(config, &edge.checkpoint()).unwrap();
            assert_eq!(via_log.state_digest(), via_full.state_digest(), "{at}");
            via_log
        };
        let mut edge = crate::EdgeDevice::new(config, 9);
        let mut log = CommittedLog::rebuild(&edge);
        let users: Vec<UserId> = [3u32, 0, 5, 1, 4, 2].iter().map(|&u| UserId::new(u)).collect();
        for round in 0..3 {
            for &user in &users {
                let home = Point::new(f64::from(user.raw()) * 3_000.0, 500.0);
                // One "batch" per user: check-ins, a window close, and —
                // from the second round — a served request, so the
                // posterior cache and per-user stream positions move too.
                // It commits twice: mid-window, with 20 buffered
                // check-ins, and after the close has emptied the buffer.
                for _ in 0..20 {
                    edge.report_checkin(user, home);
                }
                log.capture_user(user, edge.user_state(user).unwrap());
                let long = log.frames[&user.raw()].len();
                assert_matches(&log, &edge, &format!("round {round}, user {user:?} mid-window"));
                if round > 0 {
                    let _ = edge.reported_location(user, home);
                }
                edge.finalize_window(user);
                log.capture_user(user, edge.user_state(user).unwrap());
                assert!(log.frames[&user.raw()].len() < long, "the close shortens the frame");
                assert_matches(&log, &edge, &format!("round {round}, user {user:?} closed"));
            }
            let via_log = assert_matches(&log, &edge, &format!("round {round}"));
            if round == 1 {
                // A supervisor rollback replaces the device wholesale and
                // rebuilds the log against the fresh allocation graph.
                edge = via_log;
                log = CommittedLog::rebuild(&edge);
            }
        }
        assert_eq!(
            DeviceSnapshot::decode(&log.materialize()).unwrap().user_count(),
            users.len()
        );
    }

    /// Corrupt a field, then re-stamp a valid checksum so the defect
    /// reaches the structural check.
    fn restamp(mut body: Vec<u8>) -> Vec<u8> {
        let split = body.len() - 8;
        let sum = fnv1a(&body[..split]);
        body[split..].copy_from_slice(&sum.to_be_bytes());
        body
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
        assert!(matches!(
            DeviceSnapshot::decode(&restamp(bad)),
            Err(RecoveryError::BadMagic(_))
        ));
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
        // plus set_count(4).
        let frame_len_at = V2_HEADER_LEN + 4;
        let log = snapshot().encode().to_vec();

        // Frame length pointing past the end of the buffer.
        let mut bad = log.clone();
        bad[frame_len_at..frame_len_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            DeviceSnapshot::decode(&restamp(bad)),
            Err(RecoveryError::Truncated)
        ));

        // Frame declared longer than its own content: the sub-reader
        // keeps trailing bytes.
        let mut bad = log.clone();
        let declared = u32::from_be_bytes(bad[frame_len_at..frame_len_at + 4].try_into().unwrap());
        bad[frame_len_at..frame_len_at + 4].copy_from_slice(&(declared + 1).to_be_bytes());
        assert!(DeviceSnapshot::decode(&restamp(bad)).is_err());

        // Unknown stream-mode discriminant.
        let mut bad = log.clone();
        bad[6] = 9;
        assert!(matches!(
            DeviceSnapshot::decode(&restamp(bad)),
            Err(RecoveryError::BadStreamMode(9))
        ));

        // Stream byte 0 marks an image of the retired device-wide
        // generator mode: refused, like the v1 layout.
        let mut bad = log.clone();
        bad[6] = 0;
        assert_eq!(
            DeviceSnapshot::decode(&restamp(bad)),
            Err(RecoveryError::BadStreamMode(0))
        );

        // A pool reference past the pool bounds.
        let mut snap = snapshot();
        snap.users[0].table[0].1 = 5;
        let bad = snap.encode().to_vec();
        assert!(matches!(
            DeviceSnapshot::decode(&bad),
            Err(RecoveryError::BadPoolRef { user: 7 })
        ));

        // A match radius that could not build an obfuscation table.
        let mut snap = snapshot();
        snap.users[0].table_radius = f64::NAN;
        assert!(matches!(
            DeviceSnapshot::decode(&snap.encode()),
            Err(RecoveryError::InvalidRadius(r)) if r.is_nan()
        ));
    }

    #[test]
    fn invalid_pooled_posterior_is_caught_at_pool_build() {
        let mut snap = snapshot();
        snap.cdfs[0] = vec![1.0, 0.5]; // decreasing — not a CDF
        let err = snap.pools().expect_err("invalid CDF must not build a table");
        assert_eq!(err, RecoveryError::InvalidPosterior { user: 7 });
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
            RecoveryError::BudgetViolation { user: 5 },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
    }
}
