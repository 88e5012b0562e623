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
//! table), the open window's check-in buffer, the profile, the window
//! epoch, and the generator state. Candidate sets are **pooled**: the
//! image stores each distinct set once (deduplicated by allocation at
//! capture time) and user records hold `u32` references into the pool, so
//! a fleet-distributed set shared by a thousand users costs one pool entry
//! plus a thousand 20-byte references — this is what keeps the per-shard
//! bytes/user budget flat as the fleet grows (DESIGN.md §16).
//!
//! The posterior weights a protected top draws from (Algorithm 4) are
//! post-processing over its set, a pure function of the set and σ, so the
//! image does not carry them: the header binds σ, the match radius and the
//! selection kind — device constants, not per-user facts — and the restore
//! recomputes each pooled set's weights, refusing an image written under
//! another σ, radius or selection kind as
//! [`RecoveryError::InvalidPosterior`]. A user frame writes the η-frequent
//! set in the form its manager stores it: the length of the profile prefix
//! it is, or its own entries when a fleet install stored it apart.
//!
//! The image is versioned, counted, and FNV-1a checksummed. Version 4 is
//! the only format: one contiguous buffer per device, every pool entry a
//! counted point list and every user frame a fixed run of fields and
//! counted lists, in ascending user order. A live
//! device streams it straight from its user states
//! ([`crate::EdgeDevice::checkpoint`]), and one in-place slice reader
//! reads it, for [`crate::EdgeDevice::restore_from_checkpoint`] and for
//! [`DeviceSnapshot::decode`] alike. The restore takes each pool entry and
//! user frame straight into live serving state as it is read, so the only
//! allocations are that state (one allocation per **distinct** candidate
//! set, not one per user record); the decode collects the same parts into
//! a read-only view for audits. Bit rot in persisted state surfaces as a
//! structured [`RecoveryError`] instead of a corrupted privacy ledger.
//!
//! A serving shard (behind a [`crate::Router`]) keeps no image between
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
use privlocad_geo::Point;
use privlocad_mechanisms::{NFoldGaussian, PosteriorSelector, PosteriorTable};
use privlocad_mobility::UserId;
use privlocad_openrtb::fnv1a64;
use rand::rngs::StdRng;

use crate::management::TopSet;
use crate::user::{UserMap, UserState};
use crate::{LocationManager, ObfuscationModule, ObfuscationTable, SelectionKind, SystemConfig};

/// Log magic: `"PLAD"` big-endian.
const MAGIC: u32 = 0x504C_4144;
/// Log format version: pooled sets, user frames holding only per-user
/// facts, and σ, the match radius and the selection kind bound in the
/// header.
const VERSION: u16 = 4;

/// Fixed header bytes of a v4 image: magic, version, master, σ's bits,
/// the match radius's bits and the selection byte.
const HEADER_LEN: usize = 4 + 2 + 8 + 8 + 8 + 1;

/// Fixed bytes of every v4 image: the header, the set-pool and user
/// counts, and the trailing FNV-1a checksum.
const IMAGE_FIXED_LEN: usize = HEADER_LEN + 2 * 4 + 8;

/// Encoded bytes of one profile or explicit top-set entry: a point and its
/// frequency as a `u32`.
const ENTRY_LEN: usize = 16 + 4;

/// Top-set form byte of a set that is the profile's first `k` entries,
/// written as `k` alone.
const PREFIX_FORM: u8 = 0;
/// Top-set form byte of a set stored apart from the profile, written
/// entry by entry.
const EXPLICIT_FORM: u8 = 1;

/// What a v4 header binds an image to, after its magic and version: the
/// master seed its per-user streams derive from, and the three config
/// values the restored serving state derives from — σ (the sets' posterior
/// weights) and the match radius (which set covers which top), as `f64`
/// bits, and the selection kind, as one byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) master: u64,
    sigma: u64,
    radius: u64,
    selection: u8,
}

impl Header {
    /// The header of a device with seed `master` under `config`.
    fn of(config: &SystemConfig, master: u64) -> Self {
        let selection = match config.selection() {
            SelectionKind::Posterior => 0,
            SelectionKind::Uniform => 1,
        };
        Header {
            master,
            sigma: sigma(config).to_bits(),
            radius: config.top_match_radius_m().to_bits(),
            selection,
        }
    }
}

/// The n-fold mechanism's σ under `config`: what every set's posterior
/// weights are computed with.
fn sigma(config: &SystemConfig) -> f64 {
    NFoldGaussian::new(config.geo_ind()).sigma()
}

/// Writes the fixed v4 header: magic, version, master, σ's bits, the
/// match radius's bits and the selection byte.
fn put_header<B: BufMut>(buf: &mut B, header: Header) {
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
    buf.put_u64(header.master);
    buf.put_u64(header.sigma);
    buf.put_u64(header.radius);
    buf.put_u8(header.selection);
}

/// Appends the FNV-1a checksum of everything written so far and freezes
/// the image.
fn seal(mut buf: BytesMut) -> Bytes {
    let checksum = fnv1a64(&buf);
    buf.put_u64(checksum);
    buf.freeze()
}

/// Encoded bytes of one set-pool entry: its point count and `points`
/// points.
fn set_entry_len(points: usize) -> usize {
    4 + points * 16
}

/// Writes the set pool: a count, then each set as a counted point list.
fn put_sets<B, S>(buf: &mut B, sets: impl ExactSizeIterator<Item = S>)
where
    B: BufMut,
    S: ExactSizeIterator<Item = Point>,
{
    buf.put_u32(sets.len() as u32);
    for set in sets {
        put_points(buf, set);
    }
}

/// Encoded bytes of one user frame: the fixed fields plus `buffer`
/// check-ins, `profile` profile entries, `explicit` top-set entries
/// written out (none for a prefix) and `table` pool references.
fn user_frame_len(buffer: usize, profile: usize, explicit: usize, table: usize) -> usize {
    // User id, window epoch and four RNG words; the buffer and profile
    // counts, the top-set form byte and length, and the table count; then
    // 16-byte points, 20-byte entries and 20-byte pool references.
    4 + 8 + 32 + 4 + 4 + 1 + 4 + 4 + buffer * 16 + (profile + explicit) * ENTRY_LEN + table * 20
}

/// A user frame's η-frequent set, in the form its manager stores it
/// ([`TopSet`]): the length of a profile prefix, or the entries of a set
/// stored apart.
enum FrameTopSet<'a> {
    Prefix(usize),
    Explicit(&'a [ProfileEntry]),
}

/// One user frame's fields, borrowed from live serving state
/// ([`Pools::put_user`]). The corruption tests write hand-built records
/// through the same [`put_user_frame`], so the v4 user layout is written in
/// one place.
struct UserFrame<'a> {
    user: u32,
    windows_closed: u64,
    rng_words: [u64; 4],
    buffer: &'a [Point],
    profile: &'a [ProfileEntry],
    top_set: FrameTopSet<'a>,
    table: &'a [(Point, u32)],
}

/// Writes one user frame — the one writer of the v4 user layout, behind
/// the streamed checkpoint. The flow lint models it as a sink: it
/// serializes true window state.
fn put_user_frame<B: BufMut>(buf: &mut B, frame: &UserFrame<'_>) {
    buf.put_u32(frame.user);
    buf.put_u64(frame.windows_closed);
    for word in frame.rng_words {
        buf.put_u64(word);
    }
    put_points(buf, frame.buffer.iter().copied());
    put_entries(buf, frame.profile);
    match frame.top_set {
        FrameTopSet::Prefix(k) => {
            buf.put_u8(PREFIX_FORM);
            buf.put_u32(k as u32);
        }
        FrameTopSet::Explicit(tops) => {
            buf.put_u8(EXPLICIT_FORM);
            put_entries(buf, tops);
        }
    }
    buf.put_u32(frame.table.len() as u32);
    for &(top, idx) in frame.table {
        buf.put_f64(top.x);
        buf.put_f64(top.y);
        buf.put_u32(idx);
    }
}

/// One user's checkpointed serving state. Candidate sets live in the
/// snapshot-level pool; the record holds `u32` references into it.
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
    /// The η-frequent location set, in the one canonical form a manager
    /// stores it in ([`TopSet::of`]).
    pub(crate) top_set: TopSet,
    /// The permanent obfuscation table: `(top, candidate-pool index)` —
    /// the released candidate sets whose loss would be a budget
    /// violation.
    pub(crate) table: Vec<(Point, u32)>,
}

/// The set pool of a v4 image, interned from live user states, and every
/// user's references into it.
///
/// A set that one table entry holds (no other handle to it is alive) takes
/// the next index with no lookup; a shared set — a fleet install cited by
/// several users — is found by address, so state installed fleet-wide
/// through [`crate::CandidateArena`] sharing is stored once per
/// **distinct** allocation. Indices are assigned in first-seen order over
/// the (ascending) user sequence, which keeps the image deterministic: no
/// handle outside the device changes an index.
///
/// Pass 1 ([`Pools::intern`]) classifies each reference once and records
/// its index; pass 2 ([`Pools::put_user`]) replays them. The pool borrows
/// the sets from the user states they were interned from, so no set can
/// be freed, and its address reused, while an index is live.
#[derive(Debug, Default)]
struct Pools<'d> {
    sets: Vec<&'d PosteriorTable>,
    /// Address → pool index of the shared sets; lookup only, never
    /// iterated.
    shared_sets: BTreeMap<usize, u32>,
    /// Per user, in order: the set-pool index of each table entry.
    table_refs: Vec<u32>,
    /// How many table references pass 2 has replayed.
    replayed: usize,
    /// The pool references of the user written last.
    table: Vec<(Point, u32)>,
}

impl<'d> Pools<'d> {
    /// Interns every candidate set `state` cites, records the pool index of
    /// each table entry, and returns the user's frame length — sized from
    /// stored lengths, its top-set form from the stored form, so this pass
    /// reads no location.
    fn intern(&mut self, state: &'d UserState) -> usize {
        let table = state.obfuscation.table();
        for (_, set) in table.entries() {
            let next = self.sets.len() as u32;
            let idx = if set.is_shared() {
                *self.shared_sets.entry(set.addr()).or_insert(next)
            } else {
                next
            };
            if idx == next {
                self.sets.push(set);
            }
            self.table_refs.push(idx);
        }
        let (buffer, profile, installed) = state.manager.window_lens();
        user_frame_len(buffer, profile, installed, table.len())
    }

    /// Writes the frame of `state`, the next user in pass 1's order, with
    /// the pool references pass 1 recorded for it. The one place live true
    /// state reaches [`put_user_frame`], behind the streamed checkpoint.
    fn put_user<B: BufMut>(&mut self, buf: &mut B, user: UserId, state: &UserState) {
        let entries = state.obfuscation.table().entries();
        let refs = &self.table_refs[self.replayed..];
        self.table.clear();
        self.table.extend(entries.zip(refs).map(|((t, _), &i)| (t, i)));
        self.replayed += self.table.len();
        let top_set = match state.manager.top_set_prefix() {
            Some(k) => FrameTopSet::Prefix(k),
            None => FrameTopSet::Explicit(state.manager.top_set()),
        };
        let frame = UserFrame {
            user: user.raw(),
            windows_closed: state.manager.windows_closed() as u64,
            rng_words: state.stream.state(),
            buffer: state.manager.buffered(),
            profile: state.manager.profile().entries(),
            top_set,
            table: &self.table,
        };
        // lint:allow(location-leak): the checkpoint must carry the true window state to restore bit-identically; the image is streamed on demand inside the trusted edge and its only consumers are the restore paths (DESIGN.md §12)
        put_user_frame(buf, &frame);
    }
}

/// Streams a v4 image of `edge` straight from its live state into one
/// buffer allocated once at its exact length. Pass 1 interns the set pool
/// and sums the frame lengths; pass 2 writes, replaying pass 1's
/// references.
pub(crate) fn stream_image(edge: &crate::EdgeDevice) -> Bytes {
    let mut pools = Pools::default();
    let frames: usize = edge.user_states().map(|(_, state)| pools.intern(state)).sum();
    let sets: usize = pools.sets.iter().map(|set| set_entry_len(set.len())).sum();
    let len = IMAGE_FIXED_LEN + sets + frames;
    let mut buf = BytesMut::with_capacity(len);
    put_header(&mut buf, Header::of(&edge.config(), edge.master()));
    put_sets(&mut buf, pools.sets.iter().map(|set| set.points()));
    buf.put_u32(edge.user_count() as u32);
    for (user, state) in edge.user_states() {
        pools.put_user(&mut buf, user, state);
    }
    let image = seal(buf);
    debug_assert_eq!(image.len(), len, "pass 1 sized the image exactly");
    image
}

/// A section of a v4 image, announced to an [`ImageSink`] before its
/// entries arrive.
#[derive(Debug, Clone, Copy)]
enum Section {
    Sets,
    Users,
}

/// Receives the parts of a v4 image in image order: the set pool, then
/// one record per user frame, each bounds-checked by [`read_image`].
/// [`DeviceSnapshot`] collects them; [`Restore`] builds live serving state
/// from them as they arrive. The two sinks see the same parts, so they
/// fail alike on every defect the reader finds.
trait ImageSink {
    /// Reserves for the `count` entries of the section about to arrive.
    fn reserve(&mut self, section: Section, count: usize);
    fn set(&mut self, points: impl ExactSizeIterator<Item = Point> + Clone);
    fn user(&mut self, record: UserRecord) -> Result<(), RecoveryError>;
}

/// A restore in progress: each pooled set is weighed into its
/// [`PosteriorTable`] under the restoring config's σ as it arrives, and
/// each user record becomes its [`UserState`] at once
/// ([`restore_user_owned`]).
struct Restore<'c> {
    config: &'c SystemConfig,
    selector: PosteriorSelector,
    sets: Vec<PosteriorTable>,
    users: UserMap<UserState>,
    /// The first user whose table section holds two entries within its
    /// match radius, which no device writes: [`Restore::finish`] refuses
    /// the image.
    overlapping: Option<u32>,
}

impl ImageSink for Restore<'_> {
    fn reserve(&mut self, section: Section, count: usize) {
        match section {
            Section::Sets => self.sets.reserve_exact(count),
            Section::Users => self.users.reserve(count),
        }
    }

    fn set(&mut self, points: impl ExactSizeIterator<Item = Point> + Clone) {
        self.sets.push(PosteriorTable::new(&self.selector, points));
    }

    fn user(&mut self, record: UserRecord) -> Result<(), RecoveryError> {
        let (user, entries) = (record.user, record.table.len());
        let state = restore_user_owned(record, &self.sets, self.config.top_match_radius_m())?;
        if state.obfuscation.table().len() != entries {
            self.overlapping.get_or_insert(user.raw());
        }
        self.users.insert(user, state);
        Ok(())
    }
}

impl<'c> Restore<'c> {
    fn new(config: &'c SystemConfig) -> Self {
        Restore {
            config,
            selector: PosteriorSelector::new(sigma(config)),
            sets: Vec::new(),
            users: UserMap::new(),
            overlapping: None,
        }
    }

    /// The restored users and master seed of an image read with `header`
    /// — if the header binds the restoring config's σ, match radius and
    /// selection kind, so the weights the restore computed are the ones the
    /// writing device drew from and each top is covered by the set that
    /// covered it there, and no table section overlaps. Anything else is
    /// [`RecoveryError::InvalidPosterior`] (with no user for the header),
    /// reported after any structural defect in the image, so the decoder
    /// and the restore agree on every defect the reader finds.
    fn finish(self, header: Header) -> Result<(u64, UserMap<UserState>), RecoveryError> {
        if header != Header::of(self.config, header.master) {
            return Err(RecoveryError::InvalidPosterior { user: u32::MAX });
        }
        if let Some(user) = self.overlapping {
            return Err(RecoveryError::InvalidPosterior { user });
        }
        Ok((header.master, self.users))
    }
}

/// Restores the users of a v4 image straight into live serving state,
/// reading the image once; returns its master seed with the users.
pub(crate) fn restore_image(
    config: &SystemConfig,
    buf: &[u8],
) -> Result<(u64, UserMap<UserState>), RecoveryError> {
    let mut restore = Restore::new(config);
    let header = read_image(buf, &mut restore)?;
    restore.finish(header)
}

/// Rebuilds one user's serving state from its checkpoint record: window
/// state verbatim (profile entries in their recorded order — the order is
/// load-bearing, `from_checkins` does not sort), the private RNG stream at
/// its saved position, and the obfuscation table as shared handles into
/// the restored set pool. An entry within `match_radius_m` of an earlier
/// one is dropped, as a live table drops it; the restore refuses such an
/// image ([`Restore::finish`]). The record is consumed: the check-in
/// buffer, profile, and top set move straight into the rebuilt state with
/// no intermediate clones.
fn restore_user_owned(
    record: UserRecord,
    sets: &[PosteriorTable],
    match_radius_m: f64,
) -> Result<UserState, RecoveryError> {
    let user = record.user.raw();
    let manager = LocationManager::restored(
        record.buffer,
        LocationProfile::from_ordered_entries(record.profile),
        record.top_set,
        record.windows_closed as usize,
    );
    let mut table = ObfuscationTable::default();
    table.reserve_exact(record.table.len());
    for (top, idx) in record.table {
        let set = sets.get(idx as usize).ok_or(RecoveryError::BadPoolRef { user })?;
        table.insert(top, set.clone(), match_radius_m);
    }
    let obfuscation = ObfuscationModule::from_table(table);
    // Resume the user's private stream at its exact saved position — a
    // restored shard never re-draws anything a user already received.
    let stream = StdRng::from_state(record.rng_words);
    Ok(UserState { manager, obfuscation, stream })
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
    /// The image's header: the captured device's master seed, σ, match
    /// radius and selection kind.
    pub(crate) header: Header,
    /// Distinct permanent candidate sets, in first-seen capture order.
    pub(crate) sets: Vec<Arc<[Point]>>,
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

    /// The record of `user`: a binary search, since the reader accepts
    /// user frames in ascending id order only.
    pub(crate) fn record(&self, user: UserId) -> Option<&UserRecord> {
        self.users.binary_search_by_key(&user, |r| r.user).ok().map(|i| &self.users[i])
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

    /// Decodes a v4 checkpoint image: the records of the one image reader,
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
            DeviceSnapshot { header: Header::default(), sets: Vec::new(), users: Vec::new() };
        snapshot.header = read_image(buf, &mut snapshot)?;
        Ok(snapshot)
    }
}

impl ImageSink for DeviceSnapshot {
    fn reserve(&mut self, section: Section, count: usize) {
        match section {
            Section::Sets => self.sets.reserve_exact(count),
            Section::Users => self.users.reserve_exact(count),
        }
    }

    fn set(&mut self, points: impl ExactSizeIterator<Item = Point> + Clone) {
        self.sets.push(points.collect());
    }

    fn user(&mut self, record: UserRecord) -> Result<(), RecoveryError> {
        self.users.push(record);
        Ok(())
    }
}

/// Bounds-checked big-endian reader over a borrowed log body. Counted
/// lists ([`Reader::items`]) are sub-slices of the same buffer — the reader
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

/// Reads a v4 image into `sink` and returns its header — the one reader
/// of the layout, behind [`DeviceSnapshot::decode`] and [`restore_image`].
/// The checksum is verified before any field is trusted; every part and
/// pool reference is bounds-checked before it reaches the sink; user frames
/// must come in ascending id order and each top set in its canonical form,
/// as every device writes them; and no section count is reserved for
/// beyond what the remaining bytes can hold.
fn read_image(buf: &[u8], sink: &mut impl ImageSink) -> Result<Header, RecoveryError> {
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
    r.need(HEADER_LEN - 6 + 4)?;
    let header = Header {
        master: r.get_u64()?,
        sigma: r.get_u64()?,
        radius: r.get_u64()?,
        selection: r.get_u8()?,
    };
    let radius = f64::from_bits(header.radius);
    if !(radius.is_finite() && radius > 0.0) {
        return Err(RecoveryError::InvalidRadius(radius));
    }

    let sets = r.get_u32()? as usize;
    sink.reserve(Section::Sets, sets.min(r.buf.len() / set_entry_len(0)));
    for _ in 0..sets {
        let points = r.items(16)?;
        if points.is_empty() {
            // A released set has n >= 1 points: there are no weights to draw.
            return Err(RecoveryError::InvalidPosterior { user: u32::MAX });
        }
        sink.set(points_of(points));
    }

    let users = r.get_u32()? as usize;
    sink.reserve(Section::Users, users.min(r.buf.len() / user_frame_len(0, 0, 0, 0)));
    let mut last: Option<UserId> = None;
    for _ in 0..users {
        let record = get_user(&mut r, sets)?;
        // A second frame for one user would replace the first on restore,
        // dropping its released sets; no device writes one.
        if last.is_some_and(|last| record.user <= last) {
            return Err(RecoveryError::OutOfOrderUser { user: record.user.raw() });
        }
        last = Some(record.user);
        sink.user(record)?;
    }
    r.finish()?;
    Ok(header)
}

/// Reads one user frame; its pool references must fall inside a pool of
/// `sets` entries.
fn get_user(f: &mut Reader<'_>, sets: usize) -> Result<UserRecord, RecoveryError> {
    f.need(12)?;
    let user = UserId::new(f.get_u32()?);
    let windows_closed = f.get_u64()?;
    let mut rng_words = [0u64; 4];
    for word in rng_words.iter_mut() {
        *word = f.get_u64()?;
    }
    let buffer = get_points(f)?;
    let profile = get_entries(f)?;
    let top_set = get_top_set(f, &profile, user)?;
    let table = get_refs(f, sets, user)?;
    Ok(UserRecord { user, windows_closed, rng_words, buffer, profile, top_set, table })
}

/// Reads a user frame's η-frequent set: a form byte, then the length of a
/// prefix of `profile` or the entries of a set stored apart. Only the one
/// canonical form a manager stores ([`TopSet::of`]) is accepted — a prefix
/// within the profile, explicit entries that are no prefix of it — so
/// every image read re-streams byte for byte.
fn get_top_set(
    f: &mut Reader<'_>,
    profile: &[ProfileEntry],
    user: UserId,
) -> Result<TopSet, RecoveryError> {
    let refused = RecoveryError::InvalidTopSet { user: user.raw() };
    match f.get_u8()? {
        PREFIX_FORM => match f.get_u32()? as usize {
            k if k <= profile.len() => Ok(TopSet::Prefix(k)),
            _ => Err(refused),
        },
        EXPLICIT_FORM => match TopSet::of(profile, get_entries(f)?) {
            explicit @ TopSet::Installed(_) => Ok(explicit),
            TopSet::Prefix(_) => Err(refused),
        },
        _ => Err(refused),
    }
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

fn put_points<B: BufMut>(buf: &mut B, points: impl ExactSizeIterator<Item = Point>) {
    buf.put_u32(points.len() as u32);
    for p in points {
        buf.put_f64(p.x);
        buf.put_f64(p.y);
    }
}

/// The points of a counted point list's item bytes, read in place: a
/// pooled set is built from them straight into its one allocation.
fn points_of(items: &[u8]) -> impl ExactSizeIterator<Item = Point> + Clone + '_ {
    items.chunks_exact(16).map(|mut p| Point::new(p.get_f64(), p.get_f64()))
}

/// Reads a counted point list straight into a window buffer's `Vec`,
/// allocated once at its exact length.
fn get_points(r: &mut Reader<'_>) -> Result<Vec<Point>, RecoveryError> {
    Ok(points_of(r.items(16)?).collect())
}

/// Writes a counted list of profile entries, each frequency as a `u32`: a
/// frequency counts one window's check-ins, and a window's check-in count
/// is written as a `u32` too (DESIGN.md §12).
fn put_entries<B: BufMut>(buf: &mut B, entries: &[ProfileEntry]) {
    buf.put_u32(entries.len() as u32);
    for e in entries {
        buf.put_f64(e.location.x);
        buf.put_f64(e.location.y);
        buf.put_u32(e.frequency as u32);
    }
}

fn get_entries(r: &mut Reader<'_>) -> Result<Vec<ProfileEntry>, RecoveryError> {
    Ok(r.items(ENTRY_LEN)?
        .chunks_exact(ENTRY_LEN)
        .map(|mut e| ProfileEntry {
            location: Point::new(e.get_f64(), e.get_f64()),
            frequency: e.get_u32() as usize,
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
    /// The log was written by an unknown or retired format version.
    UnsupportedVersion(u16),
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
    /// The image header's match radius is not positive and finite.
    InvalidRadius(f64),
    /// A user record references a pooled candidate set that is not present
    /// in the snapshot.
    BadPoolRef {
        /// The raw id of the affected user.
        user: u32,
    },
    /// The image's sets cannot be served as the restoring device's
    /// posterior tables: an empty pooled set, a header whose σ, match
    /// radius or selection kind is not the restoring config's, or a user
    /// table with two entries within the match radius.
    InvalidPosterior {
        /// The raw id of the affected user, or `u32::MAX` when no user
        /// owns the defect.
        user: u32,
    },
    /// A user frame's η-frequent set is not in the form a device stores
    /// it in: an unknown form byte, a prefix longer than the profile, or
    /// explicit entries equal to the profile's prefix.
    InvalidTopSet {
        /// The raw id of the affected user.
        user: u32,
    },
    /// A user frame whose id is not greater than the previous frame's:
    /// devices write their users in ascending id order, once each.
    OutOfOrderUser {
        /// The raw id of the out-of-order frame's user.
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
            RecoveryError::InvalidTopSet { user } => {
                write!(f, "user {user}'s checkpointed top set is not in its canonical form")
            }
            RecoveryError::OutOfOrderUser { user } => {
                write!(f, "user {user}'s snapshot frame is out of ascending id order")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-user image in the layout every device commits: the header of
    /// a default-config device and a user frame carrying its stream words.
    fn snapshot() -> DeviceSnapshot {
        let config = SystemConfig::builder().build().unwrap();
        DeviceSnapshot {
            header: Header::of(&config, 0xfeed),
            sets: vec![vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)].into()],
            users: vec![UserRecord {
                user: UserId::new(7),
                windows_closed: 2,
                rng_words: [9, 8, 7, 6],
                buffer: vec![Point::new(5.0, 6.0)],
                profile: vec![ProfileEntry { location: Point::new(10.0, 20.0), frequency: 30 }],
                top_set: TopSet::Prefix(1),
                table: vec![(Point::new(10.0, 20.0), 0)],
            }],
        }
    }

    impl DeviceSnapshot {
        /// Writes the snapshot as a v4 image through the production frame
        /// writers: the hand-built images the corruption tests start from.
        fn encode(&self) -> Bytes {
            let mut buf = BytesMut::new();
            put_header(&mut buf, self.header);
            put_sets(&mut buf, self.sets.iter().map(|s| s.iter().copied()));
            buf.put_u32(self.users.len() as u32);
            for r in &self.users {
                let frame = UserFrame {
                    user: r.user.raw(),
                    windows_closed: r.windows_closed,
                    rng_words: r.rng_words,
                    buffer: &r.buffer,
                    profile: &r.profile,
                    top_set: match &r.top_set {
                        TopSet::Prefix(k) => FrameTopSet::Prefix(*k),
                        TopSet::Installed(tops) => FrameTopSet::Explicit(tops),
                    },
                    table: &r.table,
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

    /// Decodes `image` and restores a default-config device from it — the
    /// one reader into its two sinks — asserts that they agree, and returns
    /// the restored device's checkpoint or the error. They agree when both
    /// refuse the image with the same error, when only the restore refuses
    /// it as [`RecoveryError::InvalidPosterior`] (the decoder binds no
    /// config and builds no table), or when the device holds the decoded
    /// user states: its snapshot is the decoded one. Errors compare by
    /// `Debug`, so a NaN radius matches itself.
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

    /// A device under `config` with three settled users, two protected tops
    /// each.
    fn settled_device(config: SystemConfig) -> crate::EdgeDevice {
        let mut edge = crate::EdgeDevice::new(config, 23);
        for u in 0..3u32 {
            let user = UserId::new(u);
            for _ in 0..30 {
                edge.report_checkin(user, Point::new(f64::from(u) * 6_000.0, 0.0));
                edge.report_checkin(user, Point::new(f64::from(u) * 6_000.0, 2_500.0));
            }
            edge.finalize_window(user);
        }
        edge
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
        open.sets.clear();
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
        let mut authority = crate::ObfuscationModule::default();
        let mechanism = NFoldGaussian::new(config.geo_ind());
        let mut arena = crate::CandidateArena::new();
        let radius = config.top_match_radius_m();
        arena.prepare(&mut authority, &mechanism, radius, &[top], 11, &mut 0);
        let mut tops = vec![ProfileEntry { location: top, frequency: 60 }];
        edge.install_protection(UserId::new(20), tops.clone(), arena.sets());
        // User 21's second top-set entry is covered by the same set.
        tops.push(ProfileEntry { location: top + Point::new(50.0, 0.0), frequency: 40 });
        edge.install_protection(UserId::new(21), tops, arena.sets());
        let image = edge.checkpoint();
        let snap = DeviceSnapshot::decode(&image).unwrap();
        let record = |u: u32| snap.record(UserId::new(u)).unwrap();
        assert_eq!(record(20).table[0].1, record(21).table[0].1, "one pooled set for both");
        assert_eq!((record(21).top_set.len(), record(21).table.len()), (2, 1));
        assert_eq!(restore_both(&image), Ok(image));
    }

    /// A fleet edge's image depends on the edge alone. A user whose merged
    /// top set has two entries under one covering set — a set the fleet's
    /// authority, its staging arena and the other edge hold too — is
    /// written as on a single device, and every edge restores from its
    /// checkpoint and re-streams it byte for byte.
    #[test]
    fn fleet_edge_checkpoints_restore_and_restream() {
        let config = SystemConfig::builder().build().unwrap();
        let sites = vec![Point::ORIGIN, Point::new(12_000.0, 0.0)];
        let mut fleet = crate::EdgeFleet::new(config, sites, 31);
        let user = UserId::new(3);
        let home = Point::new(2_000.0, -1_000.0);
        for _ in 0..40 {
            fleet.report_checkin(user, home);
        }
        fleet.finalize_user_window(user);
        let (west, east) = (home + Point::new(-120.0, 0.0), home + Point::new(120.0, 0.0));
        for _ in 0..30 {
            fleet.report_checkin(user, west);
            fleet.report_checkin(user, east);
        }
        fleet.finalize_user_window(user);
        let _ = fleet.reported_location(user, west);
        for i in 0..fleet.len() {
            let image = fleet.edge(i).checkpoint();
            let snap = DeviceSnapshot::decode(&image).unwrap();
            let record = snap.record(user).unwrap();
            assert_eq!((record.top_set.len(), record.table.len()), (2, 1), "edge {i}");
            let restored = crate::EdgeDevice::restore_from_checkpoint(config, &image).unwrap();
            assert_eq!(restored.checkpoint(), image, "edge {i}");
        }
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

        // A user whose first window is still open: no table.
        let mut open = snapshot();
        open.users[0].table.clear();
        assert_eq!(DeviceSnapshot::decode(&open.encode()).unwrap(), open);
    }

    #[test]
    fn per_user_stream_log_round_trips() {
        // The master and each user's own stream position survive the
        // log independently: users at different positions of their
        // streams come back at exactly those positions.
        let mut snap = snapshot();
        snap.header.master = 0xbeef;
        let mut second = snap.users[0].clone();
        second.user = UserId::new(8);
        second.rng_words = [1, 2, 3, 4];
        snap.users.push(second);
        let log = snap.encode();
        let back = DeviceSnapshot::decode(&log).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.header.master, 0xbeef);
        assert_eq!(back.users[0].rng_words, [9, 8, 7, 6]);
        assert_eq!(back.users[1].rng_words, [1, 2, 3, 4]);
        // After magic and version the header holds the master, σ's bits,
        // the match radius's bits and the selection byte (0: posterior),
        // then the set count.
        let config = SystemConfig::builder().build().unwrap();
        assert_eq!(log[6..14], 0xbeef_u64.to_be_bytes());
        assert_eq!(log[14..22], sigma(&config).to_bits().to_be_bytes());
        assert_eq!(log[22..30], config.top_match_radius_m().to_bits().to_be_bytes());
        assert_eq!(log[30..HEADER_LEN + 4], [0, 0, 0, 0, 1]);
        // The first user frame follows the pool (one two-point set) and the
        // user count: its id, then its window epoch.
        let frame = HEADER_LEN + 4 + set_entry_len(2) + 4;
        assert_eq!(log[frame..frame + 4], 7u32.to_be_bytes());
        assert_eq!(log[frame + 4..frame + 12], 2u64.to_be_bytes());
    }

    #[test]
    fn shared_sets_are_pooled_once() {
        // Two users sharing one candidate set: the pool stays at length 1
        // and the encoded log carries the payload once.
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
            let mut second = solo.users[0].clone();
            second.user = UserId::new(8);
            second.table = vec![(top, 1)];
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
        // The retired v1, v2 and v3 layouts are refused by their version
        // field.
        for retired in [1, 2, 3] {
            let mut bad = log.clone();
            bad[5] = retired;
            assert_eq!(
                decode_err(&restamp(bad)),
                RecoveryError::UnsupportedVersion(u16::from(retired))
            );
        }
        let mut bad = log;
        bad.splice(bad.len() - 8..bad.len() - 8, [0u8]);
        assert!(matches!(
            DeviceSnapshot::decode(&restamp(bad)),
            Err(RecoveryError::TrailingBytes(_) | RecoveryError::Truncated)
        ));
    }

    #[test]
    fn corrupt_frames_are_structural_errors() {
        // Byte offset of the first pooled set's point count: the header
        // plus set_count(4). Every case is refused alike by the decoder
        // and by the restore (`decode_err`).
        let count_at = HEADER_LEN + 4;
        let log = snapshot().encode().to_vec();

        // A point count pointing past the end of the buffer.
        let mut bad = log.clone();
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode_err(&restamp(bad)), RecoveryError::Truncated));

        // A point count one past its content: the set swallows the next
        // section's bytes, and what follows no longer parses.
        let mut bad = log.clone();
        let declared = u32::from_be_bytes(bad[count_at..count_at + 4].try_into().unwrap());
        bad[count_at..count_at + 4].copy_from_slice(&(declared + 1).to_be_bytes());
        decode_err(&restamp(bad));

        // A pool reference past the pool bounds.
        let mut snap = snapshot();
        snap.users[0].table[0].1 = 5;
        assert!(matches!(decode_err(&snap.encode()), RecoveryError::BadPoolRef { user: 7 }));

        // A header match radius that could not look a top up.
        let mut snap = snapshot();
        snap.header.radius = f64::NAN.to_bits();
        assert!(matches!(
            decode_err(&snap.encode()),
            RecoveryError::InvalidRadius(r) if r.is_nan()
        ));

        // An empty pooled set has no weights to draw: both sinks refuse it.
        let mut snap = snapshot();
        snap.sets[0] = Vec::new().into();
        let err = RecoveryError::InvalidPosterior { user: u32::MAX };
        assert_eq!(decode_err(&snap.encode()), err);

        // A structural defect in a later frame is the error reported, not
        // the defects only the restore refuses before it: a header of
        // another σ and an overlapping table in the first frame.
        let mut snap = snapshot();
        snap.header.sigma ^= 1;
        let mut later = snap.users[0].clone();
        later.user = UserId::new(8);
        later.top_set = TopSet::Prefix(2);
        snap.users[0].table.push((Point::new(60.0, 20.0), 0));
        snap.users.push(later);
        assert_eq!(decode_err(&snap.encode()), RecoveryError::InvalidTopSet { user: 8 });
    }

    /// A top set reads back in the form it was written in — a prefix of
    /// the profile, or explicit entries that are not one — and an image in
    /// any form a manager would not store is refused by both sinks: an
    /// explicit set equal to the profile's prefix, a prefix past the
    /// profile's end, and an unknown form byte.
    #[test]
    fn top_sets_are_read_in_their_canonical_form() {
        let profile = snapshot().users[0].profile.clone();
        let merged = vec![ProfileEntry { frequency: 95, ..profile[0] }];
        for form in [TopSet::Prefix(0), TopSet::Prefix(1), TopSet::Installed(merged.into())] {
            let mut snap = snapshot();
            snap.users[0].top_set = form;
            let image = snap.encode();
            assert_eq!(DeviceSnapshot::decode(&image).unwrap(), snap);
            assert_eq!(restore_both(&image), Ok(image));
        }
        let refused = RecoveryError::InvalidTopSet { user: 7 };
        for form in [TopSet::Installed(profile.into()), TopSet::Prefix(2)] {
            let mut snap = snapshot();
            snap.users[0].top_set = form;
            assert_eq!(decode_err(&snap.encode()), refused);
        }
        // The form byte sits after the profile: id, epoch, stream words,
        // the one-point buffer and the one-entry profile.
        let form_at = HEADER_LEN + 4 + set_entry_len(2) + 4 + 44 + 4 + 16 + 4 + ENTRY_LEN;
        let mut bad = snapshot().encode().to_vec();
        assert_eq!(bad[form_at..form_at + 5], [PREFIX_FORM, 0, 0, 0, 1]);
        bad[form_at] = 2;
        assert_eq!(decode_err(&restamp(bad)), refused);
    }

    /// Devices write their users in ascending id order, once each. A
    /// duplicated frame — which a restore would resolve by keeping the
    /// later one and forgetting the released sets of the earlier — and two
    /// swapped frames are refused by both sinks, naming the frame out of
    /// order.
    #[test]
    fn user_frames_out_of_order_are_refused() {
        let mut two = snapshot();
        let mut second = two.users[0].clone();
        second.user = UserId::new(9);
        second.rng_words = [1, 2, 3, 4];
        two.users.push(second);
        let image = two.encode();
        assert_eq!(restore_both(&image), Ok(image));
        let mut duplicated = two.clone();
        duplicated.users[1].user = UserId::new(7);
        let err = RecoveryError::OutOfOrderUser { user: 7 };
        assert_eq!(decode_err(&duplicated.encode()), err);
        let mut swapped = two.clone();
        swapped.users.swap(0, 1);
        assert_eq!(decode_err(&swapped.encode()), err);
    }

    /// The header binds σ, the match radius and the selection kind: an
    /// image a default-config device wrote is refused under ε = 1.5
    /// (another σ), under a 300 m match radius and under uniform selection,
    /// and a uniform device's image under posterior selection; under the
    /// writer's config each restores and re-streams byte for byte.
    #[test]
    fn restore_refuses_an_image_of_another_sigma_or_selection() {
        let config = SystemConfig::builder().build().unwrap();
        let wider = SystemConfig::builder().epsilon(1.5).build().unwrap();
        let farther = SystemConfig::builder().top_match_radius_m(300.0).build().unwrap();
        let uniform = SystemConfig::builder().selection(SelectionKind::Uniform).build().unwrap();
        assert_ne!(sigma(&wider).to_bits(), sigma(&config).to_bits());
        assert_eq!(sigma(&farther).to_bits(), sigma(&config).to_bits());
        let refused = RecoveryError::InvalidPosterior { user: u32::MAX };
        let image = settled_device(config).checkpoint();
        assert_eq!(restore_both(&image), Ok(image.clone()));
        for other in [wider, farther, uniform] {
            let err = crate::EdgeDevice::restore_from_checkpoint(other, &image).err();
            assert_eq!(err, Some(refused.clone()));
        }
        let image = settled_device(uniform).checkpoint();
        let restored = crate::EdgeDevice::restore_from_checkpoint(uniform, &image).unwrap();
        assert_eq!(restored.checkpoint(), image);
        assert_eq!(restore_both(&image), Err(format!("{refused:?}")));
    }

    /// A table section with two entries within the match radius, which no
    /// device writes (a live table keeps the first), is refused, naming
    /// the user, instead of restoring with the second entry dropped. An
    /// entry beyond the radius is a second protected top and restores.
    #[test]
    fn restore_refuses_overlapping_table_entries() {
        let mut snap = snapshot();
        snap.users[0].table.push((Point::new(60.0, 20.0), 0));
        let err = RecoveryError::InvalidPosterior { user: 7 };
        assert_eq!(restore_both(&snap.encode()), Err(format!("{err:?}")));
        snap.users[0].table[1].0 = Point::new(10_000.0, 20.0);
        let image = snap.encode();
        assert_eq!(restore_both(&image), Ok(image));
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
            RecoveryError::ChecksumMismatch { stored: 1, computed: 2 },
            RecoveryError::TrailingBytes(3),
            RecoveryError::InvalidRadius(f64::NAN),
            RecoveryError::BadPoolRef { user: 6 },
            RecoveryError::InvalidPosterior { user: 4 },
            RecoveryError::InvalidTopSet { user: 3 },
            RecoveryError::OutOfOrderUser { user: 2 },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
    }
}
