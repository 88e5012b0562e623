use privlocad_attack::{LocationProfile, ProfileEntry};
use privlocad_geo::Point;
use serde::{Deserialize, Serialize};

use crate::EtaThreshold;

/// Computes the η-frequent location set (Definition 6, Algorithm 2): the
/// minimal prefix of the frequency-ordered profile whose cumulative
/// frequency reaches the resolved η.
///
/// Returns the whole profile if even that does not reach η (e.g. η larger
/// than the window's total check-ins).
///
/// # Examples
///
/// ```
/// use privlocad::{frequent_location_set, EtaThreshold};
/// use privlocad_attack::{LocationProfile, ProfileEntry};
/// use privlocad_geo::Point;
///
/// let profile = LocationProfile::from_entries([
///     ProfileEntry { location: Point::new(0.0, 0.0), frequency: 70 },
///     ProfileEntry { location: Point::new(9_000.0, 0.0), frequency: 20 },
///     ProfileEntry { location: Point::new(0.0, 9_000.0), frequency: 10 },
/// ]);
/// let tops = frequent_location_set(&profile, EtaThreshold::Fraction(0.85));
/// assert_eq!(tops.len(), 2); // 70 + 20 = 90 ≥ 85
/// ```
pub fn frequent_location_set(profile: &LocationProfile, eta: EtaThreshold) -> Vec<ProfileEntry> {
    profile.entries()[..frequent_prefix_len(profile, eta)].to_vec()
}

/// How many entries the η-frequent prefix of `profile` holds
/// ([`frequent_location_set`]'s length).
fn frequent_prefix_len(profile: &LocationProfile, eta: EtaThreshold) -> usize {
    let target = eta.resolve(profile.total_checkins());
    let mut total = 0usize;
    for (i, entry) in profile.iter().enumerate() {
        total += entry.frequency;
        if total >= target {
            return i + 1;
        }
    }
    profile.len()
}

/// Where a manager keeps its η-frequent set.
///
/// A window close computes the set as a prefix of the profile it just
/// built, so it stores only the prefix length. A fleet install of a merged
/// set that is not such a prefix keeps its own exact-size copy. A
/// checkpoint writes the set in the same form (DESIGN.md §12).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum TopSet {
    /// The profile's first `k` entries.
    Prefix(usize),
    /// Entries that are not a prefix of the profile.
    Installed(Box<[ProfileEntry]>),
}

impl Default for TopSet {
    fn default() -> Self {
        TopSet::Prefix(0)
    }
}

impl TopSet {
    /// The one canonical form of `tops` over `profile`: the prefix length
    /// when `tops` equals the profile's first entries bit for bit, an
    /// exact-size copy otherwise. Every stored set goes through here, and a
    /// checkpoint reader refuses any set it would not store this way, so
    /// equal window states compare equal and re-stream the same bytes.
    pub(crate) fn of(profile: &[ProfileEntry], tops: Vec<ProfileEntry>) -> TopSet {
        let bits = |e: &ProfileEntry| (e.location.x.to_bits(), e.location.y.to_bits(), e.frequency);
        let prefix = profile.get(..tops.len());
        if prefix.is_some_and(|p| p.iter().map(bits).eq(tops.iter().map(bits))) {
            TopSet::Prefix(tops.len())
        } else {
            TopSet::Installed(tops.into_boxed_slice())
        }
    }

    /// How many entries the set holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match self {
            TopSet::Prefix(k) => *k,
            TopSet::Installed(tops) => tops.len(),
        }
    }
}

/// The location-management module of one user on the edge device.
///
/// Buffers the current window's check-ins; on window end
/// ([`LocationManager::finalize_window`]) rebuilds the profile and the
/// η-frequent location set, which it keeps as the length of the profile
/// prefix it is. The set is re-computed periodically "since users will
/// possibly (although not frequently) change their top locations in real
/// life" (Section V-B).
///
/// A manager holds only its user's window state: θ and η are the device's,
/// passed to each window close.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LocationManager {
    buffer: Vec<Point>,
    profile: LocationProfile,
    top_set: TopSet,
    windows_closed: usize,
}

impl LocationManager {
    /// Buffers one true-location check-in for the current window.
    ///
    /// A full buffer grows by a quarter (at least 8 check-ins), not by
    /// doubling: a device holds thousands of open windows at once, and
    /// doubling leaves each up to half empty.
    pub fn record(&mut self, location: Point) {
        if self.buffer.len() == self.buffer.capacity() {
            self.buffer.reserve_exact((self.buffer.len() / 4).max(8));
        }
        self.buffer.push(location);
    }

    /// Number of check-ins buffered in the current (open) window.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// The current window's buffered check-ins, oldest first — serialized
    /// by crash recovery so a restored device resumes the open window with
    /// nothing lost.
    pub(crate) fn buffered(&self) -> &[Point] {
        &self.buffer
    }

    /// How many check-ins are buffered, profile entries recorded and
    /// η-frequent entries stored apart from the profile (none for a
    /// prefix) — the shape a checkpoint frame is sized by, read without
    /// touching a location.
    pub(crate) fn window_lens(&self) -> (usize, usize, usize) {
        let installed = if let TopSet::Installed(tops) = &self.top_set { tops.len() } else { 0 };
        (self.buffer.len(), self.profile.len(), installed)
    }

    /// The η-frequent set's prefix length when it is stored as the
    /// profile's first entries, `None` when it is stored apart — the form a
    /// checkpoint writes it in, read without touching a location.
    pub(crate) fn top_set_prefix(&self) -> Option<usize> {
        match self.top_set {
            TopSet::Prefix(k) => Some(k),
            TopSet::Installed(_) => None,
        }
    }

    /// Bytes of window state this manager stores: the buffered check-ins,
    /// the profile entries and, when it is not a profile prefix, the
    /// η-frequent set — counted by length, read without touching a
    /// location.
    pub(crate) fn stored_bytes(&self) -> usize {
        let (buffer, profile, installed) = self.window_lens();
        buffer * size_of::<Point>() + (profile + installed) * size_of::<ProfileEntry>()
    }

    /// A manager holding checkpointed window state: the open window's
    /// buffer, the last computed profile (in its recorded entry order),
    /// the η-frequent set in the form the checkpoint reader checked is
    /// canonical ([`TopSet::of`]), and the window epoch.
    pub(crate) fn restored(
        buffer: Vec<Point>,
        profile: LocationProfile,
        top_set: TopSet,
        windows_closed: usize,
    ) -> Self {
        LocationManager { buffer, profile, top_set, windows_closed }
    }

    /// Closes the window: rebuilds the profile from the buffered check-ins
    /// at profiling threshold `theta_m` (meters) and recomputes the
    /// η-frequent location set under `eta`. Returns the new set.
    ///
    /// The closed window's buffer is freed, not cleared: a device holds
    /// thousands of users between windows, and each kept buffer would pin
    /// its high-water capacity until the user's next window fills it.
    ///
    /// An empty window leaves the previous profile in place.
    ///
    /// # Panics
    ///
    /// Panics if `theta_m` is not positive and finite while check-ins are
    /// buffered ([`LocationProfile::from_checkins`]).
    pub fn finalize_window(&mut self, theta_m: f64, eta: EtaThreshold) -> &[ProfileEntry] {
        if !self.buffer.is_empty() {
            self.profile = LocationProfile::from_checkins(&self.buffer, theta_m);
            self.top_set = TopSet::Prefix(frequent_prefix_len(&self.profile, eta));
            self.buffer = Vec::new();
        }
        self.windows_closed += 1;
        self.top_set()
    }

    /// The current η-frequent location set (empty before the first window
    /// closes).
    pub fn top_set(&self) -> &[ProfileEntry] {
        match &self.top_set {
            TopSet::Prefix(k) => &self.profile.entries()[..*k],
            TopSet::Installed(tops) => tops,
        }
    }

    /// The last computed profile.
    pub fn profile(&self) -> &LocationProfile {
        &self.profile
    }

    /// How many windows have been finalized.
    pub fn windows_closed(&self) -> usize {
        self.windows_closed
    }

    /// Replaces the current η-frequent location set.
    ///
    /// Used by the multi-edge flow of Section V-B: each edge records only a
    /// *local* part of the profile; after the partial profiles are merged,
    /// the merged top set is installed back into every edge serving the
    /// user so any of them answers ad requests consistently.
    ///
    /// A set equal, bit for bit, to the first entries of this manager's
    /// profile is stored as that prefix; any other keeps an exact-size
    /// copy.
    pub fn set_top_set(&mut self, tops: Vec<ProfileEntry>) {
        self.top_set = TopSet::of(self.profile.entries(), tops);
    }

    /// Finds the top location nearest to `location` within `match_radius_m`
    /// meters, if any — the edge's check for "is the user at a protected
    /// top location right now?".
    pub fn matching_top(&self, location: Point, match_radius_m: f64) -> Option<Point> {
        // Serving hot path: one squared distance per entry, no sqrt. The
        // first strictly-nearest entry wins, matching the old
        // filter + min_by pass.
        let radius_sq = match_radius_m * match_radius_m;
        let mut best: Option<(f64, Point)> = None;
        for entry in self.top_set() {
            let d_sq = entry.location.distance_sq(location);
            if d_sq <= radius_sq && best.is_none_or(|(b, _)| d_sq < b) {
                best = Some((d_sq, entry.location));
            }
        }
        best.map(|(_, top)| top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiling threshold every test closes its windows at.
    const THETA: f64 = 50.0;

    fn entry(x: f64, f: usize) -> ProfileEntry {
        ProfileEntry { location: Point::new(x, 0.0), frequency: f }
    }

    #[test]
    fn frequent_set_minimal_prefix() {
        let p = LocationProfile::from_entries([entry(0.0, 50), entry(1.0, 30), entry(2.0, 20)]);
        assert_eq!(frequent_location_set(&p, EtaThreshold::Count(50)).len(), 1);
        assert_eq!(frequent_location_set(&p, EtaThreshold::Count(51)).len(), 2);
        assert_eq!(frequent_location_set(&p, EtaThreshold::Count(80)).len(), 2);
        assert_eq!(frequent_location_set(&p, EtaThreshold::Count(81)).len(), 3);
    }

    #[test]
    fn frequent_set_with_fraction() {
        let p = LocationProfile::from_entries([entry(0.0, 70), entry(1.0, 20), entry(2.0, 10)]);
        assert_eq!(frequent_location_set(&p, EtaThreshold::Fraction(0.7)).len(), 1);
        assert_eq!(frequent_location_set(&p, EtaThreshold::Fraction(0.9)).len(), 2);
        assert_eq!(frequent_location_set(&p, EtaThreshold::Fraction(1.0)).len(), 3);
    }

    #[test]
    fn unreachable_eta_returns_everything() {
        let p = LocationProfile::from_entries([entry(0.0, 5)]);
        assert_eq!(frequent_location_set(&p, EtaThreshold::Count(100)).len(), 1);
    }

    #[test]
    fn empty_profile_empty_set() {
        let p = LocationProfile::default();
        assert!(frequent_location_set(&p, EtaThreshold::Count(1)).is_empty());
    }

    #[test]
    fn manager_window_lifecycle() {
        let mut m = LocationManager::default();
        assert!(m.top_set().is_empty());
        assert_eq!(m.pending(), 0);
        for _ in 0..80 {
            m.record(Point::new(0.0, 0.0));
        }
        for _ in 0..20 {
            m.record(Point::new(9_000.0, 0.0));
        }
        assert_eq!(m.pending(), 100);
        let tops = m.finalize_window(THETA, EtaThreshold::Fraction(0.8)).to_vec();
        assert_eq!(m.pending(), 0);
        assert_eq!(m.windows_closed(), 1);
        assert_eq!(tops.len(), 1); // 80 ≥ 0.8·100
        assert!(tops[0].location.distance(Point::ORIGIN) < 1.0);
        assert_eq!(m.profile().len(), 2);
    }

    #[test]
    fn closed_window_frees_its_buffer() {
        let fill = |m: &mut LocationManager, x: f64| {
            for i in 0..200 {
                m.record(Point::new(x + f64::from(i % 7) * 10.0, 0.0));
            }
            for _ in 0..50 {
                m.record(Point::new(x + 9_000.0, 0.0));
            }
        };
        let mut m = LocationManager::default();
        fill(&mut m, 0.0);
        m.finalize_window(THETA, EtaThreshold::Fraction(0.8));
        assert_eq!(m.buffer.capacity(), 0, "a closed window owns no allocation");
        // A refilled window profiles exactly like a fresh manager's.
        fill(&mut m, 30_000.0);
        let mut fresh = LocationManager::default();
        fill(&mut fresh, 30_000.0);
        assert_eq!(
            m.finalize_window(THETA, EtaThreshold::Fraction(0.8)),
            fresh.finalize_window(THETA, EtaThreshold::Fraction(0.8))
        );
        assert_eq!(m.profile(), fresh.profile());
        assert_eq!(m.buffer.capacity(), 0);
    }

    /// Over a long window the buffer's capacity stays within a quarter
    /// (plus 8 check-ins) of what it holds.
    #[test]
    fn open_window_grows_by_a_quarter() {
        let mut m = LocationManager::default();
        for i in 0..50_000 {
            m.record(Point::new(f64::from(i % 97) * 10.0, 0.0));
            let (len, cap) = (m.buffer.len(), m.buffer.capacity());
            assert!(4 * cap <= 5 * len + 32, "capacity {cap} for {len} check-ins");
        }
    }

    /// A manager with a three-place profile and a two-entry η-prefix.
    fn settled() -> LocationManager {
        let mut m = LocationManager::default();
        for (x, n) in [(0.0, 60), (9_000.0, 30), (20_000.0, 10)] {
            for _ in 0..n {
                m.record(Point::new(x, 0.0));
            }
        }
        m.finalize_window(THETA, EtaThreshold::Fraction(0.8));
        m
    }

    #[test]
    fn closed_window_top_set_is_a_profile_prefix() {
        let m = settled();
        assert_eq!(m.top_set, TopSet::Prefix(2));
        let (tops, entries) = (m.top_set().as_ptr_range(), m.profile().entries().as_ptr_range());
        assert!(entries.start == tops.start && tops.end <= entries.end, "inside the profile");
        assert_eq!(m.top_set(), frequent_location_set(m.profile(), EtaThreshold::Fraction(0.8)));
    }

    #[test]
    fn installed_top_sets_are_stored_canonically() {
        let mut m = settled();
        let prefix = m.profile().entries()[..1].to_vec();
        m.set_top_set(prefix.clone());
        assert_eq!(m.top_set, TopSet::Prefix(1), "a prefix is stored as its length");
        assert_eq!(m.top_set(), prefix);
        // The same place with another count (a merged profile's) is not.
        let merged = vec![ProfileEntry { frequency: 95, ..prefix[0] }];
        m.set_top_set(merged.clone());
        assert_eq!(m.top_set, TopSet::Installed(merged.clone().into_boxed_slice()));
        assert_eq!(m.top_set(), merged);
        // Equal as floats is not enough: -0.0 would re-stream other bytes.
        let signed = ProfileEntry { location: Point::new(-0.0, 0.0), ..prefix[0] };
        assert_eq!(signed, prefix[0]);
        m.set_top_set(vec![signed]);
        assert!(matches!(m.top_set, TopSet::Installed(_)));
        m.set_top_set(vec![]);
        assert!(m.top_set().is_empty());
        assert_eq!(m.top_set, TopSet::Prefix(0));
    }

    #[test]
    fn empty_window_keeps_previous_profile() {
        let mut m = LocationManager::default();
        m.record(Point::ORIGIN);
        m.finalize_window(THETA, EtaThreshold::Fraction(0.5));
        let before = m.top_set().to_vec();
        m.finalize_window(THETA, EtaThreshold::Fraction(0.5)); // nothing buffered
        assert_eq!(m.top_set(), before.as_slice());
        assert_eq!(m.windows_closed(), 2);
    }

    #[test]
    fn new_window_replaces_profile() {
        let mut m = LocationManager::default();
        for _ in 0..10 {
            m.record(Point::new(0.0, 0.0));
        }
        m.finalize_window(THETA, EtaThreshold::Fraction(0.9));
        assert!(m.matching_top(Point::ORIGIN, 200.0).is_some());
        // User moved: next window is all at a new home.
        for _ in 0..10 {
            m.record(Point::new(20_000.0, 0.0));
        }
        m.finalize_window(THETA, EtaThreshold::Fraction(0.9));
        assert!(m.matching_top(Point::ORIGIN, 200.0).is_none());
        assert!(m.matching_top(Point::new(20_000.0, 0.0), 200.0).is_some());
    }

    #[test]
    fn matching_top_picks_nearest() {
        let mut m = LocationManager::default();
        for _ in 0..10 {
            m.record(Point::new(0.0, 0.0));
        }
        for _ in 0..10 {
            m.record(Point::new(300.0, 0.0));
        }
        m.finalize_window(THETA, EtaThreshold::Fraction(1.0));
        let top = m.matching_top(Point::new(290.0, 0.0), 200.0).unwrap();
        assert!(top.distance(Point::new(300.0, 0.0)) < 1.0);
        assert!(m.matching_top(Point::new(150.0, 5_000.0), 200.0).is_none());
    }
}
