//! Per-user serving state of an [`crate::EdgeDevice`]: the location
//! manager, the permanent obfuscation table (each set with its posterior
//! weights), and the user's private RNG stream.

use privlocad_geo::Point;
use privlocad_mechanisms::{
    BatchScratch, CandidateLanes, NFoldGaussian, PlanarLaplace, UniformSelector,
};
use privlocad_mobility::UserId;
use rand::rngs::StdRng;

use crate::{LocationManager, ObfuscationModule, SelectionKind, SystemConfig};

/// A user-keyed directory backed by parallel sorted vectors: binary search
/// over a dense `UserId` array beats a `BTreeMap` walk on the per-request
/// serving path, and iteration stays in ascending user order (the same
/// deterministic order the old tree map gave).
///
/// Keys live apart from the (large) slots so every probe of the search
/// touches the same few cache lines instead of striding across full user
/// states.
#[derive(Debug, Clone, Default)]
pub(crate) struct UserMap<S> {
    keys: Vec<UserId>,
    slots: Vec<S>,
    /// Dense raw-id → slot + 1 fast path (0 = absent). Edge deployments
    /// hand out small sequential user ids, so the common lookup is one
    /// bounds-checked load; sparse ids past [`DENSE_INDEX_CAP`] simply
    /// fall back to the binary search.
    index: Vec<u32>,
}

/// Largest raw user id kept in the dense lookup index (4 MiB worst case).
const DENSE_INDEX_CAP: usize = 1 << 20;

impl<S> UserMap<S> {
    pub(crate) fn new() -> Self {
        UserMap { keys: Vec::new(), slots: Vec::new(), index: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Reserves room for exactly `additional` more users.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.keys.reserve_exact(additional);
        self.slots.reserve_exact(additional);
    }

    fn position(&self, user: UserId) -> Result<usize, usize> {
        let raw = user.raw() as usize;
        if raw < self.index.len() {
            let slot = self.index[raw];
            if slot != 0 {
                return Ok((slot - 1) as usize);
            }
        }
        self.keys.binary_search(&user)
    }

    pub(crate) fn get(&self, user: UserId) -> Option<&S> {
        self.position(user).ok().map(|i| &self.slots[i])
    }

    pub(crate) fn get_mut(&mut self, user: UserId) -> Option<&mut S> {
        self.position(user).ok().map(|i| &mut self.slots[i])
    }

    /// The user's slot, created with `init` on first sight.
    pub(crate) fn entry_or_insert_with(
        &mut self,
        user: UserId,
        init: impl FnOnce() -> S,
    ) -> &mut S {
        let idx = match self.position(user) {
            Ok(i) => i,
            Err(i) => {
                self.insert_at(i, user, init());
                i
            }
        };
        &mut self.slots[idx]
    }

    /// Stores `slot` as the user's, replacing any existing one.
    pub(crate) fn insert(&mut self, user: UserId, slot: S) {
        match self.position(user) {
            Ok(i) => self.slots[i] = slot,
            Err(i) => self.insert_at(i, user, slot),
        }
    }

    fn insert_at(&mut self, i: usize, user: UserId, slot: S) {
        self.keys.insert(i, user);
        self.slots.insert(i, slot);
        let raw = user.raw() as usize;
        if raw < DENSE_INDEX_CAP && self.index.len() <= raw {
            self.index.resize(raw + 1, 0);
        }
        // The insert shifted every later slot by one (inserts happen once
        // per user).
        self.repoint_from(i);
    }

    /// Removes the user's slot, if any — how a rolled-back batch forgets
    /// a first contact.
    pub(crate) fn remove(&mut self, user: UserId) -> Option<S> {
        let i = self.position(user).ok()?;
        self.keys.remove(i);
        let slot = self.slots.remove(i);
        if let Some(entry) = self.index.get_mut(user.raw() as usize) {
            *entry = 0;
        }
        // The removal shifted every later slot back by one.
        self.repoint_from(i);
        Some(slot)
    }

    /// Re-points the dense index at every slot from position `i` on.
    fn repoint_from(&mut self, i: usize) {
        for (pos, key) in self.keys.iter().enumerate().skip(i) {
            let r = key.raw() as usize;
            if r < self.index.len() {
                self.index[r] = (pos + 1) as u32;
            }
        }
    }

    /// All known users, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = UserId> + '_ {
        self.keys.iter().copied()
    }

    /// All slots, in ascending user order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &S> {
        self.slots.iter()
    }
}

#[cfg(test)]
mod usermap_tests {
    use super::*;

    #[test]
    fn dense_and_sparse_ids_stay_consistent_across_inserts() {
        let mut map: UserMap<u64> = UserMap::new();
        // Out-of-order inserts, including an id past the dense-index cap.
        for raw in [7u32, 3, u32::MAX, 5, 0, 1 << 21] {
            let slot = map.entry_or_insert_with(UserId::new(raw), || u64::from(raw));
            assert_eq!(*slot, u64::from(raw));
        }
        assert_eq!(map.len(), 6);
        for raw in [0u32, 3, 5, 7, 1 << 21, u32::MAX] {
            assert_eq!(map.get(UserId::new(raw)), Some(&u64::from(raw)), "raw {raw}");
            *map.get_mut(UserId::new(raw)).unwrap() += 1;
        }
        assert_eq!(map.get(UserId::new(2)), None);
        assert_eq!(map.get(UserId::new(8)), None);
        // Iteration is ascending by user id regardless of insert order.
        let keys: Vec<u32> = map.keys().map(|u| u.raw()).collect();
        assert_eq!(keys, vec![0, 3, 5, 7, 1 << 21, u32::MAX]);
        let values: Vec<u64> = map.values().copied().collect();
        assert_eq!(values, vec![1, 4, 6, 8, (1 << 21) + 1, u64::from(u32::MAX) + 1]);
        for user in map.keys().collect::<Vec<_>>() {
            *map.get_mut(user).unwrap() = 0;
        }
        assert!(map.values().all(|&v| v == 0));
        // `insert` replaces an existing slot and places a new one in order.
        map.insert(UserId::new(5), 50);
        map.insert(UserId::new(2), 20);
        assert_eq!(map.get(UserId::new(5)), Some(&50));
        assert_eq!(map.get(UserId::new(2)), Some(&20));
        assert_eq!(map.keys().nth(1), Some(UserId::new(2)));
        assert_eq!(map.len(), 7);
        // `remove` drops a dense and a sparse id; every other lookup still
        // lands on its own slot, and a re-insert goes back in order.
        assert_eq!(map.remove(UserId::new(2)), Some(20));
        assert_eq!(map.remove(UserId::new(1 << 21)), Some(0));
        assert_eq!(map.remove(UserId::new(2)), None);
        assert_eq!(map.remove(UserId::new(4)), None);
        assert_eq!(map.len(), 5);
        for (raw, value) in [(0u32, 0u64), (3, 0), (5, 50), (7, 0), (u32::MAX, 0)] {
            assert_eq!(map.get(UserId::new(raw)), Some(&value), "raw {raw}");
        }
        assert_eq!(map.get(UserId::new(2)), None);
        assert_eq!(map.get(UserId::new(1 << 21)), None);
        map.insert(UserId::new(2), 21);
        let keys: Vec<u32> = map.keys().map(|u| u.raw()).collect();
        assert_eq!(keys, vec![0, 2, 3, 5, 7, u32::MAX]);
        assert_eq!(map.get(UserId::new(5)), Some(&50));
    }
}

/// Per-request serving observations, accumulated into the caller's
/// scratch and folded into the device's telemetry stats. Plain counters —
/// the request path is single-threaded per user slot, so no atomics (and
/// the `telemetry-hygiene` lint rule bans them here anyway).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RequestStats {
    /// Posterior draws from a set whose weights were already stored.
    pub(crate) cache_hits: u64,
    /// Posterior draws from a set the request itself had to draw, and
    /// weigh, first.
    pub(crate) cache_misses: u64,
    /// Draws answered from a permanent candidate set via posterior
    /// selection.
    pub(crate) posterior_draws: u64,
    /// Draws answered from a permanent candidate set via the uniform
    /// ablation selector.
    pub(crate) uniform_draws: u64,
    /// Draws answered by the one-time planar-Laplace fallback.
    pub(crate) nomadic_draws: u64,
}

/// One user's state on an edge device: only what is the user's own. θ, η,
/// the match radius and the n-fold mechanism are the device's, passed to
/// every call that needs them.
#[derive(Debug, Clone)]
pub(crate) struct UserState {
    pub(crate) manager: LocationManager,
    /// The permanent candidate sets, each stored with its posterior
    /// cumulative weights.
    pub(crate) obfuscation: ObfuscationModule,
    /// The user's private RNG stream: every draw serving this user comes
    /// from it, so the user's outputs never depend on other users'
    /// operations on the same device.
    pub(crate) stream: StdRng,
}

/// A device holds one `UserState` per user: the window manager (80 B), the
/// table (24 B) and the stream (32 B), nothing of the device.
const _: () = assert!(size_of::<UserState>() == 136);

impl UserState {
    /// Fresh state for a user first seen by the device, drawing from
    /// `stream`.
    pub(crate) fn new(stream: StdRng) -> Self {
        UserState {
            manager: LocationManager::default(),
            obfuscation: ObfuscationModule::default(),
            stream,
        }
    }

    /// The serving hot path: a posterior- (or uniform-) selected permanent
    /// candidate when `current_true` is at a protected top location, a
    /// fresh one-time planar-Laplace sample otherwise. The permanent
    /// candidates are generated, and weighed, on first use (spending the
    /// one-and-only budget); every later request reads the stored weights.
    ///
    /// Allocation-free after the first request per top location.
    pub(crate) fn reported_location(
        &mut self,
        config: &SystemConfig,
        nomadic: &PlanarLaplace,
        mechanism: &NFoldGaussian,
        current_true: Point,
        stats: &mut RequestStats,
    ) -> Point {
        let rng = &mut self.stream;
        let radius = config.top_match_radius_m();
        let Some(top) = self.manager.matching_top(current_true, radius) else {
            stats.nomadic_draws += 1;
            return nomadic.sample(current_true, rng);
        };
        let sets_before = self.obfuscation.table().len();
        let set = self.obfuscation.candidates_for(mechanism, radius, top, rng);
        if config.selection() == SelectionKind::Uniform {
            stats.uniform_draws += 1;
            return set.point(UniformSelector::new().draw(set.len(), rng));
        }
        let point = set.point(set.draw(rng));
        stats.posterior_draws += 1;
        if self.obfuscation.table().len() == sets_before {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
        point
    }

    /// Closes the profile window under `config`'s θ and η and obfuscates
    /// any new top locations with `mechanism`; returns the number of
    /// freshly obfuscated top locations. Each fresh set is weighed as it is
    /// drawn, so nothing is rebuilt for the new top set. The generation
    /// buffers are caller-owned: an edge device reuses one pair across
    /// every window close.
    pub(crate) fn finalize_window_with(
        &mut self,
        config: &SystemConfig,
        mechanism: &NFoldGaussian,
        scratch: &mut BatchScratch,
        lanes: &mut CandidateLanes,
    ) -> usize {
        let closed = self.manager.finalize_window(config.profile_theta_m(), config.eta());
        let tops: Vec<Point> = closed.iter().map(|e| e.location).collect();
        let radius = config.top_match_radius_m();
        self.obfuscation.obfuscate_top_set_with(
            mechanism,
            radius,
            &tops,
            &mut self.stream,
            scratch,
            lanes,
        )
    }
}
