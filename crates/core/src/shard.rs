//! Hub-of-hubs fleet sharding: a [`ShardRouter`] in front of N
//! supervised [`EdgeServer`] shards.
//!
//! The scalability story of the paper's third design goal, taken past a
//! single device: a million-user deployment cannot live on one edge
//! node, so the fleet is partitioned user→shard and a thin router
//! dispatches each request to the owning shard in O(1). Two properties
//! make the partition *invisible* in outputs:
//!
//! 1. **Per-user RNG streams** ([`crate::EdgeDevice::new`]): every
//!    shard serves its users from private generators derived from one
//!    fleet master, so a user's responses depend only on the master,
//!    their id, and their own operation sequence — never on which shard
//!    they landed on or how neighbours interleave. Exports and output
//!    digests are bit-for-bit identical at 1, 4, or 16 shards.
//! 2. **One telemetry hub** shared by every shard
//!    ([`crate::ServerOptions::telemetry`]): deterministic counters and
//!    the privacy-budget ledger aggregate fleet-wide, and the
//!    checkpoint-then-reply commit order of each shard keeps ledger
//!    delivery exactly-once across per-shard restarts.
//!
//! [`StateFootprint`] is the memory side of the same story: compact
//! per-shard state measured in bytes per user, with pooled candidate
//! sets and posterior tables counted once however many users share
//! them.

use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_telemetry::Telemetry;

use crate::server::{EdgeHandle, EdgeServer, ServerOptions, TransportError};
use crate::{EdgeDevice, SystemConfig, SystemError};

/// Measured resident state of one shard ([`EdgeDevice::footprint`]).
///
/// Splits bytes into what each user uniquely owns (`user_bytes`: window
/// buffers, profiles, top sets, table/cache reference entries) and what
/// lives once in shared pools (`shared_bytes`: distinct candidate sets
/// and posterior tables, stored per distinct `Arc` regardless of how
/// many users cite them).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StateFootprint {
    /// Users resident on the shard.
    pub users: usize,
    /// Bytes attributable to individual users.
    pub user_bytes: u64,
    /// Bytes in shared pools, counted once per distinct `Arc`.
    pub shared_bytes: u64,
    /// Distinct permanent candidate sets (pool entries).
    pub distinct_candidate_sets: usize,
    /// Candidate-set references across all user tables (≥ distinct when
    /// fleet installs share sets between users).
    pub candidate_set_refs: usize,
    /// Distinct cached posterior tables (pool entries).
    pub distinct_posterior_tables: usize,
}

impl StateFootprint {
    /// Total resident bytes: per-user plus shared-pool.
    pub fn total_bytes(&self) -> u64 {
        self.user_bytes + self.shared_bytes
    }

    /// Resident bytes per user — the budget DESIGN.md §16 holds the
    /// scale bench to. `0.0` for an empty shard.
    pub fn bytes_per_user(&self) -> f64 {
        if self.users == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / self.users as f64
    }
}

/// A hub-of-hubs fleet front: O(1) user→shard routing over N supervised
/// [`EdgeServer`] shards serving per-user RNG streams from one master
/// seed, publishing into one shared telemetry hub.
///
/// # Examples
///
/// ```
/// use privlocad::{ShardRouter, SystemConfig};
/// use privlocad_geo::Point;
/// use privlocad_mobility::UserId;
///
/// let router = ShardRouter::spawn(SystemConfig::builder().build()?, 7, 4);
/// let user = UserId::new(9); // lives on shard 9 % 4 == 1
/// for t in 0..40 {
///     router.check_in(user, Point::new(100.0, 100.0), t)?;
/// }
/// assert_eq!(router.finalize_window(user)?, 1);
/// let reported = router.request_location(user, Point::new(100.0, 100.0))?;
/// assert!(reported.is_finite());
/// router.shutdown()?;
/// let shards = router.join()?;
/// assert_eq!(shards.iter().map(|d| d.user_count()).sum::<usize>(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardRouter {
    servers: Vec<EdgeServer>,
    handles: Vec<EdgeHandle>,
}

impl ShardRouter {
    /// Spawns `shards` supervised edge servers sharing one fresh
    /// telemetry hub, every shard serving per-user streams derived from
    /// `master`. `shards` is clamped to at least 1.
    pub fn spawn(config: SystemConfig, master: u64, shards: usize) -> ShardRouter {
        let hub = Telemetry::new();
        let options = (0..shards.max(1))
            .map(|_| ServerOptions { telemetry: hub.clone(), ..ServerOptions::default() })
            .collect();
        ShardRouter::spawn_with(config, master, options)
    }

    /// [`ShardRouter::spawn`] with explicit per-shard options — fault
    /// plans, queue capacities, restore images, or a caller-owned hub. One
    /// shard is spawned per entry (at least one entry required, panics on
    /// an empty list), each on its own scoped thread, so the shards'
    /// [`ServerOptions::restore_from`] restores overlap instead of running
    /// back to back. Every shard serves per-user streams from `master`,
    /// which is what makes the router shard-count invariant.
    pub fn spawn_with(
        config: SystemConfig,
        master: u64,
        options: Vec<ServerOptions>,
    ) -> ShardRouter {
        assert!(!options.is_empty(), "a shard router needs at least one shard");
        let (servers, handles) = std::thread::scope(|scope| {
            let spawns: Vec<_> = options
                .into_iter()
                .map(|shard_options| {
                    scope.spawn(move || EdgeServer::spawn_with(config, master, shard_options))
                })
                .collect();
            spawns
                .into_iter()
                .map(|spawn| spawn.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .unzip()
        });
        ShardRouter { servers, handles }
    }

    /// Number of shards behind this router.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// The shard that owns `user`: a stateless modulo over the user id,
    /// so routing is O(1) with no directory to keep consistent.
    pub fn route(&self, user: UserId) -> usize {
        user.raw() as usize % self.handles.len()
    }

    /// The client handle of the shard owning `user`.
    pub fn handle(&self, user: UserId) -> &EdgeHandle {
        self.handle_at(self.route(user))
    }

    /// The client handle of shard `index`.
    pub(crate) fn handle_at(&self, index: usize) -> &EdgeHandle {
        &self.handles[index]
    }

    /// Revives shard `index` in place around its committed device
    /// ([`EdgeServer::revive`]); `false` when it has no device.
    pub(crate) fn revive(&self, index: usize) -> bool {
        self.servers[index].revive()
    }

    /// Routes a check-in to the owning shard
    /// ([`EdgeHandle::check_in`]).
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`TransportError`].
    pub fn check_in(
        &self,
        user: UserId,
        location: Point,
        timestamp: i64,
    ) -> Result<(), TransportError> {
        self.handle(user).check_in(user, location, timestamp)
    }

    /// Routes an ad-request location report to the owning shard
    /// ([`EdgeHandle::request_location`]).
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`TransportError`].
    pub fn request_location(&self, user: UserId, location: Point) -> Result<Point, TransportError> {
        self.handle(user).request_location(user, location)
    }

    /// Routes a window close to the owning shard
    /// ([`EdgeHandle::finalize_window`]).
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`TransportError`].
    pub fn finalize_window(&self, user: UserId) -> Result<u32, TransportError> {
        self.handle(user).finalize_window(user)
    }

    /// Stops every shard (first failure wins, remaining shards are still
    /// asked to stop).
    ///
    /// # Errors
    ///
    /// Returns the first shard's [`TransportError`], if any.
    pub fn shutdown(&self) -> Result<(), TransportError> {
        let mut first_err = None;
        for handle in &self.handles {
            if let Err(e) = handle.shutdown() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Stops every shard still serving and returns the final per-shard
    /// devices, in shard order, for inspection (footprints, snapshots,
    /// released-set audits). Nothing waits: the shards have no threads.
    ///
    /// # Errors
    ///
    /// Returns the first shard's [`SystemError`]; later shards are still
    /// joined, so each hands its device out.
    pub fn join(self) -> Result<Vec<EdgeDevice>, SystemError> {
        drop(self.handles);
        let mut devices = Vec::with_capacity(self.servers.len());
        let mut first_err = None;
        for server in self.servers {
            match server.join() {
                Ok(device) => devices.push(device),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(devices),
        }
    }

    /// The telemetry hub the shards publish into (all shards share one;
    /// this is shard 0's handle).
    pub fn telemetry(&self) -> &Telemetry {
        self.servers[0].telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SystemConfig {
        SystemConfig::builder().build().unwrap()
    }

    fn home_of(user: UserId) -> Point {
        Point::new(f64::from(user.raw()) * 9_000.0, -400.0)
    }

    fn drive(router: &ShardRouter, users: u32) -> Vec<Point> {
        let users: Vec<UserId> = (0..users).map(UserId::new).collect();
        for t in 0..40 {
            for &u in &users {
                router.check_in(u, home_of(u), t).unwrap();
            }
        }
        for &u in &users {
            assert_eq!(router.finalize_window(u).unwrap(), 1);
        }
        users.iter().map(|&u| router.request_location(u, home_of(u)).unwrap()).collect()
    }

    #[test]
    fn routing_is_modulo_and_owns_every_user() {
        let router = ShardRouter::spawn(config(), 3, 4);
        assert_eq!(router.shards(), 4);
        for raw in 0..32 {
            assert_eq!(router.route(UserId::new(raw)), raw as usize % 4);
        }
        router.shutdown().unwrap();
        router.join().unwrap();
    }

    #[test]
    fn outputs_are_shard_count_invariant() {
        let reports_at = |shards: usize| {
            let router = ShardRouter::spawn(config(), 99, shards);
            let reports = drive(&router, 12);
            router.shutdown().unwrap();
            let devices = router.join().unwrap();
            assert_eq!(devices.len(), shards);
            assert_eq!(devices.iter().map(|d| d.user_count()).sum::<usize>(), 12);
            reports
        };
        let one = reports_at(1);
        assert_eq!(one, reports_at(3));
        assert_eq!(one, reports_at(12));
    }

    #[test]
    fn shards_share_one_telemetry_hub() {
        let router = ShardRouter::spawn(config(), 5, 4);
        drive(&router, 8);
        router.shutdown().unwrap();
        let telemetry = router.telemetry().clone();
        router.join().unwrap();
        let metrics = telemetry.registry().snapshot();
        assert_eq!(metrics.counter("edge.checkins"), Some(40 * 8));
        assert_eq!(metrics.counter("edge.windows_closed"), Some(8));
        assert_eq!(metrics.counter("edge.location_requests"), Some(8));
    }

    #[test]
    fn footprint_bytes_per_user_is_positive_and_totals_add_up() {
        let router = ShardRouter::spawn(config(), 5, 2);
        drive(&router, 6);
        router.shutdown().unwrap();
        let devices = router.join().unwrap();
        for device in &devices {
            let fp = device.footprint();
            assert_eq!(fp.users, 3);
            assert!(fp.user_bytes > 0);
            assert!(fp.shared_bytes > 0, "settled users hold pooled sets");
            assert_eq!(fp.total_bytes(), fp.user_bytes + fp.shared_bytes);
            assert!(fp.bytes_per_user() > 0.0);
            assert_eq!(fp.candidate_set_refs, 3);
            assert_eq!(fp.distinct_candidate_sets, 3);
        }
        assert_eq!(StateFootprint::default().bytes_per_user(), 0.0);
    }
}
