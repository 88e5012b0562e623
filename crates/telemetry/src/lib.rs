//! Deterministic observability for the Edge-PrivLocAd workspace.
//!
//! Production visibility into an edge fleet normally leans on wall clocks
//! and free-running atomics — both banned here, because the workspace's
//! core contract is bit-for-bit reproducibility across thread counts. This
//! crate provides the three observability primitives the serving stack
//! needs, each designed around that contract:
//!
//! * [`Registry`] — a lock-sharded metrics registry (monotonic counters,
//!   additive gauges, fixed-bucket log-scale histograms). Updates land in
//!   per-handle shards; snapshots merge the shards in shard order, and
//!   every merge is a commutative sum, so a snapshot is invariant to how
//!   work was spread over threads.
//! * [`Tracer`] — logical-clock span tracing. Spans are stamped with a
//!   per-device monotonic event sequence number (never wall clock) and
//!   ring-buffered per worker. With the `trace` feature off the whole API
//!   compiles to zero-cost no-ops; the optional `wallclock` feature adds
//!   real tick timings for interactive profiling and is banned from
//!   test/CI builds.
//! * [`Ledger`] — per-user aggregates of every privacy-budget spend
//!   (candidate-set draws, window closes, checkpoint restores): composed
//!   running totals, a pay count per candidate set, and a double-spend
//!   audit that cross-checks the recovery layer's `candidate_redraws == 0`
//!   invariant. Events are counted, not kept, so the ledger grows with
//!   users and released sets, not with a fleet's uptime.
//!
//! [`Telemetry`] bundles a registry and a ledger into the hub the serving
//! stack threads through its layers. Two export shapes exist: [`Telemetry::to_json`] (everything,
//! including scheduling-dependent metrics) and
//! [`Telemetry::deterministic_json`] (only [`Determinism::Deterministic`]
//! metrics plus the ledger — the byte-identical-across-thread-counts
//! surface that determinism tests pin).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod ledger;
mod registry;
mod trace;

pub use ledger::{
    top_key, Ledger, LedgerError, LedgerTotals, SpendEvent, SpendKind, TopKey, UserTotals,
};
pub use registry::{Counter, Determinism, Gauge, Histogram, MetricsSnapshot, Registry};
pub use trace::{Span, SpanRecord, Tracer};

/// The observability hub threaded through the serving stack: one metrics
/// registry plus one privacy-budget ledger, both cheaply cloneable handles
/// to shared state.
///
/// # Examples
///
/// ```
/// use privlocad_telemetry::{Determinism, Telemetry};
///
/// let telemetry = Telemetry::new();
/// let served = telemetry
///     .registry()
///     .counter("server.requests", Determinism::Deterministic);
/// served.add(3);
/// assert_eq!(served.value(), 3);
/// assert!(telemetry.to_json().contains("server.requests"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Registry,
    ledger: Ledger,
}

impl Telemetry {
    /// Creates a fresh hub with an empty registry and ledger.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The privacy-budget ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Full JSON export: every metric (both determinism classes) plus the
    /// ledger section. Keys are sorted, so the rendering itself is
    /// deterministic, but [`Determinism::Scheduling`] values may differ
    /// between runs with different thread interleavings.
    pub fn to_json(&self) -> String {
        export::render(self, false)
    }

    /// Determinism-restricted JSON export: only
    /// [`Determinism::Deterministic`] metrics plus the ledger. For a fixed
    /// seed and workload this string is byte-identical regardless of
    /// thread or shard count — the surface the determinism tests pin.
    // lint:allow(dead-pub): integration-test hook: bench's shard_invariance and telemetry_determinism pin this export
    pub fn deterministic_json(&self) -> String {
        export::render(self, true)
    }
}
