//! Logical-clock span tracing.
//!
//! A [`Tracer`] belongs to one worker (one serving loop). Its clock is a
//! monotonic *event sequence number* — advanced explicitly by the worker
//! as it processes envelopes/requests — never a wall clock, so traces from
//! a fixed seed are reproducible and the workspace's determinism lint
//! rules hold. Completed spans land in a bounded ring buffer (oldest
//! evicted first).
//!
//! With the `trace` feature disabled (the `--no-default-features` build)
//! the entire module is replaced by signature-identical no-ops: no
//! allocation, no locking, nothing to optimize away.
//!
//! The `wallclock` feature additionally stamps spans with elapsed
//! nanosecond ticks for interactive profiling. It is never part of the
//! default feature set and must stay out of test/CI builds.

/// A completed span: a name plus the logical-clock interval it covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"server.decode"`).
    pub name: &'static str,
    /// Logical clock when the span opened.
    pub seq_start: u64,
    /// Logical clock when the span closed.
    pub seq_end: u64,
    /// Elapsed wall-clock nanoseconds; always `0` unless the `wallclock`
    /// feature is enabled.
    pub ticks: u64,
}

#[cfg(feature = "trace")]
mod enabled {
    use super::SpanRecord;
    use parking_lot::Mutex;
    use std::collections::VecDeque;
    use std::sync::Arc;

    #[derive(Debug)]
    struct Ring {
        seq: u64,
        capacity: usize,
        spans: VecDeque<SpanRecord>,
    }

    /// A per-worker span tracer with a bounded ring buffer.
    #[derive(Debug, Clone)]
    pub struct Tracer {
        inner: Arc<Mutex<Ring>>,
    }

    impl Default for Tracer {
        fn default() -> Self {
            Tracer::new(256)
        }
    }

    impl Tracer {
        /// Creates a tracer retaining at most `capacity` completed spans.
        pub fn new(capacity: usize) -> Self {
            Tracer {
                inner: Arc::new(Mutex::new(Ring {
                    seq: 0,
                    capacity: capacity.max(1),
                    spans: VecDeque::new(),
                })),
            }
        }

        /// Advances the logical clock by `events` processed events and
        /// returns the new clock value.
        pub fn advance(&self, events: u64) -> u64 {
            let mut ring = self.inner.lock();
            ring.seq += events;
            ring.seq
        }

        /// Opens a span at the current logical clock; the span records
        /// itself into the ring when dropped.
        pub fn span(&self, name: &'static str) -> Span {
            let seq_start = self.inner.lock().seq;
            Span {
                inner: Arc::clone(&self.inner),
                name,
                seq_start,
                // Wall-clock ticks are the whole point of the opt-in
                // `wallclock` profiling feature, which is banned from
                // test/CI builds.
                #[cfg(feature = "wallclock")]
                // lint:allow(determinism-time): opt-in wallclock profiling feature only
                started: std::time::Instant::now(),
            }
        }

        /// Completed spans, oldest first (at most the ring capacity).
        pub fn records(&self) -> Vec<SpanRecord> {
            self.inner.lock().spans.iter().cloned().collect()
        }
    }

    /// An open span; records itself on drop.
    #[derive(Debug)]
    pub struct Span {
        inner: Arc<Mutex<Ring>>,
        name: &'static str,
        seq_start: u64,
        #[cfg(feature = "wallclock")]
        started: std::time::Instant,
    }

    impl Drop for Span {
        fn drop(&mut self) {
            #[cfg(feature = "wallclock")]
            let ticks = self.started.elapsed().as_nanos() as u64;
            #[cfg(not(feature = "wallclock"))]
            let ticks = 0;
            let mut ring = self.inner.lock();
            let record =
                SpanRecord { name: self.name, seq_start: self.seq_start, seq_end: ring.seq, ticks };
            if ring.spans.len() == ring.capacity {
                ring.spans.pop_front();
            }
            ring.spans.push_back(record);
        }
    }
}

#[cfg(not(feature = "trace"))]
mod enabled {
    use super::SpanRecord;

    /// No-op tracer (the `trace` feature is disabled).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Tracer;

    impl Tracer {
        /// Creates a no-op tracer.
        pub fn new(_capacity: usize) -> Self {
            Tracer
        }

        /// No-op; always returns 0.
        pub fn advance(&self, _events: u64) -> u64 {
            0
        }

        /// Returns an inert span.
        pub fn span(&self, _name: &'static str) -> Span {
            Span
        }

        /// Always empty.
        pub fn records(&self) -> Vec<SpanRecord> {
            Vec::new()
        }
    }

    /// Inert span (the `trace` feature is disabled).
    #[derive(Debug, Clone, Copy)]
    pub struct Span;
}

pub use enabled::{Span, Tracer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "trace")]
    fn spans_cover_logical_clock_intervals() {
        let tracer = Tracer::new(8);
        {
            let _span = tracer.span("decode");
            tracer.advance(3);
        }
        {
            let _span = tracer.span("serve");
            tracer.advance(2);
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "decode");
        assert_eq!((records[0].seq_start, records[0].seq_end), (0, 3));
        assert_eq!((records[1].seq_start, records[1].seq_end), (3, 5));
        #[cfg(not(feature = "wallclock"))]
        assert!(records.iter().all(|r| r.ticks == 0));
    }

    #[test]
    #[cfg(feature = "trace")]
    fn ring_evicts_oldest_spans() {
        let tracer = Tracer::new(2);
        for name in ["a", "b", "c"] {
            let _span = tracer.span(name);
            tracer.advance(1);
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "b");
        assert_eq!(records[1].name, "c");
    }

    #[test]
    #[cfg(not(feature = "trace"))]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::new(8);
        let _span = tracer.span("decode");
        assert_eq!(tracer.advance(3), 0);
        assert!(tracer.records().is_empty());
    }
}
