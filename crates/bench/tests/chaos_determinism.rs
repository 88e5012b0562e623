//! The chaos harness's contract, end to end at test scale: every seeded
//! fault schedule — frame corruption, worker kills, queue floods, and
//! mid-window restarts — is survived with outputs bit-for-bit identical
//! to the fault-free run (the harness itself asserts the byte equality
//! and the zero-candidate-re-draw invariant internally; these tests pin
//! the determinism *of the harness* and the shard-count independence of
//! the surviving workload).

use privlocad_bench::chaos::{self, Config};

fn small() -> Config {
    Config { users: 4, checkins: 8, requests: 4, kills: 2, corruptions: 4, seed: 11, threads: 2 }
}

#[test]
fn chaos_results_are_identical_across_reruns() {
    let first = chaos::run(&small());
    let second = chaos::run(&small());
    assert_eq!(first.rows.len(), second.rows.len());
    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(a.name, b.name);
        // Everything except wall-clock and recovery timing is a pure
        // function of the seed. The flood scenario's shed/served split is
        // scheduling-dependent by nature, so only its totals are pinned.
        if a.name.starts_with("chaos/flood") {
            assert_eq!(a.restarts, b.restarts, "{}", a.name);
        } else {
            assert_eq!(a.faults_injected, b.faults_injected, "{}", a.name);
            assert_eq!(a.requests_survived, b.requests_survived, "{}", a.name);
            assert_eq!(a.restarts, b.restarts, "{}", a.name);
        }
    }
}

#[test]
fn surviving_workload_is_independent_of_the_shard_count() {
    let out = chaos::run(&small());
    // Each replayable scenario runs at shard counts 1 and 2; the full
    // valid stream must survive at both, and the kill scenarios must
    // actually have killed (and restarted) workers at both.
    for family in ["chaos/corruption", "chaos/worker_kill", "chaos/mid_window_restart"] {
        let at: Vec<_> = out.rows.iter().filter(|r| r.name.starts_with(family)).collect();
        assert_eq!(at.len(), 2, "{family} must run at two shard counts");
        assert_eq!(
            at[0].requests_survived, at[1].requests_survived,
            "{family}: sharding changed how much of the workload survived"
        );
        assert!(at[0].requests_survived > 0, "{family}");
        if family != "chaos/corruption" {
            for row in &at {
                assert!(row.restarts > 0, "{}: schedule injected no kills", row.name);
            }
        }
    }
    // A crash was recovered somewhere, and its recovery was timed.
    assert!(out.rows.iter().any(|r| r.restarts > 0 && r.recovery_ns > 0.0));
}
