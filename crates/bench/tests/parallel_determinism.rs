//! Parallel-vs-serial determinism of every experiment on the shared
//! fan-out runner: the rendered tables must be byte-identical for any
//! worker-thread count, because all randomness is derived from
//! `(seed, trial/user index)` and never from the shard layout.
//!
//! Each experiment is rendered at 1 thread (fully serial), 2 threads, and
//! the machine's available parallelism.

use privlocad_bench::{fig7, fig8, fig9, tables, verify};

fn thread_counts() -> Vec<usize> {
    let auto = std::thread::available_parallelism().map_or(4, |n| n.get());
    // 1 = the serial baseline itself; always exercise a multi-thread
    // layout even on single-core machines.
    vec![1, 2, auto.max(3)]
}

fn assert_thread_count_invariant(label: &str, render: impl Fn(usize) -> String) {
    let baseline = render(1);
    for threads in thread_counts() {
        assert_eq!(render(threads), baseline, "{label} differs at {threads} threads");
    }
}

#[test]
fn fig7_table_is_thread_count_invariant() {
    assert_thread_count_invariant("fig7", |threads| {
        fig7::run(&fig7::Config { trials: 400, ns: vec![1, 4], threads, ..fig7::Config::default() })
            .table()
            .render()
    });
}

#[test]
fn fig8_table_is_thread_count_invariant() {
    assert_thread_count_invariant("fig8", |threads| {
        fig8::run(&fig8::Config {
            trials: 400,
            epsilons: vec![1.0],
            rs_m: vec![500.0],
            ns: vec![1, 5],
            threads,
            ..fig8::Config::default()
        })
        .table()
        .render()
    });
}

#[test]
fn fig9_table_is_thread_count_invariant() {
    assert_thread_count_invariant("fig9", |threads| {
        fig9::run(&fig9::Config {
            trials: 300,
            rs_m: vec![500.0],
            ns: vec![1, 5],
            threads,
            ..fig9::Config::default()
        })
        .table()
        .render()
    });
}

#[test]
fn verify_table_is_thread_count_invariant() {
    assert_thread_count_invariant("verify", |threads| {
        verify::run(&verify::Config { threads, ..verify::Config::default() }).table().render()
    });
}

// The scalability sweeps render wall-clock times, which legitimately vary
// between runs; their deterministic outputs (candidate tables, reported
// locations) are folded into `Outcome::digest` instead.

#[test]
fn table2_digest_is_thread_count_invariant() {
    let digest = |threads| {
        tables::run_table2(&tables::Config { user_counts: vec![40, 120], seed: 7, threads }).digest
    };
    let baseline = digest(1);
    for threads in thread_counts() {
        assert_eq!(digest(threads), baseline, "table2 digest differs at {threads} threads");
    }
}

#[test]
fn table3_digest_is_thread_count_invariant() {
    let digest = |threads| {
        tables::run_table3(&tables::Config { user_counts: vec![40, 120], seed: 7, threads }).digest
    };
    let baseline = digest(1);
    for threads in thread_counts() {
        assert_eq!(digest(threads), baseline, "table3 digest differs at {threads} threads");
    }
}
