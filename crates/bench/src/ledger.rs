//! The one writer of the benchmark log (`BENCH_repro.json` by default).
//!
//! Every driver binary — `repro`, `serve`, `chaos`, `microbench`,
//! `auction` — owns some *families* of rows. A family is a row name up to
//! its first `/`: `serve/scale/10000` belongs to `serve`, `verify` to
//! `verify`. Top-level `telemetry` sections are keyed the same way
//! (`chaos/flood/2` belongs to `chaos`). [`write()`] reads the existing
//! log, drops the rows and telemetry sections of every family the update
//! carries, appends the update, and validates the merged document with
//! the schema check `privlocad-lint --bench-json` applies in CI. It then
//! replaces the file through a temporary sibling and a rename. A driver
//! therefore never wipes another driver's rows, and a driver killed
//! mid-write never leaves a truncated log.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use privlocad_lint::json::{parse, render, validate_bench_report, Json};

/// The header a fresh log starts with. An existing log keeps its own.
#[derive(Debug, Clone, Copy)]
pub struct Header<'a> {
    /// The `experiment` label.
    pub experiment: &'a str,
    /// The master seed of the run.
    pub seed: u64,
    /// The worker-thread setting of the run.
    pub threads: usize,
}

/// What one driver run adds to the log.
#[derive(Debug, Clone)]
pub struct Update {
    /// Rows for the `runs` array, each an object with a string `name`.
    pub rows: Vec<Json>,
    /// `(section name, exported telemetry hub JSON)` pairs for the
    /// top-level `telemetry` object.
    pub telemetry: Vec<(String, String)>,
}

/// The family of a row or telemetry section name.
fn family(name: &str) -> &str {
    name.split('/').next().unwrap_or(name)
}

/// Merges `update` into the `existing` log text (or a fresh log under
/// `header`), replacing every family the update carries.
///
/// # Errors
///
/// Returns a message if the existing log or a telemetry export does not
/// parse, or the existing log lacks a `runs` array.
pub fn merge(existing: Option<&str>, header: &Header<'_>, update: Update) -> Result<Json, String> {
    let mut doc = match existing {
        Some(text) => parse(text)?,
        None => {
            let mut obj = BTreeMap::new();
            obj.insert("experiment".to_owned(), Json::Str(header.experiment.to_owned()));
            obj.insert("seed".to_owned(), Json::Num(header.seed as f64));
            obj.insert("threads".to_owned(), Json::Num(header.threads as f64));
            obj.insert("runs".to_owned(), Json::Arr(Vec::new()));
            Json::Obj(obj)
        }
    };
    let Json::Obj(obj) = &mut doc else {
        return Err("benchmark log root is not an object".to_owned());
    };
    let names = update.rows.iter().filter_map(|row| row.get("name").and_then(Json::as_str));
    let families: BTreeSet<String> = names
        .chain(update.telemetry.iter().map(|(name, _)| name.as_str()))
        .map(|name| family(name).to_owned())
        .collect();
    let Some(Json::Arr(runs)) = obj.get_mut("runs") else {
        return Err("benchmark log has no `runs` array".to_owned());
    };
    runs.retain(|run| {
        run.get("name").and_then(Json::as_str).is_none_or(|n| !families.contains(family(n)))
    });
    runs.extend(update.rows);
    if let Some(Json::Obj(sections)) = obj.get_mut("telemetry") {
        sections.retain(|name, _| !families.contains(family(name)));
    }
    if !update.telemetry.is_empty() {
        let telemetry =
            obj.entry("telemetry".to_owned()).or_insert_with(|| Json::Obj(BTreeMap::new()));
        let Json::Obj(sections) = telemetry else {
            return Err("benchmark log `telemetry` is not an object".to_owned());
        };
        for (name, hub) in update.telemetry {
            sections.insert(name, parse(&hub)?);
        }
    }
    Ok(doc)
}

/// Merges `update` into the log at `path` (see [`merge`]), validates the
/// result, and replaces the file atomically.
///
/// # Errors
///
/// Returns a message if the merge or the schema check fails, or the file
/// cannot be written. The log at `path` is then left as it was.
pub fn write(path: &Path, header: &Header<'_>, update: Update) -> Result<(), String> {
    let existing = std::fs::read_to_string(path).ok();
    let text = render(&merge(existing.as_deref(), header, update)?);
    validate_bench_report(&text)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, &text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: Header<'static> = Header { experiment: "test", seed: 0, threads: 1 };

    fn hub() -> String {
        privlocad_telemetry::Telemetry::new().to_json()
    }

    fn names(doc: &Json) -> Vec<&str> {
        doc.get("runs")
            .and_then(Json::as_arr)
            .expect("runs")
            .iter()
            .filter_map(|r| r.get("name").and_then(Json::as_str))
            .collect()
    }

    fn sections(doc: &Json) -> Vec<&str> {
        match doc.get("telemetry") {
            Some(Json::Obj(s)) => s.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn each_driver_replaces_only_its_own_families() {
        // One stale row (and hub) per driver family next to foreign ones.
        let existing = format!(
            r#"{{"experiment": "all", "seed": 0, "threads": 2, "runs": [
            {{"name": "fig9", "wall_ms": 80.0, "threads": 2, "users": null, "trials": 100}},
            {{"name": "serve/legacy_single", "wall_ms": 9.9, "requests_per_sec": 1.0,
             "batch": 1, "threads": 1}},
            {{"name": "serve/scale/16", "wall_ms": 3.0, "users": 16, "shards": 1,
             "bytes_per_user": 9.0, "image_bytes_per_user": 7.0,
             "checkpoint_encode_ms": 1.0, "recovery_ms": 1.0,
             "per_shard_recovery_ms": 1.0, "digest": "aa"}},
            {{"name": "chaos/flood/2", "wall_ms": 1.0, "faults_injected": 4,
             "requests_survived": 100, "restarts": 0, "recovery_ns": 0, "threads": 2}},
            {{"name": "candidate_install/cold", "wall_ms": 9.9, "ns_per_op": 1.0,
             "installs_per_sec": 10.0, "threads": 1}},
            {{"name": "auction/exchange", "wall_ms": 1.0, "auctions_per_sec": 1.0,
             "decode_ns_per_req": 1.0, "serve_overhead_pct": 1.0, "revenue_micros": 1,
             "attack_success_live": 0.5, "users": 1, "requests": 1, "shards": 1,
             "digest": "aa"}}
            ], "telemetry": {{"serve": {hub}, "chaos/flood/2": {hub},
                             "candidate_install": {hub}, "auction": {hub}}}}}"#,
            hub = hub()
        );
        let row = |text: &str| parse(text).expect("row literal");
        /// One driver's update and the log it must leave behind.
        struct Case<'a> {
            rows: Vec<Json>,
            sections: Vec<&'a str>,
            runs_after: Vec<&'a str>,
            sections_after: Vec<&'a str>,
        }
        let case = |rows, sections, runs_after, sections_after| Case {
            rows,
            sections,
            runs_after,
            sections_after,
        };
        let cases = [
            case(
                vec![
                    row(r#"{"name": "serve/batched_cached/64", "wall_ms": 2.5,
                            "requests_per_sec": 3.0, "batch": 64, "threads": 1}"#),
                    row(r#"{"name": "serve/scale/10000", "wall_ms": 25.0, "users": 10000,
                            "shards": 1, "bytes_per_user": 644.0,
                            "image_bytes_per_user": 312.0, "checkpoint_encode_ms": 4.0,
                            "recovery_ms": 9.0, "per_shard_recovery_ms": 9.0,
                            "digest": "00f00ba900f00ba9"}"#),
                ],
                vec!["serve"],
                vec![
                    "fig9",
                    "chaos/flood/2",
                    "candidate_install/cold",
                    "auction/exchange",
                    "serve/batched_cached/64",
                    "serve/scale/10000",
                ],
                vec!["auction", "candidate_install", "chaos/flood/2", "serve"],
            ),
            case(
                vec![row(r#"{"name": "chaos/worker_kill/2", "wall_ms": 12.5,
                             "faults_injected": 9, "requests_survived": 232, "restarts": 3,
                             "recovery_ns": 18400.0, "threads": 2}"#)],
                vec!["chaos/worker_kill/2"],
                vec![
                    "fig9",
                    "serve/legacy_single",
                    "serve/scale/16",
                    "candidate_install/cold",
                    "auction/exchange",
                    "chaos/worker_kill/2",
                ],
                vec!["auction", "candidate_install", "chaos/worker_kill/2", "serve"],
            ),
            case(
                vec![
                    row(r#"{"name": "candidate_install/cold", "wall_ms": 1.5, "ns_per_op": 420.0,
                            "installs_per_sec": 2380952.0, "threads": 1}"#),
                    row(r#"{"name": "candidate_install/batched", "wall_ms": 1.5,
                            "ns_per_op": 95.0, "installs_per_sec": 10526315.0, "threads": 1,
                            "ratio": 4.4}"#),
                ],
                vec!["candidate_install"],
                vec![
                    "fig9",
                    "serve/legacy_single",
                    "serve/scale/16",
                    "chaos/flood/2",
                    "auction/exchange",
                    "candidate_install/cold",
                    "candidate_install/batched",
                ],
                vec!["auction", "candidate_install", "chaos/flood/2", "serve"],
            ),
            case(
                vec![row(r#"{"name": "auction/exchange", "wall_ms": 900.0,
                             "auctions_per_sec": 250000.0, "decode_ns_per_req": 14.0,
                             "serve_overhead_pct": 1.2, "revenue_micros": 123456789,
                             "attack_success_live": 0.02, "users": 64,
                             "requests": 10240, "shards": 16,
                             "digest": "00f00ba900f00ba9"}"#)],
                vec!["auction"],
                vec![
                    "fig9",
                    "serve/legacy_single",
                    "serve/scale/16",
                    "chaos/flood/2",
                    "candidate_install/cold",
                    "auction/exchange",
                ],
                vec!["auction", "candidate_install", "chaos/flood/2", "serve"],
            ),
        ];
        for case in cases {
            let update = Update {
                rows: case.rows,
                telemetry: case.sections.iter().map(|name| ((*name).to_owned(), hub())).collect(),
            };
            let doc = merge(Some(&existing), &HEADER, update).unwrap();
            assert_eq!(names(&doc), case.runs_after);
            assert_eq!(sections(&doc), case.sections_after);
            // The merged log keeps the existing header.
            assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("all"));
            validate_bench_report(&render(&doc)).expect("merged log must validate");
        }
    }

    #[test]
    fn fresh_log_takes_the_header_and_validates() {
        let update = Update {
            rows: vec![parse(r#"{"name": "verify", "wall_ms": 0.2, "threads": 0}"#).unwrap()],
            telemetry: Vec::new(),
        };
        let doc =
            merge(None, &Header { experiment: "verify", seed: 3, threads: 0 }, update).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("verify"));
        assert_eq!(doc.get("seed").and_then(Json::as_num), Some(3.0));
        assert!(doc.get("telemetry").is_none(), "no empty telemetry section");
        validate_bench_report(&render(&doc)).expect("fresh log must validate");
    }

    #[test]
    fn write_replaces_the_file_and_refuses_invalid_logs() {
        let path =
            std::env::temp_dir().join(format!("privlocad-ledger-{}.json", std::process::id()));
        let update = |row: &str| Update { rows: vec![parse(row).unwrap()], telemetry: Vec::new() };
        write(&path, &HEADER, update(r#"{"name": "fig2", "wall_ms": 1.0}"#)).unwrap();
        write(&path, &HEADER, update(r#"{"name": "fig3", "wall_ms": 2.0}"#)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(names(&parse(&text).unwrap()), ["fig2", "fig3"]);
        // A serving row without its batch shape fails the schema check:
        // nothing is written, and no temporary file is left behind.
        let bad = update(r#"{"name": "serve/single_cached", "wall_ms": 1.0}"#);
        assert!(write(&path, &HEADER, bad).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
