//! A minimal JSON reader and writer.
//!
//! The workspace vendors no `serde_json`, so the linter carries its own
//! ~150-line recursive-descent parser — enough to validate that
//! `BENCH_repro.json` parses and contains the expected experiment keys, and
//! to emit the machine-readable findings report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep insertion order irrelevant — they are
/// stored sorted so downstream processing is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    // lint:allow(dead-pub): integration-test hook: live_workspace.rs and bench's report tests read JSON numbers through it
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    // lint:allow(dead-pub): integration-test hook: bench's ledger and repro tests read JSON arrays through it
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut p = Parser { chars, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing content at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected `{c}` at offset {}, found {got:?}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(map)),
                got => return Err(format!("expected `,` or `}}`, found {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                got => return Err(format!("expected `,` or `]`, found {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_owned()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16 + c.to_digit(16).ok_or("invalid hex in \\u escape")?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    got => return Err(format!("invalid escape {got:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-')
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

/// Renders a [`Json`] value back to compact JSON text.
///
/// Object keys come out sorted (they are stored in a `BTreeMap`), so the
/// output is deterministic; numbers use Rust's shortest-roundtrip `f64`
/// formatting, with integral values printed without a fractional part.
/// `parse(&render(v))` reproduces `v` exactly.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
            if n.fract() == 0.0 && n.abs() < 1e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (key, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\": ");
                render_into(val, out);
            }
            out.push('}');
        }
    }
}

/// Escapes a string for embedding in emitted JSON.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Validates the shape of a `BENCH_repro.json` produced by the repro driver:
/// a top-level object with `experiment`, `seed`, `threads` and a non-empty
/// `runs` array whose entries each carry `name` and `wall_ms`.
pub fn validate_bench_report(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let experiment =
        doc.get("experiment").and_then(Json::as_str).ok_or("missing string key `experiment`")?;
    if experiment.is_empty() {
        return Err("`experiment` is empty".to_owned());
    }
    doc.get("seed").and_then(Json::as_num).ok_or("missing numeric key `seed`")?;
    doc.get("threads").and_then(Json::as_num).ok_or("missing numeric key `threads`")?;
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("missing array key `runs`")?;
    if runs.is_empty() {
        return Err("`runs` is empty".to_owned());
    }
    let mut last_scale_users: Option<f64> = None;
    for (i, run) in runs.iter().enumerate() {
        let name = run
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("runs[{i}] missing string key `name`"))?;
        run.get("wall_ms")
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] missing numeric key `wall_ms`"))?;
        validate_scale_row(i, name, run, &mut last_scale_users)?;
        validate_serve_row(i, name, run)?;
        validate_chaos_row(i, name, run)?;
        validate_microbench_row(i, name, run)?;
        validate_lint_row(i, name, run)?;
        validate_auction_row(i, name, run)?;
    }
    if let Some(telemetry) = doc.get("telemetry") {
        validate_telemetry_section(telemetry)?;
    }
    Ok(())
}

/// Validates the optional top-level `telemetry` section the bench drivers
/// append: a map from section name (`serve`, `chaos/...`) to an exported
/// telemetry hub. Each hub must carry `counters` (non-empty names, integral
/// values ≥ 0), `histograms` (cumulative bucket arrays, so monotonically
/// non-decreasing), and a `ledger` whose budget totals are all ≥ 0 — a
/// benchmark log may omit telemetry entirely, but it may not ship a
/// malformed or negative-budget snapshot.
fn validate_telemetry_section(telemetry: &Json) -> Result<(), String> {
    let Json::Obj(sections) = telemetry else {
        return Err("`telemetry` is not an object".to_owned());
    };
    for (section, hub) in sections {
        let counters = match hub.get("counters") {
            Some(Json::Obj(counters)) => counters,
            _ => return Err(format!("telemetry[`{section}`] missing object key `counters`")),
        };
        for (name, value) in counters {
            if name.is_empty() {
                return Err(format!("telemetry[`{section}`] has a counter with an empty name"));
            }
            let v = value
                .as_num()
                .ok_or(format!("telemetry[`{section}`] counter `{name}` is not numeric"))?;
            // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
            if v.fract() != 0.0 || v < 0.0 {
                return Err(format!(
                    "telemetry[`{section}`] counter `{name}` is {v} (want integer >= 0)"
                ));
            }
        }
        let histograms = match hub.get("histograms") {
            Some(Json::Obj(histograms)) => histograms,
            _ => return Err(format!("telemetry[`{section}`] missing object key `histograms`")),
        };
        for (name, value) in histograms {
            let buckets = value
                .as_arr()
                .ok_or(format!("telemetry[`{section}`] histogram `{name}` is not an array"))?;
            let mut prev = 0.0;
            for (b, bucket) in buckets.iter().enumerate() {
                let v = bucket.as_num().ok_or(format!(
                    "telemetry[`{section}`] histogram `{name}` bucket {b} is not numeric"
                ))?;
                if v < prev {
                    return Err(format!(
                        "telemetry[`{section}`] histogram `{name}` is not cumulative: \
                         bucket {b} ({v}) < bucket {} ({prev})",
                        b.saturating_sub(1)
                    ));
                }
                prev = v;
            }
        }
        let ledger = hub
            .get("ledger")
            .ok_or(format!("telemetry[`{section}`] missing object key `ledger`"))?;
        for key in ["users", "epsilon_total", "delta_total", "candidate_sets", "window_closes"] {
            let v = ledger
                .get(key)
                .and_then(Json::as_num)
                .ok_or(format!("telemetry[`{section}`] ledger missing numeric key `{key}`"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("telemetry[`{section}`] ledger `{key}` is {v} (want >= 0)"));
            }
        }
    }
    Ok(())
}

/// Validates the serving-benchmark rows appended by `bench serve`: any run
/// named `serve/...` — and, symmetrically, any run that claims a
/// `requests_per_sec` figure — must carry the full serving triple
/// (`requests_per_sec` > 0, integral `batch` ≥ 1, integral `threads` ≥ 1),
/// so throughput numbers are never reported without the batch shape and
/// parallelism that produced them.
fn validate_serve_row(i: usize, name: &str, run: &Json) -> Result<(), String> {
    // Capacity rows (`serve/scale/...`) carry a different record shape and
    // are checked by `validate_scale_row` instead of the serving triple.
    let is_serve = (name == "serve" || name.starts_with("serve/")) && !is_scale_row(name);
    let has_rps = run.get("requests_per_sec").is_some();
    if !is_serve && !has_rps {
        return Ok(());
    }
    let rps = run
        .get("requests_per_sec")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `requests_per_sec`"))?;
    if !rps.is_finite() || rps <= 0.0 {
        return Err(format!("runs[{i}] (`{name}`) has non-positive `requests_per_sec` {rps}"));
    }
    for key in ["batch", "threads"] {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
        if v.fract() != 0.0 || v < 1.0 {
            return Err(format!(
                "runs[{i}] (`{name}`) has invalid `{key}` {v} (want integer >= 1)"
            ));
        }
    }
    Ok(())
}

fn is_scale_row(name: &str) -> bool {
    name == "serve/scale" || name.starts_with("serve/scale/")
}

/// Validates the fleet-capacity rows appended by the `serve` driver's scale
/// stage: any run named `serve/scale/...` — and, symmetrically, any run that
/// claims a `bytes_per_user` figure — must carry the full capacity record
/// (integral `users` ≥ 1, integral `shards` ≥ 1, finite `bytes_per_user` > 0,
/// finite `checkpoint_encode_ms` / `recovery_ms` / `per_shard_recovery_ms`
/// ≥ 0, and a non-empty `digest`). Two cross-field invariants are enforced:
/// the worst single shard cannot have taken longer than all shards together
/// (`per_shard_recovery_ms` ≤ `recovery_ms` — the sum of non-negative floats
/// is never below its largest term, so the comparison is exact), and fleet
/// sizes must be strictly increasing in file order, so the scale table always
/// reads as one sweep and a rerun can't interleave stale rows with fresh
/// ones. Wall-clock *values* are deliberately not gated — CI machines vary —
/// only the record's shape and its internal consistency.
fn validate_scale_row(
    i: usize,
    name: &str,
    run: &Json,
    last_users: &mut Option<f64>,
) -> Result<(), String> {
    let has_bpu = run.get("bytes_per_user").is_some();
    if !is_scale_row(name) && !has_bpu {
        return Ok(());
    }
    for key in ["users", "shards"] {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
        if v.fract() != 0.0 || v < 1.0 {
            return Err(format!(
                "runs[{i}] (`{name}`) has invalid `{key}` {v} (want integer >= 1)"
            ));
        }
    }
    let bpu = run
        .get("bytes_per_user")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `bytes_per_user`"))?;
    if !bpu.is_finite() || bpu <= 0.0 {
        return Err(format!("runs[{i}] (`{name}`) has non-positive `bytes_per_user` {bpu}"));
    }
    let mut timings = [0.0; 3];
    for (slot, key) in
        timings.iter_mut().zip(["checkpoint_encode_ms", "recovery_ms", "per_shard_recovery_ms"])
    {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("runs[{i}] (`{name}`) has invalid `{key}` {v} (want finite >= 0)"));
        }
        *slot = v;
    }
    let [_, recovery, per_shard] = timings;
    if per_shard > recovery {
        return Err(format!(
            "runs[{i}] (`{name}`) claims `per_shard_recovery_ms` {per_shard} > \
             `recovery_ms` {recovery} (a single shard cannot exceed the fleet total)"
        ));
    }
    let digest = run
        .get("digest")
        .and_then(Json::as_str)
        .ok_or(format!("runs[{i}] (`{name}`) missing string key `digest`"))?;
    if digest.is_empty() {
        return Err(format!("runs[{i}] (`{name}`) has an empty `digest`"));
    }
    let users = run.get("users").and_then(Json::as_num).unwrap_or(0.0);
    if let Some(prev) = *last_users {
        if users <= prev {
            return Err(format!(
                "runs[{i}] (`{name}`) has `users` {users} <= previous scale row's {prev} \
                 (scale rows must sweep strictly increasing fleet sizes)"
            ));
        }
    }
    *last_users = Some(users);
    Ok(())
}

/// Validates the chaos-harness rows appended by `bench chaos`: any run
/// named `chaos/...` — and, symmetrically, any run that claims a
/// `faults_injected` figure — must carry the full survival record
/// (integral `faults_injected`, `requests_survived`, `restarts` ≥ 0,
/// integral `threads` ≥ 1, and a finite `recovery_ns` ≥ 0), so
/// fault-tolerance claims are never reported without how much abuse was
/// injected and what recovering from it cost.
fn validate_chaos_row(i: usize, name: &str, run: &Json) -> Result<(), String> {
    let is_chaos = name == "chaos" || name.starts_with("chaos/");
    let has_faults = run.get("faults_injected").is_some();
    if !is_chaos && !has_faults {
        return Ok(());
    }
    for key in ["faults_injected", "requests_survived", "restarts"] {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
        if v.fract() != 0.0 || v < 0.0 {
            return Err(format!(
                "runs[{i}] (`{name}`) has invalid `{key}` {v} (want integer >= 0)"
            ));
        }
    }
    let threads = run
        .get("threads")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `threads`"))?;
    // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
    if threads.fract() != 0.0 || threads < 1.0 {
        return Err(format!(
            "runs[{i}] (`{name}`) has invalid `threads` {threads} (want integer >= 1)"
        ));
    }
    let recovery = run
        .get("recovery_ns")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `recovery_ns`"))?;
    if !recovery.is_finite() || recovery < 0.0 {
        return Err(format!("runs[{i}] (`{name}`) has invalid `recovery_ns` {recovery}"));
    }
    validate_fabric_columns(i, name, run)
}

/// The self-healing-fabric survival columns travel as a group: if a
/// chaos row claims any of them, it must carry all five as integers
/// ≥ 0, exactly-once must hold on its face (`duplicates_suppressed` ≤
/// `duplicates_injected`), and a degraded serve is only legal when the
/// breaker trace actually recorded a transition — a row cannot claim
/// stale-cache serving without the open breaker that permits it.
fn validate_fabric_columns(i: usize, name: &str, run: &Json) -> Result<(), String> {
    const COLUMNS: [&str; 5] = [
        "duplicates_injected",
        "duplicates_suppressed",
        "breaker_transitions",
        "degraded_serves",
        "deadline_misses",
    ];
    if !COLUMNS.iter().any(|key| run.get(key).is_some()) {
        return Ok(());
    }
    let mut values = [0.0; 5];
    for (slot, key) in values.iter_mut().zip(COLUMNS) {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
        if v.fract() != 0.0 || v < 0.0 {
            return Err(format!(
                "runs[{i}] (`{name}`) has invalid `{key}` {v} (want integer >= 0)"
            ));
        }
        *slot = v;
    }
    let [injected, suppressed, transitions, degraded, _] = values;
    if suppressed > injected {
        return Err(format!(
            "runs[{i}] (`{name}`) claims `duplicates_suppressed` {suppressed} > \
             `duplicates_injected` {injected} (cannot suppress more copies than were injected)"
        ));
    }
    // lint:allow(float-eq): exact zero test — both values were proven integral >= 0 above
    if degraded > 0.0 && transitions == 0.0 {
        return Err(format!(
            "runs[{i}] (`{name}`) claims {degraded} `degraded_serves` with zero \
             `breaker_transitions` (stale-cache serving requires an open breaker)"
        ));
    }
    Ok(())
}

/// Validates the candidate-install rows appended by `microbench`: any run
/// named `candidate_install/...` — and, symmetrically, any run that claims
/// an `ns_per_op` figure — must carry the full install record (finite
/// `ns_per_op` > 0, `installs_per_sec` > 0, integral `threads` ≥ 1), and a
/// `ratio`, when present, must be a finite speedup ≥ 1 — so the batched
/// path's headline number is never published without the per-op cost and
/// parallelism behind it, and a regression can't masquerade as a speedup.
fn validate_microbench_row(i: usize, name: &str, run: &Json) -> Result<(), String> {
    let is_install = name == "candidate_install" || name.starts_with("candidate_install/");
    let has_ns = run.get("ns_per_op").is_some();
    if !is_install && !has_ns {
        return Ok(());
    }
    for key in ["ns_per_op", "installs_per_sec"] {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("runs[{i}] (`{name}`) has non-positive `{key}` {v}"));
        }
    }
    let threads = run
        .get("threads")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `threads`"))?;
    // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
    if threads.fract() != 0.0 || threads < 1.0 {
        return Err(format!(
            "runs[{i}] (`{name}`) has invalid `threads` {threads} (want integer >= 1)"
        ));
    }
    if let Some(ratio) = run.get("ratio") {
        let ratio =
            ratio.as_num().ok_or(format!("runs[{i}] (`{name}`) has a non-numeric `ratio`"))?;
        if !ratio.is_finite() || ratio < 1.0 {
            return Err(format!(
                "runs[{i}] (`{name}`) has invalid `ratio` {ratio} (want finite >= 1)"
            ));
        }
    }
    Ok(())
}

/// Validates the flow-analysis self-check row the linter appends via
/// `--bench-row`: any run named `lint/...` — and, symmetrically, any run
/// that claims a `flow_analysis_ms` figure — must carry the full analysis
/// record (finite `flow_analysis_ms` ≥ 0, integral `files_scanned` ≥ 1,
/// integral `functions` ≥ 1), so the wall-time gate's evidence is never
/// published without the workload that produced it. Rows are optional: a
/// smoke BENCH file with no lint row stays valid.
fn validate_lint_row(i: usize, name: &str, run: &Json) -> Result<(), String> {
    let is_lint = name == "lint" || name.starts_with("lint/");
    let has_ms = run.get("flow_analysis_ms").is_some();
    if !is_lint && !has_ms {
        return Ok(());
    }
    let ms = run
        .get("flow_analysis_ms")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `flow_analysis_ms`"))?;
    if !ms.is_finite() || ms < 0.0 {
        return Err(format!("runs[{i}] (`{name}`) has invalid `flow_analysis_ms` {ms}"));
    }
    for key in ["files_scanned", "functions"] {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
        if v.fract() != 0.0 || v < 1.0 {
            return Err(format!(
                "runs[{i}] (`{name}`) has invalid `{key}` {v} (want integer >= 1)"
            ));
        }
    }
    Ok(())
}

/// Validates the bid-pipeline row appended by `bench auction`: any run
/// named `auction/...` — and, symmetrically, any run that claims an
/// `auctions_per_sec` figure — must carry the full exchange record
/// (`auctions_per_sec` > 0, `decode_ns_per_req` > 0, finite
/// `serve_overhead_pct` ≥ 0, integral `revenue_micros` ≥ 0, the attacker
/// column `attack_success_live` in [0, 1], integral
/// `users`/`requests`/`shards` ≥ 1, and a non-empty `digest`), so the live
/// pipeline's throughput is never published without the codec cost, the
/// revenue it settled, and what the attacker recovers from it.
fn validate_auction_row(i: usize, name: &str, run: &Json) -> Result<(), String> {
    let is_auction = name == "auction" || name.starts_with("auction/");
    let has_aps = run.get("auctions_per_sec").is_some();
    if !is_auction && !has_aps {
        return Ok(());
    }
    for key in ["auctions_per_sec", "decode_ns_per_req"] {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("runs[{i}] (`{name}`) has non-positive `{key}` {v}"));
        }
    }
    let overhead = run
        .get("serve_overhead_pct")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `serve_overhead_pct`"))?;
    if !overhead.is_finite() || overhead < 0.0 {
        return Err(format!(
            "runs[{i}] (`{name}`) has invalid `serve_overhead_pct` {overhead} (want finite >= 0)"
        ));
    }
    let revenue = run
        .get("revenue_micros")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `revenue_micros`"))?;
    // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
    if revenue.fract() != 0.0 || revenue < 0.0 {
        return Err(format!(
            "runs[{i}] (`{name}`) has invalid `revenue_micros` {revenue} (want integer >= 0)"
        ));
    }
    let attack = run
        .get("attack_success_live")
        .and_then(Json::as_num)
        .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `attack_success_live`"))?;
    if !(0.0..=1.0).contains(&attack) {
        return Err(format!(
            "runs[{i}] (`{name}`) has invalid `attack_success_live` {attack} (want a rate in [0, 1])"
        ));
    }
    for key in ["users", "requests", "shards"] {
        let v = run
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("runs[{i}] (`{name}`) missing numeric key `{key}`"))?;
        // lint:allow(float-eq): exact integrality test — fract() of an integral f64 is exactly 0.0
        if v.fract() != 0.0 || v < 1.0 {
            return Err(format!(
                "runs[{i}] (`{name}`) has invalid `{key}` {v} (want integer >= 1)"
            ));
        }
    }
    let digest = run
        .get("digest")
        .and_then(Json::as_str)
        .ok_or(format!("runs[{i}] (`{name}`) missing string key `digest`"))?;
    if digest.is_empty() {
        return Err(format!("runs[{i}] (`{name}`) has an empty `digest`"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\""}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str().unwrap(), "x\n\"y\"");
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a": "#).is_err());
        assert!(parse("[1, 2").is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let original = "line\nwith \"quotes\" and \\slashes\\ and \ttabs";
        let doc = format!(r#"{{"k": "{}"}}"#, escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), original);
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let doc = parse(
            r#"{"experiment": "serve", "seed": 0, "nested": {"a": [1, 2.5, -3, true, null, "s\n"]},
                "big": 1e300, "neg": -0.125}"#,
        )
        .unwrap();
        let rendered = render(&doc);
        assert_eq!(parse(&rendered).unwrap(), doc);
        // Integral values render without a fractional part.
        assert!(rendered.contains("\"seed\": 0"));
        assert!(rendered.contains("2.5"));
    }

    #[test]
    fn serve_rows_require_the_full_serving_triple() {
        let report = |row: &str| {
            format!(r#"{{"experiment": "serve", "seed": 0, "threads": 1, "runs": [{row}]}}"#)
        };
        let good = report(
            r#"{"name": "serve/batched", "wall_ms": 10.0,
                "requests_per_sec": 1.5e6, "batch": 64, "threads": 2}"#,
        );
        assert!(validate_bench_report(&good).is_ok());
        // Non-serve rows without throughput claims stay valid.
        let plain = report(r#"{"name": "fig9", "wall_ms": 82.3}"#);
        assert!(validate_bench_report(&plain).is_ok());
        // A serve row missing its triple is rejected...
        let missing = report(r#"{"name": "serve/batched", "wall_ms": 10.0}"#);
        assert!(validate_bench_report(&missing).unwrap_err().contains("requests_per_sec"));
        let no_batch = report(
            r#"{"name": "serve/x", "wall_ms": 1.0, "requests_per_sec": 10.0, "threads": 1}"#,
        );
        assert!(validate_bench_report(&no_batch).unwrap_err().contains("batch"));
        // ...as are nonsense values.
        let zero_rps = report(
            r#"{"name": "serve/x", "wall_ms": 1.0, "requests_per_sec": 0, "batch": 1, "threads": 1}"#,
        );
        assert!(validate_bench_report(&zero_rps).is_err());
        let frac_batch = report(
            r#"{"name": "serve/x", "wall_ms": 1.0, "requests_per_sec": 5.0, "batch": 1.5, "threads": 1}"#,
        );
        assert!(validate_bench_report(&frac_batch).is_err());
        // Any row claiming requests_per_sec needs the shape, serve-named or not.
        let sneaky = report(r#"{"name": "other", "wall_ms": 1.0, "requests_per_sec": 5.0}"#);
        assert!(validate_bench_report(&sneaky).is_err());
    }

    #[test]
    fn scale_rows_require_the_full_capacity_record() {
        let report = |rows: &str| {
            format!(r#"{{"experiment": "serve", "seed": 0, "threads": 1, "runs": [{rows}]}}"#)
        };
        let good = report(
            r#"{"name": "serve/scale/10000", "wall_ms": 40.0, "users": 10000, "shards": 1,
                "bytes_per_user": 1800.5, "checkpoint_encode_ms": 2.0, "recovery_ms": 5.0,
                "per_shard_recovery_ms": 5.0, "digest": "00f00ba900f00ba9"}"#,
        );
        // A capacity row is exempt from the serving triple (no requests_per_sec).
        assert!(validate_bench_report(&good).is_ok());
        // A scale-named row missing its capacity fields is rejected...
        let missing = report(r#"{"name": "serve/scale/16", "wall_ms": 1.0}"#);
        assert!(validate_bench_report(&missing).unwrap_err().contains("users"));
        // ...as are nonsense values.
        let base = |patch: &str| {
            report(&format!(
                r#"{{"name": "serve/scale/16", "wall_ms": 1.0, "users": 16, "shards": 1,
                    "bytes_per_user": 9.0, "checkpoint_encode_ms": 1.0, "recovery_ms": 2.0,
                    "per_shard_recovery_ms": 2.0, "digest": "ab", {patch}}}"#
            ))
        };
        assert!(validate_bench_report(&base(r#""users": 0"#)).unwrap_err().contains("users"));
        assert!(validate_bench_report(&base(r#""shards": 1.5"#)).unwrap_err().contains("shards"));
        assert!(validate_bench_report(&base(r#""bytes_per_user": 0"#))
            .unwrap_err()
            .contains("bytes_per_user"));
        assert!(validate_bench_report(&base(r#""recovery_ms": -1"#))
            .unwrap_err()
            .contains("recovery_ms"));
        assert!(validate_bench_report(&base(r#""digest": """#)).unwrap_err().contains("digest"));
        // The worst shard cannot have taken longer than the whole fleet.
        let impossible = validate_bench_report(&base(r#""per_shard_recovery_ms": 3.0"#));
        assert!(impossible.unwrap_err().contains("cannot exceed the fleet total"));
        // Fleet sizes must sweep strictly upward in file order.
        let shrinking = report(&format!(
            "{row10k}, {row16}",
            row10k = r#"{"name": "serve/scale/10000", "wall_ms": 40.0, "users": 10000,
                "shards": 1, "bytes_per_user": 1800.5, "checkpoint_encode_ms": 2.0,
                "recovery_ms": 5.0, "per_shard_recovery_ms": 5.0, "digest": "aa"}"#,
            row16 = r#"{"name": "serve/scale/16", "wall_ms": 1.0, "users": 16, "shards": 1,
                "bytes_per_user": 9.0, "checkpoint_encode_ms": 1.0, "recovery_ms": 2.0,
                "per_shard_recovery_ms": 2.0, "digest": "ab"}"#,
        ));
        assert!(validate_bench_report(&shrinking)
            .unwrap_err()
            .contains("strictly increasing fleet sizes"));
        // Any row claiming bytes_per_user needs the record, scale-named or not.
        let sneaky = report(r#"{"name": "other", "wall_ms": 1.0, "bytes_per_user": 9.0}"#);
        assert!(validate_bench_report(&sneaky).unwrap_err().contains("users"));
    }

    #[test]
    fn chaos_rows_require_the_full_survival_record() {
        let report = |row: &str| {
            format!(r#"{{"experiment": "chaos", "seed": 0, "threads": 2, "runs": [{row}]}}"#)
        };
        let good = report(
            r#"{"name": "chaos/worker_kill/2", "wall_ms": 12.5, "faults_injected": 6,
                "requests_survived": 232, "restarts": 6, "recovery_ns": 18400.5, "threads": 2}"#,
        );
        assert!(validate_bench_report(&good).is_ok());
        // Zero faults (a clean flood run) is a legal record.
        let calm = report(
            r#"{"name": "chaos/flood/1", "wall_ms": 1.0, "faults_injected": 0,
                "requests_survived": 64, "restarts": 0, "recovery_ns": 0, "threads": 1}"#,
        );
        assert!(validate_bench_report(&calm).is_ok());
        // A chaos row missing any of its survival fields is rejected...
        let missing = report(r#"{"name": "chaos/worker_kill/2", "wall_ms": 12.5}"#);
        assert!(validate_bench_report(&missing).unwrap_err().contains("faults_injected"));
        let no_recovery = report(
            r#"{"name": "chaos/x", "wall_ms": 1.0, "faults_injected": 1,
                "requests_survived": 9, "restarts": 1, "threads": 1}"#,
        );
        assert!(validate_bench_report(&no_recovery).unwrap_err().contains("recovery_ns"));
        // ...as are fractional counts and negative costs.
        let frac = report(
            r#"{"name": "chaos/x", "wall_ms": 1.0, "faults_injected": 1.5,
                "requests_survived": 9, "restarts": 1, "recovery_ns": 5, "threads": 1}"#,
        );
        assert!(validate_bench_report(&frac).is_err());
        let negative = report(
            r#"{"name": "chaos/x", "wall_ms": 1.0, "faults_injected": 1,
                "requests_survived": 9, "restarts": 1, "recovery_ns": -2, "threads": 1}"#,
        );
        assert!(validate_bench_report(&negative).is_err());
        // Any row claiming faults_injected needs the record, chaos-named or not.
        let sneaky = report(r#"{"name": "other", "wall_ms": 1.0, "faults_injected": 3}"#);
        assert!(validate_bench_report(&sneaky).unwrap_err().contains("requests_survived"));
    }

    #[test]
    fn auction_rows_require_the_full_exchange_record() {
        let report = |row: &str| {
            format!(r#"{{"experiment": "auction", "seed": 0, "threads": 1, "runs": [{row}]}}"#)
        };
        let base = |patch: &str| {
            report(&format!(
                r#"{{"name": "auction/exchange", "wall_ms": 900.0, "auctions_per_sec": 2.5e5,
                    "decode_ns_per_req": 14.2, "serve_overhead_pct": 1.2,
                    "revenue_micros": 123456789, "attack_success_live": 0.02,
                    "users": 64, "requests": 10240, "shards": 16,
                    "digest": "00f00ba900f00ba9"{patch}}}"#
            ))
        };
        assert!(validate_bench_report(&base("")).is_ok());
        // An auction row missing its record is rejected...
        let missing = report(r#"{"name": "auction/exchange", "wall_ms": 1.0}"#);
        assert!(validate_bench_report(&missing).unwrap_err().contains("auctions_per_sec"));
        let no_decode =
            report(r#"{"name": "auction/exchange", "wall_ms": 1.0, "auctions_per_sec": 10.0}"#);
        assert!(validate_bench_report(&no_decode).unwrap_err().contains("decode_ns_per_req"));
        // ...as are nonsense values.
        assert!(validate_bench_report(&base(r#", "auctions_per_sec": 0"#))
            .unwrap_err()
            .contains("auctions_per_sec"));
        assert!(validate_bench_report(&base(r#", "decode_ns_per_req": -3"#))
            .unwrap_err()
            .contains("decode_ns_per_req"));
        assert!(validate_bench_report(&base(r#", "serve_overhead_pct": -0.1"#))
            .unwrap_err()
            .contains("serve_overhead_pct"));
        assert!(validate_bench_report(&base(r#", "revenue_micros": 1.5"#))
            .unwrap_err()
            .contains("revenue_micros"));
        assert!(validate_bench_report(&base(r#", "attack_success_live": 1.2"#))
            .unwrap_err()
            .contains("attack_success_live"));
        let no_attack = base("").replace(r#""attack_success_live": 0.02,"#, "");
        assert!(validate_bench_report(&no_attack).unwrap_err().contains("attack_success_live"));
        assert!(validate_bench_report(&base(r#", "shards": 0"#)).unwrap_err().contains("shards"));
        assert!(validate_bench_report(&base(r#", "requests": 2.5"#))
            .unwrap_err()
            .contains("requests"));
        assert!(validate_bench_report(&base(r#", "digest": """#)).unwrap_err().contains("digest"));
        // Any row claiming auctions_per_sec needs the record, auction-named
        // or not.
        let sneaky = report(r#"{"name": "other", "wall_ms": 1.0, "auctions_per_sec": 5.0}"#);
        assert!(validate_bench_report(&sneaky).unwrap_err().contains("decode_ns_per_req"));
    }

    #[test]
    fn fabric_columns_travel_as_a_validated_group() {
        let report = |extra: &str| {
            format!(
                r#"{{"experiment": "chaos", "seed": 0, "threads": 2, "runs": [
                    {{"name": "chaos/fabric/4", "wall_ms": 12.5, "faults_injected": 30,
                      "requests_survived": 232, "restarts": 8, "recovery_ns": 18400.5,
                      "threads": 4{extra}}}]}}"#
            )
        };
        let good = report(
            r#", "duplicates_injected": 12, "duplicates_suppressed": 12,
               "breaker_transitions": 5, "degraded_serves": 4, "deadline_misses": 1"#,
        );
        assert!(validate_bench_report(&good).is_ok());
        // A legacy chaos row without any fabric column still validates.
        assert!(validate_bench_report(&report("")).is_ok());
        // Claiming one fabric column demands the whole group.
        let partial = report(r#", "duplicates_injected": 12"#);
        assert!(validate_bench_report(&partial).unwrap_err().contains("duplicates_suppressed"));
        // Fractional or negative counts are rejected.
        let frac = report(
            r#", "duplicates_injected": 1.5, "duplicates_suppressed": 1,
               "breaker_transitions": 0, "degraded_serves": 0, "deadline_misses": 0"#,
        );
        assert!(validate_bench_report(&frac).unwrap_err().contains("duplicates_injected"));
        let negative = report(
            r#", "duplicates_injected": 2, "duplicates_suppressed": 2,
               "breaker_transitions": 0, "degraded_serves": 0, "deadline_misses": -1"#,
        );
        assert!(validate_bench_report(&negative).unwrap_err().contains("deadline_misses"));
        // Exactly-once must hold on the row's face.
        let leaky = report(
            r#", "duplicates_injected": 3, "duplicates_suppressed": 4,
               "breaker_transitions": 0, "degraded_serves": 0, "deadline_misses": 0"#,
        );
        assert!(validate_bench_report(&leaky)
            .unwrap_err()
            .contains("cannot suppress more copies than were injected"));
        // Degraded serves without a breaker transition are a fabricated claim.
        let phantom = report(
            r#", "duplicates_injected": 0, "duplicates_suppressed": 0,
               "breaker_transitions": 0, "degraded_serves": 2, "deadline_misses": 0"#,
        );
        assert!(validate_bench_report(&phantom)
            .unwrap_err()
            .contains("stale-cache serving requires an open breaker"));
    }

    #[test]
    fn candidate_install_rows_require_the_full_install_record() {
        let report = |row: &str| {
            format!(r#"{{"experiment": "microbench", "seed": 0, "threads": 1, "runs": [{row}]}}"#)
        };
        let good = report(
            r#"{"name": "candidate_install/batched", "wall_ms": 0.3, "ns_per_op": 78.0,
                "installs_per_sec": 1.2e7, "threads": 1, "ratio": 4.7}"#,
        );
        assert!(validate_bench_report(&good).is_ok());
        // The cold row legitimately carries no ratio.
        let cold = report(
            r#"{"name": "candidate_install/cold", "wall_ms": 1.3, "ns_per_op": 325.0,
                "installs_per_sec": 3.0e6, "threads": 1}"#,
        );
        assert!(validate_bench_report(&cold).is_ok());
        // A candidate row missing its record is rejected...
        let missing = report(r#"{"name": "candidate_install/cold", "wall_ms": 1.0}"#);
        assert!(validate_bench_report(&missing).unwrap_err().contains("ns_per_op"));
        let no_rate = report(
            r#"{"name": "candidate_install/cold", "wall_ms": 1.0, "ns_per_op": 5.0,
                "threads": 1}"#,
        );
        assert!(validate_bench_report(&no_rate).unwrap_err().contains("installs_per_sec"));
        // ...as are nonsense values.
        let zero_ns = report(
            r#"{"name": "candidate_install/cold", "wall_ms": 1.0, "ns_per_op": 0,
                "installs_per_sec": 1.0, "threads": 1}"#,
        );
        assert!(validate_bench_report(&zero_ns).is_err());
        let frac_threads = report(
            r#"{"name": "candidate_install/cold", "wall_ms": 1.0, "ns_per_op": 5.0,
                "installs_per_sec": 1.0, "threads": 1.5}"#,
        );
        assert!(validate_bench_report(&frac_threads).is_err());
        // A speedup below 1 is a regression wearing a ratio, not a speedup.
        let shrinking = report(
            r#"{"name": "candidate_install/batched", "wall_ms": 1.0, "ns_per_op": 5.0,
                "installs_per_sec": 1.0, "threads": 1, "ratio": 0.8}"#,
        );
        assert!(validate_bench_report(&shrinking).unwrap_err().contains("ratio"));
        // Any row claiming ns_per_op needs the record, install-named or not.
        let sneaky = report(r#"{"name": "other", "wall_ms": 1.0, "ns_per_op": 5.0}"#);
        assert!(validate_bench_report(&sneaky).unwrap_err().contains("installs_per_sec"));
    }

    #[test]
    fn lint_rows_require_the_full_analysis_record() {
        let report = |row: &str| {
            format!(r#"{{"experiment": "all", "seed": 0, "threads": 1, "runs": [{row}]}}"#)
        };
        let good = report(
            r#"{"name": "lint/flow_analysis_ms", "wall_ms": 76.5, "flow_analysis_ms": 76.5,
                "files_scanned": 136, "functions": 1796}"#,
        );
        assert!(validate_bench_report(&good).is_ok());
        // A BENCH file with no lint row at all stays valid.
        let none = report(r#"{"name": "fig9", "wall_ms": 82.3}"#);
        assert!(validate_bench_report(&none).is_ok());
        // A lint row missing its record is rejected...
        let missing = report(r#"{"name": "lint/flow_analysis_ms", "wall_ms": 76.5}"#);
        assert!(validate_bench_report(&missing).unwrap_err().contains("flow_analysis_ms"));
        let no_files = report(
            r#"{"name": "lint/flow_analysis_ms", "wall_ms": 1.0, "flow_analysis_ms": 1.0,
                "functions": 5}"#,
        );
        assert!(validate_bench_report(&no_files).unwrap_err().contains("files_scanned"));
        // ...as are nonsense values.
        let negative = report(
            r#"{"name": "lint/flow_analysis_ms", "wall_ms": 1.0, "flow_analysis_ms": -1.0,
                "files_scanned": 10, "functions": 5}"#,
        );
        assert!(validate_bench_report(&negative).is_err());
        let frac_fns = report(
            r#"{"name": "lint/flow_analysis_ms", "wall_ms": 1.0, "flow_analysis_ms": 1.0,
                "files_scanned": 10, "functions": 5.5}"#,
        );
        assert!(validate_bench_report(&frac_fns).is_err());
        // Any row claiming flow_analysis_ms needs the record, lint-named or not.
        let sneaky = report(r#"{"name": "other", "wall_ms": 1.0, "flow_analysis_ms": 3.0}"#);
        assert!(validate_bench_report(&sneaky).unwrap_err().contains("files_scanned"));
    }

    #[test]
    fn telemetry_sections_are_validated_when_present() {
        let report = |telemetry: &str| {
            format!(
                r#"{{"experiment": "serve", "seed": 0, "threads": 1,
                    "runs": [{{"name": "fig9", "wall_ms": 1.0}}],
                    "telemetry": {telemetry}}}"#
            )
        };
        let hub = |counters: &str, histograms: &str, ledger: &str| {
            format!(
                r#"{{"serve": {{"counters": {counters}, "gauges": {{}},
                     "histograms": {histograms}, "ledger": {ledger}}}}}"#
            )
        };
        let good_ledger = r#"{"users": 2, "epsilon_total": 2.0, "delta_total": 0.0002,
                              "candidate_sets": 2, "window_closes": 2, "per_user": {}}"#;
        // A well-formed hub passes, and a log with no telemetry at all passes.
        let good = report(&hub(
            r#"{"edge.checkins": 24, "server.requests": 40}"#,
            r#"{"server.batch_size": [0, 3, 5, 5]}"#,
            good_ledger,
        ));
        assert!(validate_bench_report(&good).is_ok());
        let none = r#"{"experiment": "serve", "seed": 0, "threads": 1,
                       "runs": [{"name": "fig9", "wall_ms": 1.0}]}"#;
        assert!(validate_bench_report(none).is_ok());
        // Malformed hubs are rejected: fractional/negative counters...
        let frac = report(&hub(r#"{"edge.checkins": 1.5}"#, "{}", good_ledger));
        assert!(validate_bench_report(&frac).unwrap_err().contains("edge.checkins"));
        let negative = report(&hub(r#"{"edge.checkins": -3}"#, "{}", good_ledger));
        assert!(validate_bench_report(&negative).is_err());
        // ...non-cumulative histogram buckets...
        let sawtooth = report(&hub("{}", r#"{"server.batch_size": [0, 5, 3]}"#, good_ledger));
        assert!(validate_bench_report(&sawtooth).unwrap_err().contains("not cumulative"));
        // ...negative or missing ledger totals...
        let debt = report(&hub(
            "{}",
            "{}",
            r#"{"users": 1, "epsilon_total": -1.0, "delta_total": 0,
                "candidate_sets": 1, "window_closes": 1, "per_user": {}}"#,
        ));
        assert!(validate_bench_report(&debt).unwrap_err().contains("epsilon_total"));
        let no_ledger = report(r#"{"serve": {"counters": {}, "gauges": {}, "histograms": {}}}"#);
        assert!(validate_bench_report(&no_ledger).unwrap_err().contains("ledger"));
        // ...and structurally broken sections.
        let not_obj = report(r#"[1, 2]"#);
        assert!(validate_bench_report(&not_obj).unwrap_err().contains("not an object"));
        let no_counters = report(
            r#"{"serve": {"gauges": {}, "histograms": {},
                "ledger": {"users": 0, "epsilon_total": 0, "delta_total": 0,
                           "candidate_sets": 0, "window_closes": 0, "per_user": {}}}}"#,
        );
        assert!(validate_bench_report(&no_counters).unwrap_err().contains("counters"));
    }

    #[test]
    fn bench_report_validation() {
        let good = r#"{"experiment": "all", "seed": 0, "threads": 4,
            "runs": [{"name": "fig9", "wall_ms": 82.3, "threads": 4}]}"#;
        assert!(validate_bench_report(good).is_ok());
        assert!(validate_bench_report("{}").is_err());
        assert!(validate_bench_report(
            r#"{"experiment": "all", "seed": 0, "threads": 1, "runs": []}"#
        )
        .is_err());
        let bad_run = r#"{"experiment": "all", "seed": 0, "threads": 1, "runs": [{"name": "x"}]}"#;
        assert!(validate_bench_report(bad_run).is_err());
        assert!(validate_bench_report("not json").is_err());
    }
}
