//! Deterministic JSON rendering of a [`Telemetry`] hub.
//!
//! Hand-rolled on purpose: the workspace is offline and dependency-free,
//! and the output shape is small and fully controlled. Keys appear in
//! sorted order (the registry snapshot and ledger totals are already
//! sorted), so two hubs with equal state render byte-identical strings.

use crate::registry::Determinism;
use crate::Telemetry;

/// Renders the hub as a single JSON object. With `deterministic_only`,
/// metrics whose class is [`Determinism::Scheduling`] are omitted so the
/// output is a pure function of seed + workload.
pub(crate) fn render(telemetry: &Telemetry, deterministic_only: bool) -> String {
    let snap = telemetry.registry().snapshot();
    let keep = |class: Determinism| !deterministic_only || class == Determinism::Deterministic;
    let mut out = String::from("{");

    out.push_str("\"counters\": {");
    let mut first = true;
    for (name, value, class) in &snap.counters {
        if keep(*class) {
            push_entry(&mut out, &mut first, name, &value.to_string());
        }
    }
    out.push_str("}, \"gauges\": {");
    first = true;
    for (name, value, class) in &snap.gauges {
        if keep(*class) {
            push_entry(&mut out, &mut first, name, &value.to_string());
        }
    }
    out.push_str("}, \"histograms\": {");
    first = true;
    for (name, cumulative, class) in &snap.histograms {
        if keep(*class) {
            let buckets: Vec<String> = cumulative.iter().map(u64::to_string).collect();
            push_entry(&mut out, &mut first, name, &format!("[{}]", buckets.join(", ")));
        }
    }

    out.push_str("}, \"ledger\": ");
    render_ledger(telemetry, &mut out, deterministic_only);
    out.push('}');
    out
}

/// The ledger section. Budget spends (ε/δ totals, candidate sets, window
/// closes) are pure functions of the workload and ship in both modes;
/// restore events and the raw event count depend on where crashes landed
/// relative to checkpoint boundaries, so the deterministic export omits
/// them.
fn render_ledger(telemetry: &Telemetry, out: &mut String, deterministic_only: bool) {
    let totals = telemetry.ledger().totals();
    out.push('{');
    if !deterministic_only {
        out.push_str(&format!("\"events\": {}, ", totals.events));
    }
    out.push_str(&format!(
        "\"users\": {}, \"epsilon_total\": {}, \"delta_total\": {}, \
         \"candidate_sets\": {}, \"window_closes\": {}, ",
        totals.users,
        num(totals.epsilon),
        num(totals.delta),
        totals.candidate_sets,
        totals.window_closes,
    ));
    if !deterministic_only {
        out.push_str(&format!("\"restores\": {}, ", totals.restores));
    }
    out.push_str("\"per_user\": {");
    let mut first = true;
    for (user, t) in telemetry.ledger().user_totals() {
        let mut body = format!(
            "{{\"epsilon\": {}, \"delta\": {}, \"candidate_sets\": {}, \"window_closes\": {}",
            num(t.epsilon),
            num(t.delta),
            t.candidate_sets,
            t.window_closes,
        );
        if !deterministic_only {
            body.push_str(&format!(", \"restores\": {}", t.restores));
        }
        body.push('}');
        push_entry(out, &mut first, &user.to_string(), &body);
    }
    out.push_str("}}");
}

fn push_entry(out: &mut String, first: &mut bool, key: &str, value: &str) {
    if !*first {
        out.push_str(", ");
    }
    *first = false;
    out.push('"');
    out.push_str(&escape(key));
    out.push_str("\": ");
    out.push_str(value);
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Shortest-roundtrip decimal rendering of an f64 (Rust's `{:?}`), which
/// is stable across runs and platforms.
fn num(value: f64) -> String {
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{top_key, SpendEvent, SpendKind, Telemetry};

    fn sample_hub() -> Telemetry {
        let telemetry = Telemetry::new();
        let registry = telemetry.registry();
        registry.counter("edge.requests", Determinism::Deterministic).add(12);
        registry.counter("server.wakeups", Determinism::Scheduling).add(3);
        registry.gauge("server.queue_depth", Determinism::Scheduling).add(2);
        registry.histogram("server.batch_size", Determinism::Scheduling).observe(4);
        let top = top_key(10.0, 20.0);
        let set = SpendKind::CandidateSet { top, epsilon: 1.0, delta: 1e-4, n: 10 };
        telemetry.ledger().record(SpendEvent { user: 1, kind: set });
        telemetry.ledger().record(SpendEvent { user: 1, kind: SpendKind::WindowClose });
        telemetry
    }

    #[test]
    fn full_export_includes_every_section() {
        let json = sample_hub().to_json();
        for key in
            ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"ledger\"", "\"per_user\"", "\"1\""]
        {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"edge.requests\": 12"));
        assert!(json.contains("\"server.wakeups\": 3"));
        assert!(json.contains("\"epsilon_total\": 1.0"));
    }

    #[test]
    fn deterministic_export_drops_scheduling_metrics() {
        let json = sample_hub().deterministic_json();
        assert!(json.contains("edge.requests"));
        assert!(!json.contains("server.wakeups"));
        assert!(!json.contains("server.queue_depth"));
        assert!(!json.contains("server.batch_size"));
        // The budget ledger always ships…
        assert!(json.contains("\"candidate_sets\": 1"));
        // …minus its scheduling-dependent restore/event bookkeeping.
        assert!(!json.contains("\"restores\""));
        assert!(!json.contains("\"events\""));
        assert!(sample_hub().to_json().contains("\"restores\": 0"));
    }

    #[test]
    fn equal_state_renders_byte_identical_json() {
        assert_eq!(sample_hub().to_json(), sample_hub().to_json());
        assert_eq!(sample_hub().deterministic_json(), sample_hub().deterministic_json());
    }
}
