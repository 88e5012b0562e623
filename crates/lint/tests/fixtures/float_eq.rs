// Positive fixture: exact float comparisons.
fn check(x: f64, y: f64) -> bool {
    if x == 1.0 {
        return true;
    }
    y != f64::INFINITY
}

// Not a finding: a tuple-field comparison (`.1` after `]` is a field).
fn second_fields_match(pairs: &[(u8, u8)], i: usize) -> bool {
    pairs[i].1 == pairs[0].1
}
