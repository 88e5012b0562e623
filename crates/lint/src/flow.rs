//! Flow-aware cross-crate analysis: the `location-leak` and `seed-flow`
//! rules.
//!
//! Both rules run over the workspace symbol table built by [`crate::parser`]
//! and a name-based approximate call graph:
//!
//! * **`location-leak`** is a taint analysis over a declarative
//!   source/sanitizer/sink model. *Sources* return true-location data (trace
//!   accessors in `mobility`, `LocationManager` profile reads, protocol
//!   request decoding). *Sanitizers* are the LPPM boundary (`Lppm`
//!   mechanism entry points, `ObfuscationModule` candidate paths, the
//!   device-level `reported_location`). *Sinks* serialize data that leaves
//!   the trusted edge runtime (protocol response encoding, checkpoint
//!   serialization, ad-network bid assembly, telemetry exports). A finding
//!   is any source→sink call path with no intervening sanitizer, reported
//!   with a full path witness (call chain, `file:line` per hop).
//! * **`seed-flow`** reuses the same table for the determinism contract:
//!   every RNG stream in result-producing crates must trace back to
//!   `derive_seed`-derived state. Functions that forward a parameter into an
//!   RNG constructor become *seed passthroughs*, and the obligation
//!   propagates to their call sites — so `EdgeDevice::new(cfg, 7)` is
//!   flagged three hops away from the actual `StdRng::seed_from_u64`.
//!
//! Soundness limits (documented in DESIGN.md §15): calls resolve by name
//! with a same-file → same-crate → workspace preference, so trait objects
//! and same-named methods on different types may alias; data flowing through
//! struct fields rather than calls is invisible; and the per-body scan is
//! ordered by line, not by real control flow. The model patterns are chosen
//! so these approximations err toward silence, and both rules support the
//! standard inline / `lint.allow` suppressions for the rest.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{CallSite, FnItem, ParsedFile};
use crate::rules::{FileKind, Finding, RESULT_PRODUCING};

/// A declarative pattern matching workspace functions by crate, `impl` type
/// and name. `None` fields match anything.
struct FnPat {
    krate: Option<&'static str>,
    ty: Option<&'static str>,
    name: &'static str,
}

const fn pat(krate: Option<&'static str>, ty: Option<&'static str>, name: &'static str) -> FnPat {
    FnPat { krate, ty, name }
}

/// Crates where the experiment harness *deliberately* pipes true traces
/// into the attack / ad-network stack to measure exposure (that pipeline is
/// the paper's evaluation, not a leak). Functions there still propagate
/// taint and reachability through the graph, but leak findings are never
/// reported inside them.
const LEAK_EXEMPT_CRATES: &[&str] = &["attack", "bench"];

/// Functions whose return value *is* true-location data.
///
/// Note `ClientRequest::decode` is deliberately absent: the decoded check-in
/// does carry a true location, but it is consumed by `LocationManager::
/// record` (a write, not a modelled accessor), and at this engine's
/// return-value granularity a decode source taints every server worker loop
/// without ever describing a real flow. Leakage *out of* the manager is what
/// the accessor sources below catch.
const SOURCES: &[FnPat] = &[
    pat(Some("mobility"), None, "generate_user"),
    pat(Some("mobility"), Some("UserTrace"), "locations"),
    pat(Some("mobility"), Some("Dataset"), "users"),
    pat(Some("core"), Some("LocationManager"), "top_set"),
    pat(Some("core"), Some("LocationManager"), "matching_top"),
    pat(Some("core"), Some("LocationManager"), "profile"),
    pat(Some("core"), Some("LocationManager"), "finalize_window"),
    pat(Some("core"), None, "frequent_location_set"),
];

/// The LPPM boundary: calls that turn true locations into released
/// candidates (or draw from already-released candidate sets).
const SANITIZERS: &[FnPat] = &[
    pat(Some("mechanisms"), None, "obfuscate"),
    pat(Some("mechanisms"), None, "obfuscate_into"),
    pat(Some("mechanisms"), None, "obfuscate_batch"),
    pat(Some("mechanisms"), None, "obfuscate_many"),
    pat(Some("mechanisms"), None, "obfuscate_many_into"),
    pat(Some("mechanisms"), None, "obfuscate_shared_stream_into"),
    pat(Some("mechanisms"), Some("PlanarLaplace"), "sample"),
    pat(Some("core"), Some("ObfuscationModule"), "candidates_for"),
    pat(Some("core"), Some("ObfuscationModule"), "obfuscate_top_set"),
    pat(Some("core"), Some("ObfuscationModule"), "obfuscate_top_set_with"),
    pat(Some("core"), Some("ObfuscationModule"), "obfuscate_top_set_derived"),
    pat(Some("core"), None, "reported_location"),
    // The checkpoint is a trusted-store boundary, not a wire egress: the
    // bytes it returns hold true window state by design (restores must be
    // bit-identical), are streamed on demand from the committed device, and
    // their sole consumers are the restore paths (DESIGN.md §12, §17). The
    // one place live true state reaches the frame writer behind it
    // (`Pools::put_user`) carries its own documented inline allow; callers
    // holding the opaque image are on the sanitized side.
    pat(Some("core"), Some("EdgeDevice"), "checkpoint"),
];

/// Serialization points where data leaves the trusted edge runtime.
const SINKS: &[FnPat] = &[
    pat(Some("core"), Some("EdgeResponse"), "encode"),
    pat(Some("core"), Some("EdgeResponse"), "encode_into"),
    // The one v4 user-frame writer behind the streamed checkpoint: it
    // serializes a user's true window state, so it is a sink in its own
    // right.
    pat(Some("core"), None, "put_user_frame"),
    // The degraded-serving stale cache: entries are replayed verbatim to
    // clients while a shard's breaker is open, so writing a true location
    // here is deferred wire egress. Only decoded *released* responses may
    // populate it (the live call site is qualified so this resolves).
    pat(Some("core"), Some("StaleCache"), "insert"),
    pat(Some("adnet"), Some("AdNetwork"), "serve"),
    pat(Some("adnet"), Some("AdNetwork"), "auction"),
    // The OpenRTB-lite bid emission path: a location submitted to the sink is
    // framed and shipped to the ad exchange verbatim, so both the sink
    // hand-off and the wire encoder are egress points.
    pat(Some("openrtb"), Some("BidSink"), "submit"),
    pat(Some("openrtb"), Some("BidRequest"), "encode"),
    pat(Some("openrtb"), Some("BidRequest"), "encode_into"),
    pat(Some("telemetry"), None, "deterministic_json"),
    pat(Some("telemetry"), None, "to_json"),
];

/// RNG constructors that consume a raw `u64` seed. These live in vendored
/// `compat/` code, outside the scanned tree, so they anchor the seed-flow
/// obligation textually rather than through resolution.
const RNG_CTORS: &[&str] = &["seed_from_u64", "from_seed"];

/// How many call hops a rendered path witness may carry.
const MAX_WITNESS_HOPS: usize = 8;

/// Method names so ubiquitous (std prelude, collections, iterators) that an
/// unqualified `.name(` call must never resolve to a same-named workspace
/// function — the receiver is almost certainly a std type, and letting e.g.
/// every `.collect()` alias a workspace helper named `collect` wires the
/// whole call graph together. Qualified calls (`StaleCache::insert(..)`)
/// still resolve. Sorted for binary search.
const UBIQUITOUS_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "chain",
    "chars",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "ok",
    "or_else",
    "or_insert_with",
    "parse",
    "partition",
    "peek",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "recv",
    "remove",
    "repeat",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "send",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "spawn",
    "split",
    "split_at",
    "split_off",
    "split_whitespace",
    "starts_with",
    "strip_prefix",
    "sum",
    "swap",
    "take",
    "take_while",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "write",
    "write_all",
    "zip",
];

impl FnPat {
    fn matches(&self, file: &ParsedFile, item: &FnItem) -> bool {
        if item.name != self.name {
            return false;
        }
        if let Some(k) = self.krate {
            if file.crate_name.as_deref() != Some(k) {
                return false;
            }
        }
        if let Some(t) = self.ty {
            if item.impl_type.as_deref() != Some(t) {
                return false;
            }
        }
        true
    }
}

/// The flattened workspace symbol table plus its name index — the
/// approximate call graph is [`SymbolTable::resolve`] run over it.
pub struct SymbolTable<'a> {
    files: &'a [ParsedFile],
    /// `(file index, fn index)` for every function, in file order.
    fns: Vec<(usize, usize)>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> SymbolTable<'a> {
    pub fn build(files: &'a [ParsedFile]) -> SymbolTable<'a> {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.fns.iter().enumerate() {
                by_name.entry(item.name.as_str()).or_default().push(fns.len());
                fns.push((fi, ii));
            }
        }
        SymbolTable { files, fns, by_name }
    }

    /// Number of functions indexed.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    fn fn_at(&self, idx: usize) -> (&'a ParsedFile, &'a FnItem) {
        let (fi, ii) = self.fns[idx];
        (&self.files[fi], &self.files[fi].fns[ii])
    }

    /// Resolves a call site to candidate definitions: exact `impl`-type match
    /// when the call is qualified, then method calls prefer inherent/trait
    /// methods over free functions, then same file → same crate → workspace.
    /// Test-only functions never resolve from non-test callers.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        if call.method
            && call.qualifier.is_none()
            && UBIQUITOUS_METHODS.binary_search(&call.callee.as_str()).is_ok()
        {
            return Vec::new();
        }
        let Some(all) = self.by_name.get(call.callee.as_str()) else {
            return Vec::new();
        };
        let (caller_file, caller_item) = self.fn_at(caller);
        let mut candidates: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&c| caller_item.in_test || !self.fn_at(c).1.in_test)
            .collect();
        if let Some(q) = &call.qualifier {
            let typed: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| self.fn_at(c).1.impl_type.as_deref() == Some(q.as_str()))
                .collect();
            if !typed.is_empty() {
                return typed;
            }
        }
        if call.method {
            let methods: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| self.fn_at(c).1.impl_type.is_some())
                .collect();
            if !methods.is_empty() {
                candidates = methods;
            }
        }
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| std::ptr::eq(self.fn_at(c).0, caller_file))
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        if caller_file.crate_name.is_some() {
            let same_crate: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| self.fn_at(c).0.crate_name == caller_file.crate_name)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
        }
        candidates
    }

    fn qualified_name(&self, idx: usize) -> String {
        let (_, item) = self.fn_at(idx);
        match &item.impl_type {
            Some(t) => format!("{t}::{}", item.name),
            None => item.name.clone(),
        }
    }
}

/// Per-function classification under the location-leak model.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Plain,
    Source,
    Sanitizer,
    Sink,
}

/// Why a function is taint-returning / sink-reaching: the call that made it
/// so, for path-witness reconstruction. `callee == None` marks a model leaf
/// (a pattern source or sink itself).
#[derive(Clone)]
struct Witness {
    line: usize,
    callee: Option<usize>,
}

/// Runs both flow rules over the table and returns raw (not yet
/// suppression-resolved) findings.
pub fn analyze(table: &SymbolTable<'_>) -> Vec<Finding> {
    let mut findings = location_leak(table);
    findings.extend(seed_flow(table));
    findings
}

fn classify(table: &SymbolTable<'_>) -> Vec<Class> {
    (0..table.len())
        .map(|i| {
            let (file, item) = table.fn_at(i);
            if SANITIZERS.iter().any(|p| p.matches(file, item)) {
                Class::Sanitizer
            } else if SOURCES.iter().any(|p| p.matches(file, item)) {
                Class::Source
            } else if SINKS.iter().any(|p| p.matches(file, item)) {
                Class::Sink
            } else {
                Class::Plain
            }
        })
        .collect()
}

fn location_leak(table: &SymbolTable<'_>) -> Vec<Finding> {
    let n = table.len();
    let class = classify(table);

    // Fixpoint 1: `taint` — functions whose return carries true-location
    // data: pattern sources, plus any non-sanitizer whose body still holds
    // taint after its last source/sanitizer call in line order.
    //
    // Fixpoint 2: `reach` — functions whose arguments can reach a sink with
    // no sanitizer call earlier in their body: pattern sinks, plus any
    // non-sanitizer calling a `reach` member before any sanitizer.
    //
    // Witnesses are written once, on first entry, so chains are acyclic.
    let mut taint: Vec<Option<Witness>> = vec![None; n];
    let mut reach: Vec<Option<Witness>> = vec![None; n];
    for i in 0..n {
        match class[i] {
            Class::Source => taint[i] = Some(Witness { line: table.fn_at(i).1.line, callee: None }),
            Class::Sink => reach[i] = Some(Witness { line: table.fn_at(i).1.line, callee: None }),
            _ => {}
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if class[i] == Class::Sanitizer {
                continue;
            }
            let (_, item) = table.fn_at(i);
            if taint[i].is_none() && class[i] != Class::Source {
                let mut state: Option<Witness> = None;
                for call in &item.calls {
                    let resolved = table.resolve(i, call);
                    if resolved.iter().any(|&c| class[c] == Class::Sanitizer) {
                        state = None;
                    } else if let Some(&c) = resolved.iter().find(|&&c| taint[c].is_some()) {
                        state = Some(Witness { line: call.line, callee: Some(c) });
                    }
                }
                if state.is_some() {
                    taint[i] = state;
                    changed = true;
                }
            }
            if reach[i].is_none() && class[i] != Class::Sink {
                let mut sanitized = false;
                for call in &item.calls {
                    let resolved = table.resolve(i, call);
                    if resolved.iter().any(|&c| class[c] == Class::Sanitizer) {
                        sanitized = true;
                    }
                    if !sanitized {
                        if let Some(&c) = resolved.iter().find(|&&c| reach[c].is_some()) {
                            reach[i] = Some(Witness { line: call.line, callee: Some(c) });
                            changed = true;
                            break;
                        }
                    }
                }
            }
        }
    }

    // Reporting pass: inside each body, in line order, a call returning
    // taint arms the scan; a sanitizer call disarms it; a *later* call that
    // reaches a sink while armed is a leak. The same call both tainting and
    // sinking is reported inside the callee, not at every caller.
    let mut findings = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in 0..n {
        let (file, item) = table.fn_at(i);
        if item.in_test || matches!(file.kind, FileKind::Test | FileKind::Example) {
            continue;
        }
        if file.crate_name.as_deref().is_some_and(|c| LEAK_EXEMPT_CRATES.contains(&c)) {
            continue;
        }
        let mut armed: Option<(usize, Witness)> = None; // (call ordinal, origin)
        for (ord, call) in item.calls.iter().enumerate() {
            let resolved = table.resolve(i, call);
            if resolved.iter().any(|&c| class[c] == Class::Sanitizer) {
                armed = None;
                continue;
            }
            let taints = resolved.iter().copied().find(|&c| taint[c].is_some());
            let reaches = resolved.iter().copied().find(|&c| reach[c].is_some());
            if let Some(r) = reaches {
                if let Some((origin_ord, origin)) = &armed {
                    if *origin_ord < ord && seen.insert((i, call.line)) {
                        findings.push(leak_finding(table, i, origin, call.line, r, &taint, &reach));
                    }
                }
            }
            if let Some(t) = taints {
                if armed.is_none() {
                    armed = Some((ord, Witness { line: call.line, callee: Some(t) }));
                }
            }
        }
    }
    findings
}

/// Renders the full path witness for a leak: source chain through the
/// carrier function into the sink chain, `file:line` per hop.
fn leak_finding(
    table: &SymbolTable<'_>,
    carrier: usize,
    origin: &Witness,
    sink_line: usize,
    sink_entry: usize,
    taint: &[Option<Witness>],
    reach: &[Option<Witness>],
) -> Finding {
    let (file, _) = table.fn_at(carrier);
    let mut hops: Vec<String> = Vec::new();

    // Source side: walk the taint witnesses down to the pattern source,
    // labelling each hop with the line *inside* it where taint arises.
    let mut up: Vec<String> = Vec::new();
    let mut at = origin.callee;
    while let Some(idx) = at {
        let (f, it) = table.fn_at(idx);
        let w = taint[idx].clone();
        let line = w.as_ref().map_or(it.line, |w| w.line);
        up.push(format!("`{}` ({}:{})", table.qualified_name(idx), f.rel_path, line));
        at = w.and_then(|w| w.callee);
        if up.len() >= MAX_WITNESS_HOPS {
            break;
        }
    }
    up.reverse();
    hops.extend(up);

    hops.push(format!("`{}` ({}:{})", table.qualified_name(carrier), file.rel_path, sink_line));

    // Sink side: walk the reach witnesses down to the pattern sink.
    let mut at = Some(sink_entry);
    while let Some(idx) = at {
        let (f, it) = table.fn_at(idx);
        let w = reach[idx].clone();
        let line = w.as_ref().map_or(it.line, |w| w.line);
        hops.push(format!("`{}` ({}:{})", table.qualified_name(idx), f.rel_path, line));
        at = w.and_then(|w| w.callee);
        if hops.len() >= 2 * MAX_WITNESS_HOPS {
            break;
        }
    }

    Finding {
        file: file.rel_path.clone(),
        line: sink_line,
        rule: "location-leak",
        message: format!(
            "true-location data reaches a sink with no intervening sanitizer: {}",
            hops.join(" -> ")
        ),
        suppressed: None,
    }
}

/// One link in a seed-flow obligation chain: `owner` forwards its parameter
/// `arg_index` into an RNG constructor at `line`, either directly
/// (`next == None`, ending at `ctor`) or through another passthrough.
struct Obligation {
    arg_index: usize,
    line: usize,
    next: Option<usize>,
    ctor: &'static str,
}

fn seed_flow(table: &SymbolTable<'_>) -> Vec<Finding> {
    let n = table.len();
    let mut obligations: BTreeMap<usize, Obligation> = BTreeMap::new();
    let mut findings = Vec::new();

    let in_scope = |file: &ParsedFile, item: &FnItem| {
        !item.in_test
            && matches!(file.kind, FileKind::Lib | FileKind::Bin)
            && file.crate_name.as_deref().is_some_and(|c| RESULT_PRODUCING.contains(&c))
    };

    // Seed the obligation set from raw RNG-constructor call sites, then
    // propagate: every call site of an obligated function gets the same
    // check on the corresponding argument, until no new passthroughs appear.
    let mut changed = true;
    let mut checked: BTreeSet<(usize, usize, usize)> = BTreeSet::new(); // (caller, call ordinal, target)
    while changed {
        changed = false;
        for i in 0..n {
            let (file, item) = table.fn_at(i);
            for (ord, call) in item.calls.iter().enumerate() {
                // Raw constructors are external (vendored rand), matched by
                // name; passthrough targets are resolved workspace fns.
                let targets: Vec<(usize, Option<usize>)> =
                    if RNG_CTORS.contains(&call.callee.as_str()) {
                        vec![(0usize, None)]
                    } else {
                        table
                            .resolve(i, call)
                            .into_iter()
                            .filter(|c| obligations.contains_key(c))
                            .map(|c| (obligations[&c].arg_index, Some(c)))
                            .collect()
                    };
                for (arg_index, target) in targets {
                    let key = (i, ord, target.unwrap_or(usize::MAX));
                    if !checked.insert(key) {
                        continue;
                    }
                    let Some(arg) = call.args.get(arg_index) else {
                        continue;
                    };
                    match seed_verdict(arg, item) {
                        SeedVerdict::Ok => {}
                        SeedVerdict::Passthrough(param_idx) => {
                            if let std::collections::btree_map::Entry::Vacant(slot) =
                                obligations.entry(i)
                            {
                                slot.insert(Obligation {
                                    arg_index: param_idx,
                                    line: call.line,
                                    next: target,
                                    ctor: ctor_name(&call.callee),
                                });
                                changed = true;
                            }
                        }
                        SeedVerdict::Literal => {
                            if in_scope(file, item) {
                                findings.push(seed_finding(
                                    table,
                                    file,
                                    call,
                                    arg,
                                    target,
                                    ctor_name(&call.callee),
                                    &obligations,
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    findings
}

fn ctor_name(callee: &str) -> &'static str {
    RNG_CTORS.iter().find(|c| **c == callee).copied().unwrap_or("seed_from_u64")
}

enum SeedVerdict {
    Ok,
    /// The seed argument forwards the enclosing function's parameter at this
    /// index; the obligation moves to the callers.
    Passthrough(usize),
    Literal,
}

/// Judges one seed-argument expression. `derive_seed` anywhere in it (or a
/// local bound from one) discharges the obligation; forwarding a parameter
/// defers it to the callers; a bare numeric literal violates it. Identifiers
/// of unknown provenance (fields, CLI args — the master seed itself) pass:
/// only provably-literal seeding is flagged (DESIGN.md §15).
fn seed_verdict(arg: &str, item: &FnItem) -> SeedVerdict {
    if contains_ident(arg, "derive_seed") {
        return SeedVerdict::Ok;
    }
    if item.derived_lets.iter().any(|l| contains_ident(arg, l)) {
        return SeedVerdict::Ok;
    }
    if let Some(idx) = item.params.iter().position(|p| contains_ident(arg, p)) {
        return SeedVerdict::Passthrough(idx);
    }
    if has_numeric_literal(arg) {
        return SeedVerdict::Literal;
    }
    SeedVerdict::Ok
}

fn contains_ident(hay: &str, ident: &str) -> bool {
    crate::lexer::find_token(hay, ident).is_some()
}

fn has_numeric_literal(arg: &str) -> bool {
    let bytes = arg.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if b.is_ascii_digit() {
            // A digit starting a token (not inside an identifier like `x2`).
            let prev = if i == 0 { None } else { Some(bytes[i - 1]) };
            let starts_token =
                !prev.is_some_and(|p| p.is_ascii_alphanumeric() || p == b'_' || p == b'.');
            if starts_token {
                return true;
            }
        }
    }
    false
}

fn seed_finding(
    table: &SymbolTable<'_>,
    file: &ParsedFile,
    call: &CallSite,
    arg: &str,
    target: Option<usize>,
    ctor: &'static str,
    obligations: &BTreeMap<usize, Obligation>,
) -> Finding {
    let mut hops: Vec<String> = Vec::new();
    let mut at = target;
    let mut base = ctor;
    while let Some(idx) = at {
        let (f, _) = table.fn_at(idx);
        let ob = &obligations[&idx];
        hops.push(format!("`{}` ({}:{})", table.qualified_name(idx), f.rel_path, ob.line));
        base = ob.ctor;
        at = ob.next;
        if hops.len() >= MAX_WITNESS_HOPS {
            break;
        }
    }
    hops.push(format!("`StdRng::{base}`"));
    Finding {
        file: file.rel_path.clone(),
        line: call.line,
        rule: "seed-flow",
        message: format!(
            "RNG stream seeded from literal `{arg}` instead of derive_seed-derived state: \
             `{}` -> {}",
            call.callee,
            hops.join(" -> ")
        ),
        suppressed: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::rules::FileContext;

    fn parse_all(files: &[(&str, &str)]) -> Vec<ParsedFile> {
        files
            .iter()
            .map(|(rel, src)| parse_file(&FileContext::from_rel_path(rel), &lex(src)))
            .collect()
    }

    /// A miniature workspace replicating the model's anchor items.
    fn mini(extra: &[(&str, &str)]) -> Vec<(&'static str, String)> {
        let mut files: Vec<(&'static str, String)> = vec![
            (
                "crates/core/src/management.rs",
                "impl LocationManager {\n    pub fn top_set(&self) -> &[ProfileEntry] {\n        &self.tops\n    }\n}\n"
                    .to_owned(),
            ),
            (
                "crates/core/src/protocol.rs",
                "impl EdgeResponse {\n    pub fn encode(&self) -> Bytes {\n        Bytes::new()\n    }\n}\n"
                    .to_owned(),
            ),
            (
                "crates/core/src/obfuscation.rs",
                "impl ObfuscationModule {\n    pub fn candidates_for(&self, top: Point) -> Option<&[Point]> {\n        None\n    }\n}\n"
                    .to_owned(),
            ),
        ];
        for (rel, src) in extra {
            // Leak the extra sources so the fixture helper stays simple.
            let rel: &'static str = Box::leak((*rel).to_owned().into_boxed_str());
            files.push((rel, (*src).to_owned()));
        }
        files
    }

    fn analyze_mini(extra: &[(&str, &str)]) -> Vec<Finding> {
        let owned = mini(extra);
        let borrowed: Vec<(&str, &str)> = owned.iter().map(|(r, s)| (*r, s.as_str())).collect();
        let parsed = parse_all(&borrowed);
        let table = SymbolTable::build(&parsed);
        analyze(&table)
    }

    #[test]
    fn direct_leak_is_reported_with_a_path_witness() {
        let findings = analyze_mini(&[(
            "crates/core/src/leak.rs",
            "impl Device {\n    fn leak(&self) -> Bytes {\n        let top = self.manager.top_set();\n        self.response.encode()\n    }\n}\n",
        )]);
        let leaks: Vec<&Finding> = findings.iter().filter(|f| f.rule == "location-leak").collect();
        assert_eq!(leaks.len(), 1, "findings: {findings:?}");
        let f = leaks[0];
        assert_eq!(f.file, "crates/core/src/leak.rs");
        assert_eq!(f.line, 4);
        assert!(f.message.contains("`LocationManager::top_set` (crates/core/src/management.rs:2)"));
        assert!(f.message.contains("`Device::leak` (crates/core/src/leak.rs:4)"));
        assert!(f.message.contains("`EdgeResponse::encode` (crates/core/src/protocol.rs:2)"));
    }

    #[test]
    fn sanitizer_between_source_and_sink_is_quiet() {
        let findings = analyze_mini(&[(
            "crates/core/src/ok.rs",
            "impl Device {\n    fn served(&self) -> Bytes {\n        let top = self.manager.top_set();\n        let c = self.module.candidates_for(top);\n        self.response.encode()\n    }\n}\n",
        )]);
        assert!(findings.iter().all(|f| f.rule != "location-leak"), "findings: {findings:?}");
    }

    #[test]
    fn taint_and_reach_propagate_across_helpers() {
        let findings = analyze_mini(&[(
            "crates/core/src/multi.rs",
            "impl Device {\n\
             \x20   fn current(&self) -> Point {\n        self.manager.top_set()\n    }\n\
             \x20   fn ship(&self, b: Bytes) {\n        self.response.encode()\n    }\n\
             \x20   fn handle(&self) {\n        let p = self.current();\n        self.ship(p)\n    }\n}\n",
        )]);
        let leaks: Vec<&Finding> = findings.iter().filter(|f| f.rule == "location-leak").collect();
        assert_eq!(leaks.len(), 1, "findings: {findings:?}");
        let msg = &leaks[0].message;
        assert!(msg.contains("`Device::current`"), "{msg}");
        assert!(msg.contains("`Device::handle`"), "{msg}");
        assert!(msg.contains("`Device::ship`"), "{msg}");
    }

    #[test]
    fn bid_emission_is_a_wire_sink() {
        let sink = (
            "crates/openrtb/src/sink.rs",
            "impl BidSink {\n    pub fn submit(&self, device: DeviceId, geo: Geo) -> u64 {\n        0\n    }\n}\n",
        );
        // A true top location handed straight to the bid sink is a leak...
        let findings = analyze_mini(&[
            sink,
            (
                "crates/core/src/bid_leak.rs",
                "impl Device {\n    fn emit(&self) {\n        let top = self.manager.top_set();\n        self.sink.submit(id, top)\n    }\n}\n",
            ),
        ]);
        let leaks: Vec<&Finding> = findings.iter().filter(|f| f.rule == "location-leak").collect();
        assert_eq!(leaks.len(), 1, "findings: {findings:?}");
        assert!(leaks[0].message.contains("`BidSink::submit`"), "{}", leaks[0].message);
        // ...while the served (obfuscated) location may be bid on freely.
        let findings = analyze_mini(&[
            sink,
            (
                "crates/core/src/bid_ok.rs",
                "impl Device {\n    fn emit(&self) {\n        let top = self.manager.top_set();\n        let c = self.module.candidates_for(top);\n        self.sink.submit(id, c)\n    }\n}\n",
            ),
        ]);
        assert!(findings.iter().all(|f| f.rule != "location-leak"), "findings: {findings:?}");
        // The sink's own encoder appends frames into a caller's buffer;
        // that form is egress too, under the same rule.
        let encoder = (
            "crates/openrtb/src/codec.rs",
            "impl BidRequest {\n    pub fn encode_into(&self, buf: &mut BytesMut) {\n    }\n}\n",
        );
        let findings = analyze_mini(&[
            encoder,
            (
                "crates/core/src/frame_leak.rs",
                "impl Device {\n    fn emit(&self, buf: &mut BytesMut) {\n        let top = self.manager.top_set();\n        BidRequest::new(id, 0, top).encode_into(buf)\n    }\n}\n",
            ),
        ]);
        let leaks: Vec<&Finding> = findings.iter().filter(|f| f.rule == "location-leak").collect();
        assert_eq!(leaks.len(), 1, "findings: {findings:?}");
        assert!(leaks[0].message.contains("`BidRequest::encode_into`"), "{}", leaks[0].message);
        let findings = analyze_mini(&[
            encoder,
            (
                "crates/core/src/frame_ok.rs",
                "impl Device {\n    fn emit(&self, buf: &mut BytesMut) {\n        let top = self.manager.top_set();\n        let c = self.module.candidates_for(top);\n        BidRequest::new(id, 0, c).encode_into(buf)\n    }\n}\n",
            ),
        ]);
        assert!(findings.iter().all(|f| f.rule != "location-leak"), "findings: {findings:?}");
    }

    #[test]
    fn true_state_reaching_the_checkpoint_frame_writer_is_reported() {
        let writer = (
            "crates/core/src/recovery.rs",
            "fn put_user_frame<B: BufMut>(buf: &mut B, frame: &UserFrame<'_>) {\n    buf.put_u32(frame.user)\n}\n",
        );
        // A window read handed to the writer outside the checkpoint
        // boundary is a leak...
        let findings = analyze_mini(&[
            writer,
            (
                "crates/core/src/dump.rs",
                "impl Device {\n    fn dump(&self, buf: &mut Vec<u8>) {\n        let frame = UserFrame {\n            top_set: self.manager.top_set(),\n        };\n        put_user_frame(buf, &frame)\n    }\n}\n",
            ),
        ]);
        let leaks: Vec<&Finding> = findings.iter().filter(|f| f.rule == "location-leak").collect();
        assert_eq!(leaks.len(), 1, "findings: {findings:?}");
        assert_eq!((leaks[0].file.as_str(), leaks[0].line), ("crates/core/src/dump.rs", 6));
        assert!(leaks[0].message.contains("`put_user_frame`"), "{}", leaks[0].message);
        // ...and so is a caller reaching it through a helper.
        let findings = analyze_mini(&[
            writer,
            (
                "crates/core/src/dump.rs",
                "impl Device {\n    fn emit(&self, buf: &mut Vec<u8>, frame: &UserFrame) {\n        put_user_frame(buf, frame)\n    }\n    fn dump(&self, buf: &mut Vec<u8>) {\n        let tops = self.manager.top_set();\n        self.emit(buf, &tops)\n    }\n}\n",
            ),
        ]);
        let leaks: Vec<&Finding> = findings.iter().filter(|f| f.rule == "location-leak").collect();
        assert_eq!(leaks.len(), 1, "findings: {findings:?}");
        assert!(leaks[0].message.contains("`Device::emit`"), "{}", leaks[0].message);
        assert!(leaks[0].message.contains("`put_user_frame`"), "{}", leaks[0].message);
    }

    #[test]
    fn test_functions_are_exempt() {
        let findings = analyze_mini(&[(
            "crates/core/src/t.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        let top = manager.top_set();\n        response.encode()\n    }\n}\n",
        )]);
        assert!(findings.iter().all(|f| f.rule != "location-leak"));
    }

    #[test]
    fn seed_flow_flags_literals_through_passthrough_chains() {
        let parsed = parse_all(&[
            (
                "crates/geo/src/rng.rs",
                "pub fn seeded(seed: u64) -> StdRng {\n    StdRng::seed_from_u64(seed)\n}\npub fn derive_seed(master: u64, index: u64) -> u64 {\n    master ^ index\n}\n",
            ),
            (
                "crates/core/src/edge.rs",
                "impl EdgeDevice {\n    pub fn new(config: SystemConfig, seed: u64) -> Self {\n        EdgeDevice { rng: seeded(seed) }\n    }\n}\n",
            ),
            (
                "crates/bench/src/serve.rs",
                "fn build() {\n    let ok = EdgeDevice::new(cfg, derive_seed(master, 1));\n    let bad = EdgeDevice::new(cfg, 7);\n    let direct = seeded(42);\n}\n",
            ),
        ]);
        let table = SymbolTable::build(&parsed);
        let findings: Vec<Finding> =
            analyze(&table).into_iter().filter(|f| f.rule == "seed-flow").collect();
        assert_eq!(findings.len(), 2, "findings: {findings:?}");
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert!(lines.contains(&3) && lines.contains(&4), "{findings:?}");
        let chain = findings.iter().find(|f| f.line == 3).map(|f| f.message.as_str()).unwrap_or("");
        assert!(chain.contains("`EdgeDevice::new` (crates/core/src/edge.rs:3)"), "{chain}");
        assert!(chain.contains("`seeded` (crates/geo/src/rng.rs:2)"), "{chain}");
        assert!(chain.contains("`StdRng::seed_from_u64`"), "{chain}");
    }

    #[test]
    fn seed_flow_accepts_derived_locals_and_unknown_idents() {
        let parsed = parse_all(&[(
            "crates/metrics/src/m.rs",
            "fn run(master: u64) {\n    let s = derive_seed(master, 3);\n    let a = StdRng::seed_from_u64(s);\n    let b = StdRng::seed_from_u64(args.seed);\n}\n",
        )]);
        let table = SymbolTable::build(&parsed);
        // `run` forwards its `master` param only via derive_seed; no findings,
        // and the fn itself takes no literal at any call site here.
        let findings: Vec<Finding> =
            analyze(&table).into_iter().filter(|f| f.rule == "seed-flow").collect();
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn seed_flow_exempts_tests_and_non_result_crates() {
        let parsed = parse_all(&[
            ("crates/lint/src/x.rs", "fn f() {\n    let r = StdRng::seed_from_u64(42);\n}\n"),
            ("crates/core/tests/t.rs", "fn f() {\n    let r = StdRng::seed_from_u64(42);\n}\n"),
        ]);
        let table = SymbolTable::build(&parsed);
        assert!(analyze(&table).iter().all(|f| f.rule != "seed-flow"));
    }
}
