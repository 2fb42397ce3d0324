//! The determinism rule set (D1–D5), as token-level scans over the
//! masked code view.
//!
//! The scanners are deliberately simple: identifier-set collection plus
//! pattern matching, no type information. They over-approximate — e.g.
//! a local `Vec` shadowing the name of a hash-typed field is treated as
//! hash-typed — and rely on `// dlt-lint: allow(…)` for the rare
//! justified exception. See DESIGN.md §3c for the full contract.

use std::collections::BTreeSet;

use crate::{Finding, Rule};

/// Crates whose code is simulation-reachable: hash-order iteration
/// (D1) and unordered float accumulation (D4) are checked here.
pub const SIM_CRATES: [&str; 4] = ["dlt-sim", "dlt-blockchain", "dlt-dag", "dlt-scaling"];

/// The one sanctioned home of `std::thread`/`std::sync` in the
/// simulator: the epoch-barrier shard executor (checked by D6
/// everywhere else in the sim crates).
pub const THREAD_EXEMPT: &str = "crates/dlt-sim/src/shard.rs";

/// Engine-dispatch, interceptor and node message-handler hot paths
/// checked for panic-freedom (D5), as `(file suffix, function names)`
/// pairs. The node handlers take gossip input, so a panic there is one
/// a peer's message could trigger.
pub const HOT_PATHS: [(&str, &[&str]); 4] = [
    (
        "crates/dlt-sim/src/engine.rs",
        &["step", "send_from", "schedule"],
    ),
    ("crates/dlt-sim/src/fault.rs", &["intercept"]),
    (
        "crates/dlt-blockchain/src/node.rs",
        &["on_message", "accept_block", "on_timer"],
    ),
    (
        "crates/dlt-dag/src/node.rs",
        &[
            "on_message",
            "handle_publish",
            "handle_vote",
            "apply_confirmation",
        ],
    ),
];

const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// `std::thread` / `std::sync` surface that breaks single-threaded
/// determinism when it leaks into sim-reachable code: spawning,
/// shared-state cells, locks, channels, and atomics. Matched as whole
/// identifiers, so `thread_local!` and `threads` do not trip it.
const THREAD_TOKENS: [&str; 12] = [
    "thread",
    "spawn",
    "JoinHandle",
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "mpsc",
    "Arc",
    "AtomicBool",
    "AtomicUsize",
    "AtomicU64",
];

const RNG_TOKENS: [&str; 7] = [
    "thread_rng",
    "OsRng",
    "StdRng",
    "SmallRng",
    "from_entropy",
    "RandomState",
    "getrandom",
];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of `word` occurrences with identifier boundaries on
/// both sides.
fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let pos = from + rel;
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let end = pos + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

/// 1-based line number of a byte offset, via the precomputed line
/// start table.
fn line_of(line_starts: &[usize], offset: usize) -> usize {
    line_starts.partition_point(|&s| s <= offset)
}

fn line_starts(code: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// First line of the trailing `#[cfg(test)]` region, if any. Findings
/// at or below it are skipped: the workspace convention keeps test
/// modules at the end of the file, and test-only hash iteration cannot
/// leak into experiment output.
fn test_region_start(code: &str, starts: &[usize]) -> usize {
    code.find("#[cfg(test)]")
        .map_or(usize::MAX, |pos| line_of(starts, pos))
}

/// Whether `path` (workspace-relative) belongs to a simulation crate.
fn in_sim_crate(path: &str) -> bool {
    SIM_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Reads the identifier that ends at `end` (exclusive), walking
/// backwards over identifier bytes.
fn ident_ending_at(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    if start == end || bytes[start].is_ascii_digit() {
        None
    } else {
        Some(&code[start..end])
    }
}

fn skip_ws_back(code: &str, mut i: usize) -> usize {
    let bytes = code.as_bytes();
    while i > 0 && (bytes[i - 1] as char).is_ascii_whitespace() {
        i -= 1;
    }
    i
}

fn skip_ws_fwd(code: &str, mut i: usize) -> usize {
    let bytes = code.as_bytes();
    while i < bytes.len() && (bytes[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Names declared (or assigned) with a `HashMap`/`HashSet` type in
/// this file: `let` bindings, struct fields, and fn parameters.
pub fn hash_idents(code: &str) -> BTreeSet<String> {
    const BOUNDARIES: &[u8] = b";{}(),[]";
    let bytes = code.as_bytes();
    let mut idents = BTreeSet::new();
    for ty in ["HashMap", "HashSet"] {
        for pos in word_positions(code, ty) {
            let stmt_start = bytes[..pos]
                .iter()
                .rposition(|b| BOUNDARIES.contains(b))
                .map_or(0, |i| i + 1);
            let segment = &code[stmt_start..pos];
            if let Some(name) = declared_name(segment) {
                idents.insert(name.to_string());
            }
        }
    }
    idents
}

/// The declared/assigned name in the statement text preceding a hash
/// type: the word before the last standalone `:` (field or `let` with
/// annotation, fn parameter), else the word before the first `=`
/// (un-annotated `let` or reassignment).
fn declared_name(segment: &str) -> Option<&str> {
    let bytes = segment.as_bytes();
    let mut colon = None;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b':' && bytes.get(i + 1) != Some(&b':') && (i == 0 || bytes[i - 1] != b':') {
            colon = Some(i);
        }
    }
    if let Some(c) = colon {
        return ident_ending_at(segment, skip_ws_back(segment, c));
    }
    let eq = bytes.iter().position(|&b| b == b'=')?;
    if eq + 1 < bytes.len() && bytes[eq + 1] == b'=' {
        return None;
    }
    if eq > 0 && b"=!<>+-*/&|^".contains(&bytes[eq - 1]) {
        return None;
    }
    ident_ending_at(segment, skip_ws_back(segment, eq))
}

/// D1: iteration over a hash-typed collection.
fn scan_d1(
    path: &str,
    code: &str,
    starts: &[usize],
    idents: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    // Method-call iteration: `ident.iter()`, `self.ident.keys()`, …
    for method in ITER_METHODS {
        for pos in word_positions(code, method) {
            let after = skip_ws_fwd(code, pos + method.len());
            if code.as_bytes().get(after) != Some(&b'(') {
                continue;
            }
            let dot = skip_ws_back(code, pos);
            if dot == 0 || code.as_bytes()[dot - 1] != b'.' {
                continue;
            }
            let recv_end = skip_ws_back(code, dot - 1);
            let Some(receiver) = ident_ending_at(code, recv_end) else {
                continue;
            };
            if idents.contains(receiver) {
                out.push(Finding::new(
                    path,
                    line_of(starts, pos),
                    Rule::D1,
                    format!("hash-order iteration `{receiver}.{method}()`"),
                ));
            }
        }
    }
    // `for pat in <hash ident>` loops.
    for pos in word_positions(code, "for") {
        let bytes = code.as_bytes();
        let after = skip_ws_fwd(code, pos + 3);
        if bytes.get(after) == Some(&b'<') {
            continue; // `for<'a>` higher-ranked bound
        }
        let Some(brace_rel) = code[pos..].find('{') else {
            continue;
        };
        let header = &code[pos..pos + brace_rel];
        let mut expr = None;
        for inp in word_positions(header, "in") {
            let mut depth = 0i32;
            for &b in &header.as_bytes()[..inp] {
                match b {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    _ => {}
                }
            }
            if depth == 0 {
                expr = Some(header[inp + 2..].trim());
                break;
            }
        }
        let Some(mut expr) = expr else { continue };
        expr = expr.trim_start_matches('&');
        expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
        let name = expr.strip_prefix("self.").unwrap_or(expr).trim();
        if !name.is_empty() && name.bytes().all(is_ident) && idents.contains(name) {
            out.push(Finding::new(
                path,
                line_of(starts, pos),
                Rule::D1,
                format!("hash-order iteration `for … in {expr}`"),
            ));
        }
    }
}

/// D2: wall-clock reads.
fn scan_d2(path: &str, code: &str, starts: &[usize], out: &mut Vec<Finding>) {
    for token in ["Instant", "SystemTime"] {
        for pos in word_positions(code, token) {
            out.push(Finding::new(
                path,
                line_of(starts, pos),
                Rule::D2,
                format!("wall-clock source `{token}`"),
            ));
        }
    }
}

/// D3: RNG construction outside the seeded SimRng/xoshiro path.
fn scan_d3(path: &str, code: &str, starts: &[usize], out: &mut Vec<Finding>) {
    for token in RNG_TOKENS {
        for pos in word_positions(code, token) {
            out.push(Finding::new(
                path,
                line_of(starts, pos),
                Rule::D3,
                format!("non-seeded randomness source `{token}`"),
            ));
        }
    }
}

/// D4: float accumulation over a hash-order iterator in the same
/// statement.
fn scan_d4(
    path: &str,
    code: &str,
    starts: &[usize],
    idents: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let bytes = code.as_bytes();
    let stmt_span = |pos: usize| -> &str {
        let start = bytes[..pos]
            .iter()
            .rposition(|&b| b == b';' || b == b'{' || b == b'}')
            .map_or(0, |i| i + 1);
        &code[start..pos]
    };
    let hash_iterated = |span: &str| -> Option<String> {
        for method in ITER_METHODS {
            for mpos in word_positions(span, method) {
                let dot = skip_ws_back(span, mpos);
                if dot == 0 || span.as_bytes()[dot - 1] != b'.' {
                    continue;
                }
                let recv_end = skip_ws_back(span, dot - 1);
                if let Some(receiver) = ident_ending_at(span, recv_end) {
                    if idents.contains(receiver) {
                        return Some(receiver.to_string());
                    }
                }
            }
        }
        None
    };
    for pos in word_positions(code, "sum") {
        let dot = skip_ws_back(code, pos);
        if dot == 0 || bytes[dot - 1] != b'.' {
            continue;
        }
        let rest = &code[pos + 3..];
        let turbofish = rest.trim_start();
        if !(turbofish.starts_with("::<f64>") || turbofish.starts_with("::<f32>")) {
            continue;
        }
        if let Some(receiver) = hash_iterated(stmt_span(pos)) {
            out.push(Finding::new(
                path,
                line_of(starts, pos),
                Rule::D4,
                format!("float accumulation over hash-order iterator of `{receiver}`"),
            ));
        }
    }
    for pos in word_positions(code, "fold") {
        let dot = skip_ws_back(code, pos);
        if dot == 0 || bytes[dot - 1] != b'.' {
            continue;
        }
        let open = skip_ws_fwd(code, pos + 4);
        if bytes.get(open) != Some(&b'(') {
            continue;
        }
        let first_arg_end = code[open..].find(',').map_or(code.len(), |c| open + c);
        let init = &code[open + 1..first_arg_end.min(code.len())];
        let floaty = init.contains("f64")
            || init.contains("f32")
            || init
                .trim()
                .trim_start_matches(|c: char| c.is_ascii_digit())
                .starts_with('.');
        if !floaty {
            continue;
        }
        if let Some(receiver) = hash_iterated(stmt_span(pos)) {
            out.push(Finding::new(
                path,
                line_of(starts, pos),
                Rule::D4,
                format!("float accumulation over hash-order iterator of `{receiver}`"),
            ));
        }
    }
}

/// D6: thread/shared-state primitives in sim-reachable code outside
/// the sanctioned shard executor.
fn scan_d6(path: &str, code: &str, starts: &[usize], out: &mut Vec<Finding>) {
    for token in THREAD_TOKENS {
        for pos in word_positions(code, token) {
            out.push(Finding::new(
                path,
                line_of(starts, pos),
                Rule::D6,
                format!("thread/shared-state primitive `{token}` outside dlt-sim::shard"),
            ));
        }
    }
}

/// Byte range of the body of `fn name` occurrences (all of them — e.g.
/// every `fn intercept` impl in the file).
fn fn_bodies(code: &str, name: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for pos in word_positions(code, name) {
        let kw_end = skip_ws_back(code, pos);
        let Some(kw) = ident_ending_at(code, kw_end) else {
            continue;
        };
        if kw != "fn" {
            continue;
        }
        let Some(open_rel) = code[pos..].find('{') else {
            continue;
        };
        let open = pos + open_rel;
        if code[pos..open].contains(';') {
            continue; // trait signature without a body
        }
        let mut depth = 0i32;
        for (i, &b) in bytes[open..].iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        out.push((open, open + i));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// D5: panics and panicking operations in the hot-path functions.
fn scan_d5(path: &str, code: &str, starts: &[usize], out: &mut Vec<Finding>) {
    let fns: &[&str] = match HOT_PATHS.iter().find(|(suffix, _)| path.ends_with(suffix)) {
        Some((_, fns)) => fns,
        None => return,
    };
    let mut push = |pos: usize, what: String| {
        out.push(Finding::new(path, line_of(starts, pos), Rule::D5, what));
    };
    for name in fns {
        for (open, close) in fn_bodies(code, name) {
            let body = &code[open..close];
            for method in ["unwrap", "expect"] {
                for pos in word_positions(body, method) {
                    let dot = skip_ws_back(body, pos);
                    if dot > 0 && body.as_bytes()[dot - 1] == b'.' {
                        push(open + pos, format!("`.{method}` in hot path `{name}`"));
                    }
                }
            }
            for mac in ["panic", "unreachable", "todo", "unimplemented"] {
                for pos in word_positions(body, mac) {
                    let after = skip_ws_fwd(body, pos + mac.len());
                    if body.as_bytes().get(after) == Some(&b'!') {
                        push(open + pos, format!("`{mac}!` in hot path `{name}`"));
                    }
                }
            }
            for (i, b) in body.bytes().enumerate() {
                if b != b'[' || i == 0 {
                    continue;
                }
                // Indexing: `[` directly after an identifier or a
                // closing `)`/`]`. Macro brackets (`vec![`) have `!`
                // before them, attributes have `#`, slice types and
                // array literals have punctuation.
                let p = body.as_bytes()[i - 1];
                if is_ident(p) || p == b')' || p == b']' {
                    push(open + i, format!("indexing in hot path `{name}`"));
                }
            }
        }
    }
}

/// Runs every applicable rule over one masked file. `idents` must come
/// from [`hash_idents`] on the same code view.
pub fn scan(path: &str, code: &str) -> Vec<Finding> {
    let starts = line_starts(code);
    let test_start = test_region_start(code, &starts);
    let idents = hash_idents(code);
    let mut out = Vec::new();
    if in_sim_crate(path) {
        scan_d1(path, code, &starts, &idents, &mut out);
        scan_d4(path, code, &starts, &idents, &mut out);
        if !path.ends_with(THREAD_EXEMPT) {
            scan_d6(path, code, &starts, &mut out);
        }
    }
    scan_d2(path, code, &starts, &mut out);
    scan_d3(path, code, &starts, &mut out);
    scan_d5(path, code, &starts, &mut out);
    out.retain(|f| f.line < test_start);
    out.sort_by_key(|f| (f.line, f.rule));
    out
}
