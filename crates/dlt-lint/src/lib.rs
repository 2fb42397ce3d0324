//! `dlt-lint` — the workspace's determinism static-analysis pass.
//!
//! A dependency-free token-level scanner over the workspace's Rust
//! sources enforcing the determinism policy (DESIGN.md §3c, README
//! "Determinism policy"):
//!
//! * **D1** — `HashMap`/`HashSet` iteration in simulation-reachable
//!   crates. Hash iteration order is randomized per process; anything
//!   it feeds becomes run-dependent. Use `BTreeMap`/`BTreeSet` or
//!   collect-and-sort.
//! * **D2** — wall-clock sources (`Instant`, `SystemTime`) anywhere in
//!   the scanned sources, with no exempt file. Simulated time comes
//!   from `SimTime`; host time is measured only by `perfbench`, which
//!   lives outside `crates/`.
//! * **D3** — randomness not derived from the seeded SimRng/xoshiro
//!   path (`thread_rng`, `OsRng`, `RandomState`, …).
//! * **D4** — float accumulation (`.sum::<f64>()`, float `fold`) over
//!   a hash-order iterator: float addition is not associative, so the
//!   order of summation changes the result bits.
//! * **D5** — `unwrap`/`expect`/`panic!`/indexing in the engine
//!   dispatch and interceptor hot paths (panic-freedom of the sim
//!   loop).
//! * **D6** — `std::thread` / `std::sync` primitives (spawning, locks,
//!   channels, atomics) in simulation-reachable crates outside the
//!   sanctioned `dlt-sim::shard` executor. Thread scheduling is
//!   nondeterministic; cross-shard parallelism must go through the
//!   epoch-barrier executor, which is the one audited exception.
//!
//! Suppression is per-site and must be justified:
//!
//! ```text
//! // dlt-lint: allow(D1, reason = "sorted into a Vec on the next line")
//! ```
//!
//! Malformed or unused directives are reported as `LINT` findings and
//! are never suppressible, so the suppression table the binary prints
//! stays an exact inventory of every exemption.
//!
//! The scanner is intentionally *not* a Rust parser (no `syn`, per the
//! offline zero-dependency policy). It over-approximates: a name bound
//! to a hash collection anywhere in a file taints every receiver of
//! that name in the same file. The escape hatch for a false positive
//! is a rename or a justified allow — both visible in review.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod mask;
pub mod rules;

/// A determinism rule, or `Lint` for problems with the directives
/// themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-order iteration.
    D1,
    /// Wall-clock source.
    D2,
    /// Non-seeded randomness.
    D3,
    /// Unordered float accumulation.
    D4,
    /// Panic path in the sim hot loop.
    D5,
    /// Thread/shared-state primitive outside the shard executor.
    D6,
    /// Malformed or unused suppression directive.
    Lint,
}

impl Rule {
    /// Parses `"D1"`–`"D6"`.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "D6" => Some(Rule::D6),
            _ => None,
        }
    }

    /// The rule's display name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::Lint => "LINT",
        }
    }

    /// The fix hint attached to every finding of this rule.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::D1 => "iterate an ordered collection (BTreeMap/BTreeSet) or collect-and-sort before iterating",
            Rule::D2 => "use SimTime for simulated time; measure host time with perfbench, outside crates/",
            Rule::D3 => "derive all randomness from the seeded SimRng (dlt-sim::rng) / dlt-testkit xoshiro path",
            Rule::D4 => "sum floats in a deterministic order: sort first or iterate an ordered collection",
            Rule::D5 => "keep the sim hot loop panic-free: use get()/get_mut() with an explicit branch",
            Rule::D6 => "route parallelism through the dlt-sim::shard epoch-barrier executor; sim-reachable code stays single-threaded",
            Rule::Lint => "fix the directive: // dlt-lint: allow(Dn, reason = \"…\"), attached to the offending line",
        }
    }
}

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What was found.
    pub message: String,
    /// The justification, when a directive suppressed this finding.
    pub suppressed: Option<String>,
}

impl Finding {
    fn new(file: &str, line: usize, rule: Rule, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            suppressed: None,
        }
    }
}

/// Lints one file: masks it, runs every applicable rule, applies the
/// allow directives, and reports directive problems. Findings come
/// back sorted by line.
pub fn lint_file(path: &str, source: &str) -> Vec<Finding> {
    let masked = mask::mask(source);
    let mut findings = rules::scan(path, &masked.code);
    let (mut allows, malformed) = allow::collect(&masked.comments, &masked.code);

    for finding in &mut findings {
        if let Some(a) = allows.iter_mut().find(|a| {
            !matches!(finding.rule, Rule::Lint)
                && a.rule == finding.rule
                && a.target_line == finding.line
        }) {
            a.used = true;
            finding.suppressed = Some(a.reason.clone());
        }
    }
    for bad in malformed {
        findings.push(Finding::new(
            path,
            bad.line,
            Rule::Lint,
            format!("malformed directive: {}", bad.detail),
        ));
    }
    for a in allows.iter().filter(|a| !a.used) {
        findings.push(Finding::new(
            path,
            a.line,
            Rule::Lint,
            format!(
                "unused suppression: no {} finding on line {}",
                a.rule.name(),
                a.target_line
            ),
        ));
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}
