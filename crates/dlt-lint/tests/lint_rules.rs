//! Integration tests over the fixture corpus: one positive and one
//! negative case per rule, suppression handling, and the scoping
//! rules (sim-crate paths, the hot-path functions, the trailing
//! `#[cfg(test)]` region). Three tests scan the live workspace: it has
//! no open findings, `unsafe` appears only where it is fenced, and
//! every `pub fn` is mentioned somewhere besides its definition.
//!
//! The fixtures live under `tests/fixtures/` and are plain text to the
//! linter — they are never compiled, so they can use types and crates
//! the workspace does not have.

use dlt_lint::{lint_file, Finding, Rule};

fn rules(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

fn open(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.suppressed.is_none()).collect()
}

#[test]
fn d1_flags_hash_iteration_in_sim_crates() {
    let findings = lint_file(
        "crates/dlt-sim/src/fixture.rs",
        include_str!("fixtures/d1_positive.rs"),
    );
    assert_eq!(rules(&findings), vec![Rule::D1; 4], "{findings:?}");
    assert!(findings.iter().all(|f| f.suppressed.is_none()));
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("peers.iter()")));
    assert!(messages.iter().any(|m| m.contains("members.retain()")));
    assert!(messages.iter().any(|m| m.contains("for … in self.members")));
}

#[test]
fn d1_ignores_ordered_iteration_and_point_lookups() {
    let findings = lint_file(
        "crates/dlt-sim/src/fixture.rs",
        include_str!("fixtures/d1_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d1_only_applies_to_sim_crates() {
    let findings = lint_file(
        "crates/dlt-core/src/fixture.rs",
        include_str!("fixtures/d1_positive.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d2_flags_wall_clock_reads() {
    let findings = lint_file(
        "crates/dlt-core/src/fixture.rs",
        include_str!("fixtures/d2_wall_clock.rs"),
    );
    assert_eq!(rules(&findings), vec![Rule::D2; 3], "{findings:?}");
}

#[test]
fn d3_flags_non_seeded_randomness() {
    let findings = lint_file(
        "crates/dlt-bench/src/fixture.rs",
        include_str!("fixtures/d3_rng.rs"),
    );
    assert_eq!(rules(&findings), vec![Rule::D3; 3], "{findings:?}");
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("thread_rng")));
    assert!(messages.iter().any(|m| m.contains("OsRng")));
    assert!(messages.iter().any(|m| m.contains("RandomState")));
}

#[test]
fn d4_flags_float_accumulation_over_hash_iterators() {
    let findings = lint_file(
        "crates/dlt-dag/src/fixture.rs",
        include_str!("fixtures/d4_float_sum.rs"),
    );
    let d4: Vec<&Finding> = findings.iter().filter(|f| f.rule == Rule::D4).collect();
    assert_eq!(d4.len(), 2, "{findings:?}");
    assert!(d4.iter().all(|f| f.message.contains("`weights`")));
    // The three `.values()` iterations are D1 findings in their own
    // right; the ordered `Vec` sum contributes nothing.
    let d1 = findings.iter().filter(|f| f.rule == Rule::D1).count();
    assert_eq!(d1, 3, "{findings:?}");
    assert_eq!(findings.len(), 5);
}

#[test]
fn d5_flags_panic_paths_in_hot_functions_only() {
    let findings = lint_file(
        "crates/dlt-sim/src/engine.rs",
        include_str!("fixtures/d5_hot_path.rs"),
    );
    assert_eq!(rules(&findings), vec![Rule::D5; 3], "{findings:?}");
    // All three sit inside `step`; the identical constructs in
    // `drain_all` (not a hot path) and the `vec![…]` macro bracket
    // are not flagged.
    assert!(findings.iter().all(|f| f.message.contains("`step`")));
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains(".unwrap")));
    assert!(messages.iter().any(|m| m.contains("indexing")));
    assert!(messages.iter().any(|m| m.contains("panic!")));
}

#[test]
fn d5_covers_node_message_handlers() {
    let source = include_str!("fixtures/d5_node_handlers.rs");
    for (path, hot) in [
        (
            "crates/dlt-blockchain/src/node.rs",
            ["`on_message`", "`accept_block`"],
        ),
        (
            "crates/dlt-dag/src/node.rs",
            ["`on_message`", "`handle_vote`"],
        ),
    ] {
        let findings = lint_file(path, source);
        assert_eq!(rules(&findings), vec![Rule::D5; 2], "{path}: {findings:?}");
        for (finding, name) in findings.iter().zip(hot) {
            assert!(finding.message.contains(name), "{path}: {findings:?}");
        }
    }
}

#[test]
fn d5_covers_the_dag_functions_reached_from_on_message() {
    let source = "impl Node {
    fn admits(&self, weight: Option<u64>) -> bool { weight.unwrap() > 0 }
    fn apply(&mut self, held: Option<u64>) { held.expect(\"held\"); }
    fn cast_vote(&mut self) { let _rep = self.reps[0]; }
    fn break_stalemate(&mut self) { panic!(\"stuck\") }
}
";
    let findings = lint_file("crates/dlt-dag/src/node.rs", source);
    assert_eq!(rules(&findings), vec![Rule::D5; 4], "{findings:?}");
    let hot = ["`admits`", "`apply`", "`cast_vote`", "`break_stalemate`"];
    for (finding, name) in findings.iter().zip(hot) {
        assert!(finding.message.contains(name), "{findings:?}");
    }
    let elsewhere = lint_file("crates/dlt-blockchain/src/node.rs", source);
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn d6_flags_thread_primitives_in_sim_crates() {
    let findings = lint_file(
        "crates/dlt-blockchain/src/fixture.rs",
        include_str!("fixtures/d6_positive.rs"),
    );
    assert_eq!(rules(&findings), vec![Rule::D6; 12], "{findings:?}");
    assert_eq!(open(&findings).len(), 11, "{findings:?}");
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("`thread`")));
    assert!(messages.iter().any(|m| m.contains("`spawn`")));
    assert!(messages.iter().any(|m| m.contains("`mpsc`")));
    assert!(messages.iter().any(|m| m.contains("`AtomicUsize`")));
    // The allow-directive suppresses exactly the `Barrier` use.
    let suppressed: Vec<&Finding> = findings.iter().filter(|f| f.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 1);
    assert!(suppressed[0].message.contains("`Barrier`"));
}

#[test]
fn d6_exempts_the_shard_executor() {
    let findings = lint_file(
        "crates/dlt-sim/src/shard.rs",
        include_str!("fixtures/d6_positive.rs"),
    );
    assert!(findings.iter().all(|f| f.rule != Rule::D6), "{findings:?}");
}

#[test]
fn d6_only_applies_to_sim_crates() {
    let findings = lint_file(
        "crates/dlt-bench/src/fixture.rs",
        include_str!("fixtures/d6_positive.rs"),
    );
    assert!(findings.iter().all(|f| f.rule != Rule::D6), "{findings:?}");
}

#[test]
fn d6_ignores_lookalike_idents_strings_comments_and_test_region() {
    let findings = lint_file(
        "crates/dlt-sim/src/fixture.rs",
        include_str!("fixtures/d6_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn well_formed_allows_suppress_with_reasons() {
    let findings = lint_file(
        "crates/dlt-blockchain/src/fixture.rs",
        include_str!("fixtures/allow_ok.rs"),
    );
    assert_eq!(rules(&findings), vec![Rule::D1; 2], "{findings:?}");
    assert!(open(&findings).is_empty(), "{findings:?}");
    let reasons: Vec<&str> = findings
        .iter()
        .filter_map(|f| f.suppressed.as_deref())
        .collect();
    assert!(reasons.contains(&"order-independent integer sum"));
    assert!(reasons.contains(&"retain predicate is order-independent"));
}

#[test]
fn malformed_and_unused_allows_are_lint_findings() {
    let findings = lint_file(
        "crates/dlt-core/src/fixture.rs",
        include_str!("fixtures/allow_malformed.rs"),
    );
    assert_eq!(rules(&findings), vec![Rule::Lint; 5], "{findings:?}");
    // LINT findings are never suppressible.
    assert!(findings.iter().all(|f| f.suppressed.is_none()));
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("unknown rule `D9`")));
    assert!(messages.iter().any(|m| m.contains("expected `,`")));
    assert!(messages.iter().any(|m| m.contains("empty reason")));
    assert!(messages.iter().any(|m| m.contains("trailing text")));
    assert!(messages.iter().any(|m| m.contains("unused suppression")));
}

#[test]
fn trailing_cfg_test_region_is_skipped() {
    let findings = lint_file(
        "crates/dlt-sim/src/fixture.rs",
        include_str!("fixtures/cfg_test_skip.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn tokens_in_strings_and_comments_are_masked() {
    let findings = lint_file(
        "crates/dlt-sim/src/fixture.rs",
        include_str!("fixtures/strings_comments.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

/// Every `*.rs` file under the workspace-relative directory `dir`, as
/// (workspace-relative path, source), sorted by path.
fn rust_sources(dir: &str) -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let mut sources = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(&root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                let source = std::fs::read_to_string(&path).expect("readable source");
                sources.push((rel, source));
            }
        }
    }
    sources.sort();
    sources
}

/// Every `crates/*/src/**/*.rs` file, as (workspace-relative path,
/// source), sorted by path.
fn workspace_sources() -> Vec<(String, String)> {
    rust_sources("crates")
        .into_iter()
        .filter(|(rel, _)| rel.split('/').any(|c| c == "src"))
        .collect()
}

#[test]
fn the_live_workspace_is_clean() {
    // The repo's own sim crates must stay free of open findings —
    // the same invariant the CI `lint-determinism` job enforces via
    // the binary. Running it in-process here gives the fast local
    // signal. dlt-lint itself is skipped: its sources carry deliberate
    // rule tokens and directive examples.
    let mut open_findings = Vec::new();
    for (rel, source) in workspace_sources() {
        if !rel.starts_with("crates/dlt-lint/") {
            open_findings.extend(
                lint_file(&rel, &source)
                    .into_iter()
                    .filter(|f| f.suppressed.is_none()),
            );
        }
    }
    assert!(
        open_findings.is_empty(),
        "determinism findings in the workspace: {open_findings:#?}"
    );
}

/// The identifier-shaped words of `line`.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The one file allowed to contain `unsafe`: the SHA-256 kernel
/// dispatch, which calls the SHA-NI kernel after CPU feature detection.
const UNSAFE_HOME: &str = "crates/dlt-crypto/src/sha256.rs";

#[test]
fn unsafe_is_fenced_to_the_sha256_kernel_dispatch() {
    let sources = workspace_sources();
    // Comments and strings are masked, so only code tokens count.
    let sites: Vec<(&str, usize)> = sources
        .iter()
        .flat_map(|(rel, source)| {
            let code = dlt_lint::mask::mask(source).code;
            code.lines()
                .enumerate()
                .filter(|(_, line)| words(line).any(|word| word == "unsafe"))
                .map(|(i, _)| (rel.as_str(), i + 1))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(sites.len(), 1, "`unsafe` sites: {sites:?}");
    assert_eq!(sites[0].0, UNSAFE_HOME, "`unsafe` sites: {sites:?}");

    // Every other crate root keeps the compiler's own ban; dlt-crypto
    // denies unsafe code and allows it on that one block.
    for (rel, source) in sources
        .iter()
        .filter(|(rel, _)| rel.ends_with("/src/lib.rs"))
    {
        let code = dlt_lint::mask::mask(source).code;
        if rel == "crates/dlt-crypto/src/lib.rs" {
            assert!(code.contains("#![deny(unsafe_code)]"), "{rel}");
        } else {
            assert!(code.contains("#![forbid(unsafe_code)]"), "{rel}");
        }
    }
}

#[test]
fn every_pub_fn_is_used_somewhere() {
    use std::collections::{BTreeMap, BTreeSet};

    let corpus: Vec<(String, String)> = ["crates", "tests", "examples", "perfbench/src"]
        .iter()
        .flat_map(|dir| rust_sources(dir))
        .filter(|(rel, _)| !rel.starts_with("crates/dlt-lint/tests/fixtures/"))
        .collect();

    // `pub fn` definitions in code (comments and strings masked), as
    // name -> the (file, line) pairs that define it.
    let mut defs: BTreeMap<String, BTreeSet<(&str, usize)>> = BTreeMap::new();
    for (rel, source) in &corpus {
        let parts: Vec<&str> = rel.split('/').collect();
        if !(parts.len() > 3 && parts[0] == "crates" && parts[2] == "src") {
            continue;
        }
        let code = dlt_lint::mask::mask(source).code;
        for (i, line) in code.lines().enumerate() {
            let ws: Vec<&str> = words(line).collect();
            for w in ws.windows(3) {
                if w[0] == "pub" && w[1] == "fn" {
                    defs.entry(w[2].to_string())
                        .or_default()
                        .insert((rel.as_str(), i + 1));
                }
            }
        }
    }

    // A name is used when it appears on any line, docs and tests
    // included, other than one of its own definition lines.
    let mut used = BTreeSet::new();
    for (rel, source) in &corpus {
        for (i, line) in source.lines().enumerate() {
            for w in words(line) {
                if defs
                    .get(w)
                    .is_some_and(|sites| !sites.contains(&(rel.as_str(), i + 1)))
                {
                    used.insert(w);
                }
            }
        }
    }
    let unused: Vec<&String> = defs
        .keys()
        .filter(|name| !used.contains(name.as_str()))
        .collect();
    assert!(
        unused.is_empty(),
        "public functions nothing mentions: {unused:?}"
    );
}
