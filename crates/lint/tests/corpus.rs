//! Fixture corpus: every rule has at least one failing and one passing
//! fixture, and the workspace itself must be lint-clean.
//!
//! Fixtures live under `tests/fixtures/{bad,good}/`; the scanner's
//! directory walker skips any `fixtures` directory, so the bad ones
//! never trip the self-audit. Each fixture is linted under a *pretend*
//! workspace-relative path (the rules scope by path), listed in
//! [`PRETEND_PATHS`].

use speakup_lint::{lint_source, Diagnostic};
use std::path::Path;

/// Fixture stem → the workspace-relative path it pretends to live at.
const PRETEND_PATHS: &[(&str, &str)] = &[
    ("wall_clock", "crates/net/src/wall_clock.rs"),
    (
        "agent_wall_clock",
        "crates/exp/src/agents/agent_wall_clock.rs",
    ),
    ("hash_iter", "crates/core/src/hash_iter.rs"),
    ("entropy_rng", "crates/exp/src/entropy_rng.rs"),
    ("cast", "crates/net/src/cast.rs"),
    ("forbid_unsafe", "crates/fake/src/lib.rs"),
    ("unwrap", "crates/core/src/unwrap.rs"),
    ("annotation", "crates/net/src/annotation.rs"),
    ("fault_module", "crates/net/src/fault_module.rs"),
];

fn lint_fixture(kind: &str, stem: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(format!("{stem}.rs"));
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    let rel = PRETEND_PATHS
        .iter()
        .find(|(s, _)| *s == stem)
        .unwrap_or_else(|| panic!("no pretend path for fixture {stem}"))
        .1;
    lint_source(rel, &src)
}

fn rule_lines(diags: &[Diagnostic]) -> Vec<(&str, u32)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn bad_wall_clock_flags_every_instant() {
    let d = lint_fixture("bad", "wall_clock");
    assert_eq!(rule_lines(&d), vec![("wall-clock", 2), ("wall-clock", 3)]);
}

#[test]
fn bad_agent_wall_clock_flags_instant_in_simulator_agents() {
    let d = lint_fixture("bad", "agent_wall_clock");
    assert_eq!(rule_lines(&d), vec![("wall-clock", 5), ("wall-clock", 6)]);
}

#[test]
fn bad_hash_iter_flags_for_in_and_retain() {
    let d = lint_fixture("bad", "hash_iter");
    assert_eq!(rule_lines(&d), vec![("hash-iter", 10), ("hash-iter", 17)]);
}

#[test]
fn bad_entropy_rng_flags_thread_rng() {
    let d = lint_fixture("bad", "entropy_rng");
    assert_eq!(rule_lines(&d), vec![("entropy-rng", 2)]);
}

#[test]
fn bad_cast_flags_bare_as() {
    let d = lint_fixture("bad", "cast");
    assert_eq!(rule_lines(&d), vec![("cast", 2)]);
}

#[test]
fn bad_forbid_unsafe_flags_missing_attr_and_unsafe_block() {
    let d = lint_fixture("bad", "forbid_unsafe");
    assert_eq!(
        rule_lines(&d),
        vec![("forbid-unsafe", 1), ("forbid-unsafe", 4)]
    );
}

#[test]
fn bad_unwrap_flags_bare_unwrap() {
    let d = lint_fixture("bad", "unwrap");
    assert_eq!(rule_lines(&d), vec![("unwrap", 2)]);
}

#[test]
fn bad_annotation_unknown_rule_and_missing_reason_do_not_suppress() {
    let d = lint_fixture("bad", "annotation");
    assert_eq!(
        rule_lines(&d),
        vec![
            ("annotation", 2),
            ("cast", 3),
            ("annotation", 7),
            ("cast", 8),
        ]
    );
}

#[test]
fn bad_fault_module_flags_entropy_wall_clock_cast_and_hash_iter() {
    // A fault-injection module is tempted by exactly these four: seeding
    // from entropy, wall-clock onsets, bare casts of elapsed time, and
    // iterating an unordered map of downed entities.
    let d = lint_fixture("bad", "fault_module");
    assert_eq!(
        rule_lines(&d),
        vec![
            ("entropy-rng", 11),
            ("wall-clock", 16),
            ("cast", 17),
            ("hash-iter", 22),
        ]
    );
}

/// The real fault-path modules — net-layer schedule/injection, the
/// digest staleness protocol, and the exp-layer failover wiring — stay
/// individually lint-clean, not just absorbed into the workspace sweep.
#[test]
fn fault_modules_are_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    for rel in [
        "crates/net/src/fault.rs",
        "crates/core/src/thinner/digest.rs",
        "crates/exp/src/scenario.rs",
        "crates/exp/src/agents/thinner.rs",
        "crates/exp/src/runner.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("reading {rel}: {e}"));
        let d = lint_source(rel, &src);
        assert!(
            d.is_empty(),
            "{rel} has lint violations: {:?}",
            rule_lines(&d)
        );
    }
}

#[test]
fn good_fixtures_are_silent() {
    for (stem, _) in PRETEND_PATHS {
        let d = lint_fixture("good", stem);
        assert!(
            d.is_empty(),
            "good/{stem}.rs should be clean, got: {:?}",
            rule_lines(&d)
        );
    }
}

#[test]
fn diagnostics_render_with_path_line_severity_and_rule() {
    let d = lint_fixture("bad", "unwrap");
    assert_eq!(d.len(), 1);
    let line = d[0].to_string();
    assert!(
        line.starts_with("crates/core/src/unwrap.rs:2: error [unwrap]"),
        "unexpected rendering: {line}"
    );
}

/// The tentpole acceptance check: the workspace is lint-clean. Runs the
/// same scan as the `speakup-lint` binary and the CI step.
#[test]
fn workspace_self_audit_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let diags = speakup_lint::lint_workspace(root).expect("scanning the workspace");
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        speakup_lint::render_report(&diags)
    );
}
