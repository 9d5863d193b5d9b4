#![forbid(unsafe_code)]
//! `speakup-lint` — the workspace's determinism-audit static analysis.
//!
//! The engine promises reports that are a pure function of the scenario
//! and its seed. Goldens and proptest oracles check that promise
//! dynamically; this
//! crate checks its preconditions statically, on every `cargo test` and
//! as a blocking CI step, so a stray `HashMap` iteration or wall-clock
//! read fails in seconds instead of after a golden run. See
//! [`rules::RULES`] for the rule set and the README's "Static analysis
//! & determinism audit" section for the annotation syntax.

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, Diagnostic, RuleInfo, Severity, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, vendored stand-ins, VCS
/// metadata, golden reports, and the lint fixtures themselves (which
/// exist to violate the rules).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "golden", "fixtures"];

/// Collect every `.rs` file under `root` in a deterministic (sorted)
/// order — the lint tool must itself be reproducible, and `read_dir`
/// order is OS-dependent.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if p.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every source file under `root` (a workspace checkout). Returns
/// all diagnostics, sorted by path then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        out.extend(lint_source(&rel, &src));
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(out)
}

/// Ascend from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — how the binary finds the workspace root
/// when invoked without `--root`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Render diagnostics as the stable one-line-each report format used by
/// the CLI and the CI artifact.
pub fn render_report(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    for d in diags {
        s.push_str(&d.to_string());
        s.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if diags.is_empty() {
        s.push_str("lint: clean (0 diagnostics)\n");
    } else {
        s.push_str(&format!("lint: {errors} error(s), {warnings} warning(s)\n"));
    }
    s
}

/// Render diagnostics as a JSON array (hand-rolled; no serde in the
/// offline environment).
pub fn render_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
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
    let mut s = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}{}\n",
            d.rule,
            d.severity,
            esc(&d.path),
            d.line,
            esc(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n");
    s
}

/// Whether a diagnostic list should fail the run.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}
