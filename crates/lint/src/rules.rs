//! The determinism-audit rule set.
//!
//! Every rule turns one of the engine's run-time invariants (reports that
//! are a pure function of scenario and seed, reproducible allocation
//! outcomes) into a compile-time gate. Rules are lexical: they pattern-match the token
//! stream from [`crate::lexer`], scoped by workspace-relative path and by
//! whether a token sits inside a `#[cfg(test)] mod`. The escape hatch is
//! an annotation on the same or the preceding line:
//!
//! ```text
//! // lint: allow(<rule>) — <reason>
//! ```
//!
//! The reason is mandatory; an allow without one is itself a diagnostic
//! (`annotation`). Path allowlists (driver/bench/proxy code that may read
//! the wall clock, the PCG reference implementation) are centralized here
//! so a reviewer can see every hole in the fence in one screen.
//!
//! | rule          | invariant it guards                                   |
//! |---------------|-------------------------------------------------------|
//! | `wall-clock`  | no `Instant`/`SystemTime` in deterministic lib code   |
//! |               | or the `crates/exp` simulator agents                  |
//! | `hash-iter`   | no order-dependent `HashMap`/`HashSet` iteration      |
//! | `entropy-rng` | no entropy-seeded RNG anywhere (location-keyed PCG)   |
//! | `cast`        | no bare `as` integer casts on `crates/net` lib code   |
//! | `forbid-unsafe` | every lib carries `#![forbid(unsafe_code)]`; no     |
//! |               | `unsafe` outside the bench tracking allocator         |
//! | `unwrap`      | no bare `unwrap()` in net/core (use `expect`)         |
//! | `annotation`  | every `lint: allow` names a real rule and a reason    |

use crate::lexer::{lex, Lexed, TokKind, Token};

/// How bad a diagnostic is. Every shipped rule is [`Severity::Error`];
/// the level exists so future advisory rules can ride the same pipe
/// without blocking CI.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// Fails the lint run (non-zero exit, blocking CI step).
    Error,
    /// Reported but does not fail the run.
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One finding: rule, severity, location, and a human message.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule id (`wall-clock`, `hash-iter`, ...).
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.path, self.line, self.severity, self.rule, self.message
        )
    }
}

/// Static description of one rule, for `--rules` output and the README.
pub struct RuleInfo {
    /// Rule id as used in diagnostics and `lint: allow(...)`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Severity of its diagnostics.
    pub severity: Severity,
}

/// Every rule the scanner knows, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        summary: "no Instant/SystemTime in crates/net + crates/core lib code or the \
                  crates/exp agents",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "hash-iter",
        summary: "no order-dependent HashMap/HashSet iteration in deterministic crates",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "entropy-rng",
        summary: "no entropy-seeded RNG anywhere; only location-keyed PCG constructors",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "cast",
        summary: "no bare `as` integer casts in crates/net lib code (try_from/From/typed ids)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "forbid-unsafe",
        summary: "every workspace lib carries #![forbid(unsafe_code)]; no unsafe outside \
                  the bench tracking allocator",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "unwrap",
        summary: "no bare unwrap() in crates/net + crates/core (use expect(\"invariant: ...\"))",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "annotation",
        summary: "every `lint: allow(...)` names a known rule and carries a written reason",
        severity: Severity::Error,
    },
];

/// Whether `id` names a shipped rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

// ---------------------------------------------------------------------
// Path scoping. All paths are workspace-relative with `/` separators.
// ---------------------------------------------------------------------

/// Crates whose lib code must be bit-reproducible: the simulator and the
/// domain logic it drives. `exp` (driver), `bench`, and `proxy` (a real
/// network proxy, wall clock is its job) are deliberately outside.
fn is_deterministic_lib(rel: &str) -> bool {
    rel.starts_with("crates/net/src/") || rel.starts_with("crates/core/src/")
}

/// The `wall-clock` rule's scope: the deterministic libs plus the `exp`
/// simulator agents, which are simulation logic although their crate
/// also hosts the (host-timed) driver.
fn is_wall_clock_scoped(rel: &str) -> bool {
    is_deterministic_lib(rel) || rel.starts_with("crates/exp/src/agents/")
}

/// `crates/net` lib sources (the `cast` rule's scope).
fn is_net_lib(rel: &str) -> bool {
    rel.starts_with("crates/net/src/")
}

/// Path allowlist for `cast`: the PCG-32 reference implementation is
/// bit-twiddling by definition (O'Neill 2014, ported verbatim); its casts
/// are the algorithm, not id/time conversions.
fn cast_allowlisted(rel: &str) -> bool {
    rel == "crates/net/src/rng.rs"
}

/// Path allowlist for the `unsafe` half of `forbid-unsafe`: the bench
/// tracking allocator must implement `GlobalAlloc`, which is an `unsafe`
/// trait. It is the single sanctioned exception.
fn unsafe_allowlisted(rel: &str) -> bool {
    rel == "crates/bench/benches/engine_throughput.rs"
}

/// Whether `rel` is a workspace lib root that must carry
/// `#![forbid(unsafe_code)]`.
fn is_lib_root(rel: &str) -> bool {
    if rel == "src/harness.rs" {
        return true;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((_crate_dir, tail)) = rest.split_once('/') {
            return tail == "src/lib.rs";
        }
    }
    false
}

// ---------------------------------------------------------------------
// Annotations.
// ---------------------------------------------------------------------

/// A parsed `lint: allow(<rule>) — <reason>` annotation.
struct Allow {
    line: u32,
    rule: String,
    has_reason: bool,
}

/// Extract allow annotations from the file's comments.
fn collect_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("lint: allow(") {
            let after = &rest[at + "lint: allow(".len()..];
            let Some(close) = after.find(')') else { break };
            let rule = after[..close].trim().to_string();
            // Prose describing the syntax (`allow(<rule>)`, `allow(...)`)
            // is not an annotation: only ident-shaped names count. A real
            // typo (`allow(casts)`) is still ident-shaped and still audited.
            if rule.is_empty()
                || !rule
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
            {
                rest = &after[close + 1..];
                continue;
            }
            let tail = &after[close + 1..];
            // The reason follows an optional separator (em dash, dash,
            // colon); anything non-empty counts as written justification.
            let reason = tail
                .trim_start()
                .trim_start_matches(['—', '–', '-', ':'])
                .trim();
            out.push(Allow {
                line: c.line,
                rule,
                has_reason: !reason.is_empty(),
            });
            rest = &after[close + 1..];
        }
    }
    out
}

// ---------------------------------------------------------------------
// Token-stream helpers.
// ---------------------------------------------------------------------

struct File<'a> {
    rel: &'a str,
    src: &'a str,
    toks: &'a [Token],
    /// Parallel to `toks`: inside a `#[cfg(test)] mod` body.
    in_test: Vec<bool>,
}

impl<'a> File<'a> {
    fn ident(&self, i: usize) -> Option<&'a str> {
        let t = self.toks.get(i)?;
        (t.kind == TokKind::Ident).then(|| &self.src[t.start..t.end])
    }

    fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
    }

    /// Match a sequence of idents/puncts starting at `i`. Each pattern
    /// element is either a single punctuation char or an identifier.
    fn seq(&self, mut i: usize, pat: &[&str]) -> bool {
        for p in pat {
            let matched = if p.len() == 1 && !p.chars().next().is_some_and(char::is_alphanumeric) {
                self.punct(i, p.chars().next().expect("one char"))
            } else {
                self.ident(i) == Some(*p)
            };
            if !matched {
                return false;
            }
            i += 1;
        }
        true
    }

    fn line(&self, i: usize) -> u32 {
        self.toks[i].line
    }
}

/// Mark the tokens inside every `#[cfg(test)] mod ... { ... }` body.
///
/// Unit-test modules are exempt from the lib-code rules (`wall-clock`,
/// `cast`): a test may time itself or index with literals. A
/// `#[cfg(test)]` on anything other than a `mod` is *not* exempted —
/// stricter is safer, and the escape hatch documents intent.
fn mark_test_regions(f: &mut File<'_>) {
    let toks = f.toks;
    let mut i = 0usize;
    while i < toks.len() {
        // `# [ cfg ( test ) ]`
        if f.punct(i, '#') && f.punct(i + 1, '[') && f.ident(i + 2) == Some("cfg") {
            // Find the matching `]` of this attribute.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_test = false;
            while j < toks.len() && depth > 0 {
                if f.punct(j, '[') {
                    depth += 1;
                } else if f.punct(j, ']') {
                    depth -= 1;
                } else if f.ident(j) == Some("test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_test {
                // Skip any further attributes between cfg(test) and the item.
                let mut k = j;
                while f.punct(k, '#') && f.punct(k + 1, '[') {
                    let mut d = 0usize;
                    k += 1;
                    loop {
                        if f.punct(k, '[') {
                            d += 1;
                        } else if f.punct(k, ']') {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        } else if k >= toks.len() {
                            break;
                        }
                        k += 1;
                    }
                }
                // `mod name {` — mark to the matching `}`.
                if f.ident(k) == Some("mod") {
                    let mut m = k;
                    while m < toks.len() && !f.punct(m, '{') {
                        m += 1;
                    }
                    let mut d = 0usize;
                    while m < toks.len() {
                        if f.punct(m, '{') {
                            d += 1;
                        } else if f.punct(m, '}') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        f.in_test[m] = true;
                        m += 1;
                    }
                    i = m;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------

/// D1 — `wall-clock`: `Instant` / `SystemTime` in deterministic lib code
/// and the simulator agents.
fn check_wall_clock(f: &File<'_>, out: &mut Vec<Diagnostic>) {
    if !is_wall_clock_scoped(f.rel) {
        return;
    }
    for i in 0..f.toks.len() {
        if f.in_test[i] {
            continue;
        }
        let Some(w) = f.ident(i) else { continue };
        if w == "Instant" || w == "SystemTime" {
            out.push(diag(
                "wall-clock",
                f,
                i,
                format!(
                    "`{w}` in deterministic lib code: simulation logic must use `SimTime` \
                     (wall-clock reads make runs irreproducible)"
                ),
            ));
        }
    }
}

/// Methods whose results depend on a hash map's iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// D2 — `hash-iter`: order-dependent iteration over `HashMap`/`HashSet`
/// bindings in deterministic crates. Point lookups (`get`, `insert`,
/// `remove`, `contains_key`, `entry`, `len`) stay legal.
///
/// Detection is per-file and name-based: a binding is hash-typed if the
/// file declares it with a `HashMap`/`HashSet` type ascription or
/// initializes it from `HashMap::new`-style constructors. That misses a
/// map smuggled across files untyped — accepted, and documented in the
/// README: the conventions this codebase already follows (typed struct
/// fields) are exactly what the scanner sees.
fn check_hash_iter(f: &File<'_>, out: &mut Vec<Diagnostic>) {
    if !is_deterministic_lib(f.rel) {
        return;
    }
    // Pass 1: names bound to hash containers.
    let mut names: Vec<&str> = Vec::new();
    for i in 0..f.toks.len() {
        let Some(w) = f.ident(i) else { continue };
        if w != "HashMap" && w != "HashSet" {
            continue;
        }
        // Walk back over a path (`std :: collections ::`) and an optional
        // `&`/`mut` to the `:` or `=` that binds a name.
        let mut j = i;
        while j >= 2 && f.punct(j - 1, ':') && f.punct(j - 2, ':') && f.ident(j - 3).is_some() {
            j -= 3;
        }
        let mut k = j;
        while k >= 1 && (f.punct(k - 1, '&') || f.ident(k - 1) == Some("mut")) {
            k -= 1;
        }
        let binder = if k >= 1 && f.punct(k - 1, ':') && !f.punct(k.wrapping_sub(2), ':') {
            // `name : HashMap<..>` (type ascription, not a `::` path).
            f.ident(k.wrapping_sub(2))
        } else if f.punct(k.wrapping_sub(1), '=') {
            // `let [mut] name = HashMap::new()`.
            let mut m = k.wrapping_sub(2);
            if f.ident(m) == Some("mut") {
                m = m.wrapping_sub(1);
            }
            f.ident(m)
        } else {
            None
        };
        if let Some(name) = binder {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    if names.is_empty() {
        return;
    }
    // Pass 2: iteration over a tracked name.
    for i in 0..f.toks.len() {
        // `name . method (` — receiver is the ident right before the dot.
        if f.punct(i, '.') {
            let recv = f.ident(i.wrapping_sub(1));
            let m = f.ident(i + 1);
            if let (Some(recv), Some(m)) = (recv, m) {
                if names.contains(&recv) && HASH_ITER_METHODS.contains(&m) && f.punct(i + 2, '(') {
                    out.push(diag(
                        "hash-iter",
                        f,
                        i,
                        format!(
                            "order-dependent `.{m}()` over hash-typed `{recv}`: iteration order \
                             varies across runs — use BTreeMap/an ordered slab, or justify with \
                             an allow annotation"
                        ),
                    ));
                }
            }
        }
        // `for pat in [&][mut] [self .] name {`
        if f.ident(i) == Some("for") {
            let mut j = i + 1;
            // Skip the (possibly destructuring) pattern up to `in`.
            let mut guard = 0;
            while j < f.toks.len() && f.ident(j) != Some("in") && guard < 64 {
                j += 1;
                guard += 1;
            }
            if f.ident(j) != Some("in") {
                continue;
            }
            let mut k = j + 1;
            while f.punct(k, '&') || f.ident(k) == Some("mut") {
                k += 1;
            }
            // A dotted chain: `name` or `self . name`.
            let mut last = None;
            while let Some(w) = f.ident(k) {
                last = Some(w);
                if f.punct(k + 1, '.') && f.ident(k + 2).is_some() {
                    k += 2;
                } else {
                    k += 1;
                    break;
                }
            }
            if let Some(name) = last {
                if names.contains(&name) && f.punct(k, '{') {
                    out.push(diag(
                        "hash-iter",
                        f,
                        k - 1,
                        format!(
                            "order-dependent `for ... in` over hash-typed `{name}`: iteration \
                             order varies across runs — use BTreeMap/an ordered slab, or justify \
                             with an allow annotation"
                        ),
                    ));
                }
            }
        }
    }
}

/// D3 — `entropy-rng`: entropy-seeded RNG constructors, anywhere. The
/// simulator's only randomness source is the location-keyed `Pcg32`.
fn check_entropy_rng(f: &File<'_>, out: &mut Vec<Diagnostic>) {
    const BANNED: &[&str] = &[
        "thread_rng",
        "from_entropy",
        "from_os_rng",
        "OsRng",
        "ThreadRng",
        "getrandom",
    ];
    for i in 0..f.toks.len() {
        let Some(w) = f.ident(i) else { continue };
        if BANNED.contains(&w) {
            out.push(diag(
                "entropy-rng",
                f,
                i,
                format!(
                    "entropy-seeded RNG `{w}`: every stream must be a location-keyed \
                     `Pcg32::new(seed, stream)` so reruns reproduce byte-identically"
                ),
            ));
        }
    }
}

/// Integer targets a bare `as` cast may truncate or resize into.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// D4 — `cast`: bare `as` integer casts in `crates/net` lib code. Ids and
/// times are `u32`/`u64` newtypes there; a silent truncation reorders
/// events or aliases flows. Use `From`/`TryFrom`, the `identifier!`
/// accessors (`Ident::index`), or annotate deliberate bit-packing.
fn check_cast(f: &File<'_>, out: &mut Vec<Diagnostic>) {
    if !is_net_lib(f.rel) || cast_allowlisted(f.rel) {
        return;
    }
    for i in 0..f.toks.len() {
        if f.in_test[i] {
            continue;
        }
        if f.ident(i) != Some("as") {
            continue;
        }
        if let Some(ty) = f.ident(i + 1) {
            if INT_TYPES.contains(&ty) {
                out.push(diag(
                    "cast",
                    f,
                    i,
                    format!(
                        "bare `as {ty}` cast in net lib code: use `{ty}::try_from(..)` / \
                         `From`, a typed-id accessor, or annotate the bit-level intent"
                    ),
                ));
            }
        }
    }
}

/// D5 — `forbid-unsafe`: every workspace lib root must carry
/// `#![forbid(unsafe_code)]`, and no file outside the bench tracking
/// allocator may contain `unsafe` at all.
fn check_forbid_unsafe(f: &File<'_>, out: &mut Vec<Diagnostic>) {
    if is_lib_root(f.rel) {
        let mut found = false;
        for i in 0..f.toks.len() {
            if f.punct(i, '#')
                && f.punct(i + 1, '!')
                && f.punct(i + 2, '[')
                && f.seq(i + 3, &["forbid", "(", "unsafe_code", ")", "]"])
            {
                found = true;
                break;
            }
        }
        if !found {
            out.push(Diagnostic {
                rule: "forbid-unsafe",
                severity: Severity::Error,
                path: f.rel.to_string(),
                line: 1,
                message: "workspace lib root without `#![forbid(unsafe_code)]`: every lib \
                          asserts the no-unsafe discipline at the root"
                    .to_string(),
            });
        }
    }
    if unsafe_allowlisted(f.rel) {
        return;
    }
    for i in 0..f.toks.len() {
        if f.ident(i) == Some("unsafe") {
            out.push(diag(
                "forbid-unsafe",
                f,
                i,
                "`unsafe` outside the allowlisted bench tracking allocator".to_string(),
            ));
        }
    }
}

/// D6 — `unwrap`: bare `.unwrap()` in net/core sources (tests included —
/// an `expect` message is the failure's first line of documentation).
fn check_unwrap(f: &File<'_>, out: &mut Vec<Diagnostic>) {
    if !is_deterministic_lib(f.rel) {
        return;
    }
    for i in 0..f.toks.len() {
        if f.punct(i, '.') && f.ident(i + 1) == Some("unwrap") && f.punct(i + 2, '(') {
            out.push(diag(
                "unwrap",
                f,
                i,
                "bare `unwrap()`: state the violated invariant with \
                 `expect(\"invariant: ...\")`, or annotate why the panic is the contract"
                    .to_string(),
            ));
        }
    }
}

fn diag(rule: &'static str, f: &File<'_>, tok: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        path: f.rel.to_string(),
        line: f.line(tok.min(f.toks.len().saturating_sub(1))),
        message,
    }
}

/// Lint one source file. `rel` must be the workspace-relative path with
/// `/` separators — rules scope by it.
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let mut f = File {
        rel,
        src,
        toks: &lexed.tokens,
        in_test: vec![false; lexed.tokens.len()],
    };
    mark_test_regions(&mut f);

    let mut found = Vec::new();
    check_wall_clock(&f, &mut found);
    check_hash_iter(&f, &mut found);
    check_entropy_rng(&f, &mut found);
    check_cast(&f, &mut found);
    check_forbid_unsafe(&f, &mut found);
    check_unwrap(&f, &mut found);

    // Apply the annotation escape hatch, then audit the annotations
    // themselves.
    let allows = collect_allows(&lexed);
    let mut out: Vec<Diagnostic> = found
        .into_iter()
        .filter(|d| {
            !allows.iter().any(|a| {
                a.rule == d.rule && a.has_reason && (a.line == d.line || a.line + 1 == d.line)
            })
        })
        .collect();
    for a in &allows {
        if !is_known_rule(&a.rule) {
            out.push(Diagnostic {
                rule: "annotation",
                severity: Severity::Error,
                path: rel.to_string(),
                line: a.line,
                message: format!(
                    "`lint: allow({})` names no known rule (known: {})",
                    a.rule,
                    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                ),
            });
        } else if !a.has_reason {
            out.push(Diagnostic {
                rule: "annotation",
                severity: Severity::Error,
                path: rel.to_string(),
                line: a.line,
                message: format!(
                    "`lint: allow({})` without a written reason: append `— <why this is sound>`",
                    a.rule
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}
