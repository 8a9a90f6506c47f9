//! The lint registry and the seven lints.
//!
//! Every lint matches on the token stream from [`crate::scanner`] or
//! the parsed manifests from [`crate::manifest`] — never on raw text —
//! so occurrences inside comments, strings, and doc examples cannot
//! produce false findings. Needle identifiers below are written as
//! string literals for the same reason: this crate lints itself.

use std::collections::BTreeMap;

use crate::driver::{FileKind, SourceFile, Workspace};
use crate::report::{Finding, Severity};
use crate::scanner::{Suppression, Token, TokenKind};

/// `(id, one-line description)` for every lint, in run order.
pub const LINTS: &[(&str, &str)] = &[
    (
        "direct-thread-spawn",
        "std::thread::{spawn,scope} outside crates/par: route work through edm-par",
    ),
    (
        "unordered-iteration",
        "HashMap/HashSet in library code: iteration order varies across processes",
    ),
    ("ambient-entropy", "thread_rng/from_entropy/SystemTime::now make runs unreproducible"),
    ("probe-registry", "every edm-trace probe name must match trace-probes.toml exactly"),
    (
        "feature-forwarding",
        "crates must forward parallel/trace features of every dep that defines them",
    ),
    ("forbid-unsafe", "every non-compat crate root declares #![forbid(unsafe_code)]"),
    (
        "unwrap-in-lib",
        "unwrap() in library code, ratcheted against crates/lint/unwrap-baseline.toml",
    ),
    (
        "condvar-predicate-loop",
        "Condvar wait/wait_timeout must sit inside a predicate-recheck loop",
    ),
    (
        "lock-across-blocking",
        "a lock guard must not live across blocking I/O calls in the same scope",
    ),
    (
        "atomic-ordering-audit",
        "every atomic Ordering::* site must carry a justification in sync-orderings.toml",
    ),
    (
        "lock-order-graph",
        "the static acquired-while-held lock graph (results/lock-graph.json) must stay acyclic",
    ),
    (
        "env-knob-registry",
        "every EDM_* env knob must be documented in edm-env.toml and the README table",
    ),
    ("bad-suppression", "edm-allow comments must name a known lint and give a reason"),
];

/// True when `id` names a lint in [`LINTS`].
pub fn is_known_lint(id: &str) -> bool {
    LINTS.iter().any(|(known, _)| *known == id)
}

/// All inline suppressions, keyed by workspace-relative path, with
/// use-tracking so unused ones can be reported.
#[derive(Debug, Default)]
pub struct SuppressionTable {
    map: BTreeMap<String, Vec<Suppression>>,
}

impl SuppressionTable {
    /// Registers the suppressions scanned from one file.
    pub fn insert(&mut self, rel_path: &str, sups: Vec<Suppression>) {
        if !sups.is_empty() {
            self.map.insert(rel_path.to_string(), sups);
        }
    }

    /// True when a suppression covers (`lint`, `line`) in `rel_path`;
    /// marks the first matching suppression used. A line suppression
    /// covers its own line and the next line; a `-file` one covers the
    /// whole file. Reason-less suppressions still suppress — the
    /// missing reason is reported separately as `bad-suppression`.
    pub fn allows(&mut self, rel_path: &str, lint: &str, line: u32) -> bool {
        let Some(sups) = self.map.get_mut(rel_path) else {
            return false;
        };
        for s in sups.iter_mut() {
            if s.lint_id == lint && (s.whole_file || s.line == line || s.line + 1 == line) {
                s.used = true;
                return true;
            }
        }
        false
    }

    /// Consumes the table, yielding `(path, suppression)` pairs.
    pub fn into_entries(self) -> impl Iterator<Item = (String, Suppression)> {
        self.map.into_iter().flat_map(|(p, sups)| sups.into_iter().map(move |s| (p.clone(), s)))
    }
}

/// Runs every lint and returns the findings (unsorted).
pub fn run_all(ws: &Workspace, sup: &mut SuppressionTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    direct_thread_spawn(ws, sup, &mut findings);
    unordered_iteration(ws, sup, &mut findings);
    ambient_entropy(ws, sup, &mut findings);
    probe_registry(ws, sup, &mut findings);
    feature_forwarding(ws, sup, &mut findings);
    forbid_unsafe(ws, sup, &mut findings);
    unwrap_in_lib(ws, sup, &mut findings);
    crate::sync_lints::run_all(ws, sup, &mut findings);
    findings
}

/// Emits `bad-suppression` findings and unused-suppression warnings.
/// Call after [`run_all`] so use-tracking is complete.
pub fn finish_suppressions(sup: SuppressionTable, findings: &mut Vec<Finding>) {
    for (path, s) in sup.into_entries() {
        let form = if s.whole_file { "edm-allow-file" } else { "edm-allow" };
        if !is_known_lint(&s.lint_id) {
            findings.push(Finding {
                lint: "bad-suppression",
                severity: Severity::Error,
                file: path.clone(),
                line: s.line,
                message: format!("{form}({}) names an unknown lint", s.lint_id),
                grandfathered: false,
            });
            continue;
        }
        if s.reason.is_empty() {
            findings.push(Finding {
                lint: "bad-suppression",
                severity: Severity::Error,
                file: path.clone(),
                line: s.line,
                message: format!(
                    "{form}({}) has no reason; write `{form}({}): <why this is sound>`",
                    s.lint_id, s.lint_id
                ),
                grandfathered: false,
            });
        }
        if !s.used {
            findings.push(Finding {
                lint: "bad-suppression",
                severity: Severity::Warning,
                file: path,
                line: s.line,
                message: format!(
                    "unused {form}({}): nothing on the covered lines trips this lint",
                    s.lint_id
                ),
                grandfathered: false,
            });
        }
    }
}

/// Library-shaped, non-test source of non-compat crates: the scope
/// shared by the determinism lints.
pub(crate) fn lib_files(ws: &Workspace) -> impl Iterator<Item = (usize, &SourceFile)> {
    ws.files.iter().enumerate().filter(|(_, f)| {
        matches!(f.kind, FileKind::Lib | FileKind::Example) && !ws.crates[f.crate_idx].is_compat
    })
}

pub(crate) fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(id)) => Some(id.as_str()),
        _ => None,
    }
}

pub(crate) fn punct(tokens: &[Token], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

pub(crate) fn string(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// `a :: b` at position `i` for any `b` in `names`.
fn path_pair(tokens: &[Token], i: usize, head: &str, names: &[&str]) -> bool {
    ident(tokens, i) == Some(head)
        && punct(tokens, i + 1) == Some(':')
        && punct(tokens, i + 2) == Some(':')
        && ident(tokens, i + 3).is_some_and(|id| names.contains(&id))
}

fn direct_thread_spawn(ws: &Workspace, sup: &mut SuppressionTable, findings: &mut Vec<Finding>) {
    const LINT: &str = "direct-thread-spawn";
    for (_, file) in lib_files(ws) {
        if ws.crates[file.crate_idx].rel_dir.ends_with("crates/par")
            || ws.crates[file.crate_idx].rel_dir == "crates/par"
        {
            continue;
        }
        let toks = &file.scanned.tokens;
        for i in 0..toks.len() {
            if !path_pair(toks, i, "thread", &["spawn", "scope"]) {
                continue;
            }
            let line = toks[i].line;
            if file.scanned.in_test_region(line) || sup.allows(&file.rel_path, LINT, line) {
                continue;
            }
            let what = ident(toks, i + 3).unwrap_or_default();
            findings.push(Finding {
                lint: LINT,
                severity: Severity::Error,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "direct thread::{what}; use edm-par so worker counts, panics, and telemetry stay centralized"
                ),
                grandfathered: false,
            });
        }
    }
}

fn unordered_iteration(ws: &Workspace, sup: &mut SuppressionTable, findings: &mut Vec<Finding>) {
    const LINT: &str = "unordered-iteration";
    // Written split so this file's own tokens don't match the needle.
    let needles = [concat!("Hash", "Map"), concat!("Hash", "Set")];
    for (_, file) in lib_files(ws) {
        let toks = &file.scanned.tokens;
        for t in toks {
            let TokenKind::Ident(id) = &t.kind else { continue };
            if !needles.contains(&id.as_str()) {
                continue;
            }
            if file.scanned.in_test_region(t.line) || sup.allows(&file.rel_path, LINT, t.line) {
                continue;
            }
            findings.push(Finding {
                lint: LINT,
                severity: Severity::Error,
                file: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "{id} in library code: iteration order varies across processes; use the BTree equivalent or sort before iterating"
                ),
                grandfathered: false,
            });
        }
    }
}

fn ambient_entropy(ws: &Workspace, sup: &mut SuppressionTable, findings: &mut Vec<Finding>) {
    const LINT: &str = "ambient-entropy";
    for (_, file) in lib_files(ws) {
        let toks = &file.scanned.tokens;
        for i in 0..toks.len() {
            let hit = match ident(toks, i) {
                Some("thread_rng") | Some("from_entropy") => ident(toks, i).map(str::to_string),
                Some("SystemTime") if path_pair(toks, i, "SystemTime", &["now"]) => {
                    Some(concat!("System", "Time::now").to_string())
                }
                _ => None,
            };
            let Some(what) = hit else { continue };
            let line = toks[i].line;
            if file.scanned.in_test_region(line) || sup.allows(&file.rel_path, LINT, line) {
                continue;
            }
            findings.push(Finding {
                lint: LINT,
                severity: Severity::Error,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "{what} seeds state from the environment; take an explicit seed or timestamp parameter instead"
                ),
                grandfathered: false,
            });
        }
    }
}

/// Every probe call site in linted library code:
/// `(name, registry_section, rel_path, line)`. Used by the
/// `probe-registry` lint and by `edm-lint --dump-probes`.
pub fn collect_probes(ws: &Workspace) -> Vec<(String, &'static str, String, u32)> {
    let mut out = Vec::new();
    for (_, file) in lib_files(ws) {
        if ws.crates[file.crate_idx].rel_dir.ends_with("crates/trace") {
            continue;
        }
        let toks = &file.scanned.tokens;
        for i in 0..toks.len() {
            let Some(section) = ident(toks, i).and_then(probe_section) else { continue };
            if i > 0 && punct(toks, i - 1) == Some('.') {
                continue;
            }
            if punct(toks, i + 1) != Some('(') {
                continue;
            }
            let Some(name) = string(toks, i + 2) else { continue };
            if file.scanned.in_test_region(toks[i].line) {
                continue;
            }
            out.push((name.to_string(), section, file.rel_path.clone(), toks[i].line));
        }
    }
    out
}

/// Maps a probe call identifier to its registry section. A handle
/// shares its by-name call's section: a counter handle is still a
/// counter.
fn probe_section(call: &str) -> Option<&'static str> {
    match call {
        "span" | "span_handle" => Some("spans"),
        "counter_add" | "counter_handle" => Some("counters"),
        "record" | "record_full" | "hist_handle" => Some("histograms"),
        _ => None,
    }
}

fn probe_registry(ws: &Workspace, sup: &mut SuppressionTable, findings: &mut Vec<Finding>) {
    const LINT: &str = "probe-registry";
    const SECTIONS: [&str; 3] = ["spans", "counters", "histograms"];

    // 1. The registry itself: duplicates and missing descriptions.
    let mut registered: BTreeMap<String, (&'static str, u32)> = BTreeMap::new();
    for &section in &SECTIONS {
        let Some(sec) = ws.probe_registry.section(section) else { continue };
        for entry in &sec.entries {
            let name = entry.key.join(".");
            if entry.value.as_str().is_none_or(str::is_empty) {
                findings.push(Finding {
                    lint: LINT,
                    severity: Severity::Error,
                    file: ws.probe_registry_rel.clone(),
                    line: entry.line,
                    message: format!("probe \"{name}\" has no description"),
                    grandfathered: false,
                });
            }
            if let Some((prev_sec, prev_line)) = registered.get(&name) {
                findings.push(Finding {
                    lint: LINT,
                    severity: Severity::Error,
                    file: ws.probe_registry_rel.clone(),
                    line: entry.line,
                    message: format!(
                        "duplicate probe \"{name}\" (already registered under [{prev_sec}] at line {prev_line})"
                    ),
                    grandfathered: false,
                });
            } else {
                registered.insert(name, (section, entry.line));
            }
        }
    }

    // 2. Call sites: every probe literal must be registered under the
    //    section its call kind implies. (collect_probes already skips
    //    crates/trace — the API definition mentions placeholder names —
    //    plus test regions and method calls like `hist.record(x)`.)
    let mut used: BTreeMap<String, &'static str> = BTreeMap::new();
    for (name, section, rel_path, line) in collect_probes(ws) {
        used.insert(name.clone(), section);
        let problem = match registered.get(&name) {
            Some((reg_sec, _)) if *reg_sec == section => None,
            Some((reg_sec, _)) => Some(format!(
                "probe \"{name}\" is registered under [{reg_sec}] but used as a {section} probe"
            )),
            None => Some(format!(
                "probe \"{name}\" is not in {}: add it or fix the typo",
                ws.probe_registry_rel
            )),
        };
        if let Some(message) = problem {
            if !sup.allows(&rel_path, LINT, line) {
                findings.push(Finding {
                    lint: LINT,
                    severity: Severity::Error,
                    file: rel_path,
                    line,
                    message,
                    grandfathered: false,
                });
            }
        }
    }

    // 3. Stale registry entries: documented but never used. A
    //    `# edm-allow(probe-registry)` comment in the registry itself
    //    covers probes emitted from inside crates/trace, which the
    //    call-site scan deliberately skips.
    for (name, (section, line)) in &registered {
        if !used.contains_key(name) {
            if sup.allows(&ws.probe_registry_rel, LINT, *line) {
                continue;
            }
            findings.push(Finding {
                lint: LINT,
                severity: Severity::Error,
                file: ws.probe_registry_rel.clone(),
                line: *line,
                message: format!(
                    "stale registry entry: probe \"{name}\" ([{section}]) is not emitted anywhere"
                ),
                grandfathered: false,
            });
        }
    }
}

fn feature_forwarding(ws: &Workspace, sup: &mut SuppressionTable, findings: &mut Vec<Finding>) {
    const LINT: &str = "feature-forwarding";
    const FORWARDED: [&str; 2] = ["parallel", "trace"];

    // Which workspace crates define which forwardable features.
    let mut defines: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for krate in &ws.crates {
        if let Some(features) = krate.manifest.section("features") {
            let defined: Vec<&str> = FORWARDED
                .iter()
                .copied()
                .filter(|f| features.entries.iter().any(|e| e.key.len() == 1 && e.key[0] == *f))
                .collect();
            if !defined.is_empty() {
                defines.insert(&krate.name, defined);
            }
        }
    }

    for krate in ws.crates.iter().filter(|c| !c.is_compat) {
        let Some(deps) = krate.manifest.section("dependencies") else { continue };
        let features = krate.manifest.section("features");
        for dep in &deps.entries {
            let dep_name = dep.key[0].as_str();
            let Some(dep_defines) = defines.get(dep_name) else { continue };
            for feature in dep_defines {
                let forward = format!("{dep_name}/{feature}");
                let forward_opt = format!("{dep_name}?/{feature}");
                let entry = features.and_then(|sec| {
                    sec.entries.iter().find(|e| e.key.len() == 1 && e.key[0] == *feature)
                });
                let forwarded = entry.is_some_and(|e| {
                    e.value.as_array().is_some_and(|items| {
                        items.iter().any(|v| {
                            v.as_str() == Some(&forward) || v.as_str() == Some(&forward_opt)
                        })
                    })
                });
                if forwarded {
                    continue;
                }
                let line = entry.map(|e| e.line).unwrap_or(dep.line);
                if sup.allows(&krate.manifest_rel, LINT, line) {
                    continue;
                }
                let detail = if entry.is_some() {
                    format!("its `{feature}` feature does not forward \"{forward}\"")
                } else {
                    format!("it does not define a `{feature}` feature forwarding \"{forward}\"")
                };
                findings.push(Finding {
                    lint: LINT,
                    severity: Severity::Error,
                    file: krate.manifest_rel.clone(),
                    line,
                    message: format!(
                        "{} depends on {dep_name}, which defines `{feature}`, but {detail}",
                        krate.name
                    ),
                    grandfathered: false,
                });
            }
        }
    }
}

fn forbid_unsafe(ws: &Workspace, sup: &mut SuppressionTable, findings: &mut Vec<Finding>) {
    const LINT: &str = "forbid-unsafe";
    for (crate_idx, krate) in ws.crates.iter().enumerate() {
        if krate.is_compat {
            continue;
        }
        // The crate root: src/lib.rs, or src/main.rs for bin-only.
        let root_file = ws
            .files
            .iter()
            .filter(|f| f.crate_idx == crate_idx)
            .find(|f| f.rel_path.ends_with("src/lib.rs"))
            .or_else(|| {
                ws.files
                    .iter()
                    .filter(|f| f.crate_idx == crate_idx)
                    .find(|f| f.rel_path.ends_with("src/main.rs"))
            });
        let Some(file) = root_file else { continue };
        if has_forbid_unsafe(&file.scanned.tokens) {
            continue;
        }
        if sup.allows(&file.rel_path, LINT, 1) {
            continue;
        }
        findings.push(Finding {
            lint: LINT,
            severity: Severity::Error,
            file: file.rel_path.clone(),
            line: 1,
            message: format!(
                "crate {} does not declare #![forbid(unsafe_code)] at its root",
                krate.name
            ),
            grandfathered: false,
        });
    }
}

fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    for i in 0..tokens.len() {
        if punct(tokens, i) == Some('#')
            && punct(tokens, i + 1) == Some('!')
            && punct(tokens, i + 2) == Some('[')
            && ident(tokens, i + 3) == Some("forbid")
            && punct(tokens, i + 4) == Some('(')
        {
            let mut j = i + 5;
            while j < tokens.len() && punct(tokens, j) != Some(')') {
                if ident(tokens, j) == Some("unsafe_code") {
                    return true;
                }
                j += 1;
            }
        }
    }
    false
}

fn unwrap_in_lib(ws: &Workspace, sup: &mut SuppressionTable, findings: &mut Vec<Finding>) {
    const LINT: &str = "unwrap-in-lib";
    for (_, file) in lib_files(ws) {
        if matches!(file.kind, FileKind::Example) {
            continue; // demo code may unwrap freely
        }
        let sites = unwrap_sites(file, sup);
        if sites.is_empty() {
            continue;
        }
        let baseline = ws
            .unwrap_baseline
            .iter()
            .find(|(path, _)| path == &file.rel_path)
            .map_or(0, |(_, n)| *n);
        let over = sites.len() > baseline;
        for line in &sites {
            findings.push(Finding {
                lint: LINT,
                severity: Severity::Error,
                file: file.rel_path.clone(),
                line: *line,
                message: if over {
                    format!(
                        "unwrap() in library code: {} site(s) vs baseline {baseline}; handle the error or ratchet via {}",
                        sites.len(),
                        ws.unwrap_baseline_rel
                    )
                } else {
                    format!(
                        "unwrap() in library code (grandfathered: {} site(s) within baseline {baseline})",
                        sites.len()
                    )
                },
                grandfathered: !over,
            });
        }
    }
    // A shrunk file means the ratchet can tighten.
    for (path, baseline) in &ws.unwrap_baseline {
        let current =
            ws.files.iter().find(|f| &f.rel_path == path).map(count_unwraps_non_test).unwrap_or(0);
        if current < *baseline {
            findings.push(Finding {
                lint: LINT,
                severity: Severity::Warning,
                file: ws.unwrap_baseline_rel.clone(),
                line: 0,
                message: format!(
                    "baseline for {path} is stale ({current} current vs {baseline} allowed); run edm-lint --write-baseline"
                ),
                grandfathered: false,
            });
        }
    }
}

/// Unsuppressed, non-test `.unwrap()` call lines in `file`.
fn unwrap_sites(file: &SourceFile, sup: &mut SuppressionTable) -> Vec<u32> {
    let toks = &file.scanned.tokens;
    let mut sites = Vec::new();
    for i in 0..toks.len() {
        if punct(toks, i) == Some('.')
            && ident(toks, i + 1) == Some("unwrap")
            && punct(toks, i + 2) == Some('(')
        {
            let line = toks[i + 1].line;
            if !file.scanned.in_test_region(line)
                && !sup.allows(&file.rel_path, "unwrap-in-lib", line)
            {
                sites.push(line);
            }
        }
    }
    sites
}

/// Non-test `.unwrap()` site count, ignoring suppressions (used for
/// the stale-baseline check and `--write-baseline`).
pub fn count_unwraps_non_test(file: &SourceFile) -> usize {
    let toks = &file.scanned.tokens;
    (0..toks.len())
        .filter(|&i| {
            punct(toks, i) == Some('.')
                && ident(toks, i + 1) == Some("unwrap")
                && punct(toks, i + 2) == Some('(')
                && !file.scanned.in_test_region(toks[i + 1].line)
        })
        .count()
}
