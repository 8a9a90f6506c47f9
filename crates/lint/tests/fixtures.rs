//! End-to-end tests: run the whole driver on the `bad-ws` fixture
//! workspace (one deliberate violation per lint, plus suppression
//! cases) and on the real workspace (which must be clean).

use std::path::{Path, PathBuf};

use edm_lint::report::Severity;
use edm_lint::{driver, sync_lints, Finding, Report};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad-ws")
}

fn fixture_report() -> Report {
    driver::lint_workspace(&fixture_root()).expect("fixture workspace loads")
}

fn find<'r>(report: &'r Report, lint: &str, msg_part: &str) -> Vec<&'r Finding> {
    report.findings.iter().filter(|f| f.lint == lint && f.message.contains(msg_part)).collect()
}

#[test]
fn direct_thread_spawn_fires_for_spawn_and_scope() {
    let r = fixture_report();
    let spawn = find(&r, "direct-thread-spawn", "thread::spawn");
    let scope = find(&r, "direct-thread-spawn", "thread::scope");
    assert_eq!(spawn.len(), 1, "{}", r.render_human());
    assert_eq!(scope.len(), 1);
    assert!(spawn[0].file.ends_with("crates/alpha/src/lib.rs"));
    // The spawn inside #[cfg(test)] must not be flagged.
    assert_eq!(r.findings.iter().filter(|f| f.lint == "direct-thread-spawn").count(), 2);
}

#[test]
fn unordered_iteration_fires_only_on_unsuppressed_sites() {
    let r = fixture_report();
    let hits: Vec<_> = r.findings.iter().filter(|f| f.lint == "unordered-iteration").collect();
    // Lines 4 and 5 (the two `use` statements). The suppressed type
    // aliases and the HashMap inside #[cfg(test)] stay silent.
    assert_eq!(hits.len(), 2, "{}", r.render_human());
    assert!(hits.iter().all(|f| f.file.ends_with("crates/alpha/src/lib.rs")));
    assert_eq!(hits.iter().map(|f| f.line).collect::<Vec<_>>(), vec![4, 5]);
}

#[test]
fn ambient_entropy_fires_for_clock_and_rng() {
    let r = fixture_report();
    assert_eq!(find(&r, "ambient-entropy", "Time::now").len(), 1);
    assert_eq!(find(&r, "ambient-entropy", "thread_rng").len(), 1);
}

#[test]
fn probe_registry_catches_every_rot_mode() {
    let r = fixture_report();
    // Typo: used but unregistered, flagged at the call site.
    let typo = find(&r, "probe-registry", "alpha.typo_flow");
    assert_eq!(typo.len(), 1, "{}", r.render_human());
    assert!(typo[0].file.ends_with("crates/alpha/src/lib.rs"));
    // Wrong section: registered as span, emitted as counter.
    assert_eq!(find(&r, "probe-registry", "used as a counters probe").len(), 1);
    // Wrong-kind handle probe: registered as a counter, resolved
    // through the histogram handle call.
    let mislabeled = find(&r, "probe-registry", "\"alpha.labeled_wrongkind\"");
    assert_eq!(mislabeled.len(), 1, "{}", r.render_human());
    assert!(mislabeled[0].message.contains("used as a histograms probe"));
    // Stale: registered, never emitted.
    assert!(!find(&r, "probe-registry", "stale registry entry").is_empty());
    assert_eq!(find(&r, "probe-registry", "\"alpha.stale\"").len(), 1);
    // A registry-side `# edm-allow(probe-registry)` silences the stale
    // check for the entry it covers.
    assert!(find(&r, "probe-registry", "\"alpha.stale_allowed\"").is_empty());
    // Duplicate registration.
    assert_eq!(find(&r, "probe-registry", "duplicate probe").len(), 1);
    // Missing description.
    assert_eq!(find(&r, "probe-registry", "has no description").len(), 1);
    // The correctly used probes (by name and by handle) are not flagged.
    assert!(find(&r, "probe-registry", "\"alpha.flow\"").is_empty());
    assert!(find(&r, "probe-registry", "\"alpha.labeled\"").is_empty());
}

#[test]
fn feature_forwarding_flags_missing_forward_and_honors_toml_suppression() {
    let r = fixture_report();
    let missing = find(&r, "feature-forwarding", "beta/parallel");
    assert_eq!(missing.len(), 1, "{}", r.render_human());
    assert!(missing[0].file.ends_with("crates/alpha/Cargo.toml"));
    // trace IS forwarded — no finding mentions it.
    assert!(find(&r, "feature-forwarding", "beta/trace").is_empty());
    // gamma's missing forwards are suppressed in its manifest, and the
    // suppression is used (no unused-suppression warning for gamma).
    assert!(!r
        .findings
        .iter()
        .any(|f| f.file.ends_with("gamma/Cargo.toml") && f.lint == "feature-forwarding"));
    assert!(!r
        .findings
        .iter()
        .any(|f| f.file.ends_with("gamma/Cargo.toml") && f.message.contains("unused")));
}

#[test]
fn forbid_unsafe_flags_only_the_crate_missing_it() {
    let r = fixture_report();
    let hits: Vec<_> = r.findings.iter().filter(|f| f.lint == "forbid-unsafe").collect();
    assert_eq!(hits.len(), 1, "{}", r.render_human());
    assert!(hits[0].file.ends_with("crates/alpha/src/lib.rs"));
    assert!(hits[0].message.contains("alpha"));
}

#[test]
fn unwrap_in_lib_counts_only_non_test_sites() {
    let r = fixture_report();
    let hits: Vec<_> = r.findings.iter().filter(|f| f.lint == "unwrap-in-lib").collect();
    // One real site; the unwrap inside #[cfg(test)] is exempt. With no
    // baseline file in the fixture the site is a hard error.
    assert_eq!(hits.len(), 1, "{}", r.render_human());
    assert!(!hits[0].grandfathered);
    assert_eq!(hits[0].severity, Severity::Error);
}

#[test]
fn suppressions_are_reason_checked_and_usage_tracked() {
    let r = fixture_report();
    // Reason-less suppression still suppresses, but is itself an error.
    let no_reason = find(&r, "bad-suppression", "has no reason");
    assert_eq!(no_reason.len(), 1, "{}", r.render_human());
    assert_eq!(no_reason[0].severity, Severity::Error);
    // Unknown lint id.
    let unknown = find(&r, "bad-suppression", "unknown lint");
    assert_eq!(unknown.len(), 1);
    assert!(unknown[0].message.contains("not-a-real-lint"));
    // Unused suppression warns.
    let unused = find(&r, "bad-suppression", "unused edm-allow(direct-thread-spawn)");
    assert_eq!(unused.len(), 1);
    assert_eq!(unused[0].severity, Severity::Warning);
    // The reasoned, used suppression generates nothing at its line.
    assert!(!r
        .findings
        .iter()
        .any(|f| f.lint == "bad-suppression" && f.message.contains("unordered-iteration) names")));
}

#[test]
fn condvar_predicate_loop_catches_bare_waits_only() {
    let r = fixture_report();
    let hits: Vec<_> = r.findings.iter().filter(|f| f.lint == "condvar-predicate-loop").collect();
    // wait_once and wait_timeout_once; the looped wait and the
    // suppressed forwarding wait stay silent.
    assert_eq!(hits.len(), 2, "{}", r.render_human());
    assert!(hits.iter().all(|f| f.file.ends_with("crates/delta/src/lib.rs")));
    assert_eq!(find(&r, "condvar-predicate-loop", ".wait(").len(), 1);
    assert_eq!(find(&r, "condvar-predicate-loop", ".wait_timeout(").len(), 1);
    // The suppression was used — no unused-suppression warning for it.
    assert!(!r
        .findings
        .iter()
        .any(|f| f.message.contains("unused edm-allow(condvar-predicate-loop)")));
}

#[test]
fn lock_across_blocking_flags_the_live_guard_only() {
    let r = fixture_report();
    let hits: Vec<_> = r.findings.iter().filter(|f| f.lint == "lock-across-blocking").collect();
    // locked_write only; unlocked_write dropped the guard first.
    assert_eq!(hits.len(), 1, "{}", r.render_human());
    assert!(hits[0].file.ends_with("crates/delta/src/lib.rs"));
    assert!(hits[0].message.contains("write_all"));
    assert!(hits[0].message.contains("delta/m"));
}

#[test]
fn atomic_ordering_audit_catches_every_rot_mode() {
    let r = fixture_report();
    // Undocumented code site, at the site.
    let undoc = find(&r, "atomic-ordering-audit", "store.SeqCst");
    assert_eq!(undoc.len(), 1, "{}", r.render_human());
    assert!(undoc[0].file.ends_with("crates/delta/src/lib.rs"));
    // Registry rot, all flagged in the registry file.
    assert_eq!(find(&r, "atomic-ordering-audit", "no justification").len(), 1);
    assert_eq!(find(&r, "atomic-ordering-audit", "duplicate entry").len(), 1);
    assert_eq!(find(&r, "atomic-ordering-audit", "stale entry \"fetch_add.Acquire\"").len(), 1);
    assert_eq!(find(&r, "atomic-ordering-audit", "stale section").len(), 1);
    // The justified load.Relaxed site generates nothing.
    assert!(r
        .findings
        .iter()
        .filter(|f| f.lint == "atomic-ordering-audit")
        .all(|f| !f.message.starts_with("atomic load.Relaxed")));
}

#[test]
fn lock_order_graph_reports_the_seeded_cycle() {
    let r = fixture_report();
    let hits: Vec<_> = r.findings.iter().filter(|f| f.lint == "lock-order-graph").collect();
    assert!(!hits.is_empty(), "{}", r.render_human());
    assert!(hits[0].message.contains("delta/a"));
    assert!(hits[0].message.contains("delta/b"));
    assert!(hits[0].file.ends_with("crates/delta/src/lib.rs"));

    // The graph itself: both edges present, cycle listed, JSON sane.
    let ws = driver::load(&fixture_root()).expect("fixture loads");
    let graph = sync_lints::build_lock_graph(&ws);
    assert!(graph.nodes.iter().any(|n| n == "delta/a"));
    assert!(graph.edges.iter().any(|e| e.from == "delta/a" && e.to == "delta/b"));
    assert!(graph.edges.iter().any(|e| e.from == "delta/b" && e.to == "delta/a"));
    assert!(!graph.cycles.is_empty());
    let json = sync_lints::render_lock_graph(&graph);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn env_knob_registry_catches_every_rot_mode() {
    let r = fixture_report();
    // Undocumented read, at the site.
    let undoc = find(&r, "env-knob-registry", "EDM_DELTA_SECRET");
    assert_eq!(undoc.len(), 1, "{}", r.render_human());
    assert!(undoc[0].file.ends_with("crates/delta/src/lib.rs"));
    // Registry rot, flagged in the registry file.
    assert_eq!(find(&r, "env-knob-registry", "\"EDM_DELTA_NODOC\" must carry").len(), 1);
    assert_eq!(find(&r, "env-knob-registry", "duplicate knob").len(), 1);
    assert_eq!(find(&r, "env-knob-registry", "stale knob \"EDM_DELTA_STALE\"").len(), 1);
    // The documented knob's read site generates nothing.
    assert!(find(&r, "env-knob-registry", "\"EDM_DELTA_DOCUMENTED\" is not documented").is_empty());
    // No README in the fixture → the drift check is skipped.
    assert!(!r.findings.iter().any(|f| f.lint == "env-knob-registry" && f.file == "README.md"));
}

#[test]
fn fixture_report_blocks_and_serializes() {
    let r = fixture_report();
    assert!(!r.is_clean());
    let json = r.render_json();
    assert!(json.contains("\"clean\": false"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn real_workspace_is_clean() {
    // CARGO_MANIFEST_DIR = crates/lint → the repo root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = driver::lint_workspace(&root).expect("workspace loads");
    assert!(report.is_clean(), "the real workspace must lint clean:\n{}", report.render_human());
    // And the run actually covered the tree: all lints, many files.
    assert_eq!(report.lints_run.len(), 13);
    assert!(report.files_scanned > 100, "only {} files", report.files_scanned);
}

#[test]
fn real_workspace_lock_graph_is_acyclic_and_nonempty() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = driver::load(&root).expect("workspace loads");
    let graph = sync_lints::build_lock_graph(&ws);
    assert!(
        graph.cycles.is_empty(),
        "the real workspace lock graph must be acyclic: {:?}",
        graph.cycles
    );
    // The migrated DbgMutex sites must be visible to the walker.
    assert!(!graph.nodes.is_empty());
    assert!(
        graph.nodes.iter().any(|n| n.starts_with("edm-par/"))
            && graph.nodes.iter().any(|n| n.starts_with("edm-serve/")),
        "expected pool and serve lock nodes, got {:?}",
        graph.nodes
    );
}
