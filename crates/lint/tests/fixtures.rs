//! Fixture-driven rule tests: each rule (R1, R4–R6, R9) is demonstrated
//! by a small fake workspace under `tests/fixtures/` that must FAIL the
//! pass, the call-graph builder is checked against a golden closure over a fixture
//! crate pair (trait dispatch, method shadowing, cross-crate calls), the
//! allowlist machinery is exercised against schema-broken / stale / valid
//! suppression files, and a final self-test asserts the live NIFDY
//! workspace itself is clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use nifdy_lint::graph::{crate_of, Demands, EntryPoint, Graph};
use nifdy_lint::rules::ConfigCoverageScope;
use nifdy_lint::source::SourceFile;
use nifdy_lint::{run, LintConfig, LintReport};

const PANIC: Demands = Demands {
    panic: true,
    index: false,
    alloc: false,
};
const PANIC_INDEX: Demands = Demands {
    panic: true,
    index: true,
    alloc: false,
};
const ALLOC_ONLY: Demands = Demands {
    panic: false,
    index: false,
    alloc: true,
};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn entry(type_name: Option<&str>, fn_name: &str, demands: Demands) -> EntryPoint {
    EntryPoint {
        type_name: type_name.map(str::to_string),
        fn_name: fn_name.to_string(),
        demands,
    }
}

/// A config with every rule disabled, rooted at a fixture tree.
fn base_config(fixture: &str) -> LintConfig {
    LintConfig {
        root: fixture_root(fixture),
        src_dirs: vec!["crates/app/src".to_string()],
        graph_exclude: Vec::new(),
        entry_points: Vec::new(),
        config_coverage: Vec::new(),
        lock_crates: Vec::new(),
        allowlist: None,
    }
}

fn rules_fired(report: &LintReport, rule: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn r1_fixture_fails_on_panics_and_indexing() {
    let mut config = base_config("r1");
    config.entry_points = vec![
        entry(None, "decode", PANIC_INDEX),
        entry(None, "step", PANIC),
    ];
    let report = run(&config);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // bytes[0] indexing + .unwrap() + panic! — and nothing else: the
    // unwraps in `cold()` (unreachable from the entries) and in the test
    // module are out of scope.
    assert_eq!(rules_fired(&report, "R1"), 3, "{:#?}", report.diagnostics);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("index expression")));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.snippet.contains("panic!")));
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.snippet.contains("Some(1u8)")));
}

#[test]
fn r4_fixture_fails_on_the_orphan_field() {
    let mut config = base_config("r4");
    config.config_coverage = vec![ConfigCoverageScope {
        path: "crates/app/src/config.rs".to_string(),
        struct_name: "AppConfig".to_string(),
        validate_fn: "validate".to_string(),
    }];
    let report = run(&config);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(rules_fired(&report, "R4"), 1, "{:#?}", report.diagnostics);
    assert!(report.diagnostics[0].message.contains("`orphan_knob`"));
}

#[test]
fn r5_fixture_fails_on_hot_path_allocations() {
    let mut config = base_config("r5");
    config.entry_points = vec![entry(None, "step", ALLOC_ONLY)];
    let report = run(&config);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // Box::new + vec![ + .collect() — the setup() Vec::with_capacity
    // (unreachable from the entry) and the test-module collect are out
    // of scope.
    assert_eq!(rules_fired(&report, "R5"), 3, "{:#?}", report.diagnostics);
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.snippet.contains("with_capacity")));
}

#[test]
fn r6_fixture_fails_on_the_unguarded_push() {
    let mut config = base_config("r6");
    config.entry_points = vec![
        entry(Some("Ring"), "step", PANIC),
        entry(Some("Ring"), "guarded", PANIC),
    ];
    let report = run(&config);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // `step` pushes into the with_capacity-initialized `buf` with no
    // capacity check in the same fn; `guarded` carries a `len() <` guard
    // and must stay clean.
    assert_eq!(rules_fired(&report, "R6"), 1, "{:#?}", report.diagnostics);
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R6")
        .expect("R6 diagnostic");
    assert!(diag.message.contains("`buf`"), "{}", diag.message);
    assert!(diag.message.contains("Ring::step"), "{}", diag.message);
    assert!(diag.snippet.contains("push_back"), "{}", diag.snippet);
}

#[test]
fn r9_fixture_fails_on_held_guard_and_lock_order() {
    let mut config = base_config("r9");
    config.lock_crates = vec!["app".to_string()];
    let report = run(&config);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // `drive` holds the stats guard across engine.step(); `inverted`
    // takes the registry lock before the trace lock; `clean` drops its
    // guard in an inner block before stepping and must stay clean.
    assert_eq!(rules_fired(&report, "R9"), 2, "{:#?}", report.diagnostics);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("held") && d.message.contains("`drive`")));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("lock-order inversion") && d.message.contains("`inverted`")));
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("`clean`")));
}

/// Loads the two-crate call-graph fixture.
fn graph_fixture_files() -> Vec<SourceFile> {
    let root = fixture_root("graph");
    ["crates/alpha/src/lib.rs", "crates/beta/src/lib.rs"]
        .iter()
        .map(|rel| SourceFile::load(&root, rel).expect("fixture file loads"))
        .collect()
}

#[test]
fn call_graph_closure_matches_the_golden_set() {
    let files = graph_fixture_files();
    let include = |_: &str| true;
    let entries = vec![entry(Some("Unit"), "step", PANIC)];
    let graph = Graph::build(&files, &include, &entries);
    assert!(
        graph.unmatched_entries.is_empty(),
        "{:?}",
        graph.unmatched_entries
    );

    let labels: BTreeSet<String> = graph
        .closure
        .iter()
        .map(|c| graph.symbol_label(c.symbol))
        .collect();
    // The golden closure: the entry, both trait impls behind the dyn
    // receiver call, the precise self-call target, the shadowed `finish`
    // in crate beta (conservative receiver-call resolution), and the
    // cross-crate free-call chain.
    let golden: BTreeSet<String> = [
        "Unit::step",     // entry
        "poll",           // the bodiless `trait Nic` signature symbol
        "FastNic::poll",  // nic.poll() — trait dispatch, impl 1
        "SlowNic::poll",  // nic.poll() — trait dispatch, impl 2
        "Unit::finish",   // self.finish() — resolved via the impl type
        "Ledger::finish", // ledger.finish() — name-shadowed method in beta
        "shared",         // beta::shared() — module path dropped
        "fast_inner",     // FastNic::poll body
        "lane_of",        // shared() body
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(labels, golden, "closure diverged from the golden set");

    // Callers of the entry and unrelated fns stay out: the closure is
    // callee-directed.
    assert!(!labels.contains("outside"));
    assert!(!labels.contains("unreached"));

    // Both fixture crates contribute, and demands propagate unchanged
    // across the crate boundary.
    let crates: BTreeSet<&str> = graph.crates_in_closure.iter().map(String::as_str).collect();
    assert_eq!(crates, ["alpha", "beta"].into_iter().collect());
    for member in &graph.closure {
        assert_eq!(
            member.demands,
            PANIC,
            "{}",
            graph.symbol_label(member.symbol)
        );
    }
    let entry_member = graph
        .closure
        .iter()
        .find(|c| graph.symbol_label(c.symbol) == "Unit::step")
        .expect("entry in closure");
    assert_eq!(entry_member.depth, 0);
    assert!(entry_member.via.is_none());
}

#[test]
fn call_graph_reports_unmatched_entries_and_respects_exclusion() {
    let files = graph_fixture_files();
    let include = |_: &str| true;
    let entries = vec![entry(Some("Ghost"), "step", PANIC)];
    let graph = Graph::build(&files, &include, &entries);
    assert_eq!(graph.unmatched_entries, vec!["Ghost::step".to_string()]);
    assert!(graph.closure.is_empty());

    // Excluding crate beta drops its symbols: the cross-crate callees
    // disappear from the closure while the alpha side is unaffected.
    let include_alpha = |c: &str| c == "alpha";
    let entries = vec![entry(Some("Unit"), "step", PANIC)];
    let graph = Graph::build(&files, &include_alpha, &entries);
    let labels: BTreeSet<String> = graph
        .closure
        .iter()
        .map(|c| graph.symbol_label(c.symbol))
        .collect();
    assert!(labels.contains("Unit::step"));
    assert!(!labels.contains("Ledger::finish"));
    assert!(!labels.contains("shared"));
    assert_eq!(crate_of("crates/beta/src/lib.rs"), Some("beta"));
}

#[test]
fn schema_broken_allowlist_is_a_hard_error() {
    let mut config = base_config("r1");
    config.allowlist = Some(fixture_root("allow").join("bad.toml"));
    let report = run(&config);
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("unknown rule `R12`")),
        "{:?}",
        report.errors
    );
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("unknown key `severity`")),
        "{:?}",
        report.errors
    );
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("missing required key `pattern`")),
        "{:?}",
        report.errors
    );
    assert!(!report.is_clean());
}

#[test]
fn stale_allowlist_entry_is_a_hard_error() {
    let mut config = base_config("r1");
    config.entry_points = vec![entry(None, "step", PANIC)];
    config.allowlist = Some(fixture_root("allow").join("stale.toml"));
    let report = run(&config);
    assert!(
        report.errors.iter().any(|e| e.contains("stale entry")),
        "{:?}",
        report.errors
    );
    assert!(!report.is_clean());
}

#[test]
fn justified_entry_suppresses_exactly_its_diagnostic() {
    let mut config = base_config("r1");
    config.entry_points = vec![
        entry(None, "decode", PANIC_INDEX),
        entry(None, "step", PANIC),
    ];
    config.allowlist = Some(fixture_root("allow").join("covers-r1.toml"));
    let report = run(&config);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.suppressed.len(), 1, "{:#?}", report.suppressed);
    assert!(report.suppressed[0].0.snippet.contains(".unwrap()"));
    // The indexing and panic! diagnostics are NOT covered and stay active.
    assert_eq!(rules_fired(&report, "R1"), 2, "{:#?}", report.diagnostics);
}

#[test]
fn unmatched_entry_point_is_a_hard_error() {
    let mut config = base_config("r1");
    config.entry_points = vec![entry(Some("Ghost"), "poll_round", PANIC)];
    let report = run(&config);
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("`Ghost::poll_round` matched no function")),
        "{:?}",
        report.errors
    );
    assert!(!report.is_clean());
}

/// The tentpole acceptance check: the live workspace passes its own lint
/// with zero violations and zero errors, and the computed closure spans
/// the protocol crates.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let config = LintConfig::workspace(root).expect("workspace enumerates");
    let report = run(&config);
    assert!(
        report.is_clean(),
        "live workspace must lint clean:\n{}",
        nifdy_lint::report::human(&report)
    );
    assert!(report.files_scanned > 20, "scan set unexpectedly small");
    // The acceptance floor from the issue: ≥30 closure fns over ≥4 crates.
    assert!(
        report.closure_fn_count >= 30,
        "closure too small: {}",
        report.closure_fn_count
    );
    assert!(
        report.closure_crates.len() >= 4,
        "closure crates: {:?}",
        report.closure_crates
    );
    assert!(!report.closure_json.is_empty());
}
