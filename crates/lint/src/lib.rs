//! `nifdy-lint`: workspace static analysis for the NIFDY reproduction.
//!
//! The repo's headline guarantees — byte-identical parallel runs, sim/wire
//! conformance, trace/stats parity — are enforced dynamically by tests
//! that can silently lose coverage as code drifts. This crate is the
//! static backstop: a dependency-light item-level analyzer (no rustc, no
//! syn) that models every `crates/*/src/**.rs` as symbol tables plus a
//! conservative call graph ([`graph`]) and fails CI on the invariant
//! classes the compiler and clippy cannot see (see [`rules`]):
//!
//! * **R1 panic-freedom** — no `unwrap`/`expect`/`panic!`/`unreachable!`
//!   (and, on byte-facing decode paths, no index expressions) anywhere in
//!   the transitive hot-path closure computed from the protocol entry
//!   points,
//! * **R4 config coverage** — every config field is validated or
//!   builder-settable,
//! * **R5 zero-alloc steady state** — no fresh heap allocation in the
//!   closure of the stepped entry points (`NifdyUnit::step`,
//!   `Fabric::step` and friends),
//! * **R6 bounded capacity** — pushes into fixed-capacity structures are
//!   dominated by a capacity guard in the same fn,
//! * **R9 lock discipline** — no `Mutex` guard held across
//!   `step`/`advance`/`poll_round`; trace locks acquire before registry
//!   locks.
//!
//! Four former rules are enforced by the toolchain instead, and their
//! numbers stay retired:
//!
//! * R2 determinism hygiene → the root `clippy.toml` bans `Instant`,
//!   `SystemTime`, `HashMap` and `HashSet` (`clippy::disallowed_types`);
//! * R3 trace parity → `EventKind::name`, both exporters and the exporter
//!   coverage fixture match every variant with no wildcard, so a new
//!   variant does not compile until each handles it;
//! * R7 epoch hygiene → `nifdy_wire::Epoch`, whose only operations are a
//!   wrapping `next` and a serial-number `is_after`;
//! * R8 no wildcard matches → `clippy::wildcard_enum_match_arm` and
//!   `clippy::match_wildcard_for_single_variants`, denied in the six
//!   protocol crates.
//!
//! R1/R5 scope is *computed*, not enumerated: the engine seeds a closure
//! from entry points and walks every conservatively-reachable function,
//! so new datapaths (future `Nic` implementations included) are covered
//! the moment they become reachable. The closure is exported as a JSON
//! artifact (`--closure-json`) that CI archives and diffs run-over-run.
//!
//! Suppressions live in `lint-allow.toml` ([`allow`]) and must each carry
//! a written justification; entries that stop matching anything are hard
//! errors, so the allowlist cannot rot. Run it as
//! `cargo run -p nifdy-lint` (exit 0 = clean, 1 = violations, 2 = broken
//! allowlist or I/O error); `--json <path>` writes the machine-readable
//! report CI archives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod graph;
pub mod report;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allow::AllowEntry;
use graph::{crate_of, Demands, EntryPoint, Graph};
use rules::{ConfigCoverageScope, Diagnostic};
use source::SourceFile;

/// What to analyze. [`LintConfig::workspace`] builds the real repo
/// configuration; fixture tests build small ad-hoc ones.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Analysis root; all configured paths are relative to it.
    pub root: PathBuf,
    /// Directories walked recursively for `.rs` files.
    pub src_dirs: Vec<String>,
    /// Crate names excluded from the call graph (tooling/harness crates
    /// that never sit on a protocol datapath). Everything else is in, so
    /// new protocol crates are covered by default.
    pub graph_exclude: Vec<String>,
    /// Hot-path closure seeds (R1/R5/R6 scope).
    pub entry_points: Vec<EntryPoint>,
    /// R4 scopes.
    pub config_coverage: Vec<ConfigCoverageScope>,
    /// Crate names R9 lock discipline applies in.
    pub lock_crates: Vec<String>,
    /// `lint-allow.toml` location (`None` = no suppressions).
    pub allowlist: Option<PathBuf>,
}

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
const PANIC_ALLOC: Demands = Demands {
    panic: true,
    index: false,
    alloc: true,
};

fn entry(type_name: Option<&str>, fn_name: &str, demands: Demands) -> EntryPoint {
    EntryPoint {
        type_name: type_name.map(str::to_string),
        fn_name: fn_name.to_string(),
        demands,
    }
}

impl LintConfig {
    /// The NIFDY workspace rule set, rooted at the repo checkout.
    ///
    /// Entry points seed the hot-path closure with per-entry demands:
    ///
    /// * the stepped datapaths — `NifdyUnit` (`step`/`poll`/`try_send`/
    ///   `next_event`/`has_deliverable`) and the fabric per-cycle loop
    ///   (`Fabric::step`) — demand panic- and
    ///   alloc-freedom (flits live in the slab arena, bookkeeping in
    ///   preallocated deques);
    /// * the byte-facing wire surface — the codec free functions and the
    ///   chaos-plane `FaultyTransport` — demands panic- and
    ///   index-freedom (decode must be total over arbitrary bytes);
    /// * the endpoint poll paths (`WireEndpoint`, `SupervisedEndpoint`,
    ///   `Supervisor`) and the node daemon round (`NifdyNode::poll_round`)
    ///   demand panic-freedom.
    ///
    /// The graph covers every crate except the tooling set
    /// (`graph_exclude`), so a future `Nic` implementation is scanned the
    /// moment an entry point reaches it.
    pub fn workspace(root: PathBuf) -> io::Result<LintConfig> {
        let crates_dir = root.join("crates");
        let mut src_dirs = Vec::new();
        let mut names: Vec<String> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().join("src").is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        for name in names {
            src_dirs.push(format!("crates/{name}/src"));
        }
        let allowlist = Some(root.join("lint-allow.toml"));
        Ok(LintConfig {
            root,
            src_dirs,
            graph_exclude: ["analyze", "bench", "harness", "lint", "traffic"]
                .map(String::from)
                .to_vec(),
            entry_points: vec![
                entry(Some("NifdyUnit"), "step", PANIC_ALLOC),
                entry(Some("NifdyUnit"), "poll", PANIC_ALLOC),
                entry(Some("NifdyUnit"), "try_send", PANIC_ALLOC),
                entry(Some("NifdyUnit"), "next_event", PANIC_ALLOC),
                entry(Some("NifdyUnit"), "has_deliverable", PANIC_ALLOC),
                entry(Some("Fabric"), "step", PANIC_ALLOC),
                entry(None, "decode", PANIC_INDEX),
                entry(None, "decode_frame", PANIC_INDEX),
                entry(None, "peek_route", PANIC_INDEX),
                entry(None, "encode", PANIC),
                entry(None, "encode_heartbeat", PANIC),
                entry(Some("FaultyTransport"), "send", PANIC_INDEX),
                entry(Some("FaultyTransport"), "recv", PANIC_INDEX),
                entry(Some("FaultyTransport"), "tick", PANIC_INDEX),
                entry(Some("WireEndpoint"), "step", PANIC),
                entry(Some("WireEndpoint"), "poll", PANIC),
                entry(Some("WireEndpoint"), "try_send", PANIC),
                entry(Some("WireEndpoint"), "next_event", PANIC),
                entry(Some("SupervisedEndpoint"), "step", PANIC),
                entry(Some("SupervisedEndpoint"), "next_event", PANIC),
                entry(Some("Supervisor"), "step", PANIC),
                entry(Some("NifdyNode"), "poll_round", PANIC),
            ],
            config_coverage: vec![
                ConfigCoverageScope {
                    path: "crates/core/src/config.rs".into(),
                    struct_name: "NifdyConfig".into(),
                    validate_fn: "validate".into(),
                },
                ConfigCoverageScope {
                    path: "crates/net/src/fault.rs".into(),
                    struct_name: "FaultConfig".into(),
                    validate_fn: "validate".into(),
                },
                ConfigCoverageScope {
                    path: "crates/wire/src/fault.rs".into(),
                    struct_name: "WireFaultConfig".into(),
                    validate_fn: "validate".into(),
                },
                ConfigCoverageScope {
                    path: "crates/wire/src/supervisor.rs".into(),
                    struct_name: "SupervisorConfig".into(),
                    validate_fn: "validate".into(),
                },
            ],
            lock_crates: ["core", "net", "wire", "node", "sim", "trace", "traffic"]
                .map(String::from)
                .to_vec(),
            allowlist,
        })
    }
}

/// Analyzer output: active violations, suppressed findings (with the entry
/// that covered each), and fatal errors (allowlist schema/staleness, I/O).
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed violations, sorted `(path, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings covered by a justified allowlist entry.
    pub suppressed: Vec<(Diagnostic, AllowEntry)>,
    /// Hard errors; any entry makes the run fail with exit 2.
    pub errors: Vec<String>,
    /// How many files the scan covered.
    pub files_scanned: usize,
    /// The hot-path-closure artifact (JSON), for `--closure-json`.
    pub closure_json: String,
    /// Functions in the closure.
    pub closure_fn_count: usize,
    /// Crates contributing at least one closure fn.
    pub closure_crates: Vec<String>,
}

impl LintReport {
    /// No violations and no errors.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.errors.is_empty()
    }
}

/// Runs every configured rule and applies the allowlist.
pub fn run(config: &LintConfig) -> LintReport {
    let mut report = LintReport::default();
    let mut raw: Vec<Diagnostic> = Vec::new();

    // Discover and model the source set.
    let mut files: Vec<SourceFile> = Vec::new();
    for dir in &config.src_dirs {
        let mut rels = Vec::new();
        collect_rs(&config.root, dir, &mut rels, &mut report.errors);
        rels.sort();
        for rel in rels {
            match SourceFile::load(&config.root, &rel) {
                Ok(f) => files.push(f),
                Err(e) => report.errors.push(format!("cannot read {rel}: {e}")),
            }
        }
    }
    report.files_scanned = files.len();

    // Build the call graph and the hot-path closure (R1/R5/R6 scope). An
    // entry point that matches no symbol means the protocol surface moved
    // under the config — fatal, exactly like the old missing-fn errors.
    let include = |c: &str| !config.graph_exclude.iter().any(|e| e == c);
    let graph = Graph::build(&files, &include, &config.entry_points);
    for missing in &graph.unmatched_entries {
        report.errors.push(format!(
            "entry point `{missing}` matched no function in the call graph; \
             the protocol surface moved — update LintConfig::workspace"
        ));
    }
    report.closure_json = graph.closure_json(&files, &config.entry_points);
    report.closure_fn_count = graph.closure.len();
    report.closure_crates = graph.crates_in_closure.iter().cloned().collect();

    // R1 + R5 over the closure, R6 over the closure's container pushes.
    rules::closure_rules(&files, &graph, &mut raw);
    rules::r6_bounded_capacity(&files, &graph, &mut raw);

    // R4 per configured struct.
    for scope in &config.config_coverage {
        match files.iter().find(|f| f.rel == scope.path) {
            Some(file) => rules::r4_config_coverage(file, scope, &mut raw),
            None => report.errors.push(format!(
                "R4 config file {} not found in scan set",
                scope.path
            )),
        }
    }

    // R9 per lock-scope file.
    for file in &files {
        if crate_of(&file.rel).is_some_and(|c| config.lock_crates.iter().any(|s| s == c)) {
            rules::r9_lock_discipline(file, &mut raw);
        }
    }

    raw.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    raw.dedup();

    // Apply the allowlist: every diagnostic either stays or records which
    // entry covered it; every entry must cover something.
    let entries = match &config.allowlist {
        None => Vec::new(),
        Some(path) => match allow::load(path) {
            Ok(entries) => entries,
            Err(errs) => {
                for e in errs {
                    report.errors.push(e.to_string());
                }
                Vec::new()
            }
        },
    };
    let mut hits = vec![0usize; entries.len()];
    for diag in raw {
        let covering = entries.iter().position(|e| {
            e.rule == diag.rule
                && e.path == diag.path
                && (diag.snippet.contains(&e.pattern)
                    || (diag.line == 0 && diag.message.contains(&e.pattern)))
        });
        match covering {
            Some(idx) => {
                hits[idx] += 1;
                report.suppressed.push((diag, entries[idx].clone()));
            }
            None => report.diagnostics.push(diag),
        }
    }
    for (entry, count) in entries.iter().zip(&hits) {
        if *count == 0 {
            report.errors.push(format!(
                "lint-allow.toml:{}: stale entry (rule {}, path {}, pattern {:?}) \
                 suppresses nothing — delete it",
                entry.line, entry.rule, entry.path, entry.pattern
            ));
        }
    }
    report
}

/// Recursively collects `.rs` files under `root/dir` as root-relative,
/// `/`-separated paths.
fn collect_rs(root: &Path, dir: &str, out: &mut Vec<String>, errors: &mut Vec<String>) {
    let abs = root.join(dir);
    let entries = match fs::read_dir(&abs) {
        Ok(e) => e,
        Err(e) => {
            errors.push(format!("cannot scan {dir}: {e}"));
            return;
        }
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let rel = format!("{dir}/{name}");
        let path = entry.path();
        if path.is_dir() {
            collect_rs(root, &rel, out, errors);
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn workspace_config_lists_every_crate_src() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cfg = LintConfig::workspace(root).unwrap();
        assert!(cfg.src_dirs.contains(&"crates/core/src".to_string()));
        assert!(cfg.src_dirs.contains(&"crates/lint/src".to_string()));
        assert_eq!(cfg.config_coverage.len(), 4);
    }

    #[test]
    fn workspace_config_has_no_enumerated_fn_scopes() {
        // The closure replaces the old hand-listed file+fn scopes: the only
        // names in the config are entry points (type + fn), and the graph
        // exclusion is by crate, not by file.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cfg = LintConfig::workspace(root).unwrap();
        assert!(cfg.entry_points.len() >= 20);
        assert!(cfg
            .entry_points
            .iter()
            .any(|e| e.type_name.as_deref() == Some("NifdyUnit") && e.fn_name == "step"));
        assert!(cfg
            .entry_points
            .iter()
            .any(|e| e.type_name.is_none() && e.fn_name == "decode"));
        assert!(cfg.graph_exclude.contains(&"lint".to_string()));
        assert!(!cfg.graph_exclude.contains(&"core".to_string()));
    }

    #[test]
    fn graph_exclusion_keeps_protocol_crates_in() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cfg = LintConfig::workspace(root).unwrap();
        let covered: BTreeSet<&str> = ["core", "net", "wire", "node", "sim", "trace"]
            .into_iter()
            .collect();
        for c in &covered {
            assert!(
                !cfg.graph_exclude.iter().any(|e| e == c),
                "protocol crate {c} must stay in the graph"
            );
        }
    }
}
