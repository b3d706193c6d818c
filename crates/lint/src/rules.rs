//! The workspace rules. Each rule consumes the [`SourceFile`] model (and,
//! for the closure rules, the computed [`Graph`]) and appends
//! [`Diagnostic`]s; suppression against `lint-allow.toml` happens later in
//! the engine so every rule stays allowlist-agnostic.
//!
//! | Rule | Property |
//! |------|----------|
//! | R1   | panic-freedom in the hot-path closure (index-freedom where demanded) |
//! | R4   | config coverage (every config field validated or builder-settable) |
//! | R5   | zero-alloc steady state in the alloc-demanding closure |
//! | R6   | bounded capacity (pushes into fixed-capacity structures guarded in the same fn) |
//! | R9   | lock discipline (no guard held across `step`/`advance`/`poll_round`; trace-before-registry order) |
//!
//! The numbers R2, R3, R7 and R8 are retired: the compiler and clippy
//! enforce those invariants now (see the crate docs).
//!
//! R1 and R5 scope themselves from the transitive hot-path closure
//! ([`crate::graph`]) rather than enumerated file/function lists; a
//! function is scanned iff it is reachable from a protocol entry point
//! whose demands include the relevant ban.

use crate::graph::Graph;
use crate::source::{contains_word, SourceFile};

/// One finding, addressed `path:line`, before allowlist filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id: `"R1"`, `"R4"`, `"R5"`, `"R6"` or `"R9"`.
    pub rule: &'static str,
    /// File path relative to the analysis root.
    pub path: String,
    /// 1-based line (0 when the finding is about a whole file).
    pub line: usize,
    /// What is wrong and what the fix direction is.
    pub message: String,
    /// The offending source line, trimmed (empty for file-level findings).
    pub snippet: String,
}

impl Diagnostic {
    fn at(rule: &'static str, file: &SourceFile, line: usize, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: file.rel.clone(),
            line,
            message,
            snippet: file
                .raw
                .get(line.wrapping_sub(1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        }
    }
}

/// Tokens whose presence on a hot-path line is a panic risk.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// R1 + R5 over the hot-path closure: every function reachable from a
/// protocol entry point is scanned under the demands that reached it —
/// panic tokens (R1), index expressions (R1, byte-facing paths), and
/// allocating constructs (R5).
pub fn closure_rules(files: &[SourceFile], graph: &Graph, out: &mut Vec<Diagnostic>) {
    for member in &graph.closure {
        let sym = &graph.symbols[member.symbol];
        let file = &files[sym.file];
        let span = &file.fns[sym.fn_idx];
        let reached = match member.via {
            Some(v) => format!("reached via `{}`", graph.symbol_label(v)),
            None => "a protocol entry point".to_string(),
        };
        for line_no in span.start..=span.end.min(file.code.len()) {
            if file.is_test_line(line_no) {
                continue;
            }
            // Lines of a nested fn belong to the nested closure member.
            if file
                .innermost_fn(line_no)
                .is_some_and(|inner| (inner.start, inner.end) != (span.start, span.end))
            {
                continue;
            }
            let line = &file.code[line_no - 1];
            if member.demands.panic {
                for token in PANIC_TOKENS {
                    if line.contains(token) {
                        out.push(Diagnostic::at(
                            "R1",
                            file,
                            line_no,
                            format!(
                                "`{token}` in `{}` ({reached}); use a typed error or \
                                 `debug_assert!` + graceful recovery",
                                graph.symbol_label(member.symbol)
                            ),
                        ));
                    }
                }
            }
            if member.demands.index {
                for at in index_expr_positions(line) {
                    out.push(Diagnostic::at(
                        "R1",
                        file,
                        line_no,
                        format!(
                            "index expression at column {} in `{}` ({reached}), a total \
                             decode path; use `get`/checked accessors that return a \
                             typed error",
                            at + 1,
                            graph.symbol_label(member.symbol)
                        ),
                    ));
                }
            }
            if member.demands.alloc {
                for token in ALLOC_TOKENS {
                    if line.contains(token) {
                        out.push(Diagnostic::at(
                            "R5",
                            file,
                            line_no,
                            format!(
                                "allocating construct `{token}` in `{}` ({reached}), a \
                                 zero-alloc stepped hot path; reuse a preallocated \
                                 buffer or slab arena, or move the allocation to \
                                 setup/teardown",
                                graph.symbol_label(member.symbol)
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Byte offsets of `[` tokens that open an index expression: a `[`
/// immediately preceded by an identifier character, `)`, or `]`.
fn index_expr_positions(line: &str) -> Vec<usize> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' || i == 0 {
            continue;
        }
        let p = b[i - 1];
        if p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']' {
            out.push(i);
        }
    }
    out
}

/// Tokens whose presence on a hot-path line constructs a fresh heap
/// allocation (or a growable container destined to reallocate) per call.
/// Pushes into long-lived, high-water-mark containers are deliberately
/// *not* banned — those amortize to zero; what R5 hunts is per-event
/// churn: fresh boxes, fresh vectors, formatting, and `collect`.
const ALLOC_TOKENS: [&str; 18] = [
    "Box::new(",
    "Rc::new(",
    "Arc::new(",
    "vec![",
    "Vec::new(",
    "Vec::with_capacity(",
    "VecDeque::new(",
    "VecDeque::with_capacity(",
    "BTreeMap::new(",
    "BTreeSet::new(",
    "String::new(",
    "String::from(",
    "format!(",
    ".to_vec()",
    ".to_string()",
    ".to_owned()",
    ".collect()",
    ".collect::<",
];

/// 1-based lines covered by functions with the given name.
fn fn_lines(file: &SourceFile, name: &str) -> Vec<usize> {
    let mut lines = Vec::new();
    for span in file.fns_named(name) {
        lines.extend(span.start..=span.end.min(file.code.len()));
    }
    lines
}

/// R4 scope: one config struct and its validation function.
#[derive(Debug, Clone)]
pub struct ConfigCoverageScope {
    /// File declaring the struct.
    pub path: String,
    /// Struct whose public fields are checked.
    pub struct_name: String,
    /// The validation function name (all same-named spans in the file
    /// count, so `impl` duplication is fine).
    pub validate_fn: String,
}

/// R4 — config coverage: every public field is either constrained by
/// `validate()` or reachable through a builder setter (`with_<field>` or a
/// builder method named after the field). Orphan fields silently drift.
pub fn r4_config_coverage(
    file: &SourceFile,
    scope: &ConfigCoverageScope,
    out: &mut Vec<Diagnostic>,
) {
    let Some(fields) = file.struct_fields(&scope.struct_name) else {
        out.push(Diagnostic {
            rule: "R4",
            path: file.rel.clone(),
            line: 0,
            message: format!("struct `{}` not found", scope.struct_name),
            snippet: String::new(),
        });
        return;
    };
    let validate_lines = fn_lines(file, &scope.validate_fn);
    if validate_lines.is_empty() {
        out.push(Diagnostic {
            rule: "R4",
            path: file.rel.clone(),
            line: 0,
            message: format!(
                "validation fn `{}` not found for `{}`",
                scope.validate_fn, scope.struct_name
            ),
            snippet: String::new(),
        });
        return;
    }
    for (field, line) in fields {
        let validated = validate_lines
            .iter()
            .any(|&l| contains_word(&file.code[l - 1], &field));
        let has_setter = file.fns_named(&format!("with_{field}")).next().is_some()
            || file.fns_named(&field).next().is_some();
        if !validated && !has_setter {
            out.push(Diagnostic::at(
                "R4",
                file,
                line,
                format!(
                    "field `{field}` of `{}` is neither referenced by `{}` nor \
                     settable via a builder method; wire it into validation or \
                     add `with_{field}`",
                    scope.struct_name, scope.validate_fn
                ),
            ));
        }
    }
}

/// Mutating calls that grow a container.
const GROW_TOKENS: [&str; 4] = [".push(", ".push_back(", ".push_front(", ".insert("];

/// Evidence on a line that a push is capacity-guarded: an explicit bound
/// check, an eviction keeping the high-water mark, or a debug assertion.
const GUARD_TOKENS: [&str; 9] = [
    ".len()",
    ".capacity()",
    "is_full",
    ".pop(",
    ".pop_front(",
    ".pop_back(",
    ".truncate(",
    ".swap_remove(",
    "debug_assert",
];

/// R6 — bounded capacity: inside the hot-path closure, every push/insert
/// into a fixed-capacity structure (a field initialized or assigned with
/// `with_capacity`) must share its fn with a capacity guard that mentions
/// the same field.
pub fn r6_bounded_capacity(files: &[SourceFile], graph: &Graph, out: &mut Vec<Diagnostic>) {
    // Fixed-capacity fields per file: `name: Ty::with_capacity(…)` struct
    // literal inits and `self.name = Ty::with_capacity(…)` assignments.
    let mut fixed: Vec<Vec<String>> = Vec::with_capacity(files.len());
    for file in files {
        let mut fields: Vec<String> = Vec::new();
        for (idx, line) in file.code.iter().enumerate() {
            if file.is_test_line(idx + 1) || !line.contains("with_capacity(") {
                continue;
            }
            let trimmed = line.trim_start();
            let name = if let Some(rest) = trimmed.strip_prefix("self.") {
                let ident: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                rest[ident.len()..]
                    .trim_start()
                    .starts_with('=')
                    .then_some(ident)
            } else {
                let ident: String = trimmed
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                trimmed[ident.len()..].starts_with(':').then_some(ident)
            };
            if let Some(name) = name {
                if !name.is_empty() && !fields.contains(&name) {
                    fields.push(name);
                }
            }
        }
        fixed.push(fields);
    }

    for member in &graph.closure {
        let sym = &graph.symbols[member.symbol];
        let file = &files[sym.file];
        let span = &file.fns[sym.fn_idx];
        let fields = &fixed[sym.file];
        if fields.is_empty() {
            continue;
        }
        for line_no in span.start..=span.end.min(file.code.len()) {
            if file.is_test_line(line_no) {
                continue;
            }
            if file
                .innermost_fn(line_no)
                .is_some_and(|inner| (inner.start, inner.end) != (span.start, span.end))
            {
                continue;
            }
            let line = &file.code[line_no - 1];
            for field in fields {
                let grows = GROW_TOKENS
                    .iter()
                    .any(|t| line.contains(&format!("{field}{t}")));
                if !grows {
                    continue;
                }
                let guarded = (span.start..=span.end.min(file.code.len())).any(|l| {
                    let guard_line = &file.code[l - 1];
                    contains_word(guard_line, field)
                        && GUARD_TOKENS.iter().any(|g| guard_line.contains(g))
                });
                if !guarded {
                    out.push(Diagnostic::at(
                        "R6",
                        file,
                        line_no,
                        format!(
                            "unguarded growth of fixed-capacity field `{field}` in \
                             `{}`; dominate the push with a capacity check \
                             (`len() < cap`, eviction, or `debug_assert!`) in the \
                             same fn",
                            graph.symbol_label(member.symbol)
                        ),
                    ));
                }
            }
        }
    }
}

/// Calls that step protocol state machines; holding a `Mutex` guard
/// across one risks deadlock (step paths may take the same locks) and
/// couples lock hold time to protocol work.
const STEPPED_CALLS: [&str; 3] = [".step(", ".advance(", ".poll_round("];

/// R9 — lock discipline in the `Send` stack.
///
/// * no `Mutex` guard bound with `let` may stay live across a
///   `step`/`advance`/`poll_round` call;
/// * within one fn, trace/recorder locks acquire before registry/metrics
///   locks (the workspace's canonical order), so the two families can
///   never deadlock against each other.
pub fn r9_lock_discipline(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for span in &file.fns {
        if span.end <= span.start || file.is_test_line(span.start) {
            continue;
        }
        // Live guards: (binding, bound-at depth, bound-at line).
        let mut guards: Vec<(String, usize, usize)> = Vec::new();
        let mut first_trace: Option<usize> = None;
        let mut first_registry: Option<usize> = None;
        for line_no in span.start..=span.end.min(file.code.len()) {
            let line = &file.code[line_no - 1];
            let depth = file.depths[line_no - 1];
            guards.retain(|(name, bound_depth, _)| {
                depth >= *bound_depth && !line.contains(&format!("drop({name})"))
            });
            if line.contains(".lock()") {
                let receiver = lock_receiver(line);
                let class = lock_class(&receiver);
                match class {
                    Some(LockClass::Trace) => {
                        first_trace.get_or_insert(line_no);
                        if first_registry.is_some() && first_trace > first_registry {
                            out.push(Diagnostic::at(
                                "R9",
                                file,
                                line_no,
                                format!(
                                    "lock-order inversion in `{}`: registry/metrics \
                                     lock taken before this trace/recorder lock; the \
                                     canonical order is trace first",
                                    span.name
                                ),
                            ));
                        }
                    }
                    Some(LockClass::Registry) => {
                        first_registry.get_or_insert(line_no);
                    }
                    None => {}
                }
                let trimmed = line.trim_start();
                if let Some(rest) = trimmed.strip_prefix("let ") {
                    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() && name != "_" {
                        guards.push((name, depth, line_no));
                    }
                }
            }
            for call in STEPPED_CALLS {
                if line.contains(call) && !line.contains(".lock()") {
                    if let Some((name, _, bound_at)) = guards.first() {
                        out.push(Diagnostic::at(
                            "R9",
                            file,
                            line_no,
                            format!(
                                "Mutex guard `{name}` (bound line {bound_at}) held \
                                 across `{}` in `{}`; drop the guard before stepping",
                                call.trim_start_matches('.').trim_end_matches('('),
                                span.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}

enum LockClass {
    Trace,
    Registry,
}

/// The dotted receiver chain before `.lock()` on a line.
fn lock_receiver(line: &str) -> String {
    let Some(pos) = line.find(".lock()") else {
        return String::new();
    };
    let b = line.as_bytes();
    let mut start = pos;
    while start > 0 {
        let p = b[start - 1];
        if p.is_ascii_alphanumeric() || p == b'_' || p == b'.' {
            start -= 1;
        } else {
            break;
        }
    }
    line[start..pos].to_string()
}

fn lock_class(receiver: &str) -> Option<LockClass> {
    let lower = receiver.to_lowercase();
    if lower.contains("trace") || lower.contains("rec") {
        Some(LockClass::Trace)
    } else if lower.contains("registry") || lower.contains("metric") {
        Some(LockClass::Registry)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Demands, EntryPoint};

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", src)
    }

    fn entry(name: &str, demands: Demands) -> EntryPoint {
        EntryPoint {
            type_name: None,
            fn_name: name.to_string(),
            demands,
        }
    }

    const PANIC_ONLY: Demands = Demands {
        panic: true,
        index: false,
        alloc: false,
    };
    const ALLOC_ONLY: Demands = Demands {
        panic: false,
        index: false,
        alloc: true,
    };

    #[test]
    fn r1_flags_tokens_in_closure_and_skips_tests() {
        let f = file(
            "fn hot() {\n    a.unwrap();\n    b.expect(\"x\");\n    helper();\n}\n\
             fn helper() { panic!(); }\n\
             fn cold() { z.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { z.unwrap(); }\n}\n",
        );
        let files = [f];
        let graph = Graph::build(&files, &|_| true, &[entry("hot", PANIC_ONLY)]);
        let mut out = Vec::new();
        closure_rules(&files, &graph, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "R1"));
        assert!(
            out.iter().any(|d| d.message.contains("`helper`")),
            "transitive callee scanned: {out:?}"
        );
        assert!(!out.iter().any(|d| d.snippet.contains("z.unwrap")));
    }

    #[test]
    fn r1_index_demand_is_per_entry() {
        let f = file("fn total(b: &[u8]) -> u8 { b[0] }\nfn stepped(b: &[u8]) -> u8 { b[1] }\n");
        let files = [f];
        let graph = Graph::build(
            &files,
            &|_| true,
            &[
                entry(
                    "total",
                    Demands {
                        panic: true,
                        index: true,
                        alloc: false,
                    },
                ),
                entry("stepped", PANIC_ONLY),
            ],
        );
        let mut out = Vec::new();
        closure_rules(&files, &graph, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn unmatched_entry_is_reported_by_the_graph() {
        let f = file("fn present() {}\n");
        let files = [f];
        let graph = Graph::build(&files, &|_| true, &[entry("gone", PANIC_ONLY)]);
        assert_eq!(graph.unmatched_entries, vec!["gone".to_string()]);
    }

    #[test]
    fn r5_flags_allocs_in_alloc_demanding_closure_only() {
        let f = file(
            "fn setup() -> Vec<u8> { Vec::with_capacity(8) }\n\
             fn hot(&mut self) {\n    let b = Box::new(3);\n    let v = vec![1, 2];\n\
             \n    self.ring.push_back(x);\n}\n",
        );
        let files = [f];
        let graph = Graph::build(&files, &|_| true, &[entry("hot", ALLOC_ONLY)]);
        let mut out = Vec::new();
        closure_rules(&files, &graph, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "R5"));
        assert!(out.iter().any(|d| d.message.contains("`Box::new(`")));
        assert!(out.iter().any(|d| d.message.contains("`vec![`")));
    }

    #[test]
    fn r6_unguarded_push_to_fixed_capacity_field() {
        let f = file(
            "struct S { ring: VecDeque<u8> }\n\
             impl S {\n\
                 fn new() -> S {\n\
                     S {\n            ring: VecDeque::with_capacity(8),\n        }\n\
                 }\n\
                 fn hot(&mut self, x: u8) {\n        self.ring.push_back(x);\n    }\n\
                 fn guarded(&mut self, x: u8) {\n\
                     if self.ring.len() < 8 {\n            self.ring.push_back(x);\n        }\n\
                 }\n\
             }\n",
        );
        let files = [f];
        let graph = Graph::build(
            &files,
            &|_| true,
            &[
                EntryPoint {
                    type_name: Some("S".into()),
                    fn_name: "hot".into(),
                    demands: PANIC_ONLY,
                },
                EntryPoint {
                    type_name: Some("S".into()),
                    fn_name: "guarded".into(),
                    demands: PANIC_ONLY,
                },
            ],
        );
        let mut out = Vec::new();
        r6_bounded_capacity(&files, &graph, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "R6");
        assert!(out[0].message.contains("`ring`"));
        assert!(out[0].message.contains("`S::hot`"));
    }

    #[test]
    fn r9_guard_across_step_and_lock_order() {
        let f = file(
            "fn pump(&mut self) {\n\
                 let stats = self.registry.lock().unwrap();\n\
                 self.fabric.step();\n\
             }\n\
             fn inverted(&mut self) {\n\
                 {\n\
                     let m = self.metric_registry.lock().unwrap();\n\
                 }\n\
                 let t = self.trace_handle.lock().unwrap();\n\
             }\n\
             fn clean(&mut self) {\n\
                 {\n\
                     let g = self.registry.lock().unwrap();\n\
                 }\n\
                 self.fabric.step();\n\
             }\n",
        );
        let mut out = Vec::new();
        r9_lock_discipline(&f, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("`stats`"));
        assert!(out[0].message.contains("held"));
        assert!(out[1].message.contains("lock-order inversion"));
    }

    #[test]
    fn r9_dropped_guard_is_fine() {
        let f = file(
            "fn pump(&mut self) {\n\
                 let stats = self.registry.lock().unwrap();\n\
                 drop(stats);\n\
                 self.fabric.step();\n\
             }\n",
        );
        let mut out = Vec::new();
        r9_lock_discipline(&f, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn r4_flags_orphan_fields() {
        let f = file(
            "pub struct Cfg {\n    pub checked: u8,\n    pub set: u8,\n    pub orphan: u8,\n}\n\
             impl Cfg {\n    pub fn with_set(mut self, v: u8) -> Self { self.set = v; self }\n\
             \n    pub fn validate(&self) { assert!(self.checked > 0); }\n}\n",
        );
        let scope = ConfigCoverageScope {
            path: f.rel.clone(),
            struct_name: "Cfg".into(),
            validate_fn: "validate".into(),
        };
        let mut out = Vec::new();
        r4_config_coverage(&f, &scope, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`orphan`"));
    }
}
