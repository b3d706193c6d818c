//! The nine workspace rules. Each rule consumes the [`SourceFile`] model
//! (and, for the closure rules, the computed [`Graph`]) and appends
//! [`Diagnostic`]s; suppression against `lint-allow.toml` happens later in
//! the engine so every rule stays allowlist-agnostic.
//!
//! | Rule | Property |
//! |------|----------|
//! | R1   | panic-freedom in the hot-path closure (index-freedom where demanded) |
//! | R2   | determinism hygiene (no wall clock, no ambient RNG, no hash-ordered containers in deterministic crates) |
//! | R3   | trace parity (every `EventKind` variant exported and fixture-covered) |
//! | R4   | config coverage (every config field validated or builder-settable) |
//! | R5   | zero-alloc steady state in the alloc-demanding closure |
//! | R6   | bounded capacity (pushes into fixed-capacity structures guarded in the same fn) |
//! | R7   | sequence/epoch arithmetic hygiene (`wrapping_*`/`%` only on wire-seq fields) |
//! | R8   | no wildcard `_` arms in protocol-enum matches |
//! | R9   | lock discipline (no guard held across `step`/`advance`/`poll_round`; trace-before-registry order) |
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
    /// Rule id: `"R1"`..`"R4"`.
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

/// R2 scope.
#[derive(Debug, Clone)]
pub struct DeterminismScope {
    /// Path prefixes (e.g. `crates/core/`) where hash-ordered containers
    /// are forbidden; seeded RNG and wall-clock bans apply to every
    /// scanned file.
    pub hash_dir_prefixes: Vec<String>,
}

/// R2 — determinism hygiene.
pub fn r2_determinism(file: &SourceFile, scope: &DeterminismScope, out: &mut Vec<Diagnostic>) {
    let hash_banned = scope
        .hash_dir_prefixes
        .iter()
        .any(|p| file.rel.starts_with(p.as_str()));
    for (idx, line) in file.code.iter().enumerate() {
        let line_no = idx + 1;
        if file.is_test_line(line_no) {
            continue;
        }
        for clock in ["Instant", "SystemTime"] {
            if contains_word(line, clock) {
                out.push(Diagnostic::at(
                    "R2",
                    file,
                    line_no,
                    format!(
                        "wall-clock type `{clock}` in the deterministic stack; use \
                         `Cycle` time, or add a justified allowlist entry for \
                         harness timing / transport deadlines"
                    ),
                ));
            }
        }
        for rng in ["thread_rng", "rand::random"] {
            if line.contains(rng) {
                out.push(Diagnostic::at(
                    "R2",
                    file,
                    line_no,
                    format!("ambient RNG `{rng}`; use the seeded `nifdy-sim` streams"),
                ));
            }
        }
        if hash_banned {
            for map in ["HashMap", "HashSet"] {
                if contains_word(line, map) {
                    out.push(Diagnostic::at(
                        "R2",
                        file,
                        line_no,
                        format!(
                            "default-hasher `{map}` in a deterministic crate; use \
                             `BTreeMap`/`BTreeSet` (or sorted iteration) so order \
                             never depends on the hasher"
                        ),
                    ));
                }
            }
        }
    }
}

/// R3 scope: the event vocabulary and its exporters/fixtures.
#[derive(Debug, Clone)]
pub struct TraceParityScope {
    /// File declaring the event enum.
    pub event_file: String,
    /// The enum name (e.g. `EventKind`).
    pub enum_name: String,
    /// Function mapping variants to stable wire names (e.g. `name`).
    pub name_fn: String,
    /// A `const` in the event file that must equal the variant count.
    pub count_const: String,
    /// The exporter file (JSONL + Perfetto live together).
    pub exporter_file: String,
    /// Per-variant JSONL field function (no catch-all allowed).
    pub jsonl_fn: String,
    /// The Perfetto/Chrome exporter function.
    pub chrome_fn: String,
    /// Test files that together must mention every wire name.
    pub fixture_files: Vec<String>,
}

/// R3 — trace parity across exporters and fixtures.
pub fn r3_trace_parity(
    event: &SourceFile,
    exporter: &SourceFile,
    fixtures: &[SourceFile],
    scope: &TraceParityScope,
    out: &mut Vec<Diagnostic>,
) {
    let Some(variants) = event.enum_variants(&scope.enum_name) else {
        out.push(Diagnostic {
            rule: "R3",
            path: event.rel.clone(),
            line: 0,
            message: format!("enum `{}` not found", scope.enum_name),
            snippet: String::new(),
        });
        return;
    };
    if variants.is_empty() {
        out.push(Diagnostic {
            rule: "R3",
            path: event.rel.clone(),
            line: 0,
            message: format!("enum `{}` has no parsed variants", scope.enum_name),
            snippet: String::new(),
        });
        return;
    }

    // The declared count const keeps humans honest when adding variants.
    match event.const_value(&scope.count_const) {
        Some((value, line)) if value as usize != variants.len() => {
            out.push(Diagnostic::at(
                "R3",
                event,
                line,
                format!(
                    "`{}` is {value} but `{}` has {} variants",
                    scope.count_const,
                    scope.enum_name,
                    variants.len()
                ),
            ));
        }
        None => out.push(Diagnostic {
            rule: "R3",
            path: event.rel.clone(),
            line: 0,
            message: format!(
                "`const {}` not found in the event file; declare it equal to the \
                 variant count",
                scope.count_const
            ),
            snippet: String::new(),
        }),
        _ => {}
    }

    // Wire names: one `Enum::Variant … => "literal"` arm per variant.
    let mut wire_names: Vec<(String, String, usize)> = Vec::new();
    for span in event.fns_named(&scope.name_fn) {
        for line_no in span.start..=span.end.min(event.code.len()) {
            let code = &event.code[line_no - 1];
            let marker = format!("{}::", scope.enum_name);
            let Some(pos) = code.find(&marker) else {
                continue;
            };
            let variant: String = code[pos + marker.len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if let Some((lit, _)) = event
                .string_literals_in(line_no, line_no)
                .into_iter()
                .next()
            {
                wire_names.push((variant, lit, line_no));
            }
        }
    }

    let jsonl_mask = fn_lines(exporter, &scope.jsonl_fn);
    let chrome_mask = fn_lines(exporter, &scope.chrome_fn);
    let chrome_has_catch_all = chrome_mask
        .iter()
        .any(|&l| exporter.code[l - 1].contains("_ =>"));

    for (variant, line) in &variants {
        let qualified = format!("{}::{}", scope.enum_name, variant);
        if !jsonl_mask
            .iter()
            .any(|&l| exporter.code[l - 1].contains(&qualified))
        {
            out.push(Diagnostic::at(
                "R3",
                event,
                *line,
                format!(
                    "variant `{variant}` has no arm in the JSONL exporter \
                     (`{}::{}`)",
                    exporter.rel, scope.jsonl_fn
                ),
            ));
        }
        let chrome_ok = chrome_has_catch_all
            || chrome_mask
                .iter()
                .any(|&l| exporter.code[l - 1].contains(&qualified));
        if !chrome_ok {
            out.push(Diagnostic::at(
                "R3",
                event,
                *line,
                format!(
                    "variant `{variant}` unhandled by the Perfetto exporter \
                     (`{}::{}`)",
                    exporter.rel, scope.chrome_fn
                ),
            ));
        }
        let named = wire_names.iter().find(|(v, _, _)| v == variant);
        match named {
            None => out.push(Diagnostic::at(
                "R3",
                event,
                *line,
                format!(
                    "variant `{variant}` has no wire name in `{}`",
                    scope.name_fn
                ),
            )),
            Some((_, wire, _)) => {
                let covered = fixtures.iter().any(|f| {
                    f.raw
                        .iter()
                        .any(|l| l.contains(&format!("\"{wire}\"")) || contains_word(l, variant))
                });
                if !covered {
                    out.push(Diagnostic::at(
                        "R3",
                        event,
                        *line,
                        format!(
                            "variant `{variant}` (wire name \"{wire}\") appears in no \
                             trace fixture test"
                        ),
                    ));
                }
            }
        }
    }
}

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

/// R7 scope: the crates whose structs carry wire sequence/epoch state.
#[derive(Debug, Clone)]
pub struct SeqHygieneScope {
    /// Crate names scanned for wire-seq fields and their arithmetic.
    pub crates: Vec<String>,
}

/// Whether a struct field looks like wire sequence/epoch state: a narrow
/// unsigned integer named like a sequence or epoch counter. 64-bit fields
/// are absolute counters that cannot wrap in practice and are exempt.
fn is_wire_seq_field(name: &str, ty: &str) -> bool {
    let narrow = matches!(ty, "u8" | "u16" | "u32");
    let seq_like = name == "seq"
        || name.ends_with("_seq")
        || name == "epoch"
        || name.ends_with("_epoch")
        || name.starts_with("epoch_");
    narrow && seq_like
}

/// R7 — sequence/epoch arithmetic hygiene: wire-seq fields wrap mod the
/// sequence space, so bare `+`/`-` on them is a correctness bug waiting
/// for a rollover. Lines already using `wrapping_*`, `checked_*`,
/// `saturating_*`, or an explicit `%` are fine.
pub fn r7_seq_hygiene(files: &[SourceFile], scope_files: &[usize], out: &mut Vec<Diagnostic>) {
    // Collect the wire-seq vocabulary across the scoped files first, so a
    // field declared in `core` is tracked when used in `wire`.
    let mut tracked: Vec<String> = Vec::new();
    for &fi in scope_files {
        for (_, field, ty, line) in files[fi].struct_fields_all() {
            if files[fi].is_test_line(line) {
                continue;
            }
            if is_wire_seq_field(&field, &ty) && !tracked.contains(&field) {
                tracked.push(field);
            }
        }
    }
    if tracked.is_empty() {
        return;
    }
    for &fi in scope_files {
        let file = &files[fi];
        for (idx, line) in file.code.iter().enumerate() {
            let line_no = idx + 1;
            if file.is_test_line(line_no) {
                continue;
            }
            if line.contains("wrapping_")
                || line.contains("checked_")
                || line.contains("saturating_")
                || line.contains('%')
            {
                continue;
            }
            for field in &tracked {
                if !contains_word(line, field) {
                    continue;
                }
                if bare_arith_on(line, field) {
                    out.push(Diagnostic::at(
                        "R7",
                        file,
                        line_no,
                        format!(
                            "bare `+`/`-` arithmetic on wire-seq field `{field}`; \
                             use `wrapping_*` or take the result mod the sequence \
                             space explicitly"
                        ),
                    ));
                    break;
                }
            }
        }
    }
}

/// Whether `word` appears on `line` directly adjacent (modulo spaces) to a
/// bare `+` or `-` operator (including `+=`/`-=`), excluding `->` arrows.
fn bare_arith_on(line: &str, word: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let at = from + pos;
        let end = at + word.len();
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !line[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            // Look at the nearest non-space byte on each side.
            let mut i = end;
            while i < b.len() && b[i] == b' ' {
                i += 1;
            }
            if i < b.len() && (b[i] == b'+' || (b[i] == b'-' && b.get(i + 1) != Some(&b'>'))) {
                return true;
            }
            // `x + field` / `x - field` / unary minus all count. An `->`
            // arrow never lands here: its `>` would be the nearest byte.
            let mut j = at;
            while j > 0 && b[j - 1] == b' ' {
                j -= 1;
            }
            if j > 0 && (b[j - 1] == b'+' || b[j - 1] == b'-') {
                return true;
            }
        }
        from = at + word.len().max(1);
    }
    false
}

/// R8 scope: protocol enums whose matches must stay exhaustive.
#[derive(Debug, Clone)]
pub struct WildcardScope {
    /// Crate names the rule applies in (the protocol crates).
    pub crates: Vec<String>,
    /// Enum names (`WireFrame`, `EventKind`, …).
    pub enums: Vec<String>,
}

/// R8 — no wildcard arms in protocol-enum matches: a `_ =>` arm in a
/// `match` over a protocol enum silently absorbs future variants; new
/// variants must fail loudly at compile (or lint) time instead.
pub fn r8_no_wildcard(file: &SourceFile, scope: &WildcardScope, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.code.iter().enumerate() {
        if file.is_test_line(idx + 1) || !contains_word(line, "match") {
            continue;
        }
        // Walk the match block: arm patterns sit at relative depth 1.
        let mut rel = 0usize;
        let mut entered = false;
        let mut names_protocol_enum = false;
        let mut wildcard_lines: Vec<usize> = Vec::new();
        'block: for (j, body_line) in file.code.iter().enumerate().skip(idx) {
            if entered && rel == 1 && j > idx {
                let trimmed = body_line.trim_start();
                let pattern = trimmed.split("=>").next().unwrap_or(trimmed);
                if scope
                    .enums
                    .iter()
                    .any(|e| pattern.contains(&format!("{e}::")))
                {
                    names_protocol_enum = true;
                }
                if trimmed.starts_with("_ =>")
                    || trimmed.starts_with("_ if ")
                    || trimmed.starts_with("| _ =>")
                {
                    wildcard_lines.push(j + 1);
                }
            }
            for ch in body_line.chars() {
                match ch {
                    '{' => {
                        rel += 1;
                        entered = true;
                    }
                    '}' => {
                        rel = rel.saturating_sub(1);
                        if entered && rel == 0 {
                            break 'block;
                        }
                    }
                    _ => {}
                }
            }
        }
        if names_protocol_enum {
            for line_no in wildcard_lines {
                out.push(Diagnostic::at(
                    "R8",
                    file,
                    line_no,
                    format!(
                        "wildcard `_` arm in a match over a protocol enum \
                         ({}); enumerate the remaining variants so new ones \
                         fail loudly",
                        scope.enums.join("/")
                    ),
                ));
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
    fn r2_flags_clock_rng_and_hash() {
        let f = file(
            "use std::time::Instant;\nuse std::collections::HashMap;\n\
             fn f() { let _ = rand::random::<u8>(); }\n",
        );
        let scope = DeterminismScope {
            hash_dir_prefixes: vec!["crates/x/".into()],
        };
        let mut out = Vec::new();
        r2_determinism(&f, &scope, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn r2_hash_ban_is_scoped() {
        let f = file("use std::collections::HashMap;\n");
        let scope = DeterminismScope {
            hash_dir_prefixes: vec!["crates/other/".into()],
        };
        let mut out = Vec::new();
        r2_determinism(&f, &scope, &mut out);
        assert!(out.is_empty());
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
    fn r7_bare_arith_on_seq_fields() {
        let f = file(
            "struct D {\n    seq: u8,\n    next_epoch: u16,\n    total: u64,\n}\n\
             impl D {\n\
                 fn bump(&mut self) {\n\
                     self.seq += 1;\n\
                     self.seq = self.seq.wrapping_add(1);\n\
                     self.next_epoch = self.next_epoch + 1;\n\
                     self.total += 1;\n\
                 }\n\
             }\n",
        );
        let files = [f];
        let mut out = Vec::new();
        r7_seq_hygiene(&files, &[0], &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "R7"));
        assert_eq!(out[0].line, 8);
        assert_eq!(out[1].line, 10);
    }

    #[test]
    fn r7_modulo_and_wrapping_lines_are_exempt() {
        let f = file(
            "struct D {\n    seq: u8,\n}\n\
             impl D {\n\
                 fn ok(&mut self) {\n\
                     self.seq = (self.seq + 1) % 64;\n\
                     self.seq = self.seq.wrapping_sub(2);\n\
                 }\n\
             }\n",
        );
        let files = [f];
        let mut out = Vec::new();
        r7_seq_hygiene(&files, &[0], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn r8_wildcard_on_protocol_enum() {
        let f = file(
            "fn classify(w: Wire) -> u8 {\n\
                 match w {\n\
                     Wire::Data { .. } => 0,\n\
                     Wire::Ack { .. } => 1,\n\
                     _ => 9,\n\
                 }\n\
             }\n\
             fn other(n: u8) -> u8 {\n\
                 match n {\n\
                     0 => 1,\n\
                     _ => 0,\n\
                 }\n\
             }\n",
        );
        let scope = WildcardScope {
            crates: vec!["x".into()],
            enums: vec!["Wire".into()],
        };
        let mut out = Vec::new();
        r8_no_wildcard(&f, &scope, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "R8");
        assert_eq!(out[0].line, 5);
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
