//! `lint-allow.toml`: the only sanctioned way to silence a diagnostic.
//!
//! The file is an array of `[[allow]]` tables; every entry must carry a
//! written justification and must suppress at least one live diagnostic —
//! unknown keys, missing/thin justifications, and stale entries are hard
//! errors, so the allowlist can only shrink relative to what it explains.
//!
//! ```toml
//! [[allow]]
//! rule = "R1"
//! path = "crates/wire/src/port.rs"
//! pattern = "pending[lane.index()]"
//! justification = "Lane::index() is 0 or 1 and the pending array is \
//!                  [_; 2], so the access is total."
//! ```
//!
//! The parser is a deliberate TOML subset (comments, `[[allow]]` headers,
//! `key = "string"` pairs) — enough for this schema, no dependency, and
//! strict: anything outside the subset is a schema error.

use std::fmt;
use std::fs;
use std::path::Path;

/// One suppression entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry applies to (`R1`, `R4`, `R5`, `R6` or `R9`).
    pub rule: String,
    /// Exact root-relative path of the file.
    pub path: String,
    /// Substring that must occur on the diagnosed line.
    pub pattern: String,
    /// Why the suppression is sound. Required, and required to say
    /// something (≥ 20 characters after trimming).
    pub justification: String,
    /// 1-based line of the `[[allow]]` header (for error reporting).
    pub line: usize,
}

/// A schema violation in the allowlist file itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowError {
    /// 1-based line in `lint-allow.toml`.
    pub line: usize,
    /// What is malformed.
    pub message: String,
}

impl fmt::Display for AllowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint-allow.toml:{}: {}", self.line, self.message)
    }
}

const REQUIRED_KEYS: [&str; 4] = ["rule", "path", "pattern", "justification"];
const VALID_RULES: [&str; 5] = ["R1", "R4", "R5", "R6", "R9"];
const MIN_JUSTIFICATION: usize = 20;

/// Parses and schema-checks an allowlist file. On any error the entry
/// list is unusable (the engine treats allow errors as fatal).
pub fn load(path: &Path) -> Result<Vec<AllowEntry>, Vec<AllowError>> {
    match fs::read_to_string(path) {
        Ok(content) => parse(&content),
        Err(e) => Err(vec![AllowError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        }]),
    }
}

/// Parses allowlist content. Exposed for fixture tests.
pub fn parse(content: &str) -> Result<Vec<AllowEntry>, Vec<AllowError>> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut errors: Vec<AllowError> = Vec::new();
    // Keys collected for the entry currently being built.
    let mut current: Option<(usize, Vec<(String, String)>)> = None;

    let finish = |current: &mut Option<(usize, Vec<(String, String)>)>,
                  errors: &mut Vec<AllowError>| {
        let (header_line, keys) = current.take()?;
        let get = |name: &str| -> Option<String> {
            keys.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
        };
        let mut entry = AllowEntry {
            rule: get("rule").unwrap_or_default(),
            path: get("path").unwrap_or_default(),
            pattern: get("pattern").unwrap_or_default(),
            justification: get("justification").unwrap_or_default(),
            line: header_line,
        };
        let mut ok = true;
        for required in REQUIRED_KEYS {
            if !keys.iter().any(|(k, _)| k == required) {
                errors.push(AllowError {
                    line: header_line,
                    message: format!("entry is missing required key `{required}`"),
                });
                ok = false;
            }
        }
        if !entry.rule.is_empty() && !VALID_RULES.contains(&entry.rule.as_str()) {
            errors.push(AllowError {
                line: header_line,
                message: format!(
                    "unknown rule `{}` (expected one of {})",
                    entry.rule,
                    VALID_RULES.join(", ")
                ),
            });
            ok = false;
        }
        if keys.iter().any(|(k, _)| k == "pattern") && entry.pattern.is_empty() {
            errors.push(AllowError {
                line: header_line,
                message: "`pattern` must be a non-empty substring".to_string(),
            });
            ok = false;
        }
        entry.justification = entry.justification.trim().to_string();
        if keys.iter().any(|(k, _)| k == "justification")
            && entry.justification.len() < MIN_JUSTIFICATION
        {
            errors.push(AllowError {
                line: header_line,
                message: format!(
                    "`justification` must actually justify (≥ {MIN_JUSTIFICATION} \
                         characters); got {:?}",
                    entry.justification
                ),
            });
            ok = false;
        }
        ok.then_some(entry)
    };

    for (idx, raw_line) in content.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(entry) = finish(&mut current, &mut errors) {
                entries.push(entry);
            }
            current = Some((line_no, Vec::new()));
            continue;
        }
        if line.starts_with('[') {
            errors.push(AllowError {
                line: line_no,
                message: format!("unknown table `{line}`; only `[[allow]]` entries are allowed"),
            });
            current = None;
            continue;
        }
        let Some((key, value)) = parse_key_value(line) else {
            errors.push(AllowError {
                line: line_no,
                message: format!("cannot parse `{line}`; expected `key = \"string\"`"),
            });
            continue;
        };
        let Some((_, keys)) = current.as_mut() else {
            errors.push(AllowError {
                line: line_no,
                message: format!("key `{key}` outside any `[[allow]]` entry"),
            });
            continue;
        };
        if !REQUIRED_KEYS.contains(&key.as_str()) {
            errors.push(AllowError {
                line: line_no,
                message: format!(
                    "unknown key `{key}` (allowed: {})",
                    REQUIRED_KEYS.join(", ")
                ),
            });
            continue;
        }
        if keys.iter().any(|(k, _)| *k == key) {
            errors.push(AllowError {
                line: line_no,
                message: format!("duplicate key `{key}`"),
            });
            continue;
        }
        keys.push((key, value));
    }
    if let Some(entry) = finish(&mut current, &mut errors) {
        entries.push(entry);
    }

    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

/// Removes a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (at, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..at],
            _ => {}
        }
    }
    line
}

/// Parses `key = "value"` with `\"`, `\\`, `\n`, `\t` escapes. The value
/// must be a double-quoted string; trailing content is an error (None).
fn parse_key_value(line: &str) -> Option<(String, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let rest = rest.trim();
    let mut chars = rest.chars();
    if chars.next() != Some('"') {
        return None;
    }
    let mut value = String::new();
    let mut closed = false;
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                closed = true;
                break;
            }
            '\\' => match chars.next()? {
                'n' => value.push('\n'),
                't' => value.push('\t'),
                '"' => value.push('"'),
                '\\' => value.push('\\'),
                _ => return None,
            },
            other => value.push(other),
        }
    }
    if !closed || !chars.as_str().trim().is_empty() {
        return None;
    }
    Some((key.to_string(), value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_well_formed_entry() {
        let entries = parse(
            "# comment\n[[allow]]\nrule = \"R5\"\npath = \"crates/wire/src/codec.rs\"\n\
             pattern = \"Vec::with_capacity\"\njustification = \"Encode returns an owned frame by contract.\"\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "R5");
        assert_eq!(entries[0].pattern, "Vec::with_capacity");
    }

    #[test]
    fn retired_rule_is_a_schema_error() {
        let errs = parse(
            "[[allow]]\nrule = \"R2\"\npath = \"a.rs\"\npattern = \"Instant\"\n\
             justification = \"clippy.toml enforces this one now\"\n",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown rule `R2`")));
    }

    #[test]
    fn unknown_key_is_a_hard_error() {
        let errs = parse(
            "[[allow]]\nrule = \"R1\"\npath = \"a.rs\"\npattern = \"x\"\n\
             justification = \"a perfectly valid reason here\"\nseverity = \"low\"\n",
        )
        .unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("unknown key `severity`")));
    }

    #[test]
    fn missing_or_thin_justification_is_a_hard_error() {
        let errs =
            parse("[[allow]]\nrule = \"R1\"\npath = \"a.rs\"\npattern = \"x\"\n").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("justification")));
        let errs = parse(
            "[[allow]]\nrule = \"R1\"\npath = \"a.rs\"\npattern = \"x\"\njustification = \"ok\"\n",
        )
        .unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("must actually justify")));
    }

    #[test]
    fn unknown_rule_and_tables_rejected() {
        let errs = parse("[[allow]]\nrule = \"R12\"\npath = \"a\"\npattern = \"p\"\njustification = \"some long enough reason\"\n")
            .unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("unknown rule `R12`")));
        let errs = parse("[settings]\nx = \"y\"\n").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown table")));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let entries = parse(
            "[[allow]]\nrule = \"R1\"\npath = \"a.rs\"\npattern = \"# not a comment\"\n\
             justification = \"pattern contains a hash on purpose\"\n",
        )
        .unwrap();
        assert_eq!(entries[0].pattern, "# not a comment");
    }
}
