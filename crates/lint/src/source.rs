//! A line/token source model for the workspace analyzer.
//!
//! The rules in this crate do not need a real Rust parser: every property
//! they check is visible at the token level once comments and string
//! literals are blanked out. [`SourceFile`] loads one file and precomputes
//!
//! * a **code view** — the original text with comment and string-literal
//!   contents replaced by spaces (newlines preserved), so token scans never
//!   match prose or payload bytes,
//! * a per-line **test mask** — lines inside `#[cfg(test)]` items or
//!   `#[test]` functions, which the rules skip (test code may panic and may
//!   time things),
//! * **function spans** — `fn name { … }` line ranges, so rules can scope
//!   themselves to designated hot-path functions,
//!
//! plus a struct-field parser used by the config-coverage rule.

use std::fs;
use std::io;
use std::path::Path;

/// The line range (1-based, inclusive) of one `fn` item, including nested
/// functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    /// Function name as written.
    pub name: String,
    /// First line of the `fn` keyword.
    pub start: usize,
    /// Line of the closing brace (equal to `start` for bodyless items).
    pub end: usize,
    /// Signature text from the `fn` keyword to the body brace (or `;`),
    /// with line breaks collapsed to spaces.
    pub sig: String,
}

impl FnSpan {
    /// Whether the first parameter is a `self` receiver (`self`, `&self`,
    /// `&mut self`, `self: Box<Self>`, …).
    pub fn has_self(&self) -> bool {
        let Some(open) = self.sig.find('(') else {
            return false;
        };
        let params = &self.sig[open + 1..];
        let mut depth = 1usize;
        let mut first_end = params.len();
        for (at, ch) in params.char_indices() {
            match ch {
                '(' | '[' | '<' => depth += 1,
                ')' | ']' | '>' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        first_end = at;
                        break;
                    }
                }
                ',' if depth == 1 => {
                    first_end = at;
                    break;
                }
                _ => {}
            }
        }
        contains_word(&params[..first_end], "self")
    }
}

/// The line range (1-based, inclusive) of one `impl` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplSpan {
    /// The implementing type's last path segment, generics stripped
    /// (`FaultyTransport<T>` → `FaultyTransport`).
    pub type_name: String,
    /// For `impl Trait for Type`, the trait's last path segment.
    pub trait_name: Option<String>,
    /// First line of the `impl` keyword.
    pub start: usize,
    /// Line of the closing brace.
    pub end: usize,
}

/// One loaded source file with its derived views.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the analysis root, `/`-separated.
    pub rel: String,
    /// Original lines.
    pub raw: Vec<String>,
    /// Comment/string-blanked lines (same count and per-line length).
    pub code: Vec<String>,
    /// `true` for lines inside `#[cfg(test)]` items or `#[test]` functions.
    pub test: Vec<bool>,
    /// Every `fn` item span found in the file.
    pub fns: Vec<FnSpan>,
    /// Every `impl` block span found in the file.
    pub impls: Vec<ImplSpan>,
    /// Brace depth at the start of each line (code view).
    pub depths: Vec<usize>,
}

impl SourceFile {
    /// Reads and models `root/rel`.
    pub fn load(root: &Path, rel: &str) -> io::Result<SourceFile> {
        let content = fs::read_to_string(root.join(rel))?;
        Ok(SourceFile::parse(rel, &content))
    }

    /// Models already-read content (used by the self-tests).
    pub fn parse(rel: &str, content: &str) -> SourceFile {
        let blanked = blank(content);
        let raw: Vec<String> = content.lines().map(str::to_string).collect();
        let mut code: Vec<String> = blanked.lines().map(str::to_string).collect();
        code.resize(raw.len(), String::new());
        let test = test_mask(&code);
        let fns = fn_spans(&code);
        let impls = impl_spans(&code);
        let depths = line_depths(&code);
        SourceFile {
            rel: rel.to_string(),
            raw,
            code,
            test,
            fns,
            impls,
            depths,
        }
    }

    /// The innermost `fn` span containing 1-based `line`, if any.
    pub fn innermost_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start <= line && line <= f.end)
            .min_by_key(|f| f.end - f.start)
    }

    /// The `impl` block containing 1-based `line`, if any.
    pub fn impl_at(&self, line: usize) -> Option<&ImplSpan> {
        self.impls
            .iter()
            .filter(|s| s.start <= line && line <= s.end)
            .min_by_key(|s| s.end - s.start)
    }

    /// Whether 1-based `line` is test code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// All spans of functions with the given name.
    pub fn fns_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FnSpan> {
        self.fns.iter().filter(move |f| f.name == name)
    }

    /// Public field names of `struct name`, with their 1-based lines.
    pub fn struct_fields(&self, name: &str) -> Option<Vec<(String, usize)>> {
        let header = format!("struct {name}");
        let start = self
            .code
            .iter()
            .position(|line| contains_phrase(line, &header))?;
        let mut fields = Vec::new();
        let mut depth = 0usize;
        let mut entered = false;
        for (idx, line) in self.code.iter().enumerate().skip(start) {
            if entered && depth == 1 {
                if let Some(rest) = line.trim().strip_prefix("pub ") {
                    let ident: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !ident.is_empty() && rest[ident.len()..].trim_start().starts_with(':') {
                        fields.push((ident, idx + 1));
                    }
                }
            }
            for ch in line.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            return Some(fields);
                        }
                    }
                    _ => {}
                }
            }
        }
        Some(fields)
    }
}

/// Does `line` contain `word` delimited by non-identifier characters?
pub fn contains_word(line: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = !line[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len().max(1);
    }
    false
}

/// `contains_word` over a multi-word phrase: every space in `phrase`
/// matches one-or-more whitespace, and both ends sit on word boundaries.
fn contains_phrase(line: &str, phrase: &str) -> bool {
    let words: Vec<&str> = phrase.split_whitespace().collect();
    let Some((first, rest)) = words.split_first() else {
        return false;
    };
    let mut from = 0;
    while let Some(pos) = line[from..].find(first) {
        let at = from + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let mut cursor = at + first.len();
        let mut ok = before_ok;
        if ok {
            for word in rest {
                let trimmed = line[cursor..].trim_start();
                if trimmed.starts_with(word) {
                    cursor = line.len() - trimmed.len() + word.len();
                } else {
                    ok = false;
                    break;
                }
            }
        }
        if ok
            && !line[cursor..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            return true;
        }
        from = at + first.len().max(1);
    }
    false
}

/// Replaces comment and string-literal contents with spaces, preserving
/// line structure, so token scans see only code. Handles line and nested
/// block comments, plain/byte/raw strings, char literals, and lifetimes.
fn blank(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            out.extend_from_slice(b"  ");
            i += 2;
            let mut depth = 1usize;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    push_blank(&mut out, b[i]);
                    i += 1;
                }
            }
        } else if let Some((hashes, quote)) = raw_string_at(b, i) {
            // Blank from the prefix through the closing quote+hashes.
            let mut j = quote + 1;
            loop {
                if j >= b.len() {
                    break;
                }
                if b[j] == b'"'
                    && b[j + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == b'#')
                        .count()
                        == hashes
                {
                    j += 1 + hashes;
                    break;
                }
                j += 1;
            }
            for &ch in &b[i..j.min(b.len())] {
                push_blank(&mut out, ch);
            }
            i = j;
        } else if c == b'"' {
            out.push(b' ');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' {
                    push_blank(&mut out, b[i]);
                    i += 1;
                    if i < b.len() {
                        push_blank(&mut out, b[i]);
                        i += 1;
                    }
                } else if b[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                } else {
                    push_blank(&mut out, b[i]);
                    i += 1;
                }
            }
        } else if c == b'\'' {
            if b.get(i + 1) == Some(&b'\\') {
                // Escaped char literal. Consume the backslash and the byte
                // it escapes before scanning for the closing quote, so that
                // `'\''` does not leave a stray tick in the code view.
                out.push(b' ');
                i += 1;
                push_blank(&mut out, b[i]);
                i += 1;
                if i < b.len() {
                    push_blank(&mut out, b[i]);
                    i += 1;
                }
                while i < b.len() && b[i] != b'\'' {
                    push_blank(&mut out, b[i]);
                    i += 1;
                }
                if i < b.len() {
                    out.push(b' ');
                    i += 1;
                }
            } else if char_literal_len(b, i).is_some() {
                let n = char_literal_len(b, i).unwrap_or(0);
                for &ch in &b[i..i + n] {
                    push_blank(&mut out, ch);
                }
                i += n;
            } else {
                // A lifetime: keep the tick, it is code.
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn push_blank(out: &mut Vec<u8>, c: u8) {
    out.push(if c == b'\n' { b'\n' } else { b' ' });
}

/// If position `i` starts a raw (or raw byte) string, returns
/// `(hash_count, index_of_opening_quote)`.
fn raw_string_at(b: &[u8], i: usize) -> Option<(usize, usize)> {
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return None;
    }
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&b'"') {
        Some((hashes, j))
    } else {
        None
    }
}

/// If position `i` (a `'`) starts an unescaped char literal, its total
/// byte length including both quotes.
fn char_literal_len(b: &[u8], i: usize) -> Option<usize> {
    let first = *b.get(i + 1)?;
    if first == b'\'' {
        return None;
    }
    let char_len = match first {
        x if x < 0x80 => 1,
        x if x >= 0xF0 => 4,
        x if x >= 0xE0 => 3,
        _ => 2,
    };
    (b.get(i + 1 + char_len) == Some(&b'\'')).then_some(char_len + 2)
}

/// Marks lines covered by `#[cfg(test)]` items and `#[test]` functions.
fn test_mask(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let line = &code[i];
        let is_marker = line.contains("#[cfg(test)")
            || line.contains("#[cfg(all(test")
            || line.contains("#[cfg(any(test")
            || line.trim_start().starts_with("#[test]");
        if !is_marker {
            i += 1;
            continue;
        }
        // Extend over the annotated item: to the matching close brace, or
        // to the terminating `;` for braceless items (`use`, `const`).
        let mut depth = 0usize;
        let mut entered = false;
        let mut j = i;
        loop {
            if j >= code.len() {
                break;
            }
            let mut done = false;
            for ch in code[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            done = true;
                        }
                    }
                    ';' if !entered => done = true,
                    _ => {}
                }
            }
            if done {
                break;
            }
            j += 1;
        }
        for flag in mask.iter_mut().take((j + 1).min(code.len())).skip(i) {
            *flag = true;
        }
        i = j + 1;
    }
    mask
}

/// Finds every `fn name … { … }` span via brace matching on the code view,
/// capturing the signature text between `fn` and the body brace.
fn fn_spans(code: &[String]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    // Functions awaiting their body's opening brace, then open bodies as
    // (name, start_line, sig, depth_at_open).
    let mut pending: Option<(String, usize, String)> = None;
    let mut sig_depth = 0usize;
    let mut open: Vec<(String, usize, String, usize)> = Vec::new();
    let mut depth = 0usize;
    for (idx, line) in code.iter().enumerate() {
        for (at, ch) in line.char_indices() {
            match ch {
                '(' | '[' if pending.is_some() => sig_depth += 1,
                ')' | ']' if pending.is_some() => sig_depth = sig_depth.saturating_sub(1),
                '{' => {
                    depth += 1;
                    if let Some((name, start, sig)) = pending.take() {
                        open.push((name, start, sig, depth));
                    }
                }
                '}' => {
                    if let Some(pos) = open.iter().rposition(|(_, _, _, d)| *d == depth) {
                        let (name, start, sig, _) = open.remove(pos);
                        spans.push(FnSpan {
                            name,
                            start,
                            end: idx + 1,
                            sig,
                        });
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' if sig_depth == 0 => {
                    // Bodyless declaration (trait method, extern). A `;`
                    // inside the signature's parens or an array type does
                    // not end the item.
                    if let Some((name, start, sig)) = pending.take() {
                        spans.push(FnSpan {
                            name,
                            start,
                            end: start,
                            sig,
                        });
                    }
                }
                'f' => {
                    // A word-boundary `fn` followed by an identifier.
                    let before_ok = at == 0
                        || !line[..at]
                            .chars()
                            .next_back()
                            .is_some_and(|c| c.is_alphanumeric() || c == '_');
                    if before_ok && line[at..].starts_with("fn") {
                        let rest = &line[at + 2..];
                        if rest.starts_with(char::is_whitespace) {
                            let name: String = rest
                                .trim_start()
                                .chars()
                                .take_while(|c| c.is_alphanumeric() || *c == '_')
                                .collect();
                            if !name.is_empty() {
                                pending = Some((name, idx + 1, String::new()));
                                sig_depth = 0;
                            }
                        }
                    }
                }
                _ => {}
            }
            if let Some((_, _, sig)) = pending.as_mut() {
                sig.push(ch);
            }
        }
        if let Some((_, _, sig)) = pending.as_mut() {
            sig.push(' ');
        }
    }
    spans.sort_by_key(|s| (s.start, s.end));
    spans
}

/// Brace depth at the start of each line (code view).
fn line_depths(code: &[String]) -> Vec<usize> {
    let mut out = Vec::with_capacity(code.len());
    let mut depth = 0usize;
    for line in code {
        out.push(depth);
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    out
}

/// Finds every `impl` block span via brace matching on the code view,
/// parsing the header into a type name and optional trait name.
fn impl_spans(code: &[String]) -> Vec<ImplSpan> {
    let mut spans = Vec::new();
    // An impl header being accumulated, then open bodies as
    // (type_name, trait_name, start_line, depth_at_open).
    let mut pending: Option<(String, usize)> = None;
    let mut angle = 0usize;
    let mut open: Vec<(String, Option<String>, usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut prev = ' ';
    for (idx, line) in code.iter().enumerate() {
        for (at, ch) in line.char_indices() {
            if pending.is_some() {
                if ch == '{' && angle == 0 {
                    let (header, start) = pending.take().unwrap_or_default();
                    depth += 1;
                    if let Some((ty, tr)) = parse_impl_header(&header) {
                        open.push((ty, tr, start, depth));
                    }
                } else if ch == ';' && angle == 0 {
                    pending = None;
                } else {
                    if let Some((header, _)) = pending.as_mut() {
                        match ch {
                            '<' => angle += 1,
                            '>' if prev != '-' => angle = angle.saturating_sub(1),
                            _ => {}
                        }
                        header.push(ch);
                    }
                }
                prev = ch;
                continue;
            }
            match ch {
                '{' => depth += 1,
                '}' => {
                    if let Some(pos) = open.iter().rposition(|(_, _, _, d)| *d == depth) {
                        let (ty, tr, start, _) = open.remove(pos);
                        spans.push(ImplSpan {
                            type_name: ty,
                            trait_name: tr,
                            start,
                            end: idx + 1,
                        });
                    }
                    depth = depth.saturating_sub(1);
                }
                'i' => {
                    // A word-boundary `impl` at item position: the line up
                    // to here is blank or ends an earlier item. This skips
                    // `-> impl Trait` return types.
                    let before = line[..at].trim_end();
                    let item_pos = before.is_empty()
                        || before.ends_with('}')
                        || before.ends_with(';')
                        || before.ends_with(']');
                    if item_pos && line[at..].starts_with("impl") {
                        let rest = &line[at + 4..];
                        if rest.is_empty()
                            || rest.starts_with(char::is_whitespace)
                            || rest.starts_with('<')
                        {
                            pending = Some((String::new(), idx + 1));
                            angle = 0;
                        }
                    }
                }
                _ => {}
            }
            prev = ch;
        }
        prev = ' ';
    }
    spans.sort_by_key(|s| (s.start, s.end));
    spans
}

/// Parses an accumulated impl header (`impl<T> Trait for Type<T> where …`
/// without the leading `impl` or the body brace) into
/// `(type_name, trait_name)`, both reduced to their last path segment.
fn parse_impl_header(header: &str) -> Option<(String, Option<String>)> {
    // The accumulator starts one char past the `i` of `impl`; drop the rest
    // of the keyword, then strip leading generics.
    let header = header.trim_start();
    let mut rest = header.strip_prefix("mpl").unwrap_or(header).trim_start();
    if let Some(stripped) = rest.strip_prefix('<') {
        let mut angle = 1usize;
        let mut prev = ' ';
        let mut cut = stripped.len();
        for (at, ch) in stripped.char_indices() {
            match ch {
                '<' => angle += 1,
                '>' if prev != '-' => {
                    angle -= 1;
                    if angle == 0 {
                        cut = at + 1;
                        break;
                    }
                }
                _ => {}
            }
            prev = ch;
        }
        rest = stripped[cut.min(stripped.len())..].trim_start();
    }
    // Split at a word-boundary ` for ` outside angle brackets.
    let (first, second) = split_impl_for(rest);
    let first = strip_where(first);
    match second {
        Some(ty) => Some((last_segment(strip_where(ty))?, last_segment(first))),
        None => Some((last_segment(first)?, None)),
    }
}

/// Splits `Trait for Type` at the first word-boundary `for` outside angle
/// brackets; returns `(head, Some(tail))` or `(whole, None)`.
fn split_impl_for(s: &str) -> (&str, Option<&str>) {
    let b = s.as_bytes();
    let mut angle = 0usize;
    let mut prev = b' ';
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'<' => angle += 1,
            b'>' if prev != b'-' => angle = angle.saturating_sub(1),
            b'f' if angle == 0
                && s[i..].starts_with("for")
                && !(prev.is_ascii_alphanumeric() || prev == b'_')
                && !s[i + 3..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '<') =>
            {
                return (&s[..i], Some(&s[i + 3..]));
            }
            _ => {}
        }
        prev = b[i];
        i += 1;
    }
    (s, None)
}

/// Drops a trailing `where …` clause.
fn strip_where(s: &str) -> &str {
    let mut from = 0;
    while let Some(pos) = s[from..].find("where") {
        let at = from + pos;
        let before_ok = at == 0
            || !s[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !s[at + 5..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return &s[..at];
        }
        from = at + 5;
    }
    s
}

/// The last `::` path segment with generics, references, and lifetimes
/// stripped: `fmt::Display` → `Display`, `Supervisor<T, F>` → `Supervisor`,
/// `&'a mut Foo<T>` → `Foo`.
fn last_segment(path: &str) -> Option<String> {
    let mut s = path.trim();
    loop {
        let trimmed = s.trim_start_matches(['&', '*']).trim_start();
        let trimmed = if let Some(rest) = trimmed.strip_prefix('\'') {
            rest.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_')
                .trim_start()
        } else {
            trimmed
        };
        let trimmed = trimmed
            .strip_prefix("mut ")
            .or_else(|| trimmed.strip_prefix("dyn "))
            .unwrap_or(trimmed)
            .trim_start();
        if trimmed == s {
            break;
        }
        s = trimmed;
    }
    let no_generics = match s.find('<') {
        Some(p) => &s[..p],
        None => s,
    };
    let seg = no_generics.rsplit("::").next()?.trim();
    let ident: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanking_hides_comments_strings_and_chars() {
        let src =
            "let a = \"panic!()\"; // unwrap()\nlet b = 'x'; /* expect( */ let c = r#\"todo!\"#;\n";
        let out = blank(src);
        assert!(!out.contains("panic!"));
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("expect"));
        assert!(!out.contains("todo"));
        assert!(out.contains("let a ="));
        assert!(out.contains("let c ="));
        assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn lifetimes_survive_blanking() {
        let out = blank("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(out.contains("fn f<'a>"));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod_and_test_fn() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
    }

    #[test]
    fn fn_spans_nest() {
        let src = "fn outer() {\n    fn inner() {\n    }\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        let outer = f.fns_named("outer").next().unwrap();
        assert_eq!((outer.start, outer.end), (1, 4));
        let inner = f.fns_named("inner").next().unwrap();
        assert_eq!((inner.start, inner.end), (2, 3));
        let after = f.fns_named("after").next().unwrap();
        assert_eq!((after.start, after.end), (5, 5));
    }

    #[test]
    fn struct_parsing_keeps_public_fields() {
        let src = "pub struct Cfg {\n    pub one: u8,\n    pub two: bool,\n    hidden: u8,\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let fields: Vec<String> = f
            .struct_fields("Cfg")
            .unwrap()
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(fields, vec!["one", "two"]);
    }

    #[test]
    fn raw_strings_blank_correctly() {
        // A raw string containing a quote must not swallow trailing code.
        let out = blank("let c = r#\"has \" quote\"#; let live = x.unwrap();\n");
        assert!(out.contains("let live = x.unwrap();"), "{out:?}");
        assert!(!out.contains("quote"));
        // A raw string containing a comment opener must not start a comment.
        let out = blank("let c = r#\"start /* \"#; let live = 1; /* gone */ let more = 2;\n");
        assert!(out.contains("let live = 1;"), "{out:?}");
        assert!(out.contains("let more = 2;"), "{out:?}");
        assert!(!out.contains("gone"));
        // Multi-hash raw strings close only on a matching run of hashes.
        let out = blank("let c = r##\"x \"# y\"##; let live = 4;\n");
        assert!(out.contains("let live = 4;"), "{out:?}");
        assert!(!out.contains('y'));
        // Byte raw strings.
        let out = blank("let c = br#\"bytes \" q\"#; live();\n");
        assert!(out.contains("live();"), "{out:?}");
        // Adjacent raw and plain strings.
        let out = blank("f(r#\"payload\"#, \"b\", c.unwrap());\n");
        assert!(out.contains("c.unwrap()"), "{out:?}");
        assert!(!out.contains("payload"));
    }

    #[test]
    fn multiline_raw_string_preserves_line_structure() {
        let src = "let c = r#\"one\ntwo \" mid\nthree\"#;\nlet live = 8;\n";
        let out = blank(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert!(out.contains("let live = 8;"));
        assert!(!out.contains("mid"));
    }

    #[test]
    fn nested_block_comments_blank_correctly() {
        let out = blank("/* outer /* inner */ still comment */ let live = 3;\n");
        assert!(out.contains("let live = 3;"), "{out:?}");
        assert!(!out.contains("still"));
        // A raw-string opener inside a comment stays a comment.
        let out = blank("/* r#\" */ let live = 7; // tail\n");
        assert!(out.contains("let live = 7;"), "{out:?}");
        assert!(!out.contains("tail"));
    }

    #[test]
    fn escaped_char_literals_blank_without_desync() {
        // `'\''` must not leave a stray quote that desyncs later scans.
        let out = blank("let c = '\\''; let live = x.unwrap();\n");
        assert!(out.contains("let live = x.unwrap();"), "{out:?}");
        assert!(!out.contains('\''), "stray quote in {out:?}");
        let out = blank("let c = '\\\\'; let live = 1;\n");
        assert!(out.contains("let live = 1;"), "{out:?}");
        let out = blank("let c = '\\x41'; let d = '\\u{1F600}'; live();\n");
        assert!(out.contains("live();"), "{out:?}");
    }

    #[test]
    fn impl_spans_parse_inherent_trait_and_generic() {
        let src = "\
struct A;\n\
impl A {\n    fn one(&self) {}\n}\n\
impl fmt::Display for A {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n}\n\
impl<T: Clone, F: FnMut() -> Vec<T>> Wrap<T, F> {\n    fn two(&mut self, x: T) -> T { x }\n}\n\
fn free() -> impl Iterator<Item = u8> {\n    std::iter::empty()\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let impls: Vec<(String, Option<String>)> = f
            .impls
            .iter()
            .map(|s| (s.type_name.clone(), s.trait_name.clone()))
            .collect();
        assert_eq!(
            impls,
            vec![
                ("A".to_string(), None),
                ("A".to_string(), Some("Display".to_string())),
                ("Wrap".to_string(), None),
            ]
        );
        assert_eq!(f.impl_at(3).map(|s| s.type_name.as_str()), Some("A"));
        assert_eq!(
            f.impl_at(6).and_then(|s| s.trait_name.as_deref()),
            Some("Display")
        );
        assert_eq!(f.impl_at(12), None, "return-position impl is not a block");
    }

    #[test]
    fn fn_signatures_capture_self() {
        let src = "\
fn free(x: u8) -> u8 { x }\n\
impl A {\n\
    fn method(&self, y: u8) {}\n\
    fn owner(mut self) {}\n\
    fn assoc(\n        config: u8,\n    ) -> A {\n        A\n    }\n\
}\n";
        let f = SourceFile::parse("x.rs", src);
        let by_name = |n: &'static str| f.fns_named(n).next().unwrap();
        assert!(!by_name("free").has_self());
        assert!(by_name("method").has_self());
        assert!(by_name("owner").has_self());
        assert!(!by_name("assoc").has_self());
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("use std::time::Instant;", "Instant"));
        assert!(!contains_word("let instantaneous = 1;", "Instant"));
        assert!(!contains_word("InstantX", "Instant"));
    }
}
