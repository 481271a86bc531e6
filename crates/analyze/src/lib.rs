//! `srank-analyze`: a zero-dependency static analyzer for the
//! stable-rankings workspace, run as a hard gate by `scripts/check.sh`.
//!
//! The analyzer is brace/token-aware, not a full parser: it lexes each
//! source file once (stripping comments and string contents while
//! remembering where the strings were), drops `#[cfg(test)]` blocks,
//! and runs two project-invariant passes over the result:
//!
//! 1. **`lock-order`** — extracts every `OrderedMutex`/`OrderedRwLock`
//!    construction site in `crates/service`, attributes nested
//!    acquisitions into a static lock-order graph, and fails on rank
//!    inversions or cycles. Raw `std::sync::Mutex`/`RwLock`
//!    construction outside the wrapper module is also a finding: every
//!    service lock must carry a rank. `// analyze: lock-order(a < b)`
//!    declares an edge the code may not exhibit syntactically.
//! 2. **`panic-path`** — flags `unwrap()`/`expect(`/`panic!`/
//!    `unreachable!`/slice-indexing in the request-serving files
//!    (engine, server, pool, session, guard) unless annotated
//!    `// analyze: allow(panic, reason)`.
//!
//! Op names, error codes and metric names are not checked here: each is
//! written once — the `Op` and `ErrorCode` tables in `proto.rs`, the
//! export walks — and the service's runtime tests compare the README's
//! tables with their renderings.
//!
//! The library is deliberately path-driven ([`analyze`] takes a root
//! directory shaped like the workspace) so the self-tests can point it
//! at miniature fixture trees with seeded violations.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One analyzer finding. `rule` is the pass id (`lock-order` or
/// `panic-path`); `file` is root-relative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

// ---------------------------------------------------------------------
// Lexing

/// A string literal surviving test-stripping: where it starts in the
/// cleaned text, and its value.
#[derive(Debug, Clone)]
pub struct StrLit {
    pub pos: usize,
    pub value: String,
}

/// One `// analyze: …` annotation (text after the marker, trimmed).
#[derive(Debug, Clone)]
pub struct Annotation {
    pub line: usize,
    pub text: String,
}

/// A lexed source file: `code` is the original text with comments and
/// string/char contents blanked to spaces (newlines preserved, so byte
/// offsets and line numbers line up with the original), `#[cfg(test)]`
/// blocks blanked as well.
#[derive(Debug)]
pub struct SourceFile {
    pub file: String,
    pub code: String,
    pub strings: Vec<StrLit>,
    pub annotations: Vec<Annotation>,
}

const ANNOTATION_MARKER: &str = "analyze:";

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `text`: blanks comments and literal contents, records string
/// literals and `// analyze:` annotations.
fn lex(file: &str, text: &str) -> SourceFile {
    let b = text.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut strings = Vec::new();
    let mut annotations = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    let blank = |out: &mut Vec<u8>, c: u8| out.push(if c == b'\n' { b'\n' } else { b' ' });
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            out.push(c);
            i += 1;
        } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            // Line comment; may carry an `// analyze:` annotation.
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            let body = text[start + 2..i].trim_start_matches(['/', '!']).trim();
            if let Some(rest) = body.strip_prefix(ANNOTATION_MARKER) {
                annotations.push(Annotation {
                    line,
                    text: rest.trim().to_string(),
                });
            }
            out.extend(std::iter::repeat_n(b' ', i - start));
        } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            // Nested block comment.
            let mut depth = 1;
            blank(&mut out, c);
            blank(&mut out, b[i + 1]);
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
        } else if c == b'"' {
            let (end, value, newlines) = scan_string(b, i, 0);
            strings.push(StrLit { pos: i, value });
            for &x in &b[i..end] {
                blank(&mut out, x);
            }
            line += newlines;
            i = end;
        } else if (c == b'r' || c == b'b')
            && (i == 0 || !is_ident(b[i - 1]))
            && raw_string_hashes(b, i).is_some()
        {
            let hashes = raw_string_hashes(b, i).unwrap();
            let open = i + (b[i..].iter().take_while(|&&x| x != b'"').count());
            let (end, value, newlines) = scan_string(b, open, hashes);
            strings.push(StrLit { pos: i, value });
            for &x in &b[i..end] {
                blank(&mut out, x);
            }
            line += newlines;
            i = end;
        } else if c == b'\'' {
            // Char literal vs lifetime: a char literal is 'x' or '\…'.
            let char_lit =
                i + 1 < b.len() && (b[i + 1] == b'\\' || (i + 2 < b.len() && b[i + 2] == b'\''));
            if char_lit {
                let mut j = i + 1;
                if b[j] == b'\\' {
                    j += 2; // skip the escaped char
                    while j < b.len() && b[j] != b'\'' {
                        j += 1; // \u{…} etc.
                    }
                } else {
                    j += 1;
                }
                let end = (j + 1).min(b.len());
                for &x in &b[i..end] {
                    blank(&mut out, x);
                }
                i = end;
            } else {
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    let mut source = SourceFile {
        file: file.to_string(),
        code: String::from_utf8(out).expect("blanking preserves UTF-8"),
        strings,
        annotations,
    };
    strip_tests(&mut source);
    source
}

/// If `b[i]` starts a raw/byte-raw string (`r"`, `r#"`, `br#"`, …),
/// returns the number of `#`s; `None` otherwise.
fn raw_string_hashes(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (j < b.len() && b[j] == b'"').then_some(hashes)
}

/// Scans a string starting at the opening quote `b[open] == '"'`;
/// `hashes` > 0 means raw (no escapes, closed by `"` + hashes).
/// Returns (index past the close, value, newline count).
fn scan_string(b: &[u8], open: usize, hashes: usize) -> (usize, String, usize) {
    let mut value = Vec::new();
    let mut newlines = 0;
    let mut i = open + 1;
    while i < b.len() {
        if hashes == 0 && b[i] == b'\\' && i + 1 < b.len() {
            // A line-continuation escape hides a real newline.
            if b[i + 1] == b'\n' {
                newlines += 1;
            }
            value.push(b[i + 1]);
            i += 2;
            continue;
        }
        if b[i] == b'"' {
            if hashes == 0 {
                return (
                    i + 1,
                    String::from_utf8_lossy(&value).into_owned(),
                    newlines,
                );
            }
            let close = &b[i + 1..];
            if close.len() >= hashes && close[..hashes].iter().all(|&x| x == b'#') {
                return (
                    i + 1 + hashes,
                    String::from_utf8_lossy(&value).into_owned(),
                    newlines,
                );
            }
        }
        if b[i] == b'\n' {
            newlines += 1;
        }
        value.push(b[i]);
        i += 1;
    }
    (
        b.len(),
        String::from_utf8_lossy(&value).into_owned(),
        newlines,
    )
}

/// Blanks every `#[cfg(test)]`-attributed block and drops the strings
/// and annotations inside it.
fn strip_tests(source: &mut SourceFile) {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let code = source.code.clone();
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find("#[cfg(test)]") {
        let attr = from + at;
        let Some(open_rel) = code[attr..].find('{') else {
            break;
        };
        let open = attr + open_rel;
        let close = matching_brace(b, open).unwrap_or(b.len());
        ranges.push((attr, close + 1));
        from = close.min(b.len() - 1) + 1;
    }
    if ranges.is_empty() {
        return;
    }
    let mut out = source.code.clone().into_bytes();
    for &(s, e) in &ranges {
        let e = e.min(out.len());
        for item in out.iter_mut().take(e).skip(s) {
            if *item != b'\n' {
                *item = b' ';
            }
        }
    }
    source.code = String::from_utf8(out).expect("blanking preserves UTF-8");
    let inside = |pos: usize| ranges.iter().any(|&(s, e)| pos >= s && pos < e);
    source.strings.retain(|s| !inside(s.pos));
    let line_of = |target: usize| code.bytes().take(target).filter(|&c| c == b'\n').count() + 1;
    let test_lines: Vec<(usize, usize)> = ranges
        .iter()
        .map(|&(s, e)| (line_of(s), line_of(e.min(b.len()))))
        .collect();
    source
        .annotations
        .retain(|a| !test_lines.iter().any(|&(s, e)| a.line >= s && a.line <= e));
}

/// Index of the `}` matching the `{` at `open` (over cleaned text).
fn matching_brace(b: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

fn line_of(code: &str, pos: usize) -> usize {
    code.bytes().take(pos).filter(|&c| c == b'\n').count() + 1
}

// ---------------------------------------------------------------------
// Workspace loading

struct Workspace {
    /// Lexed `crates/service/src/**/*.rs`, sorted by path.
    service_src: Vec<SourceFile>,
}

fn load(root: &Path) -> Result<Workspace, String> {
    let src_dir = root.join("crates/service/src");
    if !src_dir.is_dir() {
        return Err(format!(
            "{} is not a workspace root (missing crates/service/src)",
            root.display()
        ));
    }
    let mut files = Vec::new();
    collect_rs(&src_dir, &mut files)?;
    files.sort();
    let mut service_src = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        service_src.push(lex(&rel, &text));
    }
    Ok(Workspace { service_src })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Pass 1: lock-order

#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: usize,
    declared: bool,
}

fn pass_lock_order(ws: &Workspace, findings: &mut Vec<Finding>) {
    // Rank table from the wrapper module.
    let mut ranks: BTreeMap<String, u32> = BTreeMap::new();
    let lockorder = ws
        .service_src
        .iter()
        .find(|s| s.file.ends_with("/lockorder.rs"));
    if let Some(src) = lockorder {
        let mut from = 0;
        while let Some(at) = src.code[from..].find("const ") {
            let at = from + at;
            from = at + 6;
            let rest = &src.code[at + 6..];
            let ident: String = rest.chars().take_while(|c| is_ident(*c as u8)).collect();
            let after = &rest[ident.len()..];
            let Some(colon) = after.trim_start().strip_prefix(':') else {
                continue;
            };
            let Some(eq) = colon.find('=') else { continue };
            let value: String = colon[eq + 1..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '_')
                .collect();
            if let Ok(v) = value.replace('_', "").parse::<u32>() {
                if !colon.trim_start().starts_with("u16") {
                    continue;
                }
                if ranks.insert(ident.clone(), v).is_some() {
                    findings.push(Finding {
                        rule: "lock-order",
                        file: src.file.clone(),
                        line: line_of(&src.code, at),
                        message: format!("duplicate rank constant `{ident}`"),
                    });
                }
            }
        }
        let values: BTreeMap<u32, Vec<&String>> =
            ranks.iter().fold(BTreeMap::new(), |mut m, (k, &v)| {
                m.entry(v).or_default().push(k);
                m
            });
        for (v, names) in values {
            if names.len() > 1 {
                findings.push(Finding {
                    rule: "lock-order",
                    file: src.file.clone(),
                    line: 1,
                    message: format!(
                        "rank value {v} shared by {} — ranks must be unique to totally order the hierarchy",
                        names.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(", ")
                    ),
                });
            }
        }
    }

    // Construction sites: class string name -> rank, plus owner-field
    // and accessor-fn attribution maps for the nesting scan.
    let mut classes: BTreeMap<String, u32> = BTreeMap::new();
    let mut field_class: BTreeMap<String, Option<String>> = BTreeMap::new();
    for src in &ws.service_src {
        for needle in ["OrderedMutex::new(", "OrderedRwLock::new("] {
            let mut from = 0;
            while let Some(at) = src.code[from..].find(needle) {
                let at = from + at;
                from = at + needle.len();
                let args = &src.code[at + needle.len()..];
                let Some(const_name) = args.trim_start().strip_prefix("rank::").map(|rest| {
                    rest.chars()
                        .take_while(|c| is_ident(*c as u8))
                        .collect::<String>()
                }) else {
                    // Not a `rank::X` first argument (e.g. the wrapper's
                    // own generic impl) — skip.
                    continue;
                };
                let line = line_of(&src.code, at);
                let Some(&rank) = ranks.get(&const_name) else {
                    findings.push(Finding {
                        rule: "lock-order",
                        file: src.file.clone(),
                        line,
                        message: format!(
                            "unknown rank constant `rank::{const_name}` (not declared in lockorder.rs)"
                        ),
                    });
                    continue;
                };
                let Some(name_lit) = src
                    .strings
                    .iter()
                    .find(|s| s.pos > at && s.pos < at + needle.len() + 200)
                else {
                    continue;
                };
                let expected = const_name.to_ascii_lowercase();
                if name_lit.value != expected {
                    findings.push(Finding {
                        rule: "lock-order",
                        file: src.file.clone(),
                        line,
                        message: format!(
                            "lock class name \"{}\" does not match its rank constant `{const_name}` (expected \"{expected}\")",
                            name_lit.value
                        ),
                    });
                }
                classes.insert(name_lit.value.clone(), rank);
                if let Some(owner) = owner_ident(&src.code, at) {
                    match field_class.get(&owner) {
                        Some(Some(existing)) if existing != &name_lit.value => {
                            // Same field name holds different classes in
                            // different types (e.g. `inner`): ambiguous,
                            // excluded from attribution.
                            field_class.insert(owner, None);
                        }
                        Some(_) => {}
                        None => {
                            field_class.insert(owner, Some(name_lit.value.clone()));
                        }
                    }
                }
            }
        }
    }

    // Accessor functions returning a reference to a classified lock.
    let mut fn_class: BTreeMap<String, String> = BTreeMap::new();
    for src in &ws.service_src {
        let mut from = 0;
        while let Some(at) = src.code[from..].find("fn ") {
            let at = from + at;
            from = at + 3;
            if at > 0 && is_ident(src.code.as_bytes()[at - 1]) {
                continue;
            }
            let name: String = src.code[at + 3..]
                .chars()
                .take_while(|c| is_ident(*c as u8))
                .collect();
            if name.is_empty() {
                continue;
            }
            let Some(open_rel) = src.code[at..].find('{') else {
                continue;
            };
            let open = at + open_rel;
            let signature = &src.code[at..open];
            let returns_lock = signature
                .split("->")
                .nth(1)
                .is_some_and(|ret| ret.contains("OrderedMutex<") || ret.contains("OrderedRwLock<"));
            if !returns_lock {
                continue;
            }
            let close = matching_brace(src.code.as_bytes(), open).unwrap_or(src.code.len());
            let body = &src.code[open..close];
            let mut f = 0;
            while let Some(sat) = body[f..].find("self.") {
                let sat = f + sat;
                f = sat + 5;
                let field: String = body[sat + 5..]
                    .chars()
                    .take_while(|c| is_ident(*c as u8))
                    .collect();
                if let Some(Some(class)) = field_class.get(&field) {
                    fn_class.insert(name.clone(), class.clone());
                    break;
                }
            }
        }
    }

    // Raw lock construction outside the wrapper module.
    for src in &ws.service_src {
        if src.file.ends_with("/lockorder.rs") {
            continue;
        }
        for needle in ["Mutex::new(", "RwLock::new("] {
            let mut from = 0;
            while let Some(at) = src.code[from..].find(needle) {
                let at = from + at;
                from = at + needle.len();
                // `OrderedMutex::new(` contains `Mutex::new(`.
                if src.code[..at].ends_with("Ordered") {
                    continue;
                }
                findings.push(Finding {
                    rule: "lock-order",
                    file: src.file.clone(),
                    line: line_of(&src.code, at),
                    message: format!(
                        "raw std::sync::{} construction: service locks must be OrderedMutex/OrderedRwLock so they carry a rank",
                        needle.trim_end_matches("::new(")
                    ),
                });
            }
        }
    }

    // Nested acquisitions -> edges.
    let mut edges: Vec<Edge> = Vec::new();
    for src in &ws.service_src {
        scan_nesting(src, &field_class, &fn_class, &mut edges);
    }

    // Declared edges from annotations.
    for src in &ws.service_src {
        for ann in &src.annotations {
            let Some(inner) = ann
                .text
                .strip_prefix("lock-order(")
                .and_then(|t| t.strip_suffix(')'))
            else {
                continue;
            };
            let Some((a, b_)) = inner.split_once('<') else {
                findings.push(Finding {
                    rule: "lock-order",
                    file: src.file.clone(),
                    line: ann.line,
                    message: format!(
                        "malformed lock-order annotation `{}` (expected `lock-order(a < b)`)",
                        ann.text
                    ),
                });
                continue;
            };
            let (a, b_) = (a.trim().to_string(), b_.trim().to_string());
            let mut ok = true;
            for class in [&a, &b_] {
                if !classes.contains_key(class) {
                    findings.push(Finding {
                        rule: "lock-order",
                        file: src.file.clone(),
                        line: ann.line,
                        message: format!(
                            "lock-order annotation names unknown lock class `{class}` (no OrderedMutex/OrderedRwLock constructor declares it)"
                        ),
                    });
                    ok = false;
                }
            }
            if ok {
                edges.push(Edge {
                    from: a,
                    to: b_,
                    file: src.file.clone(),
                    line: ann.line,
                    declared: true,
                });
            }
        }
    }

    // Deduplicate, check rank consistency, then cycle-check the
    // rank-consistent remainder (inverted edges are already reported;
    // keeping them out of the graph avoids double-reporting a 2-cycle).
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut consistent: Vec<Edge> = Vec::new();
    for edge in edges {
        if !seen.insert((edge.from.clone(), edge.to.clone())) {
            continue;
        }
        let (Some(&rf), Some(&rt)) = (classes.get(&edge.from), classes.get(&edge.to)) else {
            continue;
        };
        if rf >= rt {
            findings.push(Finding {
                rule: "lock-order",
                file: edge.file.clone(),
                line: edge.line,
                message: format!(
                    "{} edge `{}` ({rf}) -> `{}` ({rt}) inverts the rank order{}",
                    if edge.declared {
                        "declared"
                    } else {
                        "observed"
                    },
                    edge.from,
                    edge.to,
                    if seen.contains(&(edge.to.clone(), edge.from.clone())) {
                        " and closes a cycle with the reverse edge"
                    } else {
                        ""
                    }
                ),
            });
        } else {
            consistent.push(edge);
        }
    }
    if let Some(cycle) = find_cycle(&consistent) {
        let first = &consistent[0];
        findings.push(Finding {
            rule: "lock-order",
            file: first.file.clone(),
            line: first.line,
            message: format!("lock-order graph contains a cycle: {}", cycle.join(" -> ")),
        });
    }
}

/// Nearest owner identifier before a constructor site: `field:` in a
/// struct literal or `name =` in a binding, within the same statement.
fn owner_ident(code: &str, site: usize) -> Option<String> {
    let start = site.saturating_sub(250);
    let b = code.as_bytes();
    let mut i = site;
    while i > start {
        i -= 1;
        match b[i] {
            b';' | b'{' | b'}' => return None,
            b':' => {
                if i > 0 && b[i - 1] == b':' {
                    i -= 1;
                    continue;
                }
                if i + 1 < b.len() && b[i + 1] == b':' {
                    continue;
                }
                return ident_before(b, i);
            }
            b'=' => {
                // Skip ==, =>, <=, >=, !=, +=, …
                let prev = if i > 0 { b[i - 1] } else { b' ' };
                let next = if i + 1 < b.len() { b[i + 1] } else { b' ' };
                if matches!(
                    prev,
                    b'=' | b'<' | b'>' | b'!' | b'+' | b'-' | b'*' | b'/' | b'|' | b'&' | b'^'
                ) || matches!(next, b'=' | b'>')
                {
                    continue;
                }
                return ident_before(b, i);
            }
            _ => {}
        }
    }
    None
}

/// The identifier ending just before `pos` (skipping spaces).
fn ident_before(b: &[u8], pos: usize) -> Option<String> {
    let mut end = pos;
    while end > 0 && (b[end - 1] == b' ' || b[end - 1] == b'\n' || b[end - 1] == b'\t') {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident(b[start - 1]) {
        start -= 1;
    }
    (start < end).then(|| String::from_utf8_lossy(&b[start..end]).into_owned())
}

#[derive(Debug)]
struct Guard {
    class: String,
    name: Option<String>,
    depth: usize,
    temp: bool,
}

/// Scans every function body in `src` for classified lock acquisitions
/// held across further acquisitions, appending an edge per nesting.
fn scan_nesting(
    src: &SourceFile,
    field_class: &BTreeMap<String, Option<String>>,
    fn_class: &BTreeMap<String, String>,
    edges: &mut Vec<Edge>,
) {
    let code = &src.code;
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find("fn ") {
        let at = from + at;
        from = at + 3;
        if at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        let Some(open_rel) = code[at..].find('{') else {
            continue;
        };
        let open = at + open_rel;
        // Nested `fn` inside a body will be rescanned on its own; the
        // approximation (outer guards appearing active inside a nested
        // fn) is acceptable because the codebase nests closures, not
        // fns, and closures genuinely inherit the enclosing guards.
        let close = matching_brace(b, open).unwrap_or(b.len());
        scan_body(src, open, close, field_class, fn_class, edges);
        from = close.min(b.len());
    }
}

fn scan_body(
    src: &SourceFile,
    open: usize,
    close: usize,
    field_class: &BTreeMap<String, Option<String>>,
    fn_class: &BTreeMap<String, String>,
    edges: &mut Vec<Edge>,
) {
    let code = &src.code;
    let b = code.as_bytes();
    let mut depth = 0usize;
    let mut active: Vec<Guard> = Vec::new();
    let mut i = open;
    while i < close {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                active.retain(|g| g.depth <= depth);
            }
            b';' => active.retain(|g| !(g.temp && g.depth == depth)),
            b'd' if code[i..].starts_with("drop(") && (i == 0 || !is_ident(b[i - 1])) => {
                let arg: String = code[i + 5..close.min(i + 60)]
                    .chars()
                    .take_while(|c| is_ident(*c as u8))
                    .collect();
                active.retain(|g| g.name.as_deref() != Some(arg.as_str()));
            }
            b'.' => {
                let method = ["lock()", "read()", "write()"]
                    .iter()
                    .find(|m| code[i + 1..].starts_with(**m));
                if let Some(method) = method {
                    if let Some(class) = resolve_receiver(b, i, field_class, fn_class) {
                        let line = line_of(code, i);
                        for g in &active {
                            edges.push(Edge {
                                from: g.class.clone(),
                                to: class.clone(),
                                file: src.file.clone(),
                                line,
                                declared: false,
                            });
                        }
                        // A chained call (`.lock().get(..)`) means the
                        // binding (if any) holds the chain's result, not
                        // the guard — the guard dies at the statement end.
                        let after = i + 1 + method.len();
                        let chained = code[after.min(close)..close].trim_start().starts_with('.');
                        let binding = if chained {
                            None
                        } else {
                            let_binding(code, open, i)
                        };
                        active.push(Guard {
                            class,
                            temp: binding.is_none(),
                            name: binding,
                            depth,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Resolves the receiver of `.lock()`/`.read()`/`.write()` at the `.`
/// to a lock class: an identifier (field or local named like a
/// classified field) or a call to a classified accessor fn.
fn resolve_receiver(
    b: &[u8],
    dot: usize,
    field_class: &BTreeMap<String, Option<String>>,
    fn_class: &BTreeMap<String, String>,
) -> Option<String> {
    let mut i = dot;
    // Skip a trailing index `[...]` back to its opening bracket.
    while i > 0 && (b[i - 1] == b']' || b[i - 1] == b')') {
        let (open_c, close_c) = if b[i - 1] == b']' {
            (b'[', b']')
        } else {
            (b'(', b')')
        };
        let mut depth = 0usize;
        let mut j = i;
        while j > 0 {
            j -= 1;
            if b[j] == close_c {
                depth += 1;
            } else if b[j] == open_c {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if close_c == b')' {
            // A call: the ident before the parens is a function name.
            let name = ident_before(b, j)?;
            return fn_class.get(&name).cloned();
        }
        i = j;
    }
    let name = ident_before(b, i)?;
    field_class.get(&name).cloned().flatten()
}

/// If the statement containing position `at` starts with `let [mut] x`,
/// returns `x` — the guard binding that keeps the lock held past the
/// statement.
fn let_binding(code: &str, body_open: usize, at: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut start = at;
    while start > body_open {
        match b[start - 1] {
            b';' | b'{' | b'}' => break,
            _ => start -= 1,
        }
    }
    let stmt = code[start..at].trim_start();
    let rest = stmt.strip_prefix("let ")?;
    let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| is_ident(*c as u8))
        .collect();
    (!name.is_empty()).then_some(name)
}

/// A cycle in the edge graph, as a class path, if any.
fn find_cycle(edges: &[Edge]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
    }
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        if done.contains(start) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        on_path.insert(start);
        while let Some((node, next)) = stack.last_mut() {
            let succs = adj.get(*node).map(Vec::as_slice).unwrap_or(&[]);
            if *next < succs.len() {
                let succ = succs[*next];
                *next += 1;
                if on_path.contains(succ) {
                    let from = path.iter().position(|&n| n == succ).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        path[from..].iter().map(|s| s.to_string()).collect();
                    cycle.push(succ.to_string());
                    return Some(cycle);
                }
                if !done.contains(succ) {
                    stack.push((succ, 0));
                    path.push(succ);
                    on_path.insert(succ);
                }
            } else {
                done.insert(node);
                on_path.remove(*node);
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Pass 2: panic-path

/// Request-serving files audited for panic reachability.
const PANIC_AUDIT_FILES: &[&str] = &[
    "engine.rs",
    "server.rs",
    "pool.rs",
    "session.rs",
    "guard.rs",
];

fn pass_panic_path(ws: &Workspace, findings: &mut Vec<Finding>) {
    for src in &ws.service_src {
        let audited = PANIC_AUDIT_FILES
            .iter()
            .any(|f| src.file.ends_with(&format!("/{f}")));
        if !audited {
            continue;
        }
        let allowed = allowed_lines(src);
        let code = &src.code;
        let b = code.as_bytes();
        for needle in [
            ".unwrap()",
            ".expect(",
            "panic!(",
            "unreachable!(",
            "todo!(",
            "unimplemented!(",
        ] {
            let mut from = 0;
            while let Some(at) = code[from..].find(needle) {
                let at = from + at;
                from = at + needle.len();
                if !needle.starts_with('.') && at > 0 && is_ident(b[at - 1]) {
                    continue; // e.g. `debug_panic!` or a suffix match
                }
                let line = line_of(code, at);
                if allowed.contains(&line) {
                    continue;
                }
                findings.push(Finding {
                    rule: "panic-path",
                    file: src.file.clone(),
                    line,
                    message: format!(
                        "`{}` in a request-serving path: return a typed internal error, or annotate `// analyze: allow(panic, reason)` if provably unreachable",
                        needle.trim_end_matches(['(', ')'])
                    ),
                });
            }
        }
        // Slice/array indexing: `expr[…]` panics on out-of-bounds.
        for (i, &c) in b.iter().enumerate() {
            if c != b'[' {
                continue;
            }
            let Some(prev) = (i > 0).then(|| b[i - 1]) else {
                continue;
            };
            if !(is_ident(prev) || prev == b')' || prev == b']') {
                continue;
            }
            // `#[attr]` and types never have an ident directly before
            // `[`; macro brackets like `vec![…]` do (`!` excluded).
            let line = line_of(code, i);
            if allowed.contains(&line) {
                continue;
            }
            findings.push(Finding {
                rule: "panic-path",
                file: src.file.clone(),
                line,
                message: "slice/array index in a request-serving path can panic out-of-bounds: use get()/annotate `// analyze: allow(panic, reason)` if the bound is provable".to_string(),
            });
        }
    }
}

/// Lines covered by an `// analyze: allow(panic, …)` annotation: the
/// annotation's own line, plus (for a comment on its own line) the
/// following statement through its terminating `;`/`{`.
fn allowed_lines(src: &SourceFile) -> BTreeSet<usize> {
    let mut allowed = BTreeSet::new();
    let lines: Vec<&str> = src.code.lines().collect();
    for ann in &src.annotations {
        if !ann.text.starts_with("allow(panic") {
            continue;
        }
        allowed.insert(ann.line);
        // Find the next line with code, then extend through the end of
        // that statement (the first line containing `;` or `{`).
        let mut l = ann.line; // 1-based; lines[l] is the next line
        while l < lines.len() && lines[l].trim().is_empty() {
            l += 1;
        }
        let mut covered = 0;
        while l < lines.len() && covered < 8 {
            allowed.insert(l + 1);
            if lines[l].contains(';') || lines[l].contains('{') {
                break;
            }
            l += 1;
            covered += 1;
        }
    }
    allowed
}

// ---------------------------------------------------------------------
// Entry point

/// Runs both passes over the workspace rooted at `root`, returning
/// findings sorted by (file, line, rule). `Err` means the root does not
/// look like the workspace (missing directories/files), not a finding.
pub fn analyze(root: &Path) -> Result<Vec<Finding>, String> {
    let ws = load(root)?;
    let mut findings = Vec::new();
    pass_lock_order(&ws, &mut findings);
    pass_panic_path(&ws, &mut findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Renders findings as a JSON array (stable field order), without any
/// external dependency.
pub fn to_json(findings: &[Finding]) -> String {
    let escape = |s: &str| {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    };
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                f.rule,
                escape(&f.file),
                f.line,
                escape(&f.message)
            )
        })
        .collect();
    if rows.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_blanks_comments_and_strings() {
        let src = lex(
            "t.rs",
            "let a = \"lit\"; // analyze: allow(panic, x)\nlet b = 'c'; /* multi\nline */ let c = r#\"raw\"#;",
        );
        assert!(src.code.contains("let a ="));
        assert!(!src.code.contains("lit"));
        assert!(!src.code.contains("multi"));
        assert_eq!(src.strings.len(), 2);
        assert_eq!(src.strings[0].value, "lit");
        assert_eq!(src.strings[1].value, "raw");
        assert_eq!(src.annotations.len(), 1);
        assert_eq!(src.annotations[0].text, "allow(panic, x)");
        assert_eq!(src.code.lines().count(), 3);
    }

    #[test]
    fn test_blocks_are_stripped() {
        let src = lex(
            "t.rs",
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); \"s\" }\n}\n",
        );
        assert!(src.code.contains("x.unwrap()"));
        assert!(!src.code.contains("y.unwrap()"));
        assert!(src.strings.is_empty());
    }

    #[test]
    fn line_continuation_escapes_keep_line_numbers_aligned() {
        let src = lex(
            "t.rs",
            "let a = \"one \\\n    two\";\n// analyze: allow(panic, x)\n",
        );
        assert_eq!(src.annotations.len(), 1);
        assert_eq!(src.annotations[0].line, 3);
    }

    #[test]
    fn cycle_detection_finds_a_loop() {
        let mk = |from: &str, to: &str| Edge {
            from: from.into(),
            to: to.into(),
            file: "f".into(),
            line: 1,
            declared: false,
        };
        assert!(find_cycle(&[mk("a", "b"), mk("b", "c")]).is_none());
        let cycle = find_cycle(&[mk("a", "b"), mk("b", "c"), mk("c", "a")]).unwrap();
        assert!(cycle.len() >= 3);
    }

    #[test]
    fn owner_attribution_reads_fields_and_lets() {
        let code = "Self { results: OrderedMutex::new(rank::A, ";
        let site = code.find("OrderedMutex").unwrap();
        assert_eq!(owner_ident(code, site).as_deref(), Some("results"));
        let code = "let writer = OrderedMutex::new(rank::B, ";
        let site = code.find("OrderedMutex").unwrap();
        assert_eq!(owner_ident(code, site).as_deref(), Some("writer"));
        let code = "shards: (0..N).map(|_| OrderedMutex::new(rank::C, ";
        let site = code.find("OrderedMutex").unwrap();
        assert_eq!(owner_ident(code, site).as_deref(), Some("shards"));
    }
}
