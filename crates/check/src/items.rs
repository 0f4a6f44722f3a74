//! Item pass: function/impl/mod boundaries, attribute capture, test
//! regions, and `// ft-check:` marker comments, built on the
//! [`crate::lexer`] token stream.
//!
//! This is deliberately a *boundary* pass, not an AST: it finds where
//! functions start and end (by brace matching), which attributes and
//! marker comments they carry, which type an inherent method belongs
//! to, and which token ranges are test-gated. That is exactly the
//! information the semantic rules (FTC007–FTC012) need, and nothing
//! more. The old scanner's known hole — a `#[test]` fn outside a
//! `#[cfg(test)]` mod counted as library code because the line mask
//! only recognized `#[cfg(` — is closed here: `#[test]`, `#[cfg(test)]`
//! and `#[cfg(all(test, …))]` all produce test regions, attached to the
//! item they annotate regardless of line layout.

use crate::lexer::{Comment, Lexed, Tok};

/// One parsed function item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing inherent-impl type, when the fn is a method.
    pub self_ty: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub line: u32,
    /// 0-based column of the `fn` keyword.
    pub col: u32,
    /// First line of the item (its first attribute, or the `fn` line) —
    /// marker comments attach directly above this.
    pub start_line: u32,
    /// Attribute texts, delimiters stripped, tokens concatenated
    /// (`cfg(test)`, `target_feature(enable="avx2",enable="fma")`).
    pub attrs: Vec<String>,
    /// `true` when the fn is test-only: `#[test]`/`#[cfg(test)]` on the
    /// fn itself or any enclosing item.
    pub in_test: bool,
    /// `true` when the fn carries `#[target_feature(...)]`.
    pub target_feature: bool,
    /// `// ft-check: <marker>` annotations directly above the item.
    pub markers: Vec<String>,
    /// Token indices of the body's `{` and matching `}` (`None` for a
    /// bodiless trait-method declaration).
    pub body: Option<(usize, usize)>,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
}

impl FnItem {
    /// `Type::name` for methods, bare `name` otherwise.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// `true` when the item carries this `// ft-check:` marker.
    pub fn has_marker(&self, m: &str) -> bool {
        self.markers.iter().any(|x| x == m)
    }
}

/// All items of one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Functions, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Token-index ranges (inclusive) gated behind `#[cfg(test)]` or
    /// `#[test]`, covering the attribute through the item's last token.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileItems {
    /// `true` when token `idx` lies in a test-gated region.
    pub fn tok_in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// The innermost fn whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (k, f) in self.fns.iter().enumerate() {
            if let Some((open, close)) = f.body {
                if idx > open && idx < close {
                    let better = match best {
                        Some(b) => {
                            let (bo, _) = self.fns[b].body.unwrap_or((0, usize::MAX));
                            open > bo
                        }
                        None => true,
                    };
                    if better {
                        best = Some(k);
                    }
                }
            }
        }
        best
    }
}

/// `true` when `attr` (concatenated token text) gates on `cfg(test)` —
/// `cfg(test)`, `cfg(all(test,loom))` — but not `cfg(not(test))`.
fn is_cfg_test(attr: &str) -> bool {
    attr.starts_with("cfg(") && contains_word(attr, "test") && !attr.contains("not(test")
}

/// Word-boundary containment over identifier characters.
fn contains_word(hay: &str, word: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(word) {
        let at = from + pos;
        let before = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before && after {
            return true;
        }
        from = at + word.len();
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Computes, for every `{` token, the index of its matching `}`.
fn match_braces(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut pairs = vec![None; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                pairs[open] = Some(i);
            }
        }
    }
    pairs
}

/// Modifier keywords that may sit between an attribute and its item.
fn is_item_modifier(s: &str) -> bool {
    matches!(
        s,
        "pub" | "unsafe" | "const" | "async" | "extern" | "default" | "crate" | "in" | "super"
    )
}

/// Parses the token stream into items. Single forward pass plus brace
/// matching; never fails (unparseable stretches simply yield no items).
pub fn parse(lexed: &Lexed) -> FileItems {
    let toks = &lexed.toks;
    let pairs = match_braces(toks);
    let mut out = FileItems::default();
    // (body range, type name) per impl block, for method attribution.
    let mut impls: Vec<(usize, usize, String)> = Vec::new();

    struct Pending {
        texts: Vec<String>,
        first_line: u32,
        first_tok: usize,
    }
    let mut pending: Option<Pending> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Attribute: `#[...]` (outer) or `#![...]` (inner, ignored).
        if t.is_punct("#") {
            let (inner, open) = if toks.get(i + 1).is_some_and(|t| t.is_punct("!")) {
                (true, i + 2)
            } else {
                (false, i + 1)
            };
            if toks.get(open).is_some_and(|t| t.is_punct("[")) {
                let mut depth = 0i32;
                let mut j = open;
                let mut text = String::new();
                while j < toks.len() {
                    let tj = &toks[j];
                    if tj.is_punct("[") {
                        depth += 1;
                        if depth > 1 {
                            text.push('[');
                        }
                    } else if tj.is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                        text.push(']');
                    } else if depth >= 1 {
                        if tj.kind == crate::lexer::TokKind::Str {
                            text.push('"');
                            text.push_str(&tj.text);
                            text.push('"');
                        } else {
                            text.push_str(&tj.text);
                        }
                    }
                    j += 1;
                }
                if !inner {
                    let p = pending.get_or_insert(Pending {
                        texts: Vec::new(),
                        first_line: t.line,
                        first_tok: i,
                    });
                    p.texts.push(text);
                }
                i = j + 1;
                continue;
            }
        }
        if t.kind == crate::lexer::TokKind::Ident {
            match t.text.as_str() {
                "fn" => {
                    let Some(name_tok) = toks.get(i + 1) else {
                        i += 1;
                        continue;
                    };
                    if name_tok.kind != crate::lexer::TokKind::Ident {
                        // `fn(usize) -> usize` pointer type, not an item.
                        pending = None;
                        i += 1;
                        continue;
                    }
                    // Scan the signature for the body `{` or a `;`
                    // outside brackets (the one in `[T; N]` is a type).
                    let mut j = i + 2;
                    let mut body = None;
                    let mut brackets = 0i32;
                    while let Some(tj) = toks.get(j) {
                        if tj.is_punct("{") {
                            body = pairs[j].map(|close| (j, close));
                            break;
                        }
                        if tj.is_punct("[") {
                            brackets += 1;
                        } else if tj.is_punct("]") {
                            brackets -= 1;
                        } else if tj.is_punct(";") && brackets == 0 {
                            break;
                        }
                        j += 1;
                    }
                    let p = pending.take();
                    let attrs = p.as_ref().map(|p| p.texts.clone()).unwrap_or_default();
                    let start_line = p.as_ref().map(|p| p.first_line).unwrap_or(t.line);
                    let attr_tok = p.as_ref().map(|p| p.first_tok).unwrap_or(i);
                    let own_test = attrs
                        .iter()
                        .any(|a| a == "test" || a.starts_with("test::") || is_cfg_test(a));
                    if own_test {
                        let end = body.map(|(_, c)| c).unwrap_or(j);
                        out.test_ranges.push((attr_tok, end));
                    }
                    out.fns.push(FnItem {
                        name: name_tok.text.clone(),
                        self_ty: None, // attributed below
                        line: t.line,
                        col: t.col,
                        start_line,
                        target_feature: attrs.iter().any(|a| a.starts_with("target_feature")),
                        attrs,
                        in_test: false, // computed below
                        markers: Vec::new(),
                        body,
                        fn_tok: i,
                    });
                    i += 1;
                }
                "impl" => {
                    let p = pending.take();
                    // Skip the generic parameter list, if any.
                    let mut j = i + 1;
                    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
                        let mut depth = 0i32;
                        while let Some(tj) = toks.get(j) {
                            if tj.is_punct("<") {
                                depth += 1;
                            } else if tj.is_punct(">") && !(j > 0 && toks[j - 1].is_punct("-")) {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                    // Self type: the ident after `for` when present, else
                    // the first type ident of the header.
                    let mut name = None;
                    let mut after_for = None;
                    let mut body_open = None;
                    let mut k = j;
                    while let Some(tk) = toks.get(k) {
                        if tk.is_punct("{") {
                            body_open = Some(k);
                            break;
                        }
                        if tk.is_punct(";") {
                            break;
                        }
                        if tk.kind == crate::lexer::TokKind::Ident {
                            if tk.text == "for" {
                                after_for = Some(k);
                            } else if name.is_none() && tk.text != "dyn" {
                                name = Some(tk.text.clone());
                            } else if let Some(fk) = after_for {
                                if k == fk + 1 {
                                    name = Some(tk.text.clone());
                                }
                            }
                        }
                        k += 1;
                    }
                    if let (Some(open), Some(n)) = (body_open, name) {
                        if let Some(close) = pairs[open] {
                            impls.push((open, close, n));
                            if p.as_ref()
                                .is_some_and(|p| p.texts.iter().any(|a| is_cfg_test(a)))
                            {
                                let start = p.as_ref().map(|p| p.first_tok).unwrap_or(i);
                                out.test_ranges.push((start, close));
                            }
                        }
                    }
                    i += 1;
                }
                "mod" | "struct" | "enum" | "trait" | "union" | "macro_rules" => {
                    // A cfg(test)-gated container puts its whole body in
                    // a test range.
                    let p = pending.take();
                    if p.as_ref()
                        .is_some_and(|p| p.texts.iter().any(|a| is_cfg_test(a)))
                    {
                        let mut j = i + 1;
                        while let Some(tj) = toks.get(j) {
                            if tj.is_punct("{") {
                                if let Some(close) = pairs[j] {
                                    let start = p.as_ref().map(|p| p.first_tok).unwrap_or(i);
                                    out.test_ranges.push((start, close));
                                }
                                break;
                            }
                            if tj.is_punct(";") {
                                break;
                            }
                            j += 1;
                        }
                    }
                    i += 1;
                }
                other if is_item_modifier(other) => {
                    // `pub`, `unsafe`, … may sit between attr and item.
                    i += 1;
                }
                _ => {
                    // Any other identifier ends a pending attribute run
                    // (it annotated a statement, not an item we track).
                    pending = None;
                    i += 1;
                }
            }
            continue;
        }
        // Punctuation between an attribute and its item (`pub(crate)`
        // parens) is tolerated; anything else is statement-level.
        if !(t.is_punct("(") || t.is_punct(")")) {
            pending = None;
        }
        i += 1;
    }

    // Method attribution: innermost impl whose body contains the fn.
    for f in &mut out.fns {
        let mut best: Option<&(usize, usize, String)> = None;
        for imp in &impls {
            if f.fn_tok > imp.0 && f.fn_tok < imp.1 {
                let tighter = best.map(|b| imp.0 > b.0).unwrap_or(true);
                if tighter {
                    best = Some(imp);
                }
            }
        }
        f.self_ty = best.map(|(_, _, n)| n.clone());
    }

    // in_test: own attrs or any enclosing test range.
    out.test_ranges.sort_unstable();
    let in_test: Vec<bool> = out.fns.iter().map(|f| out.tok_in_test(f.fn_tok)).collect();
    for (f, t) in out.fns.iter_mut().zip(in_test) {
        f.in_test = f.in_test || t;
    }

    // Marker comments: contiguous `//` block directly above the item's
    // first line (attributes included in "the item").
    for f in &mut out.fns {
        let mut line = f.start_line;
        while let Some(c) = comment_ending_at(&lexed.comments, line) {
            if let Some(m) = marker_of(c) {
                f.markers.push(m);
            }
            if c.line == 0 {
                break;
            }
            line = c.line;
        }
    }
    out
}

/// The comment whose last line is directly above `line`, if any.
fn comment_ending_at(comments: &[Comment], line: u32) -> Option<&Comment> {
    if line == 0 {
        return None;
    }
    comments.iter().find(|c| c.end_line + 1 == line)
}

/// Extracts `<marker>` from a `// ft-check: <marker>` comment.
fn marker_of(c: &Comment) -> Option<String> {
    let rest = c.text.trim().strip_prefix("ft-check:")?;
    let word = rest.split_whitespace().next()?;
    Some(word.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        parse(&lex(src))
    }

    #[test]
    fn finds_fns_with_attrs_and_bodies() {
        let it = items("#[inline]\npub fn alpha() { beta(); }\nfn beta() {}\nfn decl();\n");
        assert_eq!(it.fns.len(), 3);
        assert_eq!(it.fns[0].name, "alpha");
        assert_eq!(it.fns[0].attrs, vec!["inline"]);
        assert!(it.fns[0].body.is_some());
        assert!(it.fns[2].body.is_none());
    }

    #[test]
    fn test_attr_gates_the_fn_regardless_of_cfg() {
        // The old line-mask only saw `#[cfg(` — `#[test]` alone leaked.
        let it = items("#[test]\nfn t() { let x = 1; }\nfn lib() {}\n");
        assert!(it.fns[0].in_test, "plain #[test] must gate the fn");
        assert!(!it.fns[1].in_test);
    }

    #[test]
    fn cfg_test_mod_gates_everything_inside() {
        let it = items(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    fn helper() {}\n}\n",
        );
        assert!(!it.fns[0].in_test);
        assert!(it.fns[1].in_test, "helper inside cfg(test) mod");
    }

    #[test]
    fn not_test_is_not_a_test_gate() {
        let it = items("#[cfg(not(test))]\nfn real() {}\n");
        assert!(!it.fns[0].in_test);
    }

    #[test]
    fn multiline_attr_is_captured() {
        let it = items(
            "#[target_feature(\n    enable = \"avx2\",\n    enable = \"fma\"\n)]\nfn kern() {}\n",
        );
        assert!(it.fns[0].target_feature);
    }

    #[test]
    fn impl_methods_get_their_type() {
        let it = items(
            "struct Ring;\nimpl Ring {\n    fn record(&self) {}\n}\nimpl Drop for Ring {\n    fn drop(&mut self) {}\n}\nimpl<T> Holder<T> {\n    fn put(&self) {}\n}\n",
        );
        assert_eq!(it.fns[0].qual_name(), "Ring::record");
        assert_eq!(it.fns[1].qual_name(), "Ring::drop");
        assert_eq!(it.fns[2].qual_name(), "Holder::put");
    }

    #[test]
    fn markers_attach_through_attr_and_comment_runs() {
        let it =
            items("// ft-check: hot\n#[inline]\nfn tile() {}\n\n// unrelated\nfn other() {}\n");
        assert!(it.fns[0].has_marker("hot"));
        assert!(it.fns[1].markers.is_empty());
    }
}
