//! The per-file item index: which `fn` item a source line belongs to.
//!
//! On top of the token stream ([`crate::lexer`]) this module recognizes
//! `fn` items and their body spans, which is what the function-scoped rules
//! need: D5 taints identifiers per function, D6 orders a function's guard
//! and resolution calls. Nothing is resolved across functions or files.

use crate::lexer::{Token, TokenKind};

/// One `fn` item recognized in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's bare name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the body's closing brace (or the `;` for bodiless
    /// trait-method declarations).
    pub end_line: usize,
}

/// The item index of one file.
#[derive(Debug, Clone, Default)]
pub struct ItemIndex {
    /// Functions in source order. Nested items appear after their parent
    /// with narrower line ranges.
    pub functions: Vec<FnItem>,
}

impl ItemIndex {
    /// The innermost function whose line range contains `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnItem> {
        self.functions
            .iter()
            .filter(|f| f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }
}

/// Builds the item index of one file from its token stream.
pub fn build_items(src: &str, tokens: &[Token]) -> ItemIndex {
    // Work over significant tokens only (comments out; literals stay so
    // spans line up, but they never look like idents or braces).
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let text = |i: usize| sig[i].text(src);
    let is_punct = |i: usize, p: &str| sig[i].kind == TokenKind::Punct && text(i) == p;

    let mut index = ItemIndex::default();
    // Per open brace: the function whose body it opens (`None` for a plain
    // block, module or impl).
    let mut scopes: Vec<Option<usize>> = Vec::new();
    // A `fn` header seen but whose body brace hasn't opened yet.
    let mut pending: Option<usize> = None;
    let mut i = 0usize;
    while i < sig.len() {
        let is_fn = sig[i].kind == TokenKind::Ident && text(i) == "fn";
        let name_tok = sig
            .get(i + 1)
            .filter(|t| is_fn && t.kind == TokenKind::Ident);
        if let Some(name_tok) = name_tok {
            index.functions.push(FnItem {
                name: name_tok.text(src).to_string(),
                start_line: sig[i].line,
                end_line: sig[i].line,
            });
            let fn_idx = index.functions.len() - 1;
            // Signature runs to the body `{` or a `;` (trait decl),
            // tracking nesting so `where` clauses and default args
            // don't fool it.
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut paren = 0i32;
            while j < sig.len() {
                if sig[j].kind == TokenKind::Punct {
                    match text(j) {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "(" | "[" => paren += 1,
                        ")" | "]" => paren -= 1,
                        "{" if angle <= 0 && paren <= 0 => break,
                        ";" if angle <= 0 && paren <= 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            if j < sig.len() && is_punct(j, ";") {
                // Bodiless declaration: line range is the signature.
                index.functions[fn_idx].end_line = sig[j].line;
                i = j + 1;
                continue;
            }
            pending = Some(fn_idx);
            i = j;
            continue;
        }
        if is_punct(i, "{") {
            scopes.push(pending.take());
        } else if is_punct(i, "}") {
            if let Some(Some(fi)) = scopes.pop() {
                index.functions[fi].end_line = sig[i].line;
            }
        }
        i += 1;
    }
    // Unclosed scopes (truncated input): close function line ranges at the
    // last token's line.
    if let Some(last) = sig.last() {
        for fi in scopes.into_iter().flatten() {
            index.functions[fi].end_line = index.functions[fi].end_line.max(last.line);
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> ItemIndex {
        build_items(src, &lex(src))
    }

    #[test]
    fn recognizes_free_impl_and_bodiless_fns_with_their_line_ranges() {
        let src = "pub fn free() {}\n\
                   struct Foo;\n\
                   impl<S: Trait> Foo<S> {\n    pub fn method(&self) {\n        helper();\n    }\n}\n\
                   trait T {\n    fn declared(&self);\n}\n\
                   fn helper() {}\n";
        let idx = items(src);
        let spans: Vec<(&str, usize, usize)> = idx
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.start_line, f.end_line))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("free", 1, 1),
                ("method", 4, 6),
                ("declared", 9, 9),
                ("helper", 11, 11)
            ]
        );
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        body();\n    }\n    tail();\n}\n";
        let idx = items(src);
        assert_eq!(idx.enclosing_fn(3).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(idx.enclosing_fn(5).map(|f| f.name.as_str()), Some("outer"));
        assert!(idx.enclosing_fn(99).is_none());
    }
}
