//! Lightweight syntax recovery over the token stream.
//!
//! Most rules match local token shapes — a `partial_cmp` after a dot,
//! `lock()` receivers — and never need to know *which function* a token
//! lives in. The determinism-zone rule (R6) does: it asks for "no
//! hash-order iteration in any function *reachable from* the
//! deterministic search paths", and it wants the declared type of a
//! method call's receiver. This module recovers just enough structure
//! for those flow-insensitive questions — items, `impl` context, `fn`
//! signatures, body extents, local `let` bindings with syntactic type
//! heads, struct fields, and call/method-chain expressions. It is **not** a Rust
//! grammar: expressions are never tree-shaped here, and anything
//! ambiguous degrades to "unknown", which the rules treat conservatively.
//!
//! The parser never fails: malformed input (already lexable, or it would
//! not get here) produces a partial [`ParsedFile`], and rules built on
//! partial syntax simply see fewer facts.

use crate::lexer::{ident_text, is_ident, is_punct, Tok, TokKind};

/// One recognized call site inside a function body.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSyntax {
    /// Callee's final path segment (`recommend` in `advisor::recommend(..)`,
    /// `iter` in `xs.iter()`).
    pub name: String,
    /// The path segment immediately before the final `::`, when the call
    /// is path-qualified (`Advisor` in `Advisor::new(..)`, `counters` in
    /// `counters::incr(..)`). `None` for bare calls and method calls.
    pub qualifier: Option<String>,
    /// Whether the call is a method call (`.name(..)`).
    pub method: bool,
    /// For method calls, the identifier immediately before the dot when
    /// the receiver ends in one (`map` in `self.map.iter()`); used to look
    /// up binding/field types.
    pub receiver: Option<String>,
    /// 1-based source line.
    pub line: u32,
}

/// A name with a syntactic type head: `x: HashMap<..>` has head `HashMap`,
/// `let y = BTreeMap::new()` has head `BTreeMap`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedName {
    /// Binding, parameter, or field name.
    pub name: String,
    /// First meaningful identifier of the declared/constructed type
    /// (references, `mut`, and `dyn`/`impl` skipped). Empty when unknown.
    pub type_head: String,
}

/// One `for <pat> in <expr> { .. }` header.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoopSyntax {
    /// Last identifier of the iterated expression before the body brace
    /// (`map` in `for k in &self.map {`), when there is one.
    pub iterated: Option<String>,
    /// Whether the iterated expression ends in a call (`for x in xs.iter()`
    /// — the call itself is separately recorded as a [`CallSyntax`]).
    pub iterated_call: bool,
    /// 1-based line of the `for` keyword.
    pub line: u32,
}

/// One recovered `fn` item.
#[derive(Debug, Clone)]
pub struct FnSyntax {
    /// Plain function name.
    pub name: String,
    /// `Type::name` when the fn sits inside `impl Type` / `impl Tr for Type`.
    pub qualified: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters with syntactic type heads (`self` receivers skipped).
    pub params: Vec<TypedName>,
    /// `let` bindings in the body with recoverable type heads.
    pub locals: Vec<TypedName>,
    /// Calls made anywhere in the body (innermost enclosing fn wins for
    /// nested items).
    pub calls: Vec<CallSyntax>,
    /// `for .. in ..` headers in the body.
    pub for_loops: Vec<ForLoopSyntax>,
    /// Token index range of the body `{ .. }` (inclusive of both braces);
    /// `None` for body-less trait method declarations.
    pub body: Option<(usize, usize)>,
}

/// Everything recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Functions in source order (nested fns appear after their parent).
    pub fns: Vec<FnSyntax>,
    /// Struct fields with type heads, across every struct in the file.
    pub fields: Vec<TypedName>,
}

/// Index of the `}` matching the `{` at `open` (balanced over all bracket
/// kinds is unnecessary — braces only). Returns the last token on
/// imbalance.
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if is_punct(&toks[i], "{") {
            depth += 1;
        } else if is_punct(&toks[i], "}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// First meaningful identifier of a type expression starting at `i`
/// (skips `&`, lifetimes, `mut`, `dyn`, `impl`, parens). Follows leading
/// path segments to keep `std::collections::HashMap` → `HashMap`.
fn type_head(toks: &[Tok], mut i: usize, end: usize) -> String {
    let mut head = String::new();
    while i < end {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct(p) if p == "&" || p == "(" || p == "*" => i += 1,
            TokKind::Lifetime(_) => i += 1,
            TokKind::Ident(s) if s == "mut" || s == "dyn" || s == "impl" || s == "const" => i += 1,
            TokKind::Ident(s) => {
                head = s.clone();
                // Follow `seg::seg::Final` to the last segment before a
                // non-path token.
                let mut j = i + 1;
                while j + 1 < end && is_punct(&toks[j], "::") {
                    match ident_text(&toks[j + 1]) {
                        Some(next) => {
                            head = next.to_string();
                            j += 2;
                        }
                        None => break,
                    }
                }
                return head;
            }
            _ => return head,
        }
    }
    head
}

/// Parses the parameter list between the parens starting at `open` (the
/// `(` index). `self` receivers are skipped.
fn parse_params(toks: &[Tok], open: usize) -> (Vec<TypedName>, usize) {
    let mut params = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    // Entry boundaries: commas at paren-depth 1.
    let mut entry_start = open + 1;
    let close;
    loop {
        if i >= toks.len() {
            close = toks.len().saturating_sub(1);
            break;
        }
        let t = &toks[i];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") || is_punct(t, "<") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") || is_punct(t, ">") {
            depth = depth.saturating_sub(1);
            if depth == 0 && is_punct(t, ")") {
                push_param(toks, entry_start, i, &mut params);
                close = i;
                break;
            }
        } else if is_punct(t, ",") && depth == 1 {
            push_param(toks, entry_start, i, &mut params);
            entry_start = i + 1;
        }
        i += 1;
    }
    (params, close)
}

fn push_param(toks: &[Tok], start: usize, end: usize, params: &mut Vec<TypedName>) {
    if start >= end {
        return;
    }
    // Find `name : Type`; skip `self` receivers and `mut`/`ref` markers.
    let mut name = None;
    let mut k = start;
    while k < end {
        match ident_text(&toks[k]) {
            Some("mut") | Some("ref") => k += 1,
            Some("self") => return,
            Some(n) => {
                name = Some(n.to_string());
                break;
            }
            None => k += 1,
        }
    }
    let Some(name) = name else { return };
    // Colon after the name introduces the type.
    let mut c = k + 1;
    while c < end && !is_punct(&toks[c], ":") {
        c += 1;
    }
    if c + 1 >= end {
        return;
    }
    params.push(TypedName {
        name,
        type_head: type_head(toks, c + 1, end),
    });
}

/// Recovers items, fn signatures, bindings, and call expressions.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // Stack of (impl type, closing-brace index).
    let mut impls: Vec<(String, usize)> = Vec::new();
    // Indices of fns in `out.fns` whose bodies are still open, innermost
    // last, paired with the body's closing-brace index.
    let mut open_fns: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        impls.retain(|&(_, end)| i <= end);
        open_fns.retain(|&(_, end)| i <= end);
        let t = &toks[i];
        // `impl [<..>] [Trait for] Type { .. }`
        if is_ident(t, "impl") {
            let mut j = i + 1;
            let mut ty = String::new();
            let mut after_for = false;
            while j < toks.len() && !is_punct(&toks[j], "{") && !is_punct(&toks[j], ";") {
                if is_ident(&toks[j], "for") {
                    after_for = true;
                    ty.clear();
                } else if is_ident(&toks[j], "where") {
                    break;
                } else if let Some(name) = ident_text(&toks[j]) {
                    // First segment after `impl`/`for` wins; generic params
                    // inside `<..>` would also match, so only take the
                    // first ident seen (or first after `for`).
                    if ty.is_empty() && name != "mut" && name != "dyn" {
                        ty = name.to_string();
                        // Follow path segments to the final type name.
                        let mut k = j + 1;
                        while k + 1 < toks.len() && is_punct(&toks[k], "::") {
                            match ident_text(&toks[k + 1]) {
                                Some(seg) => {
                                    ty = seg.to_string();
                                    k += 2;
                                }
                                None => break,
                            }
                        }
                    }
                }
                let _ = after_for;
                j += 1;
            }
            while j < toks.len() && !is_punct(&toks[j], "{") && !is_punct(&toks[j], ";") {
                j += 1;
            }
            if j < toks.len() && is_punct(&toks[j], "{") && !ty.is_empty() {
                impls.push((ty, matching_brace(toks, j)));
            }
            i = j + 1;
            continue;
        }
        // `struct Name { field: Type, .. }`
        if is_ident(t, "struct")
            && toks.get(i + 1).and_then(ident_text).is_some()
            && open_fns.is_empty()
        {
            let mut j = i + 2;
            while j < toks.len()
                && !is_punct(&toks[j], "{")
                && !is_punct(&toks[j], ";")
                && !is_punct(&toks[j], "(")
            {
                j += 1;
            }
            if j < toks.len() && is_punct(&toks[j], "{") {
                collect_fields(toks, j, matching_brace(toks, j), &mut out.fields);
            }
            i = j;
            continue;
        }
        // `fn name(params) [-> Ret] { body }`
        if is_ident(t, "fn") {
            if let Some(name) = toks.get(i + 1).and_then(ident_text) {
                let mut j = i + 2;
                // Skip generics to the parameter parens.
                while j < toks.len() && !is_punct(&toks[j], "(") && !is_punct(&toks[j], "{") {
                    j += 1;
                }
                if j < toks.len() && is_punct(&toks[j], "(") {
                    let (params, close) = parse_params(toks, j);
                    // Signature tail to `{` or `;`.
                    let mut b = close + 1;
                    let mut sig_depth = 0usize;
                    while b < toks.len() {
                        let bt = &toks[b];
                        if is_punct(bt, "(") || is_punct(bt, "[") {
                            sig_depth += 1;
                        } else if is_punct(bt, ")") || is_punct(bt, "]") {
                            sig_depth = sig_depth.saturating_sub(1);
                        } else if sig_depth == 0 && (is_punct(bt, "{") || is_punct(bt, ";")) {
                            break;
                        }
                        b += 1;
                    }
                    let body = (b < toks.len() && is_punct(&toks[b], "{"))
                        .then(|| (b, matching_brace(toks, b)));
                    let qualified = impls.last().map(|(ty, _)| format!("{ty}::{name}"));
                    out.fns.push(FnSyntax {
                        name: name.to_string(),
                        qualified,
                        line: t.line,
                        params,
                        locals: Vec::new(),
                        calls: Vec::new(),
                        for_loops: Vec::new(),
                        body,
                    });
                    if let Some((lo, hi)) = body {
                        open_fns.push((out.fns.len() - 1, hi));
                        i = lo + 1;
                        continue;
                    }
                    i = b + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        // Body-level facts attribute to the innermost open fn.
        if let Some(&(fi, _)) = open_fns.last() {
            // `let [mut] name [: Type] [= Expr]`
            if is_ident(t, "let") {
                let mut k = i + 1;
                let mut name = None;
                while k < toks.len() {
                    match ident_text(&toks[k]) {
                        Some("mut") | Some("ref") => k += 1,
                        Some(n) => {
                            name = Some(n.to_string());
                            break;
                        }
                        None => break, // tuple/struct pattern: give up
                    }
                }
                if let Some(name) = name {
                    let mut head = String::new();
                    if toks.get(k + 1).is_some_and(|n| is_punct(n, ":")) {
                        // Annotated: read the type up to `=` or `;`.
                        let mut e = k + 2;
                        while e < toks.len() && !is_punct(&toks[e], "=") && !is_punct(&toks[e], ";")
                        {
                            e += 1;
                        }
                        head = type_head(toks, k + 2, e);
                    } else if toks.get(k + 1).is_some_and(|n| is_punct(n, "="))
                        && toks.get(k + 3).is_some_and(|n| is_punct(n, "::"))
                    {
                        // `= Type::ctor(..)`: the path head is the type.
                        if let Some(h) = toks.get(k + 2).and_then(ident_text) {
                            head = h.to_string();
                        }
                    }
                    if !head.is_empty() {
                        if let Some(f) = out.fns.get_mut(fi) {
                            f.locals.push(TypedName {
                                name,
                                type_head: head,
                            });
                        }
                    }
                }
            }
            // `for <pat> in <expr> {`
            if is_ident(t, "for") && i > 0 && !is_punct(&toks[i - 1], "<") {
                // Find `in` at this nesting level, then the body `{`.
                let mut k = i + 1;
                let mut d = 0usize;
                while k < toks.len() {
                    let kt = &toks[k];
                    if is_punct(kt, "(") || is_punct(kt, "[") {
                        d += 1;
                    } else if is_punct(kt, ")") || is_punct(kt, "]") {
                        d = d.saturating_sub(1);
                    } else if d == 0 && is_ident(kt, "in") {
                        break;
                    } else if d == 0 && (is_punct(kt, "{") || is_punct(kt, ";")) {
                        k = toks.len(); // not a for-loop header
                    }
                    k += 1;
                }
                if k < toks.len() {
                    let mut e = k + 1;
                    let mut d = 0usize;
                    let mut last_ident = None;
                    let mut ends_in_call = false;
                    while e < toks.len() {
                        let et = &toks[e];
                        if is_punct(et, "(") || is_punct(et, "[") {
                            d += 1;
                        } else if is_punct(et, ")") || is_punct(et, "]") {
                            d = d.saturating_sub(1);
                            ends_in_call = true;
                        } else if d == 0 && is_punct(et, "{") {
                            break;
                        } else if let Some(n) = ident_text(et) {
                            if d == 0 {
                                last_ident = Some(n.to_string());
                                ends_in_call = false;
                            }
                        }
                        e += 1;
                    }
                    if let Some(f) = out.fns.get_mut(fi) {
                        f.for_loops.push(ForLoopSyntax {
                            iterated: last_ident,
                            iterated_call: ends_in_call,
                            line: t.line,
                        });
                    }
                }
            }
            // Call expressions: `name(..)`, `path::name(..)`, `.name(..)`.
            if let Some(name) = ident_text(t) {
                let next_is_call = toks.get(i + 1).is_some_and(|n| is_punct(n, "("));
                let next_is_macro = toks.get(i + 1).is_some_and(|n| is_punct(n, "!"));
                if next_is_call && !next_is_macro && !is_keyword(name) {
                    let prev = i.checked_sub(1).and_then(|p| toks.get(p));
                    let method = prev.is_some_and(|p| is_punct(p, "."));
                    let qualifier = if prev.is_some_and(|p| is_punct(p, "::")) {
                        i.checked_sub(2)
                            .and_then(|p| toks.get(p))
                            .and_then(ident_text)
                            .map(str::to_string)
                    } else {
                        None
                    };
                    // Skip declarations (`fn name(`) — already handled —
                    // and tuple-struct patterns after `match`/`if let`
                    // (over-approximating those as calls is harmless).
                    let receiver = if method {
                        i.checked_sub(2)
                            .and_then(|p| toks.get(p))
                            .and_then(ident_text)
                            .map(str::to_string)
                    } else {
                        None
                    };
                    if let Some(f) = out.fns.get_mut(fi) {
                        f.calls.push(CallSyntax {
                            name: name.to_string(),
                            qualifier,
                            method,
                            receiver,
                            line: t.line,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    out
}

fn collect_fields(toks: &[Tok], open: usize, close: usize, fields: &mut Vec<TypedName>) {
    // At body depth 1: `name : Type ,` entries (attributes and `pub`
    // markers skipped; nested generic commas are below depth 1 only for
    // braces, so track all bracket kinds).
    let mut depth = 0usize;
    let mut i = open;
    while i <= close && i < toks.len() {
        let t = &toks[i];
        if is_punct(t, "{") || is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "<") {
            depth += 1;
        } else if is_punct(t, "}") || is_punct(t, ")") || is_punct(t, "]") || is_punct(t, ">") {
            depth = depth.saturating_sub(1);
        } else if depth == 1 {
            if let Some(name) = ident_text(t) {
                if name != "pub"
                    && toks.get(i + 1).is_some_and(|n| is_punct(n, ":"))
                    && i > open
                    && (is_punct(&toks[i - 1], ",")
                        || is_punct(&toks[i - 1], "{")
                        || is_punct(&toks[i - 1], "]")
                        || is_ident(&toks[i - 1], "pub")
                        || is_punct(&toks[i - 1], ")"))
                {
                    let mut e = i + 2;
                    let mut d = 0usize;
                    while e <= close && e < toks.len() {
                        let et = &toks[e];
                        if is_punct(et, "<") || is_punct(et, "(") || is_punct(et, "[") {
                            d += 1;
                        } else if is_punct(et, ">") || is_punct(et, ")") || is_punct(et, "]") {
                            if d == 0 {
                                break;
                            }
                            d -= 1;
                        } else if d == 0 && (is_punct(et, ",") || is_punct(et, "}")) {
                            break;
                        }
                        e += 1;
                    }
                    let head = type_head(toks, i + 2, e.min(close));
                    if !head.is_empty() {
                        fields.push(TypedName {
                            name: name.to_string(),
                            type_head: head,
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "fn"
            | "in"
            | "as"
            | "use"
            | "mod"
            | "pub"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "where"
            | "move"
            | "mut"
            | "ref"
            | "break"
            | "continue"
            | "unsafe"
            | "dyn"
            | "const"
            | "static"
            | "type"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src).unwrap().toks)
    }

    #[test]
    fn fn_names_and_impl_qualification() {
        let p = parsed(
            "fn free() {}\nimpl Advisor { fn recommend(&self) {} }\nimpl Rule for NoPanic { fn id(&self) -> u32 { 1 } }\n",
        );
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["free", "recommend", "id"]);
        assert_eq!(p.fns[0].qualified, None);
        assert_eq!(p.fns[1].qualified.as_deref(), Some("Advisor::recommend"));
        assert_eq!(p.fns[2].qualified.as_deref(), Some("NoPanic::id"));
    }

    #[test]
    fn params_and_locals_with_type_heads() {
        let p = parsed(
            "fn f(x: f64, ys: &mut Vec<u32>, map: std::collections::HashMap<u32, f64>) {\n\
             let total: f64 = 0.;\n\
             let seen = HashSet::new();\n\
             let plain = x + 1.0;\n\
             }\n",
        );
        let f = &p.fns[0];
        let params: Vec<_> = f
            .params
            .iter()
            .map(|p| (p.name.as_str(), p.type_head.as_str()))
            .collect();
        assert_eq!(params, [("x", "f64"), ("ys", "Vec"), ("map", "HashMap")]);
        let locals: Vec<_> = f
            .locals
            .iter()
            .map(|l| (l.name.as_str(), l.type_head.as_str()))
            .collect();
        assert_eq!(locals, [("total", "f64"), ("seen", "HashSet")]);
    }

    #[test]
    fn calls_are_attributed_with_qualifiers() {
        let p = parsed(
            "fn f() { helper(); module::target(1); Advisor::new(); xs.iter(); self.map.keys(); }\n",
        );
        let calls = &p.fns[0].calls;
        let shapes: Vec<_> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.qualifier.as_deref(), c.method))
            .collect();
        assert_eq!(
            shapes,
            [
                ("helper", None, false),
                ("target", Some("module"), false),
                ("new", Some("Advisor"), false),
                ("iter", None, true),
                ("keys", None, true),
            ]
        );
        assert_eq!(calls[3].receiver.as_deref(), Some("xs"));
        assert_eq!(calls[4].receiver.as_deref(), Some("map"));
    }

    #[test]
    fn nested_fn_bodies_attribute_innermost() {
        let p = parsed("fn outer() { fn inner() { deep(); } shallow(); }\n");
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "shallow");
        assert_eq!(inner.calls[0].name, "deep");
    }

    #[test]
    fn for_loop_headers() {
        let p = parsed("fn f(m: HashMap<u32, u32>) { for (k, v) in &m { use_it(k, v); } for x in ys.iter() {} }\n");
        let loops = &p.fns[0].for_loops;
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].iterated.as_deref(), Some("m"));
        assert!(!loops[0].iterated_call);
        assert!(loops[1].iterated_call);
    }

    #[test]
    fn struct_fields_collected() {
        let p = parsed(
            "pub struct Registry { pub sessions: HashMap<u64, Session>, count: usize }\nstruct Unit;\n",
        );
        let fields: Vec<_> = p
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.type_head.as_str()))
            .collect();
        assert_eq!(fields, [("sessions", "HashMap"), ("count", "usize")]);
    }

    #[test]
    fn trait_decl_without_body() {
        let p = parsed("trait T { fn required(&self) -> u32; fn provided(&self) -> u32 { 0 } }\n");
        let req = p.fns.iter().find(|f| f.name == "required").unwrap();
        assert!(req.body.is_none());
        let prov = p.fns.iter().find(|f| f.name == "provided").unwrap();
        assert!(prov.body.is_some());
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let p = parsed("fn f() { println!(\"x\"); real(); }\n");
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].name, "real");
    }
}
