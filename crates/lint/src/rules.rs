//! The UDM lint rules.
//!
//! | id | rule |
//! |---|---|
//! | UDM002 | no bare `==`/`!=` against float expressions outside test code |
//! | UDM003 | `sqrt` of variance-like expressions must use `udm_core::num::clamped_sqrt` |
//! | UDM005 | public estimator entry points must validate finite inputs |
//! | UDM006 | `span!` guards must be bound to a named variable |
//! | UDM008 | `fast-math`-gated items unreachable from default-feature code |
//! | UDM009 | once-init closures must be deterministic |
//!
//! UDM002, UDM003 and UDM006 are token rules (they scan the lexer's
//! token stream). UDM005 and UDM009 live in [`crate::astrules`];
//! UDM008 is the cross-file pass in [`crate::callgraph`].

use crate::context::FileContext;
use crate::lexer::{Lexed, Tok, TokKind};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule id (`UDM002` … `UDM009`).
    pub rule: &'static str,
    /// Root-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// All rule ids, in order.
pub const ALL_RULES: [&str; 6] = ["UDM002", "UDM003", "UDM005", "UDM006", "UDM008", "UDM009"];

/// One-line description per rule id (drives `--format json`/`sarif`).
pub const RULE_INFO: [(&str, &str); 6] = [
    (
        "UDM002",
        "no bare ==/!= against float expressions outside test code",
    ),
    (
        "UDM003",
        "sqrt of variance-like expressions must use udm_core::num::clamped_sqrt",
    ),
    (
        "UDM005",
        "public estimator entry points must validate finite inputs",
    ),
    ("UDM006", "span! guards must be bound to a named variable"),
    (
        "UDM008",
        "fast-math-gated items must be unreachable from default-feature code",
    ),
    (
        "UDM009",
        "OnceLock/OnceCell/Lazy init closures must be deterministic",
    ),
];

/// Runs every *token* rule over one lexed file.
pub fn run_token_rules(lexed: &Lexed, ctx: &FileContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    udm002_float_eq(lexed, ctx, &mut out);
    udm003_variance_sqrt(lexed, ctx, &mut out);
    udm006_span_binding(lexed, ctx, &mut out);
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

fn diag(
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    ctx: &FileContext,
    tok: &Tok,
    message: String,
) {
    out.push(Diagnostic {
        rule,
        path: ctx.rel_path.clone(),
        line: tok.line,
        message,
    });
}

/// Tokens that terminate an operand scan at depth 0.
fn is_operand_boundary(t: &Tok) -> bool {
    t.is_punct(";")
        || t.is_punct(",")
        || t.is_punct("{")
        || t.is_punct("}")
        || t.is_punct("&&")
        || t.is_punct("||")
        || t.is_punct("=")
        || t.is_punct("?")
        || t.is_punct("=>")
        || t.is_ident("if")
        || t.is_ident("while")
        || t.is_ident("return")
        || t.is_ident("let")
        || t.is_ident("else")
        || t.is_ident("match")
}

/// Collects operand tokens right of index `i` (exclusive) until a
/// boundary; respects parenthesis depth.
fn operand_right(toks: &[Tok], i: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i + 1).take(24) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && is_operand_boundary(t) {
            break;
        }
        out.push(j);
    }
    out
}

/// Collects operand tokens left of index `i` (exclusive) until a
/// boundary; respects parenthesis depth.
fn operand_left(toks: &[Tok], i: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for j in (0..i).rev().take(24) {
        let t = &toks[j];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && is_operand_boundary(t) {
            break;
        }
        out.push(j);
    }
    out.reverse();
    out
}

/// UDM002: `==`/`!=` where either operand contains a float literal.
fn udm002_float_eq(lexed: &Lexed, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) || ctx.in_test(t.start) {
            continue;
        }
        let sides: Vec<usize> = operand_left(toks, i)
            .into_iter()
            .chain(operand_right(toks, i))
            .collect();
        // `.fract() == 0.0` is the IEEE-exact integer-ness test: fract()
        // returns exactly 0.0 for integral inputs, so bare equality is
        // correct there.
        if sides.iter().any(|&j| toks[j].is_ident("fract")) {
            continue;
        }
        if sides.iter().any(|&j| toks[j].is_float_literal()) {
            diag(
                out,
                "UDM002",
                ctx,
                t,
                format!(
                    "bare `{}` against a float literal; use \
                     udm_core::num::approx_eq (or waive an exact-zero guard)",
                    t.text
                ),
            );
        }
    }
}

/// Identifier looks like it names a variance / squared quantity.
fn is_variance_like(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("var")
        || lower.ends_with("_sq")
        || matches!(
            lower.as_str(),
            "dsq" | "ssq" | "msq" | "m2" | "delta2" | "mean_sq_err"
        )
}

/// UDM003: `.sqrt()` whose receiver is variance-like (named so, or a
/// parenthesised expression containing a binary minus — the classic
/// catastrophic-cancellation shape `(a - b).sqrt()`).
fn udm003_variance_sqrt(lexed: &Lexed, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !ctx.is_library {
        return;
    }
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("sqrt")
            || i == 0
            || !toks[i - 1].is_punct(".")
            || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            || ctx.in_test(t.start)
        {
            continue;
        }
        let Some(recv_end) = i.checked_sub(2) else {
            continue;
        };
        let mut var_named = false;
        let mut paren_minus = false;
        if toks[recv_end].is_punct(")") {
            // Receiver is a parenthesised / call expression: scan back to
            // the matching `(` and inspect the inside.
            let mut depth = 0i32;
            let mut j = recv_end;
            loop {
                let tk = &toks[j];
                if tk.is_punct(")") || tk.is_punct("]") {
                    depth += 1;
                } else if tk.is_punct("(") || tk.is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            let open = j;
            // Method/function name before the `(`, if any, counts too.
            let names =
                (open.saturating_sub(2)..recv_end).filter(|&k| toks[k].kind == TokKind::Ident);
            var_named = names.into_iter().any(|k| is_variance_like(&toks[k].text));
            // A bare parenthesised group `( … - … )` (no call name) with a
            // binary minus at depth 1 is the cancellation shape.
            let is_bare_group = open == 0
                || !(toks[open - 1].kind == TokKind::Ident || toks[open - 1].is_punct(")"));
            if is_bare_group {
                let mut depth = 0i32;
                for k in open..=recv_end {
                    let tk = &toks[k];
                    if tk.is_punct("(") || tk.is_punct("[") {
                        depth += 1;
                    } else if tk.is_punct(")") || tk.is_punct("]") {
                        depth -= 1;
                    } else if depth == 1
                        && tk.is_punct("-")
                        && k > open + 1
                        && (toks[k - 1].kind == TokKind::Ident
                            || toks[k - 1].kind == TokKind::Number
                            || toks[k - 1].is_punct(")"))
                    {
                        paren_minus = true;
                    }
                }
            }
        } else {
            // Receiver is a field/ident chain: walk `a.b.c` backwards.
            let mut j = recv_end;
            loop {
                let tk = &toks[j];
                if tk.kind == TokKind::Ident && is_variance_like(&tk.text) {
                    var_named = true;
                }
                if j >= 1 && (toks[j - 1].is_punct(".") || toks[j - 1].is_punct("::")) {
                    j = j.saturating_sub(2);
                } else {
                    break;
                }
            }
        }
        if var_named || paren_minus {
            diag(
                out,
                "UDM003",
                ctx,
                t,
                "sqrt of a variance-like expression; route through \
                 udm_core::num::clamped_sqrt (bit-identical for x >= 0, \
                 counts negative clamps)"
                    .to_string(),
            );
        }
    }
}

/// UDM006: `span!` guards must be bound to a named variable. Both
/// `let _ = span!(..)` and a bare `span!(..);` statement drop the RAII
/// guard at once, closing the span before the work it was meant to
/// cover has run — the profile then credits the phase ~zero time.
fn udm006_span_binding(lexed: &Lexed, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !ctx.is_library {
        return;
    }
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("span")
            || !toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            || ctx.in_test(t.start)
        {
            continue;
        }
        // Walk back over a `udm_observe::` / `$crate::` path prefix so the
        // token before the whole macro path is inspected.
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        let discarded = if j == 0 {
            // The macro call opens the file: statement position.
            true
        } else {
            let prev = &toks[j - 1];
            if prev.is_punct("=") {
                // Wildcard binding `let _ = span!(..)` drops the guard;
                // any named pattern (`let _fit = …`) keeps it alive.
                j >= 3 && toks[j - 2].is_ident("_") && toks[j - 3].is_ident("let")
            } else {
                // Statement position: the guard temporary drops at the `;`.
                prev.is_punct(";") || prev.is_punct("{") || prev.is_punct("}")
            }
        };
        if discarded {
            diag(
                out,
                "UDM006",
                ctx,
                t,
                "span! guard dropped immediately; bind it to a named variable \
                 (`let _guard = span!(..);`) so the span covers its scope"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let l = lex(src);
        let ctx = FileContext::new("fixture.rs", &l, &parse(&l), true);
        run_token_rules(&l, &ctx)
    }

    /// Token and AST rules together, as the engine runs them on a file
    /// that parses.
    fn lint_file(src: &str) -> Vec<Diagnostic> {
        let l = lex(src);
        let ast = parse(&l);
        assert!(ast.errors.is_empty() && ast.covers_all_tokens(), "{src}");
        let ctx = FileContext::new("fixture.rs", &l, &ast, true);
        let mut ds = run_token_rules(&l, &ctx);
        ds.extend(crate::astrules::run_ast_rules(&l, &ast, &ctx));
        ds
    }

    fn rules_of(ds: &[Diagnostic]) -> Vec<&'static str> {
        ds.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn udm002_flags_float_comparisons() {
        let ds = lint("fn f(x: f64) -> bool { x == 0.0 }");
        assert!(rules_of(&ds).contains(&"UDM002"));
        let ds = lint("fn f(x: f64) -> bool { 1.5 != x }");
        assert!(rules_of(&ds).contains(&"UDM002"));
    }

    #[test]
    fn udm002_ignores_integer_comparisons() {
        let ds = lint("fn f(n: usize) -> bool { n == 0 && n != 3 }");
        assert!(!rules_of(&ds).contains(&"UDM002"));
    }

    #[test]
    fn udm002_operand_scan_stops_at_boundaries() {
        // The float literal is in a *different* clause.
        let ds = lint("fn f(n: usize, x: f64) -> bool { n == 0 && x < 1.5 }");
        assert!(!rules_of(&ds).contains(&"UDM002"));
    }

    #[test]
    fn udm003_flags_variance_sqrt() {
        for src in [
            "fn f(var: f64) -> f64 { var.sqrt() }",
            "fn f(&self) -> f64 { self.variance(j).sqrt() }",
            "fn f(a: f64, b: f64) -> f64 { (a - b).sqrt() }",
            "fn f(&self) -> f64 { self.m2.sqrt() }",
        ] {
            assert!(rules_of(&lint(src)).contains(&"UDM003"), "{src}");
        }
    }

    #[test]
    fn udm003_allows_benign_sqrt() {
        for src in [
            "fn f(x: f64) -> f64 { x.sqrt() }",
            "fn f(sum: f64, n: f64) -> f64 { (sum / n).sqrt() }",
            "fn f(h: f64, psi: f64) -> f64 { (h * h + psi * psi).sqrt() }",
        ] {
            assert!(!rules_of(&lint(src)).contains(&"UDM003"), "{src}");
        }
    }

    #[test]
    fn udm005_flags_unvalidated_entry_point() {
        let src = "pub fn density(&self, x: &[f64]) -> f64 { self.sum(x) }";
        assert!(rules_of(&lint_file(src)).contains(&"UDM005"));
    }

    #[test]
    fn udm005_accepts_guards_and_delegation() {
        for src in [
            "pub fn density(&self, x: &[f64]) -> f64 { ensure_finite_slice(\"q\", x)?; self.sum(x) }",
            "pub fn density(&self, x: &[f64]) -> f64 { self.density_subspace(x, s) }",
            "pub fn classify(&self, x: &UncertainPoint) -> L { self.log_scores(x) }",
            "pub fn density_meta(&self) -> usize { 3 }",
        ] {
            assert!(!rules_of(&lint_file(src)).contains(&"UDM005"), "{src}");
        }
    }

    #[test]
    fn udm006_flags_discarded_span_guards() {
        for src in [
            "fn f() { let _ = udm_observe::span!(\"fit\"); work(); }",
            "fn f() { let _ = span!(\"fit\"); work(); }",
            "fn f() { udm_observe::span!(\"fit\"); work(); }",
            "fn f() { work(); span!(\"fit\"); more(); }",
        ] {
            assert!(rules_of(&lint(src)).contains(&"UDM006"), "{src}");
        }
    }

    #[test]
    fn udm002_fract_zero_test_is_exempt() {
        let ds = lint("fn f(x: f64) -> bool { x.fract() == 0.0 }");
        assert!(!rules_of(&ds).contains(&"UDM002"));
        let ds = lint("fn f(x: f64) -> bool { 0.0 != x.fract() }");
        assert!(!rules_of(&ds).contains(&"UDM002"));
    }

    #[test]
    fn udm006_accepts_named_guards() {
        for src in [
            "fn f() { let _guard = udm_observe::span!(\"fit\"); work(); }",
            "fn f() { let _span_fit = span!(\"fit\"); work(); }",
            "fn f() { let g = span!(\"fit\"); work(); drop(g); }",
            // Not the macro at all: a method or variable named span.
            "fn f(span: usize) -> usize { span + 1 }",
        ] {
            assert!(!rules_of(&lint(src)).contains(&"UDM006"), "{src}");
        }
    }
}
