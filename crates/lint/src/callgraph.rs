//! UDM008: `fast-math` isolation, enforced as a cross-file call-graph
//! pass over the parsed workspace.
//!
//! The taint set is every item whose (inherited) `cfg` gates require
//! the `fast-math` feature, plus the named approximate roots
//! ([`APPROX_ROOT_FNS`]) that are deliberately compiled unconditionally
//! (so benches can A/B them in one binary) but must never be *called*
//! from default-build code. A mention of a tainted name from code whose
//! own gate context does not include the feature is the first edge by
//! which an approximate value can reach an exact path — that edge is
//! the finding. Reachability beyond the first unguarded edge is not
//! re-reported: fixing or waiving the boundary covers its callers.
//!
//! Gate context, innermost first:
//! * item attributes (inherited through enclosing `mod`/`impl` items),
//! * statement attributes (`#[cfg(feature = "fast-math")] { .. }`),
//! * a `cfg!(feature = "fast-math")` test anywhere in the same
//!   statement (conservatively gates the whole statement, so both arms
//!   of an `if cfg!(..)` are accepted),
//! * test code (tests/benches are exactly where the A/B comparisons
//!   live).

use crate::ast::{Ast, Item, ItemKind, Node};
use crate::context::FileContext;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::Diagnostic;

/// The feature whose items must stay unreachable from default builds.
pub const GATED_FEATURE: &str = "fast-math";

/// Ungated approximate roots: compiled always, callable only from
/// gated / test code.
pub const APPROX_ROOT_FNS: [&str; 1] = ["fast_exp"];

/// One parsed file, as the engine hands it to the cross-file pass.
pub struct FileAst<'a> {
    /// The lexed token stream.
    pub lexed: &'a Lexed,
    /// The parsed overlay (full coverage, zero errors).
    pub ast: &'a Ast,
    /// The file's rule context.
    pub ctx: &'a FileContext,
}

/// Runs the UDM008 pass over every successfully parsed file.
pub fn udm008_fast_math_isolation(files: &[FileAst<'_>]) -> Vec<Diagnostic> {
    // Pass 1: collect tainted definition names across the workspace.
    let mut tainted: Vec<String> = APPROX_ROOT_FNS.iter().map(|s| s.to_string()).collect();
    for f in files {
        f.ast.visit_items(&mut |item, ancestors| {
            if item.name.is_none() {
                return;
            }
            let gated =
                item_requires_feature(item) || ancestors.iter().any(|a| item_requires_feature(a));
            let test_gated = item.is_test_gated() || ancestors.iter().any(|a| a.is_test_gated());
            if gated && !test_gated {
                if let Some(name) = &item.name {
                    if !tainted.contains(name) {
                        tainted.push(name.clone());
                    }
                }
            }
        });
    }
    // Pass 2: find unguarded mentions.
    let mut out = Vec::new();
    for f in files {
        if f.ctx.is_test_file {
            continue;
        }
        f.ast.visit_items(&mut |item, ancestors| {
            scan_item(item, ancestors, f, &tainted, &mut out);
        });
    }
    out.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    out
}

/// True when the item's own attributes require [`GATED_FEATURE`].
fn item_requires_feature(item: &Item) -> bool {
    item.own_features().iter().any(|f| f == GATED_FEATURE)
}

fn scan_item(
    item: &Item,
    ancestors: &[&Item],
    f: &FileAst<'_>,
    tainted: &[String],
    out: &mut Vec<Diagnostic>,
) {
    if item.kind == ItemKind::Use {
        return; // imports are not calls
    }
    let gated = item_requires_feature(item) || ancestors.iter().any(|a| item_requires_feature(a));
    let test_gated = item.is_test_gated() || ancestors.iter().any(|a| a.is_test_gated());
    if gated || test_gated {
        return;
    }
    // Const/static initializers and other head tokens (skipping the
    // definition's own name).
    let mut head_idx = Vec::new();
    flat_shallow(&item.head, &mut head_idx);
    scan_tokens(&head_idx, item.name_tok, f, tainted, out);
    // Fn bodies: statement granularity so stmt-level gates hold.
    if let Some(body) = &item.body {
        for stmt in &body.stmts {
            let stmt_gated = stmt
                .attrs
                .iter()
                .any(|a| a.enabling_features().iter().any(|f| f == GATED_FEATURE));
            if stmt_gated {
                continue;
            }
            let mut idx = Vec::new();
            flat_shallow(&stmt.nodes, &mut idx);
            if stmt_mentions_cfg_feature(&idx, &f.lexed.toks) {
                continue;
            }
            scan_tokens(&idx, None, f, tainted, out);
        }
    }
    // Members (mod/impl/trait) are separate items; visit_items recurses.
}

/// Flattens token indices of a node list, *not* descending into nested
/// items (they are visited — and gated — as their own items).
fn flat_shallow(nodes: &[Node], out: &mut Vec<usize>) {
    for n in nodes {
        match n {
            Node::Tok(i) => out.push(*i),
            Node::Group { children, .. } => flat_shallow(children, out),
            Node::Block(b) => {
                for s in &b.stmts {
                    flat_shallow(&s.nodes, out);
                }
            }
            Node::Closure(c) => {
                flat_shallow(&c.params, out);
                flat_shallow(&c.body, out);
            }
            Node::Item(_) => {}
        }
    }
}

/// True when the statement contains `cfg!(feature = "fast-math")`.
fn stmt_mentions_cfg_feature(idx: &[usize], toks: &[Tok]) -> bool {
    idx.iter().enumerate().any(|(k, &i)| {
        toks[i].is_ident("cfg")
            && idx.get(k + 1).is_some_and(|&j| toks[j].is_punct("!"))
            && idx[k..]
                .iter()
                .take(8)
                .any(|&j| toks[j].text.trim_matches('"') == GATED_FEATURE)
    })
}

fn scan_tokens(
    idx: &[usize],
    skip_tok: Option<usize>,
    f: &FileAst<'_>,
    tainted: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let toks = &f.lexed.toks;
    for &i in idx {
        if Some(i) == skip_tok {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !tainted.iter().any(|n| n == &t.text) {
            continue;
        }
        if f.ctx.in_test(t.start) {
            continue;
        }
        out.push(Diagnostic {
            rule: "UDM008",
            path: f.ctx.rel_path.clone(),
            line: t.line,
            message: format!(
                "`{}` is fast-math-only but is referenced from default-build \
                 code; gate the call site with #[cfg(feature = \"{GATED_FEATURE}\")] \
                 or route through the feature-dispatching wrapper (hot_exp)",
                t.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn lint_files(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let lexed: Vec<_> = sources.iter().map(|(_, src)| lex(src)).collect();
        let asts: Vec<_> = lexed.iter().map(parse).collect();
        let ctxs: Vec<_> = sources
            .iter()
            .zip(lexed.iter().zip(&asts))
            .map(|((path, _), (l, ast))| FileContext::new(path, l, ast, true))
            .collect();
        for (ast, (path, _)) in asts.iter().zip(sources) {
            assert!(ast.errors.is_empty(), "{path}: {:?}", ast.errors);
        }
        let files: Vec<FileAst> = lexed
            .iter()
            .zip(&asts)
            .zip(&ctxs)
            .map(|((lexed, ast), ctx)| FileAst { lexed, ast, ctx })
            .collect();
        udm008_fast_math_isolation(&files)
    }

    #[test]
    fn ungated_mention_of_gated_fn_is_flagged() {
        let ds = lint_files(&[(
            "a.rs",
            "#[cfg(feature = \"fast-math\")]\npub fn approx(x: f64) -> f64 { x }\npub fn caller(x: f64) -> f64 { approx(x) }",
        )]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, "UDM008");
        assert_eq!(ds[0].line, 3);
    }

    #[test]
    fn named_root_mention_is_flagged_cross_file() {
        let ds = lint_files(&[
            ("kde.rs", "pub fn fast_exp(x: f64) -> f64 { x }"),
            (
                "density.rs",
                "pub fn build(x: f64) -> f64 { helper(x, fast_exp) }",
            ),
        ]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].path, "density.rs");
    }

    #[test]
    fn gated_caller_is_clean() {
        let ds = lint_files(&[(
            "a.rs",
            "#[cfg(feature = \"fast-math\")]\npub fn approx(x: f64) -> f64 { x }\n#[cfg(feature = \"fast-math\")]\npub fn caller(x: f64) -> f64 { approx(x) }",
        )]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn stmt_level_gate_is_clean() {
        let ds = lint_files(&[(
            "a.rs",
            "pub fn hot(x: f64) -> f64 {\n  #[cfg(feature = \"fast-math\")]\n  { fast_exp(x) }\n  #[cfg(not(feature = \"fast-math\"))]\n  { x.exp() }\n}",
        )]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn cfg_macro_test_in_statement_is_clean() {
        let ds = lint_files(&[(
            "a.rs",
            "pub fn pick(x: f64) -> f64 { if cfg!(feature = \"fast-math\") { fast_exp(x) } else { x.exp() } }",
        )]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn use_statements_and_test_code_are_clean() {
        let ds = lint_files(&[(
            "a.rs",
            "use udm_kde::fast_exp;\n#[cfg(test)]\nmod tests { fn t() { assert!(fast_exp(0.0) > 0.9); } }",
        )]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn definition_of_root_is_not_a_mention() {
        let ds = lint_files(&[("kde.rs", "pub fn fast_exp(x: f64) -> f64 { x + 1.0 }")]);
        assert!(ds.is_empty(), "{ds:?}");
    }
}
