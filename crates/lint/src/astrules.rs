//! AST-backed rules: the scope-aware UDM005 port, and the
//! concurrency/determinism rules UDM007 and UDM009 built on the
//! [`crate::scope`] capture analysis. These only run when the parser
//! produced a full-coverage AST; on the lexer fallback path UDM005
//! falls back to its token implementation and UDM007/UDM009 are
//! skipped for that file (the engine logs the degradation).

use crate::ast::{Ast, Item, ItemKind, Node};
use crate::context::FileContext;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::Diagnostic;
use crate::scope::{analyze_fn, ClosureReport};

/// Runs the AST rules over one parsed file.
pub fn run_ast_rules(lexed: &Lexed, ast: &Ast, ctx: &FileContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    udm005_entry_validation(lexed, ast, ctx, &mut out);
    udm007_parallel_captures(lexed, ast, ctx, &mut out);
    udm009_once_init_determinism(lexed, ast, ctx, &mut out);
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

/// True when the item (or any enclosing item) is test-gated.
fn in_test_item(item: &Item, ancestors: &[&Item]) -> bool {
    item.is_test_gated() || ancestors.iter().any(|a| a.is_test_gated())
}

/// Flattened token indices of a node list.
fn flat_indices(nodes: &[Node], out: &mut Vec<usize>) {
    for n in nodes {
        match n {
            Node::Tok(i) => out.push(*i),
            Node::Group {
                open,
                children,
                close,
                ..
            } => {
                out.push(*open);
                flat_indices(children, out);
                if let Some(c) = close {
                    out.push(*c);
                }
            }
            Node::Block(b) => {
                out.push(b.open);
                for s in &b.stmts {
                    flat_indices(&s.nodes, out);
                    if let Some(semi) = s.semi {
                        out.push(semi);
                    }
                }
                if let Some(c) = b.close {
                    out.push(c);
                }
            }
            Node::Closure(c) => {
                if let Some(m) = c.move_tok {
                    out.push(m);
                }
                out.push(c.open);
                flat_indices(&c.params, out);
                if let Some(cl) = c.close {
                    out.push(cl);
                }
                flat_indices(&c.body, out);
            }
            Node::Item(item) => {
                flat_indices(&item.head, out);
                if let Some(m) = &item.members {
                    out.push(m.open);
                    flat_indices(&m.nodes, out);
                    if let Some(c) = m.close {
                        out.push(c);
                    }
                }
                if let Some(b) = &item.body {
                    flat_indices(&[Node::Tok(b.open)], out);
                    for s in &b.stmts {
                        flat_indices(&s.nodes, out);
                        if let Some(semi) = s.semi {
                            out.push(semi);
                        }
                    }
                    if let Some(c) = b.close {
                        out.push(c);
                    }
                }
                if let Some(semi) = item.semi {
                    out.push(semi);
                }
            }
        }
    }
}

fn body_indices(item: &Item) -> Vec<usize> {
    let mut idx = Vec::new();
    if let Some(b) = &item.body {
        idx.push(b.open);
        for s in &b.stmts {
            flat_indices(&s.nodes, &mut idx);
            if let Some(semi) = s.semi {
                idx.push(semi);
            }
        }
        if let Some(c) = b.close {
            idx.push(c);
        }
    }
    idx
}

// ---- UDM005 (AST port) --------------------------------------------------

/// Guard identifiers that count as input validation.
const GUARD_IDENTS: [&str; 6] = [
    "ensure_finite_slice",
    "ensure_finite_slice_opt",
    "ensure_finite",
    "ensure_non_negative",
    "debug_assert_finite",
    "is_finite",
];

/// UDM005 on the AST: `pub fn density*` / `pub fn classify*` — and the
/// serve-layer request handlers `pub fn handle_*density*` /
/// `pub fn handle_*classify*` — taking float input must validate or
/// delegate. The AST form gets exact item extents (no brace-counting
/// drift) and exact `pub` + test gating.
fn udm005_entry_validation(lexed: &Lexed, ast: &Ast, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !ctx.is_library {
        return;
    }
    let toks = &lexed.toks;
    ast.visit_items(&mut |item, ancestors| {
        if item.kind != ItemKind::Fn || in_test_item(item, ancestors) {
            return;
        }
        if !item.is_pub {
            return;
        }
        let Some(name) = item.name.as_deref() else {
            return;
        };
        let is_entry = name.starts_with("density")
            || name.starts_with("classify")
            || (name.starts_with("handle_")
                && (name.contains("density") || name.contains("classify")));
        if !is_entry {
            return;
        }
        let name_tok = item.name_tok.map(|i| &toks[i]);
        if name_tok.is_some_and(|t| ctx.in_test(t.start)) {
            return;
        }
        let Some(params) = item.param_group() else {
            return;
        };
        let mut pidx = Vec::new();
        flat_indices(params, &mut pidx);
        let takes_floats = pidx
            .iter()
            .any(|&i| toks[i].is_ident("f64") || toks[i].is_ident("UncertainPoint"));
        if !takes_floats || item.body.is_none() {
            return;
        }
        let body = body_indices(item);
        let validates = body.iter().any(|&i| {
            toks[i].kind == TokKind::Ident && GUARD_IDENTS.contains(&toks[i].text.as_str())
        });
        let delegates = body.iter().any(|&i| {
            let t = &toks[i];
            t.kind == TokKind::Ident
                && t.text != name
                && (t.text.starts_with("density")
                    || t.text.starts_with("classify")
                    || t.text == "log_scores")
        });
        if !validates && !delegates {
            out.push(Diagnostic {
                rule: "UDM005",
                path: ctx.rel_path.clone(),
                line: name_tok.map_or(item.line, |t| t.line),
                message: format!(
                    "public estimator entry point `{name}` takes float input \
                     but neither validates finiteness (udm_core::num::ensure_finite_slice) \
                     nor delegates to a validating entry point"
                ),
                offset: name_tok.map_or(0, |t| t.start),
            });
        }
    });
}

// ---- UDM007 -------------------------------------------------------------

/// Functions whose closure argument runs on multiple threads.
const PAR_ENTRY_FNS: [&str; 3] = ["guarded_par_map", "join", "scope"];

/// Method names that move iteration onto the rayon thread pool; every
/// closure later in the same call chain executes in parallel.
const PAR_METHODS: [&str; 5] = [
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_bridge",
];

/// Interior-mutability cell types that are not thread-safe.
const NON_SYNC_CELLS: [&str; 3] = ["RefCell", "Cell", "UnsafeCell"];

/// Synchronized wrappers that make shared mutation safe.
const SYNC_WRAPPERS: [&str; 4] = ["Mutex", "RwLock", "AtomicUsize", "AtomicU64"];

/// True when the declaration text mentions `name` as a standalone type
/// path segment (so `OnceCell` does not match `Cell`).
fn decl_mentions_type(decl: &str, name: &str) -> bool {
    decl.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|seg| seg == name)
}

/// UDM007: closures reaching a parallel seam must not capture `&mut`
/// state, non-`Sync` cells, or mutate captured bindings — rayon will
/// run them concurrently and the mutation becomes a data race (or a
/// compile error the author then "fixes" with unsafe/cells).
fn udm007_parallel_captures(
    lexed: &Lexed,
    ast: &Ast,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.toks;
    ast.visit_items(&mut |item, ancestors| {
        if item.kind != ItemKind::Fn || item.body.is_none() || in_test_item(item, ancestors) {
            return;
        }
        let body = body_indices(item);
        if body.is_empty() {
            return;
        }
        let start = body[0];
        let end = *body.last().expect("nonempty") + 1;
        // Parallel-seam closure opens inside this fn body: a closure
        // token that appears (a) inside the argument list of one of
        // PAR_ENTRY_FNS, or (b) after a PAR_METHODS call in the same
        // statement/chain.
        let par_spans = parallel_spans(toks, start, end);
        if par_spans.is_empty() {
            return;
        }
        if item.name_tok.is_some_and(|i| ctx.in_test(toks[i].start)) {
            return;
        }
        let reports = analyze_fn(item, toks);
        for rep in &reports {
            let open_tok = &toks[rep.open];
            if ctx.in_test(open_tok.start) {
                continue;
            }
            if !par_spans
                .iter()
                .any(|&(s, e)| rep.open >= s && rep.open < e)
            {
                continue;
            }
            flag_par_closure(rep, ctx, out);
        }
    });
}

/// Token-index spans `[start, end)` in which a closure is a parallel
/// seam closure.
fn parallel_spans(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_entry_fn = PAR_ENTRY_FNS.contains(&name)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            // Bare `join`/`scope` only count with a rayon:: path prefix;
            // `guarded_par_map` counts bare or qualified.
            && (name == "guarded_par_map" || path_prefix_is(toks, i, "rayon"));
        if is_entry_fn {
            if let Some(close) = match_close(toks, i + 1, "(", ")") {
                spans.push((i + 1, close + 1));
            }
        }
        if PAR_METHODS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            // Everything from here to the end of the statement/chain
            // (`;`, `,` at depth 0 relative to here, or closing brace).
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < end.min(toks.len()) {
                let tk = &toks[j];
                if tk.is_punct("(") || tk.is_punct("[") || tk.is_punct("{") {
                    depth += 1;
                } else if tk.is_punct(")") || tk.is_punct("]") || tk.is_punct("}") {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0 && tk.is_punct(";") {
                    break;
                }
                j += 1;
            }
            spans.push((i, j));
        }
    }
    spans
}

/// True when tokens before `i` form a `rayon::` path prefix.
fn path_prefix_is(toks: &[Tok], i: usize, root: &str) -> bool {
    i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident(root)
}

/// Matching close index for the group opening at `open_idx`.
fn match_close(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn flag_par_closure(rep: &ClosureReport, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for cap in &rep.captures {
        let synced = SYNC_WRAPPERS
            .iter()
            .any(|w| decl_mentions_type(&cap.binding.decl_text, w))
            || cap.binding.decl_text.contains("Atomic");
        if synced {
            continue;
        }
        if let Some(cell) = NON_SYNC_CELLS
            .iter()
            .find(|c| decl_mentions_type(&cap.binding.decl_text, c))
        {
            out.push(Diagnostic {
                rule: "UDM007",
                path: ctx.rel_path.clone(),
                line: cap.line,
                message: format!(
                    "parallel-seam closure captures `{}` declared with non-Sync \
                     `{cell}`; use atomics or a Mutex/RwLock (or restructure to \
                     a map+reduce without shared state)",
                    cap.name
                ),
                offset: 0,
            });
            continue;
        }
        if cap.mutated() {
            let how = if cap.assigned {
                "assigns to"
            } else if cap.mut_borrowed {
                "takes `&mut` of"
            } else {
                "calls a mutating method on"
            };
            out.push(Diagnostic {
                rule: "UDM007",
                path: ctx.rel_path.clone(),
                line: cap.line,
                message: format!(
                    "parallel-seam closure {how} captured `{}`; shared mutable \
                     state across rayon workers is a data race — make the seam \
                     a pure map and reduce the results sequentially",
                    cap.name
                ),
                offset: 0,
            });
        }
    }
}

// ---- UDM009 -------------------------------------------------------------

/// Identifiers that introduce nondeterminism inside a once-init closure.
const NONDET_CALLS: [&str; 8] = [
    "thread_rng",
    "from_entropy",
    "random",
    "now",
    "elapsed",
    "timestamp",
    "current",
    "available_parallelism",
];

/// Path roots whose mention inside an init closure is nondeterministic.
const NONDET_ROOTS: [&str; 4] = ["SystemTime", "Instant", "ThreadId", "rand"];

/// UDM009: `OnceLock::get_or_init` / `OnceCell` / `Lazy::new` closures
/// run once at a nondeterministic time on a nondeterministic thread —
/// their result must depend only on their inputs. RNG, clocks,
/// thread ids and unordered-map iteration all make the cached value
/// run-dependent, which breaks replayable checkpoints.
fn udm009_once_init_determinism(
    lexed: &Lexed,
    ast: &Ast,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.toks;
    // Once-init sites: token index ranges of the argument group of
    // `get_or_init(` / `get_or_try_init(` / `Lazy::new(` /
    // `OnceCell::with(`.
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let is_method = (t.is_ident("get_or_init") || t.is_ident("get_or_try_init"))
            && i > 0
            && toks[i - 1].is_punct(".");
        let is_lazy_new = t.is_ident("new") && path_prefix_is(toks, i, "Lazy");
        if (is_method || is_lazy_new) && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            if let Some(close) = match_close(toks, i + 1, "(", ")") {
                sites.push((i + 1, close + 1));
            }
        }
    }
    if sites.is_empty() {
        return;
    }
    ast.visit_items(&mut |item, ancestors| {
        if item.body.is_none() && item.kind != ItemKind::Const {
            return;
        }
        if in_test_item(item, ancestors) {
            return;
        }
        let reports = analyze_fn(item, toks);
        let const_reports;
        let reports = if item.kind == ItemKind::Const {
            // `static X: Lazy<..> = Lazy::new(|| ..);` — closures live
            // in the head (initializer), not a body.
            let mut tmp = Vec::new();
            collect_head_closures(item, &mut tmp);
            const_reports = tmp;
            &const_reports
        } else {
            &reports
        };
        for rep in reports {
            if !sites.iter().any(|&(s, e)| rep.open >= s && rep.open < e) {
                continue;
            }
            if ctx.in_test(toks[rep.open].start) {
                continue;
            }
            check_init_closure_body(rep, toks, ctx, out);
        }
    });
}

/// Closures appearing in an item's head (const/static initializers).
fn collect_head_closures(item: &Item, out: &mut Vec<ClosureReport>) {
    fn walk(nodes: &[Node], out: &mut Vec<ClosureReport>) {
        for n in nodes {
            match n {
                Node::Closure(c) => {
                    out.push(ClosureReport {
                        open: c.open,
                        line: c.line,
                        captures: Vec::new(),
                        unordered_iters: Vec::new(),
                    });
                    walk(&c.body, out);
                }
                Node::Group { children, .. } => walk(children, out),
                Node::Block(b) => {
                    for s in &b.stmts {
                        walk(&s.nodes, out);
                    }
                }
                _ => {}
            }
        }
    }
    walk(&item.head, out);
}

/// Scans one init closure's body tokens for nondeterminism markers.
fn check_init_closure_body(
    rep: &ClosureReport,
    toks: &[Tok],
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
) {
    // Body extent: from the closure open to the end of its argument
    // group — approximate with the span to the matching `)` of the
    // enclosing site; simplest reliable bound is the statement end.
    let mut depth = 0i32;
    let mut end = rep.open + 1;
    while end < toks.len() {
        let t = &toks[end];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && t.is_punct(";") {
            break;
        }
        end += 1;
    }
    for i in rep.open..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        let flagged = (NONDET_CALLS.contains(&name) && is_call)
            || NONDET_ROOTS.contains(&name)
            || (name == "thread"
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("current")));
        if flagged {
            out.push(Diagnostic {
                rule: "UDM009",
                path: ctx.rel_path.clone(),
                line: t.line,
                message: format!(
                    "once-init closure calls `{name}` — RNG/clock/thread state \
                     makes the cached value run-dependent; compute it from \
                     explicit inputs (seed, config) instead"
                ),
                offset: t.start,
            });
            break;
        }
    }
    for it in &rep.unordered_iters {
        out.push(Diagnostic {
            rule: "UDM009",
            path: ctx.rel_path.clone(),
            line: it.line,
            message: format!(
                "once-init closure iterates `{}` ({}) whose order is \
                 nondeterministic; collect into a sorted Vec or use BTreeMap \
                 before folding",
                it.name, it.ty
            ),
            offset: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let ast = parse(&lexed);
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
        assert!(ast.covers_all_tokens());
        let ctx = FileContext::new("fixture.rs", &lexed, true);
        run_ast_rules(&lexed, &ast, &ctx)
    }

    fn rules_of(ds: &[Diagnostic]) -> Vec<&'static str> {
        ds.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn udm005_ast_flags_unvalidated_entry_point() {
        let ds = lint("pub fn density(&self, x: &[f64]) -> f64 { self.sum(x) }");
        assert!(rules_of(&ds).contains(&"UDM005"));
    }

    #[test]
    fn udm005_ast_accepts_guard_and_delegation() {
        for src in [
            "pub fn density(&self, x: &[f64]) -> f64 { ensure_finite_slice(\"q\", x).unwrap_or(0.0); self.sum(x) }",
            "pub fn density(&self, x: &[f64]) -> f64 { self.density_subspace(x, 0) }",
            "fn density_private(x: &[f64]) -> f64 { x[0] }",
        ] {
            assert!(!rules_of(&lint(src)).contains(&"UDM005"), "{src}");
        }
    }

    #[test]
    fn udm005_ast_skips_test_gated_items() {
        let src = "#[cfg(test)]\nmod t { pub fn density(x: &[f64]) -> f64 { x[0] } }";
        assert!(!rules_of(&lint(src)).contains(&"UDM005"));
    }

    #[test]
    fn udm007_flags_mutable_capture_at_guarded_par_map() {
        let src = "fn f(items: &[f64]) { let mut total = 0.0; guarded_par_map(items, 4, |x| { total += x; Ok(*x) }); }";
        let ds = lint(src);
        assert!(rules_of(&ds).contains(&"UDM007"), "{ds:?}");
    }

    #[test]
    fn udm007_flags_refcell_capture_in_par_iter_chain() {
        let src = "fn f(items: Vec<f64>) { let cache: RefCell<Vec<f64>> = RefCell::new(vec![]); items.par_iter().map(|x| cache.borrow()[0] * x).sum::<f64>(); }";
        let ds = lint(src);
        assert!(rules_of(&ds).contains(&"UDM007"), "{ds:?}");
    }

    #[test]
    fn udm007_accepts_pure_and_synchronized_closures() {
        for src in [
            "fn f(items: &[f64], scale: f64) { guarded_par_map(items, 4, |x| Ok(x * scale)); }",
            "fn f(items: &[f64]) { let hits: AtomicUsize = AtomicUsize::new(0); guarded_par_map(items, 4, |x| { hits.fetch_add(1, Relaxed); Ok(*x) }); }",
            "fn f(items: Vec<f64>) { let mut total = 0.0; items.iter().for_each(|x| total += x); }",
            "fn f(items: &[f64]) { let acc: Mutex<f64> = Mutex::new(0.0); guarded_par_map(items, 4, |x| { *acc.lock()? += x; Ok(*x) }); }",
        ] {
            assert!(!rules_of(&lint(src)).contains(&"UDM007"), "{src}");
        }
    }

    #[test]
    fn udm007_oncecell_is_not_cell() {
        let src = "fn f(items: &[f64]) { let layout: OnceCell<usize> = OnceCell::new(); guarded_par_map(items, 4, |x| Ok(x * *layout.get_or_init(|| 1) as f64)); }";
        let ds = lint(src);
        assert!(
            !ds.iter()
                .any(|d| d.rule == "UDM007" && d.message.contains("Cell")),
            "{ds:?}"
        );
    }

    #[test]
    fn udm009_flags_rng_time_and_unordered_iteration() {
        for src in [
            "fn f(c: &OnceLock<u64>) { c.get_or_init(|| thread_rng().next_u64()); }",
            "fn f(c: &OnceLock<f64>) { c.get_or_init(|| Instant::now().elapsed().as_secs_f64()); }",
            "static W: Lazy<f64> = Lazy::new(|| SystemTime::now().elapsed().unwrap().as_secs_f64());",
            "fn f(c: &OnceLock<f64>) { let m: HashMap<u32, f64> = HashMap::new(); c.get_or_init(|| m.iter().map(|(_, v)| v).sum()); }",
        ] {
            assert!(rules_of(&lint(src)).contains(&"UDM009"), "{src}");
        }
    }

    #[test]
    fn udm009_accepts_deterministic_init() {
        for src in [
            "fn f(c: &OnceLock<Vec<f64>>, n: usize) { c.get_or_init(|| vec![0.0; n]); }",
            "static T: Lazy<Vec<f64>> = Lazy::new(|| (0..256).map(|i| (i as f64).exp()).collect());",
            "fn f(c: &OnceLock<f64>) { let m: BTreeMap<u32, f64> = BTreeMap::new(); c.get_or_init(|| m.iter().map(|(_, v)| v).sum()); }",
            "fn f() { let x = now(); }",
        ] {
            assert!(!rules_of(&lint(src)).contains(&"UDM009"), "{src}");
        }
    }
}
