//! Scope and closure analysis over the parsed AST.
//!
//! This is the small intra-function walker UDM009 runs on. It tracks
//! `let` bindings (and `fn` parameters) through lexical scopes, and for
//! every closure records the iterations over enclosing-scope bindings
//! whose declaration names an unordered collection.

use crate::ast::{Block, Closure, Item, ItemKind, Node, Stmt};
use crate::lexer::{Tok, TokKind};
use std::collections::HashMap;

/// One binding visible in a scope.
#[derive(Debug, Clone)]
pub struct BindingInfo {
    /// Flattened text of the binding's type/initializer tokens —
    /// scanned for type names (`HashMap`, `HashSet`).
    pub decl_text: String,
}

/// Iteration over an unordered collection observed in a closure body.
#[derive(Debug, Clone)]
pub struct UnorderedIter {
    /// The iterated binding.
    pub name: String,
    /// The collection type found in the binding's declaration.
    pub ty: String,
    /// 1-based line of the iteration call.
    pub line: usize,
}

/// Analysis result for one closure, keyed by its opening-pipe token.
#[derive(Debug)]
pub struct ClosureReport {
    /// Token index of the closure's opening `|` / `||`.
    pub open: usize,
    /// Unordered-collection iterations inside the body.
    pub unordered_iters: Vec<UnorderedIter>,
}

/// Unordered collection types whose iteration order is nondeterministic.
const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Iterator-producing methods whose order reflects the collection's.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Names that are never variable references.
const NON_VAR_IDENTS: [&str; 30] = [
    "let", "if", "else", "match", "while", "loop", "for", "return", "break", "continue", "in",
    "move", "mut", "ref", "as", "where", "unsafe", "async", "dyn", "self", "Self", "true", "false",
    "fn", "impl", "struct", "enum", "crate", "super", "use",
];

/// Analyzes an `fn` item's body: parameter + `let` scopes, then one
/// [`ClosureReport`] per closure found anywhere inside.
pub fn analyze_fn(item: &Item, toks: &[Tok]) -> Vec<ClosureReport> {
    let mut scopes: Vec<HashMap<String, BindingInfo>> = vec![HashMap::new()];
    if item.kind == ItemKind::Fn {
        if let Some(params) = item.param_group() {
            bind_params(params, toks, scopes.last_mut().expect("root scope"));
        }
    }
    let mut reports = Vec::new();
    if let Some(body) = &item.body {
        walk_block(body, toks, &mut scopes, &mut reports);
    }
    reports
}

/// Binds `name: Type` parameter patterns (commas at group depth 0).
fn bind_params(params: &[Node], toks: &[Tok], scope: &mut HashMap<String, BindingInfo>) {
    // Split on top-level comma tokens.
    let mut current: Vec<&Node> = Vec::new();
    let mut parts: Vec<Vec<&Node>> = Vec::new();
    for n in params {
        if let Node::Tok(i) = n {
            if toks[*i].is_punct(",") {
                parts.push(std::mem::take(&mut current));
                continue;
            }
        }
        current.push(n);
    }
    parts.push(current);
    for part in parts {
        // Pattern = tokens before the first `:`; name = first plain
        // ident in it (after optional `mut`/`ref`/`&`).
        let mut name = None;
        let mut after_colon = false;
        let mut decl = String::new();
        for n in &part {
            if let Node::Tok(i) = n {
                let t = &toks[*i];
                if !after_colon && t.is_punct(":") {
                    after_colon = true;
                    continue;
                }
                if after_colon {
                    decl.push_str(&t.text);
                    decl.push(' ');
                } else if t.kind == TokKind::Ident
                    && name.is_none()
                    && !NON_VAR_IDENTS.contains(&t.text.as_str())
                {
                    name = Some(t.text.clone());
                }
            } else if after_colon {
                flatten_into(n, toks, &mut decl);
            }
        }
        if let Some(name) = name {
            scope.insert(name, BindingInfo { decl_text: decl });
        }
    }
}

fn walk_block(
    block: &Block,
    toks: &[Tok],
    scopes: &mut Vec<HashMap<String, BindingInfo>>,
    reports: &mut Vec<ClosureReport>,
) {
    scopes.push(HashMap::new());
    for stmt in &block.stmts {
        walk_stmt(stmt, toks, scopes, reports);
    }
    scopes.pop();
}

fn walk_stmt(
    stmt: &Stmt,
    toks: &[Tok],
    scopes: &mut Vec<HashMap<String, BindingInfo>>,
    reports: &mut Vec<ClosureReport>,
) {
    // Walk nested structures first (the initializer may reference the
    // *previous* binding of the same name; close enough for lint use).
    for n in &stmt.nodes {
        walk_node(n, toks, scopes, reports);
    }
    if stmt.is_let {
        if let Some((name, info)) = let_binding(stmt, toks) {
            if let Some(scope) = scopes.last_mut() {
                scope.insert(name, info);
            }
        }
    }
    // `for pat in ..` introduces a loop binding usable by later closures
    // in the same block (approximation: bind in the current scope).
    if let [Node::Tok(i), ..] = stmt.nodes.as_slice() {
        if toks[*i].is_ident("for") {
            let mut j = 1;
            while let Some(Node::Tok(k)) = stmt.nodes.get(j) {
                let t = &toks[*k];
                if t.is_ident("in") {
                    break;
                }
                if t.kind == TokKind::Ident && !NON_VAR_IDENTS.contains(&t.text.as_str()) {
                    if let Some(scope) = scopes.last_mut() {
                        scope.insert(
                            t.text.clone(),
                            BindingInfo {
                                decl_text: String::new(),
                            },
                        );
                    }
                    break;
                }
                j += 1;
            }
        }
    }
}

/// Extracts `let [mut] name [: Type] [= init]` from a let statement.
fn let_binding(stmt: &Stmt, toks: &[Tok]) -> Option<(String, BindingInfo)> {
    let mut name = None;
    let mut in_decl = false;
    let mut decl = String::new();
    for n in &stmt.nodes {
        match n {
            Node::Tok(i) => {
                let t = &toks[*i];
                if !in_decl {
                    if t.is_punct(":") || t.is_punct("=") {
                        in_decl = true;
                    } else if t.kind == TokKind::Ident
                        && name.is_none()
                        && !NON_VAR_IDENTS.contains(&t.text.as_str())
                    {
                        name = Some(t.text.clone());
                    }
                } else {
                    decl.push_str(&t.text);
                    decl.push(' ');
                }
            }
            _ if in_decl => flatten_into(n, toks, &mut decl),
            _ => {}
        }
    }
    name.map(|n| (n, BindingInfo { decl_text: decl }))
}

fn walk_node(
    node: &Node,
    toks: &[Tok],
    scopes: &mut Vec<HashMap<String, BindingInfo>>,
    reports: &mut Vec<ClosureReport>,
) {
    match node {
        Node::Tok(_) => {}
        Node::Group { children, .. } => {
            for n in children {
                walk_node(n, toks, scopes, reports);
            }
        }
        Node::Block(b) => walk_block(b, toks, scopes, reports),
        Node::Closure(c) => {
            reports.push(analyze_closure(c, toks, scopes));
            // Recurse for nested closures, with the closure's own
            // parameters in scope.
            scopes.push(closure_param_scope(c, toks));
            for n in &c.body {
                walk_node(n, toks, scopes, reports);
            }
            scopes.pop();
        }
        Node::Item(item) => {
            // Nested fn: fresh scope stack (no implicit captures).
            let mut inner = analyze_fn(item, toks);
            reports.append(&mut inner);
        }
    }
}

fn closure_param_scope(c: &Closure, toks: &[Tok]) -> HashMap<String, BindingInfo> {
    let mut scope = HashMap::new();
    bind_params(&c.params, toks, &mut scope);
    scope
}

/// Resolves a name against the scope stack (innermost wins).
fn lookup<'a>(scopes: &'a [HashMap<String, BindingInfo>], name: &str) -> Option<&'a BindingInfo> {
    scopes.iter().rev().find_map(|s| s.get(name))
}

/// Analyzes one closure against the current enclosing scopes.
fn analyze_closure(
    c: &Closure,
    toks: &[Tok],
    scopes: &[HashMap<String, BindingInfo>],
) -> ClosureReport {
    let params = closure_param_scope(c, toks);
    let mut flat: Vec<usize> = Vec::new();
    flatten_indices(&c.body, &mut flat);
    let mut unordered = Vec::new();
    // Local lets inside the closure body shadow enclosing bindings.
    let mut locals: Vec<String> = Vec::new();
    for (k, &i) in flat.iter().enumerate() {
        let t = &toks[i];
        if t.is_ident("let") {
            if let Some(nt) = flat.get(k + 1..).and_then(|rest| {
                rest.iter()
                    .map(|&j| &toks[j])
                    .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
            }) {
                locals.push(nt.text.clone());
            }
        }
        if t.kind != TokKind::Ident || NON_VAR_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        // Skip field / path / method-name positions.
        let prev = (i > 0).then(|| &toks[i - 1]);
        if prev.is_some_and(|p| p.is_punct(".") || p.is_punct("::")) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            continue; // path root (type/module), not a variable
        }
        let name = t.text.as_str();
        if params.contains_key(name) || locals.iter().any(|l| l == name) {
            continue;
        }
        let Some(binding) = lookup(scopes, name) else {
            continue;
        };
        // Unordered iteration: `name.iter()` etc. where the binding's
        // declaration names a HashMap/HashSet.
        if let (Some(dot), Some(m)) = (toks.get(i + 1), toks.get(i + 2)) {
            if dot.is_punct(".") && ITER_METHODS.contains(&m.text.as_str()) {
                if let Some(ty) = UNORDERED_TYPES
                    .iter()
                    .find(|ty| binding.decl_text.contains(*ty))
                {
                    unordered.push(UnorderedIter {
                        name: name.to_string(),
                        ty: (*ty).to_string(),
                        line: t.line,
                    });
                }
            }
        }
    }
    ClosureReport {
        open: c.open,
        unordered_iters: unordered,
    }
}

/// Collects the token indices of a node list, in order.
fn flatten_indices(nodes: &[Node], out: &mut Vec<usize>) {
    for n in nodes {
        flatten_node_indices(n, out);
    }
}

fn flatten_node_indices(node: &Node, out: &mut Vec<usize>) {
    match node {
        Node::Tok(i) => out.push(*i),
        Node::Group {
            open,
            children,
            close,
            ..
        } => {
            out.push(*open);
            flatten_indices(children, out);
            if let Some(c) = close {
                out.push(*c);
            }
        }
        Node::Block(b) => {
            out.push(b.open);
            for s in &b.stmts {
                flatten_indices(&s.nodes, out);
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
            flatten_indices(&c.params, out);
            if let Some(cl) = c.close {
                out.push(cl);
            }
            flatten_indices(&c.body, out);
        }
        Node::Item(item) => {
            flatten_indices(&item.head, out);
            if let Some(b) = &item.body {
                flatten_node_indices(&Node::Tok(b.open), out);
                for s in &b.stmts {
                    flatten_indices(&s.nodes, out);
                    if let Some(semi) = s.semi {
                        out.push(semi);
                    }
                }
                if let Some(c) = b.close {
                    out.push(c);
                }
            }
        }
    }
}

/// Flattens a node's tokens into a text buffer (space-separated).
fn flatten_into(node: &Node, toks: &[Tok], out: &mut String) {
    let mut idx = Vec::new();
    flatten_node_indices(node, &mut idx);
    for i in idx {
        out.push_str(&toks[i].text);
        out.push(' ');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn closures_of(src: &str) -> Vec<ClosureReport> {
        let lexed = lex(src);
        let ast = parse(&lexed);
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
        let mut out = Vec::new();
        ast.visit_items(&mut |item, _| {
            if item.kind == ItemKind::Fn && item.body.is_some() {
                out.append(&mut analyze_fn(item, &lexed.toks));
            }
        });
        out
    }

    #[test]
    fn refcell_type_recorded_in_decl_text() {
        let lexed = lex("fn f() { let cell: RefCell<f64> = RefCell::new(0.0); }");
        let ast = parse(&lexed);
        let mut decls = Vec::new();
        ast.visit_items(&mut |item, _| {
            for stmt in item.body.iter().flat_map(|b| &b.stmts) {
                decls.extend(let_binding(stmt, &lexed.toks));
            }
        });
        assert_eq!(decls.len(), 1);
        assert_eq!(decls[0].0, "cell");
        assert!(decls[0].1.decl_text.contains("RefCell"), "{decls:?}");
    }

    #[test]
    fn closure_params_and_locals_are_not_captures() {
        // The closure's own `m` (parameter or local) shadows the outer map.
        for src in [
            "fn f() { let m: HashMap<u32, f64> = HashMap::new(); run(|m: Vec<f64>| m.iter().count()); }",
            "fn f() { let m: HashMap<u32, f64> = HashMap::new(); run(|| { let m = vec![1.0]; m.iter().count() }); }",
        ] {
            let reps = closures_of(src);
            assert!(reps.iter().all(|r| r.unordered_iters.is_empty()), "{src}");
        }
    }

    #[test]
    fn unordered_map_iteration_is_reported() {
        let reps = closures_of(
            "fn f() { let m: HashMap<String, f64> = HashMap::new(); init(|| m.iter().map(|(_, v)| v).sum::<f64>()); }",
        );
        let outer = reps.iter().find(|r| !r.unordered_iters.is_empty()).unwrap();
        assert_eq!(outer.unordered_iters[0].ty, "HashMap");
    }

    #[test]
    fn ordered_collection_iteration_is_fine() {
        let reps = closures_of(
            "fn f() { let m: BTreeMap<String, f64> = BTreeMap::new(); init(|| m.iter().count()); }",
        );
        assert!(reps.iter().all(|r| r.unordered_iters.is_empty()));
    }

    #[test]
    fn path_roots_and_fields_are_not_captures() {
        let reps = closures_of(
            "fn f(s: &S) { let m: HashSet<u32> = HashSet::new(); run(|| s.m.iter().count() + m::iter().count()); }",
        );
        assert!(reps[0].unordered_iters.is_empty(), "{:?}", reps[0]);
    }

    #[test]
    fn fn_params_are_bound() {
        let reps = closures_of("fn f(state: HashSet<u64>) { run(move || state.iter().count()); }");
        let it = &reps[0].unordered_iters[0];
        assert_eq!((it.name.as_str(), it.ty.as_str()), ("state", "HashSet"));
    }
}
