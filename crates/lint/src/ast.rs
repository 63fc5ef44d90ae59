//! The lightweight AST produced by [`crate::parser`].
//!
//! This is a *structural overlay* on the token stream, not a full Rust
//! syntax tree: items, blocks, closures, attributes and delimiter
//! groups are materialized as nodes; everything else stays a flat run
//! of token references. The design invariant — checked by the
//! round-trip suite — is **total token coverage**: an in-order walk of
//! the tree visits every token index exactly once, so byte spans are
//! preserved and no construct can silently vanish from analysis.

use crate::lexer::Tok;

/// A parsed `cfg` predicate, e.g. `all(feature = "fast-math", not(test))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgPredicate {
    /// `feature = "name"`.
    Feature(String),
    /// The bare `test` atom.
    Test,
    /// Any other bare atom (`unix`, `doc`, …).
    Ident(String),
    /// Any other `key = "value"` pair (`target_os = "linux"`, …).
    KeyValue(String, String),
    /// `not(..)`.
    Not(Box<CfgPredicate>),
    /// `all(..)`.
    All(Vec<CfgPredicate>),
    /// `any(..)`.
    Any(Vec<CfgPredicate>),
}

impl CfgPredicate {
    /// Evaluates the predicate under a build configuration: `test_on`
    /// toggles the `test` atom, `features` is the enabled feature set.
    /// Unknown atoms and key/value pairs evaluate to `false` — the
    /// conservative reading for "is this compiled in the default
    /// workspace build".
    pub fn eval(&self, test_on: bool, features: &[&str]) -> bool {
        match self {
            CfgPredicate::Feature(f) => features.contains(&f.as_str()),
            CfgPredicate::Test => test_on,
            CfgPredicate::Ident(_) | CfgPredicate::KeyValue(_, _) => false,
            CfgPredicate::Not(p) => !p.eval(test_on, features),
            CfgPredicate::All(ps) => ps.iter().all(|p| p.eval(test_on, features)),
            CfgPredicate::Any(ps) => ps.iter().any(|p| p.eval(test_on, features)),
        }
    }

    /// True when the gated item only exists in test builds: absent
    /// without `test` under *any* feature assignment, present with
    /// `test` under some assignment (checked at the all-off and all-on
    /// corners, which is exact for gates without feature `not`-mixes).
    pub fn is_test_only(&self) -> bool {
        let off_without_test = !self.eval(false, &[]) && !self.eval_features_on(false);
        off_without_test && (self.eval(true, &[]) || self.eval_features_on(true))
    }

    /// Evaluates with every `feature = ".."` atom forced to `true`.
    fn eval_features_on(&self, test_on: bool) -> bool {
        match self {
            CfgPredicate::Feature(_) => true,
            CfgPredicate::Test => test_on,
            CfgPredicate::Ident(_) | CfgPredicate::KeyValue(_, _) => false,
            CfgPredicate::Not(p) => !p.eval_features_on(test_on),
            CfgPredicate::All(ps) => ps.iter().all(|p| p.eval_features_on(test_on)),
            CfgPredicate::Any(ps) => ps.iter().any(|p| p.eval_features_on(test_on)),
        }
    }

    /// Features that, enabled alone, bring a default-absent item into
    /// the build. Empty for items already present by default.
    pub fn enabling_features(&self) -> Vec<String> {
        if self.eval(false, &[]) {
            return Vec::new();
        }
        let mut names = Vec::new();
        self.collect_feature_names(&mut names);
        names.retain(|f| self.eval(false, &[f.as_str()]));
        names.dedup();
        names
    }

    fn collect_feature_names(&self, out: &mut Vec<String>) {
        match self {
            CfgPredicate::Feature(f) => out.push(f.clone()),
            CfgPredicate::Not(p) => p.collect_feature_names(out),
            CfgPredicate::All(ps) | CfgPredicate::Any(ps) => {
                for p in ps {
                    p.collect_feature_names(out);
                }
            }
            _ => {}
        }
    }
}

/// One attribute, outer (`#[..]`) or inner (`#![..]`).
#[derive(Debug, Clone)]
pub struct Attr {
    /// Token index range `[start, end)` covering `#`…`]`.
    pub span: (usize, usize),
    /// 1-based line of the `#`.
    pub line: usize,
    /// First path identifier inside the brackets (`cfg`, `test`, …).
    pub path: String,
    /// Parsed predicate when `path == "cfg"`.
    pub cfg: Option<CfgPredicate>,
    /// True for `#![..]`.
    pub inner: bool,
}

impl Attr {
    /// True for `#[test]` or a `cfg` gate that only passes in test
    /// builds (`#[cfg(test)]`, `#[cfg(all(test, ..))]`, …).
    pub fn is_test_only(&self) -> bool {
        if self.path == "test" {
            return true;
        }
        self.cfg.as_ref().is_some_and(CfgPredicate::is_test_only)
    }

    /// Features that enable this attribute's cfg gate (empty when the
    /// attribute is not a feature gate).
    pub fn enabling_features(&self) -> Vec<String> {
        self.cfg
            .as_ref()
            .map(CfgPredicate::enabling_features)
            .unwrap_or_default()
    }
}

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn`.
    Fn,
    /// Inline or declared `mod`.
    Mod,
    /// `struct` / `enum` / `union`.
    DataType,
    /// `trait`.
    Trait,
    /// `impl`.
    Impl,
    /// `use`.
    Use,
    /// `const` or `static`.
    Const,
    /// `type` alias.
    TypeAlias,
    /// `extern "C" { .. }` / `extern crate ..`.
    Extern,
    /// `macro_rules!` definition.
    MacroRules,
    /// Item-position macro invocation (`thread_local! { .. }`).
    MacroCall,
    /// Fallback: a single token the item parser could not classify.
    Unknown,
}

/// The members container of a `mod` / `impl` / `trait` / extern block.
#[derive(Debug)]
pub struct Members {
    /// Token index of the opening `{`.
    pub open: usize,
    /// Inner attributes (`#![..]`) at the container top.
    pub inner_attrs: Vec<Attr>,
    /// Member items (with `Node::Tok` fallbacks for stray tokens).
    pub nodes: Vec<Node>,
    /// Token index of the closing `}` (None at EOF).
    pub close: Option<usize>,
}

/// One item.
#[derive(Debug)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Declared name, when the form has one.
    pub name: Option<String>,
    /// Token index of the name identifier (excluded from "mention"
    /// scans — a definition is not a reference).
    pub name_tok: Option<usize>,
    /// Outer attributes.
    pub attrs: Vec<Attr>,
    /// Bare `pub` visibility (not `pub(crate)` etc.).
    pub is_pub: bool,
    /// 1-based line of the first head token.
    pub line: usize,
    /// Token index range `[start, end)` covering the whole item.
    pub span: (usize, usize),
    /// Everything between the attributes and the body/members/semi:
    /// modifiers, keyword, name, generics, parameter group, return
    /// type, or — for `const`/`use`/data types — the full remainder.
    pub head: Vec<Node>,
    /// `fn` body.
    pub body: Option<Block>,
    /// `mod`/`impl`/`trait`/extern member container.
    pub members: Option<Members>,
    /// Trailing `;` token index.
    pub semi: Option<usize>,
}

impl Item {
    /// The parameter group of an `fn` item (first parenthesis group in
    /// the head), if any.
    pub fn param_group(&self) -> Option<&[Node]> {
        self.head.iter().find_map(|n| match n {
            Node::Group {
                children,
                kind: GroupKind::Paren,
                ..
            } => Some(children.as_slice()),
            _ => None,
        })
    }

    /// True when any outer attribute is test-only.
    pub fn is_test_gated(&self) -> bool {
        self.attrs.iter().any(Attr::is_test_only)
    }

    /// Features required (beyond the default set) by this item's own
    /// attributes.
    pub fn own_features(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in &self.attrs {
            out.extend(a.enabling_features());
        }
        out
    }
}

/// Delimiter kind of a [`Node::Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// `( .. )`.
    Paren,
    /// `[ .. ]`.
    Bracket,
    /// `{ .. }` parsed as a raw token tree (struct bodies, macro
    /// definitions) rather than a statement block.
    RawBrace,
}

/// A `{ .. }` block of statements.
#[derive(Debug)]
pub struct Block {
    /// Token index of `{`.
    pub open: usize,
    /// Statements, loosely split on `;`.
    pub stmts: Vec<Stmt>,
    /// Token index of `}` (None at EOF).
    pub close: Option<usize>,
}

/// One loosely-parsed statement.
#[derive(Debug)]
pub struct Stmt {
    /// Outer attributes (carry `cfg` gates for statements).
    pub attrs: Vec<Attr>,
    /// True when the statement starts with `let`.
    pub is_let: bool,
    /// The statement's expression nodes (for an item statement, a
    /// single `Node::Item`).
    pub nodes: Vec<Node>,
    /// Trailing `;` token index.
    pub semi: Option<usize>,
}

/// A closure literal.
#[derive(Debug)]
pub struct Closure {
    /// Token index of a leading `move`, if present.
    pub move_tok: Option<usize>,
    /// Token index of the opening `|` (or the single `||` token).
    pub open: usize,
    /// Parameter nodes between the pipes (empty for `||`).
    pub params: Vec<Node>,
    /// Token index of the closing `|` (None for the `||` token form).
    pub close: Option<usize>,
    /// Body nodes (a single `Node::Block` for brace bodies).
    pub body: Vec<Node>,
    /// 1-based line of the opening pipe.
    pub line: usize,
}

/// One AST node.
#[derive(Debug)]
pub enum Node {
    /// A single token, by index into the lexed token list.
    Tok(usize),
    /// A delimiter group.
    Group {
        /// Opening delimiter token index.
        open: usize,
        /// Delimiter kind.
        kind: GroupKind,
        /// Child nodes.
        children: Vec<Node>,
        /// Closing delimiter token index (None at EOF).
        close: Option<usize>,
    },
    /// A statement block.
    Block(Block),
    /// A closure literal.
    Closure(Box<Closure>),
    /// A nested item.
    Item(Box<Item>),
}

/// A parsed file.
#[derive(Debug, Default)]
pub struct Ast {
    /// File-level inner attributes (`#![..]`).
    pub inner_attrs: Vec<Attr>,
    /// Top-level nodes (items, with token fallbacks).
    pub nodes: Vec<Node>,
    /// Number of tokens in the underlying lexed stream.
    pub n_tokens: usize,
    /// Parse irregularities (unbalanced delimiters, EOF in a block).
    /// Non-empty errors fail the check for the file.
    pub errors: Vec<String>,
}

impl Ast {
    /// In-order token indices covered by the tree. The round-trip
    /// invariant is `coverage() == (0..n_tokens)`.
    pub fn coverage(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.n_tokens);
        for a in &self.inner_attrs {
            out.extend(a.span.0..a.span.1);
        }
        for n in &self.nodes {
            cover_node(n, &mut out);
        }
        out
    }

    /// True when the tree covers every token exactly once, in order.
    pub fn covers_all_tokens(&self) -> bool {
        let cov = self.coverage();
        cov.len() == self.n_tokens && cov.iter().enumerate().all(|(i, &t)| i == t)
    }

    /// Visits every item in the tree (depth-first, source order),
    /// passing the stack of enclosing items.
    pub fn visit_items<'a>(&'a self, f: &mut impl FnMut(&'a Item, &[&'a Item])) {
        let mut stack = Vec::new();
        for n in &self.nodes {
            visit_node_items(n, &mut stack, f);
        }
    }
}

fn visit_node_items<'a>(
    node: &'a Node,
    stack: &mut Vec<&'a Item>,
    f: &mut impl FnMut(&'a Item, &[&'a Item]),
) {
    match node {
        Node::Item(item) => {
            f(item, stack);
            stack.push(item);
            for n in &item.head {
                visit_node_items(n, stack, f);
            }
            if let Some(m) = &item.members {
                for n in &m.nodes {
                    visit_node_items(n, stack, f);
                }
            }
            if let Some(b) = &item.body {
                visit_block_items(b, stack, f);
            }
            stack.pop();
        }
        Node::Group { children, .. } => {
            for n in children {
                visit_node_items(n, stack, f);
            }
        }
        Node::Block(b) => visit_block_items(b, stack, f),
        Node::Closure(c) => {
            for n in &c.body {
                visit_node_items(n, stack, f);
            }
        }
        Node::Tok(_) => {}
    }
}

fn visit_block_items<'a>(
    block: &'a Block,
    stack: &mut Vec<&'a Item>,
    f: &mut impl FnMut(&'a Item, &[&'a Item]),
) {
    for s in &block.stmts {
        for n in &s.nodes {
            visit_node_items(n, stack, f);
        }
    }
}

fn cover_node(node: &Node, out: &mut Vec<usize>) {
    match node {
        Node::Tok(i) => out.push(*i),
        Node::Group {
            open,
            children,
            close,
            ..
        } => {
            out.push(*open);
            for n in children {
                cover_node(n, out);
            }
            if let Some(c) = close {
                out.push(*c);
            }
        }
        Node::Block(b) => cover_block(b, out),
        Node::Closure(c) => {
            if let Some(m) = c.move_tok {
                out.push(m);
            }
            out.push(c.open);
            for n in &c.params {
                cover_node(n, out);
            }
            if let Some(cl) = c.close {
                out.push(cl);
            }
            for n in &c.body {
                cover_node(n, out);
            }
        }
        Node::Item(item) => cover_item(item, out),
    }
}

fn cover_block(b: &Block, out: &mut Vec<usize>) {
    out.push(b.open);
    for s in &b.stmts {
        for a in &s.attrs {
            out.extend(a.span.0..a.span.1);
        }
        for n in &s.nodes {
            cover_node(n, out);
        }
        if let Some(semi) = s.semi {
            out.push(semi);
        }
    }
    if let Some(c) = b.close {
        out.push(c);
    }
}

fn cover_item(item: &Item, out: &mut Vec<usize>) {
    for a in &item.attrs {
        out.extend(a.span.0..a.span.1);
    }
    for n in &item.head {
        cover_node(n, out);
    }
    if let Some(m) = &item.members {
        out.push(m.open);
        for a in &m.inner_attrs {
            out.extend(a.span.0..a.span.1);
        }
        for n in &m.nodes {
            cover_node(n, out);
        }
        if let Some(c) = m.close {
            out.push(c);
        }
    }
    if let Some(b) = &item.body {
        cover_block(b, out);
    }
    if let Some(semi) = item.semi {
        out.push(semi);
    }
}

/// Tokens helper: text of token `i`, or `""` out of range.
pub fn tok_text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map_or("", |t| t.text.as_str())
}
