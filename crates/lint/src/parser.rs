//! Hand-rolled recursive-descent parser over the [`crate::lexer`]
//! token stream.
//!
//! Produces the lightweight [`crate::ast`] overlay: items with
//! attributes (including parsed `cfg` predicates), statement blocks,
//! delimiter groups and closures. The parser is *total* — it never
//! panics and consumes every token exactly once (unclassifiable tokens
//! become `Node::Tok` leaves) — and records irregularities in
//! [`Ast::errors`] instead of failing, so the engine can name the file
//! and the first error.

use crate::ast::{
    Ast, Attr, Block, CfgPredicate, Closure, GroupKind, Item, ItemKind, Members, Node, Stmt,
};
use crate::lexer::{Lexed, Tok, TokKind};

/// Parses one lexed file into the AST overlay.
pub fn parse(lexed: &Lexed) -> Ast {
    let mut p = Parser {
        toks: &lexed.toks,
        pos: 0,
        errors: Vec::new(),
    };
    let inner_attrs = p.parse_inner_attrs();
    let mut nodes = Vec::new();
    while p.pos < p.toks.len() {
        if p.at_punct("}") {
            // Stray close at top level: keep it as a token, note it.
            p.errors
                .push(format!("line {}: unmatched `}}` at file level", p.line()));
            nodes.push(Node::Tok(p.bump()));
            continue;
        }
        nodes.push(p.parse_container_entry());
    }
    Ast {
        inner_attrs,
        nodes,
        n_tokens: lexed.toks.len(),
        errors: p.errors,
    }
}

/// Identifiers that cannot be expression operands (so a following `|`
/// starts a closure rather than a binary or-pattern).
const NON_OPERAND_KEYWORDS: [&str; 27] = [
    "let", "if", "else", "match", "while", "loop", "for", "return", "break", "continue", "in",
    "move", "mut", "ref", "as", "where", "unsafe", "async", "dyn", "pub", "use", "fn", "impl",
    "struct", "enum", "trait", "mod",
];

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    errors: Vec<String>,
}

impl<'a> Parser<'a> {
    fn cur(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn peek(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + off)
    }

    fn line(&self) -> usize {
        self.cur().map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> usize {
        let i = self.pos;
        self.pos += 1;
        i
    }

    fn at_punct(&self, p: &str) -> bool {
        self.cur().is_some_and(|t| t.is_punct(p))
    }

    fn at_ident(&self, id: &str) -> bool {
        self.cur().is_some_and(|t| t.is_ident(id))
    }

    // ---- attributes -----------------------------------------------------

    fn parse_inner_attrs(&mut self) -> Vec<Attr> {
        let mut out = Vec::new();
        while self.at_punct("#")
            && self.peek(1).is_some_and(|t| t.is_punct("!"))
            && self.peek(2).is_some_and(|t| t.is_punct("["))
        {
            out.push(self.parse_one_attr(true));
        }
        out
    }

    fn parse_outer_attrs(&mut self) -> Vec<Attr> {
        let mut out = Vec::new();
        while self.at_punct("#") && self.peek(1).is_some_and(|t| t.is_punct("[")) {
            out.push(self.parse_one_attr(false));
        }
        out
    }

    /// Parses `#[..]` / `#![..]` starting at the `#`.
    fn parse_one_attr(&mut self, inner: bool) -> Attr {
        let start = self.pos;
        let line = self.line();
        self.bump(); // `#`
        if inner {
            self.bump(); // `!`
        }
        self.bump(); // `[`
        let body_start = self.pos;
        let mut depth = 1usize;
        while let Some(t) = self.cur() {
            if t.is_punct("[") || t.is_punct("(") {
                depth += 1;
            } else if t.is_punct("]") || t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            self.bump();
        }
        let body_end = self.pos;
        if self.at_punct("]") {
            self.bump();
        } else {
            self.errors
                .push(format!("line {line}: unterminated attribute"));
        }
        let body = &self.toks[body_start..body_end];
        let path = body
            .iter()
            .find(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let cfg = if path == "cfg" {
            parse_cfg_predicate(body)
        } else {
            None
        };
        Attr {
            span: (start, self.pos),
            line,
            path,
            cfg,
            inner,
        }
    }

    // ---- items ----------------------------------------------------------

    /// One entry of an item container (file, `mod`, `impl`, `trait`).
    /// Always consumes at least one token.
    fn parse_container_entry(&mut self) -> Node {
        let attrs = self.parse_outer_attrs();
        Node::Item(Box::new(self.parse_item(attrs)))
    }

    /// Looks ahead from `pos` to decide whether an item starts here
    /// (used by the statement parser; the container parser treats
    /// everything as an item and relies on the Unknown fallback).
    fn item_starts_here(&self) -> bool {
        let mut j = self.pos;
        let mut saw_const = false;
        let mut saw_unsafe = false;
        loop {
            let Some(t) = self.toks.get(j) else {
                return false;
            };
            match t.text.as_str() {
                "pub" if t.kind == TokKind::Ident => {
                    j += 1;
                    if self.toks.get(j).is_some_and(|t| t.is_punct("(")) {
                        let mut d = 0usize;
                        while let Some(t) = self.toks.get(j) {
                            if t.is_punct("(") {
                                d += 1;
                            } else if t.is_punct(")") {
                                d -= 1;
                                if d == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                }
                "default" | "async" if t.kind == TokKind::Ident => j += 1,
                "unsafe" if t.kind == TokKind::Ident => {
                    saw_unsafe = true;
                    j += 1;
                }
                "const" if t.kind == TokKind::Ident => {
                    saw_const = true;
                    j += 1;
                }
                "extern" if t.kind == TokKind::Ident => {
                    j += 1;
                    if self.toks.get(j).is_some_and(|t| t.kind == TokKind::Str) {
                        j += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(t) = self.toks.get(j) else {
            return false;
        };
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "fn" | "mod" | "struct" | "enum" | "trait" | "impl" | "use" | "static" | "type"
                | "macro_rules" | "crate" => return true,
                "union" => {
                    return self
                        .toks
                        .get(j + 1)
                        .is_some_and(|t| t.kind == TokKind::Ident);
                }
                _ => {}
            }
            // `const NAME: ..` / `const _: ..` item form.
            if saw_const && !NON_OPERAND_KEYWORDS.contains(&t.text.as_str()) {
                return true;
            }
        }
        // `unsafe {` is an unsafe *block* expression, not an item.
        let _ = saw_unsafe;
        false
    }

    /// Parses one item (with the given already-parsed attributes).
    /// Falls back to a one-token Unknown item so progress is guaranteed.
    fn parse_item(&mut self, attrs: Vec<Attr>) -> Item {
        let start = attrs.first().map_or(self.pos, |a| a.span.0);
        let line = self
            .cur()
            .map(|t| t.line)
            .or_else(|| attrs.first().map(|a| a.line))
            .unwrap_or(0);
        let mut head: Vec<Node> = Vec::new();
        let mut is_pub = false;

        // Modifier run: pub[(..)] default const(before fn) unsafe async
        // extern "abi"(before fn).
        while let Some(t) = self.cur() {
            if t.kind != TokKind::Ident {
                break;
            }
            match t.text.as_str() {
                "pub" => {
                    let only_pub = !self.peek(1).is_some_and(|n| n.is_punct("("));
                    is_pub = is_pub || only_pub;
                    head.push(Node::Tok(self.bump()));
                    if self.at_punct("(") {
                        head.push(self.parse_raw_group());
                    }
                }
                "default" | "async" | "unsafe" => {
                    // `unsafe` only continues an item when an item
                    // keyword (or further modifier) follows.
                    if t.text == "unsafe" && self.peek(1).is_some_and(|n| n.is_punct("{")) {
                        break;
                    }
                    head.push(Node::Tok(self.bump()));
                }
                "const" => {
                    if self.peek(1).is_some_and(|n| n.is_ident("fn")) {
                        head.push(Node::Tok(self.bump()));
                    } else {
                        break; // `const NAME: ..` handled by dispatch
                    }
                }
                "extern" => {
                    let after = if self.peek(1).is_some_and(|n| n.kind == TokKind::Str) {
                        2
                    } else {
                        1
                    };
                    if self.peek(after).is_some_and(|n| n.is_ident("fn")) {
                        head.push(Node::Tok(self.bump()));
                        if self.cur().is_some_and(|t| t.kind == TokKind::Str) {
                            head.push(Node::Tok(self.bump()));
                        }
                    } else {
                        break; // extern block / extern crate
                    }
                }
                _ => break,
            }
        }

        let kw = self.cur().map(|t| t.text.clone()).unwrap_or_default();
        let mut item = match kw.as_str() {
            "fn" => self.parse_fn(head),
            "mod" => self.parse_mod(head),
            "struct" | "enum" | "union" => self.parse_datatype(head),
            "trait" | "impl" => self.parse_trait_impl(head),
            "use" => self.parse_use(head),
            "const" | "static" => self.parse_const(head),
            "type" => self.parse_type_alias(head),
            "extern" => self.parse_extern(head),
            "macro_rules" => self.parse_macro_rules(head),
            _ => {
                if self.cur().is_some_and(|t| t.kind == TokKind::Ident)
                    && self.peek(1).is_some_and(|t| t.is_punct("!"))
                {
                    self.parse_macro_call_item(head)
                } else {
                    // Unknown fallback: exactly one token.
                    if self.cur().is_some() {
                        head.push(Node::Tok(self.bump()));
                    }
                    self.finish_item(ItemKind::Unknown, None, None, head, None, None, None)
                }
            }
        };
        item.attrs = attrs;
        item.is_pub = is_pub;
        item.line = line;
        item.span = (start, self.pos);
        item
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_item(
        &self,
        kind: ItemKind,
        name: Option<String>,
        name_tok: Option<usize>,
        head: Vec<Node>,
        body: Option<Block>,
        members: Option<Members>,
        semi: Option<usize>,
    ) -> Item {
        Item {
            kind,
            name,
            name_tok,
            attrs: Vec::new(),
            is_pub: false,
            line: 0,
            span: (0, 0),
            head,
            body,
            members,
            semi,
        }
    }

    fn parse_fn(&mut self, mut head: Vec<Node>) -> Item {
        head.push(Node::Tok(self.bump())); // `fn`
        let mut name = None;
        let mut name_tok = None;
        if let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                name = Some(t.text.clone());
                name_tok = Some(self.pos);
                head.push(Node::Tok(self.bump()));
            }
        }
        if self.at_punct("<") {
            self.consume_angles(&mut head);
        }
        if self.at_punct("(") {
            let g = self.parse_expr_group();
            head.push(g);
        }
        // Return type / where clause: consume to `{` or `;` at depth 0.
        while let Some(t) = self.cur() {
            if t.is_punct("{") || t.is_punct(";") || t.is_punct("}") {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") {
                head.push(self.parse_raw_group());
            } else {
                head.push(Node::Tok(self.bump()));
            }
        }
        let (body, semi) = if self.at_punct("{") {
            (Some(self.parse_block()), None)
        } else if self.at_punct(";") {
            (None, Some(self.bump()))
        } else {
            (None, None)
        };
        self.finish_item(ItemKind::Fn, name, name_tok, head, body, None, semi)
    }

    fn parse_mod(&mut self, mut head: Vec<Node>) -> Item {
        head.push(Node::Tok(self.bump())); // `mod`
        let mut name = None;
        let mut name_tok = None;
        if let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                name = Some(t.text.clone());
                name_tok = Some(self.pos);
                head.push(Node::Tok(self.bump()));
            }
        }
        if self.at_punct("{") {
            let members = self.parse_members();
            self.finish_item(
                ItemKind::Mod,
                name,
                name_tok,
                head,
                None,
                Some(members),
                None,
            )
        } else {
            let semi = self.at_punct(";").then(|| self.bump());
            self.finish_item(ItemKind::Mod, name, name_tok, head, None, None, semi)
        }
    }

    fn parse_datatype(&mut self, mut head: Vec<Node>) -> Item {
        head.push(Node::Tok(self.bump())); // struct / enum / union
        let mut name = None;
        let mut name_tok = None;
        if let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                name = Some(t.text.clone());
                name_tok = Some(self.pos);
                head.push(Node::Tok(self.bump()));
            }
        }
        if self.at_punct("<") {
            self.consume_angles(&mut head);
        }
        while let Some(t) = self.cur() {
            if t.is_punct("{") {
                head.push(self.parse_raw_group());
                break;
            }
            if t.is_punct(";") || t.is_punct("}") {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") {
                head.push(self.parse_raw_group());
            } else {
                head.push(Node::Tok(self.bump()));
            }
        }
        let semi = self.at_punct(";").then(|| self.bump());
        self.finish_item(ItemKind::DataType, name, name_tok, head, None, None, semi)
    }

    fn parse_trait_impl(&mut self, mut head: Vec<Node>) -> Item {
        let kind = if self.at_ident("trait") {
            ItemKind::Trait
        } else {
            ItemKind::Impl
        };
        head.push(Node::Tok(self.bump())); // trait / impl
        let mut name = None;
        let mut name_tok = None;
        while let Some(t) = self.cur() {
            if t.is_punct("{") || t.is_punct(";") || t.is_punct("}") {
                break;
            }
            if name.is_none() && t.kind == TokKind::Ident && !t.is_ident("for") {
                name = Some(t.text.clone());
                name_tok = Some(self.pos);
            }
            if t.is_punct("(") || t.is_punct("[") {
                head.push(self.parse_raw_group());
            } else {
                head.push(Node::Tok(self.bump()));
            }
        }
        if self.at_punct("{") {
            let members = self.parse_members();
            self.finish_item(kind, name, name_tok, head, None, Some(members), None)
        } else {
            let semi = self.at_punct(";").then(|| self.bump());
            self.finish_item(kind, name, name_tok, head, None, None, semi)
        }
    }

    fn parse_use(&mut self, mut head: Vec<Node>) -> Item {
        head.push(Node::Tok(self.bump())); // `use`
        while let Some(t) = self.cur() {
            if t.is_punct(";") || t.is_punct("}") && !t.is_punct("{") {
                break;
            }
            if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                head.push(self.parse_raw_group());
            } else {
                head.push(Node::Tok(self.bump()));
            }
        }
        let semi = self.at_punct(";").then(|| self.bump());
        self.finish_item(ItemKind::Use, None, None, head, None, None, semi)
    }

    fn parse_const(&mut self, mut head: Vec<Node>) -> Item {
        head.push(Node::Tok(self.bump())); // const / static
        if self.at_ident("mut") {
            head.push(Node::Tok(self.bump()));
        }
        let mut name = None;
        let mut name_tok = None;
        if let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                name = Some(t.text.clone());
                name_tok = Some(self.pos);
                head.push(Node::Tok(self.bump()));
            }
        }
        // Type part up to `=` / `;`, then a structured initializer
        // expression (closures in `Lazy::new(|| ..)` matter to rules).
        while let Some(t) = self.cur() {
            if t.is_punct("=") || t.is_punct(";") || t.is_punct("}") {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                head.push(self.parse_raw_group());
            } else {
                head.push(Node::Tok(self.bump()));
            }
        }
        if self.at_punct("=") {
            head.push(Node::Tok(self.bump()));
            let mut init = self.parse_expr_nodes(&[";"]);
            head.append(&mut init);
        }
        let semi = self.at_punct(";").then(|| self.bump());
        self.finish_item(ItemKind::Const, name, name_tok, head, None, None, semi)
    }

    fn parse_type_alias(&mut self, mut head: Vec<Node>) -> Item {
        head.push(Node::Tok(self.bump())); // `type`
        let mut name = None;
        let mut name_tok = None;
        if let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                name = Some(t.text.clone());
                name_tok = Some(self.pos);
                head.push(Node::Tok(self.bump()));
            }
        }
        while let Some(t) = self.cur() {
            if t.is_punct(";") || t.is_punct("}") {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                head.push(self.parse_raw_group());
            } else {
                head.push(Node::Tok(self.bump()));
            }
        }
        let semi = self.at_punct(";").then(|| self.bump());
        self.finish_item(ItemKind::TypeAlias, name, name_tok, head, None, None, semi)
    }

    fn parse_extern(&mut self, mut head: Vec<Node>) -> Item {
        head.push(Node::Tok(self.bump())); // `extern`
        if self.at_ident("crate") {
            while let Some(t) = self.cur() {
                if t.is_punct(";") || t.is_punct("}") {
                    break;
                }
                head.push(Node::Tok(self.bump()));
            }
            let semi = self.at_punct(";").then(|| self.bump());
            return self.finish_item(ItemKind::Extern, None, None, head, None, None, semi);
        }
        if self.cur().is_some_and(|t| t.kind == TokKind::Str) {
            head.push(Node::Tok(self.bump()));
        }
        if self.at_punct("{") {
            let members = self.parse_members();
            self.finish_item(
                ItemKind::Extern,
                None,
                None,
                head,
                None,
                Some(members),
                None,
            )
        } else {
            let semi = self.at_punct(";").then(|| self.bump());
            self.finish_item(ItemKind::Extern, None, None, head, None, None, semi)
        }
    }

    fn parse_macro_rules(&mut self, mut head: Vec<Node>) -> Item {
        head.push(Node::Tok(self.bump())); // `macro_rules`
        if self.at_punct("!") {
            head.push(Node::Tok(self.bump()));
        }
        let mut name = None;
        let mut name_tok = None;
        if let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                name = Some(t.text.clone());
                name_tok = Some(self.pos);
                head.push(Node::Tok(self.bump()));
            }
        }
        if self.at_punct("{") || self.at_punct("(") || self.at_punct("[") {
            head.push(self.parse_raw_group());
        }
        let semi = self.at_punct(";").then(|| self.bump());
        self.finish_item(ItemKind::MacroRules, name, name_tok, head, None, None, semi)
    }

    /// Item-position macro invocation: `path::name! ( .. );` or
    /// `path::name! { .. }`.
    fn parse_macro_call_item(&mut self, mut head: Vec<Node>) -> Item {
        let mut name = None;
        let mut name_tok = None;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                name = Some(t.text.clone());
                name_tok = Some(self.pos);
                head.push(Node::Tok(self.bump()));
                if self.at_punct("::") {
                    head.push(Node::Tok(self.bump()));
                    continue;
                }
            }
            break;
        }
        if self.at_punct("!") {
            head.push(Node::Tok(self.bump()));
        }
        if self.at_punct("{") || self.at_punct("(") || self.at_punct("[") {
            head.push(self.parse_raw_group());
        }
        let semi = self.at_punct(";").then(|| self.bump());
        self.finish_item(ItemKind::MacroCall, name, name_tok, head, None, None, semi)
    }

    fn parse_members(&mut self) -> Members {
        let open = self.bump(); // `{`
        let inner_attrs = self.parse_inner_attrs();
        let mut nodes = Vec::new();
        while let Some(t) = self.cur() {
            if t.is_punct("}") {
                break;
            }
            nodes.push(self.parse_container_entry());
        }
        let close = if self.at_punct("}") {
            Some(self.bump())
        } else {
            self.errors.push("unterminated member block".into());
            None
        };
        Members {
            open,
            inner_attrs,
            nodes,
            close,
        }
    }

    // ---- blocks, statements, expressions --------------------------------

    fn parse_block(&mut self) -> Block {
        let open = self.bump(); // `{`
        let mut stmts = Vec::new();
        while let Some(t) = self.cur() {
            if t.is_punct("}") {
                break;
            }
            stmts.push(self.parse_stmt());
        }
        let close = if self.at_punct("}") {
            Some(self.bump())
        } else {
            self.errors.push("unterminated block".into());
            None
        };
        Block { open, stmts, close }
    }

    fn parse_stmt(&mut self) -> Stmt {
        let attrs = self.parse_outer_attrs();
        if self.at_punct("}") || self.cur().is_none() {
            return Stmt {
                attrs,
                is_let: false,
                nodes: Vec::new(),
                semi: None,
            };
        }
        if self.item_starts_here() {
            let item = self.parse_item(Vec::new());
            return Stmt {
                attrs,
                is_let: false,
                nodes: vec![Node::Item(Box::new(item))],
                semi: None,
            };
        }
        let is_let = self.at_ident("let");
        let mut nodes = Vec::new();
        if is_let {
            nodes.push(Node::Tok(self.bump()));
        }
        let mut rest = self.parse_expr_nodes(&[";"]);
        nodes.append(&mut rest);
        let semi = self.at_punct(";").then(|| self.bump());
        if nodes.is_empty() && semi.is_none() {
            // Stray `)` / `]`: consume one token so the loop advances.
            if self.cur().is_some() {
                self.errors
                    .push(format!("line {}: stray delimiter in block", self.line()));
                nodes.push(Node::Tok(self.bump()));
            }
        }
        Stmt {
            attrs,
            is_let,
            nodes,
            semi,
        }
    }

    /// Parses expression nodes until a stop punct at depth 0, a closing
    /// delimiter of an enclosing group, or EOF. Stop tokens are not
    /// consumed.
    fn parse_expr_nodes(&mut self, stops: &[&str]) -> Vec<Node> {
        let mut nodes: Vec<Node> = Vec::new();
        // Whether the previous node can end an operand (decides whether
        // `|` opens a closure or is a binary operator).
        let mut prev_operand = false;
        while let Some(t) = self.cur() {
            if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                break;
            }
            if stops.iter().any(|s| t.is_punct(s)) {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") {
                nodes.push(self.parse_expr_group());
                prev_operand = true;
                continue;
            }
            if t.is_punct("{") {
                nodes.push(Node::Block(self.parse_block()));
                prev_operand = true;
                continue;
            }
            if (t.is_punct("|") || t.is_punct("||")) && !prev_operand {
                if let Some(closure) = self.try_parse_closure(None) {
                    nodes.push(Node::Closure(Box::new(closure)));
                    prev_operand = true;
                    continue;
                }
                nodes.push(Node::Tok(self.bump()));
                prev_operand = false;
                continue;
            }
            if t.is_ident("move")
                && self
                    .peek(1)
                    .is_some_and(|n| n.is_punct("|") || n.is_punct("||"))
            {
                let move_tok = self.bump();
                if let Some(closure) = self.try_parse_closure(Some(move_tok)) {
                    nodes.push(Node::Closure(Box::new(closure)));
                    prev_operand = true;
                    continue;
                }
                nodes.push(Node::Tok(move_tok));
                prev_operand = false;
                continue;
            }
            // NOTE: no item detection here — mid-expression `fn`/`impl`
            // are *types* (`msg: impl Into<String>`, `cb: fn(f64) -> f64`).
            // Statement-position items are handled by `parse_stmt`.
            // Plain token.
            prev_operand = match t.kind {
                TokKind::Ident => !NON_OPERAND_KEYWORDS.contains(&t.text.as_str()),
                TokKind::Number | TokKind::Str | TokKind::Char => true,
                TokKind::Lifetime => false,
                TokKind::Punct => t.is_punct("?"),
            };
            nodes.push(Node::Tok(self.bump()));
        }
        nodes
    }

    /// Parses `( .. )` / `[ .. ]` with expression-structured children.
    fn parse_expr_group(&mut self) -> Node {
        let open = self.bump();
        let kind = if self.toks[open].is_punct("(") {
            GroupKind::Paren
        } else {
            GroupKind::Bracket
        };
        let closer = if kind == GroupKind::Paren { ")" } else { "]" };
        let mut children = Vec::new();
        loop {
            let mut part = self.parse_expr_nodes(&[","]);
            children.append(&mut part);
            if self.at_punct(",") {
                children.push(Node::Tok(self.bump()));
                continue;
            }
            break;
        }
        let close = if self.at_punct(closer) {
            Some(self.bump())
        } else {
            self.errors.push(format!(
                "line {}: unbalanced `{}`",
                self.toks[open].line, self.toks[open].text
            ));
            None
        };
        Node::Group {
            open,
            kind,
            children,
            close,
        }
    }

    /// Parses a raw (uninterpreted) token tree group at `(`/`[`/`{`.
    fn parse_raw_group(&mut self) -> Node {
        let open = self.bump();
        let (kind, closer) = match self.toks[open].text.as_str() {
            "(" => (GroupKind::Paren, ")"),
            "[" => (GroupKind::Bracket, "]"),
            _ => (GroupKind::RawBrace, "}"),
        };
        let mut children = Vec::new();
        loop {
            let Some(t) = self.cur() else {
                self.errors.push(format!(
                    "line {}: unbalanced `{}`",
                    self.toks[open].line, self.toks[open].text
                ));
                return Node::Group {
                    open,
                    kind,
                    children,
                    close: None,
                };
            };
            if t.is_punct(closer) {
                let close = Some(self.bump());
                return Node::Group {
                    open,
                    kind,
                    children,
                    close,
                };
            }
            if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                // Mismatched close: stop without consuming.
                self.errors.push(format!(
                    "line {}: mismatched `{}` inside `{}` group",
                    t.line, t.text, self.toks[open].text
                ));
                return Node::Group {
                    open,
                    kind,
                    children,
                    close: None,
                };
            }
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                children.push(self.parse_raw_group());
            } else {
                children.push(Node::Tok(self.bump()));
            }
        }
    }

    /// Attempts to parse a closure at the current `|` / `||`. Returns
    /// None (without consuming) when no closing `|` is in sight.
    fn try_parse_closure(&mut self, move_tok: Option<usize>) -> Option<Closure> {
        let line = self.line();
        if self.at_punct("||") {
            let open = self.bump();
            let body = self.parse_closure_body();
            return Some(Closure {
                move_tok,
                open,
                params: Vec::new(),
                close: None,
                body,
                line,
            });
        }
        // Lookahead for the closing `|` at depth 0 within a short window.
        let mut depth = 0i32;
        let mut found = false;
        for off in 1..96 {
            let Some(t) = self.toks.get(self.pos + off) else {
                break;
            };
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if depth == 0 {
                if t.is_punct("|") {
                    found = true;
                    break;
                }
                if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") || t.is_punct("||") {
                    break;
                }
            }
        }
        if !found {
            return None;
        }
        let open = self.bump(); // `|`
        let mut params = Vec::new();
        while let Some(t) = self.cur() {
            if t.is_punct("|") {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") {
                params.push(self.parse_raw_group());
            } else {
                params.push(Node::Tok(self.bump()));
            }
        }
        let close = self.at_punct("|").then(|| self.bump());
        let body = self.parse_closure_body();
        Some(Closure {
            move_tok,
            open,
            params,
            close,
            body,
            line,
        })
    }

    fn parse_closure_body(&mut self) -> Vec<Node> {
        // `-> Type {` return-type form: consume up to the block.
        if self.at_punct("->") {
            let mut nodes = Vec::new();
            while let Some(t) = self.cur() {
                if t.is_punct("{") || t.is_punct(";") || t.is_punct("}") {
                    break;
                }
                if t.is_punct("(") || t.is_punct("[") {
                    nodes.push(self.parse_raw_group());
                } else {
                    nodes.push(Node::Tok(self.bump()));
                }
            }
            if self.at_punct("{") {
                nodes.push(Node::Block(self.parse_block()));
            }
            return nodes;
        }
        if self.at_punct("{") {
            return vec![Node::Block(self.parse_block())];
        }
        self.parse_expr_nodes(&[",", ";"])
    }

    /// Consumes an angle-bracketed generics run `<..>` into `out`.
    fn consume_angles(&mut self, out: &mut Vec<Node>) {
        let mut depth = 0i64;
        while let Some(t) = self.cur() {
            let d = match t.text.as_str() {
                "<" if t.kind == TokKind::Punct => 1,
                "<<" if t.kind == TokKind::Punct => 2,
                ">" if t.kind == TokKind::Punct => -1,
                ">>" if t.kind == TokKind::Punct => -2,
                _ => 0,
            };
            if t.is_punct("(") || t.is_punct("[") {
                out.push(self.parse_raw_group());
                continue;
            }
            if t.is_punct("{") || t.is_punct(";") || t.is_punct("}") {
                break; // malformed generics; bail out
            }
            depth += d;
            out.push(Node::Tok(self.bump()));
            if depth <= 0 {
                break;
            }
        }
    }
}

/// Parses the predicate of a `cfg(..)` attribute body (the tokens
/// between `[` and `]`, starting at the `cfg` identifier).
fn parse_cfg_predicate(body: &[Tok]) -> Option<CfgPredicate> {
    // body = `cfg ( .. )`
    let mut i = 0;
    if !body.get(i)?.is_ident("cfg") {
        return None;
    }
    i += 1;
    if !body.get(i)?.is_punct("(") {
        return None;
    }
    i += 1;
    let (pred, _) = parse_pred(body, i)?;
    Some(pred)
}

fn parse_pred(toks: &[Tok], mut i: usize) -> Option<(CfgPredicate, usize)> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let name = t.text.clone();
    i += 1;
    match name.as_str() {
        "not" => {
            if !toks.get(i)?.is_punct("(") {
                return None;
            }
            let (inner, j) = parse_pred(toks, i + 1)?;
            let mut k = j;
            if toks.get(k).is_some_and(|t| t.is_punct(")")) {
                k += 1;
            }
            Some((CfgPredicate::Not(Box::new(inner)), k))
        }
        "all" | "any" => {
            if !toks.get(i)?.is_punct("(") {
                return None;
            }
            let mut j = i + 1;
            let mut parts = Vec::new();
            loop {
                match toks.get(j) {
                    Some(t) if t.is_punct(")") => {
                        j += 1;
                        break;
                    }
                    Some(t) if t.is_punct(",") => {
                        j += 1;
                    }
                    Some(_) => {
                        let (p, k) = parse_pred(toks, j)?;
                        parts.push(p);
                        j = k;
                    }
                    None => break,
                }
            }
            let pred = if name == "all" {
                CfgPredicate::All(parts)
            } else {
                CfgPredicate::Any(parts)
            };
            Some((pred, j))
        }
        "test" => Some((CfgPredicate::Test, i)),
        _ => {
            if toks.get(i).is_some_and(|t| t.is_punct("=")) {
                let val = toks
                    .get(i + 1)
                    .map(|t| t.text.trim_matches('"').to_string())
                    .unwrap_or_default();
                let pred = if name == "feature" {
                    CfgPredicate::Feature(val)
                } else {
                    CfgPredicate::KeyValue(name, val)
                };
                Some((pred, i + 2))
            } else {
                Some((CfgPredicate::Ident(name), i))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    fn assert_covers(src: &str) {
        let l = lex(src);
        let ast = parse(&l);
        let cov = ast.coverage();
        let expect: Vec<usize> = (0..l.toks.len()).collect();
        assert_eq!(cov, expect, "coverage mismatch for {src:?}\n{ast:#?}");
    }

    #[test]
    fn simple_items_cover_all_tokens() {
        for src in [
            "fn f(x: f64) -> f64 { x + 1.0 }",
            "pub fn g<T: Into<String>>(t: T) -> Result<Vec<U>, E> where T: Clone { t.into() }",
            "struct S { pub x: f64, y: Vec<usize> }",
            "enum E { A, B(f64), C { x: u8 } }",
            "use std::collections::{HashMap, HashSet};",
            "const X: usize = 3;",
            "static mut Y: f64 = 0.0;",
            "type Alias<T> = Vec<T>;",
            "mod m { fn inner() {} }",
            "impl<T> Foo for Bar<T> { fn m(&self) -> usize { 0 } }",
            "trait T { fn req(&self); fn def(&self) -> usize { 1 } }",
            "macro_rules! m { ($x:expr) => { $x + 1 }; }",
            "thread_local! { static TL: usize = 0; }",
            "extern crate alloc;",
            "#![warn(missing_docs)]\n#[derive(Debug)]\nstruct D;",
        ] {
            assert_covers(src);
        }
    }

    #[test]
    fn expressions_and_closures_cover_all_tokens() {
        for src in [
            "fn f() { let g = |x: f64| x * 2.0; g(1.0); }",
            "fn f() { items.iter().map(|&(a, b)| a + b).sum::<f64>(); }",
            "fn f() { let h = move || 3; }",
            "fn f() { m.get_or_init(|| build(x)); }",
            "fn f() { match x { Some(a) | None => 0, _ => 1 }; }",
            "fn f() { let v = a | b; let w = a || b; }",
            "fn f() { unsafe { *p = 1; } }",
            "fn f() { if cfg!(feature = \"fast-math\") { fast() } else { slow() } }",
            "fn f() { 'outer: loop { break 'outer; } }",
            "fn f() { let x: Vec<f64> = Vec::new(); x.push(1.0); }",
            "fn f() { s.iter().fold(0.0, |acc, v| acc + v); }",
            "fn f() -> impl Fn(f64) -> f64 { |x| x }",
        ] {
            assert_covers(src);
        }
    }

    #[test]
    fn closure_detected_with_params() {
        let ast = parse_src("fn f() { run(|a, b| a + b); }");
        let mut found = false;
        ast.visit_items(&mut |item, _| {
            if item.kind == ItemKind::Fn {
                found = true;
            }
        });
        assert!(found);
        let dbg = format!("{ast:?}");
        assert!(dbg.contains("Closure"), "{dbg}");
    }

    #[test]
    fn or_pattern_is_not_a_closure() {
        let ast = parse_src("fn f() { match x { A(y) | B(y) => y, _ => 0 }; }");
        let dbg = format!("{ast:?}");
        assert!(!dbg.contains("Closure"), "{dbg}");
    }

    #[test]
    fn cfg_predicates_parse_and_evaluate() {
        let ast = parse_src("#[cfg(feature = \"fast-math\")]\nfn fast() {}");
        let mut feats = Vec::new();
        ast.visit_items(&mut |item, _| feats.extend(item.own_features()));
        assert_eq!(feats, vec!["fast-math".to_string()]);

        let ast = parse_src("#[cfg(all(test, feature = \"x\"))]\nmod t {}");
        let mut test_only = false;
        ast.visit_items(&mut |item, _| test_only |= item.is_test_gated());
        assert!(test_only);

        let ast = parse_src("#[cfg(not(feature = \"fast-math\"))]\nfn slow() {}");
        let mut feats = Vec::new();
        let mut test_only = false;
        ast.visit_items(&mut |item, _| {
            feats.extend(item.own_features());
            test_only |= item.is_test_gated();
        });
        assert!(feats.is_empty(), "{feats:?}");
        assert!(!test_only);
    }

    #[test]
    fn statement_attributes_carry_gates() {
        let ast = parse_src(
            "fn hot(x: f64) -> f64 {\n  #[cfg(feature = \"fast-math\")]\n  { fast(x) }\n  #[cfg(not(feature = \"fast-math\"))]\n  { x.exp() }\n}",
        );
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
        assert!(ast.covers_all_tokens());
        let mut stmt_feats = Vec::new();
        ast.visit_items(&mut |item, _| {
            if let Some(b) = &item.body {
                for s in &b.stmts {
                    for a in &s.attrs {
                        stmt_feats.extend(a.enabling_features());
                    }
                }
            }
        });
        assert_eq!(stmt_feats, vec!["fast-math".to_string()]);
    }

    #[test]
    fn unbalanced_input_records_errors_but_never_panics() {
        for src in ["fn f() {", "fn f() { (a + b; }", "}", "fn f(] {}", "#[cfg("] {
            let ast = parse_src(src);
            let cov = ast.coverage();
            let n = lex(src).toks.len();
            assert_eq!(cov.len(), n, "{src:?} lost tokens: {ast:#?}");
        }
    }

    #[test]
    fn item_names_and_visibility() {
        let ast = parse_src("pub fn density(&self) {}\npub(crate) fn helper() {}");
        let mut names = Vec::new();
        ast.visit_items(&mut |item, _| {
            if item.kind == ItemKind::Fn {
                names.push((item.name.clone().unwrap_or_default(), item.is_pub));
            }
        });
        assert_eq!(
            names,
            vec![("density".to_string(), true), ("helper".to_string(), false)]
        );
    }
}
