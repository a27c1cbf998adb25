//! The intra-procedural dataflow tier: statement/branch graphs over the
//! token stream, and the four rules that need them (R5–R8).
//!
//! The token rules in [`crate::rules`] ask questions a single token can
//! answer ("is this `.unwrap(` outside a test?"). The accounting
//! invariants the serving layer grew in PRs 8–9 cannot be phrased that
//! way: "every `try_debit` has a typed rejection on its failure path" is
//! a statement about *paths*, not tokens. This module parses each
//! function body into a statement tree — statement boundaries, branch
//! arms (`if`/`else`, `match`, let-`else`), loop bodies, and closure
//! spans — and walks it:
//!
//! * **R5 `budget-balance`** — a `.try_debit(…)` result must be handled
//!   (`?`, `return`, tail position, `match` scrutinee, or an `if let`
//!   whose branch exits); on the success path, any error exit reachable
//!   after the debit must `.release(…)` first; and no linear path may
//!   release twice.
//! * **R6 `lock-discipline`** — a live guard bound from `.lock()` /
//!   `.read()` / `.write()` may not cross another lock acquisition or a
//!   mechanism `call_*`, and lock results must use the
//!   `unwrap_or_else(PoisonError::into_inner)` pattern, never
//!   `.unwrap()`.
//! * **R7 `par-purity`** — block-fill closures in parallel engines may
//!   depend only on the run seed, the block index, and their disjoint
//!   slab: no captured `&mut` state, no assignment to captured names, no
//!   `thread::current`, statics, atomics, or time/entropy sources.
//! * **R8 `float-totality`** — no `partial_cmp`, qualified
//!   `f64::max`/`f64::min` reductions, or raw `<`/`>` comparator
//!   closures in sort/selection positions; the house idiom is
//!   `f64::total_cmp`.
//!
//! The analysis is deliberately intra-procedural and conservative in the
//! flagging direction: anything it cannot prove handled is a finding,
//! and genuine design exceptions carry a per-site
//! `// lint:allow(rule): reason`.

use crate::allow::Allows;
use crate::lexer::{Token, TokenKind};
use crate::rules::FileScope;
use crate::scanner::{collect_bracketed, collect_until_body};
use crate::{Diagnostic, Rule};
use std::path::Path;

// ---------------------------------------------------------------------
// Statement tree
// ---------------------------------------------------------------------

/// One function body parsed into a statement tree.
#[derive(Debug)]
pub struct FlowFn {
    /// The function's name.
    pub name: String,
    /// Identifier soup of its signature.
    pub sig: String,
    /// Identifier soup of the enclosing `impl`/`trait` header (empty at
    /// module level).
    pub header: String,
    /// Inside a `#[cfg(test)]` item.
    pub in_test: bool,
    /// Line of the `fn` name.
    pub line: u32,
    /// The body.
    pub body: Block,
}

/// A `{ … }` block (or a synthesized single-expression match arm).
#[derive(Debug)]
pub struct Block {
    /// Token index of the opening `{` (or the first expression token for
    /// synthesized arms).
    pub start: usize,
    /// Token index of the closing `}` (or one past the last expression
    /// token for synthesized arms).
    pub end: usize,
    /// The statements, in source order.
    pub stmts: Vec<Stmt>,
}

/// Statement classification — only as fine-grained as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// Expression statement (or an item in statement position).
    Plain,
    /// `let …;` (sub-block: the let-`else` divergence block, if any).
    Let,
    /// `if`/`else if`/`else` chain (sub-blocks: the branches in order).
    If,
    /// `match` (sub-blocks: the arms in order; expression arms are
    /// synthesized one-statement blocks).
    Match,
    /// `loop`/`while`/`for` (sub-block: the body).
    Loop,
    /// `return`/`break`/`continue`.
    Return,
    /// A bare `{ … }` (or `unsafe { … }`) block statement.
    Block,
}

/// One statement: its token span `[start, end)`, branch sub-blocks, and
/// whether it is the block's tail expression.
#[derive(Debug)]
pub struct Stmt {
    /// First token index (including leading attributes).
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
    /// Source line of the first code token.
    pub line: u32,
    /// Classification.
    pub kind: StmtKind,
    /// Branch arms / loop body / let-`else` block, in source order.
    pub blocks: Vec<Block>,
    /// True for a block's trailing expression (no `;`): its value is the
    /// block's value, i.e. it propagates to the caller or enclosing arm.
    pub tail: bool,
}

fn is_p(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct(c)
}

fn is_id(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

/// Extracts every function body in the token stream as a [`FlowFn`] —
/// the same forward brace-scope pass as [`crate::scanner::scan`], plus a
/// statement-tree parse of each body.
pub fn functions(toks: &[Token]) -> Vec<FlowFn> {
    #[derive(Clone, Default)]
    struct Frame {
        header: String,
        in_test: bool,
    }
    let mut out = Vec::new();
    let mut stack: Vec<Frame> = vec![Frame::default()];
    let mut pending_test = false;
    let mut pending_header: Option<String> = None;
    let mut pending_fn: Option<(String, String, u32)> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokenKind::Punct('#') => {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| is_p(t, '!')) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| is_p(t, '[')) {
                    let (idents, end) = collect_bracketed(toks, j);
                    if idents.iter().any(|s| s == "cfg") && idents.iter().any(|s| s == "test") {
                        pending_test = true;
                    }
                    i = end;
                    continue;
                }
            }
            TokenKind::Ident if t.text == "impl" || t.text == "trait" => {
                let (idents, end) = collect_until_body(toks, i + 1);
                pending_header = Some(idents.join(" "));
                i = end;
                continue;
            }
            TokenKind::Ident if t.text == "fn" => {
                if let Some(name_tok) = toks.get(i + 1) {
                    if name_tok.kind == TokenKind::Ident {
                        let (idents, end) = collect_until_body(toks, i + 2);
                        pending_fn = Some((name_tok.text.clone(), idents.join(" "), name_tok.line));
                        i = end;
                        continue;
                    }
                }
            }
            TokenKind::Punct('{') => {
                let mut frame = stack.last().cloned().unwrap_or_default();
                if pending_test {
                    frame.in_test = true;
                }
                if let Some(h) = pending_header.take() {
                    frame.header = h;
                }
                pending_test = false;
                if let Some((name, sig, line)) = pending_fn.take() {
                    let (body, _) = parse_block(toks, i);
                    out.push(FlowFn {
                        name,
                        sig,
                        header: frame.header.clone(),
                        in_test: frame.in_test,
                        line,
                        body,
                    });
                }
                stack.push(frame);
            }
            TokenKind::Punct('}') if stack.len() > 1 => {
                stack.pop();
            }
            TokenKind::Punct(';') => {
                pending_fn = None;
                pending_header = None;
                pending_test = false;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Parses the block whose `{` is at `open`; returns it and the index of
/// its closing `}` (or `toks.len()` on unterminated input).
fn parse_block(toks: &[Token], open: usize) -> (Block, usize) {
    let mut stmts = Vec::new();
    let mut i = open + 1;
    let close;
    loop {
        match toks.get(i) {
            None => {
                close = i;
                break;
            }
            Some(t) if is_p(t, '}') => {
                close = i;
                break;
            }
            Some(_) => {
                let (stmt, next) = parse_stmt(toks, i);
                stmts.push(stmt);
                // Guaranteed forward progress even on input rustc would
                // reject — a lint must degrade, not hang.
                i = next.max(i + 1);
            }
        }
    }
    if let Some(last) = stmts.last_mut() {
        if last.end > last.start && !is_p(&toks[last.end - 1], ';') {
            last.tail = true;
        }
    }
    (
        Block {
            start: open,
            end: close,
            stmts,
        },
        close,
    )
}

/// Item keywords that can open a statement-position item with a brace
/// body of its own.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "impl", "trait", "mod", "use", "const", "static",
];

fn parse_stmt(toks: &[Token], start: usize) -> (Stmt, usize) {
    let mut i = start;
    // Leading attributes belong to the statement they annotate.
    while toks.get(i).is_some_and(|t| is_p(t, '#')) && toks.get(i + 1).is_some_and(|t| is_p(t, '['))
    {
        let (_, end) = collect_bracketed(toks, i + 1);
        i = end;
    }
    let Some(t) = toks.get(i) else {
        return (
            Stmt {
                start,
                end: i,
                line: toks.get(start).map_or(0, |t| t.line),
                kind: StmtKind::Plain,
                blocks: Vec::new(),
                tail: false,
            },
            i,
        );
    };
    let line = t.line;
    match &t.kind {
        TokenKind::Punct('{') => parse_braced(toks, start, i, line, StmtKind::Block),
        TokenKind::Ident if t.text == "unsafe" && toks.get(i + 1).is_some_and(|x| is_p(x, '{')) => {
            parse_braced(toks, start, i + 1, line, StmtKind::Block)
        }
        TokenKind::Ident if t.text == "if" => parse_if(toks, start, i, line),
        TokenKind::Ident if t.text == "match" => match seek_body_open(toks, i + 1) {
            Some(open) => {
                let (arms, close) = parse_match_arms(toks, open);
                let end = (close + 1).min(toks.len());
                (
                    Stmt {
                        start,
                        end,
                        line,
                        kind: StmtKind::Match,
                        blocks: arms,
                        tail: false,
                    },
                    end,
                )
            }
            None => walk_plain(toks, start, i, line, StmtKind::Plain),
        },
        TokenKind::Ident if t.text == "loop" || t.text == "while" || t.text == "for" => {
            match seek_body_open(toks, i + 1) {
                Some(open) => parse_braced(toks, start, open, line, StmtKind::Loop),
                None => walk_plain(toks, start, i, line, StmtKind::Plain),
            }
        }
        TokenKind::Ident if t.text == "let" => parse_let(toks, start, i, line),
        TokenKind::Ident if t.text == "return" || t.text == "break" || t.text == "continue" => {
            walk_plain(toks, start, i, line, StmtKind::Return)
        }
        TokenKind::Ident
            if ITEM_KEYWORDS.contains(&t.text.as_str())
                && !toks.get(i + 1).is_some_and(|x| is_p(x, '(')) =>
        {
            // Statement-position item: ends at a top-level `;` or after a
            // brace body. (An ident followed by `(` is a call, not `fn`
            // pointer syntax — handled by the guard above.)
            match seek_body_open(toks, i + 1) {
                Some(open) => parse_braced(toks, start, open, line, StmtKind::Plain),
                None => walk_plain(toks, start, i, line, StmtKind::Plain),
            }
        }
        _ => walk_plain(toks, start, i, line, StmtKind::Plain),
    }
}

/// A statement whose body is the block opening at `open`.
fn parse_braced(
    toks: &[Token],
    start: usize,
    open: usize,
    line: u32,
    kind: StmtKind,
) -> (Stmt, usize) {
    let (b, close) = parse_block(toks, open);
    let end = (close + 1).min(toks.len());
    (
        Stmt {
            start,
            end,
            line,
            kind,
            blocks: vec![b],
            tail: false,
        },
        end,
    )
}

fn parse_if(toks: &[Token], start: usize, first_if: usize, line: u32) -> (Stmt, usize) {
    let mut blocks = Vec::new();
    let mut i = first_if;
    let mut end = first_if + 1;
    while let Some(open) = seek_body_open(toks, i + 1) {
        let (b, close) = parse_block(toks, open);
        blocks.push(b);
        end = (close + 1).min(toks.len());
        if toks.get(close + 1).is_some_and(|t| is_id(t, "else")) {
            if toks.get(close + 2).is_some_and(|t| is_id(t, "if")) {
                i = close + 2;
                continue;
            }
            if toks.get(close + 2).is_some_and(|t| is_p(t, '{')) {
                let (b2, close2) = parse_block(toks, close + 2);
                blocks.push(b2);
                end = (close2 + 1).min(toks.len());
            }
        }
        break;
    }
    (
        Stmt {
            start,
            end,
            line,
            kind: StmtKind::If,
            blocks,
            tail: false,
        },
        end,
    )
}

fn parse_let(toks: &[Token], start: usize, let_kw: usize, line: u32) -> (Stmt, usize) {
    let (mut p, mut bk, mut br) = (0i32, 0i32, 0i32);
    let mut blocks = Vec::new();
    let mut j = let_kw + 1;
    while j < toks.len() {
        match toks[j].kind {
            TokenKind::Punct('(') => p += 1,
            TokenKind::Punct(')') => p -= 1,
            TokenKind::Punct('[') => bk += 1,
            TokenKind::Punct(']') => bk -= 1,
            TokenKind::Punct('{') => {
                if p == 0 && bk == 0 && br == 0 && j > 0 && is_id(&toks[j - 1], "else") {
                    // let-`else` divergence block.
                    let (b, close) = parse_block(toks, j);
                    blocks.push(b);
                    j = close;
                } else {
                    br += 1;
                }
            }
            TokenKind::Punct('}') => {
                if br == 0 {
                    break;
                }
                br -= 1;
            }
            TokenKind::Punct(';') if p == 0 && bk == 0 && br == 0 => {
                j += 1;
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let end = j.min(toks.len());
    (
        Stmt {
            start,
            end,
            line,
            kind: StmtKind::Let,
            blocks,
            tail: false,
        },
        end,
    )
}

/// Walks a plain expression statement: to a top-level `;` (consumed) or
/// the enclosing block's `}` (not consumed — the tail expression).
fn walk_plain(
    toks: &[Token],
    start: usize,
    first: usize,
    line: u32,
    kind: StmtKind,
) -> (Stmt, usize) {
    let (mut p, mut bk, mut br) = (0i32, 0i32, 0i32);
    let mut j = first;
    while j < toks.len() {
        match toks[j].kind {
            TokenKind::Punct('(') => p += 1,
            TokenKind::Punct(')') => {
                if p == 0 {
                    break;
                }
                p -= 1;
            }
            TokenKind::Punct('[') => bk += 1,
            TokenKind::Punct(']') => {
                if bk == 0 {
                    break;
                }
                bk -= 1;
            }
            TokenKind::Punct('{') => br += 1,
            TokenKind::Punct('}') => {
                if br == 0 {
                    break;
                }
                br -= 1;
            }
            TokenKind::Punct(';') if p == 0 && bk == 0 && br == 0 => {
                j += 1;
                break;
            }
            _ => {}
        }
        j += 1;
    }
    (
        Stmt {
            start,
            end: j,
            line,
            kind,
            blocks: Vec::new(),
            tail: false,
        },
        j,
    )
}

/// First `{` at paren/bracket depth 0 after `from` — the body of an
/// `if`/`match`/loop header. `None` if a `;` or the enclosing `}` comes
/// first (malformed or body-less input).
fn seek_body_open(toks: &[Token], from: usize) -> Option<usize> {
    let (mut p, mut bk) = (0i32, 0i32);
    let mut j = from;
    while j < toks.len() {
        match toks[j].kind {
            TokenKind::Punct('(') => p += 1,
            TokenKind::Punct(')') => p -= 1,
            TokenKind::Punct('[') => bk += 1,
            TokenKind::Punct(']') => bk -= 1,
            TokenKind::Punct('{') if p == 0 && bk == 0 => return Some(j),
            TokenKind::Punct('}') if p == 0 && bk == 0 => return None,
            TokenKind::Punct(';') if p == 0 && bk == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses the arms of the `match` whose `{` is at `open`. Braced arms
/// become real blocks; expression arms become synthesized one-statement
/// blocks. Returns the arms and the index of the closing `}`.
fn parse_match_arms(toks: &[Token], open: usize) -> (Vec<Block>, usize) {
    let mut arms = Vec::new();
    let mut j = open + 1;
    loop {
        while toks.get(j).is_some_and(|t| is_p(t, '#'))
            && toks.get(j + 1).is_some_and(|t| is_p(t, '['))
        {
            let (_, end) = collect_bracketed(toks, j + 1);
            j = end;
        }
        match toks.get(j) {
            None => return (arms, j),
            Some(t) if is_p(t, '}') => return (arms, j),
            Some(_) => {}
        }
        // Pattern (and optional guard) up to the `=>` at depth 0; struct
        // patterns may contain braces of their own.
        let (mut p, mut bk, mut br) = (0i32, 0i32, 0i32);
        let mut k = j;
        let mut found = false;
        while k < toks.len() {
            match toks[k].kind {
                TokenKind::Punct('(') => p += 1,
                TokenKind::Punct(')') => p -= 1,
                TokenKind::Punct('[') => bk += 1,
                TokenKind::Punct(']') => bk -= 1,
                TokenKind::Punct('{') => br += 1,
                TokenKind::Punct('}') => {
                    if br == 0 {
                        return (arms, k);
                    }
                    br -= 1;
                }
                TokenKind::Punct('=')
                    if p == 0
                        && bk == 0
                        && br == 0
                        && toks.get(k + 1).is_some_and(|t| is_p(t, '>')) =>
                {
                    found = true;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if !found {
            return (arms, k.min(toks.len()));
        }
        let body = k + 2;
        if toks.get(body).is_some_and(|t| is_p(t, '{')) {
            let (b, close) = parse_block(toks, body);
            arms.push(b);
            j = close + 1;
            if toks.get(j).is_some_and(|t| is_p(t, ',')) {
                j += 1;
            }
        } else {
            // Expression arm: to the `,` at depth 0 or the match's `}`.
            let (mut p, mut bk, mut br) = (0i32, 0i32, 0i32);
            let mut e = body;
            while e < toks.len() {
                match toks[e].kind {
                    TokenKind::Punct('(') => p += 1,
                    TokenKind::Punct(')') => p -= 1,
                    TokenKind::Punct('[') => bk += 1,
                    TokenKind::Punct(']') => bk -= 1,
                    TokenKind::Punct('{') => br += 1,
                    TokenKind::Punct('}') => {
                        if br == 0 {
                            break;
                        }
                        br -= 1;
                    }
                    TokenKind::Punct(',') if p == 0 && bk == 0 && br == 0 => break,
                    _ => {}
                }
                e += 1;
            }
            let arm_line = toks.get(body).map_or(0, |t| t.line);
            arms.push(Block {
                start: body,
                end: e,
                stmts: vec![Stmt {
                    start: body,
                    end: e,
                    line: arm_line,
                    kind: StmtKind::Plain,
                    blocks: Vec::new(),
                    tail: true,
                }],
            });
            j = if toks.get(e).is_some_and(|t| is_p(t, ',')) {
                e + 1
            } else {
                e
            };
        }
    }
}

// ---------------------------------------------------------------------
// Tree queries
// ---------------------------------------------------------------------

/// Token ranges of a statement executed *unconditionally on the linear
/// path through it* — the span minus branch sub-blocks, and for
/// branching statements minus the header (condition, scrutinee, arm
/// patterns) too.
fn top_ranges(s: &Stmt) -> Vec<(usize, usize)> {
    match s.kind {
        StmtKind::If | StmtKind::Match | StmtKind::Loop => match s.blocks.last() {
            Some(b) => vec![((b.end + 1).min(s.end), s.end)],
            None => vec![(s.start, s.end)],
        },
        _ => {
            let mut out = Vec::new();
            let mut pos = s.start;
            for b in &s.blocks {
                if b.start > pos {
                    out.push((pos, b.start));
                }
                pos = (b.end + 1).min(s.end);
            }
            if s.end > pos {
                out.push((pos, s.end));
            }
            out
        }
    }
}

/// Path from `body`'s root to the innermost statement containing token
/// `pos`, as `(block, statement index)` pairs.
fn locate<'b>(block: &'b Block, pos: usize, path: &mut Vec<(&'b Block, usize)>) -> bool {
    for (k, s) in block.stmts.iter().enumerate() {
        if pos >= s.start && pos < s.end {
            path.push((block, k));
            for sub in &s.blocks {
                if locate(sub, pos, path) {
                    return true;
                }
            }
            return true;
        }
    }
    false
}

/// Statements that execute after the one containing `pos`, in order:
/// the rest of its block, then the rest of each ancestor block. Sibling
/// branch arms are alternatives, never successors.
fn successors(body: &Block, pos: usize) -> Vec<&Stmt> {
    let mut path = Vec::new();
    locate(body, pos, &mut path);
    let mut out = Vec::new();
    for (b, k) in path.iter().rev() {
        out.extend(&b.stmts[k + 1..]);
    }
    out
}

/// The innermost statement containing `pos`.
fn stmt_at(body: &Block, pos: usize) -> Option<&Stmt> {
    let mut path = Vec::new();
    locate(body, pos, &mut path);
    path.last().map(|&(b, k)| &b.stmts[k])
}

/// True when the token at `i` is an identifier called as a method.
fn is_method_call(toks: &[Token], i: usize) -> bool {
    i > 0
        && toks[i].kind == TokenKind::Ident
        && is_p(&toks[i - 1], '.')
        && toks
            .get(i + 1)
            .is_some_and(|t| is_p(t, '(') || is_p(t, ':') || is_p(t, '<'))
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in toks[open..].iter().enumerate() {
        match t.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

/// True when `[a, b)` contains an exit: `return`/`break`/`continue`/`?`
/// or an `Err`/`Rejected` construction (a typed rejection).
fn span_exits(toks: &[Token], a: usize, b: usize) -> bool {
    toks[a..b.min(toks.len())].iter().any(|t| {
        is_p(t, '?')
            || (t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "return" | "break" | "continue" | "Err" | "Rejected"
                ))
    })
}

// ---------------------------------------------------------------------
// Closures
// ---------------------------------------------------------------------

/// One closure literal: its parameter/`let`/`for`-bound names and body
/// token span.
#[derive(Debug)]
pub struct Closure {
    /// Token index of the opening `|`.
    pub start: usize,
    /// Names bound inside the closure (parameters, `let` and `for`
    /// patterns, nested closure parameters) — everything else it touches
    /// is captured.
    pub locals: Vec<String>,
    /// Body token span `[start, end)`.
    pub body: (usize, usize),
}

/// Is the `|` at `i` opening a closure (vs. bitwise/boolean or)? The
/// preceding token decides: after an operand it is an operator.
fn closure_position(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    match &toks[i - 1].kind {
        TokenKind::Punct(c) => matches!(c, '(' | ',' | '=' | '{' | '>' | ':' | ';'),
        TokenKind::Ident => matches!(
            toks[i - 1].text.as_str(),
            "move" | "return" | "else" | "match" | "in"
        ),
        _ => false,
    }
}

/// Collects the closure parameter names starting after the `|` at `bar`;
/// returns (names, index past the closing `|`).
fn closure_params(toks: &[Token], bar: usize, names: &mut Vec<String>) -> usize {
    let mut j = bar + 1;
    if toks.get(j).is_some_and(|t| is_p(t, '|')) {
        return j + 1;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('>') => depth -= 1,
            TokenKind::Punct('|') if depth <= 0 => return j + 1,
            TokenKind::Ident if toks[j].text != "mut" => names.push(toks[j].text.clone()),
            _ => {}
        }
        j += 1;
    }
    j
}

/// Every closure literal in `[a, b)`, nested closures included (each
/// appears once, with its own locals; outer closures also count nested
/// parameters as locals, which only errs in the silent direction).
pub fn closures_in(toks: &[Token], a: usize, b: usize) -> Vec<Closure> {
    let mut out = Vec::new();
    let mut i = a;
    let b = b.min(toks.len());
    while i < b {
        if is_p(&toks[i], '|') {
            if !closure_position(toks, i) {
                // `a || b`: skip the operator pair so the second `|` is
                // not mistaken for a parameterless closure.
                i += if toks.get(i + 1).is_some_and(|t| is_p(t, '|')) {
                    2
                } else {
                    1
                };
                continue;
            }
            let mut locals = Vec::new();
            let after_params = closure_params(toks, i, &mut locals);
            let (bs, be) = if toks.get(after_params).is_some_and(|t| is_p(t, '{')) {
                let (_, close) = parse_block(toks, after_params);
                (after_params, (close + 1).min(toks.len()))
            } else {
                let (stmt, _) = walk_plain(
                    toks,
                    after_params,
                    after_params,
                    toks.get(after_params).map_or(0, |t| t.line),
                    StmtKind::Plain,
                );
                // An expression body also stops at a `,` (argument
                // position) — walk_plain only breaks on `;`/brackets.
                let mut e = after_params;
                let (mut p, mut bk, mut br) = (0i32, 0i32, 0i32);
                while e < stmt.end {
                    match toks[e].kind {
                        TokenKind::Punct('(') => p += 1,
                        TokenKind::Punct(')') => p -= 1,
                        TokenKind::Punct('[') => bk += 1,
                        TokenKind::Punct(']') => bk -= 1,
                        TokenKind::Punct('{') => br += 1,
                        TokenKind::Punct('}') => br -= 1,
                        TokenKind::Punct(',') if p == 0 && bk == 0 && br == 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                (after_params, e)
            };
            collect_bindings(toks, bs, be, &mut locals);
            out.push(Closure {
                start: i,
                locals,
                body: (bs, be),
            });
            // Continue *inside* the body so nested closures are found.
            i = after_params;
            continue;
        }
        i += 1;
    }
    out
}

/// Adds `let`/`for`/nested-closure bound names in `[a, b)` to `out`.
fn collect_bindings(toks: &[Token], a: usize, b: usize, out: &mut Vec<String>) {
    let mut i = a;
    let b = b.min(toks.len());
    while i < b {
        let t = &toks[i];
        if is_id(t, "let") {
            let mut j = i + 1;
            while j < b && !is_p(&toks[j], '=') && !is_p(&toks[j], ';') {
                if toks[j].kind == TokenKind::Ident
                    && !matches!(toks[j].text.as_str(), "mut" | "ref")
                {
                    out.push(toks[j].text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if is_id(t, "for") {
            let mut j = i + 1;
            while j < b && !is_id(&toks[j], "in") {
                if toks[j].kind == TokenKind::Ident && toks[j].text != "mut" {
                    out.push(toks[j].text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if is_p(t, '|') && closure_position(toks, i) {
            i = closure_params(toks, i, out);
            continue;
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Rule driver
// ---------------------------------------------------------------------

/// Runs the requested flow rules over one file's token stream.
pub fn check_file(
    path: &Path,
    toks: &[Token],
    allows: &Allows,
    scope: FileScope,
    rules: &[Rule],
    out: &mut Vec<Diagnostic>,
) {
    let want = |r: Rule| rules.contains(&r) && scope.rules().contains(&r);
    let fns = functions(toks);
    for f in &fns {
        if f.in_test {
            continue;
        }
        let mut push = |rule: Rule, line: u32, message: String| {
            out.push(Diagnostic {
                file: path.to_path_buf(),
                line,
                rule,
                message,
                allow: allows.state(rule, line),
            });
        };
        if want(Rule::BudgetBalance) {
            check_budget_balance(toks, f, &mut push);
        }
        if want(Rule::LockDiscipline) {
            check_lock_discipline(toks, f, &mut push);
        }
        if want(Rule::ParPurity) {
            check_par_purity(toks, f, &mut push);
        }
        if want(Rule::FloatTotality) {
            check_float_totality(toks, f, &mut push);
        }
    }
}

// ---------------------------------------------------------------------
// R5 — budget-balance
// ---------------------------------------------------------------------

fn check_budget_balance(toks: &[Token], f: &FlowFn, push: &mut impl FnMut(Rule, u32, String)) {
    let (lo, hi) = (f.body.start, (f.body.end + 1).min(toks.len()));
    for i in lo..hi {
        if is_method_call(toks, i) && toks[i].text == "try_debit" {
            if debit_handled(toks, f, i) {
                audit_success_path(toks, f, i, push);
            } else {
                push(
                    Rule::BudgetBalance,
                    toks[i].line,
                    format!(
                        "`.try_debit(…)` in `{}` has no typed rejection on its failure path: \
                         handle the `Err` (`?`, `return`, `match`, or `if let Err` + reject) \
                         instead of discarding it — a dropped debit failure serves a query \
                         the budget no longer covers",
                        f.name
                    ),
                );
            }
        }
    }
    check_double_release(toks, f, push);
}

/// Is the `.try_debit(` at `i` handled? Accepted forms: `?`, `return`,
/// tail position, `match` scrutinee, an `if` whose branch exits, or a
/// let-`else` whose block exits.
fn debit_handled(toks: &[Token], f: &FlowFn, i: usize) -> bool {
    if let Some(close) = matching_paren(toks, i + 1) {
        if toks.get(close + 1).is_some_and(|t| is_p(t, '?')) {
            return true;
        }
    }
    let Some(s) = stmt_at(&f.body, i) else {
        return false;
    };
    match s.kind {
        StmtKind::Return => true,
        StmtKind::Match => s.blocks.first().is_some_and(|b| i < b.start),
        StmtKind::If => {
            let in_cond = s.blocks.first().is_some_and(|b| i < b.start);
            in_cond
                && s.blocks
                    .iter()
                    .any(|b| span_exits(toks, b.start, (b.end + 1).min(toks.len())))
        }
        StmtKind::Let => s
            .blocks
            .iter()
            .any(|b| span_exits(toks, b.start, (b.end + 1).min(toks.len()))),
        _ => s.tail,
    }
}

/// After a successful debit, every error exit reachable on the success
/// path must release the debited share first.
fn audit_success_path(
    toks: &[Token],
    f: &FlowFn,
    debit: usize,
    push: &mut impl FnMut(Rule, u32, String),
) {
    let mut released = false;
    for s in successors(&f.body, debit) {
        released = scan_stmt_for_unreleased_reject(toks, f, s, released, push);
    }
}

fn has_release(toks: &[Token], a: usize, b: usize) -> bool {
    (a..b.min(toks.len())).any(|i| is_method_call(toks, i) && toks[i].text == "release")
        || (a..b.min(toks.len())).any(|i| {
            toks[i].kind == TokenKind::Ident
                && toks[i].text.contains("release")
                && toks.get(i + 1).is_some_and(|t| is_p(t, '('))
        })
}

/// First error-construction in the statement's linear token ranges:
/// a `Rejected` variant anywhere, or `Err(` when the statement's value
/// escapes (return/tail).
fn find_reject(toks: &[Token], s: &Stmt, a: usize, b: usize) -> Option<u32> {
    for i in a..b.min(toks.len()) {
        let t = &toks[i];
        if is_id(t, "Rejected") {
            return Some(t.line);
        }
        if (s.kind == StmtKind::Return || s.tail)
            && is_id(t, "Err")
            && toks.get(i + 1).is_some_and(|x| is_p(x, '('))
        {
            return Some(t.line);
        }
    }
    None
}

fn scan_stmt_for_unreleased_reject(
    toks: &[Token],
    f: &FlowFn,
    s: &Stmt,
    released: bool,
    push: &mut impl FnMut(Rule, u32, String),
) -> bool {
    let tops = top_ranges(s);
    let top_rel = tops.iter().any(|&(a, b)| has_release(toks, a, b));
    if !released && !top_rel {
        if let Some(line) = tops.iter().find_map(|&(a, b)| find_reject(toks, s, a, b)) {
            push(
                Rule::BudgetBalance,
                line,
                format!(
                    "error exit after a successful `try_debit` in `{}` without a \
                     `.release(…)` of the debited share: the rejection burns budget \
                     for a call that produced no output",
                    f.name
                ),
            );
        }
    }
    for b in &s.blocks {
        let mut inner = released || top_rel;
        for st in &b.stmts {
            inner = scan_stmt_for_unreleased_reject(toks, f, st, inner, push);
        }
    }
    released || top_rel
}

/// Two `.release(…)` calls on one linear path double-credit the ledger.
fn check_double_release(toks: &[Token], f: &FlowFn, push: &mut impl FnMut(Rule, u32, String)) {
    let (lo, hi) = (f.body.start, (f.body.end + 1).min(toks.len()));
    for i in lo..hi {
        if !(is_method_call(toks, i) && toks[i].text == "release") {
            continue;
        }
        let flag = |line: u32, push: &mut dyn FnMut(Rule, u32, String)| {
            push(
                Rule::BudgetBalance,
                line,
                format!(
                    "second `.release(…)` on the same path in `{}`: a share must reach \
                     exactly one release — double-crediting mints budget out of thin air",
                    f.name
                ),
            );
        };
        // Same statement, after this call.
        if let Some(s) = stmt_at(&f.body, i) {
            for (a, b) in top_ranges(&Stmt {
                start: s.start,
                end: s.end,
                line: s.line,
                kind: s.kind,
                blocks: Vec::new(),
                tail: s.tail,
            }) {
                for j in a.max(i + 1)..b.min(hi) {
                    if is_method_call(toks, j) && toks[j].text == "release" {
                        flag(toks[j].line, push);
                    }
                }
            }
        }
        // Linear successors (top ranges only: branch arms are
        // alternative paths, not repeats).
        'succ: for s in successors(&f.body, i) {
            for (a, b) in top_ranges(s) {
                for j in a..b.min(hi) {
                    if is_method_call(toks, j) && toks[j].text == "release" {
                        flag(toks[j].line, push);
                        break 'succ;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// R6 — lock-discipline
// ---------------------------------------------------------------------

const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

fn check_lock_discipline(toks: &[Token], f: &FlowFn, push: &mut impl FnMut(Rule, u32, String)) {
    let (lo, hi) = (f.body.start, (f.body.end + 1).min(toks.len()));
    // (c) poison handling: a lock result must go through
    // `unwrap_or_else(PoisonError::into_inner)`, never `.unwrap()` — a
    // panic while holding the other side already proved the state is
    // consistent, and unwinding the whole server on it is the bug.
    for i in lo..hi {
        if is_method_call(toks, i) && LOCK_METHODS.contains(&toks[i].text.as_str()) {
            if let Some(close) = matching_paren(toks, i + 1) {
                if toks.get(close + 1).is_some_and(|t| is_p(t, '.'))
                    && toks
                        .get(close + 2)
                        .is_some_and(|t| is_id(t, "unwrap") || is_id(t, "expect"))
                {
                    push(
                        Rule::LockDiscipline,
                        toks[close + 2].line,
                        format!(
                            "`.{}().{}(…)` in `{}`: poisoning must be absorbed with \
                             `.unwrap_or_else(PoisonError::into_inner)` — the guarded state \
                             is only mutated through methods that leave it consistent, and \
                             propagating the panic takes every live session down",
                            toks[i].text,
                            toks[close + 2].text,
                            f.name
                        ),
                    );
                }
            }
        }
    }
    // (a)/(b) live-guard crossings.
    let mut live: Vec<String> = Vec::new();
    walk_guards(toks, f, &f.body, &mut live, push);
}

/// The guard name bound by `let [mut] NAME = <expr>.lock()…;`, if the
/// lock result itself is what's bound (a trailing field access or map
/// makes it a derived value whose guard dies at the `;`).
fn guard_binding(toks: &[Token], s: &Stmt) -> Option<String> {
    if s.kind != StmtKind::Let {
        return None;
    }
    let mut j = s.start;
    while j < s.end && !is_id(&toks[j], "let") {
        j += 1;
    }
    let mut name = None;
    for t in &toks[j + 1..s.end.min(toks.len())] {
        if t.kind == TokenKind::Ident && t.text != "mut" {
            name = Some(t.text.clone());
            break;
        }
    }
    let name = name?;
    let mut brace = 0i32;
    for i in j..s.end.min(toks.len()) {
        match toks[i].kind {
            TokenKind::Punct('{') => brace += 1,
            TokenKind::Punct('}') => brace -= 1,
            _ => {}
        }
        // A lock taken inside a nested block (`let x = { let g = m.lock()…;
        // … };`) is scoped to that block — the let binds the block's value,
        // not the guard.
        if brace == 0 && is_method_call(toks, i) && LOCK_METHODS.contains(&toks[i].text.as_str()) {
            let mut k = matching_paren(toks, i + 1)? + 1;
            // Guard-preserving continuations only.
            loop {
                match toks.get(k) {
                    Some(t) if is_p(t, ';') => return Some(name),
                    Some(t) if is_p(t, '?') => k += 1,
                    Some(t)
                        if is_p(t, '.')
                            && toks.get(k + 1).is_some_and(|x| {
                                is_id(x, "unwrap_or_else")
                                    || is_id(x, "unwrap")
                                    || is_id(x, "expect")
                            }) =>
                    {
                        k = matching_paren(toks, k + 2)? + 1;
                    }
                    _ => return None,
                }
            }
        }
    }
    None
}

fn walk_guards(
    toks: &[Token],
    f: &FlowFn,
    block: &Block,
    live: &mut Vec<String>,
    push: &mut impl FnMut(Rule, u32, String),
) {
    let base = live.len();
    for s in &block.stmts {
        // Crossing checks against guards live *before* this statement,
        // over its linear ranges plus the branch header (sub-blocks are
        // handled by recursion below, with the same live set).
        if !live.is_empty() {
            let mut ranges = top_ranges(s);
            if matches!(s.kind, StmtKind::If | StmtKind::Match | StmtKind::Loop) {
                if let Some(b) = s.blocks.first() {
                    ranges.push((s.start, b.start));
                }
            }
            for (a, b) in ranges {
                for i in a..b.min(toks.len()) {
                    if !is_method_call(toks, i) {
                        continue;
                    }
                    let t = &toks[i];
                    if LOCK_METHODS.contains(&t.text.as_str()) {
                        push(
                            Rule::LockDiscipline,
                            t.line,
                            format!(
                                "`.{}(…)` in `{}` while guard `{}` is live: acquiring a \
                                 second lock under a held guard is an ordering/deadlock \
                                 hazard — drop or scope the guard first",
                                t.text,
                                f.name,
                                live.join("`, `")
                            ),
                        );
                    } else if t.text.starts_with("call_") {
                        push(
                            Rule::LockDiscipline,
                            t.line,
                            format!(
                                "mechanism `.{}(…)` in `{}` runs while guard `{}` is live: \
                                 holding a ledger/tenant guard across a mechanism call \
                                 serializes unrelated tenants and invites lock-order \
                                 inversion",
                                t.text,
                                f.name,
                                live.join("`, `")
                            ),
                        );
                    }
                }
            }
        }
        // `drop(name)` ends a guard's liveness.
        for i in s.start..s.end.min(toks.len()) {
            if is_id(&toks[i], "drop")
                && toks.get(i + 1).is_some_and(|t| is_p(t, '('))
                && toks.get(i + 3).is_some_and(|t| is_p(t, ')'))
            {
                if let Some(name) = toks.get(i + 2) {
                    live.retain(|g| g != &name.text);
                }
            }
        }
        for b in &s.blocks {
            walk_guards(toks, f, b, live, push);
        }
        if let Some(name) = guard_binding(toks, s) {
            live.push(name);
        }
    }
    live.truncate(base);
}

// ---------------------------------------------------------------------
// R7 — par-purity
// ---------------------------------------------------------------------

/// Identifiers whose mere presence in a parallel fill breaks the
/// pure-function-of-(seed, block) contract.
const R7_BANNED_IDENTS: [&str; 8] = [
    "thread_rng",
    "OsRng",
    "from_entropy",
    "SystemTime",
    "Instant",
    "thread_local",
    "ThreadId",
    "static",
];

/// Is this function part of the parallel fill surface?
fn par_scope(toks: &[Token], f: &FlowFn) -> bool {
    if f.name.starts_with("par_") || f.name.contains("_sharded") {
        return true;
    }
    if f.header.contains("ParallelDraws") {
        return true;
    }
    let (lo, hi) = (f.body.start, (f.body.end + 1).min(toks.len()));
    (lo..hi).any(|i| {
        (is_id(&toks[i], "thread") && toks.get(i + 2).is_some_and(|t| is_id(t, "scope")))
            || (is_id(&toks[i], "spawn") && is_method_call(toks, i))
    })
}

fn check_par_purity(toks: &[Token], f: &FlowFn, push: &mut impl FnMut(Rule, u32, String)) {
    if !par_scope(toks, f) {
        return;
    }
    let (lo, hi) = (f.body.start, (f.body.end + 1).min(toks.len()));
    for i in lo..hi {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if R7_BANNED_IDENTS.contains(&t.text.as_str()) || t.text.starts_with("Atomic") {
            push(
                Rule::ParPurity,
                t.line,
                format!(
                    "`{}` in parallel fill `{}`: block values must be a pure function of \
                     (run seed, block index) — thread identity, wall clock, OS entropy, \
                     statics, and atomics all vary with scheduling and break the \
                     thread-count-invariance contract",
                    t.text, f.name
                ),
            );
        }
        if is_id(t, "current")
            && i >= 3
            && is_id(&toks[i - 3], "thread")
            && is_p(&toks[i - 2], ':')
            && is_p(&toks[i - 1], ':')
        {
            push(
                Rule::ParPurity,
                t.line,
                format!(
                    "`thread::current` in parallel fill `{}`: deriving anything from the \
                     executing thread makes block values depend on scheduling, not on \
                     (run seed, block index)",
                    f.name
                ),
            );
        }
    }
    // Captured-state checks inside each closure: writes must target
    // names bound inside the closure (its disjoint slab), never a
    // captured accumulator.
    for c in closures_in(toks, lo, hi) {
        let local = |name: &str| name == "self" || c.locals.iter().any(|l| l == name);
        let (a, b) = c.body;
        for i in a..b.min(toks.len()) {
            let t = &toks[i];
            // `&mut x` borrow of a captured name.
            if is_p(t, '&')
                && toks.get(i + 1).is_some_and(|x| is_id(x, "mut"))
                && toks.get(i + 2).is_some_and(|x| x.kind == TokenKind::Ident)
                && !local(&toks[i + 2].text)
            {
                push(
                    Rule::ParPurity,
                    t.line,
                    format!(
                        "`&mut {}` captured by a block-fill closure in `{}`: shared \
                         mutable state across blocks makes the result depend on fill \
                         order — each closure may only write its own disjoint slab",
                        toks[i + 2].text,
                        f.name
                    ),
                );
            }
            // Assignment (`=`, `+=`, …) whose target chain is captured.
            if t.kind == TokenKind::Ident && !local(&t.text) {
                let base = chain_base(toks, i);
                if base != i {
                    continue; // not the head of its field chain
                }
                if is_assignment_target(toks, i) {
                    push(
                        Rule::ParPurity,
                        t.line,
                        format!(
                            "assignment to captured `{}` inside a block-fill closure in \
                             `{}`: a shared accumulator re-introduces the cross-thread \
                             ordering the per-block streams exist to remove",
                            t.text, f.name
                        ),
                    );
                }
            }
        }
    }
}

/// Walks back over a `.field` chain to its head identifier's index.
fn chain_base(toks: &[Token], mut i: usize) -> usize {
    while i >= 2 && is_p(&toks[i - 1], '.') && toks[i - 2].kind == TokenKind::Ident {
        i -= 2;
    }
    i
}

/// Is the identifier at `i` (possibly via a field chain) the target of
/// `=` or a compound assignment?
fn is_assignment_target(toks: &[Token], i: usize) -> bool {
    // Skip over the field chain: ident (. ident)*
    let mut j = i + 1;
    while toks.get(j).is_some_and(|t| is_p(t, '.'))
        && toks.get(j + 1).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        j += 2;
    }
    match toks.get(j).map(|t| &t.kind) {
        Some(TokenKind::Punct('=')) => {
            // `=` but not `==`, `=>`.
            !toks
                .get(j + 1)
                .is_some_and(|t| is_p(t, '=') || is_p(t, '>'))
        }
        Some(TokenKind::Punct('+' | '-' | '*' | '/' | '%' | '^')) => {
            toks.get(j + 1).is_some_and(|t| is_p(t, '='))
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// R8 — float-totality
// ---------------------------------------------------------------------

/// Sort/selection methods whose comparator closure must be total.
const R8_COMPARATOR_METHODS: [&str; 6] = [
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
    "select_nth_unstable_by",
];

fn check_float_totality(toks: &[Token], f: &FlowFn, push: &mut impl FnMut(Rule, u32, String)) {
    let (lo, hi) = (f.body.start, (f.body.end + 1).min(toks.len()));
    for i in lo..hi {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `.partial_cmp(` — the PR-5 NaN panic/mis-selection, verbatim.
        if t.text == "partial_cmp" && is_method_call(toks, i) {
            push(
                Rule::FloatTotality,
                t.line,
                format!(
                    "`.partial_cmp(…)` in `{}`: a NaN operand yields `None` and the \
                     `.unwrap()`/`unwrap_or` band-aids either panic or silently \
                     mis-select — use `f64::total_cmp`, which orders NaN deterministically",
                    f.name
                ),
            );
        }
        // Qualified `f64::max` / `f64::min` — the NaN-swallowing
        // reduction idiom (`.max(…)` clamps stay legal).
        if (t.text == "max" || t.text == "min")
            && i >= 3
            && is_id(&toks[i - 3], "f64")
            && is_p(&toks[i - 2], ':')
            && is_p(&toks[i - 1], ':')
        {
            push(
                Rule::FloatTotality,
                t.line,
                format!(
                    "`f64::{}` as a selection function in `{}`: it silently drops NaN \
                     (`max(NaN, x) = x`), so a poisoned utility wins or vanishes \
                     depending on argument order — fold with `f64::total_cmp` instead",
                    t.text, f.name
                ),
            );
        }
        // Raw comparator closures in sort/selection positions.
        if R8_COMPARATOR_METHODS.contains(&t.text.as_str()) && is_method_call(toks, i) {
            if let Some(close) = matching_paren(toks, i + 1) {
                for c in closures_in(toks, i + 2, close) {
                    let (a, b) = c.body;
                    let total = (a..b).any(|k| {
                        toks[k].kind == TokenKind::Ident
                            && (toks[k].text == "total_cmp" || toks[k].text == "cmp")
                    });
                    let raw = (a..b).any(|k| {
                        is_p(&toks[k], '<')
                            || is_p(&toks[k], '>')
                            || (toks[k].kind == TokenKind::Ident && toks[k].text == "partial_cmp")
                    });
                    if !total && raw {
                        push(
                            Rule::FloatTotality,
                            toks[c.start].line,
                            format!(
                                "raw `<`/`>` comparator passed to `.{}(…)` in `{}`: \
                                 partial float comparisons violate strict weak ordering \
                                 on NaN (UB-adjacent in sorts since Rust 1.81 panics on \
                                 it) — compare with `f64::total_cmp`",
                                t.text, f.name
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn body_of(src: &str, name: &str) -> (Vec<Token>, FlowFn) {
        let lexed = lex(src);
        let fns = functions(&lexed.tokens);
        let f = fns
            .into_iter()
            .find(|f| f.name == name)
            .expect("fn present");
        (lexed.tokens, f)
    }

    #[test]
    fn statement_boundaries_and_tail() {
        let (_, f) = body_of("fn f() -> u32 { let a = 1; g(a); a + 1 }", "f");
        assert_eq!(f.body.stmts.len(), 3);
        assert_eq!(f.body.stmts[0].kind, StmtKind::Let);
        assert!(!f.body.stmts[1].tail);
        assert!(f.body.stmts[2].tail);
    }

    #[test]
    fn early_return_is_classified() {
        let (_, f) = body_of("fn f(x: u32) { if x > 1 { return; } g(x); }", "f");
        assert_eq!(f.body.stmts[0].kind, StmtKind::If);
        assert_eq!(f.body.stmts[0].blocks.len(), 1);
        assert_eq!(f.body.stmts[0].blocks[0].stmts[0].kind, StmtKind::Return);
    }

    #[test]
    fn question_mark_marks_exit() {
        let (toks, f) = body_of("fn f() -> R { let v = io()?; use_it(v)?; Ok(()) }", "f");
        let s = &f.body.stmts[0];
        assert!(span_exits(&toks, s.start, s.end));
    }

    #[test]
    fn match_arms_become_blocks_and_exclude_patterns() {
        let src = "fn f(r: R) -> u32 { match r { Ok(v) => v, Err(e) => { log(e); 0 } } }";
        let (_, f) = body_of(src, "f");
        let m = &f.body.stmts[0];
        assert_eq!(m.kind, StmtKind::Match);
        assert_eq!(m.blocks.len(), 2);
        // Patterns (`Ok(v) =>`) are not part of any linear range.
        assert!(top_ranges(m).iter().all(|&(a, b)| a >= b || a > m.start));
    }

    #[test]
    fn let_else_divergence_block_is_captured() {
        let src = "fn f(o: Option<u32>) -> u32 { let Some(v) = o else { return 0; }; v }";
        let (toks, f) = body_of(src, "f");
        let s = &f.body.stmts[0];
        assert_eq!(s.kind, StmtKind::Let);
        assert_eq!(s.blocks.len(), 1);
        assert!(span_exits(&toks, s.blocks[0].start, s.blocks[0].end + 1));
    }

    #[test]
    fn successors_skip_sibling_arms() {
        let src =
            "fn f(x: u32) -> u32 { match x { 0 => { zero(); marker(); } _ => other(), } tail() }";
        let (toks, f) = body_of(src, "f");
        let pos = toks.iter().position(|t| t.text == "marker").unwrap();
        let succ = successors(&f.body, pos);
        // Successor statements: nothing else in the arm, then `tail()` in
        // the fn body — never the sibling `other()` arm.
        let texts: Vec<bool> = succ
            .iter()
            .map(|s| (s.start..s.end).any(|i| toks[i].text == "other"))
            .collect();
        assert!(texts.iter().all(|found| !found));
        assert!(succ
            .iter()
            .any(|s| (s.start..s.end).any(|i| toks[i].text == "tail")));
    }

    #[test]
    fn nested_closures_each_get_their_own_locals() {
        let src = "fn f(v: &[u32]) { v.iter().map(|x| v.iter().filter(|y| y > x).count() + x).sum::<usize>(); }";
        let (toks, f) = body_of(src, "f");
        let cs = closures_in(&toks, f.body.start, f.body.end);
        assert_eq!(cs.len(), 2);
        assert!(cs[0].locals.iter().any(|l| l == "x"));
        // The outer closure also knows the nested `y` (over-collection in
        // the silent direction), the inner knows only its own.
        assert!(cs[0].locals.iter().any(|l| l == "y"));
        assert!(cs[1].locals.iter().any(|l| l == "y"));
        assert!(!cs[1].locals.iter().any(|l| l == "x"));
    }

    #[test]
    fn boolean_or_is_not_a_closure() {
        let src = "fn f(a: bool, b: bool) -> bool { a || b }";
        let (toks, f) = body_of(src, "f");
        assert!(closures_in(&toks, f.body.start, f.body.end).is_empty());
    }

    #[test]
    fn guard_binding_requires_the_guard_itself() {
        let src = "fn f(&self) { let g = self.m.lock().unwrap_or_else(PoisonError::into_inner); let n = self.m.lock().unwrap_or_else(PoisonError::into_inner).len(); }";
        let (toks, f) = body_of(src, "f");
        assert_eq!(guard_binding(&toks, &f.body.stmts[0]).as_deref(), Some("g"));
        // `n` binds a derived value; the temporary guard dies at the `;`.
        assert_eq!(guard_binding(&toks, &f.body.stmts[1]), None);
    }
}
