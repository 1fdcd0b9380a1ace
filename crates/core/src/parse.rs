//! Lexer and parser for the concrete syntax of λ⇒.
//!
//! The syntax mirrors the paper's notation, ASCII-fied:
//!
//! ```text
//! -- types
//! Int, Bool, String, Unit, a, Int -> Bool, Int * Bool, [Int], Eq a
//! forall a. {a} => a * a                  -- rule type
//!
//! -- expressions
//! ?(Int)                                  -- query
//! rule ({Int, Bool} => Int * Bool) (e)    -- rule abstraction
//! e [Int, Bool]                           -- type application
//! e with {1 : Int, true : Bool}           -- rule application
//! implicit {1 : Int} in e : Int           -- scoping sugar
//! \x : Int. e      fix f : Int -> Int. e  let x : Int = e in e
//! if c then t else e
//! case xs of nil -> e | h :: t -> e
//! Eq [Int] { eq = e }     r.eq            -- records
//! ```
//!
//! A program is a sequence of `interface` declarations followed by an
//! expression:
//!
//! ```text
//! interface Eq a = { eq : a -> a -> Bool }
//! implicit { ... } in ... : Bool
//! ```
//!
//! Comments run from `--` to end of line.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;

use crate::symbol::Symbol;
use crate::syntax::{BinOp, Declarations, Expr, InterfaceDecl, RuleType, Type, UnOp};

/// A parsed `data` declaration before kind inference:
/// (name, parameters, constructors).
type ParsedData = (Symbol, Vec<Symbol>, Vec<(Symbol, Vec<Type>)>);

/// A parse error with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting either parser accepts.
///
/// Every pass after parsing (type checking, resolution, elaboration,
/// both evaluators, even dropping the tree) recurses once per level
/// of the tree, so the parsers bound the nesting of what they build
/// and no input can overflow the host stack. A level is one enclosing
/// construct: a parenthesis or bracket, a binder, a body, a type, or
/// one step of an operator, application, `with`, `::` or postfix
/// chain, since a chain nests its tree one level per step. The
/// top-level expression or type is level 1. Deeper input is the
/// [`ParseError`] `nesting deeper than 1024`, raised before the deeper
/// tree is built.
pub const MAX_NESTING: usize = 1024;

/// A token of the concrete syntax, shared by the core and source
/// parsers. Identifiers and keywords borrow their text from the input;
/// only a string literal owns its text, with its escapes resolved.
/// Each punctuation variant is named after the text its `Display`
/// prints.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq)]
pub enum Tok<'s> {
    /// Integer literal (a magnitude: `-` is a token of its own).
    Int(i64),
    Str(String),
    /// Lowercase identifier (term/type variable) or keyword.
    Lower(&'s str),
    /// Capitalized identifier (interface name or base type).
    Upper(&'s str),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Dot,
    Colon,
    ColonColon,
    FatArrow,
    Arrow,
    Lambda,
    Question,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    EqEq,
    Eq,
    Lt,
    Le,
    AndAnd,
    OrOr,
    PlusPlus,
    Pipe,
    Eof,
}

impl Tok<'_> {
    /// The binary operator this token spells, with its precedence
    /// level as the pretty printer uses it (2 `||`, 3 `&&`,
    /// 4 comparisons, 5 `++` and `::`, 6 `+`/`-`, 7 `*`/`/`/`%`).
    /// `::` builds a cons cell rather than a [`BinOp`], and is the one
    /// right-associative operator.
    pub fn binary_op(&self) -> Option<(u8, Option<BinOp>)> {
        Some(match self {
            Tok::OrOr => (2, Some(BinOp::Or)),
            Tok::AndAnd => (3, Some(BinOp::And)),
            Tok::EqEq => (4, Some(BinOp::Eq)),
            Tok::Lt => (4, Some(BinOp::Lt)),
            Tok::Le => (4, Some(BinOp::Le)),
            Tok::PlusPlus => (5, Some(BinOp::Concat)),
            Tok::ColonColon => (5, None),
            Tok::Plus => (6, Some(BinOp::Add)),
            Tok::Minus => (6, Some(BinOp::Sub)),
            Tok::Star => (7, Some(BinOp::Mul)),
            Tok::Slash => (7, Some(BinOp::Div)),
            Tok::Percent => (7, Some(BinOp::Mod)),
            _ => return None,
        })
    }
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Lower(s) | Tok::Upper(s) => f.write_str(s),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::LBracket => f.write_str("["),
            Tok::RBracket => f.write_str("]"),
            Tok::LBrace => f.write_str("{"),
            Tok::RBrace => f.write_str("}"),
            Tok::Comma => f.write_str(","),
            Tok::Dot => f.write_str("."),
            Tok::Colon => f.write_str(":"),
            Tok::ColonColon => f.write_str("::"),
            Tok::FatArrow => f.write_str("=>"),
            Tok::Arrow => f.write_str("->"),
            Tok::Lambda => f.write_str("\\"),
            Tok::Question => f.write_str("?"),
            Tok::Star => f.write_str("*"),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Slash => f.write_str("/"),
            Tok::Percent => f.write_str("%"),
            Tok::EqEq => f.write_str("=="),
            Tok::Eq => f.write_str("="),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::AndAnd => f.write_str("&&"),
            Tok::OrOr => f.write_str("||"),
            Tok::PlusPlus => f.write_str("++"),
            Tok::Pipe => f.write_str("|"),
            Tok::Eof => f.write_str("<end of input>"),
        }
    }
}

struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Lexer<'s> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek_byte() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'-') if self.src.as_bytes().get(self.pos + 1) == Some(&b'-') => {
                    while let Some(b) = self.peek_byte() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Result<(Tok<'s>, usize, usize), ParseError> {
        self.skip_ws();
        let (line, col) = (self.line, self.col);
        let Some(b) = self.peek_byte() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match b {
            b'0'..=b'9' => {
                let mut n: i64 = 0;
                while let Some(d) = self.peek_byte() {
                    if d.is_ascii_digit() {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(i64::from(d - b'0')))
                            .ok_or_else(|| self.error("integer literal overflows i64"))?;
                        self.bump();
                    } else {
                        break;
                    }
                }
                Tok::Int(n)
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.error("unterminated string literal")),
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'"') => s.push('"'),
                            other => {
                                return Err(self.error(format!(
                                    "invalid escape `\\{}`",
                                    other.map(char::from).unwrap_or(' ')
                                )))
                            }
                        },
                        Some(c) => s.push(char::from(c)),
                    }
                }
                Tok::Str(s)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = self.pos;
                while let Some(c) = self.peek_byte() {
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'\'' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                // Both ends sit next to ASCII bytes, so on char boundaries.
                let word = self
                    .src
                    .get(start..self.pos)
                    .expect("identifiers are ASCII");
                if b.is_ascii_uppercase() {
                    Tok::Upper(word)
                } else {
                    Tok::Lower(word)
                }
            }
            _ => {
                self.bump();
                match b {
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'[' => Tok::LBracket,
                    b']' => Tok::RBracket,
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b',' => Tok::Comma,
                    b'.' => Tok::Dot,
                    b'\\' => Tok::Lambda,
                    b'?' => Tok::Question,
                    b'*' => Tok::Star,
                    b'/' => Tok::Slash,
                    b'%' => Tok::Percent,
                    b':' => {
                        if self.peek_byte() == Some(b':') {
                            self.bump();
                            Tok::ColonColon
                        } else {
                            Tok::Colon
                        }
                    }
                    b'=' => match self.peek_byte() {
                        Some(b'>') => {
                            self.bump();
                            Tok::FatArrow
                        }
                        Some(b'=') => {
                            self.bump();
                            Tok::EqEq
                        }
                        _ => Tok::Eq,
                    },
                    b'-' => {
                        if self.peek_byte() == Some(b'>') {
                            self.bump();
                            Tok::Arrow
                        } else {
                            Tok::Minus
                        }
                    }
                    b'+' => {
                        if self.peek_byte() == Some(b'+') {
                            self.bump();
                            Tok::PlusPlus
                        } else {
                            Tok::Plus
                        }
                    }
                    b'<' => {
                        if self.peek_byte() == Some(b'=') {
                            self.bump();
                            Tok::Le
                        } else {
                            Tok::Lt
                        }
                    }
                    b'&' => {
                        if self.peek_byte() == Some(b'&') {
                            self.bump();
                            Tok::AndAnd
                        } else {
                            return Err(self.error("expected `&&`"));
                        }
                    }
                    b'|' => {
                        if self.peek_byte() == Some(b'|') {
                            self.bump();
                            Tok::OrOr
                        } else {
                            Tok::Pipe
                        }
                    }
                    other => {
                        return Err(
                            self.error(format!("unexpected character `{}`", char::from(other)))
                        )
                    }
                }
            }
        };
        Ok((tok, line, col))
    }

    /// Lexes the rest of the input, returning its first error.
    fn rest_error(&mut self) -> Option<ParseError> {
        loop {
            match self.next_token() {
                Ok((Tok::Eof, ..)) => return None,
                Ok(_) => {}
                Err(e) => return Some(e),
            }
        }
    }
}

/// The reading state both parsers share: the lexer, one token of
/// lookahead, and the nesting count that [`MAX_NESTING`] bounds.
///
/// Tokens are lexed as the parser asks for them. A lexical error ends
/// the stream (the parser then sees [`Tok::Eof`]); [`Cursor::finish`]
/// reports it in place of any parse error, and after a parse error it
/// lexes the rest of the input, so that a lexical error anywhere
/// always wins.
pub struct Cursor<'s> {
    lexer: Lexer<'s>,
    tok: Tok<'s>,
    line: usize,
    col: usize,
    lex_error: Option<ParseError>,
    /// Level of the node being parsed.
    depth: usize,
    /// Deepest level of the tree built so far; a chain step moves the
    /// whole chain one level down.
    peak: usize,
}

impl<'s> Cursor<'s> {
    /// A cursor on the first token of `src`.
    pub fn new(src: &'s str) -> Cursor<'s> {
        let mut cur = Cursor {
            lexer: Lexer::new(src),
            tok: Tok::Eof,
            line: 1,
            col: 1,
            lex_error: None,
            depth: 0,
            peak: 0,
        };
        cur.bump();
        cur
    }

    /// The current token.
    pub fn peek(&self) -> &Tok<'s> {
        &self.tok
    }

    /// Moves to the next token.
    pub fn bump(&mut self) {
        if self.lex_error.is_some() {
            return;
        }
        match self.lexer.next_token() {
            Ok((tok, line, col)) => {
                self.tok = tok;
                self.line = line;
                self.col = col;
            }
            Err(e) => {
                self.tok = Tok::Eof;
                self.lex_error = Some(e);
            }
        }
    }

    /// The current token's line and column.
    pub fn pos(&self) -> (usize, usize) {
        (self.line, self.col)
    }

    /// An error at the current token.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    /// Consumes `t` if it is the current token.
    pub fn eat(&mut self, t: &Tok<'_>) -> bool {
        let here = self.tok == *t;
        if here {
            self.bump();
        }
        here
    }

    /// Consumes `t`, or fails naming what was found instead.
    ///
    /// # Errors
    ///
    /// `expected `t`, found …` at the current token.
    pub fn expect(&mut self, t: &Tok<'_>) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{t}`, found `{}`", self.tok)))
        }
    }

    /// Steps through a comma-separated list that `close` ends, which
    /// may be empty: whether another item follows. `first` is true
    /// before the first item. Consumes the comma, or the closing
    /// token at the end.
    ///
    /// # Errors
    ///
    /// `expected `close`, found …` after an item.
    pub fn comma_item(&mut self, close: &Tok<'_>, first: bool) -> Result<bool, ParseError> {
        if first {
            Ok(!self.eat(close))
        } else if self.eat(&Tok::Comma) {
            Ok(true)
        } else {
            self.expect(close).map(|()| false)
        }
    }

    /// Consumes the keyword `kw`, or fails naming what was found.
    ///
    /// # Errors
    ///
    /// `expected `kw`, found …` at the current token.
    pub fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found `{}`", self.tok)))
        }
    }

    /// Whether the current token is the keyword `kw`.
    pub fn at_kw(&self, kw: &str) -> bool {
        matches!(self.tok, Tok::Lower(w) if w == kw)
    }

    /// Enters a child node, one level deeper; [`Cursor::ascend`]
    /// leaves it.
    ///
    /// # Errors
    ///
    /// `nesting deeper than MAX_NESTING`.
    pub fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        self.reach(self.depth)
    }

    /// Leaves the node the matching [`Cursor::descend`] entered.
    pub fn ascend(&mut self) {
        self.depth -= 1;
    }

    /// Starts a left-nested chain (`a + b`, `f x`, `e.u`, …) whose
    /// first operand is parsed next; hand the result to
    /// [`Cursor::chain_end`].
    pub fn chain_start(&mut self) -> usize {
        std::mem::replace(&mut self.peak, self.depth)
    }

    /// One more step of the current chain: everything the chain has
    /// built so far moves one level down.
    ///
    /// # Errors
    ///
    /// `nesting deeper than MAX_NESTING`.
    pub fn chain_step(&mut self) -> Result<(), ParseError> {
        self.reach(self.peak + 1)
    }

    /// Ends the chain [`Cursor::chain_start`] began.
    pub fn chain_end(&mut self, outer: usize) {
        self.peak = self.peak.max(outer);
    }

    fn reach(&mut self, level: usize) -> Result<(), ParseError> {
        self.peak = self.peak.max(level);
        if self.peak > MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING}")));
        }
        Ok(())
    }

    /// Ends a parse with `out`, unless input is left over or the input
    /// has a lexical error, which is reported in place of any parse
    /// error.
    ///
    /// # Errors
    ///
    /// The first lexical error in the input; else the parse error, or
    /// `unexpected trailing …` at the first token left over.
    pub fn finish<T>(mut self, out: Result<T, ParseError>) -> Result<T, ParseError> {
        let out = out.and_then(|v| match self.tok {
            Tok::Eof => Ok(v),
            ref t => Err(self.error(format!("unexpected trailing `{t}`"))),
        });
        match self.lex_error.take().or_else(|| self.lexer.rest_error()) {
            Some(e) => Err(e),
            None => out,
        }
    }
}

/// An Fx-style hasher: one rotate, xor and multiply per word. It needs
/// no key against crafted collisions: the words are tags, symbols
/// (numbered in order of first appearance) and addresses, none of
/// which a text can choose, and a collision costs one unshared node,
/// never a wrong one.
#[derive(Default)]
struct Fx(u64);

impl Fx {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits, which pick the bucket, as
        // aligned as the addresses were.
        self.0.rotate_left(26)
    }
}

/// A node the parser shares: hashed and compared one level deep, with
/// its `Rc` children by address.
trait Shallow {
    fn hash_shallow(&self, h: &mut Fx);
    fn same_shallow(&self, other: &Self) -> bool;
}

impl Shallow for Type {
    fn hash_shallow(&self, h: &mut Fx) {
        std::mem::discriminant(self).hash(h);
        match self {
            Type::Var(a) => a.hash(h),
            Type::Int | Type::Bool | Type::Str | Type::Unit => {}
            Type::Arrow(a, b) | Type::Prod(a, b) => {
                h.write_usize(Rc::as_ptr(a) as usize);
                h.write_usize(Rc::as_ptr(b) as usize);
            }
            Type::List(a) => h.write_usize(Rc::as_ptr(a) as usize),
            Type::Con(n, args) | Type::VarApp(n, args) => {
                n.hash(h);
                h.write_usize(args.len());
                for t in args {
                    t.hash_shallow(h);
                }
            }
            Type::Ctor(c) => c.hash(h),
            Type::Rule(r) => h.write_usize(Rc::as_ptr(r) as usize),
        }
    }

    fn same_shallow(&self, other: &Type) -> bool {
        match (self, other) {
            (Type::Arrow(a, b), Type::Arrow(c, d)) | (Type::Prod(a, b), Type::Prod(c, d)) => {
                Rc::ptr_eq(a, c) && Rc::ptr_eq(b, d)
            }
            (Type::List(a), Type::List(b)) => Rc::ptr_eq(a, b),
            (Type::Rule(a), Type::Rule(b)) => Rc::ptr_eq(a, b),
            (Type::Con(m, xs), Type::Con(n, ys)) | (Type::VarApp(m, xs), Type::VarApp(n, ys)) => {
                m == n && xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.same_shallow(y))
            }
            // Leaves, and nodes of different constructors.
            _ => self == other,
        }
    }
}

impl Shallow for RuleType {
    fn hash_shallow(&self, h: &mut Fx) {
        self.vars().hash(h);
        h.write_usize(self.context().len());
        for r in self.context() {
            r.hash_shallow(h);
        }
        self.head().hash_shallow(h);
    }

    fn same_shallow(&self, other: &RuleType) -> bool {
        self.vars() == other.vars()
            && self.context().len() == other.context().len()
            && self
                .context()
                .iter()
                .zip(other.context())
                .all(|(r, s)| r.same_shallow(s))
            && self.head().same_shallow(other.head())
    }
}

type ConsTable<T> = HashMap<u64, Rc<T>, BuildHasherDefault<Fx>>;

/// The type nodes one parse has built, so that structurally equal
/// types in one text are one allocation.
///
/// λ⇒ has no type abbreviations: a prelude spells each rule type out
/// at its binding, at each query and in its annotation. Every type
/// node the parser puts behind an `Rc` (a child of an arrow, product
/// or list, or a rule type inside a type) is looked up here by its
/// constructor, its leaves and its children's addresses, which are
/// already shared, and reused when seen. Later passes get the sharing
/// for free: the intern arena's pointer memo hits instead of walking
/// each copy. The tables hold a clone of each entry, so no address
/// they key by can be reused while they live. They live for one parse
/// and allocate on their first insert, so a parse that builds no
/// compound type pays nothing.
#[derive(Default)]
struct HashCons {
    types: ConsTable<Type>,
    rules: ConsTable<RuleType>,
}

impl HashCons {
    fn ty(&mut self, t: Type) -> Rc<Type> {
        share(&mut self.types, t)
    }

    fn rule(&mut self, r: RuleType) -> Rc<RuleType> {
        share(&mut self.rules, r)
    }
}

fn share<T: Shallow>(table: &mut ConsTable<T>, node: T) -> Rc<T> {
    let mut h = Fx::default();
    node.hash_shallow(&mut h);
    let key = h.finish();
    if let Some(seen) = table.get(&key) {
        if seen.same_shallow(&node) {
            return Rc::clone(seen);
        }
    }
    // New, or a hash collision, which replaces the older node.
    let node = Rc::new(node);
    table.insert(key, Rc::clone(&node));
    node
}

struct Parser<'s> {
    cur: Cursor<'s>,
    cons: HashCons,
}

impl<'s> Parser<'s> {
    fn lower_ident(&mut self) -> Result<Symbol, ParseError> {
        match *self.cur.peek() {
            Tok::Lower(w) if !is_keyword(w) => {
                self.cur.bump();
                Ok(Symbol::intern(w))
            }
            ref other => Err(self
                .cur
                .error(format!("expected identifier, found `{other}`"))),
        }
    }

    fn upper_ident(&mut self) -> Result<Symbol, ParseError> {
        match *self.cur.peek() {
            Tok::Upper(w) if !is_base_type(w) => {
                self.cur.bump();
                Ok(Symbol::intern(w))
            }
            ref other => Err(self
                .cur
                .error(format!("expected interface name, found `{other}`"))),
        }
    }

    // ---------- types ----------

    /// type := ['forall' ident+ '.'] ['{' ctx '}' '=>'] arrow
    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let rho = self.parse_rule_type()?;
        Ok(if rho.is_trivial() {
            Type::rule(rho)
        } else {
            Type::Rule(self.cons.rule(rho))
        })
    }

    fn parse_rule_type(&mut self) -> Result<RuleType, ParseError> {
        self.cur.descend()?;
        let mut vars = Vec::new();
        if self.cur.at_kw("forall") {
            self.cur.bump();
            while matches!(*self.cur.peek(), Tok::Lower(w) if !is_keyword(w)) {
                vars.push(self.lower_ident()?);
            }
            if vars.is_empty() {
                return Err(self.cur.error("`forall` needs at least one variable"));
            }
            self.cur.expect(&Tok::Dot)?;
        }
        let mut context = Vec::new();
        if self.cur.eat(&Tok::LBrace) {
            while self.cur.comma_item(&Tok::RBrace, context.is_empty())? {
                context.push(self.parse_rule_type()?);
            }
            self.cur.expect(&Tok::FatArrow)?;
        }
        let head = self.parse_arrow_type()?;
        self.cur.ascend();
        Ok(RuleType::new(vars, context, head))
    }

    /// arrow := prod ['->' arrow]
    fn parse_arrow_type(&mut self) -> Result<Type, ParseError> {
        let left = self.parse_prod_type()?;
        if self.cur.eat(&Tok::Arrow) {
            self.cur.descend()?;
            let right = self.parse_arrow_type()?;
            self.cur.ascend();
            Ok(Type::Arrow(self.cons.ty(left), self.cons.ty(right)))
        } else {
            Ok(left)
        }
    }

    /// prod := app ('*' app)*
    fn parse_prod_type(&mut self) -> Result<Type, ParseError> {
        let outer = self.cur.chain_start();
        let mut left = self.parse_app_type()?;
        while *self.cur.peek() == Tok::Star {
            self.cur.chain_step()?;
            self.cur.bump();
            let right = self.parse_app_type()?;
            left = Type::Prod(self.cons.ty(left), self.cons.ty(right));
        }
        self.cur.chain_end(outer);
        Ok(left)
    }

    /// app := Upper atom* | lower atom+ | atom
    fn parse_app_type(&mut self) -> Result<Type, ParseError> {
        match *self.cur.peek() {
            Tok::Upper("List") => {
                // `List` is the built-in constructor: bare it is a
                // constructor reference, applied it is the list type.
                self.cur.bump();
                if self.starts_atom_type() {
                    let arg = self.parse_atom_type()?;
                    return Ok(Type::List(self.cons.ty(arg)));
                }
                Ok(Type::Ctor(crate::syntax::TyCon::List))
            }
            Tok::Upper(w) if !is_base_type(w) => {
                let name = self.upper_ident()?;
                let mut args = Vec::new();
                while self.starts_atom_type() {
                    args.push(self.parse_atom_type()?);
                }
                Ok(Type::Con(name, args))
            }
            Tok::Lower(w) if !is_keyword(w) => {
                let head = self.lower_ident()?;
                let mut args = Vec::new();
                while self.starts_atom_type() {
                    args.push(self.parse_atom_type()?);
                }
                Ok(if args.is_empty() {
                    Type::var(head)
                } else {
                    Type::VarApp(head, args)
                })
            }
            _ => self.parse_atom_type(),
        }
    }

    fn starts_atom_type(&self) -> bool {
        match *self.cur.peek() {
            Tok::Upper(_) | Tok::LParen | Tok::LBracket => true,
            Tok::Lower(w) => !is_keyword(w),
            _ => false,
        }
    }

    fn parse_atom_type(&mut self) -> Result<Type, ParseError> {
        match *self.cur.peek() {
            Tok::Upper(w) => match w {
                "Int" => {
                    self.cur.bump();
                    Ok(Type::Int)
                }
                "Bool" => {
                    self.cur.bump();
                    Ok(Type::Bool)
                }
                "String" => {
                    self.cur.bump();
                    Ok(Type::Str)
                }
                "Unit" => {
                    self.cur.bump();
                    Ok(Type::Unit)
                }
                "List" => {
                    self.cur.bump();
                    Ok(Type::Ctor(crate::syntax::TyCon::List))
                }
                _ => {
                    // A bare constructor (no arguments at atom level).
                    let name = self.upper_ident()?;
                    Ok(Type::Con(name, Vec::new()))
                }
            },
            Tok::Lower(w) if !is_keyword(w) => {
                self.cur.bump();
                Ok(Type::var(Symbol::intern(w)))
            }
            Tok::LBracket => {
                self.cur.bump();
                let t = self.parse_type()?;
                self.cur.expect(&Tok::RBracket)?;
                Ok(Type::List(self.cons.ty(t)))
            }
            Tok::LParen => {
                self.cur.bump();
                let t = self.parse_type()?;
                self.cur.expect(&Tok::RParen)?;
                Ok(t)
            }
            ref other => Err(self.cur.error(format!("expected a type, found `{other}`"))),
        }
    }

    // ---------- expressions ----------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.cur.descend()?;
        let e = match *self.cur.peek() {
            Tok::Lambda => {
                self.cur.bump();
                let x = self.lower_ident()?;
                self.cur.expect(&Tok::Colon)?;
                let t = self.parse_type()?;
                self.cur.expect(&Tok::Dot)?;
                let body = self.parse_expr()?;
                Expr::lam(x, t, body)
            }
            Tok::Lower("fix") => {
                self.cur.bump();
                let x = self.lower_ident()?;
                self.cur.expect(&Tok::Colon)?;
                let t = self.parse_type()?;
                self.cur.expect(&Tok::Dot)?;
                let body = self.parse_expr()?;
                Expr::Fix(x, t, Rc::new(body))
            }
            Tok::Lower("if") => {
                self.cur.bump();
                let c = self.parse_with_expr()?;
                self.cur.expect_kw("then")?;
                let t = self.parse_with_expr()?;
                self.cur.expect_kw("else")?;
                let e = self.parse_expr()?;
                Expr::if_(c, t, e)
            }
            Tok::Lower("case") => {
                self.cur.bump();
                let scrut = self.parse_with_expr()?;
                self.cur.expect_kw("of")?;
                self.cur.expect_kw("nil")?;
                self.cur.expect(&Tok::Arrow)?;
                let nil = self.parse_with_expr()?;
                self.cur.expect(&Tok::Pipe)?;
                let h = self.lower_ident()?;
                self.cur.expect(&Tok::ColonColon)?;
                let t = self.lower_ident()?;
                self.cur.expect(&Tok::Arrow)?;
                let cons = self.parse_expr()?;
                Expr::ListCase {
                    scrut: Rc::new(scrut),
                    nil: Rc::new(nil),
                    head: h,
                    tail: t,
                    cons: Rc::new(cons),
                }
            }
            Tok::Lower("let") => {
                self.cur.bump();
                let x = self.lower_ident()?;
                self.cur.expect(&Tok::Colon)?;
                let t = self.parse_type()?;
                self.cur.expect(&Tok::Eq)?;
                let bound = self.parse_expr()?;
                self.cur.expect_kw("in")?;
                let body = self.parse_expr()?;
                Expr::let_(x, t, bound, body)
            }
            Tok::Lower("implicit") => {
                self.cur.bump();
                let args = self.parse_rule_args()?;
                self.cur.expect_kw("in")?;
                let body = self.parse_expr()?;
                self.cur.expect(&Tok::Colon)?;
                let ty = self.parse_type()?;
                Expr::implicit(args, body, ty)
            }
            _ => self.parse_with_expr()?,
        };
        self.cur.ascend();
        Ok(e)
    }

    /// The `{ e : rho, … }` argument list of `with` and `implicit`.
    /// Each `e` is a full expression, except that a top-level
    /// `implicit` body annotation would swallow the `:` separator, so
    /// `implicit` arguments must be parenthesized there.
    fn parse_rule_args(&mut self) -> Result<Vec<(Expr, RuleType)>, ParseError> {
        self.cur.expect(&Tok::LBrace)?;
        let mut args = Vec::new();
        while self.cur.comma_item(&Tok::RBrace, args.is_empty())? {
            if self.cur.at_kw("implicit") {
                return Err(self
                    .cur
                    .error("parenthesize an `implicit` expression used as a `with` argument"));
            }
            let e = self.parse_expr()?;
            self.cur.expect(&Tok::Colon)?;
            args.push((e, self.parse_rule_type()?));
        }
        Ok(args)
    }

    /// withexpr := binary ('with' '{' args '}')*
    fn parse_with_expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.cur.chain_start();
        let mut e = self.parse_binary(2)?;
        while self.cur.at_kw("with") {
            self.cur.chain_step()?;
            self.cur.bump();
            e = Expr::with(e, self.parse_rule_args()?);
        }
        self.cur.chain_end(outer);
        Ok(e)
    }

    /// binary := app (op binary)*, by precedence climbing: an operator
    /// at level `l` takes as its right operand everything binding
    /// tighter than `l` (everything at `l` or tighter for the
    /// right-associative `::`), and operators bind left to right.
    fn parse_binary(&mut self, min_level: u8) -> Result<Expr, ParseError> {
        let outer = self.cur.chain_start();
        let mut left = self.parse_app()?;
        while let Some((level, op)) = self.cur.peek().binary_op() {
            if level < min_level {
                break;
            }
            self.cur.chain_step()?;
            self.cur.bump();
            self.cur.descend()?;
            let right = self.parse_binary(if op.is_some() { level + 1 } else { level })?;
            self.cur.ascend();
            left = match op {
                Some(op) => Expr::binop(op, left, right),
                None => Expr::Cons(Rc::new(left), Rc::new(right)),
            };
        }
        self.cur.chain_end(outer);
        Ok(left)
    }

    /// app := prefix postfix* (application is left-associative;
    /// postfix is type application `[τ̄]` or projection `.field`)
    fn parse_app(&mut self) -> Result<Expr, ParseError> {
        // Prefix keyword operators.
        let prefix: Option<fn(Rc<Expr>) -> Expr> = match *self.cur.peek() {
            Tok::Lower("not") => Some(|e| Expr::UnOp(UnOp::Not, e)),
            Tok::Lower("neg") => Some(|e| Expr::UnOp(UnOp::Neg, e)),
            Tok::Lower("showInt") => Some(|e| Expr::UnOp(UnOp::IntToStr, e)),
            Tok::Lower("fst") => Some(Expr::Fst),
            Tok::Lower("snd") => Some(Expr::Snd),
            _ => None,
        };
        if let Some(prefix) = prefix {
            self.cur.bump();
            return Ok(prefix(Rc::new(self.parse_postfix()?)));
        }
        let outer = self.cur.chain_start();
        let mut e = self.parse_postfix()?;
        while self.starts_atom_expr() {
            self.cur.chain_step()?;
            self.cur.descend()?;
            let arg = self.parse_postfix()?;
            self.cur.ascend();
            e = Expr::app(e, arg);
        }
        self.cur.chain_end(outer);
        Ok(e)
    }

    fn starts_atom_expr(&self) -> bool {
        match *self.cur.peek() {
            Tok::Int(_) | Tok::Str(_) | Tok::LParen | Tok::Question => true,
            Tok::Upper(w) => !is_base_type(w),
            Tok::Lower(w) => {
                !is_keyword(w)
                    || matches!(
                        w,
                        "true" | "false" | "unit" | "nil" | "rule" | "con" | "match"
                    )
            }
            _ => false,
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let outer = self.cur.chain_start();
        let mut e = self.parse_atom_expr()?;
        loop {
            match *self.cur.peek() {
                Tok::LBracket => {
                    self.cur.chain_step()?;
                    let ts = self.parse_type_args()?;
                    e = Expr::TyApp(Rc::new(e), ts);
                }
                Tok::Dot => {
                    self.cur.chain_step()?;
                    self.cur.bump();
                    let field = self.lower_ident()?;
                    e = Expr::Proj(Rc::new(e), field);
                }
                _ => break,
            }
        }
        self.cur.chain_end(outer);
        Ok(e)
    }

    /// `[τ, …]`: the type arguments of a type application.
    fn parse_type_args(&mut self) -> Result<Vec<Type>, ParseError> {
        self.cur.expect(&Tok::LBracket)?;
        let mut ts = Vec::new();
        while self.cur.comma_item(&Tok::RBracket, ts.is_empty())? {
            ts.push(self.parse_type()?);
        }
        Ok(ts)
    }

    /// Type arguments `[τ, …]` if present, else none.
    fn parse_opt_type_args(&mut self) -> Result<Vec<Type>, ParseError> {
        if *self.cur.peek() == Tok::LBracket {
            self.parse_type_args()
        } else {
            Ok(Vec::new())
        }
    }

    fn parse_atom_expr(&mut self) -> Result<Expr, ParseError> {
        match *self.cur.peek() {
            Tok::Int(n) => {
                self.cur.bump();
                Ok(Expr::Int(n))
            }
            Tok::Minus => {
                // A negative literal. Only in atom position: after an
                // operand, `-` is subtraction (`f -1` is `f - 1`).
                let (line, col) = self.cur.pos();
                self.cur.bump();
                match *self.cur.peek() {
                    Tok::Int(n) => {
                        self.cur.bump();
                        Ok(Expr::Int(-n))
                    }
                    _ => Err(ParseError {
                        line,
                        col,
                        message: "expected an expression, found `-`".to_owned(),
                    }),
                }
            }
            Tok::Str(ref s) => {
                let s = s.clone();
                self.cur.bump();
                Ok(Expr::Str(s))
            }
            Tok::Question => {
                self.cur.bump();
                self.cur.expect(&Tok::LParen)?;
                let r = self.parse_rule_type()?;
                self.cur.expect(&Tok::RParen)?;
                Ok(Expr::Query(r))
            }
            Tok::Lower(w) => match w {
                "true" => {
                    self.cur.bump();
                    Ok(Expr::Bool(true))
                }
                "false" => {
                    self.cur.bump();
                    Ok(Expr::Bool(false))
                }
                "unit" => {
                    self.cur.bump();
                    Ok(Expr::Unit)
                }
                "nil" => {
                    self.cur.bump();
                    self.cur.expect(&Tok::LBracket)?;
                    let t = self.parse_type()?;
                    self.cur.expect(&Tok::RBracket)?;
                    Ok(Expr::Nil(t))
                }
                "rule" => {
                    self.cur.bump();
                    self.cur.expect(&Tok::LParen)?;
                    let r = self.parse_rule_type()?;
                    self.cur.expect(&Tok::RParen)?;
                    self.cur.expect(&Tok::LParen)?;
                    let body = self.parse_expr()?;
                    self.cur.expect(&Tok::RParen)?;
                    if r.is_trivial() {
                        return Err(self
                            .cur
                            .error("trivial rule abstraction (empty quantifier and context)"));
                    }
                    Ok(Expr::rule_abs(r, body))
                }
                "con" => {
                    // con C [τ̄] (e₁, …, eₙ)
                    self.cur.bump();
                    let ctor = self.upper_ident()?;
                    let targs = self.parse_opt_type_args()?;
                    self.cur.expect(&Tok::LParen)?;
                    let mut args = Vec::new();
                    while self.cur.comma_item(&Tok::RParen, args.is_empty())? {
                        args.push(self.parse_expr()?);
                    }
                    Ok(Expr::Inject(ctor, targs, args))
                }
                "match" => {
                    // match e { C x̄ -> e | … }
                    self.cur.bump();
                    self.cur.descend()?;
                    let scrut = self.parse_binary(2)?;
                    self.cur.ascend();
                    self.cur.expect(&Tok::LBrace)?;
                    let mut arms = Vec::new();
                    loop {
                        let ctor = self.upper_ident()?;
                        let mut binders = Vec::new();
                        while matches!(*self.cur.peek(), Tok::Lower(w) if !is_keyword(w)) {
                            binders.push(self.lower_ident()?);
                        }
                        self.cur.expect(&Tok::Arrow)?;
                        let body = self.parse_expr()?;
                        arms.push(crate::syntax::MatchArm {
                            ctor,
                            binders,
                            body,
                        });
                        if !self.cur.eat(&Tok::Pipe) {
                            break;
                        }
                    }
                    self.cur.expect(&Tok::RBrace)?;
                    Ok(Expr::Match(Rc::new(scrut), arms))
                }
                _ if !is_keyword(w) => {
                    self.cur.bump();
                    Ok(Expr::var(Symbol::intern(w)))
                }
                _ => Err(self.cur.error(format!("unexpected keyword `{w}`"))),
            },
            Tok::Upper(w) if !is_base_type(w) => {
                // Record construction: I [τ̄]? { u = e, … }
                let name = self.upper_ident()?;
                let args = self.parse_opt_type_args()?;
                self.cur.expect(&Tok::LBrace)?;
                let mut fields = Vec::new();
                while self.cur.comma_item(&Tok::RBrace, fields.is_empty())? {
                    let u = self.lower_ident()?;
                    self.cur.expect(&Tok::Eq)?;
                    fields.push((u, self.parse_expr()?));
                }
                Ok(Expr::Make(name, args, fields))
            }
            Tok::LParen => {
                self.cur.bump();
                let e = self.parse_expr()?;
                if self.cur.eat(&Tok::Comma) {
                    let e2 = self.parse_expr()?;
                    self.cur.expect(&Tok::RParen)?;
                    Ok(Expr::pair(e, e2))
                } else {
                    self.cur.expect(&Tok::RParen)?;
                    Ok(e)
                }
            }
            ref other => Err(self
                .cur
                .error(format!("expected an expression, found `{other}`"))),
        }
    }

    // ---------- programs ----------

    /// data D p₁ … pₙ = C₁ T̄₁ | … | Cₖ T̄ₖ
    fn parse_data(&mut self) -> Result<ParsedData, ParseError> {
        self.cur.expect_kw("data")?;
        let name = self.upper_ident()?;
        let mut params = Vec::new();
        while matches!(*self.cur.peek(), Tok::Lower(w) if !is_keyword(w)) {
            params.push(self.lower_ident()?);
        }
        self.cur.expect(&Tok::Eq)?;
        let mut ctors = Vec::new();
        loop {
            let ctor = self.upper_ident()?;
            let mut args = Vec::new();
            while self.starts_atom_type() {
                args.push(self.parse_atom_type()?);
            }
            ctors.push((ctor, args));
            if !self.cur.eat(&Tok::Pipe) {
                break;
            }
        }
        Ok((name, params, ctors))
    }

    /// The `interface` and `data` declarations that open a program.
    fn parse_declarations(&mut self) -> Result<Declarations, ParseError> {
        let mut decls = Declarations::new();
        while self.cur.at_kw("interface") || self.cur.at_kw("data") {
            let (line, col) = self.cur.pos();
            let fail = |message: String| ParseError { line, col, message };
            if self.cur.at_kw("interface") {
                let d = self.parse_interface()?;
                decls.declare(d).map_err(fail)?;
            } else {
                let (name, params, ctors) = self.parse_data()?;
                let d = crate::syntax::DataDecl::infer(name, params, ctors).map_err(fail)?;
                decls.declare_data(d).map_err(fail)?;
            }
        }
        Ok(decls)
    }

    fn parse_interface(&mut self) -> Result<InterfaceDecl, ParseError> {
        self.cur.expect_kw("interface")?;
        let name = self.upper_ident()?;
        let mut vars = Vec::new();
        while matches!(*self.cur.peek(), Tok::Lower(w) if !is_keyword(w)) {
            vars.push(self.lower_ident()?);
        }
        self.cur.expect(&Tok::Eq)?;
        self.cur.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.cur.comma_item(&Tok::RBrace, fields.is_empty())? {
            let u = self.lower_ident()?;
            self.cur.expect(&Tok::Colon)?;
            fields.push((u, self.parse_type()?));
        }
        Ok(InterfaceDecl { name, vars, fields })
    }
}

fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "forall"
            | "rule"
            | "with"
            | "implicit"
            | "in"
            | "if"
            | "then"
            | "else"
            | "true"
            | "false"
            | "unit"
            | "nil"
            | "case"
            | "of"
            | "fix"
            | "let"
            | "not"
            | "neg"
            | "showInt"
            | "fst"
            | "snd"
            | "interface"
            | "data"
            | "con"
            | "match"
    )
}

/// Whether `w` names a base type (`Int`, `Bool`, `String`, `Unit`).
pub fn is_base_type(w: &str) -> bool {
    matches!(w, "Int" | "Bool" | "String" | "Unit")
}

fn run_parser<'s, T>(
    src: &'s str,
    f: impl FnOnce(&mut Parser<'s>) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut p = Parser {
        cur: Cursor::new(src),
        cons: HashCons::default(),
    };
    let out = f(&mut p);
    p.cur.finish(out)
}

/// Parses a type.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information.
pub fn parse_type(src: &str) -> Result<Type, ParseError> {
    run_parser(src, Parser::parse_type)
}

/// Parses a rule type (`forall ā. {π} => τ`, with quantifier and
/// context optional).
///
/// # Errors
///
/// Returns a [`ParseError`] with position information.
pub fn parse_rule_type(src: &str) -> Result<RuleType, ParseError> {
    run_parser(src, Parser::parse_rule_type)
}

/// Parses an expression.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information.
///
/// # Examples
///
/// ```
/// use implicit_core::parse::parse_expr;
///
/// let e = parse_expr("implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool")?;
/// # let _ = e;
/// # Ok::<(), implicit_core::parse::ParseError>(())
/// ```
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    run_parser(src, Parser::parse_expr)
}

/// Parses a whole program: `interface` declarations followed by one
/// expression.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information, or an
/// interface-redeclaration error mapped onto the declaration site.
pub fn parse_program(src: &str) -> Result<(Declarations, Expr), ParseError> {
    run_parser(src, |p| {
        let decls = p.parse_declarations()?;
        let e = p.parse_expr()?;
        Ok((decls, e))
    })
}

/// Parses only the header of a program: its `interface` and `data`
/// declarations, as [`parse_program`] returns them. Reading stops at
/// the first token of the program's expression; the rest of the text
/// is neither lexed nor checked, so `Ok` does not mean that the whole
/// text parses.
///
/// # Errors
///
/// Exactly the error [`parse_program`] returns for `src`, whenever
/// reading the header fails: a lexical error anywhere in the text
/// still wins over a parse error in the header.
pub fn parse_declarations(src: &str) -> Result<Declarations, ParseError> {
    let mut p = Parser {
        cur: Cursor::new(src),
        cons: HashCons::default(),
    };
    match p.parse_declarations() {
        // A lexical error that ended the header early is what the
        // whole parse reports too.
        Ok(decls) => match p.cur.lex_error.take() {
            None => Ok(decls),
            Some(e) => Err(e),
        },
        Err(e) => p.cur.finish(Err(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_types() {
        assert_eq!(parse_type("Int").unwrap(), Type::Int);
        assert_eq!(
            parse_type("Int -> Bool -> Int").unwrap(),
            Type::arrow(Type::Int, Type::arrow(Type::Bool, Type::Int))
        );
        assert_eq!(
            parse_type("Int * Bool").unwrap(),
            Type::prod(Type::Int, Type::Bool)
        );
        assert_eq!(parse_type("[Int]").unwrap(), Type::list(Type::Int));
        assert_eq!(
            parse_type("(Int -> Int) -> Bool").unwrap(),
            Type::arrow(Type::arrow(Type::Int, Type::Int), Type::Bool)
        );
    }

    #[test]
    fn parses_rule_types() {
        let r = parse_rule_type("forall a. {a} => a * a").unwrap();
        assert_eq!(r.vars().len(), 1);
        assert_eq!(r.context().len(), 1);
        let r2 = parse_rule_type("{Int, Bool} => Int").unwrap();
        assert_eq!(r2.context().len(), 2);
        assert!(parse_rule_type("Int").unwrap().is_trivial());
    }

    #[test]
    fn trivial_rule_types_collapse_in_types() {
        // A parenthesized context-free "rule type" is just the type.
        assert_eq!(parse_type("(Int)").unwrap(), Type::Int);
    }

    #[test]
    fn parses_paper_example_e1() {
        let e =
            parse_expr("implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool")
                .unwrap();
        assert!(matches!(e, Expr::RuleApp(_, _)));
    }

    #[test]
    fn parses_higher_order_rule_e2() {
        let src = "implicit {3 : Int, rule ({Int} => Int * Int) ((?(Int), ?(Int) + 1)) : {Int} => Int * Int} in ?(Int * Int) : Int * Int";
        let e = parse_expr(src).unwrap();
        assert!(matches!(e, Expr::RuleApp(_, _)));
    }

    #[test]
    fn parses_lambda_and_application() {
        let e = parse_expr("(\\x : Int. x + 1) 41").unwrap();
        match &e {
            Expr::App(f, a) => {
                assert!(matches!(&**f, Expr::Lam(_, Type::Int, _)));
                assert_eq!(**a, Expr::Int(41));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_type_application_and_with() {
        let e = parse_expr("rule (forall a. {a} => a * a) ((?(a), ?(a))) [Int] with {3 : Int}")
            .unwrap();
        assert!(matches!(e, Expr::RuleApp(_, _)));
    }

    #[test]
    fn parses_interfaces_and_records() {
        let (decls, e) = parse_program(
            "interface Eq a = { eq : a -> a -> Bool }\n\
             (Eq [Int] { eq = \\x : Int. \\y : Int. x == y }).eq 1 2",
        )
        .unwrap();
        assert!(decls.lookup(Symbol::intern("Eq")).is_some());
        assert!(matches!(e, Expr::App(_, _)));
    }

    #[test]
    fn parses_case_fix_let_strings() {
        let src = r#"
            let join : [String] -> String =
              fix go : [String] -> String.
                \xs : [String]. case xs of nil -> "" | h :: t -> h ++ go t
            in join ("a" :: "b" :: nil [String])
        "#;
        let e = parse_expr(src).unwrap();
        assert!(matches!(e, Expr::App(_, _)));
    }

    #[test]
    fn comments_are_skipped() {
        let e = parse_expr("1 + -- a comment\n 2").unwrap();
        assert_eq!(e, Expr::binop(BinOp::Add, Expr::Int(1), Expr::Int(2)));
    }

    #[test]
    fn operator_precedence_matches_printer() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        // ((1 + (2*3)) == 7) && true
        match e {
            Expr::BinOp(BinOp::And, l, _) => match &*l {
                Expr::BinOp(BinOp::Eq, _, _) => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_expr("1 +\n  )").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn roundtrip_print_parse() {
        let sources = [
            "implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool",
            "rule (forall a. {a} => a * a) ((?(a), ?(a))) [Int] with {3 : Int}",
            "\\x : Int. if x < 2 then x else x * 2",
            "case 1 :: nil [Int] of nil -> 0 | h :: t -> h",
            "fix f : Int -> Int. \\n : Int. if n <= 0 then 1 else n * f (n - 1)",
            "(fst (1, true), snd (1, true))",
            "showInt 42 ++ \"!\"",
        ];
        for src in sources {
            let e1 = parse_expr(src).unwrap();
            let printed = e1.to_string();
            let e2 = parse_expr(&printed)
                .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
            assert_eq!(e1, e2, "roundtrip mismatch for `{src}` → `{printed}`");
        }
    }

    #[test]
    fn duplicate_interfaces_error_at_position() {
        let err =
            parse_program("interface A = { x : Int }\ninterface A = { y : Int }\n1").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(parse_expr("\"abc").is_err());
    }

    #[test]
    fn integer_overflow_is_reported() {
        assert!(parse_expr("99999999999999999999999").is_err());
    }

    #[test]
    fn every_parse_error_text_is_pinned() {
        let cases = [
            ("(1", "1:3: expected `)`, found `<end of input>`"),
            (
                "if true then 1 1",
                "1:17: expected `else`, found `<end of input>`",
            ),
            ("1 )", "1:3: unexpected trailing `)`"),
            (
                "rule (Int) (1)",
                "1:15: trivial rule abstraction (empty quantifier and context)",
            ),
            (
                "interface A = { x : Int }\ninterface A = { y : Int }\n1",
                "2:1: type `A` is already declared",
            ),
            (
                "data D = C Int | C Bool\n1",
                "1:1: duplicate constructor `C` in data type `D`",
            ),
            (
                "?(forall . Int)",
                "1:10: `forall` needs at least one variable",
            ),
            ("\\1 : Int. 1", "1:2: expected identifier, found `1`"),
            ("con int (1)", "1:5: expected interface name, found `int`"),
            ("?(->)", "1:3: expected a type, found `->`"),
            (
                "implicit {1 : Int} in ?(Int) with {implicit {1 : Int} in 1 : Int : Int} : Int",
                "1:36: parenthesize an `implicit` expression used as a `with` argument",
            ),
            ("let x : Int = 1 in then", "1:20: unexpected keyword `then`"),
            ("Int", "1:1: expected an expression, found `Int`"),
            ("1 - -x", "1:5: expected an expression, found `-`"),
            // Lexical errors, at the position where lexing stopped.
            (
                "99999999999999999999999",
                "1:19: integer literal overflows i64",
            ),
            ("\"abc", "1:5: unterminated string literal"),
            ("\"a\\q\"", "1:5: invalid escape `\\q`"),
            ("\"abc\\", "1:6: invalid escape `\\ `"),
            ("true & false", "1:7: expected `&&`"),
            ("1 # 2", "1:4: unexpected character `#`"),
            // A lexical error anywhere wins over an earlier parse error.
            ("1 + ) #", "1:8: unexpected character `#`"),
            ("(1 2 3 ) ) \n  &", "2:4: expected `&&`"),
        ];
        for (src, expected) in cases {
            let err = parse_program(src).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("parse error at {expected}"),
                "{src:?}"
            );
        }
    }

    #[test]
    fn reading_the_header_alone_agrees_with_the_whole_parse() {
        // (text, whether the header alone reads where the whole parse fails)
        let cases = [
            (
                "interface Eq a = { eq : a -> a -> Bool }\ndata L a = N | C a (L a)\n1",
                false,
            ),
            ("let x : Int = 1 in x", false),
            (
                "interface A = { x : Int }\ninterface A = { y : Int }\n1",
                false,
            ),
            ("data D = C Int | C Bool\n1", false),
            // A parse error in the header, a lexical error after it.
            ("interface A = { x : Int \n1 #", false),
            // A lexical error inside the header.
            ("interface A = { x : # }\n1", false),
            ("interface A = { x : Int }\n#", false),
            // The header is fine; only the expression is not.
            ("interface A = { x : Int }\n1 + )", true),
            ("interface A = { x : Int }\n", true),
        ];
        for (src, header_only) in cases {
            let whole = parse_program(src);
            let header = parse_declarations(src);
            match (whole, header) {
                (Ok((d, _)), Ok(h)) => assert_eq!(format!("{d:?}"), format!("{h:?}"), "{src:?}"),
                (Err(w), Err(h)) => {
                    assert!(!header_only, "{src:?}");
                    assert_eq!(w, h, "{src:?}");
                }
                (Err(_), Ok(_)) => assert!(header_only, "{src:?}"),
                (Ok(_), Err(h)) => panic!("{src:?}: the header alone fails with {h}"),
            }
        }
    }

    /// Texts whose nesting is exactly `n` levels, one per shape.
    fn nested_shapes(n: usize) -> Vec<(&'static str, String)> {
        let k = n - 1;
        vec![
            (
                "parentheses",
                format!("{}1{}", "(".repeat(k), ")".repeat(k)),
            ),
            ("pairs", format!("{}1{}", "(1, ".repeat(k), ")".repeat(k))),
            ("lambdas", format!("{}x", "\\x : Int. ".repeat(k))),
            ("lets", format!("{}x", "let x : Int = 1 in ".repeat(k))),
            ("sums", vec!["1"; n].join(" + ")),
            ("conses", format!("{}nil [Int]", "1 :: ".repeat(n - 2))),
            ("applications", format!("f{}", " 1".repeat(k))),
            ("with", format!("x{}", " with {1 : Int}".repeat(k))),
            ("projections", format!("r{}", ".u".repeat(k))),
            (
                "arrow types",
                format!("\\f : {}. f", vec!["Int"; k].join(" -> ")),
            ),
            (
                "list types",
                format!("nil [{}Int{}]", "[".repeat(n - 2), "]".repeat(n - 2)),
            ),
        ]
    }

    #[test]
    fn nesting_is_bounded_at_max_nesting() {
        // The size of the main thread's stack, where `implicitc` parses.
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(|| {
                for (shape, src) in nested_shapes(MAX_NESTING) {
                    if let Err(e) = parse_expr(&src) {
                        panic!("{shape} at {MAX_NESTING} levels: {e}");
                    }
                }
                for (shape, src) in nested_shapes(MAX_NESTING + 1) {
                    let err = parse_expr(&src).unwrap_err();
                    assert_eq!(err.message, "nesting deeper than 1024", "{shape}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// The two children of an arrow or product type.
    fn children(t: &Type) -> (Rc<Type>, Rc<Type>) {
        match t {
            Type::Arrow(a, b) | Type::Prod(a, b) => (Rc::clone(a), Rc::clone(b)),
            other => panic!("`{other}` has no two children"),
        }
    }

    #[test]
    fn equal_types_in_one_parse_are_one_node() {
        for src in [
            "((Int * Int) * Int) -> (Int * Int) * Int",
            "Int * Int",
            "a -> a",
            "[Eq (List a)] * [Eq (List a)]",
            "[forall a. {a} => a * a] -> [forall a. {a} => a * a]",
        ] {
            let (l, r) = children(&parse_type(src).unwrap());
            assert!(Rc::ptr_eq(&l, &r), "{src}");
        }
        // Annotations far apart in an expression share too.
        let e = parse_expr("\\x : (Int * Int) * Int. \\y : (Int * Int) * Int. x").unwrap();
        let Expr::Lam(_, x, body) = &e else {
            panic!("{e}")
        };
        let Expr::Lam(_, y, _) = &**body else {
            panic!("{e}")
        };
        let ((x1, x2), (y1, y2)) = (children(x), children(y));
        assert!(Rc::ptr_eq(&x1, &y1) && Rc::ptr_eq(&x2, &y2));
        // Sharing is invisible to equality and printing.
        let unshared = Type::prod(Type::prod(Type::Int, Type::Int), Type::Int);
        assert_eq!(*x, unshared);
        assert_eq!(x.to_string(), unshared.to_string());
        // Two parses share nothing.
        let (a, b) = (
            parse_type("(Int * Int) * Int").unwrap(),
            parse_type("(Int * Int) * Int").unwrap(),
        );
        let ((a1, a2), (b1, b2)) = (children(&a), children(&b));
        assert!(!Rc::ptr_eq(&a1, &b1) && !Rc::ptr_eq(&a2, &b2));
    }

    #[test]
    fn negative_literals_parse_where_an_operand_starts() {
        let int = Expr::Int;
        let f = || Expr::var(Symbol::intern("f"));
        let a = || Expr::var(Symbol::intern("a"));
        let cases = [
            ("35 * -68", Expr::binop(BinOp::Mul, int(35), int(-68))),
            ("f (-51)", Expr::app(f(), int(-51))),
            ("1 - -2", Expr::binop(BinOp::Sub, int(1), int(-2))),
            // After an operand `-` is subtraction.
            ("a -1", Expr::binop(BinOp::Sub, a(), int(1))),
            ("f -1", Expr::binop(BinOp::Sub, f(), int(1))),
            (
                "99 :: -37 :: nil [Int]",
                Expr::Cons(
                    Rc::new(int(99)),
                    Rc::new(Expr::Cons(Rc::new(int(-37)), Rc::new(Expr::Nil(Type::Int)))),
                ),
            ),
        ];
        for (src, expected) in cases {
            let e = parse_expr(src).unwrap();
            assert_eq!(e, expected, "{src}");
            // The printer puts a negative literal where it parses back.
            assert_eq!(parse_expr(&e.to_string()).unwrap(), e, "{src}");
        }
        assert_eq!(Expr::app(f(), int(-51)).to_string(), "f (-51)");
        assert_eq!(
            Expr::binop(BinOp::Mul, int(35), int(-68)).to_string(),
            "35 * -68"
        );
        // `i64::MIN`'s magnitude overflows the lexer's literals.
        assert!(parse_expr(&int(i64::MIN).to_string()).is_err());
    }
}
