//! Parser for the source language's concrete syntax.
//!
//! ```text
//! interface Eq a = { eq : a -> a -> Bool }
//!
//! let eqv : forall a. {Eq a} => a -> a -> Bool = \x. \y. eq ? x y in
//! let eqInt : Eq Int = Eq { eq = \x. \y. x == y } in
//! implicit eqInt in
//! eqv 1 2
//! ```
//!
//! Differences from the core syntax: lambda annotations are optional,
//! `let` takes a *scheme*, `implicit` takes a comma-separated list of
//! in-scope names (braces optional) and **no** body annotation, the
//! query is a bare `?`, records need no explicit type arguments, and
//! `nil` needs no element annotation. Comments run from `--` to end
//! of line.
//!
//! The tokens, the error rules and the nesting bound are the core
//! parser's ([`implicit_core::parse::Cursor`]).

use std::fmt;
use std::rc::Rc;

use implicit_core::parse::{is_base_type, Cursor, ParseError, Tok};
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{Declarations, InterfaceDecl, RuleType, Type, UnOp};

use crate::ast::{scheme, SExpr, SProgram};

/// A parsed `data` declaration before kind inference:
/// (name, parameters, constructors).
type ParsedData = (Symbol, Vec<Symbol>, Vec<(Symbol, Vec<Type>)>);

/// A source-language parse error.
#[derive(Clone, Debug, PartialEq)]
pub struct SrcParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for SrcParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "source parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for SrcParseError {}

impl From<ParseError> for SrcParseError {
    fn from(e: ParseError) -> SrcParseError {
        SrcParseError {
            line: e.line,
            col: e.col,
            message: e.message,
        }
    }
}

fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "forall"
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
            | "match"
            | "letrec"
    )
}

struct Parser<'s> {
    cur: Cursor<'s>,
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

    // ---------- types and schemes ----------

    /// scheme := ['forall' ident+ '.'] ['{' scheme,* '}' '=>'] type
    fn parse_scheme(&mut self) -> Result<RuleType, ParseError> {
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
                context.push(self.parse_scheme()?);
            }
            self.cur.expect(&Tok::FatArrow)?;
        }
        let body = self.parse_type()?;
        self.cur.ascend();
        Ok(scheme(&vars, context, body))
    }

    /// type := prod ('->' type)?
    fn parse_type(&mut self) -> Result<Type, ParseError> {
        self.cur.descend()?;
        let left = self.parse_prod_type()?;
        let t = if self.cur.eat(&Tok::Arrow) {
            let right = self.parse_type()?;
            Type::arrow(left, right)
        } else {
            left
        };
        self.cur.ascend();
        Ok(t)
    }

    fn parse_prod_type(&mut self) -> Result<Type, ParseError> {
        let outer = self.cur.chain_start();
        let mut left = self.parse_app_type()?;
        while *self.cur.peek() == Tok::Star {
            self.cur.chain_step()?;
            self.cur.bump();
            let right = self.parse_app_type()?;
            left = Type::prod(left, right);
        }
        self.cur.chain_end(outer);
        Ok(left)
    }

    fn parse_app_type(&mut self) -> Result<Type, ParseError> {
        match *self.cur.peek() {
            Tok::Upper("List") => {
                self.cur.bump();
                if self.starts_atom_type() {
                    let arg = self.parse_atom_type()?;
                    return Ok(Type::list(arg));
                }
                Ok(Type::Ctor(implicit_core::syntax::TyCon::List))
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
                    Ok(Type::Ctor(implicit_core::syntax::TyCon::List))
                }
                _ => {
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
                Ok(Type::list(t))
            }
            Tok::LParen => {
                self.cur.bump();
                // Allow parenthesized schemes inside types only as
                // plain types; higher-order contexts live in scheme
                // position.
                let t = if self.cur.at_kw("forall") || *self.cur.peek() == Tok::LBrace {
                    Type::rule(self.parse_scheme()?)
                } else {
                    self.parse_type()?
                };
                self.cur.expect(&Tok::RParen)?;
                Ok(t)
            }
            ref other => Err(self.cur.error(format!("expected a type, found `{other}`"))),
        }
    }

    // ---------- expressions ----------

    fn parse_expr(&mut self) -> Result<SExpr, ParseError> {
        self.cur.descend()?;
        let e = match *self.cur.peek() {
            Tok::Lambda => {
                self.cur.bump();
                let x = self.lower_ident()?;
                let ann = if self.cur.eat(&Tok::Colon) {
                    Some(self.parse_type()?)
                } else {
                    None
                };
                self.cur.expect(&Tok::Dot)?;
                let body = self.parse_expr()?;
                SExpr::Lam(x, ann, Rc::new(body))
            }
            Tok::Lower("letrec") => {
                self.cur.bump();
                let name = self.lower_ident()?;
                self.cur.expect(&Tok::Colon)?;
                let sigma = self.parse_scheme()?;
                self.cur.expect(&Tok::Eq)?;
                let rhs = self.parse_expr()?;
                self.cur.expect_kw("in")?;
                let body = self.parse_expr()?;
                SExpr::LetRec {
                    name,
                    scheme: sigma,
                    rhs: Rc::new(rhs),
                    body: Rc::new(body),
                }
            }
            Tok::Lower("match") => {
                self.cur.bump();
                let scrut = self.parse_binary(2)?;
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
                    arms.push(crate::ast::SMatchArm {
                        ctor,
                        binders,
                        body,
                    });
                    if !self.cur.eat(&Tok::Pipe) {
                        break;
                    }
                }
                self.cur.expect(&Tok::RBrace)?;
                SExpr::Match(Rc::new(scrut), arms)
            }
            Tok::Lower("let") => {
                self.cur.bump();
                let name = self.lower_ident()?;
                if self.cur.eat(&Tok::Eq) {
                    // Monomorphic, annotation-free let.
                    let rhs = self.parse_expr()?;
                    self.cur.expect_kw("in")?;
                    let body = self.parse_expr()?;
                    SExpr::LetMono {
                        name,
                        rhs: Rc::new(rhs),
                        body: Rc::new(body),
                    }
                } else {
                    self.cur.expect(&Tok::Colon)?;
                    let sigma = self.parse_scheme()?;
                    self.cur.expect(&Tok::Eq)?;
                    let rhs = self.parse_expr()?;
                    self.cur.expect_kw("in")?;
                    let body = self.parse_expr()?;
                    SExpr::Let {
                        name,
                        scheme: sigma,
                        rhs: Rc::new(rhs),
                        body: Rc::new(body),
                    }
                }
            }
            Tok::Lower("implicit") => {
                self.cur.bump();
                let braced = self.cur.eat(&Tok::LBrace);
                let mut names = vec![self.lower_ident()?];
                while self.cur.eat(&Tok::Comma) {
                    names.push(self.lower_ident()?);
                }
                if braced {
                    self.cur.expect(&Tok::RBrace)?;
                }
                self.cur.expect_kw("in")?;
                let body = self.parse_expr()?;
                SExpr::Implicit(names, Rc::new(body))
            }
            Tok::Lower("if") => {
                self.cur.bump();
                let c = self.parse_binary(2)?;
                self.cur.expect_kw("then")?;
                let t = self.parse_binary(2)?;
                self.cur.expect_kw("else")?;
                let f = self.parse_expr()?;
                SExpr::If(Rc::new(c), Rc::new(t), Rc::new(f))
            }
            Tok::Lower("case") => {
                self.cur.bump();
                let scrut = self.parse_binary(2)?;
                self.cur.expect_kw("of")?;
                self.cur.expect_kw("nil")?;
                self.cur.expect(&Tok::Arrow)?;
                let nil = self.parse_binary(2)?;
                self.cur.expect(&Tok::Pipe)?;
                let h = self.lower_ident()?;
                self.cur.expect(&Tok::ColonColon)?;
                let t = self.lower_ident()?;
                self.cur.expect(&Tok::Arrow)?;
                let cons = self.parse_expr()?;
                SExpr::ListCase {
                    scrut: Rc::new(scrut),
                    nil: Rc::new(nil),
                    head: h,
                    tail: t,
                    cons: Rc::new(cons),
                }
            }
            Tok::Lower("fix") => {
                self.cur.bump();
                let x = self.lower_ident()?;
                self.cur.expect(&Tok::Colon)?;
                let t = self.parse_type()?;
                self.cur.expect(&Tok::Dot)?;
                let body = self.parse_expr()?;
                SExpr::Fix(x, t, Rc::new(body))
            }
            _ => self.parse_binary(2)?,
        };
        self.cur.ascend();
        Ok(e)
    }

    /// Precedence climbing over the core's operator table
    /// ([`Tok::binary_op`]).
    fn parse_binary(&mut self, min_level: u8) -> Result<SExpr, ParseError> {
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
                Some(op) => SExpr::BinOp(op, Rc::new(left), Rc::new(right)),
                None => SExpr::Cons(Rc::new(left), Rc::new(right)),
            };
        }
        self.cur.chain_end(outer);
        Ok(left)
    }

    fn parse_app(&mut self) -> Result<SExpr, ParseError> {
        let prefix: Option<fn(Rc<SExpr>) -> SExpr> = match *self.cur.peek() {
            Tok::Lower("not") => Some(|e| SExpr::UnOp(UnOp::Not, e)),
            Tok::Lower("neg") => Some(|e| SExpr::UnOp(UnOp::Neg, e)),
            Tok::Lower("showInt") => Some(|e| SExpr::UnOp(UnOp::IntToStr, e)),
            Tok::Lower("fst") => Some(SExpr::Fst),
            Tok::Lower("snd") => Some(SExpr::Snd),
            _ => None,
        };
        if let Some(prefix) = prefix {
            self.cur.bump();
            return Ok(prefix(Rc::new(self.parse_atom()?)));
        }
        let outer = self.cur.chain_start();
        let mut e = self.parse_atom()?;
        while self.starts_atom() {
            self.cur.chain_step()?;
            self.cur.descend()?;
            let a = self.parse_atom()?;
            self.cur.ascend();
            e = SExpr::app(e, a);
        }
        self.cur.chain_end(outer);
        Ok(e)
    }

    fn starts_atom(&self) -> bool {
        match *self.cur.peek() {
            Tok::Int(_) | Tok::Str(_) | Tok::LParen | Tok::Question => true,
            Tok::Upper(w) => !is_base_type(w),
            Tok::Lower(w) => !is_keyword(w) || matches!(w, "true" | "false" | "unit" | "nil"),
            _ => false,
        }
    }

    fn parse_atom(&mut self) -> Result<SExpr, ParseError> {
        match *self.cur.peek() {
            Tok::Int(n) => {
                self.cur.bump();
                Ok(SExpr::Int(n))
            }
            Tok::Str(ref s) => {
                let s = s.clone();
                self.cur.bump();
                Ok(SExpr::Str(s))
            }
            Tok::Question => {
                self.cur.bump();
                Ok(SExpr::Query)
            }
            Tok::Lower(w) => match w {
                "true" => {
                    self.cur.bump();
                    Ok(SExpr::Bool(true))
                }
                "false" => {
                    self.cur.bump();
                    Ok(SExpr::Bool(false))
                }
                "unit" => {
                    self.cur.bump();
                    Ok(SExpr::Unit)
                }
                "nil" => {
                    self.cur.bump();
                    Ok(SExpr::Nil)
                }
                _ if !is_keyword(w) => {
                    self.cur.bump();
                    Ok(SExpr::var(Symbol::intern(w)))
                }
                _ => Err(self.cur.error(format!("unexpected keyword `{w}`"))),
            },
            Tok::Upper(w) if !is_base_type(w) => {
                let name = self.upper_ident()?;
                if !self.cur.eat(&Tok::LBrace) {
                    // A data-constructor (or other capitalized
                    // let-bound) reference used as a value.
                    return Ok(SExpr::Var(name));
                }
                let mut fields = Vec::new();
                while self.cur.comma_item(&Tok::RBrace, fields.is_empty())? {
                    let u = self.lower_ident()?;
                    self.cur.expect(&Tok::Eq)?;
                    fields.push((u, self.parse_expr()?));
                }
                Ok(SExpr::Make(name, fields))
            }
            Tok::LParen => {
                self.cur.bump();
                let e = self.parse_expr()?;
                if self.cur.eat(&Tok::Comma) {
                    let e2 = self.parse_expr()?;
                    self.cur.expect(&Tok::RParen)?;
                    Ok(SExpr::Pair(Rc::new(e), Rc::new(e2)))
                } else if self.cur.eat(&Tok::Colon) {
                    let t = self.parse_type()?;
                    self.cur.expect(&Tok::RParen)?;
                    Ok(SExpr::Ann(Rc::new(e), t))
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

/// Runs `f` over the tokens of `src` with the core parser's error
/// rules ([`Cursor::finish`]).
fn run_parser<'s, T>(
    src: &'s str,
    f: impl FnOnce(&mut Parser<'s>) -> Result<T, ParseError>,
) -> Result<T, SrcParseError> {
    let mut p = Parser {
        cur: Cursor::new(src),
    };
    let out = f(&mut p);
    p.cur.finish(out).map_err(SrcParseError::from)
}

/// Parses a source expression.
///
/// # Errors
///
/// Returns a [`SrcParseError`] with position information.
pub fn parse_source_expr(src: &str) -> Result<SExpr, SrcParseError> {
    run_parser(src, Parser::parse_expr)
}

/// Parses a source program (interface declarations + body).
///
/// # Errors
///
/// Returns a [`SrcParseError`] with position information.
pub fn parse_source_program(src: &str) -> Result<SProgram, SrcParseError> {
    run_parser(src, |p| {
        let mut decls = Declarations::new();
        while p.cur.at_kw("interface") || p.cur.at_kw("data") {
            let (line, col) = p.cur.pos();
            let fail = |message: String| ParseError { line, col, message };
            if p.cur.at_kw("interface") {
                let d = p.parse_interface()?;
                decls.declare(d).map_err(fail)?;
            } else {
                let (name, params, ctors) = p.parse_data()?;
                let d =
                    implicit_core::syntax::DataDecl::infer(name, params, ctors).map_err(fail)?;
                decls.declare_data(d).map_err(fail)?;
            }
        }
        let body = p.parse_expr()?;
        Ok(SProgram { decls, body })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_unannotated_lambdas_and_query() {
        let e = parse_source_expr("\\x. \\y. eq ? x y").unwrap();
        match e {
            SExpr::Lam(_, None, _) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_let_with_scheme() {
        let e = parse_source_expr(
            "let eqv : forall a. {Eq a} => a -> a -> Bool = \\x. \\y. eq ? x y in eqv 1 2",
        )
        .unwrap();
        match e {
            SExpr::Let { scheme, .. } => {
                assert_eq!(scheme.vars().len(), 1);
                assert_eq!(scheme.context().len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_implicit_lists() {
        let e = parse_source_expr("implicit a, b in ?").unwrap();
        match e {
            SExpr::Implicit(names, _) => assert_eq!(names.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        let e2 = parse_source_expr("implicit {a, b} in ?").unwrap();
        assert!(matches!(e2, SExpr::Implicit(ns, _) if ns.len() == 2));
    }

    #[test]
    fn parses_interfaces_and_records() {
        let prog = parse_source_program(
            "interface Eq a = { eq : a -> a -> Bool }\n\
             Eq { eq = \\x. \\y. x == y }",
        )
        .unwrap();
        assert!(prog.decls.lookup(Symbol::intern("Eq")).is_some());
        assert!(matches!(prog.body, SExpr::Make(_, _)));
    }

    #[test]
    fn parses_higher_order_scheme_contexts() {
        // §5: o : {Int→String, {Int→String} ⇒ [Int]→String} ⇒ String
        let e = parse_source_expr(
            "let o : {Int -> String, {Int -> String} => [Int] -> String} => String = \
               show (1 :: 2 :: 3 :: nil) in o",
        )
        .unwrap();
        match e {
            SExpr::Let { scheme, .. } => {
                assert_eq!(scheme.context().len(), 2);
                assert!(scheme.context().iter().any(|c| !c.context().is_empty()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_annotation_atoms() {
        let e = parse_source_expr("(? : Int)").unwrap();
        assert!(matches!(e, SExpr::Ann(_, Type::Int)));
    }

    #[test]
    fn rejects_garbage_with_position() {
        let err = parse_source_expr("let x :").unwrap_err();
        assert!(err.to_string().contains("source parse error"));
    }

    #[test]
    fn lexical_errors_are_the_core_lexers() {
        // Positions are where lexing stopped, as in the core parser.
        let cases = [
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
        ];
        for (src, expected) in cases {
            let err = parse_source_program(src).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("source parse error at {expected}"),
                "{src:?}"
            );
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_nesting() {
        use implicit_core::parse::MAX_NESTING;
        // Texts whose nesting is exactly `n` levels, one per shape.
        fn shapes(n: usize) -> Vec<(&'static str, String)> {
            let k = n - 1;
            vec![
                (
                    "parentheses",
                    format!("{}1{}", "(".repeat(k), ")".repeat(k)),
                ),
                ("pairs", format!("{}1{}", "(1, ".repeat(k), ")".repeat(k))),
                ("lambdas", format!("{}x", "\\x. ".repeat(k))),
                ("lets", format!("{}x", "let x = 1 in ".repeat(k))),
                ("sums", vec!["1"; n].join(" + ")),
                ("conses", format!("{}nil", "1 :: ".repeat(k))),
                ("applications", format!("f{}", " 1".repeat(k))),
                (
                    "list types",
                    format!(
                        "let x : {}Int{} = nil in x",
                        "[".repeat(n - 3),
                        "]".repeat(n - 3)
                    ),
                ),
            ]
        }
        // The size of the main thread's stack, where `implicitc` parses.
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(|| {
                for (shape, src) in shapes(MAX_NESTING) {
                    if let Err(e) = parse_source_program(&src) {
                        panic!("{shape} at {MAX_NESTING} levels: {e}");
                    }
                }
                for (shape, src) in shapes(MAX_NESTING + 1) {
                    let err = parse_source_program(&src).unwrap_err();
                    assert_eq!(err.message, "nesting deeper than 1024", "{shape}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
