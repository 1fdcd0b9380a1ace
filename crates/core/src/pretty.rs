//! Pretty printing (`Display`) for types, rule types and expressions.
//!
//! The output follows the paper's concrete notation, ASCII-fied the
//! way the bundled parser reads it back:
//!
//! * rule types: `forall a b. {rho1, rho2} => tau` (empty quantifiers
//!   and contexts omitted);
//! * queries: `?(rho)`;
//! * rule abstractions: `rule (rho) (e)`;
//! * rule application: `e with {e1 : rho1, ...}`;
//! * type application: `e [tau1, tau2]`.
//!
//! `parse(format!("{e}"))` round-trips for all expressible programs;
//! this is property-tested in the `parse` module.

use std::fmt;

use crate::symbol::base_name;
use crate::syntax::{BinOp, Expr, RuleType, Type, UnOp};

/// Precedence levels for types: arrow < prod < app < atom.
fn type_prec(ty: &Type) -> u8 {
    match ty {
        Type::Rule(_) => 0,
        Type::Arrow(_, _) => 1,
        Type::Prod(_, _) => 2,
        Type::Con(_, args) if !args.is_empty() => 3,
        Type::VarApp(_, _) => 3,
        _ => 4,
    }
}

fn fmt_type(ty: &Type, min_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let prec = type_prec(ty);
    let parens = prec < min_prec;
    if parens {
        f.write_str("(")?;
    }
    match ty {
        Type::Var(v) => write!(f, "{}", base_name(*v))?,
        Type::Int => f.write_str("Int")?,
        Type::Bool => f.write_str("Bool")?,
        Type::Str => f.write_str("String")?,
        Type::Unit => f.write_str("Unit")?,
        Type::Arrow(a, b) => {
            fmt_type(a, 2, f)?;
            f.write_str(" -> ")?;
            fmt_type(b, 1, f)?;
        }
        Type::Prod(a, b) => {
            fmt_type(a, 3, f)?;
            f.write_str(" * ")?;
            fmt_type(b, 3, f)?;
        }
        Type::List(a) => {
            f.write_str("[")?;
            fmt_type(a, 0, f)?;
            f.write_str("]")?;
        }
        Type::Con(name, args) => {
            write!(f, "{name}")?;
            for a in args {
                f.write_str(" ")?;
                fmt_type(a, 4, f)?;
            }
        }
        Type::VarApp(head, args) => {
            write!(f, "{}", base_name(*head))?;
            for a in args {
                f.write_str(" ")?;
                fmt_type(a, 4, f)?;
            }
        }
        Type::Ctor(c) => write!(f, "{c}")?,
        Type::Rule(r) => fmt_rule(r, f)?,
    }
    if parens {
        f.write_str(")")?;
    }
    Ok(())
}

fn fmt_rule(rho: &RuleType, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if !rho.vars().is_empty() {
        f.write_str("forall")?;
        for v in rho.vars() {
            write!(f, " {}", base_name(*v))?;
        }
        f.write_str(". ")?;
    }
    if !rho.context().is_empty() {
        f.write_str("{")?;
        for (i, r) in rho.context().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            fmt_rule(r, f)?;
        }
        f.write_str("} => ")?;
    }
    fmt_type(rho.head(), 1, f)
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_type(self, 0, f)
    }
}

impl fmt::Display for RuleType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_rule(self, f)
    }
}

/// Precedence levels for expressions.
fn expr_prec(e: &Expr) -> u8 {
    match e {
        Expr::Lam(..) | Expr::Fix(..) | Expr::If(..) | Expr::ListCase { .. } => 0,
        Expr::RuleApp(..) => 1,
        Expr::BinOp(op, ..) => match op {
            BinOp::Or => 2,
            BinOp::And => 3,
            BinOp::Eq | BinOp::Lt | BinOp::Le => 4,
            BinOp::Concat => 5,
            BinOp::Add | BinOp::Sub => 6,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 7,
        },
        Expr::Cons(..) => 5,
        Expr::App(..) | Expr::TyApp(..) | Expr::Proj(..) | Expr::UnOp(..) => 8,
        Expr::Inject(..) | Expr::Match(..) => 8,
        // `-1` parses only where an operand starts: `f (-1)`, but
        // `2 * -1`.
        Expr::Int(n) if *n < 0 => 8,
        _ => 9,
    }
}

fn fmt_expr(e: &Expr, min_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let prec = expr_prec(e);
    let parens = prec < min_prec;
    if parens {
        f.write_str("(")?;
    }
    match e {
        Expr::Int(n) => write!(f, "{n}")?,
        Expr::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" })?,
        Expr::Str(s) => write!(f, "{s:?}")?,
        Expr::Unit => f.write_str("unit")?,
        Expr::Var(x) => write!(f, "{}", base_name(*x))?,
        Expr::Lam(x, t, b) => {
            write!(f, "\\{} : ", base_name(*x))?;
            fmt_type(t, 1, f)?;
            f.write_str(". ")?;
            fmt_expr(b, 0, f)?;
        }
        Expr::App(g, a) => {
            fmt_expr(g, 8, f)?;
            f.write_str(" ")?;
            fmt_expr(a, 9, f)?;
        }
        Expr::Query(r) => {
            f.write_str("?(")?;
            fmt_rule(r, f)?;
            f.write_str(")")?;
        }
        Expr::RuleAbs(r, b) => {
            f.write_str("rule (")?;
            fmt_rule(r, f)?;
            f.write_str(") (")?;
            fmt_expr(b, 0, f)?;
            f.write_str(")")?;
        }
        Expr::TyApp(g, ts) => {
            fmt_expr(g, 8, f)?;
            f.write_str(" [")?;
            for (i, t) in ts.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_type(t, 0, f)?;
            }
            f.write_str("]")?;
        }
        Expr::RuleApp(g, args) => {
            fmt_expr(g, 2, f)?;
            f.write_str(" with {")?;
            for (i, (a, r)) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_expr(a, 2, f)?;
                f.write_str(" : ")?;
                fmt_rule(r, f)?;
            }
            f.write_str("}")?;
        }
        Expr::If(c, t, el) => {
            f.write_str("if ")?;
            fmt_expr(c, 1, f)?;
            f.write_str(" then ")?;
            fmt_expr(t, 1, f)?;
            f.write_str(" else ")?;
            fmt_expr(el, 0, f)?;
        }
        Expr::BinOp(op, a, b) => {
            let p = expr_prec(e);
            // All binary operators print left-associatively.
            fmt_expr(a, p, f)?;
            write!(f, " {} ", op.symbol())?;
            fmt_expr(b, p + 1, f)?;
        }
        Expr::UnOp(op, a) => {
            match op {
                UnOp::Not => f.write_str("not ")?,
                UnOp::Neg => f.write_str("neg ")?,
                UnOp::IntToStr => f.write_str("showInt ")?,
            }
            fmt_expr(a, 9, f)?;
        }
        Expr::Pair(a, b) => {
            f.write_str("(")?;
            fmt_expr(a, 0, f)?;
            f.write_str(", ")?;
            fmt_expr(b, 0, f)?;
            f.write_str(")")?;
        }
        Expr::Fst(a) => {
            f.write_str("fst ")?;
            fmt_expr(a, 9, f)?;
        }
        Expr::Snd(a) => {
            f.write_str("snd ")?;
            fmt_expr(a, 9, f)?;
        }
        Expr::Nil(t) => {
            f.write_str("nil [")?;
            fmt_type(t, 0, f)?;
            f.write_str("]")?;
        }
        Expr::Cons(h, t) => {
            fmt_expr(h, 6, f)?;
            f.write_str(" :: ")?;
            fmt_expr(t, 5, f)?;
        }
        Expr::ListCase {
            scrut,
            nil,
            head,
            tail,
            cons,
        } => {
            f.write_str("case ")?;
            fmt_expr(scrut, 1, f)?;
            f.write_str(" of nil -> ")?;
            fmt_expr(nil, 1, f)?;
            write!(f, " | {} :: {} -> ", base_name(*head), base_name(*tail))?;
            fmt_expr(cons, 0, f)?;
        }
        Expr::Fix(x, t, b) => {
            write!(f, "fix {} : ", base_name(*x))?;
            fmt_type(t, 1, f)?;
            f.write_str(". ")?;
            fmt_expr(b, 0, f)?;
        }
        Expr::Make(name, args, fields) => {
            write!(f, "{name}")?;
            if !args.is_empty() {
                f.write_str(" [")?;
                for (i, t) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    fmt_type(t, 0, f)?;
                }
                f.write_str("]")?;
            }
            f.write_str(" { ")?;
            for (i, (u, ev)) in fields.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{u} = ")?;
                fmt_expr(ev, 1, f)?;
            }
            f.write_str(" }")?;
        }
        Expr::Proj(a, u) => {
            fmt_expr(a, 9, f)?;
            write!(f, ".{u}")?;
        }
        Expr::Inject(c, ts, args) => {
            write!(f, "con {c}")?;
            if !ts.is_empty() {
                f.write_str(" [")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    fmt_type(t, 0, f)?;
                }
                f.write_str("]")?;
            }
            f.write_str(" (")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_expr(a, 1, f)?;
            }
            f.write_str(")")?;
        }
        Expr::Match(scrut, arms) => {
            f.write_str("match ")?;
            fmt_expr(scrut, 1, f)?;
            f.write_str(" { ")?;
            for (i, arm) in arms.iter().enumerate() {
                if i > 0 {
                    f.write_str(" | ")?;
                }
                write!(f, "{}", arm.ctor)?;
                for b in &arm.binders {
                    write!(f, " {}", base_name(*b))?;
                }
                f.write_str(" -> ")?;
                fmt_expr(&arm.body, 2, f)?;
            }
            f.write_str(" }")?;
        }
    }
    if parens {
        f.write_str(")")?;
    }
    Ok(())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn tv(s: &str) -> Type {
        Type::var(Symbol::intern(s))
    }

    #[test]
    fn types_print_with_expected_precedence() {
        assert_eq!(
            Type::arrow(Type::Int, Type::Bool).to_string(),
            "Int -> Bool"
        );
        assert_eq!(
            Type::arrow(Type::arrow(Type::Int, Type::Int), Type::Bool).to_string(),
            "(Int -> Int) -> Bool"
        );
        assert_eq!(
            Type::arrow(Type::Int, Type::arrow(Type::Int, Type::Bool)).to_string(),
            "Int -> Int -> Bool"
        );
        assert_eq!(
            Type::prod(Type::Int, Type::prod(Type::Bool, Type::Int)).to_string(),
            "Int * (Bool * Int)"
        );
        assert_eq!(Type::list(Type::Int).to_string(), "[Int]");
    }

    #[test]
    fn rule_types_print_like_the_paper() {
        let a = Symbol::intern("a");
        let rho = RuleType::new(
            vec![a],
            vec![Type::Var(a).promote()],
            Type::prod(Type::Var(a), Type::Var(a)),
        );
        assert_eq!(rho.to_string(), "forall a. {a} => a * a");
        assert_eq!(Type::rule(rho).to_string(), "forall a. {a} => a * a");
        assert_eq!(Type::Int.promote().to_string(), "Int");
    }

    #[test]
    fn rule_type_in_arrow_is_parenthesized() {
        let rho = RuleType::mono(vec![Type::Int.promote()], Type::Bool);
        let t = Type::arrow(Type::rule(rho), Type::Int);
        assert_eq!(t.to_string(), "({Int} => Bool) -> Int");
    }

    #[test]
    fn expressions_print_readably() {
        let e = Expr::binop(BinOp::Add, Expr::query_simple(Type::Int), Expr::Int(1));
        assert_eq!(e.to_string(), "?(Int) + 1");
        let lam = Expr::lam("x", Type::Int, Expr::var("x"));
        assert_eq!(lam.to_string(), "\\x : Int. x");
    }

    #[test]
    fn application_is_left_associative() {
        let e = Expr::app(Expr::app(Expr::var("f"), Expr::var("x")), Expr::var("y"));
        assert_eq!(e.to_string(), "f x y");
        let e2 = Expr::app(Expr::var("f"), Expr::app(Expr::var("g"), Expr::var("x")));
        assert_eq!(e2.to_string(), "f (g x)");
    }

    #[test]
    fn implicit_sugar_prints_as_rule_with() {
        let e = Expr::implicit(
            vec![(Expr::Int(1), Type::Int.promote())],
            Expr::query_simple(Type::Int),
            Type::Int,
        );
        assert_eq!(e.to_string(), "rule ({Int} => Int) (?(Int)) with {1 : Int}");
    }

    #[test]
    fn fresh_binders_print_their_base_name() {
        let a = crate::symbol::fresh("a");
        assert_eq!(tv("a").to_string(), Type::Var(a).to_string());
    }

    #[test]
    fn operator_precedence_parenthesizes_correctly() {
        // (1 + 2) * 3 vs 1 + 2 * 3
        let sum = Expr::binop(BinOp::Add, Expr::Int(1), Expr::Int(2));
        let prod = Expr::binop(BinOp::Mul, sum.clone(), Expr::Int(3));
        assert_eq!(prod.to_string(), "(1 + 2) * 3");
        let prod2 = Expr::binop(BinOp::Mul, Expr::Int(2), Expr::Int(3));
        let sum2 = Expr::binop(BinOp::Add, Expr::Int(1), prod2);
        assert_eq!(sum2.to_string(), "1 + 2 * 3");
    }
}
