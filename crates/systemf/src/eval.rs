//! Call-by-value big-step evaluation of System F.
//!
//! The paper defines the dynamic semantics of λ⇒ as elaboration into
//! System F followed by System F's standard call-by-value reduction;
//! this module provides that reduction as an environment-based
//! big-step interpreter (types are erased at runtime — a type
//! abstraction is a value, and type application forces its body).

use std::fmt;
use std::rc::Rc;

use implicit_core::list::List;
use implicit_core::symbol::Symbol;

use crate::syntax::{BinOp, FExpr, UnOp};

/// A runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(Rc<str>),
    /// Unit.
    Unit,
    /// Pair.
    Pair(Rc<Value>, Rc<Value>),
    /// List (strict, persistent: tails are shared).
    List(List<Value>),
    /// Function closure.
    Closure {
        /// Parameter name.
        param: Symbol,
        /// Body.
        body: Rc<FExpr>,
        /// Captured environment.
        env: Env,
    },
    /// Type-abstraction closure (`Λα.E` is a value).
    TyClosure {
        /// Body.
        body: Rc<FExpr>,
        /// Captured environment.
        env: Env,
    },
    /// Record value.
    Record {
        /// Interface name.
        name: Symbol,
        /// Field values.
        fields: Rc<Vec<(Symbol, Value)>>,
    },
    /// Data value (tagged constructor application).
    Data {
        /// Constructor name.
        ctor: Symbol,
        /// Constructor arguments.
        fields: Rc<Vec<Value>>,
    },
    /// A compiled-backend function closure (code index + flat
    /// captures; see [`crate::vm`]).
    CompiledClosure(Rc<crate::vm::VmClosure>),
    /// A compiled-backend type-abstraction thunk (`Λα.E` erased to a
    /// nullary closure so type application still delays evaluation).
    CompiledTyClosure(Rc<crate::vm::VmClosure>),
    /// A compiled-backend `fix` self-reference. Loading it from a
    /// frame slot or capture unfolds the recursion one step; it is
    /// never observable as a program result.
    CompiledRec(Rc<crate::vm::VmClosure>),
}

impl Value {
    /// Structural equality on first-order values (`None` for values
    /// containing closures).
    pub fn try_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a == b),
            (Value::Bool(a), Value::Bool(b)) => Some(a == b),
            (Value::Str(a), Value::Str(b)) => Some(a == b),
            (Value::Unit, Value::Unit) => Some(true),
            (Value::Pair(a1, b1), Value::Pair(a2, b2)) => Some(a1.try_eq(a2)? && b1.try_eq(b2)?),
            (Value::List(xs), Value::List(ys)) => {
                if xs.len() != ys.len() {
                    return Some(false);
                }
                for (x, y) in xs.iter().zip(ys) {
                    if !x.try_eq(y)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            (
                Value::Data {
                    ctor: c1,
                    fields: f1,
                },
                Value::Data {
                    ctor: c2,
                    fields: f2,
                },
            ) => {
                if c1 != c2 || f1.len() != f2.len() {
                    return Some(false);
                }
                for (x, y) in f1.iter().zip(f2.iter()) {
                    if !x.try_eq(y)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            (
                Value::Record {
                    name: n1,
                    fields: f1,
                },
                Value::Record {
                    name: n2,
                    fields: f2,
                },
            ) => {
                if n1 != n2 || f1.len() != f2.len() {
                    return Some(false);
                }
                for ((u1, v1), (u2, v2)) in f1.iter().zip(f2.iter()) {
                    if u1 != u2 {
                        return Some(false);
                    }
                    if !v1.try_eq(v2)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Unit => f.write_str("()"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::List(xs) => {
                f.write_str("[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Value::Closure { .. } | Value::CompiledClosure(_) => f.write_str("<closure>"),
            Value::TyClosure { .. } | Value::CompiledTyClosure(_) => f.write_str("<type-closure>"),
            Value::CompiledRec(_) => f.write_str("<fix>"),
            Value::Record { name, fields } => {
                write!(f, "{name} {{ ")?;
                for (i, (u, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{u} = {v}")?;
                }
                f.write_str(" }")
            }
            Value::Data { ctor, fields } => {
                write!(f, "{ctor}")?;
                for v in fields.iter() {
                    // Parenthesize nested compound values for
                    // readability.
                    match v {
                        Value::Data { fields: inner, .. } if !inner.is_empty() => {
                            write!(f, " ({v})")?
                        }
                        _ => write!(f, " {v}")?,
                    }
                }
                Ok(())
            }
        }
    }
}

/// A persistent evaluation environment (linked list of bindings).
#[derive(Clone, Default, Debug)]
pub struct Env {
    pub(crate) node: Option<Rc<EnvNode>>,
}

#[derive(Debug)]
pub(crate) struct EnvNode {
    pub(crate) name: Symbol,
    pub(crate) value: Binding,
    pub(crate) next: Env,
}

#[derive(Clone, Debug)]
pub(crate) enum Binding {
    Done(Value),
    /// A `fix x:T. e` binding: re-evaluating `e` in `env` (with `x`
    /// bound recursively) unfolds the recursion one step.
    Rec {
        body: Rc<FExpr>,
        env: Env,
    },
}

impl Env {
    /// Iterates the binding spine outward (innermost binding first),
    /// for the artifact serializer.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &Rc<EnvNode>> {
        std::iter::successors(self.node.as_ref(), |n| n.next.node.as_ref())
    }

    /// The spine as `(name, value)` pairs, outermost binding first;
    /// `None` for recursive (`fix`) bindings. Used by the session
    /// artifact layer to recover per-binding prelude values.
    pub fn bindings_outermost_first(&self) -> Vec<(Symbol, Option<Value>)> {
        let mut out: Vec<(Symbol, Option<Value>)> = self
            .nodes()
            .map(|n| {
                let v = match &n.value {
                    Binding::Done(v) => Some(v.clone()),
                    Binding::Rec { .. } => None,
                };
                (n.name, v)
            })
            .collect();
        out.reverse();
        out
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // Environments form long linked spines; drop them
        // iteratively so deep recursion cannot overflow the stack in
        // the destructor.
        let mut cur = self.node.take();
        while let Some(rc) = cur {
            match Rc::try_unwrap(rc) {
                Ok(mut node) => cur = node.next.node.take(),
                Err(_) => break,
            }
        }
    }
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Extends with a value binding.
    pub fn bind(&self, name: Symbol, value: Value) -> Env {
        Env {
            node: Some(Rc::new(EnvNode {
                name,
                value: Binding::Done(value),
                next: self.clone(),
            })),
        }
    }

    /// Extends with a recursive binding: looking `name` up re-creates
    /// this same environment and evaluates `body` in it, unfolding
    /// the recursion one step per lookup (no interior mutability or
    /// reference cycles needed).
    fn bind_rec(&self, name: Symbol, body: Rc<FExpr>) -> Env {
        Env {
            node: Some(Rc::new(EnvNode {
                name,
                value: Binding::Rec {
                    body,
                    env: self.clone(),
                },
                next: self.clone(),
            })),
        }
    }

    fn get(&self, name: Symbol) -> Option<&EnvNode> {
        let mut cur = self;
        while let Some(node) = &cur.node {
            if node.name == name {
                return Some(node);
            }
            cur = &node.next;
        }
        None
    }
}

/// A runtime error (evaluation of well-typed terms only hits these
/// through primitive partiality or resource exhaustion).
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// Unbound variable — indicates an elaboration or typing bug.
    UnboundVar(Symbol),
    /// A non-function was applied — indicates a typing bug.
    NotAFunction(String),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Evaluation exceeded the step budget (diverging `fix`).
    OutOfFuel,
    /// A primitive was applied to a value of the wrong shape —
    /// indicates a typing bug.
    Stuck(String),
    /// Evaluation nested deeper than [`MAX_EVAL_DEPTH`].
    TooDeep,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(x) => write!(f, "unbound variable `{x}` at runtime"),
            EvalError::NotAFunction(v) => write!(f, "cannot apply non-function value {v}"),
            EvalError::DivisionByZero => f.write_str("division by zero"),
            EvalError::OutOfFuel => f.write_str("evaluation exceeded its step budget"),
            EvalError::Stuck(m) => write!(f, "evaluation stuck: {m}"),
            EvalError::TooDeep => {
                write!(f, "evaluation nested deeper than {MAX_EVAL_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// How deeply [`Evaluator::eval_in`] may nest. The evaluator recurses
/// on the host stack once per level, so a deep non-tail recursion in
/// the program would overflow it and abort the process; past this
/// bound evaluation returns [`EvalError::TooDeep`] instead. Sized so
/// that every shape of recursion runs at the bound on the 64 MiB
/// stack of daemon tenants and `--batch` workers (release build).
pub const MAX_EVAL_DEPTH: usize = 75_000;

/// The evaluator, carrying a step budget so that diverging programs
/// return [`EvalError::OutOfFuel`] instead of hanging, and a nesting
/// count bounded by [`MAX_EVAL_DEPTH`].
pub struct Evaluator {
    fuel: u64,
    initial_fuel: u64,
    depth: usize,
}

impl Default for Evaluator {
    fn default() -> Evaluator {
        Evaluator::with_fuel(10_000_000)
    }
}

impl Evaluator {
    /// An evaluator with the default step budget.
    pub fn new() -> Evaluator {
        Evaluator::default()
    }

    /// An evaluator with a custom step budget.
    pub fn with_fuel(fuel: u64) -> Evaluator {
        Evaluator {
            fuel,
            initial_fuel: fuel,
            depth: 0,
        }
    }

    /// Fuel charged so far (evaluation steps performed).
    pub fn fuel_used(&self) -> u64 {
        self.initial_fuel - self.fuel
    }

    /// Evaluates a closed expression.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on primitive failure (division by
    /// zero), fuel exhaustion, or — for ill-typed input only — stuck
    /// states.
    pub fn eval(&mut self, e: &FExpr) -> Result<Value, EvalError> {
        self.eval_in(&Env::new(), e)
    }

    /// Evaluates under an environment.
    ///
    /// # Errors
    ///
    /// See [`Evaluator::eval`].
    pub fn eval_in(&mut self, env: &Env, e: &FExpr) -> Result<Value, EvalError> {
        if self.depth == MAX_EVAL_DEPTH {
            return Err(EvalError::TooDeep);
        }
        self.depth += 1;
        let out = self.step(env, e);
        self.depth -= 1;
        out
    }

    /// One level of [`Evaluator::eval_in`].
    fn step(&mut self, env: &Env, e: &FExpr) -> Result<Value, EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        self.fuel -= 1;
        match e {
            FExpr::Int(n) => Ok(Value::Int(*n)),
            FExpr::Bool(b) => Ok(Value::Bool(*b)),
            FExpr::Str(s) => Ok(Value::Str(Rc::from(s.as_str()))),
            FExpr::Unit => Ok(Value::Unit),
            FExpr::Var(x) => {
                let node = env.get(*x).ok_or(EvalError::UnboundVar(*x))?;
                match &node.value {
                    Binding::Done(v) => Ok(v.clone()),
                    Binding::Rec { body, env: renv } => {
                        // Unfold one step: evaluate the fix body with
                        // the recursive binding visible again.
                        let unfold_env = renv.bind_rec(*x, body.clone());
                        self.eval_in(&unfold_env, body)
                    }
                }
            }
            FExpr::Lam(x, _, b) => Ok(Value::Closure {
                param: *x,
                body: b.clone(),
                env: env.clone(),
            }),
            FExpr::App(f, a) => {
                let vf = self.eval_in(env, f)?;
                let va = self.eval_in(env, a)?;
                self.apply(vf, va)
            }
            FExpr::TyAbs(_, b) => Ok(Value::TyClosure {
                body: b.clone(),
                env: env.clone(),
            }),
            FExpr::TyApp(f, _) => {
                let vf = self.eval_in(env, f)?;
                match vf {
                    Value::TyClosure { body, env } => self.eval_in(&env, &body),
                    other => Err(EvalError::Stuck(format!(
                        "type application of non-type-abstraction {other}"
                    ))),
                }
            }
            FExpr::If(c, t, el) => match self.eval_in(env, c)? {
                Value::Bool(true) => self.eval_in(env, t),
                Value::Bool(false) => self.eval_in(env, el),
                other => Err(EvalError::Stuck(format!("if on non-boolean {other}"))),
            },
            FExpr::BinOp(op, a, b) => {
                let va = self.eval_in(env, a)?;
                let vb = self.eval_in(env, b)?;
                binop(*op, va, vb)
            }
            FExpr::UnOp(op, a) => {
                let va = self.eval_in(env, a)?;
                match (op, va) {
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(-n)),
                    (UnOp::IntToStr, Value::Int(n)) => Ok(Value::Str(Rc::from(n.to_string()))),
                    (op, v) => Err(EvalError::Stuck(format!("{op:?} on {v}"))),
                }
            }
            FExpr::Pair(a, b) => Ok(Value::Pair(
                Rc::new(self.eval_in(env, a)?),
                Rc::new(self.eval_in(env, b)?),
            )),
            // Elimination forms take their payload by move when the
            // scrutinee value is uniquely owned (the common case for
            // freshly built intermediates), falling back to a clone
            // only for shared values.
            FExpr::Fst(a) => match self.eval_in(env, a)? {
                Value::Pair(l, _) => Ok(Rc::try_unwrap(l).unwrap_or_else(|rc| (*rc).clone())),
                other => Err(EvalError::Stuck(format!("fst on {other}"))),
            },
            FExpr::Snd(a) => match self.eval_in(env, a)? {
                Value::Pair(_, r) => Ok(Rc::try_unwrap(r).unwrap_or_else(|rc| (*rc).clone())),
                other => Err(EvalError::Stuck(format!("snd on {other}"))),
            },
            FExpr::Nil(_) => Ok(Value::List(List::new())),
            FExpr::Cons(h, t) => {
                let vh = self.eval_in(env, h)?;
                match self.eval_in(env, t)? {
                    Value::List(xs) => Ok(Value::List(List::cons(vh, xs))),
                    other => Err(EvalError::Stuck(format!("cons onto {other}"))),
                }
            }
            FExpr::ListCase {
                scrut,
                nil,
                head,
                tail,
                cons,
            } => match self.eval_in(env, scrut)? {
                Value::List(xs) => match xs.split_first() {
                    Some((h, rest)) => {
                        let env2 = env.bind(*head, h.clone()).bind(*tail, Value::List(rest));
                        self.eval_in(&env2, cons)
                    }
                    None => self.eval_in(env, nil),
                },
                other => Err(EvalError::Stuck(format!("case on {other}"))),
            },
            FExpr::Fix(x, _, b) => {
                let env2 = env.bind_rec(*x, b.clone());
                self.eval_in(&env2, b)
            }
            FExpr::Make(name, _, fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (u, fe) in fields {
                    out.push((*u, self.eval_in(env, fe)?));
                }
                Ok(Value::Record {
                    name: *name,
                    fields: Rc::new(out),
                })
            }
            FExpr::Inject(ctor, _, args) => {
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.eval_in(env, a)?);
                }
                Ok(Value::Data {
                    ctor: *ctor,
                    fields: Rc::new(out),
                })
            }
            FExpr::Match(scrut, arms) => match self.eval_in(env, scrut)? {
                Value::Data { ctor, fields } => {
                    let Some(arm) = arms.iter().find(|a| a.ctor == ctor) else {
                        return Err(EvalError::Stuck(format!("no arm for `{ctor}`")));
                    };
                    if arm.binders.len() != fields.len() {
                        return Err(EvalError::Stuck(format!(
                            "arm `{ctor}` binder count mismatch"
                        )));
                    }
                    let mut env2 = env.clone();
                    match Rc::try_unwrap(fields) {
                        Ok(owned) => {
                            for (b, v) in arm.binders.iter().zip(owned) {
                                env2 = env2.bind(*b, v);
                            }
                        }
                        Err(shared) => {
                            for (b, v) in arm.binders.iter().zip(shared.iter()) {
                                env2 = env2.bind(*b, v.clone());
                            }
                        }
                    }
                    self.eval_in(&env2, &arm.body)
                }
                other => Err(EvalError::Stuck(format!("match on {other}"))),
            },
            FExpr::Proj(rec, field) => match self.eval_in(env, rec)? {
                Value::Record { name, fields } => {
                    let Some(pos) = fields.iter().position(|(u, _)| u == field) else {
                        return Err(EvalError::Stuck(format!(
                            "record {name} has no field {field}"
                        )));
                    };
                    Ok(match Rc::try_unwrap(fields) {
                        Ok(mut owned) => owned.swap_remove(pos).1,
                        Err(shared) => shared[pos].1.clone(),
                    })
                }
                other => Err(EvalError::Stuck(format!("projection on {other}"))),
            },
        }
    }

    /// Applies a function value.
    ///
    /// # Errors
    ///
    /// See [`Evaluator::eval`].
    pub fn apply(&mut self, f: Value, a: Value) -> Result<Value, EvalError> {
        match f {
            Value::Closure { param, body, env } => {
                let env2 = env.bind(param, a);
                self.eval_in(&env2, &body)
            }
            other => Err(EvalError::NotAFunction(other.to_string())),
        }
    }
}

pub(crate) fn binop(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match (op, &a, &b) {
        (Add, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_add(*y))),
        (Sub, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_sub(*y))),
        (Mul, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_mul(*y))),
        (Div, Value::Int(_), Value::Int(0)) | (Mod, Value::Int(_), Value::Int(0)) => {
            Err(EvalError::DivisionByZero)
        }
        (Div, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_div(*y))),
        (Mod, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_rem(*y))),
        (Lt, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x < y)),
        (Le, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x <= y)),
        (And, Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(*x && *y)),
        (Or, Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(*x || *y)),
        (Concat, Value::Str(x), Value::Str(y)) => {
            Ok(Value::Str(Rc::from(format!("{x}{y}").as_str())))
        }
        (Eq, a, b) => a
            .try_eq(b)
            .map(Value::Bool)
            .ok_or_else(|| EvalError::Stuck("equality on closures".into())),
        (op, a, b) => Err(EvalError::Stuck(format!("{op:?} on {a} and {b}"))),
    }
}

/// Convenience: evaluate a closed expression with default fuel.
///
/// # Errors
///
/// See [`Evaluator::eval`].
pub fn eval(e: &FExpr) -> Result<Value, EvalError> {
    Evaluator::new().eval(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::FType;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn literals_and_arithmetic() {
        let e = FExpr::BinOp(
            BinOp::Add,
            Rc::new(FExpr::Int(40)),
            Rc::new(FExpr::BinOp(
                BinOp::Mul,
                Rc::new(FExpr::Int(1)),
                Rc::new(FExpr::Int(2)),
            )),
        );
        assert!(matches!(eval(&e).unwrap(), Value::Int(42)));
    }

    #[test]
    fn beta_reduction() {
        let e = FExpr::app(
            FExpr::lam(
                "x",
                FType::Int,
                FExpr::BinOp(BinOp::Add, Rc::new(FExpr::var("x")), Rc::new(FExpr::Int(1))),
            ),
            FExpr::Int(41),
        );
        assert!(matches!(eval(&e).unwrap(), Value::Int(42)));
    }

    #[test]
    fn type_application_forces_body() {
        let a = v("a");
        let id = FExpr::ty_abs([a], FExpr::lam("x", FType::Var(a), FExpr::var("x")));
        let e = FExpr::app(FExpr::TyApp(Rc::new(id), FType::Int), FExpr::Int(7));
        assert!(matches!(eval(&e).unwrap(), Value::Int(7)));
    }

    #[test]
    fn factorial_via_fix() {
        let fac_ty = FType::arrow(FType::Int, FType::Int);
        let fac = FExpr::Fix(
            v("fac"),
            fac_ty,
            Rc::new(FExpr::lam(
                "n",
                FType::Int,
                FExpr::If(
                    Rc::new(FExpr::BinOp(
                        BinOp::Le,
                        Rc::new(FExpr::var("n")),
                        Rc::new(FExpr::Int(0)),
                    )),
                    Rc::new(FExpr::Int(1)),
                    Rc::new(FExpr::BinOp(
                        BinOp::Mul,
                        Rc::new(FExpr::var("n")),
                        Rc::new(FExpr::app(
                            FExpr::var("fac"),
                            FExpr::BinOp(
                                BinOp::Sub,
                                Rc::new(FExpr::var("n")),
                                Rc::new(FExpr::Int(1)),
                            ),
                        )),
                    )),
                ),
            )),
        );
        let e = FExpr::app(fac, FExpr::Int(6));
        assert!(matches!(eval(&e).unwrap(), Value::Int(720)));
    }

    /// `(fix f. λn. if n <= 0 then 0 else 1 + f (n - 1)) n` inside
    /// `wrappers` additions `0 + (…)`: evaluation nests 3n + 4 levels
    /// deep, plus one per wrapper.
    fn deep_sum(n: usize, wrappers: usize) -> FExpr {
        let int = |k: i64| Rc::new(FExpr::Int(k));
        let body = FExpr::If(
            Rc::new(FExpr::BinOp(BinOp::Le, Rc::new(FExpr::var("n")), int(0))),
            int(0),
            Rc::new(FExpr::BinOp(
                BinOp::Add,
                int(1),
                Rc::new(FExpr::app(
                    FExpr::var("f"),
                    FExpr::BinOp(BinOp::Sub, Rc::new(FExpr::var("n")), int(1)),
                )),
            )),
        );
        let f = FExpr::Fix(
            v("f"),
            FType::arrow(FType::Int, FType::Int),
            Rc::new(FExpr::lam("n", FType::Int, body)),
        );
        let mut e = FExpr::app(f, FExpr::Int(n as i64));
        for _ in 0..wrappers {
            e = FExpr::BinOp(BinOp::Add, int(0), Rc::new(e));
        }
        e
    }

    #[test]
    fn nesting_is_bounded_at_max_eval_depth() {
        let (n, w) = ((MAX_EVAL_DEPTH - 4) / 3, (MAX_EVAL_DEPTH - 4) % 3);
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                let at = eval(&deep_sum(n, w)).unwrap();
                assert_eq!(at.to_string(), n.to_string());
                let past = eval(&deep_sum(n, w + 1)).unwrap_err();
                assert_eq!(past, EvalError::TooDeep);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn divergence_runs_out_of_fuel() {
        let loop_ty = FType::arrow(FType::Int, FType::Int);
        let looping = FExpr::Fix(
            v("loop"),
            loop_ty,
            Rc::new(FExpr::lam(
                "n",
                FType::Int,
                FExpr::app(FExpr::var("loop"), FExpr::var("n")),
            )),
        );
        let e = FExpr::app(looping, FExpr::Int(0));
        let mut ev = Evaluator::with_fuel(500);
        assert_eq!(ev.eval(&e).unwrap_err(), EvalError::OutOfFuel);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = FExpr::BinOp(BinOp::Div, Rc::new(FExpr::Int(1)), Rc::new(FExpr::Int(0)));
        assert_eq!(eval(&e).unwrap_err(), EvalError::DivisionByZero);
    }

    #[test]
    fn lists_and_case() {
        let xs = FExpr::Cons(
            Rc::new(FExpr::Int(1)),
            Rc::new(FExpr::Cons(
                Rc::new(FExpr::Int(2)),
                Rc::new(FExpr::Nil(FType::Int)),
            )),
        );
        let e = FExpr::ListCase {
            scrut: Rc::new(xs),
            nil: Rc::new(FExpr::Int(0)),
            head: v("h"),
            tail: v("t"),
            cons: Rc::new(FExpr::var("h")),
        };
        assert!(matches!(eval(&e).unwrap(), Value::Int(1)));
    }

    #[test]
    fn records_project() {
        let lit = FExpr::Make(
            v("P"),
            vec![],
            vec![(v("x"), FExpr::Int(3)), (v("y"), FExpr::Int(4))],
        );
        let e = FExpr::Proj(Rc::new(lit), v("y"));
        assert!(matches!(eval(&e).unwrap(), Value::Int(4)));
    }

    #[test]
    fn string_operations() {
        let e = FExpr::BinOp(
            BinOp::Concat,
            Rc::new(FExpr::Str("1,".into())),
            Rc::new(FExpr::UnOp(UnOp::IntToStr, Rc::new(FExpr::Int(23)))),
        );
        match eval(&e).unwrap() {
            Value::Str(s) => assert_eq!(&*s, "1,23"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn value_equality_on_pairs_and_lists() {
        let a = Value::Pair(Rc::new(Value::Int(1)), Rc::new(Value::Bool(true)));
        let b = Value::Pair(Rc::new(Value::Int(1)), Rc::new(Value::Bool(true)));
        assert_eq!(a.try_eq(&b), Some(true));
        let c = Value::List([Value::Int(1)].into_iter().collect());
        let d = Value::List([Value::Int(2)].into_iter().collect());
        assert_eq!(c.try_eq(&d), Some(false));
    }

    #[test]
    fn a_value_is_three_words() {
        // A list is two words, so a value holding one is no wider than
        // a pair of `Rc`s and its tag.
        assert_eq!(
            std::mem::size_of::<Value>(),
            3 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn mutual_shadowing_in_env() {
        // (\x. (\x. x) 2) 1 = 2
        let inner = FExpr::app(FExpr::lam("x", FType::Int, FExpr::var("x")), FExpr::Int(2));
        let e = FExpr::app(FExpr::lam("x", FType::Int, inner), FExpr::Int(1));
        assert!(matches!(eval(&e).unwrap(), Value::Int(2)));
    }
}
