//! Runtime values and environments of the direct operational
//! semantics.
//!
//! Following the extended report, the distinctive values are *rule
//! closures* `⟨ρ, e, Σ, η⟩`: a rule type, a body, the captured
//! environments, and a **partially resolved context** η — evidence
//! for premises that a higher-order query already discharged. The
//! host fragment adds the usual first-order values and function
//! closures.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use implicit_core::list::List;
use implicit_core::subst::TySubst;
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{Expr, RuleType};

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
    Closure(Rc<Closure>),
    /// Rule closure `⟨ρ, e, Σ, η⟩`.
    Rule(Rc<RuleClosure>),
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
}

/// A function closure.
#[derive(Clone, Debug)]
pub struct Closure {
    /// Parameter.
    pub param: Symbol,
    /// Body.
    pub body: Rc<Expr>,
    /// Captured term environment.
    pub venv: VarEnv,
    /// Captured implicit environment.
    pub ienv: ImplStack,
}

/// A rule closure `⟨ρ, e, Σ, η⟩`.
#[derive(Clone, Debug)]
pub struct RuleClosure {
    /// The closure's rule type ρ.
    pub rty: RuleType,
    /// The rule body e.
    pub body: Rc<Expr>,
    /// Captured term environment.
    pub venv: VarEnv,
    /// Captured implicit environment Σ.
    pub ienv: ImplStack,
    /// The partially resolved context η: evidence for premises
    /// already discharged by higher-order resolution.
    pub partial: Vec<(RuleType, Value)>,
}

impl Value {
    /// Structural equality on first-order values; `None` when a
    /// closure is encountered.
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
                    if u1 != u2 || !v1.try_eq(v2)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            _ => None,
        }
    }

    /// Applies a type substitution to a value (Appendix
    /// "Substitutions" extends substitution to closures and
    /// environments).
    pub fn subst(&self, theta: &TySubst) -> Value {
        Subst::new(theta).value(self)
    }
}

impl RuleClosure {
    /// Applies a type substitution, capture-avoidingly with respect
    /// to the closure's own quantifiers (the appendix substitutes
    /// into `⟨ρ, e, Σ, η⟩` only when the substituted variable is not
    /// among ρ's binders).
    pub fn subst(&self, theta: &TySubst) -> RuleClosure {
        Subst::new(theta).rule_closure(self)
    }
}

/// A frame of the implicit stack.
type Frame = Rc<Vec<(RuleType, Value)>>;

/// One type-substitution pass over a value graph.
///
/// Closures, implicit-stack frames and term-environment nodes are
/// shared `Rc`s: every rule closure in a prelude frame captures the
/// frames below it, so the graph of an `n`-frame stack is a DAG whose
/// unfolding as a tree has `2ⁿ` closures. The pass substitutes each
/// shared node once, memoised by address, and shares its image in the
/// result — the same value as substituting pointwise, in time linear
/// in the graph. Addresses stay unique for the whole pass because the
/// input graph is borrowed, hence alive, until the pass ends.
pub(crate) struct Subst<'t> {
    theta: &'t TySubst,
    frames: HashMap<*const Vec<(RuleType, Value)>, Frame>,
    rules: HashMap<*const RuleClosure, Rc<RuleClosure>>,
    closures: HashMap<*const Closure, Rc<Closure>>,
    venvs: HashMap<*const VarNode, VarEnv>,
}

impl<'t> Subst<'t> {
    /// A pass applying `theta`.
    pub(crate) fn new(theta: &'t TySubst) -> Subst<'t> {
        Subst {
            theta,
            frames: HashMap::new(),
            rules: HashMap::new(),
            closures: HashMap::new(),
            venvs: HashMap::new(),
        }
    }

    /// Substitutes into a value.
    fn value(&mut self, v: &Value) -> Value {
        if self.theta.is_empty() {
            return v.clone();
        }
        match v {
            Value::Int(_) | Value::Bool(_) | Value::Str(_) | Value::Unit => v.clone(),
            Value::Pair(a, b) => Value::Pair(Rc::new(self.value(a)), Rc::new(self.value(b))),
            Value::List(xs) => Value::List(xs.iter().map(|v| self.value(v)).collect()),
            Value::Closure(c) => Value::Closure(self.closure(c)),
            Value::Rule(rc) => Value::Rule(self.rule(rc)),
            Value::Record { name, fields } => Value::Record {
                name: *name,
                fields: Rc::new(fields.iter().map(|(u, v)| (*u, self.value(v))).collect()),
            },
            Value::Data { ctor, fields } => Value::Data {
                ctor: *ctor,
                fields: Rc::new(fields.iter().map(|v| self.value(v)).collect()),
            },
        }
    }

    fn closure(&mut self, c: &Rc<Closure>) -> Rc<Closure> {
        if let Some(done) = self.closures.get(&Rc::as_ptr(c)) {
            return done.clone();
        }
        let out = Rc::new(Closure {
            param: c.param,
            body: Rc::new(self.theta.apply_expr(&c.body)),
            venv: self.venv(&c.venv),
            ienv: self.stack(&c.ienv),
        });
        self.closures.insert(Rc::as_ptr(c), out.clone());
        out
    }

    fn rule(&mut self, rc: &Rc<RuleClosure>) -> Rc<RuleClosure> {
        if let Some(done) = self.rules.get(&Rc::as_ptr(rc)) {
            return done.clone();
        }
        let out = Rc::new(self.rule_closure(rc));
        self.rules.insert(Rc::as_ptr(rc), out.clone());
        out
    }

    /// Substitutes into a rule closure, capture-avoidingly with
    /// respect to its own quantifiers (see [`RuleClosure::subst`]).
    fn rule_closure(&mut self, rc: &RuleClosure) -> RuleClosure {
        // Reuse the capture-avoiding RuleAbs case of expression
        // substitution for the (rty, body) pair.
        let packed = Expr::RuleAbs(Rc::new(rc.rty.clone()), rc.body.clone());
        let (rty, body) = match self.theta.apply_expr(&packed) {
            Expr::RuleAbs(r, b) => ((*r).clone(), b),
            _ => unreachable!("substitution preserves constructors"),
        };
        RuleClosure {
            rty,
            body,
            venv: self.venv(&rc.venv),
            ienv: self.stack(&rc.ienv),
            partial: self.partial(&rc.partial),
        }
    }

    /// Substitutes into a partially resolved context η.
    pub(crate) fn partial(&mut self, eta: &[(RuleType, Value)]) -> Vec<(RuleType, Value)> {
        eta.iter()
            .map(|(r, v)| (self.theta.apply_rule(r), self.value(v)))
            .collect()
    }

    /// Substitutes into every frame of an implicit stack.
    pub(crate) fn stack(&mut self, stack: &ImplStack) -> ImplStack {
        if self.theta.is_empty() {
            return stack.clone();
        }
        ImplStack {
            frames: stack.frames.iter().map(|f| self.frame(f)).collect(),
        }
    }

    fn frame(&mut self, f: &Frame) -> Frame {
        if let Some(done) = self.frames.get(&Rc::as_ptr(f)) {
            return done.clone();
        }
        let out = Rc::new(self.partial(f));
        self.frames.insert(Rc::as_ptr(f), out.clone());
        out
    }

    /// Substitutes into a term environment pointwise, keeping the
    /// spine below the innermost already-substituted node shared.
    pub(crate) fn venv(&mut self, env: &VarEnv) -> VarEnv {
        if self.theta.is_empty() {
            return env.clone();
        }
        // Walk from the innermost binding outwards to the first node
        // this pass has seen (or the end), then rebuild inwards:
        // iterative, since spines can be as long as a program's `let`
        // chain.
        let mut pending: Vec<&Rc<VarNode>> = Vec::new();
        let mut out = VarEnv::new();
        for node in env.nodes() {
            if let Some(done) = self.venvs.get(&Rc::as_ptr(node)) {
                out = done.clone();
                break;
            }
            pending.push(node);
        }
        for node in pending.into_iter().rev() {
            out = match &node.value {
                VarBinding::Done(v) => out.bind(node.name, self.value(v)),
                VarBinding::Rec { body, ienv, .. } => out.bind_rec(
                    node.name,
                    Rc::new(self.theta.apply_expr(body)),
                    self.stack(ienv),
                ),
            };
            self.venvs.insert(Rc::as_ptr(node), out.clone());
        }
        out
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
            Value::Closure(_) => f.write_str("<closure>"),
            Value::Rule(rc) => write!(f, "<rule-closure : {}>", rc.rty),
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

/// A persistent term-variable environment.
#[derive(Clone, Default, Debug)]
pub struct VarEnv {
    pub(crate) node: Option<Rc<VarNode>>,
}

#[derive(Debug)]
pub(crate) struct VarNode {
    pub(crate) name: Symbol,
    pub(crate) value: VarBinding,
    pub(crate) next: VarEnv,
}

#[derive(Clone, Debug)]
pub(crate) enum VarBinding {
    Done(Value),
    Rec {
        body: Rc<Expr>,
        ienv: ImplStack,
        next_is_env: VarEnv,
    },
}

impl Drop for VarEnv {
    fn drop(&mut self) {
        let mut cur = self.node.take();
        while let Some(rc) = cur {
            match Rc::try_unwrap(rc) {
                Ok(mut node) => cur = node.next.node.take(),
                Err(_) => break,
            }
        }
    }
}

impl VarEnv {
    /// Empty environment.
    pub fn new() -> VarEnv {
        VarEnv::default()
    }

    /// Iterates the binding spine outward (innermost binding first),
    /// for the artifact serializer.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &Rc<VarNode>> {
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
                    VarBinding::Done(v) => Some(v.clone()),
                    VarBinding::Rec { .. } => None,
                };
                (n.name, v)
            })
            .collect();
        out.reverse();
        out
    }

    /// Extends with a value binding.
    pub fn bind(&self, name: Symbol, value: Value) -> VarEnv {
        VarEnv {
            node: Some(Rc::new(VarNode {
                name,
                value: VarBinding::Done(value),
                next: self.clone(),
            })),
        }
    }

    /// Extends with a `fix` binding; each lookup unfolds one step.
    pub fn bind_rec(&self, name: Symbol, body: Rc<Expr>, ienv: ImplStack) -> VarEnv {
        VarEnv {
            node: Some(Rc::new(VarNode {
                name,
                value: VarBinding::Rec {
                    body,
                    ienv,
                    next_is_env: self.clone(),
                },
                next: self.clone(),
            })),
        }
    }

    /// Looks a variable up; recursive bindings are reported as
    /// [`Lookup::Rec`] for the interpreter to unfold.
    pub fn get(&self, name: Symbol) -> Option<Lookup> {
        let mut cur = self;
        while let Some(node) = &cur.node {
            if node.name == name {
                return Some(match &node.value {
                    VarBinding::Done(v) => Lookup::Done(v.clone()),
                    VarBinding::Rec {
                        body,
                        ienv,
                        next_is_env,
                    } => Lookup::Rec {
                        body: body.clone(),
                        ienv: ienv.clone(),
                        env: next_is_env.clone(),
                    },
                });
            }
            cur = &node.next;
        }
        None
    }
}

/// Result of a variable lookup.
pub enum Lookup {
    /// An ordinary value.
    Done(Value),
    /// A recursive binding to unfold: evaluate `body` under `env`
    /// extended with the same recursive binding, and `ienv`.
    Rec {
        /// The `fix` body.
        body: Rc<Expr>,
        /// Implicit environment at the `fix`.
        ienv: ImplStack,
        /// Term environment beneath the recursive binding.
        env: VarEnv,
    },
}

/// The implicit environment Σ: a stack of rule sets
/// `η = {ρ₁:v₁, …}` (innermost last).
#[derive(Clone, Default, Debug)]
pub struct ImplStack {
    pub(crate) frames: Vec<Rc<Vec<(RuleType, Value)>>>,
}

impl ImplStack {
    /// Empty stack.
    pub fn new() -> ImplStack {
        ImplStack::default()
    }

    /// Pushes a rule set as the nearest frame, returning the extended
    /// stack.
    pub fn pushed(&self, frame: Vec<(RuleType, Value)>) -> ImplStack {
        let mut out = self.clone();
        out.frames.push(Rc::new(frame));
        out
    }

    /// Iterates frames innermost-first.
    pub fn frames_innermost_first(&self) -> impl Iterator<Item = &Rc<Vec<(RuleType, Value)>>> {
        self.frames.iter().rev()
    }

    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The stack restricted to its `n` outermost frames (used when
    /// re-keying imported memo entries against a rebuilt prelude
    /// stack).
    pub fn truncated(&self, n: usize) -> ImplStack {
        ImplStack {
            frames: self.frames[..n.min(self.frames.len())].to_vec(),
        }
    }

    /// Pointwise substitution.
    pub fn subst(&self, theta: &TySubst) -> ImplStack {
        Subst::new(theta).stack(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use implicit_core::syntax::Type;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn var_env_shadowing() {
        let env = VarEnv::new()
            .bind(v("x"), Value::Int(1))
            .bind(v("x"), Value::Int(2));
        match env.get(v("x")) {
            Some(Lookup::Done(Value::Int(2))) => {}
            _ => panic!("expected shadowed binding"),
        }
        assert!(env.get(v("nope")).is_none());
    }

    #[test]
    fn value_substitution_reaches_rule_closures() {
        let a = v("subst_a");
        let rc = RuleClosure {
            rty: Type::var(a).promote(),
            body: Rc::new(Expr::query_simple(Type::var(a))),
            venv: VarEnv::new(),
            ienv: ImplStack::new(),
            partial: vec![],
        };
        let theta = TySubst::single(a, Type::Int);
        let out = rc.subst(&theta);
        assert_eq!(out.rty.head(), &Type::Int);
        assert_eq!(*out.body, Expr::query_simple(Type::Int));
    }

    #[test]
    fn closure_quantifiers_are_respected_by_substitution() {
        // ⟨∀a. {} ⇒ a → a, …⟩ under [a ↦ Int] must keep its binder.
        let a = v("subst_b");
        let rty = implicit_core::syntax::RuleType::new(
            vec![a],
            vec![],
            Type::arrow(Type::var(a), Type::var(a)),
        );
        let rc = RuleClosure {
            rty: rty.clone(),
            body: Rc::new(Expr::lam("x", Type::var(a), Expr::var("x"))),
            venv: VarEnv::new(),
            ienv: ImplStack::new(),
            partial: vec![],
        };
        let theta = TySubst::single(a, Type::Int);
        let out = rc.subst(&theta);
        assert!(implicit_core::alpha::alpha_eq(&out.rty, &rty));
    }

    #[test]
    fn substitution_keeps_shared_frames_shared() {
        // A chain stack: the rule closure in frame k captures frames
        // 0..k, as a prelude's nested `implicit` scopes build it.
        // Pointwise substitution would visit 2⁴⁰ closures here.
        let a = v("subst_chain");
        let mut stack = ImplStack::new();
        for k in 0..40 {
            let rc = RuleClosure {
                rty: Type::prod(Type::var(a), Type::Int).promote(),
                body: Rc::new(Expr::Int(k)),
                venv: VarEnv::new(),
                ienv: stack.clone(),
                partial: vec![],
            };
            stack = stack.pushed(vec![(rc.rty.clone(), Value::Rule(Rc::new(rc)))]);
        }
        let out = stack.subst(&TySubst::single(a, Type::Str));
        for (k, frame) in out.frames.iter().enumerate() {
            let Value::Rule(rc) = &frame[0].1 else {
                panic!("frame {k} holds a rule closure");
            };
            assert_eq!(rc.rty.head(), &Type::prod(Type::Str, Type::Int));
            assert_eq!(rc.ienv.depth(), k);
            for (inner, outer) in rc.ienv.frames.iter().zip(&out.frames) {
                assert!(
                    Rc::ptr_eq(inner, outer),
                    "frame {k} captures the substituted frames"
                );
            }
        }
    }

    #[test]
    fn try_eq_distinguishes_first_order_values() {
        let p1 = Value::Pair(Rc::new(Value::Int(1)), Rc::new(Value::Bool(false)));
        let p2 = Value::Pair(Rc::new(Value::Int(1)), Rc::new(Value::Bool(false)));
        let p3 = Value::Pair(Rc::new(Value::Int(2)), Rc::new(Value::Bool(false)));
        assert_eq!(p1.try_eq(&p2), Some(true));
        assert_eq!(p1.try_eq(&p3), Some(false));
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
    fn display_shows_rule_closure_types() {
        let rc = RuleClosure {
            rty: implicit_core::syntax::RuleType::mono(vec![Type::Int.promote()], Type::Int),
            body: Rc::new(Expr::Int(1)),
            venv: VarEnv::new(),
            ienv: ImplStack::new(),
            partial: vec![],
        };
        assert_eq!(
            Value::Rule(Rc::new(rc)).to_string(),
            "<rule-closure : {Int} => Int>"
        );
    }
}
