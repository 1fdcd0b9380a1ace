//! Abstract syntax of the implicit calculus λ⇒.
//!
//! The grammar follows §3.1 of the paper:
//!
//! ```text
//! Types       τ ::= α | Int | τ₁ → τ₂ | ρ                (+ host types)
//! Rule types  ρ ::= ∀ᾱ. π ⇒ τ
//! Contexts    π ::= {ρ₁, …, ρₙ}
//! Expressions e ::= n | x | λx:τ.e | e₁ e₂
//!                 | ?ρ | rule(ρ)(e) | e[τ̄] | e with {ē:ρ̄}
//! ```
//!
//! plus the "additional syntax" the paper assumes for examples
//! (booleans, strings, pairs, lists, `if`, primitive operators,
//! general recursion, and the nominal record/interface types used by
//! the source-language encoding of §5).
//!
//! # Representation invariants
//!
//! * [`Type::Rule`] never wraps a *trivial* rule type (no quantifiers
//!   and an empty context): the paper identifies `∀∅.{} ⇒ τ` with `τ`
//!   itself. Use [`RuleType::to_type`] / [`Type::promote`] to convert.
//! * A [`RuleType`] context is stored sorted by α-canonical key and
//!   deduplicated, so contexts behave as the sets the paper intends
//!   and elaboration is deterministic ("we assume that the types in a
//!   context are lexicographically ordered").

use std::collections::BTreeSet;
use std::rc::Rc;

use crate::symbol::Symbol;

/// A type variable.
pub type TyVar = Symbol;

/// A λ⇒ type τ.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// A type variable `α`.
    Var(TyVar),
    /// The integer type.
    Int,
    /// The boolean type.
    Bool,
    /// The string type.
    Str,
    /// The unit type.
    Unit,
    /// A function type `τ₁ → τ₂`.
    Arrow(Rc<Type>, Rc<Type>),
    /// A product type `τ₁ × τ₂`.
    Prod(Rc<Type>, Rc<Type>),
    /// A list type `[τ]`.
    List(Rc<Type>),
    /// A nominal interface/record type `I τ̄` (see [`InterfaceDecl`]).
    Con(Symbol, Vec<Type>),
    /// An *applied type variable* `f τ̄` — the type-constructor
    /// polymorphism extension of §5.2 ("basically, we need to add a
    /// kind system and move to System F_ω"). The head variable has
    /// kind `* → … → *` (Haskell-98 style: all arguments are proper
    /// types) and can be instantiated with a [`TyCon`].
    ///
    /// Invariant: the argument list is non-empty; build with
    /// [`Type::var_app`].
    VarApp(TyVar, Vec<Type>),
    /// A reference to a type *constructor* (kind `* → … → *`). This
    /// is not a proper type: it may appear only as an instantiation
    /// argument for an arrow-kinded quantifier (`e[List]`) or as a
    /// substitution image; the well-formedness check rejects it in
    /// type position.
    Ctor(TyCon),
    /// A rule type `∀ᾱ. π ⇒ τ`.
    ///
    /// Invariant: the wrapped rule type is not trivial; build with
    /// [`Type::rule`].
    Rule(Rc<RuleType>),
}

/// A first-class type constructor (the possible instantiations of an
/// arrow-kinded type variable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TyCon {
    /// The built-in list constructor (arity 1).
    List,
    /// A declared interface constructor (arity = its parameter
    /// count).
    Named(Symbol),
}

impl TyCon {
    /// The constructor's arity, consulting `decls` for named
    /// interfaces. `None` when the interface is undeclared.
    pub fn arity(&self, decls: &Declarations) -> Option<usize> {
        match self {
            TyCon::List => Some(1),
            TyCon::Named(n) => decls.con_arity(*n),
        }
    }

    /// Applies the constructor to arguments.
    ///
    /// # Panics
    ///
    /// Panics if `args.len()` disagrees with the built-in list arity;
    /// named constructors are applied without arity validation (the
    /// type checker validates against the declaration).
    pub fn apply(&self, args: Vec<Type>) -> Type {
        match self {
            TyCon::List => {
                assert_eq!(args.len(), 1, "List takes exactly one argument");
                Type::list(args.into_iter().next().expect("len checked"))
            }
            TyCon::Named(n) => Type::Con(*n, args),
        }
    }
}

impl std::fmt::Display for TyCon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TyCon::List => f.write_str("List"),
            TyCon::Named(n) => write!(f, "{n}"),
        }
    }
}

impl Type {
    /// Builds an arrow type.
    pub fn arrow(from: Type, to: Type) -> Type {
        Type::Arrow(Rc::new(from), Rc::new(to))
    }

    /// Builds a product type.
    pub fn prod(left: Type, right: Type) -> Type {
        Type::Prod(Rc::new(left), Rc::new(right))
    }

    /// Builds a list type.
    pub fn list(elem: Type) -> Type {
        Type::List(Rc::new(elem))
    }

    /// Builds a type variable.
    pub fn var(name: impl Into<Symbol>) -> Type {
        Type::Var(name.into())
    }

    /// Builds an applied type variable `f τ̄`.
    ///
    /// # Panics
    ///
    /// Panics if `args` is empty (a bare variable is [`Type::Var`]).
    pub fn var_app(f: impl Into<Symbol>, args: Vec<Type>) -> Type {
        assert!(!args.is_empty(), "applied type variable needs arguments");
        Type::VarApp(f.into(), args)
    }

    /// Wraps a rule type as a type, collapsing trivial rule types.
    ///
    /// `∀∅.{} ⇒ τ` is identified with `τ`, so this returns `τ.head`
    /// when the rule type has no quantifiers and an empty context.
    pub fn rule(rho: RuleType) -> Type {
        if rho.is_trivial() {
            rho.head().clone()
        } else {
            Type::Rule(Rc::new(rho))
        }
    }

    /// Promotes the type to a rule type (`τ` becomes `∀∅.{} ⇒ τ`).
    ///
    /// If the type already is a rule type, it is returned unwrapped.
    /// This is the promotion §3.2 uses to run [`TyRes`] on simple
    /// types.
    ///
    /// [`TyRes`]: mod@crate::resolve
    pub fn promote(&self) -> RuleType {
        match self {
            Type::Rule(r) => (**r).clone(),
            other => RuleType::unchecked(Vec::new(), Vec::new(), other.clone()),
        }
    }

    /// Free type variables.
    pub fn ftv(&self) -> BTreeSet<TyVar> {
        let mut acc = BTreeSet::new();
        self.ftv_into(&mut acc);
        acc
    }

    pub(crate) fn ftv_into(&self, acc: &mut BTreeSet<TyVar>) {
        match self {
            Type::Var(a) => {
                acc.insert(*a);
            }
            Type::Int | Type::Bool | Type::Str | Type::Unit => {}
            Type::Arrow(a, b) | Type::Prod(a, b) => {
                a.ftv_into(acc);
                b.ftv_into(acc);
            }
            Type::List(a) => a.ftv_into(acc),
            Type::Con(_, args) => {
                for t in args {
                    t.ftv_into(acc);
                }
            }
            Type::VarApp(f, args) => {
                acc.insert(*f);
                for t in args {
                    t.ftv_into(acc);
                }
            }
            Type::Ctor(_) => {}
            Type::Rule(r) => r.ftv_into(acc),
        }
    }

    /// Structural size of the type (number of constructors).
    ///
    /// Used by the termination conditions of Appendix A, which compare
    /// the sizes of rule heads and context types.
    pub fn size(&self) -> usize {
        match self {
            Type::Var(_) | Type::Int | Type::Bool | Type::Str | Type::Unit => 1,
            Type::Arrow(a, b) | Type::Prod(a, b) => 1 + a.size() + b.size(),
            Type::List(a) => 1 + a.size(),
            Type::Con(_, args) => 1 + args.iter().map(Type::size).sum::<usize>(),
            Type::VarApp(_, args) => 1 + args.iter().map(Type::size).sum::<usize>(),
            Type::Ctor(_) => 1,
            Type::Rule(r) => {
                1 + r.context().iter().map(RuleType::size).sum::<usize>() + r.head().size()
            }
        }
    }

    /// Number of occurrences of the type variable `a`.
    pub fn occurrences(&self, a: TyVar) -> usize {
        match self {
            Type::Var(b) => usize::from(*b == a),
            Type::Int | Type::Bool | Type::Str | Type::Unit => 0,
            Type::Arrow(l, r) | Type::Prod(l, r) => l.occurrences(a) + r.occurrences(a),
            Type::List(l) => l.occurrences(a),
            Type::Con(_, args) => args.iter().map(|t| t.occurrences(a)).sum(),
            Type::VarApp(f, args) => {
                usize::from(*f == a) + args.iter().map(|t| t.occurrences(a)).sum::<usize>()
            }
            Type::Ctor(_) => 0,
            Type::Rule(rt) => rt.occurrences(a),
        }
    }
}

/// A rule type `∀ᾱ. π ⇒ τ`.
///
/// The quantifier sequence `ᾱ` is ordered (instantiation `e[τ̄]` is
/// positional); the context `π` is a *set* of rule types, stored in a
/// canonical order.
///
/// # Examples
///
/// ```
/// use implicit_core::syntax::{RuleType, Type};
///
/// // ∀α. {α} ⇒ α × α
/// let a = implicit_core::symbol::Symbol::intern("a");
/// let rho = RuleType::new(
///     vec![a],
///     vec![Type::Var(a).promote()],
///     Type::prod(Type::Var(a), Type::Var(a)),
/// );
/// assert_eq!(rho.vars(), &[a]);
/// assert!(!rho.is_trivial());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RuleType {
    vars: Vec<TyVar>,
    context: Vec<RuleType>,
    head: Type,
}

impl RuleType {
    /// Builds a rule type, canonicalizing the context.
    ///
    /// The context is sorted by α-canonical key and deduplicated
    /// modulo α-equivalence, so logically equal contexts compare
    /// equal and elaborate identically.
    pub fn new(vars: Vec<TyVar>, context: Vec<RuleType>, head: Type) -> RuleType {
        let mut rt = RuleType {
            vars,
            context,
            head,
        };
        // Sorting and deduplicating fewer than two entries changes
        // nothing, and every chain rule has a one-entry context.
        if rt.context.len() > 1 {
            rt.canonicalize_context();
        }
        rt
    }

    /// Builds a rule type without canonicalizing (internal fast path
    /// for contexts already known to be canonical, e.g. promotions).
    pub(crate) fn unchecked(vars: Vec<TyVar>, context: Vec<RuleType>, head: Type) -> RuleType {
        RuleType {
            vars,
            context,
            head,
        }
    }

    /// A monomorphic, context-free rule type `∀∅.{} ⇒ τ`.
    pub fn simple(head: Type) -> RuleType {
        RuleType::unchecked(Vec::new(), Vec::new(), head)
    }

    /// A monomorphic rule `{π} ⇒ τ`.
    pub fn mono(context: Vec<RuleType>, head: Type) -> RuleType {
        RuleType::new(Vec::new(), context, head)
    }

    fn canonicalize_context(&mut self) {
        let mut keyed: Vec<(String, RuleType)> = std::mem::take(&mut self.context)
            .into_iter()
            .map(|r| (crate::alpha::canonical_key(&r), r))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed.dedup_by(|a, b| a.0 == b.0);
        self.context = keyed.into_iter().map(|(_, r)| r).collect();
    }

    /// The ordered quantified variables `ᾱ`.
    pub fn vars(&self) -> &[TyVar] {
        &self.vars
    }

    /// The context `π` in canonical order.
    pub fn context(&self) -> &[RuleType] {
        &self.context
    }

    /// The head (right-hand side) `τ`.
    pub fn head(&self) -> &Type {
        &self.head
    }

    /// `true` when the rule type is a promoted simple type
    /// (`∀∅.{} ⇒ τ`).
    pub fn is_trivial(&self) -> bool {
        self.vars.is_empty() && self.context.is_empty()
    }

    /// Converts back to a type, collapsing trivial rule types.
    pub fn to_type(&self) -> Type {
        if self.is_trivial() {
            self.head.clone()
        } else {
            Type::Rule(Rc::new(self.clone()))
        }
    }

    /// Free type variables (quantified variables are bound).
    pub fn ftv(&self) -> BTreeSet<TyVar> {
        let mut acc = BTreeSet::new();
        self.ftv_into(&mut acc);
        acc
    }

    pub(crate) fn ftv_into(&self, acc: &mut BTreeSet<TyVar>) {
        let mut inner = BTreeSet::new();
        for r in &self.context {
            r.ftv_into(&mut inner);
        }
        self.head.ftv_into(&mut inner);
        for v in &self.vars {
            inner.remove(v);
        }
        acc.extend(inner);
    }

    /// Structural size (used by termination checking).
    pub fn size(&self) -> usize {
        1 + self.context.iter().map(RuleType::size).sum::<usize>() + self.head.size()
    }

    /// Occurrences of the *free* variable `a`.
    pub fn occurrences(&self, a: TyVar) -> usize {
        if self.vars.contains(&a) {
            return 0;
        }
        self.context.iter().map(|r| r.occurrences(a)).sum::<usize>() + self.head.occurrences(a)
    }

    /// The `unambiguous` condition of §3.3: every quantified variable
    /// occurs in the head, recursively for the context.
    ///
    /// Rule types violating this (e.g. `∀α.{α} ⇒ Int`) can be
    /// instantiated ambiguously and are rejected at rule abstractions
    /// and queries.
    pub fn is_unambiguous(&self) -> bool {
        let head_ftv = self.head.ftv();
        self.vars.iter().all(|v| head_ftv.contains(v))
            && self.context.iter().all(RuleType::is_unambiguous)
    }
}

/// Primitive binary operators of the host fragment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (truncating). Division by zero is a runtime
    /// error.
    Div,
    /// Integer remainder. Remainder by zero is a runtime error.
    Mod,
    /// Equality on a base type (`Int`, `Bool` or `String`).
    Eq,
    /// Integer `<`.
    Lt,
    /// Integer `≤`.
    Le,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// String concatenation.
    Concat,
}

impl BinOp {
    /// Concrete-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Concat => "++",
        }
    }
}

/// Primitive unary operators of the host fragment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Integer negation.
    Neg,
    /// Renders an integer as a string (the `showInt` primitive used
    /// by the §5 pretty-printing example).
    IntToStr,
}

/// A λ⇒ expression.
///
/// The four implicit-calculus constructs are [`Expr::Query`],
/// [`Expr::RuleAbs`], [`Expr::TyApp`] and [`Expr::RuleApp`]; the rest
/// is the conventional simply-typed host fragment.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Unit literal.
    Unit,
    /// Term variable.
    Var(Symbol),
    /// `λx:τ. e`
    Lam(Symbol, Type, Rc<Expr>),
    /// Application `e₁ e₂`.
    App(Rc<Expr>, Rc<Expr>),
    /// A query `?ρ`: fetch a value of type `ρ` from the implicit
    /// environment.
    Query(RuleType),
    /// A rule abstraction `rule(ρ)(e)`: a value of rule type `ρ`
    /// whose body `e` may query the assumed context.
    RuleAbs(Rc<RuleType>, Rc<Expr>),
    /// Type application `e[τ̄]`, eliminating the quantifiers of a rule
    /// type.
    TyApp(Rc<Expr>, Vec<Type>),
    /// Rule application `e with {e₁:ρ₁, …}`, supplying the context of
    /// a rule type.
    RuleApp(Rc<Expr>, Vec<(Expr, RuleType)>),
    /// `if e₁ then e₂ else e₃`
    If(Rc<Expr>, Rc<Expr>, Rc<Expr>),
    /// Primitive binary operation.
    BinOp(BinOp, Rc<Expr>, Rc<Expr>),
    /// Primitive unary operation.
    UnOp(UnOp, Rc<Expr>),
    /// Pair introduction `(e₁, e₂)`.
    Pair(Rc<Expr>, Rc<Expr>),
    /// First projection.
    Fst(Rc<Expr>),
    /// Second projection.
    Snd(Rc<Expr>),
    /// Empty list at element type `τ`.
    Nil(Type),
    /// List cons.
    Cons(Rc<Expr>, Rc<Expr>),
    /// List elimination:
    /// `case e of { [] -> e₁ ; x :: xs -> e₂ }`.
    ListCase {
        /// Scrutinee.
        scrut: Rc<Expr>,
        /// Branch for the empty list.
        nil: Rc<Expr>,
        /// Name bound to the head in the cons branch.
        head: Symbol,
        /// Name bound to the tail in the cons branch.
        tail: Symbol,
        /// Branch for a cons cell.
        cons: Rc<Expr>,
    },
    /// General recursion `fix x:τ. e` (value recursion restricted to
    /// function types by the type checker).
    Fix(Symbol, Type, Rc<Expr>),
    /// Record construction `I [τ̄] { u₁ = e₁, … }` for a declared
    /// interface `I`.
    Make(Symbol, Vec<Type>, Vec<(Symbol, Expr)>),
    /// Field projection `e.u`.
    Proj(Rc<Expr>, Symbol),
    /// Data-constructor application `con C [τ̄] (e₁, …, eₙ)` for a
    /// constructor of a declared data type.
    Inject(Symbol, Vec<Type>, Vec<Expr>),
    /// Data elimination
    /// `match e { C₁ x̄₁ -> e₁ | … | Cₖ x̄ₖ -> eₖ }`; arms must cover
    /// the scrutinee's constructors exactly.
    Match(Rc<Expr>, Vec<MatchArm>),
}

/// One arm of a [`Expr::Match`].
#[derive(Clone, PartialEq, Debug)]
pub struct MatchArm {
    /// Constructor name.
    pub ctor: Symbol,
    /// Binders for the constructor's arguments.
    pub binders: Vec<Symbol>,
    /// Arm body.
    pub body: Expr,
}

impl Expr {
    /// `λx:τ. e`
    pub fn lam(x: impl Into<Symbol>, ty: Type, body: Expr) -> Expr {
        Expr::Lam(x.into(), ty, Rc::new(body))
    }

    /// `e₁ e₂`
    pub fn app(f: Expr, a: Expr) -> Expr {
        Expr::App(Rc::new(f), Rc::new(a))
    }

    /// Term variable.
    pub fn var(x: impl Into<Symbol>) -> Expr {
        Expr::Var(x.into())
    }

    /// A query for a simple type: `?τ` is `?(∀∅.{} ⇒ τ)`.
    pub fn query_simple(ty: Type) -> Expr {
        Expr::Query(ty.promote())
    }

    /// `rule(ρ)(e)`
    ///
    /// # Panics
    ///
    /// Panics if `ρ` is trivial (no quantifiers and empty context):
    /// trivial rule abstractions are identified with their bodies and
    /// must not be constructed.
    pub fn rule_abs(rho: RuleType, body: Expr) -> Expr {
        assert!(
            !rho.is_trivial(),
            "trivial rule abstraction; use the body directly"
        );
        Expr::RuleAbs(Rc::new(rho), Rc::new(body))
    }

    /// `e with {ēᵢ:ρ̄ᵢ}`
    pub fn with(e: Expr, args: Vec<(Expr, RuleType)>) -> Expr {
        Expr::RuleApp(Rc::new(e), args)
    }

    /// The `implicit {ē:ρ̄} in e : τ` sugar of §3.1:
    /// `rule({ρ̄} ⇒ τ)(e) with {ē:ρ̄}`.
    ///
    /// When `args` is empty the body is returned unchanged.
    pub fn implicit(args: Vec<(Expr, RuleType)>, body: Expr, body_ty: Type) -> Expr {
        if args.is_empty() {
            return body;
        }
        let context: Vec<RuleType> = args.iter().map(|(_, r)| r.clone()).collect();
        let rho = RuleType::mono(context, body_ty);
        Expr::with(Expr::rule_abs(rho, body), args)
    }

    /// Pair introduction.
    pub fn pair(a: Expr, b: Expr) -> Expr {
        Expr::Pair(Rc::new(a), Rc::new(b))
    }

    /// `if c then t else e`
    pub fn if_(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::If(Rc::new(c), Rc::new(t), Rc::new(e))
    }

    /// Primitive binary operation.
    pub fn binop(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::BinOp(op, Rc::new(a), Rc::new(b))
    }

    /// A list literal with the given element type (needed when the
    /// list is empty).
    pub fn list(elem_ty: Type, items: Vec<Expr>) -> Expr {
        items.into_iter().rev().fold(Expr::Nil(elem_ty), |acc, e| {
            Expr::Cons(Rc::new(e), Rc::new(acc))
        })
    }

    /// `let x : τ = e₁ in e₂` as the standard sugar `(λx:τ.e₂) e₁`.
    pub fn let_(x: impl Into<Symbol>, ty: Type, bound: Expr, body: Expr) -> Expr {
        Expr::app(Expr::lam(x, ty, body), bound)
    }
}

/// Declaration of a nominal interface (record) type:
/// `interface I ᾱ = { u₁ : T₁, …, uₙ : Tₙ }`.
#[derive(Clone, PartialEq, Debug)]
pub struct InterfaceDecl {
    /// Interface name `I`.
    pub name: Symbol,
    /// Type parameters `ᾱ`.
    pub vars: Vec<TyVar>,
    /// Field names and types.
    pub fields: Vec<(Symbol, Type)>,
}

impl InterfaceDecl {
    /// The type of field `u` at instantiation `args`, or `None` if
    /// the interface has no such field.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.vars.len()`.
    pub fn field_type(&self, field: Symbol, args: &[Type]) -> Option<Type> {
        assert_eq!(args.len(), self.vars.len(), "interface arity mismatch");
        let (_, ty) = self.fields.iter().find(|(u, _)| *u == field)?;
        let subst = crate::subst::TySubst::bind_all(&self.vars, args);
        Some(subst.apply_type(ty))
    }
}

/// A table of interface declarations consulted by the type checker,
/// the evaluators and the elaborator.
#[derive(Clone, Default, Debug)]
pub struct Declarations {
    interfaces: Vec<InterfaceDecl>,
    datas: Vec<DataDecl>,
}

impl Declarations {
    /// An empty declaration table.
    pub fn new() -> Declarations {
        Declarations::default()
    }

    /// Whether the table declares nothing (no interfaces, no data
    /// types).
    pub fn is_empty(&self) -> bool {
        self.interfaces.is_empty() && self.datas.is_empty()
    }

    /// Adds an interface declaration.
    ///
    /// # Errors
    ///
    /// Returns an error string if a type constructor with the same
    /// name is already declared or the declaration has duplicate
    /// fields or type parameters.
    pub fn declare(&mut self, decl: InterfaceDecl) -> Result<(), String> {
        if self.con_arity(decl.name).is_some() {
            return Err(format!("type `{}` is already declared", decl.name));
        }
        let mut seen = BTreeSet::new();
        for (u, _) in &decl.fields {
            if !seen.insert(*u) {
                return Err(format!(
                    "duplicate field `{}` in interface `{}`",
                    u, decl.name
                ));
            }
        }
        let mut vs = BTreeSet::new();
        for v in &decl.vars {
            if !vs.insert(*v) {
                return Err(format!(
                    "duplicate type parameter `{}` in interface `{}`",
                    v, decl.name
                ));
            }
        }
        self.interfaces.push(decl);
        Ok(())
    }

    /// Adds a data-type declaration, inferring its parameter kinds
    /// from their occurrences in the constructor argument types (a
    /// parameter used as an application head `f τ̄` has arity `|τ̄|`;
    /// recursive occurrences of the declared type itself are
    /// supported by iterating to a fixed point).
    ///
    /// # Errors
    ///
    /// Returns an error string on name clashes, duplicate
    /// constructors/parameters, or conflicting parameter kinds.
    pub fn declare_data(&mut self, decl: DataDecl) -> Result<(), String> {
        if self.con_arity(decl.name).is_some() {
            return Err(format!("type `{}` is already declared", decl.name));
        }
        let mut cs = BTreeSet::new();
        for (c, _) in &decl.ctors {
            if !cs.insert(*c) {
                return Err(format!(
                    "duplicate constructor `{}` in data type `{}`",
                    c, decl.name
                ));
            }
            if self.lookup_ctor(*c).is_some() {
                return Err(format!("constructor `{c}` is already declared"));
            }
        }
        let mut vs = BTreeSet::new();
        for (v, _) in &decl.params {
            if !vs.insert(*v) {
                return Err(format!(
                    "duplicate type parameter `{}` in data type `{}`",
                    v, decl.name
                ));
            }
        }
        self.datas.push(decl);
        Ok(())
    }

    /// Looks up an interface by name.
    pub fn lookup(&self, name: Symbol) -> Option<&InterfaceDecl> {
        self.interfaces.iter().find(|d| d.name == name)
    }

    /// Looks up a data type by name.
    pub fn lookup_data(&self, name: Symbol) -> Option<&DataDecl> {
        self.datas.iter().find(|d| d.name == name)
    }

    /// Finds the data type declaring constructor `ctor`.
    pub fn lookup_ctor(&self, ctor: Symbol) -> Option<(&DataDecl, &CtorDecl)> {
        self.datas.iter().find_map(|d| {
            d.ctors
                .iter()
                .find(|(c, _)| *c == ctor)
                .map(|(_, args)| (d, args))
        })
    }

    /// Arity of the named type constructor (interface or data type),
    /// or `None` when undeclared.
    pub fn con_arity(&self, name: Symbol) -> Option<usize> {
        self.lookup(name)
            .map(|d| d.vars.len())
            .or_else(|| self.lookup_data(name).map(|d| d.params.len()))
    }

    /// Kinds (arities) of the named constructor's parameters:
    /// interfaces have all-`*` parameters; data types carry inferred
    /// kinds.
    pub fn con_param_kinds(&self, name: Symbol) -> Option<Vec<usize>> {
        if let Some(d) = self.lookup(name) {
            return Some(vec![0; d.vars.len()]);
        }
        self.lookup_data(name)
            .map(|d| d.params.iter().map(|(_, k)| *k).collect())
    }

    /// Iterates over all declared interfaces.
    pub fn iter(&self) -> impl Iterator<Item = &InterfaceDecl> {
        self.interfaces.iter()
    }

    /// Iterates over all declared data types.
    pub fn iter_datas(&self) -> impl Iterator<Item = &DataDecl> {
        self.datas.iter()
    }
}

/// The argument types of one data constructor.
pub type CtorDecl = Vec<Type>;

/// A data-type declaration
/// `data D p₁ … pₙ = C₁ T̄₁ | … | Cₖ T̄ₖ`, where parameters may be
/// higher-kinded (e.g. the paper's
/// `data Perfect f a = Nil | Cons a (Perfect f (f a))`).
#[derive(Clone, PartialEq, Debug)]
pub struct DataDecl {
    /// Type name `D`.
    pub name: Symbol,
    /// Parameters with their kinds (arity; 0 = a plain type).
    pub params: Vec<(TyVar, usize)>,
    /// Constructors with their argument types.
    pub ctors: Vec<(Symbol, CtorDecl)>,
}

impl DataDecl {
    /// Builds a declaration, inferring parameter kinds from their
    /// occurrences in the constructor argument types.
    ///
    /// # Errors
    ///
    /// Returns an error string when a parameter is used at two
    /// different kinds.
    pub fn infer(
        name: Symbol,
        params: Vec<TyVar>,
        ctors: Vec<(Symbol, CtorDecl)>,
    ) -> Result<DataDecl, String> {
        // Iterate to a fixed point: occurrences as application heads
        // pin a parameter's arity directly; occurrences as arguments
        // to the type being declared inherit the (current guess of)
        // the corresponding parameter kind.
        let mut kinds: std::collections::BTreeMap<TyVar, usize> = std::collections::BTreeMap::new();
        let param_set: BTreeSet<TyVar> = params.iter().copied().collect();
        for _round in 0..8 {
            let before = kinds.clone();
            for (_, args) in &ctors {
                for t in args {
                    scan_kinds(t, name, &params, &param_set, &mut kinds).map_err(|(v, a, b)| {
                        format!("parameter `{v}` of `{name}` used at arities {a} and {b}")
                    })?;
                }
            }
            if kinds == before {
                break;
            }
        }
        Ok(DataDecl {
            name,
            params: params
                .into_iter()
                .map(|p| {
                    let k = kinds.get(&p).copied().unwrap_or(0);
                    (p, k)
                })
                .collect(),
            ctors,
        })
    }

    /// The instantiated argument types of constructor `ctor` at the
    /// given type arguments, or `None` for an unknown constructor.
    ///
    /// # Panics
    ///
    /// Panics when `args.len()` differs from the parameter count.
    pub fn ctor_arg_types(&self, ctor: Symbol, args: &[Type]) -> Option<Vec<Type>> {
        assert_eq!(args.len(), self.params.len(), "data arity mismatch");
        let (_, arg_tys) = self.ctors.iter().find(|(c, _)| *c == ctor)?;
        let vars: Vec<TyVar> = self.params.iter().map(|(v, _)| *v).collect();
        let subst = crate::subst::TySubst::bind_all(&vars, args);
        Some(arg_tys.iter().map(|t| subst.apply_type(t)).collect())
    }
}

fn scan_kinds(
    t: &Type,
    self_name: Symbol,
    params: &[TyVar],
    param_set: &BTreeSet<TyVar>,
    kinds: &mut std::collections::BTreeMap<TyVar, usize>,
) -> Result<(), (TyVar, usize, usize)> {
    let record = |v: TyVar,
                  k: usize,
                  kinds: &mut std::collections::BTreeMap<TyVar, usize>|
     -> Result<(), (TyVar, usize, usize)> {
        match kinds.insert(v, k) {
            Some(prev) if prev != k => Err((v, prev, k)),
            _ => Ok(()),
        }
    };
    match t {
        Type::Var(v) => {
            // A bare parameter occurrence is kind * only when it is
            // not (yet) known to be higher-kinded; here "bare" means
            // in type position, which pins arity 0.
            if param_set.contains(v) {
                record(*v, 0, kinds)?;
            }
            Ok(())
        }
        Type::Int | Type::Bool | Type::Str | Type::Unit | Type::Ctor(_) => Ok(()),
        Type::Arrow(a, b) | Type::Prod(a, b) => {
            scan_kinds(a, self_name, params, param_set, kinds)?;
            scan_kinds(b, self_name, params, param_set, kinds)
        }
        Type::List(a) => scan_kinds(a, self_name, params, param_set, kinds),
        Type::VarApp(f, args) => {
            if param_set.contains(f) {
                record(*f, args.len(), kinds)?;
            }
            args.iter()
                .try_for_each(|a| scan_kinds(a, self_name, params, param_set, kinds))
        }
        Type::Con(n, args) if *n == self_name => {
            // Recursive occurrence: each argument position inherits
            // the corresponding parameter's current kind.
            for (i, a) in args.iter().enumerate() {
                let slot_kind = params
                    .get(i)
                    .and_then(|p| kinds.get(p).copied())
                    .unwrap_or(0);
                match a {
                    Type::Var(v) if param_set.contains(v) && slot_kind > 0 => {
                        record(*v, slot_kind, kinds)?;
                    }
                    Type::Var(v) if param_set.contains(v) => {
                        // Unknown yet; leave for a later round.
                    }
                    _ => scan_kinds(a, self_name, params, param_set, kinds)?,
                }
            }
            Ok(())
        }
        Type::Con(_, args) => args
            .iter()
            .try_for_each(|a| scan_kinds(a, self_name, params, param_set, kinds)),
        Type::Rule(r) => {
            let mut inner = param_set.clone();
            for v in r.vars() {
                inner.remove(v);
            }
            for c in r.context() {
                scan_kinds(&c.to_type(), self_name, params, &inner, kinds)?;
            }
            scan_kinds(r.head(), self_name, params, &inner, kinds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn a() -> TyVar {
        Symbol::intern("a")
    }

    #[test]
    fn trivial_rule_types_collapse() {
        let t = Type::rule(RuleType::simple(Type::Int));
        assert_eq!(t, Type::Int);
        let promoted = Type::Int.promote();
        assert!(promoted.is_trivial());
        assert_eq!(promoted.to_type(), Type::Int);
    }

    #[test]
    fn nontrivial_rule_types_stay_wrapped() {
        let rho = RuleType::new(vec![a()], vec![], Type::var(a()));
        let t = Type::rule(rho.clone());
        assert!(matches!(t, Type::Rule(_)));
        assert_eq!(t.promote(), rho);
    }

    #[test]
    fn ftv_respects_binders() {
        // ∀a. {a} ⇒ a × b : free = {b}
        let b = Symbol::intern("b");
        let rho = RuleType::new(
            vec![a()],
            vec![Type::var(a()).promote()],
            Type::prod(Type::var(a()), Type::var(b)),
        );
        let ftv = rho.ftv();
        assert!(ftv.contains(&b));
        assert!(!ftv.contains(&a()));
    }

    #[test]
    fn context_is_sorted_and_deduped() {
        let c1 = Type::Int.promote();
        let c2 = Type::Bool.promote();
        let r1 = RuleType::new(vec![], vec![c1.clone(), c2.clone(), c1.clone()], Type::Unit);
        let r2 = RuleType::new(vec![], vec![c2, c1], Type::Unit);
        assert_eq!(r1.context(), r2.context());
        assert_eq!(r1.context().len(), 2);
    }

    #[test]
    fn context_dedups_alpha_equivalent_entries() {
        let b = Symbol::intern("b");
        let ra = RuleType::new(
            vec![a()],
            vec![],
            Type::arrow(Type::var(a()), Type::var(a())),
        );
        let rb = RuleType::new(vec![b], vec![], Type::arrow(Type::var(b), Type::var(b)));
        let r = RuleType::new(vec![], vec![ra, rb], Type::Int);
        assert_eq!(r.context().len(), 1);
    }

    #[test]
    fn unambiguous_condition() {
        // ∀a.{a} ⇒ Int is ambiguous (a not in head).
        let bad = RuleType::new(vec![a()], vec![Type::var(a()).promote()], Type::Int);
        assert!(!bad.is_unambiguous());
        let good = RuleType::new(vec![a()], vec![Type::var(a()).promote()], Type::var(a()));
        assert!(good.is_unambiguous());
    }

    #[test]
    #[should_panic(expected = "trivial rule abstraction")]
    fn trivial_rule_abs_panics() {
        let _ = Expr::rule_abs(RuleType::simple(Type::Int), Expr::Int(1));
    }

    #[test]
    fn implicit_sugar_builds_rule_application() {
        let e = Expr::implicit(
            vec![(Expr::Int(1), Type::Int.promote())],
            Expr::query_simple(Type::Int),
            Type::Int,
        );
        match e {
            Expr::RuleApp(f, args) => {
                assert_eq!(args.len(), 1);
                assert!(matches!(&*f, Expr::RuleAbs(_, _)));
            }
            other => panic!("expected rule application, got {other:?}"),
        }
    }

    #[test]
    fn list_literal_folds_to_cons_chain() {
        let e = Expr::list(Type::Int, vec![Expr::Int(1), Expr::Int(2)]);
        match e {
            Expr::Cons(h, t) => {
                assert_eq!(*h, Expr::Int(1));
                assert!(matches!(&*t, Expr::Cons(_, _)));
            }
            other => panic!("expected cons, got {other:?}"),
        }
    }

    #[test]
    fn interface_field_types_instantiate() {
        let eq = Symbol::intern("Eq");
        let field = Symbol::intern("eq");
        let decl = InterfaceDecl {
            name: eq,
            vars: vec![a()],
            fields: vec![(
                field,
                Type::arrow(Type::var(a()), Type::arrow(Type::var(a()), Type::Bool)),
            )],
        };
        let mut decls = Declarations::new();
        decls.declare(decl).unwrap();
        let d = decls.lookup(eq).unwrap();
        let ty = d.field_type(field, &[Type::Int]).unwrap();
        assert_eq!(
            ty,
            Type::arrow(Type::Int, Type::arrow(Type::Int, Type::Bool))
        );
    }

    #[test]
    fn duplicate_interface_rejected() {
        let decl = InterfaceDecl {
            name: Symbol::intern("Dup"),
            vars: vec![],
            fields: vec![],
        };
        let mut decls = Declarations::new();
        decls.declare(decl.clone()).unwrap();
        assert!(decls.declare(decl).is_err());
    }

    #[test]
    fn type_size_counts_constructors() {
        assert_eq!(Type::Int.size(), 1);
        assert_eq!(Type::arrow(Type::Int, Type::Bool).size(), 3);
        assert_eq!(
            Type::prod(Type::Int, Type::prod(Type::Int, Type::Int)).size(),
            5
        );
    }

    #[test]
    fn occurrences_counts_variables() {
        let t = Type::prod(Type::var(a()), Type::arrow(Type::var(a()), Type::Int));
        assert_eq!(t.occurrences(a()), 2);
        assert_eq!(t.occurrences(Symbol::intern("zz")), 0);
    }
}
