//! Hash-consing for types and rule types.
//!
//! Resolution spends most of its time comparing and re-walking the
//! same types: every lookup re-matches each candidate rule head
//! against the target, and substitution rebuilds trees whose shared
//! subterms never change. This module gives both operations an O(1)
//! fast path by interning [`Type`]s and [`RuleType`]s into a
//! thread-local arena of *structural identities*:
//!
//! * [`type_id`] / [`rule_id`] map a term to a [`TypeId`] /
//!   [`RuleId`] such that two terms receive the same id **iff** they
//!   are structurally equal (the derived `PartialEq`). Interning a
//!   term whose `Rc`-shared subtrees have been seen before costs one
//!   shallow node per *unshared* level: the arena memoizes by `Rc`
//!   pointer (keeping a clone alive so addresses are never reused),
//!   and clones share their subtrees. Those pins last one program:
//!   [`forget_pins`] drops them where a program ends.
//! * [`is_ground`] answers "does this type mention any type
//!   variable?" from per-node metadata computed once at interning
//!   time. Ground types are fixed points of substitution and match a
//!   target exactly when they equal it, which turns the common
//!   monomorphic-rule head-match into an id comparison.
//! * [`HeadKey`] is a one-level fingerprint of a type's outermost
//!   constructor, used by the environment's per-frame index
//!   ([`crate::env::ImplicitEnv`]) to skip candidates that cannot
//!   match and by the derivation cache to decide which entries a
//!   pushed frame can shadow.
//!
//! The arena is thread-local rather than global because the terms it
//! pins contain `Rc`s (so they cannot cross threads anyway); ids from
//! different threads must not be compared, which the public API makes
//! impossible to do accidentally since ids are only produced and
//! consumed on the same thread as the terms they describe.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::symbol::Symbol;
use crate::syntax::{RuleType, TyCon, Type};

/// Structural identity of an interned [`Type`]: equal ids ⇔ equal
/// types (on the thread that produced them).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TypeId(u32);

/// Structural identity of an interned [`RuleType`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RuleId(u32);

/// The outermost-constructor fingerprint of a type, used to index
/// implicit-environment frames by rule head.
///
/// Keys are *conservative*: a candidate rule whose head has key `c`
/// can match a target with key `t` only if [`HeadKey::admits`] holds.
/// Variable-headed types (which can match, or be matched by, many
/// shapes) map to [`HeadKey::Wildcard`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HeadKey {
    /// A variable-headed type (`α` or `f τ̄`): matches anything as a
    /// pattern, and is matched only by variable-headed patterns as a
    /// target.
    Wildcard,
    /// `Int`
    Int,
    /// `Bool`
    Bool,
    /// `String`
    Str,
    /// `Unit`
    Unit,
    /// `τ₁ → τ₂`
    Arrow,
    /// `τ₁ × τ₂`
    Prod,
    /// `[τ]`
    List,
    /// The first-class list constructor `List` (kind `* → *`).
    CtorList,
    /// A named interface/data constructor, applied (`I τ̄`) or
    /// first-class (`Ctor(I)`); nullary applications and constructor
    /// references share a key because matching identifies them.
    Con(Symbol),
    /// A rule type `∀ᾱ. π ⇒ τ`.
    Rule,
}

impl HeadKey {
    /// Can a rule head with key `self` possibly match a target with
    /// key `target`?
    ///
    /// Completeness (no false negatives) follows from the matcher's
    /// case analysis: a non-variable pattern only ever matches a
    /// target with the same outermost constructor (with nullary
    /// `Con`/`Ctor` identification folded into [`HeadKey::Con`]),
    /// and variable-headed targets are matched only by
    /// variable-headed patterns.
    pub fn admits(self, target: HeadKey) -> bool {
        self == HeadKey::Wildcard || self == target
    }
}

/// The head-constructor fingerprint of `ty`. O(1): inspects only the
/// root node.
pub fn head_key(ty: &Type) -> HeadKey {
    match ty {
        Type::Var(_) | Type::VarApp(_, _) => HeadKey::Wildcard,
        Type::Int => HeadKey::Int,
        Type::Bool => HeadKey::Bool,
        Type::Str => HeadKey::Str,
        Type::Unit => HeadKey::Unit,
        Type::Arrow(_, _) => HeadKey::Arrow,
        Type::Prod(_, _) => HeadKey::Prod,
        Type::List(_) => HeadKey::List,
        Type::Ctor(TyCon::List) => HeadKey::CtorList,
        Type::Ctor(TyCon::Named(n)) | Type::Con(n, _) => HeadKey::Con(*n),
        Type::Rule(_) => HeadKey::Rule,
    }
}

/// Flattened type node: children are ids, so node equality/hashing is
/// shallow.
#[derive(Clone, PartialEq, Eq, Hash)]
enum TypeNode {
    Var(Symbol),
    Int,
    Bool,
    Str,
    Unit,
    Arrow(TypeId, TypeId),
    Prod(TypeId, TypeId),
    List(TypeId),
    Con(Symbol, Vec<TypeId>),
    VarApp(Symbol, Vec<TypeId>),
    Ctor(TyCon),
    Rule(RuleId),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct RuleNode {
    vars: Vec<Symbol>,
    context: Vec<RuleId>,
    head: TypeId,
}

/// Pointer-memo entries keep an `Rc` clone alive so the keyed address
/// cannot be reused by a different allocation; the structural tables
/// are append-only (up to [`truncate_to`]), so ids outlive the pins.
///
/// The pins are a per-program cache. A warm session and a daemon
/// tenant call [`forget_pins`] where each program or request ends, so
/// no program's types outlive it: carrying them into the next program
/// saved no measured time, and a daemon tenant that kept them held
/// about 2 MB of other programs' types. This cap bounds one program: past it the
/// memos are cleared wholesale. A cold `implicitc` run never reaches
/// it.
const PTR_MEMO_CAP: usize = 1 << 14;

#[derive(Default)]
struct Arena {
    type_table: HashMap<TypeNode, TypeId>,
    /// Reverse of `type_table`: node for each id, for [`type_of`].
    type_nodes: Vec<TypeNode>,
    /// Reverse of `rule_table`: node for each id, for [`rule_of`].
    rule_nodes: Vec<RuleNode>,
    /// Per-[`TypeId`] metadata: `true` when the type mentions no
    /// type variable (bound or free).
    type_ground: Vec<bool>,
    /// `true` when the type contains a first-class constructor
    /// reference (`Type::Ctor`) anywhere; such types can match
    /// non-identical terms through the matcher's nullary
    /// `Con`/`Ctor` identification.
    type_has_ctor: Vec<bool>,
    rule_table: HashMap<RuleNode, RuleId>,
    rule_ground: Vec<bool>,
    rule_has_ctor: Vec<bool>,
    /// Keyed by `Rc` address; the stored clone pins the allocation so
    /// the address cannot be reused while the entry lives.
    type_ptr_memo: HashMap<usize, (TypeId, Rc<Type>)>,
    rule_ptr_memo: HashMap<usize, (RuleId, Rc<RuleType>)>,
}

impl Arena {
    fn intern_type_node(&mut self, node: TypeNode, ground: bool, has_ctor: bool) -> TypeId {
        if let Some(&id) = self.type_table.get(&node) {
            return id;
        }
        let id = TypeId(u32::try_from(self.type_ground.len()).expect("type arena overflow"));
        self.type_ground.push(ground);
        self.type_has_ctor.push(has_ctor);
        self.type_nodes.push(node.clone());
        self.type_table.insert(node, id);
        id
    }

    fn intern_rule_node(&mut self, node: RuleNode, ground: bool, has_ctor: bool) -> RuleId {
        if let Some(&id) = self.rule_table.get(&node) {
            return id;
        }
        let id = RuleId(u32::try_from(self.rule_ground.len()).expect("rule arena overflow"));
        self.rule_ground.push(ground);
        self.rule_has_ctor.push(has_ctor);
        self.rule_nodes.push(node.clone());
        self.rule_table.insert(node, id);
        id
    }

    fn rebuild_type(&self, id: TypeId) -> Type {
        match &self.type_nodes[id.0 as usize] {
            TypeNode::Var(a) => Type::Var(*a),
            TypeNode::Int => Type::Int,
            TypeNode::Bool => Type::Bool,
            TypeNode::Str => Type::Str,
            TypeNode::Unit => Type::Unit,
            TypeNode::Arrow(a, b) => Type::Arrow(
                Rc::new(self.rebuild_type(*a)),
                Rc::new(self.rebuild_type(*b)),
            ),
            TypeNode::Prod(a, b) => Type::Prod(
                Rc::new(self.rebuild_type(*a)),
                Rc::new(self.rebuild_type(*b)),
            ),
            TypeNode::List(a) => Type::List(Rc::new(self.rebuild_type(*a))),
            TypeNode::Con(n, args) => {
                Type::Con(*n, args.iter().map(|i| self.rebuild_type(*i)).collect())
            }
            TypeNode::VarApp(f, args) => {
                Type::VarApp(*f, args.iter().map(|i| self.rebuild_type(*i)).collect())
            }
            TypeNode::Ctor(c) => Type::Ctor(*c),
            TypeNode::Rule(r) => Type::Rule(Rc::new(self.rebuild_rule(*r))),
        }
    }

    fn rebuild_rule(&self, id: RuleId) -> RuleType {
        let node = &self.rule_nodes[id.0 as usize];
        RuleType::new(
            node.vars.clone(),
            node.context.iter().map(|i| self.rebuild_rule(*i)).collect(),
            self.rebuild_type(node.head),
        )
    }

    fn intern_type_rc(&mut self, ty: &Rc<Type>) -> TypeId {
        let key = Rc::as_ptr(ty) as usize;
        if let Some(&(id, _)) = self.type_ptr_memo.get(&key) {
            return id;
        }
        let id = self.intern_type(ty);
        if self.type_ptr_memo.len() >= PTR_MEMO_CAP {
            self.type_ptr_memo.clear();
        }
        self.type_ptr_memo.insert(key, (id, Rc::clone(ty)));
        id
    }

    fn intern_rule_rc(&mut self, rho: &Rc<RuleType>) -> RuleId {
        let key = Rc::as_ptr(rho) as usize;
        if let Some(&(id, _)) = self.rule_ptr_memo.get(&key) {
            return id;
        }
        let id = self.intern_rule(rho);
        if self.rule_ptr_memo.len() >= PTR_MEMO_CAP {
            self.rule_ptr_memo.clear();
        }
        self.rule_ptr_memo.insert(key, (id, Rc::clone(rho)));
        id
    }

    fn forget_pins(&mut self) {
        self.type_ptr_memo.clear();
        self.rule_ptr_memo.clear();
    }

    fn type_meta(&self, id: TypeId) -> (bool, bool) {
        (
            self.type_ground[id.0 as usize],
            self.type_has_ctor[id.0 as usize],
        )
    }

    fn intern_type(&mut self, ty: &Type) -> TypeId {
        let (node, ground, has_ctor) = match ty {
            Type::Var(a) => (TypeNode::Var(*a), false, false),
            Type::Int => (TypeNode::Int, true, false),
            Type::Bool => (TypeNode::Bool, true, false),
            Type::Str => (TypeNode::Str, true, false),
            Type::Unit => (TypeNode::Unit, true, false),
            Type::Arrow(a, b) => {
                let ia = self.intern_type_rc(a);
                let ib = self.intern_type_rc(b);
                let (ga, ca) = self.type_meta(ia);
                let (gb, cb) = self.type_meta(ib);
                (TypeNode::Arrow(ia, ib), ga && gb, ca || cb)
            }
            Type::Prod(a, b) => {
                let ia = self.intern_type_rc(a);
                let ib = self.intern_type_rc(b);
                let (ga, ca) = self.type_meta(ia);
                let (gb, cb) = self.type_meta(ib);
                (TypeNode::Prod(ia, ib), ga && gb, ca || cb)
            }
            Type::List(a) => {
                let ia = self.intern_type_rc(a);
                let (ga, ca) = self.type_meta(ia);
                (TypeNode::List(ia), ga, ca)
            }
            Type::Con(n, args) => {
                let ids: Vec<TypeId> = args.iter().map(|t| self.intern_type(t)).collect();
                let ground = ids.iter().all(|i| self.type_ground[i.0 as usize]);
                let has_ctor = ids.iter().any(|i| self.type_has_ctor[i.0 as usize]);
                (TypeNode::Con(*n, ids), ground, has_ctor)
            }
            Type::VarApp(f, args) => {
                let ids: Vec<TypeId> = args.iter().map(|t| self.intern_type(t)).collect();
                let has_ctor = ids.iter().any(|i| self.type_has_ctor[i.0 as usize]);
                (TypeNode::VarApp(*f, ids), false, has_ctor)
            }
            Type::Ctor(c) => (TypeNode::Ctor(*c), true, true),
            Type::Rule(r) => {
                let ir = self.intern_rule_rc(r);
                (
                    TypeNode::Rule(ir),
                    self.rule_ground[ir.0 as usize],
                    self.rule_has_ctor[ir.0 as usize],
                )
            }
        };
        self.intern_type_node(node, ground, has_ctor)
    }

    fn intern_rule(&mut self, rho: &RuleType) -> RuleId {
        let context: Vec<RuleId> = rho.context().iter().map(|r| self.intern_rule(r)).collect();
        let head = self.intern_type(rho.head());
        let ground = rho.vars().is_empty()
            && self.type_ground[head.0 as usize]
            && context.iter().all(|i| self.rule_ground[i.0 as usize]);
        let has_ctor = self.type_has_ctor[head.0 as usize]
            || context.iter().any(|i| self.rule_has_ctor[i.0 as usize]);
        self.intern_rule_node(
            RuleNode {
                vars: rho.vars().to_vec(),
                context,
                head,
            },
            ground,
            has_ctor,
        )
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

/// Interns `ty`, returning its structural identity.
///
/// # Examples
///
/// ```
/// use implicit_core::intern::{type_id, types_equal};
/// use implicit_core::syntax::Type;
///
/// let a = Type::list(Type::prod(Type::Int, Type::Bool));
/// let b = Type::list(Type::prod(Type::Int, Type::Bool));
/// assert_eq!(type_id(&a), type_id(&b));
/// assert!(types_equal(&a, &b));
/// assert!(!types_equal(&a, &Type::Int));
/// ```
pub fn type_id(ty: &Type) -> TypeId {
    ARENA.with(|a| a.borrow_mut().intern_type(ty))
}

/// Interns `rho`, returning its structural identity.
pub fn rule_id(rho: &RuleType) -> RuleId {
    ARENA.with(|a| a.borrow_mut().intern_rule(rho))
}

/// Reconstructs the type an id was interned from (structurally equal
/// to every type that maps to `id`). Used by the artifact store to
/// serialize caches that are keyed by intern id.
///
/// Returns `None` when `id` does not denote a live arena entry (e.g.
/// after [`truncate_to`]).
pub fn type_of(id: TypeId) -> Option<Type> {
    ARENA.with(|a| {
        let a = a.borrow();
        if (id.0 as usize) < a.type_nodes.len() {
            Some(a.rebuild_type(id))
        } else {
            None
        }
    })
}

/// Reconstructs the rule type an id was interned from; see [`type_of`].
pub fn rule_of(id: RuleId) -> Option<RuleType> {
    ARENA.with(|a| {
        let a = a.borrow();
        if (id.0 as usize) < a.rule_nodes.len() {
            Some(a.rebuild_rule(id))
        } else {
            None
        }
    })
}

/// `true` when `ty` mentions no type variable (bound or free), so it
/// is a fixed point of every substitution and matches a target iff it
/// equals it. O(1) amortized for `Rc`-shared subtrees.
pub fn is_ground(ty: &Type) -> bool {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        let id = a.intern_type(ty);
        a.type_ground[id.0 as usize]
    })
}

/// `true` when `rho` has no quantifiers and mentions no type variable
/// anywhere (so freshening and substitution are both the identity).
pub fn rule_is_ground(rho: &RuleType) -> bool {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        let id = a.intern_rule(rho);
        a.rule_ground[id.0 as usize]
    })
}

/// [`is_ground`] keyed by `Rc` identity: O(1) for a pointer the arena
/// has already seen (substitution uses this to share, rather than
/// rebuild, variable-free subtrees).
pub fn is_ground_rc(ty: &Rc<Type>) -> bool {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        let id = a.intern_type_rc(ty);
        a.type_ground[id.0 as usize]
    })
}

/// [`rule_is_ground`] keyed by `Rc` identity; O(1) for already-seen
/// pointers.
pub fn rule_is_ground_rc(rho: &Rc<RuleType>) -> bool {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        let id = a.intern_rule_rc(rho);
        a.rule_ground[id.0 as usize]
    })
}

/// Structural equality via interning: one shallow re-intern per side
/// when subtrees are `Rc`-shared (e.g. clones of a stored rule).
pub fn types_equal(a: &Type, b: &Type) -> bool {
    ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        arena.intern_type(a) == arena.intern_type(b)
    })
}

/// Outcome of the O(1) ground-pattern match test
/// ([`ground_head_check`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroundCheck {
    /// The pattern certainly matches the target (they are equal).
    Match,
    /// The pattern certainly does not match the target.
    NoMatch,
    /// Undecided: the terms involve first-class constructor
    /// references, whose nullary `Con`/`Ctor` identification the id
    /// comparison cannot see; run the full matcher.
    Unknown,
}

/// Decides whether a *ground* rule head `pattern` matches `target`
/// without walking either term.
///
/// A ground pattern has no variables to instantiate, so it matches a
/// target exactly when the two are equal up to the matcher's nullary
/// `Con`/`Ctor` identification:
///
/// * equal ids → [`GroundCheck::Match`];
/// * a target with variables can never be matched by a ground
///   pattern (every pattern position is rigid) → [`GroundCheck::NoMatch`];
/// * otherwise, unequal ground terms differ structurally; that is
///   conclusive unless one side contains a `Type::Ctor` node, where
///   the identification could still bridge the difference →
///   [`GroundCheck::NoMatch`] / [`GroundCheck::Unknown`].
///
/// # Panics
///
/// Does not panic, but the result is only meaningful when
/// `is_ground(pattern)` holds.
pub fn ground_head_check(pattern: &Type, target: &Type) -> GroundCheck {
    ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        let p = arena.intern_type(pattern);
        let t = arena.intern_type(target);
        if p == t {
            return GroundCheck::Match;
        }
        let (t_ground, t_ctor) = arena.type_meta(t);
        if !t_ground {
            return GroundCheck::NoMatch;
        }
        let (_, p_ctor) = arena.type_meta(p);
        if p_ctor || t_ctor {
            GroundCheck::Unknown
        } else {
            GroundCheck::NoMatch
        }
    })
}

/// A watermark over the thread-local arena, taken with [`snapshot`].
///
/// Ids are assigned sequentially and children are always interned
/// before their parents, so every id below the watermark describes a
/// term whose entire subterm closure is also below it. That makes a
/// snapshot a coherent *prefix* of the arena: [`truncate_to`] can
/// discard everything interned after it without dangling child ids,
/// and callers holding caches keyed by [`TypeId`] / [`RuleId`] can
/// use [`InternSnapshot::covers_type`] / [`covers_rule`] to decide
/// which entries survive the truncation.
///
/// Like the ids themselves, a snapshot is only meaningful on the
/// thread that took it.
///
/// [`covers_rule`]: InternSnapshot::covers_rule
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InternSnapshot {
    types: u32,
    rules: u32,
}

impl InternSnapshot {
    /// `true` when `id` was interned at or before the snapshot (so it
    /// survives a [`truncate_to`] back to it).
    pub fn covers_type(&self, id: TypeId) -> bool {
        id.0 < self.types
    }

    /// `true` when `id` was interned at or before the snapshot.
    pub fn covers_rule(&self, id: RuleId) -> bool {
        id.0 < self.rules
    }

    /// Number of type entries the snapshot covers.
    pub fn type_count(&self) -> usize {
        self.types as usize
    }

    /// Number of rule entries the snapshot covers.
    pub fn rule_count(&self) -> usize {
        self.rules as usize
    }
}

/// Takes a watermark of the current thread's arena.
pub fn snapshot() -> InternSnapshot {
    ARENA.with(|a| {
        let a = a.borrow();
        InternSnapshot {
            types: a.type_ground.len() as u32,
            rules: a.rule_ground.len() as u32,
        }
    })
}

/// Current arena sizes `(types, rules)` — the growth since a
/// [`snapshot`] is the usual trim heuristic for long-lived sessions.
pub fn arena_len() -> (usize, usize) {
    ARENA.with(|a| {
        let a = a.borrow();
        (a.type_ground.len(), a.rule_ground.len())
    })
}

/// Pointer-memo pins held now `(types, rules)`: the `Rc`s the arena
/// keeps alive for its O(1) re-intern of already-seen pointers.
pub fn pinned() -> (usize, usize) {
    ARENA.with(|a| {
        let a = a.borrow();
        (a.type_ptr_memo.len(), a.rule_ptr_memo.len())
    })
}

/// Ends a program on this thread's arena: drops every pointer-memo
/// pin, so the program's types are freed once the program drops them.
/// Ids are untouched; the next program re-interns a surviving pointer
/// by its structure, once, and pins it again.
pub fn forget_pins() {
    ARENA.with(|a| a.borrow_mut().forget_pins());
}

/// Rolls the arena back to `snap`: every id interned after the
/// snapshot is forgotten (its structural-table entry and metadata are
/// dropped, and so is every pointer-memo pin) and the id space is
/// reused by subsequent interning.
///
/// Ids below the watermark remain valid and stable. Ids above it
/// become dangling — callers must drop or purge any cache keyed by a
/// non-covered id *before* truncating (see
/// [`InternSnapshot::covers_type`] / [`InternSnapshot::covers_rule`]);
/// the derivation cache and the opsem runtime memo both expose
/// retain-hooks for exactly this.
pub fn truncate_to(snap: &InternSnapshot) {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.type_table.retain(|_, id| id.0 < snap.types);
        a.type_ground.truncate(snap.types as usize);
        a.type_has_ctor.truncate(snap.types as usize);
        a.type_nodes.truncate(snap.types as usize);
        a.rule_table.retain(|_, id| id.0 < snap.rules);
        a.rule_ground.truncate(snap.rules as usize);
        a.rule_has_ctor.truncate(snap.rules as usize);
        a.rule_nodes.truncate(snap.rules as usize);
        a.forget_pins();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn equal_types_share_an_id() {
        let t1 = Type::arrow(Type::Int, Type::list(Type::Bool));
        let t2 = Type::arrow(Type::Int, Type::list(Type::Bool));
        assert_eq!(type_id(&t1), type_id(&t2));
        assert_ne!(type_id(&t1), type_id(&Type::Int));
    }

    #[test]
    fn clones_reintern_through_the_pointer_memo() {
        let mut t = Type::Int;
        for _ in 0..64 {
            t = Type::list(t);
        }
        let id = type_id(&t);
        let clone = t.clone(); // shares the child Rc chain
        assert_eq!(type_id(&clone), id);
    }

    #[test]
    fn pointer_memo_stays_within_its_cap() {
        // Each copy's child is a fresh allocation, so every intern
        // adds a memo entry until the wholesale clear.
        let id = type_id(&Type::list(Type::Int));
        for _ in 0..PTR_MEMO_CAP + 100 {
            assert_eq!(type_id(&Type::list(Type::Int)), id);
        }
        let memo = ARENA.with(|a| a.borrow().type_ptr_memo.len());
        assert!(memo <= PTR_MEMO_CAP, "{memo} pinned entries");
    }

    #[test]
    fn a_pin_lives_until_its_program_ends() {
        let child = Rc::new(Type::prod(Type::Int, Type::Bool));
        let t = Type::List(Rc::clone(&child));
        let id = type_id(&t);
        assert_eq!(Rc::strong_count(&child), 3, "`child`, `t` and the pin");
        assert!(pinned().0 > 0);

        // A second intern of the same `Rc` within the program answers
        // from its memo entry, poisoned here to tell a hit from a walk.
        let key = Rc::as_ptr(&child) as usize;
        let child_id = ARENA.with(|a| {
            let mut a = a.borrow_mut();
            let entry = a.type_ptr_memo.get_mut(&key).expect("child is pinned");
            std::mem::replace(&mut entry.0, TypeId(u32::MAX))
        });
        assert_eq!(
            ARENA.with(|a| a.borrow_mut().intern_type_rc(&child)),
            TypeId(u32::MAX)
        );
        assert_eq!(Rc::strong_count(&child), 3, "a hit takes no second pin");

        forget_pins();
        assert_eq!(pinned(), (0, 0));
        assert_eq!(Rc::strong_count(&child), 2, "the pin is gone");
        // Ids outlive the pins: the next program re-interns by structure.
        assert_eq!(type_id(&t), id);
        assert_eq!(
            ARENA.with(|a| a.borrow_mut().intern_type_rc(&child)),
            child_id
        );
    }

    #[test]
    fn truncation_drops_every_pin() {
        let base = Type::list(Type::Int);
        type_id(&base);
        let snap = snapshot();
        type_id(&Type::list(Type::list(Type::Bool)));
        truncate_to(&snap);
        assert_eq!(pinned(), (0, 0));
        assert_eq!(type_id(&base.clone()), type_id(&Type::list(Type::Int)));
    }

    #[test]
    fn groundness_is_per_node() {
        assert!(is_ground(&Type::Int));
        assert!(is_ground(&Type::prod(Type::Int, Type::list(Type::Str))));
        assert!(!is_ground(&Type::var(v("a"))));
        assert!(!is_ground(&Type::arrow(Type::Int, Type::var(v("a")))));
        assert!(!is_ground(&Type::var_app(v("f"), vec![Type::Int])));
        assert!(is_ground(&Type::Ctor(TyCon::List)));
    }

    #[test]
    fn rule_ids_distinguish_binders_and_contexts() {
        let r1 = RuleType::new(vec![v("a")], vec![], Type::var(v("a")));
        let r2 = RuleType::new(vec![v("b")], vec![], Type::var(v("b")));
        // Interning is structural, not α-aware: distinct binder names
        // are distinct rules.
        assert_ne!(rule_id(&r1), rule_id(&r2));
        assert_eq!(rule_id(&r1), rule_id(&r1.clone()));

        let mono = RuleType::mono(vec![Type::Int.promote()], Type::Bool);
        assert!(!rule_is_ground(&r1));
        assert!(rule_is_ground(&mono));
    }

    #[test]
    fn head_keys_fingerprint_the_outermost_constructor() {
        let eq = v("Eq");
        assert_eq!(head_key(&Type::Int), HeadKey::Int);
        assert_eq!(head_key(&Type::list(Type::Int)), HeadKey::List);
        assert_eq!(head_key(&Type::var(v("a"))), HeadKey::Wildcard);
        assert_eq!(
            head_key(&Type::var_app(v("f"), vec![Type::Int])),
            HeadKey::Wildcard
        );
        // Nullary constructor applications and constructor references
        // are identified, mirroring the matcher.
        assert_eq!(head_key(&Type::Con(eq, vec![])), HeadKey::Con(eq));
        assert_eq!(head_key(&Type::Ctor(TyCon::Named(eq))), HeadKey::Con(eq));
        assert_eq!(head_key(&Type::Ctor(TyCon::List)), HeadKey::CtorList);
        let rho = RuleType::new(vec![v("a")], vec![], Type::var(v("a")));
        assert_eq!(head_key(&rho.to_type()), HeadKey::Rule);
    }

    #[test]
    fn ground_check_decides_variable_free_matches() {
        let chain = Type::list(Type::list(Type::Int));
        assert_eq!(
            ground_head_check(&chain, &chain.clone()),
            GroundCheck::Match
        );
        assert_eq!(
            ground_head_check(&chain, &Type::list(Type::Int)),
            GroundCheck::NoMatch
        );
        // Ground patterns cannot match targets that mention variables.
        assert_eq!(
            ground_head_check(&Type::Int, &Type::var(v("a"))),
            GroundCheck::NoMatch
        );
        // Constructor references force the full matcher: Con(n, [])
        // and Ctor(n) are identified even though their ids differ.
        let eq = v("EqC");
        assert_eq!(
            ground_head_check(&Type::Con(eq, vec![]), &Type::Ctor(TyCon::Named(eq))),
            GroundCheck::Unknown
        );
    }

    #[test]
    fn truncation_preserves_covered_ids_and_reuses_the_rest() {
        let base = Type::list(Type::Int);
        let base_id = type_id(&base);
        let snap = snapshot();
        assert!(snap.covers_type(base_id));

        let tall = Type::prod(Type::list(Type::list(Type::Int)), Type::Bool);
        let tall_id = type_id(&tall);
        let rho = RuleType::mono(vec![base.promote()], tall.clone());
        let rho_id = rule_id(&rho);
        assert!(!snap.covers_type(tall_id));
        assert!(!snap.covers_rule(rho_id));

        truncate_to(&snap);
        assert_eq!(arena_len(), (snap.type_count(), snap.rule_count()));
        // Covered ids are stable across the rollback.
        assert_eq!(type_id(&base), base_id);
        // Pruned terms re-intern coherently: equal terms still get
        // equal ids, and the arena grows back to the same size.
        let tall_id2 = type_id(&tall);
        assert_eq!(type_id(&tall.clone()), tall_id2);
        assert_eq!(rule_id(&rho), rule_id(&rho.clone()));
        assert!(!snap.covers_type(tall_id2));
        assert!(is_ground(&tall));
        assert_eq!(ground_head_check(&tall, &tall.clone()), GroundCheck::Match);
    }

    #[test]
    fn truncation_to_a_stale_longer_snapshot_is_a_no_op() {
        let t = Type::list(Type::list(Type::Str));
        let id = type_id(&t);
        let snap = snapshot();
        truncate_to(&snap);
        assert_eq!(type_id(&t), id);
    }

    #[test]
    fn admits_is_reflexive_plus_wildcard() {
        assert!(HeadKey::Int.admits(HeadKey::Int));
        assert!(HeadKey::Wildcard.admits(HeadKey::Int));
        assert!(HeadKey::Wildcard.admits(HeadKey::Wildcard));
        // A constructor-headed pattern cannot match a variable-headed
        // target...
        assert!(!HeadKey::Int.admits(HeadKey::Wildcard));
        // ...nor a differently-headed one.
        assert!(!HeadKey::Arrow.admits(HeadKey::Prod));
        assert!(!HeadKey::Con(v("Eq")).admits(HeadKey::Con(v("Ord"))));
    }
}
