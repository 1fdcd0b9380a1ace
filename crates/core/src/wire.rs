//! Binary wire format for session artifacts.
//!
//! The artifact store (crate `implicit-pipeline`) persists a warm
//! session — interned prelude types, the implicit environment's
//! derivation cache, elaborated evidence values and compiled bytecode
//! — across processes. This module provides the shared encoder /
//! decoder primitives: fixed-width little-endian integers, strings,
//! and memoized encodings of [`Symbol`]s, [`Type`]s, [`RuleType`]s,
//! [`Expr`]s and resolution derivations.
//!
//! Three properties matter for cross-process reuse:
//!
//! * **Symbols are serialized by name.** `Symbol` ids are process
//!   local (the global interner assigns them in first-use order), so
//!   the wire form is the string, memoized: the first occurrence
//!   writes the name, later occurrences a back-reference.
//! * **Types are serialized structurally, shared by table index.**
//!   Intern-arena ids ([`crate::intern`]) are thread-local and never
//!   written. Instead the encoder keeps a table of already-written
//!   types; the decoder rebuilds the same table in the same order
//!   (both sides assign a type's index *after* its children, so the
//!   tables agree), and re-interns on the loading thread as needed.
//! * **Corruption is detected, not trusted.** [`Enc::finish`] appends
//!   an FNV-64 checksum of the payload; [`Dec::new`] verifies it
//!   before any field is decoded, so a truncated or bit-flipped
//!   artifact fails loudly at open time and the caller can fall back
//!   to a cold build. A checksum-valid payload can still be crafted:
//!   every recursive decoder, here and in the crates that extend this
//!   format, goes one level down through [`Dec::enter`], so nesting
//!   past [`MAX_DECODE_DEPTH`] is an error, not a stack overflow.
//! * **Derivations are written as one table of shared nodes**
//!   ([`Enc::derivations`]): each distinct node once, after the
//!   premises it names, so a premise is the index of an earlier node
//!   and the table has neither forward references nor cycles.

use std::collections::HashMap;
use std::rc::Rc;

use crate::env::OverlapPolicy;
use crate::resolve::{Premise, Resolution, ResolutionPolicy, RuleRef};
use crate::symbol::Symbol;
use crate::syntax::{BinOp, Expr, MatchArm, RuleType, TyCon, Type, UnOp};

/// Decode failure: out-of-range tag, dangling back-reference,
/// truncated input, or checksum mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// How deep decoding may nest, summed over every recursive decoder
/// (types, rule types, expressions, values) and bounding the height of
/// decoded derivations. Four times the parsers' `MAX_NESTING`, so any
/// prelude the parsers accept round-trips; shallow enough that
/// decoding at the bound fits the 8 MiB main thread a single-shot
/// `implicitc --cache-dir` decodes on (see DESIGN §5.4).
pub const MAX_DECODE_DEPTH: usize = 4 * crate::parse::MAX_NESTING;

/// Clamps a wire-supplied element count before pre-allocating, so a
/// checksum-valid but corrupt (or crafted) length can't force a huge
/// up-front allocation and abort the process; an honest count above
/// the clamp just grows the vec as elements are pushed, and a lying
/// count fails element-by-element with a decode `Err` instead.
pub fn cap(n: usize) -> usize {
    n.min(1 << 16)
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_more(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues the 64-bit FNV-1a hash `h` over `bytes`:
/// `fnv64_more(fnv64(a), b) == fnv64(a ++ b)`.
pub fn fnv64_more(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Streaming encoder with per-stream memo tables.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
    syms: HashMap<Symbol, u32>,
    types: HashMap<Type, u32>,
    rules: HashMap<RuleType, u32>,
    derivations: HashMap<*const Resolution, u32>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The bytes written so far (checksum not yet appended).
    pub fn buf(&self) -> &[u8] {
        &self.buf
    }

    /// Appends the FNV-64 checksum and returns the finished payload.
    pub fn finish(mut self) -> Vec<u8> {
        let h = fnv64(&self.buf);
        self.buf.extend_from_slice(&h.to_le_bytes());
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a symbol: back-reference if seen, else its name.
    pub fn sym(&mut self, s: Symbol) {
        if let Some(&i) = self.syms.get(&s) {
            self.u8(0);
            self.u32(i);
            return;
        }
        self.u8(1);
        self.str(s.as_str());
        let i = self.syms.len() as u32;
        self.syms.insert(s, i);
    }

    /// Writes a type: back-reference if structurally seen, else the
    /// node (children first; the table index is assigned after the
    /// children so encoder and decoder tables stay aligned).
    pub fn ty(&mut self, t: &Type) {
        if let Some(&i) = self.types.get(t) {
            self.u8(0);
            self.u32(i);
            return;
        }
        self.u8(1);
        match t {
            Type::Var(a) => {
                self.u8(0);
                self.sym(*a);
            }
            Type::Int => self.u8(1),
            Type::Bool => self.u8(2),
            Type::Str => self.u8(3),
            Type::Unit => self.u8(4),
            Type::Arrow(a, b) => {
                self.u8(5);
                self.ty(a);
                self.ty(b);
            }
            Type::Prod(a, b) => {
                self.u8(6);
                self.ty(a);
                self.ty(b);
            }
            Type::List(e) => {
                self.u8(7);
                self.ty(e);
            }
            Type::Con(n, args) => {
                self.u8(8);
                self.sym(*n);
                self.u32(args.len() as u32);
                for a in args {
                    self.ty(a);
                }
            }
            Type::VarApp(v, args) => {
                self.u8(9);
                self.sym(*v);
                self.u32(args.len() as u32);
                for a in args {
                    self.ty(a);
                }
            }
            Type::Ctor(TyCon::List) => self.u8(10),
            Type::Ctor(TyCon::Named(n)) => {
                self.u8(11);
                self.sym(*n);
            }
            Type::Rule(r) => {
                self.u8(12);
                self.rule(r);
            }
        }
        let i = self.types.len() as u32;
        self.types.insert(t.clone(), i);
    }

    /// Writes a rule type (memoized like [`Enc::ty`]).
    pub fn rule(&mut self, r: &RuleType) {
        if let Some(&i) = self.rules.get(r) {
            self.u8(0);
            self.u32(i);
            return;
        }
        self.u8(1);
        self.u32(r.vars().len() as u32);
        for v in r.vars() {
            self.sym(*v);
        }
        self.u32(r.context().len() as u32);
        for c in r.context() {
            self.rule(c);
        }
        self.ty(r.head());
        let i = self.rules.len() as u32;
        self.rules.insert(r.clone(), i);
    }

    /// Writes a λ⇒ expression (structural, no memo: source-level
    /// sharing is incidental and prelude exprs are small).
    pub fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            Expr::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Expr::Str(s) => {
                self.u8(2);
                self.str(s);
            }
            Expr::Unit => self.u8(3),
            Expr::Var(x) => {
                self.u8(4);
                self.sym(*x);
            }
            Expr::Lam(x, t, b) => {
                self.u8(5);
                self.sym(*x);
                self.ty(t);
                self.expr(b);
            }
            Expr::App(f, a) => {
                self.u8(6);
                self.expr(f);
                self.expr(a);
            }
            Expr::Query(r) => {
                self.u8(7);
                self.rule(r);
            }
            Expr::RuleAbs(r, b) => {
                self.u8(8);
                self.rule(r);
                self.expr(b);
            }
            Expr::TyApp(f, ts) => {
                self.u8(9);
                self.expr(f);
                self.u32(ts.len() as u32);
                for t in ts {
                    self.ty(t);
                }
            }
            Expr::RuleApp(f, args) => {
                self.u8(10);
                self.expr(f);
                self.u32(args.len() as u32);
                for (a, r) in args {
                    self.expr(a);
                    self.rule(r);
                }
            }
            Expr::If(c, t, f) => {
                self.u8(11);
                self.expr(c);
                self.expr(t);
                self.expr(f);
            }
            Expr::BinOp(op, a, b) => {
                self.u8(12);
                self.u8(binop_tag(*op));
                self.expr(a);
                self.expr(b);
            }
            Expr::UnOp(op, a) => {
                self.u8(13);
                self.u8(unop_tag(*op));
                self.expr(a);
            }
            Expr::Pair(a, b) => {
                self.u8(14);
                self.expr(a);
                self.expr(b);
            }
            Expr::Fst(a) => {
                self.u8(15);
                self.expr(a);
            }
            Expr::Snd(a) => {
                self.u8(16);
                self.expr(a);
            }
            Expr::Nil(t) => {
                self.u8(17);
                self.ty(t);
            }
            Expr::Cons(h, t) => {
                self.u8(18);
                self.expr(h);
                self.expr(t);
            }
            Expr::ListCase {
                scrut,
                nil,
                head,
                tail,
                cons,
            } => {
                self.u8(19);
                self.expr(scrut);
                self.expr(nil);
                self.sym(*head);
                self.sym(*tail);
                self.expr(cons);
            }
            Expr::Fix(x, t, b) => {
                self.u8(20);
                self.sym(*x);
                self.ty(t);
                self.expr(b);
            }
            Expr::Make(n, ts, fields) => {
                self.u8(21);
                self.sym(*n);
                self.u32(ts.len() as u32);
                for t in ts {
                    self.ty(t);
                }
                self.u32(fields.len() as u32);
                for (f, e) in fields {
                    self.sym(*f);
                    self.expr(e);
                }
            }
            Expr::Proj(e, f) => {
                self.u8(22);
                self.expr(e);
                self.sym(*f);
            }
            Expr::Inject(c, ts, args) => {
                self.u8(23);
                self.sym(*c);
                self.u32(ts.len() as u32);
                for t in ts {
                    self.ty(t);
                }
                self.u32(args.len() as u32);
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Match(scrut, arms) => {
                self.u8(24);
                self.expr(scrut);
                self.u32(arms.len() as u32);
                for arm in arms {
                    self.sym(arm.ctor);
                    self.u32(arm.binders.len() as u32);
                    for b in &arm.binders {
                        self.sym(*b);
                    }
                    self.expr(&arm.body);
                }
            }
        }
    }

    /// Writes the derivations `roots` reach as one table: the number
    /// of nodes not written before, then each such node once, after
    /// every premise it names — a premise is the index of its node.
    /// Returns each root's index. Nodes are told apart by identity, so
    /// a table written from a DAG decodes to the same DAG.
    pub fn derivations<'r>(
        &mut self,
        roots: impl IntoIterator<Item = &'r Rc<Resolution>>,
    ) -> Vec<u32> {
        let roots: Vec<&Rc<Resolution>> = roots.into_iter().collect();
        // Postorder, iteratively: a node is numbered after its premises.
        let mut order: Vec<&Rc<Resolution>> = Vec::new();
        let mut stack: Vec<(&Rc<Resolution>, bool)> =
            roots.iter().rev().map(|r| (*r, false)).collect();
        let base = self.derivations.len() as u32;
        while let Some((node, expanded)) = stack.pop() {
            let ptr = Rc::as_ptr(node);
            if self.derivations.contains_key(&ptr) {
                continue;
            }
            if expanded {
                self.derivations.insert(ptr, base + order.len() as u32);
                order.push(node);
                continue;
            }
            stack.push((node, true));
            for p in node.premises.iter().rev() {
                if let Premise::Derived(inner) = p {
                    stack.push((inner, false));
                }
            }
        }
        self.u32(order.len() as u32);
        for node in order {
            self.derivation_node(node);
        }
        roots
            .iter()
            .map(|r| self.derivations[&Rc::as_ptr(r)])
            .collect()
    }

    fn derivation_node(&mut self, r: &Resolution) {
        self.rule(&r.query);
        let (tag, level, index) = match r.rule {
            RuleRef::Env { level, index } => (0, level, index),
            RuleRef::Extension { level, index } => (1, level, index),
        };
        self.u8(tag);
        self.u32(level as u32);
        self.u32(index as u32);
        self.rule(&r.rule_type);
        self.u32(r.type_args.len() as u32);
        for t in &r.type_args {
            self.ty(t);
        }
        self.u32(r.premises.len() as u32);
        for p in &r.premises {
            match p {
                Premise::Assumed { index, rho } => {
                    self.u8(0);
                    self.u32(*index as u32);
                    self.rule(rho);
                }
                Premise::Derived(d) => {
                    self.u8(1);
                    self.u32(self.derivations[&Rc::as_ptr(d)]);
                }
            }
        }
    }

    /// Writes an overlap policy.
    pub fn overlap(&mut self, o: OverlapPolicy) {
        self.u8(match o {
            OverlapPolicy::Forbid => 0,
            OverlapPolicy::MostSpecific => 1,
        });
    }

    /// Writes a binary operator.
    pub fn binop(&mut self, op: BinOp) {
        self.u8(binop_tag(op));
    }

    /// Writes a unary operator.
    pub fn unop(&mut self, op: UnOp) {
        self.u8(unop_tag(op));
    }

    /// Writes a resolution policy.
    pub fn policy(&mut self, p: &ResolutionPolicy) {
        self.u8(match p.overlap {
            OverlapPolicy::Forbid => 0,
            OverlapPolicy::MostSpecific => 1,
        });
        self.bool(p.env_extension);
        self.len(p.max_depth);
        self.bool(p.cache);
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Eq => 5,
        BinOp::Lt => 6,
        BinOp::Le => 7,
        BinOp::And => 8,
        BinOp::Or => 9,
        BinOp::Concat => 10,
    }
}

fn unop_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Not => 0,
        UnOp::Neg => 1,
        UnOp::IntToStr => 2,
    }
}

/// Streaming decoder, mirror of [`Enc`].
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
    syms: Vec<Symbol>,
    types: Vec<Type>,
    rules: Vec<RuleType>,
    /// Decoded derivation nodes and the height of each.
    derivations: Vec<(Rc<Resolution>, usize)>,
    /// Current decode nesting (see [`Dec::enter`]).
    depth: usize,
}

impl<'a> Dec<'a> {
    /// Opens `data`, verifying the trailing FNV-64 checksum first.
    pub fn new(data: &'a [u8]) -> Result<Dec<'a>, WireError> {
        if data.len() < 8 {
            return err("payload shorter than its checksum");
        }
        let (body, tail) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv64(body) != stored {
            return err("checksum mismatch (truncated or corrupted payload)");
        }
        Ok(Dec {
            data: body,
            pos: 0,
            syms: Vec::new(),
            types: Vec::new(),
            rules: Vec::new(),
            derivations: Vec::new(),
            depth: 0,
        })
    }

    /// Goes one nesting level down; every recursive decoder calls this
    /// before decoding a node's children and [`Dec::leave`] after.
    ///
    /// # Errors
    ///
    /// Nesting past [`MAX_DECODE_DEPTH`].
    pub fn enter(&mut self) -> Result<(), WireError> {
        if self.depth >= MAX_DECODE_DEPTH {
            return err(format!("nesting deeper than {MAX_DECODE_DEPTH}"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Comes back up one nesting level (see [`Dec::enter`]).
    pub fn leave(&mut self) {
        self.depth -= 1;
    }

    /// True when every payload byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.data.len() {
            return err("unexpected end of payload");
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize` written with [`Enc::len`]. This is a decode
    /// step, not a size accessor, so there is no `is_empty` twin.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError("length overflows usize".into()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a boolean.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => err(format!("bad bool byte {b}")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError("invalid UTF-8".into()))
    }

    /// Reads a symbol.
    pub fn sym(&mut self) -> Result<Symbol, WireError> {
        match self.u8()? {
            0 => {
                let i = self.u32()? as usize;
                self.syms
                    .get(i)
                    .copied()
                    .ok_or_else(|| WireError(format!("dangling symbol backref {i}")))
            }
            1 => {
                let s = Symbol::intern(&self.str()?);
                self.syms.push(s);
                Ok(s)
            }
            b => err(format!("bad symbol tag {b}")),
        }
    }

    /// Reads a type.
    pub fn ty(&mut self) -> Result<Type, WireError> {
        match self.u8()? {
            0 => {
                let i = self.u32()? as usize;
                self.types
                    .get(i)
                    .cloned()
                    .ok_or_else(|| WireError(format!("dangling type backref {i}")))
            }
            1 => {
                self.enter()?;
                let t = self.ty_node();
                self.leave();
                let t = t?;
                self.types.push(t.clone());
                Ok(t)
            }
            b => err(format!("bad type memo tag {b}")),
        }
    }

    fn ty_node(&mut self) -> Result<Type, WireError> {
        Ok(match self.u8()? {
            0 => Type::Var(self.sym()?),
            1 => Type::Int,
            2 => Type::Bool,
            3 => Type::Str,
            4 => Type::Unit,
            5 => {
                let a = self.ty()?;
                let b = self.ty()?;
                Type::Arrow(Rc::new(a), Rc::new(b))
            }
            6 => {
                let a = self.ty()?;
                let b = self.ty()?;
                Type::Prod(Rc::new(a), Rc::new(b))
            }
            7 => Type::List(Rc::new(self.ty()?)),
            8 => {
                let n = self.sym()?;
                let k = self.u32()? as usize;
                let mut args = Vec::with_capacity(cap(k));
                for _ in 0..k {
                    args.push(self.ty()?);
                }
                Type::Con(n, args)
            }
            9 => {
                let v = self.sym()?;
                let k = self.u32()? as usize;
                let mut args = Vec::with_capacity(cap(k));
                for _ in 0..k {
                    args.push(self.ty()?);
                }
                Type::VarApp(v, args)
            }
            10 => Type::Ctor(TyCon::List),
            11 => Type::Ctor(TyCon::Named(self.sym()?)),
            12 => Type::Rule(Rc::new(self.rule()?)),
            b => return err(format!("bad type tag {b}")),
        })
    }

    /// Reads a rule type.
    pub fn rule(&mut self) -> Result<RuleType, WireError> {
        match self.u8()? {
            0 => {
                let i = self.u32()? as usize;
                self.rules
                    .get(i)
                    .cloned()
                    .ok_or_else(|| WireError(format!("dangling rule backref {i}")))
            }
            1 => {
                self.enter()?;
                let r = self.rule_node();
                self.leave();
                let r = r?;
                self.rules.push(r.clone());
                Ok(r)
            }
            b => err(format!("bad rule memo tag {b}")),
        }
    }

    fn rule_node(&mut self) -> Result<RuleType, WireError> {
        let nv = self.u32()? as usize;
        let mut vars = Vec::with_capacity(cap(nv));
        for _ in 0..nv {
            vars.push(self.sym()?);
        }
        let nc = self.u32()? as usize;
        let mut context = Vec::with_capacity(cap(nc));
        for _ in 0..nc {
            context.push(self.rule()?);
        }
        let head = self.ty()?;
        Ok(RuleType::new(vars, context, head))
    }

    /// Reads a λ⇒ expression.
    pub fn expr(&mut self) -> Result<Expr, WireError> {
        self.enter()?;
        let e = self.expr_node();
        self.leave();
        e
    }

    fn expr_node(&mut self) -> Result<Expr, WireError> {
        Ok(match self.u8()? {
            0 => Expr::Int(self.i64()?),
            1 => Expr::Bool(self.bool()?),
            2 => Expr::Str(self.str()?),
            3 => Expr::Unit,
            4 => Expr::Var(self.sym()?),
            5 => {
                let x = self.sym()?;
                let t = self.ty()?;
                let b = self.expr()?;
                Expr::Lam(x, t, Rc::new(b))
            }
            6 => {
                let f = self.expr()?;
                let a = self.expr()?;
                Expr::App(Rc::new(f), Rc::new(a))
            }
            7 => Expr::Query(self.rule()?),
            8 => {
                let r = self.rule()?;
                let b = self.expr()?;
                Expr::RuleAbs(Rc::new(r), Rc::new(b))
            }
            9 => {
                let f = self.expr()?;
                let k = self.u32()? as usize;
                let mut ts = Vec::with_capacity(cap(k));
                for _ in 0..k {
                    ts.push(self.ty()?);
                }
                Expr::TyApp(Rc::new(f), ts)
            }
            10 => {
                let f = self.expr()?;
                let k = self.u32()? as usize;
                let mut args = Vec::with_capacity(cap(k));
                for _ in 0..k {
                    let a = self.expr()?;
                    let r = self.rule()?;
                    args.push((a, r));
                }
                Expr::RuleApp(Rc::new(f), args)
            }
            11 => {
                let c = self.expr()?;
                let t = self.expr()?;
                let f = self.expr()?;
                Expr::If(Rc::new(c), Rc::new(t), Rc::new(f))
            }
            12 => {
                let op = binop_from(self.u8()?)?;
                let a = self.expr()?;
                let b = self.expr()?;
                Expr::BinOp(op, Rc::new(a), Rc::new(b))
            }
            13 => {
                let op = unop_from(self.u8()?)?;
                let a = self.expr()?;
                Expr::UnOp(op, Rc::new(a))
            }
            14 => {
                let a = self.expr()?;
                let b = self.expr()?;
                Expr::Pair(Rc::new(a), Rc::new(b))
            }
            15 => Expr::Fst(Rc::new(self.expr()?)),
            16 => Expr::Snd(Rc::new(self.expr()?)),
            17 => Expr::Nil(self.ty()?),
            18 => {
                let h = self.expr()?;
                let t = self.expr()?;
                Expr::Cons(Rc::new(h), Rc::new(t))
            }
            19 => {
                let scrut = self.expr()?;
                let nil = self.expr()?;
                let head = self.sym()?;
                let tail = self.sym()?;
                let cons = self.expr()?;
                Expr::ListCase {
                    scrut: Rc::new(scrut),
                    nil: Rc::new(nil),
                    head,
                    tail,
                    cons: Rc::new(cons),
                }
            }
            20 => {
                let x = self.sym()?;
                let t = self.ty()?;
                let b = self.expr()?;
                Expr::Fix(x, t, Rc::new(b))
            }
            21 => {
                let n = self.sym()?;
                let kt = self.u32()? as usize;
                let mut ts = Vec::with_capacity(cap(kt));
                for _ in 0..kt {
                    ts.push(self.ty()?);
                }
                let kf = self.u32()? as usize;
                let mut fields = Vec::with_capacity(cap(kf));
                for _ in 0..kf {
                    let f = self.sym()?;
                    let e = self.expr()?;
                    fields.push((f, e));
                }
                Expr::Make(n, ts, fields)
            }
            22 => {
                let e = self.expr()?;
                let f = self.sym()?;
                Expr::Proj(Rc::new(e), f)
            }
            23 => {
                let c = self.sym()?;
                let kt = self.u32()? as usize;
                let mut ts = Vec::with_capacity(cap(kt));
                for _ in 0..kt {
                    ts.push(self.ty()?);
                }
                let ka = self.u32()? as usize;
                let mut args = Vec::with_capacity(cap(ka));
                for _ in 0..ka {
                    args.push(self.expr()?);
                }
                Expr::Inject(c, ts, args)
            }
            24 => {
                let scrut = self.expr()?;
                let k = self.u32()? as usize;
                let mut arms = Vec::with_capacity(cap(k));
                for _ in 0..k {
                    let ctor = self.sym()?;
                    let nb = self.u32()? as usize;
                    let mut binders = Vec::with_capacity(cap(nb));
                    for _ in 0..nb {
                        binders.push(self.sym()?);
                    }
                    let body = self.expr()?;
                    arms.push(MatchArm {
                        ctor,
                        binders,
                        body,
                    });
                }
                Expr::Match(Rc::new(scrut), arms)
            }
            b => return err(format!("bad expr tag {b}")),
        })
    }

    /// Reads a derivation table written by [`Enc::derivations`]; its
    /// nodes are then at [`Dec::derivation`], numbered on from earlier
    /// tables of the same payload. A premise must name an earlier
    /// node, so the table has no forward references and no cycles; an
    /// environment rule must name a level below `depth`, the frame
    /// count of the environment the derivations belong to, which also
    /// becomes their [`Resolution::env_depth`]; and no derivation may
    /// be higher than [`MAX_DECODE_DEPTH`].
    ///
    /// # Errors
    ///
    /// Any of those violations, or a malformed node.
    pub fn derivations(&mut self, depth: usize) -> Result<(), WireError> {
        let n = self.u32()? as usize;
        for _ in 0..n {
            let node = self.derivation_node(depth)?;
            self.derivations.push(node);
        }
        Ok(())
    }

    /// The derivation node at `index` of the tables read so far.
    ///
    /// # Errors
    ///
    /// An index not below the number of nodes read.
    pub fn derivation(&self, index: u32) -> Result<Rc<Resolution>, WireError> {
        self.derivations
            .get(index as usize)
            .map(|(r, _)| Rc::clone(r))
            .ok_or_else(|| WireError(format!("derivation index {index} is not a decoded node")))
    }

    fn derivation_node(&mut self, depth: usize) -> Result<(Rc<Resolution>, usize), WireError> {
        let query = self.rule()?;
        let tag = self.u8()?;
        let level = self.u32()? as usize;
        let index = self.u32()? as usize;
        let rule = match tag {
            0 if level < depth => RuleRef::Env { level, index },
            0 => return err(format!("rule level {level} is not below the depth {depth}")),
            1 => RuleRef::Extension { level, index },
            b => return err(format!("bad rule-ref tag {b}")),
        };
        let rule_type = self.rule()?;
        let kt = self.u32()? as usize;
        let mut type_args = Vec::with_capacity(cap(kt));
        for _ in 0..kt {
            type_args.push(self.ty()?);
        }
        let kp = self.u32()? as usize;
        let mut premises = Vec::with_capacity(cap(kp));
        let mut height = 1;
        for _ in 0..kp {
            premises.push(match self.u8()? {
                0 => Premise::Assumed {
                    index: self.u32()? as usize,
                    rho: self.rule()?,
                },
                1 => {
                    let ix = self.u32()? as usize;
                    let Some((node, h)) = self.derivations.get(ix) else {
                        return err(format!("premise {ix} is not an earlier node"));
                    };
                    height = height.max(h + 1);
                    Premise::Derived(Rc::clone(node))
                }
                b => return err(format!("bad premise tag {b}")),
            });
        }
        if height > MAX_DECODE_DEPTH {
            return err(format!("derivation higher than {MAX_DECODE_DEPTH}"));
        }
        let node = Resolution {
            query,
            rule,
            rule_type,
            type_args,
            premises,
            env_depth: depth,
        };
        Ok((Rc::new(node), height))
    }

    /// Reads an overlap policy.
    pub fn overlap(&mut self) -> Result<OverlapPolicy, WireError> {
        Ok(match self.u8()? {
            0 => OverlapPolicy::Forbid,
            1 => OverlapPolicy::MostSpecific,
            b => return err(format!("bad overlap tag {b}")),
        })
    }

    /// Reads a binary operator.
    pub fn binop(&mut self) -> Result<BinOp, WireError> {
        binop_from(self.u8()?)
    }

    /// Reads a unary operator.
    pub fn unop(&mut self) -> Result<UnOp, WireError> {
        unop_from(self.u8()?)
    }

    /// Reads a resolution policy.
    pub fn policy(&mut self) -> Result<ResolutionPolicy, WireError> {
        let overlap = match self.u8()? {
            0 => OverlapPolicy::Forbid,
            1 => OverlapPolicy::MostSpecific,
            b => return err(format!("bad overlap tag {b}")),
        };
        let env_extension = self.bool()?;
        let max_depth = self.len()?;
        let cache = self.bool()?;
        Ok(ResolutionPolicy {
            overlap,
            env_extension,
            max_depth,
            cache,
        })
    }
}

fn binop_from(b: u8) -> Result<BinOp, WireError> {
    Ok(match b {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Eq,
        6 => BinOp::Lt,
        7 => BinOp::Le,
        8 => BinOp::And,
        9 => BinOp::Or,
        10 => BinOp::Concat,
        b => return err(format!("bad binop tag {b}")),
    })
}

fn unop_from(b: u8) -> Result<UnOp, WireError> {
    Ok(match b {
        0 => UnOp::Not,
        1 => UnOp::Neg,
        2 => UnOp::IntToStr,
        b => return err(format!("bad unop tag {b}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_strings() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(1234);
        e.u32(99_999);
        e.u64(1 << 40);
        e.i64(-42);
        e.bool(true);
        e.str("héllo");
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).unwrap();
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 1234);
        assert_eq!(d.u32().unwrap(), 99_999);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.i64().unwrap(), -42);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert!(d.at_end());
    }

    #[test]
    fn checksum_detects_bit_flip() {
        let mut e = Enc::new();
        e.str("payload");
        let mut bytes = e.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(Dec::new(&bytes).is_err());
    }

    #[test]
    fn fnv64_continues_over_a_split() {
        let bytes = b"interface Eq a = { eq : a -> a -> Bool }";
        for cut in [0, 1, 17, bytes.len()] {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(fnv64_more(fnv64(a), b), fnv64(bytes), "cut at {cut}");
        }
    }

    #[test]
    fn checksum_detects_truncation() {
        let mut e = Enc::new();
        e.u64(123);
        let bytes = e.finish();
        assert!(Dec::new(&bytes[..bytes.len() - 3]).is_err());
        assert!(Dec::new(&bytes[..4]).is_err());
    }

    #[test]
    fn roundtrip_types_share_structure() {
        let t = Type::prod(
            Type::arrow(Type::Int, Type::Bool),
            Type::arrow(Type::Int, Type::Bool),
        );
        let mut e = Enc::new();
        e.ty(&t);
        e.ty(&t);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).unwrap();
        assert_eq!(d.ty().unwrap(), t);
        assert_eq!(d.ty().unwrap(), t);
        assert!(d.at_end());
    }

    #[test]
    fn roundtrip_rule_and_expr() {
        let rho = RuleType::mono(vec![Type::Int.promote()], Type::Bool);
        let e0 = Expr::implicit(
            vec![(Expr::Int(3), Type::Int.promote())],
            Expr::query_simple(Type::Int),
            Type::Int,
        );
        let mut e = Enc::new();
        e.rule(&rho);
        e.expr(&e0);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).unwrap();
        assert_eq!(d.rule().unwrap(), rho);
        assert_eq!(d.expr().unwrap(), e0);
    }

    #[test]
    fn roundtrip_policy() {
        let p = ResolutionPolicy::default().with_most_specific();
        let mut e = Enc::new();
        e.policy(&p);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).unwrap();
        assert_eq!(d.policy().unwrap(), p);
    }

    /// `Tₖ = Tₖ₋₁ × Int` over `T₀ = Int`.
    fn chain_type(k: usize) -> Type {
        (0..k).fold(Type::Int, |t, _| Type::prod(t, Type::Int))
    }

    /// A chain environment, one rule `{Tₖ₋₁} ⇒ Tₖ` per frame over `Int`.
    fn chain_env(n: usize) -> crate::env::ImplicitEnv {
        let mut env = crate::env::ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        for k in 1..=n {
            env.push(vec![RuleType::mono(
                vec![chain_type(k - 1).promote()],
                chain_type(k),
            )]);
        }
        env
    }

    #[test]
    fn a_derivation_table_holds_each_shared_node_once() {
        let env = chain_env(8);
        let policy = ResolutionPolicy::paper();
        let top = crate::resolve::resolve(&env, &chain_type(8).promote(), &policy).unwrap();
        let mid = crate::resolve::resolve(&env, &chain_type(3).promote(), &policy).unwrap();
        let mut e = Enc::new();
        let roots = e.derivations([&top, &mid]);
        assert_eq!(roots, [8, 3], "premises are numbered before their parents");
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).unwrap();
        d.derivations(env.depth()).unwrap();
        assert!(d.at_end());
        assert!(d.derivation(9).is_err(), "nine distinct nodes");
        let (a, b) = (d.derivation(8).unwrap(), d.derivation(3).unwrap());
        assert_eq!((&*a, &*b), (&*top, &*mid));
        // The decoded DAG shares the node the two roots have in common.
        let mut node = a;
        while node.query != b.query {
            let Premise::Derived(next) = &node.premises[0] else {
                panic!("a chain step derives its premise");
            };
            node = Rc::clone(next);
        }
        assert!(Rc::ptr_eq(&node, &b));
        // And re-encodes to the same bytes.
        let mut again = Enc::new();
        again.derivations([&d.derivation(8).unwrap(), &b]);
        assert_eq!(again.finish(), bytes);
    }

    /// A derivation table of `Int`-headed nodes, each with the level
    /// given and premises naming the nodes given.
    fn table(nodes: &[(u32, &[u32])]) -> Vec<u8> {
        let int = Type::Int.promote();
        let mut e = Enc::new();
        e.u32(nodes.len() as u32);
        for (level, premises) in nodes {
            e.rule(&int);
            e.u8(0);
            e.u32(*level);
            e.u32(0);
            e.rule(&int);
            e.u32(0);
            e.u32(premises.len() as u32);
            for p in *premises {
                e.u8(1);
                e.u32(*p);
            }
        }
        e.finish()
    }

    fn decodes(bytes: &[u8], depth: usize) -> Result<(), WireError> {
        Dec::new(bytes)?.derivations(depth)
    }

    #[test]
    fn corrupt_derivation_tables_are_decode_errors() {
        assert!(decodes(&table(&[(0, &[]), (1, &[0])]), 2).is_ok());
        for (class, bytes) in [
            ("premise out of range", table(&[(0, &[7])])),
            ("premise points forward", table(&[(0, &[1]), (0, &[])])),
            ("premise names its own node", table(&[(0, &[0])])),
            ("level at the depth", table(&[(0, &[]), (2, &[0])])),
        ] {
            let e = decodes(&bytes, 2).expect_err(class);
            assert!(!e.0.is_empty(), "{class}");
        }
        // A chain one node higher than the bound.
        let chain: Vec<(u32, Vec<u32>)> = (0..=MAX_DECODE_DEPTH as u32)
            .map(|i| (0, if i == 0 { vec![] } else { vec![i - 1] }))
            .collect();
        let nodes: Vec<(u32, &[u32])> = chain.iter().map(|(l, p)| (*l, &p[..])).collect();
        assert!(decodes(&table(&nodes[..MAX_DECODE_DEPTH]), 1).is_ok());
        let e = decodes(&table(&nodes), 1).unwrap_err();
        assert!(e.0.contains("higher than"), "{e}");
    }

    #[test]
    fn nesting_past_the_bound_is_a_decode_error() {
        // Decoding at the bound takes a few MiB of stack, as on the
        // threads that decode artifacts.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                // `levels` list constructors around `Int`: one nesting level
                // each, and one for `Int`.
                let nested = |levels: usize| {
                    let mut e = Enc::new();
                    for _ in 0..levels {
                        e.u8(1);
                        e.u8(7);
                    }
                    e.u8(1);
                    e.u8(1);
                    e.finish()
                };
                let at_bound = nested(MAX_DECODE_DEPTH - 1);
                let t = Dec::new(&at_bound).unwrap().ty().unwrap();
                assert_eq!(t.to_string().matches('[').count(), MAX_DECODE_DEPTH - 1);
                for levels in [MAX_DECODE_DEPTH, 200_000] {
                    let e = Dec::new(&nested(levels)).unwrap().ty().unwrap_err();
                    assert!(e.0.contains("nesting deeper than"), "{e}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
