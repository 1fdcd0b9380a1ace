//! Artifact serialization for System F values and bytecode.
//!
//! Extends the core wire format ([`implicit_core::wire`]) with the
//! elaborated-language types this crate owns: [`FType`]/[`FExpr`]
//! trees, runtime [`Value`] graphs (including closures and their
//! captured [`Env`] spines), and compiled [`CodeParts`].
//!
//! Value graphs share structure aggressively — environment spines are
//! built incrementally, so every closure in the prelude environment
//! captures a prefix of the same spine. The encoder therefore memoizes
//! every `Rc`-shared node (environments, values, value vectors, record
//! field vectors, expression bodies, VM closures) by pointer identity
//! and emits backreferences, and the decoder rebuilds the same
//! sharing. Indices are assigned in postorder on both sides (the
//! encoder registers a node *after* encoding its content, the decoder
//! pushes *after* decoding it), so the two tables stay aligned through
//! arbitrary nesting.
//!
//! Environment spines are encoded iteratively (outermost new node
//! first) rather than by recursing on `next`, so a thousand-binding
//! prelude cannot overflow the stack; by the time a node's binding is
//! encoded, everything outward of it is already memoized, which keeps
//! the recursion depth bounded by value depth, not spine length.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use implicit_core::list::List;
use implicit_core::symbol::Symbol;
use implicit_core::syntax::TyCon;
use implicit_core::wire::{cap, Dec, Enc, WireError};

use crate::compile::{
    CapSrc, CodeParts, FuncCode, FuncKind, Instr, Isa, MatchArmCode, MatchTable, RK_CONST, RK_MASK,
};
use crate::eval::{Binding, Env, EnvNode, Value};
use crate::syntax::{FExpr, FMatchArm, FType};
use crate::vm::VmClosure;

fn err<T>(msg: String) -> Result<T, WireError> {
    Err(WireError(msg))
}

/// The wire tag of an [`Isa`]: the first byte of every encoded
/// [`CodeParts`], and the ISA byte of an artifact's header and
/// content key.
pub fn isa_tag(isa: Isa) -> u8 {
    match isa {
        Isa::Register => 0,
    }
}

/// Reads back an [`isa_tag`].
///
/// # Errors
///
/// Any byte that is not an ISA's tag.
pub fn isa_from_tag(tag: u8) -> Result<Isa, WireError> {
    match tag {
        0 => Ok(Isa::Register),
        t => err(format!("unknown isa tag {t}")),
    }
}

/// Encoder context for System F data: wraps a core [`Enc`] with the
/// pointer-memo tables value graphs need.
pub struct SfEnc<'a> {
    /// The underlying byte encoder (shared symbol/type memo).
    pub e: &'a mut Enc,
    envs: HashMap<usize, u32>,
    vals: HashMap<usize, u32>,
    valvecs: HashMap<usize, u32>,
    /// Value vectors written in full so far (an empty list is
    /// written in full every time, with no entry in `valvecs`).
    valvec_count: usize,
    recfields: HashMap<usize, u32>,
    fexprs: HashMap<usize, u32>,
    vmclosures: HashMap<usize, u32>,
}

impl<'a> SfEnc<'a> {
    /// Wraps `e` with fresh memo tables.
    pub fn new(e: &'a mut Enc) -> SfEnc<'a> {
        SfEnc {
            e,
            envs: HashMap::new(),
            vals: HashMap::new(),
            valvecs: HashMap::new(),
            valvec_count: 0,
            recfields: HashMap::new(),
            fexprs: HashMap::new(),
            vmclosures: HashMap::new(),
        }
    }

    /// Writes an elaborated type.
    pub fn ftype(&mut self, t: &FType) {
        match t {
            FType::Var(x) => {
                self.e.u8(0);
                self.e.sym(*x);
            }
            FType::Int => self.e.u8(1),
            FType::Bool => self.e.u8(2),
            FType::Str => self.e.u8(3),
            FType::Unit => self.e.u8(4),
            FType::Arrow(a, b) => {
                self.e.u8(5);
                self.ftype(a);
                self.ftype(b);
            }
            FType::Prod(a, b) => {
                self.e.u8(6);
                self.ftype(a);
                self.ftype(b);
            }
            FType::List(t) => {
                self.e.u8(7);
                self.ftype(t);
            }
            FType::Con(name, args) => {
                self.e.u8(8);
                self.e.sym(*name);
                self.e.len(args.len());
                for a in args {
                    self.ftype(a);
                }
            }
            FType::VarApp(f, args) => {
                self.e.u8(9);
                self.e.sym(*f);
                self.e.len(args.len());
                for a in args {
                    self.ftype(a);
                }
            }
            FType::Ctor(TyCon::List) => self.e.u8(10),
            FType::Ctor(TyCon::Named(n)) => {
                self.e.u8(11);
                self.e.sym(*n);
            }
            FType::Forall(a, body) => {
                self.e.u8(12);
                self.e.sym(*a);
                self.ftype(body);
            }
        }
    }

    /// Writes a shared expression body, memoized by pointer.
    pub fn fexpr_rc(&mut self, r: &Rc<FExpr>) {
        let key = Rc::as_ptr(r) as usize;
        if let Some(&ix) = self.fexprs.get(&key) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.fexpr(r);
        let ix = u32::try_from(self.fexprs.len()).expect("fexpr memo overflow");
        self.fexprs.insert(key, ix);
    }

    /// Writes an elaborated expression.
    #[allow(clippy::too_many_lines)]
    pub fn fexpr(&mut self, x: &FExpr) {
        match x {
            FExpr::Int(n) => {
                self.e.u8(0);
                self.e.i64(*n);
            }
            FExpr::Bool(b) => {
                self.e.u8(1);
                self.e.bool(*b);
            }
            FExpr::Str(s) => {
                self.e.u8(2);
                self.e.str(s);
            }
            FExpr::Unit => self.e.u8(3),
            FExpr::Var(v) => {
                self.e.u8(4);
                self.e.sym(*v);
            }
            FExpr::Lam(p, t, b) => {
                self.e.u8(5);
                self.e.sym(*p);
                self.ftype(t);
                self.fexpr_rc(b);
            }
            FExpr::App(f, a) => {
                self.e.u8(6);
                self.fexpr_rc(f);
                self.fexpr_rc(a);
            }
            FExpr::TyAbs(a, b) => {
                self.e.u8(7);
                self.e.sym(*a);
                self.fexpr_rc(b);
            }
            FExpr::TyApp(f, t) => {
                self.e.u8(8);
                self.fexpr_rc(f);
                self.ftype(t);
            }
            FExpr::If(c, t, f) => {
                self.e.u8(9);
                self.fexpr_rc(c);
                self.fexpr_rc(t);
                self.fexpr_rc(f);
            }
            FExpr::BinOp(op, a, b) => {
                self.e.u8(10);
                self.e.binop(*op);
                self.fexpr_rc(a);
                self.fexpr_rc(b);
            }
            FExpr::UnOp(op, a) => {
                self.e.u8(11);
                self.e.unop(*op);
                self.fexpr_rc(a);
            }
            FExpr::Pair(a, b) => {
                self.e.u8(12);
                self.fexpr_rc(a);
                self.fexpr_rc(b);
            }
            FExpr::Fst(p) => {
                self.e.u8(13);
                self.fexpr_rc(p);
            }
            FExpr::Snd(p) => {
                self.e.u8(14);
                self.fexpr_rc(p);
            }
            FExpr::Nil(t) => {
                self.e.u8(15);
                self.ftype(t);
            }
            FExpr::Cons(h, t) => {
                self.e.u8(16);
                self.fexpr_rc(h);
                self.fexpr_rc(t);
            }
            FExpr::ListCase {
                scrut,
                nil,
                head,
                tail,
                cons,
            } => {
                self.e.u8(17);
                self.fexpr_rc(scrut);
                self.fexpr_rc(nil);
                self.e.sym(*head);
                self.e.sym(*tail);
                self.fexpr_rc(cons);
            }
            FExpr::Fix(x, t, b) => {
                self.e.u8(18);
                self.e.sym(*x);
                self.ftype(t);
                self.fexpr_rc(b);
            }
            FExpr::Make(name, tys, fields) => {
                self.e.u8(19);
                self.e.sym(*name);
                self.e.len(tys.len());
                for t in tys {
                    self.ftype(t);
                }
                self.e.len(fields.len());
                for (f, v) in fields {
                    self.e.sym(*f);
                    self.fexpr(v);
                }
            }
            FExpr::Proj(r, f) => {
                self.e.u8(20);
                self.fexpr_rc(r);
                self.e.sym(*f);
            }
            FExpr::Inject(ctor, tys, args) => {
                self.e.u8(21);
                self.e.sym(*ctor);
                self.e.len(tys.len());
                for t in tys {
                    self.ftype(t);
                }
                self.e.len(args.len());
                for a in args {
                    self.fexpr(a);
                }
            }
            FExpr::Match(scrut, arms) => {
                self.e.u8(22);
                self.fexpr_rc(scrut);
                self.e.len(arms.len());
                for arm in arms {
                    self.e.sym(arm.ctor);
                    self.e.len(arm.binders.len());
                    for b in &arm.binders {
                        self.e.sym(*b);
                    }
                    self.fexpr(&arm.body);
                }
            }
        }
    }

    /// Writes a runtime value.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Int(n) => {
                self.e.u8(0);
                self.e.i64(*n);
            }
            Value::Bool(b) => {
                self.e.u8(1);
                self.e.bool(*b);
            }
            Value::Str(s) => {
                self.e.u8(2);
                self.e.str(s);
            }
            Value::Unit => self.e.u8(3),
            Value::Pair(a, b) => {
                self.e.u8(4);
                self.val_rc(a);
                self.val_rc(b);
            }
            Value::List(xs) => {
                self.e.u8(5);
                self.valvec(xs.first_addr(), xs.len(), xs.iter());
            }
            Value::Closure { param, body, env } => {
                self.e.u8(6);
                self.e.sym(*param);
                self.fexpr_rc(body);
                self.env(env);
            }
            Value::TyClosure { body, env } => {
                self.e.u8(7);
                self.fexpr_rc(body);
                self.env(env);
            }
            Value::Record { name, fields } => {
                self.e.u8(8);
                self.e.sym(*name);
                self.recfields(fields);
            }
            Value::Data { ctor, fields } => {
                self.e.u8(9);
                self.e.sym(*ctor);
                self.valvec(
                    Some(Rc::as_ptr(fields) as usize),
                    fields.len(),
                    fields.iter(),
                );
            }
            Value::CompiledClosure(c) => {
                self.e.u8(10);
                self.vmclosure(c);
            }
            Value::CompiledTyClosure(c) => {
                self.e.u8(11);
                self.vmclosure(c);
            }
            Value::CompiledRec(c) => {
                self.e.u8(12);
                self.vmclosure(c);
            }
        }
    }

    /// Writes a shared value, memoized by pointer.
    pub fn val_rc(&mut self, r: &Rc<Value>) {
        let key = Rc::as_ptr(r) as usize;
        if let Some(&ix) = self.vals.get(&key) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.value(r);
        let ix = u32::try_from(self.vals.len()).expect("value memo overflow");
        self.vals.insert(key, ix);
    }

    /// Writes a value vector (data fields or a list; they share one
    /// index space) identified by `key`: `1`, length, elements the
    /// first time, `0`, index after. An empty list has no identity
    /// (`None`) and is written in full every time.
    fn valvec<'v>(
        &mut self,
        key: Option<usize>,
        len: usize,
        items: impl Iterator<Item = &'v Value>,
    ) {
        if let Some(&ix) = key.and_then(|k| self.valvecs.get(&k)) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.e.len(len);
        for v in items {
            self.value(v);
        }
        let ix = u32::try_from(self.valvec_count).expect("valvec memo overflow");
        self.valvec_count += 1;
        if let Some(k) = key {
            self.valvecs.insert(k, ix);
        }
    }

    fn recfields(&mut self, r: &Rc<Vec<(Symbol, Value)>>) {
        let key = Rc::as_ptr(r) as usize;
        if let Some(&ix) = self.recfields.get(&key) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.e.len(r.len());
        for (f, v) in r.iter() {
            self.e.sym(*f);
            self.value(v);
        }
        let ix = u32::try_from(self.recfields.len()).expect("recfields memo overflow");
        self.recfields.insert(key, ix);
    }

    fn vmclosure(&mut self, r: &Rc<VmClosure>) {
        let key = Rc::as_ptr(r) as usize;
        if let Some(&ix) = self.vmclosures.get(&key) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.e.u32(r.func);
        self.e.len(r.captures.len());
        for v in &r.captures {
            self.value(v);
        }
        let ix = u32::try_from(self.vmclosures.len()).expect("vmclosure memo overflow");
        self.vmclosures.insert(key, ix);
    }

    /// Writes an environment spine.
    ///
    /// Layout: `u32` count of nodes not yet memoized, a tail (0 =
    /// empty environment, 1 + index = backreference to a shared
    /// node), then the new nodes outermost-first.
    pub fn env(&mut self, env: &Env) {
        let mut fresh: Vec<Rc<EnvNode>> = Vec::new();
        let mut tail: Option<u32> = None;
        for n in env.nodes() {
            let key = Rc::as_ptr(n) as usize;
            if let Some(&ix) = self.envs.get(&key) {
                tail = Some(ix);
                break;
            }
            fresh.push(n.clone());
        }
        self.e.len(fresh.len());
        match tail {
            None => self.e.u8(0),
            Some(ix) => {
                self.e.u8(1);
                self.e.u32(ix);
            }
        }
        for n in fresh.iter().rev() {
            self.e.sym(n.name);
            match &n.value {
                Binding::Done(v) => {
                    self.e.u8(0);
                    self.value(v);
                }
                Binding::Rec { body, env } => {
                    self.e.u8(1);
                    self.fexpr_rc(body);
                    self.env(env);
                }
            }
            let key = Rc::as_ptr(n) as usize;
            let ix = u32::try_from(self.envs.len()).expect("env memo overflow");
            self.envs.insert(key, ix);
        }
    }

    /// Writes compiled code parts for rehydrating a [`crate::compile::Compiler`].
    pub fn code_parts(&mut self, p: &CodeParts) {
        self.e.u8(isa_tag(Isa::Register));
        self.e.bool(p.fusion);
        self.e.len(p.globals.len());
        for g in &p.globals {
            self.e.sym(*g);
        }
        self.e.len(p.consts.len());
        for v in &p.consts {
            self.value(v);
        }
        self.e.len(p.field_lists.len());
        for fl in &p.field_lists {
            self.e.len(fl.len());
            for f in fl.iter() {
                self.e.sym(*f);
            }
        }
        self.e.len(p.match_tables.len());
        for mt in &p.match_tables {
            self.e.len(mt.arms.len());
            for arm in &mt.arms {
                self.e.sym(arm.ctor);
                self.e.u16(arm.binder_base);
                self.e.u16(arm.binders);
                self.e.u32(arm.target);
            }
        }
        self.e.len(p.funcs.len());
        for f in &p.funcs {
            self.func_code(f);
        }
    }

    fn func_code(&mut self, f: &FuncCode) {
        self.e.u8(match f.kind {
            FuncKind::Lambda => 0,
            FuncKind::TyAbs => 1,
            FuncKind::FixBody => 2,
            FuncKind::Main => 3,
        });
        self.e.u16(f.nslots);
        self.e.len(f.captures.len());
        for c in &f.captures {
            match c {
                CapSrc::Local(s) => {
                    self.e.u8(0);
                    self.e.u16(*s);
                }
                CapSrc::Capture(s) => {
                    self.e.u8(1);
                    self.e.u16(*s);
                }
                CapSrc::Rec => self.e.u8(2),
            }
        }
        self.e.len(f.code.len());
        for i in &f.code {
            self.instr(i);
        }
    }

    /// Writes one instruction.
    #[allow(clippy::too_many_lines)]
    pub fn instr(&mut self, i: &Instr) {
        let e = &mut *self.e;
        match *i {
            Instr::Jump(t) => {
                e.u8(12);
                e.u32(t);
            }
            Instr::RConst { dst, konst } => {
                e.u8(37);
                e.u16(dst);
                e.u32(konst);
            }
            Instr::RMove { dst, src } => {
                e.u8(38);
                e.u16(dst);
                e.u16(src);
            }
            Instr::RCapture { dst, idx } => {
                e.u8(39);
                e.u16(dst);
                e.u16(idx);
            }
            Instr::RGlobal { dst, idx } => {
                e.u8(40);
                e.u16(dst);
                e.u32(idx);
            }
            Instr::RRec { dst } => {
                e.u8(41);
                e.u16(dst);
            }
            Instr::RClosure { dst, func } => {
                e.u8(42);
                e.u16(dst);
                e.u32(func);
            }
            Instr::RTyClosure { dst, func } => {
                e.u8(43);
                e.u16(dst);
                e.u32(func);
            }
            Instr::REnterFix { dst, func } => {
                e.u8(44);
                e.u16(dst);
                e.u32(func);
            }
            Instr::RCall { dst, f, arg } => {
                e.u8(45);
                e.u16(dst);
                e.u16(f);
                e.u16(arg);
            }
            Instr::RTailCall { f, arg } => {
                e.u8(46);
                e.u16(f);
                e.u16(arg);
            }
            Instr::RForce { dst, src } => {
                e.u8(47);
                e.u16(dst);
                e.u16(src);
            }
            Instr::RRet { src } => {
                e.u8(48);
                e.u16(src);
            }
            Instr::RJumpIfFalse { cond, target } => {
                e.u8(49);
                e.u16(cond);
                e.u32(target);
            }
            Instr::RBin { op, dst, a, b } => {
                e.u8(50);
                e.binop(op);
                e.u16(dst);
                e.u16(a);
                e.u16(b);
            }
            Instr::RUn { op, dst, src } => {
                e.u8(51);
                e.unop(op);
                e.u16(dst);
                e.u16(src);
            }
            Instr::RPair { dst, a, b } => {
                e.u8(52);
                e.u16(dst);
                e.u16(a);
                e.u16(b);
            }
            Instr::RFst { dst, src } => {
                e.u8(53);
                e.u16(dst);
                e.u16(src);
            }
            Instr::RSnd { dst, src } => {
                e.u8(54);
                e.u16(dst);
                e.u16(src);
            }
            Instr::RCons { dst, head, tail } => {
                e.u8(55);
                e.u16(dst);
                e.u16(head);
                e.u16(tail);
            }
            Instr::RCaseList {
                src,
                head,
                tail,
                nil_target,
            } => {
                e.u8(56);
                e.u16(src);
                e.u16(head);
                e.u16(tail);
                e.u32(nil_target);
            }
            Instr::RMakeRecord {
                dst,
                base,
                name,
                fields,
            } => {
                e.u8(57);
                e.u16(dst);
                e.u16(base);
                e.sym(name);
                e.u32(fields);
            }
            Instr::RProject { dst, src, field } => {
                e.u8(58);
                e.u16(dst);
                e.u16(src);
                e.sym(field);
            }
            Instr::RInject {
                dst,
                base,
                ctor,
                argc,
            } => {
                e.u8(59);
                e.u16(dst);
                e.u16(base);
                e.sym(ctor);
                e.u16(argc);
            }
            Instr::RMatch { src, tbl } => {
                e.u8(60);
                e.u16(src);
                e.u32(tbl);
            }
            Instr::RBinJump { op, a, b, target } => {
                e.u8(61);
                e.binop(op);
                e.u16(a);
                e.u16(b);
                e.u32(target);
            }
            Instr::RBinRet { op, a, b } => {
                e.u8(62);
                e.binop(op);
                e.u16(a);
                e.u16(b);
            }
            Instr::RBinTail { op, f, a, b } => {
                e.u8(63);
                e.binop(op);
                e.u16(f);
                e.u16(a);
                e.u16(b);
            }
            Instr::RCapBinTail { op, idx, a, b } => {
                e.u8(64);
                e.binop(op);
                e.u16(idx);
                e.u16(a);
                e.u16(b);
            }
        }
    }
}

/// A decoded value vector: data fields and lists share one
/// back-reference index space.
enum ValVec {
    Fields(Rc<Vec<Value>>),
    List(List<Value>),
}

/// Decoder context mirroring [`SfEnc`].
pub struct SfDec<'a, 'b> {
    /// The underlying byte decoder.
    pub d: &'b mut Dec<'a>,
    /// Kind and capture count of each function of the code object
    /// read by [`SfDec::code_parts`]. Compiled closures decoded after
    /// it are checked against this table on the spot, so a corrupted
    /// artifact cannot smuggle in a code pointer the VM would misuse.
    funcs: Option<Vec<(FuncKind, usize)>>,
    /// Compiled closures decoded before the function table (the
    /// constant pool's), with the kind their value tag requires;
    /// checked once the table is read.
    unchecked: Vec<(Rc<VmClosure>, FuncKind)>,
    envs: Vec<Rc<EnvNode>>,
    vals: Vec<Rc<Value>>,
    valvecs: Vec<ValVec>,
    recfields: Vec<Rc<Vec<(Symbol, Value)>>>,
    fexprs: Vec<Rc<FExpr>>,
    vmclosures: Vec<Rc<VmClosure>>,
}

impl<'a, 'b> SfDec<'a, 'b> {
    /// Wraps `d` with fresh memo tables.
    pub fn new(d: &'b mut Dec<'a>) -> SfDec<'a, 'b> {
        SfDec {
            d,
            funcs: None,
            unchecked: Vec::new(),
            envs: Vec::new(),
            vals: Vec::new(),
            valvecs: Vec::new(),
            recfields: Vec::new(),
            fexprs: Vec::new(),
            vmclosures: Vec::new(),
        }
    }

    /// Reads an elaborated type.
    pub fn ftype(&mut self) -> Result<FType, WireError> {
        self.d.enter()?;
        let t = self.ftype_node();
        self.d.leave();
        t
    }

    fn ftype_node(&mut self) -> Result<FType, WireError> {
        Ok(match self.d.u8()? {
            0 => FType::Var(self.d.sym()?),
            1 => FType::Int,
            2 => FType::Bool,
            3 => FType::Str,
            4 => FType::Unit,
            5 => {
                let a = self.ftype()?;
                let b = self.ftype()?;
                FType::Arrow(Rc::new(a), Rc::new(b))
            }
            6 => {
                let a = self.ftype()?;
                let b = self.ftype()?;
                FType::Prod(Rc::new(a), Rc::new(b))
            }
            7 => FType::List(Rc::new(self.ftype()?)),
            8 => {
                let name = self.d.sym()?;
                let n = self.d.len()?;
                let mut args = Vec::with_capacity(cap(n));
                for _ in 0..n {
                    args.push(self.ftype()?);
                }
                FType::Con(name, args)
            }
            9 => {
                let f = self.d.sym()?;
                let n = self.d.len()?;
                let mut args = Vec::with_capacity(cap(n));
                for _ in 0..n {
                    args.push(self.ftype()?);
                }
                FType::VarApp(f, args)
            }
            10 => FType::Ctor(TyCon::List),
            11 => FType::Ctor(TyCon::Named(self.d.sym()?)),
            12 => {
                let a = self.d.sym()?;
                FType::Forall(a, Rc::new(self.ftype()?))
            }
            t => return err(format!("bad ftype tag {t}")),
        })
    }

    /// Reads a shared expression body.
    pub fn fexpr_rc(&mut self) -> Result<Rc<FExpr>, WireError> {
        match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                self.fexprs
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("fexpr backref {ix} out of range")))
            }
            1 => {
                let x = Rc::new(self.fexpr()?);
                self.fexprs.push(x.clone());
                Ok(x)
            }
            t => err(format!("bad fexpr memo tag {t}")),
        }
    }

    /// Reads an elaborated expression.
    pub fn fexpr(&mut self) -> Result<FExpr, WireError> {
        self.d.enter()?;
        let x = self.fexpr_node();
        self.d.leave();
        x
    }

    #[allow(clippy::too_many_lines)]
    fn fexpr_node(&mut self) -> Result<FExpr, WireError> {
        Ok(match self.d.u8()? {
            0 => FExpr::Int(self.d.i64()?),
            1 => FExpr::Bool(self.d.bool()?),
            2 => FExpr::Str(self.d.str()?),
            3 => FExpr::Unit,
            4 => FExpr::Var(self.d.sym()?),
            5 => {
                let p = self.d.sym()?;
                let t = self.ftype()?;
                FExpr::Lam(p, t, self.fexpr_rc()?)
            }
            6 => {
                let f = self.fexpr_rc()?;
                FExpr::App(f, self.fexpr_rc()?)
            }
            7 => {
                let a = self.d.sym()?;
                FExpr::TyAbs(a, self.fexpr_rc()?)
            }
            8 => {
                let f = self.fexpr_rc()?;
                FExpr::TyApp(f, self.ftype()?)
            }
            9 => {
                let c = self.fexpr_rc()?;
                let t = self.fexpr_rc()?;
                FExpr::If(c, t, self.fexpr_rc()?)
            }
            10 => {
                let op = self.d.binop()?;
                let a = self.fexpr_rc()?;
                FExpr::BinOp(op, a, self.fexpr_rc()?)
            }
            11 => {
                let op = self.d.unop()?;
                FExpr::UnOp(op, self.fexpr_rc()?)
            }
            12 => {
                let a = self.fexpr_rc()?;
                FExpr::Pair(a, self.fexpr_rc()?)
            }
            13 => FExpr::Fst(self.fexpr_rc()?),
            14 => FExpr::Snd(self.fexpr_rc()?),
            15 => FExpr::Nil(self.ftype()?),
            16 => {
                let h = self.fexpr_rc()?;
                FExpr::Cons(h, self.fexpr_rc()?)
            }
            17 => {
                let scrut = self.fexpr_rc()?;
                let nil = self.fexpr_rc()?;
                let head = self.d.sym()?;
                let tail = self.d.sym()?;
                let cons = self.fexpr_rc()?;
                FExpr::ListCase {
                    scrut,
                    nil,
                    head,
                    tail,
                    cons,
                }
            }
            18 => {
                let x = self.d.sym()?;
                let t = self.ftype()?;
                FExpr::Fix(x, t, self.fexpr_rc()?)
            }
            19 => {
                let name = self.d.sym()?;
                let nt = self.d.len()?;
                let mut tys = Vec::with_capacity(cap(nt));
                for _ in 0..nt {
                    tys.push(self.ftype()?);
                }
                let nf = self.d.len()?;
                let mut fields = Vec::with_capacity(cap(nf));
                for _ in 0..nf {
                    let f = self.d.sym()?;
                    fields.push((f, self.fexpr()?));
                }
                FExpr::Make(name, tys, fields)
            }
            20 => {
                let r = self.fexpr_rc()?;
                FExpr::Proj(r, self.d.sym()?)
            }
            21 => {
                let ctor = self.d.sym()?;
                let nt = self.d.len()?;
                let mut tys = Vec::with_capacity(cap(nt));
                for _ in 0..nt {
                    tys.push(self.ftype()?);
                }
                let na = self.d.len()?;
                let mut args = Vec::with_capacity(cap(na));
                for _ in 0..na {
                    args.push(self.fexpr()?);
                }
                FExpr::Inject(ctor, tys, args)
            }
            22 => {
                let scrut = self.fexpr_rc()?;
                let n = self.d.len()?;
                let mut arms = Vec::with_capacity(cap(n));
                for _ in 0..n {
                    let ctor = self.d.sym()?;
                    let nb = self.d.len()?;
                    let mut binders = Vec::with_capacity(cap(nb));
                    for _ in 0..nb {
                        binders.push(self.d.sym()?);
                    }
                    let body = self.fexpr()?;
                    arms.push(FMatchArm {
                        ctor,
                        binders,
                        body,
                    });
                }
                FExpr::Match(scrut, arms)
            }
            t => return err(format!("bad fexpr tag {t}")),
        })
    }

    /// Reads a runtime value.
    pub fn value(&mut self) -> Result<Value, WireError> {
        self.d.enter()?;
        let v = self.value_node();
        self.d.leave();
        v
    }

    fn value_node(&mut self) -> Result<Value, WireError> {
        Ok(match self.d.u8()? {
            0 => Value::Int(self.d.i64()?),
            1 => Value::Bool(self.d.bool()?),
            2 => Value::Str(Rc::from(self.d.str()?.as_str())),
            3 => Value::Unit,
            4 => {
                let a = self.val_rc()?;
                Value::Pair(a, self.val_rc()?)
            }
            5 => Value::List(self.list()?),
            6 => {
                let param = self.d.sym()?;
                let body = self.fexpr_rc()?;
                let env = self.env()?;
                Value::Closure { param, body, env }
            }
            7 => {
                let body = self.fexpr_rc()?;
                let env = self.env()?;
                Value::TyClosure { body, env }
            }
            8 => {
                let name = self.d.sym()?;
                let fields = self.recfields()?;
                Value::Record { name, fields }
            }
            9 => {
                let ctor = self.d.sym()?;
                let fields = self.fields()?;
                Value::Data { ctor, fields }
            }
            10 => Value::CompiledClosure(self.vmclosure(FuncKind::Lambda)?),
            11 => Value::CompiledTyClosure(self.vmclosure(FuncKind::TyAbs)?),
            12 => Value::CompiledRec(self.vmclosure(FuncKind::FixBody)?),
            t => return err(format!("bad value tag {t}")),
        })
    }

    /// Reads a shared value.
    pub fn val_rc(&mut self) -> Result<Rc<Value>, WireError> {
        match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                self.vals
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("value backref {ix} out of range")))
            }
            1 => {
                let v = Rc::new(self.value()?);
                self.vals.push(v.clone());
                Ok(v)
            }
            t => err(format!("bad value memo tag {t}")),
        }
    }

    /// Reads the memo tag of a value vector: `Ok(Some(entry))` for a
    /// back-reference, `Ok(None)` when the elements follow.
    fn valvec_ref(&mut self) -> Result<Option<&ValVec>, WireError> {
        match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                match self.valvecs.get(ix) {
                    Some(entry) => Ok(Some(entry)),
                    None => err(format!("valvec backref {ix} out of range")),
                }
            }
            1 => Ok(None),
            t => err(format!("bad valvec memo tag {t}")),
        }
    }

    fn valvec_items(&mut self) -> Result<Vec<Value>, WireError> {
        let n = self.d.len()?;
        let mut xs = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            xs.push(self.value()?);
        }
        Ok(xs)
    }

    fn fields(&mut self) -> Result<Rc<Vec<Value>>, WireError> {
        match self.valvec_ref()? {
            Some(ValVec::Fields(rc)) => Ok(rc.clone()),
            Some(ValVec::List(_)) => err("data fields backref names a list".into()),
            None => {
                let rc = Rc::new(self.valvec_items()?);
                self.valvecs.push(ValVec::Fields(rc.clone()));
                Ok(rc)
            }
        }
    }

    fn list(&mut self) -> Result<List<Value>, WireError> {
        match self.valvec_ref()? {
            Some(ValVec::List(xs)) => Ok(xs.clone()),
            Some(ValVec::Fields(_)) => err("list backref names data fields".into()),
            None => {
                let xs = List::from_vec(self.valvec_items()?);
                self.valvecs.push(ValVec::List(xs.clone()));
                Ok(xs)
            }
        }
    }

    fn recfields(&mut self) -> Result<Rc<Vec<(Symbol, Value)>>, WireError> {
        match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                self.recfields
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("recfields backref {ix} out of range")))
            }
            1 => {
                let n = self.d.len()?;
                let mut xs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let f = self.d.sym()?;
                    xs.push((f, self.value()?));
                }
                let rc = Rc::new(xs);
                self.recfields.push(rc.clone());
                Ok(rc)
            }
            t => err(format!("bad recfields memo tag {t}")),
        }
    }

    /// Reads a compiled closure whose value tag requires a function
    /// of `kind`.
    fn vmclosure(&mut self, kind: FuncKind) -> Result<Rc<VmClosure>, WireError> {
        let rc = match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                self.vmclosures
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("vmclosure backref {ix} out of range")))?
            }
            1 => {
                let func = self.d.u32()?;
                let n = self.d.len()?;
                let mut captures = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    captures.push(self.value()?);
                }
                let rc = Rc::new(VmClosure { func, captures });
                self.vmclosures.push(rc.clone());
                rc
            }
            t => return err(format!("bad vmclosure memo tag {t}")),
        };
        match &self.funcs {
            Some(funcs) => check_closure(funcs, &rc, kind)?,
            None => self.unchecked.push((rc.clone(), kind)),
        }
        Ok(rc)
    }

    /// Reads an environment spine.
    pub fn env(&mut self) -> Result<Env, WireError> {
        let n = self.d.len()?;
        let mut env = match self.d.u8()? {
            0 => Env::new(),
            1 => {
                let ix = self.d.u32()? as usize;
                let node = self
                    .envs
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("env backref {ix} out of range")))?;
                Env { node: Some(node) }
            }
            t => return err(format!("bad env tail tag {t}")),
        };
        for _ in 0..n {
            let name = self.d.sym()?;
            let value = match self.d.u8()? {
                0 => Binding::Done(self.value()?),
                1 => {
                    let body = self.fexpr_rc()?;
                    self.d.enter()?;
                    let renv = self.env();
                    self.d.leave();
                    Binding::Rec { body, env: renv? }
                }
                t => return err(format!("bad binding tag {t}")),
            };
            let node = Rc::new(EnvNode {
                name,
                value,
                next: env,
            });
            self.envs.push(node.clone());
            env = Env { node: Some(node) };
        }
        Ok(env)
    }

    /// Reads compiled code parts, and checks every index the VM will
    /// take from them (see `check_code`).
    pub fn code_parts(&mut self) -> Result<CodeParts, WireError> {
        isa_from_tag(self.d.u8()?)?;
        let fusion = self.d.bool()?;
        let ng = self.d.len()?;
        let mut globals = Vec::with_capacity(ng.min(1 << 16));
        for _ in 0..ng {
            globals.push(self.d.sym()?);
        }
        let nc = self.d.len()?;
        let mut consts = Vec::with_capacity(nc.min(1 << 16));
        for _ in 0..nc {
            consts.push(self.value()?);
        }
        let nfl = self.d.len()?;
        let mut field_lists = Vec::with_capacity(nfl.min(1 << 16));
        for _ in 0..nfl {
            let n = self.d.len()?;
            let mut fl = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                fl.push(self.d.sym()?);
            }
            field_lists.push(Rc::from(fl.into_boxed_slice()));
        }
        let nmt = self.d.len()?;
        let mut match_tables = Vec::with_capacity(nmt.min(1 << 16));
        for _ in 0..nmt {
            let na = self.d.len()?;
            let mut arms = Vec::with_capacity(na.min(1 << 16));
            for _ in 0..na {
                let ctor = self.d.sym()?;
                let binder_base = self.d.u16()?;
                let binders = self.d.u16()?;
                let target = self.d.u32()?;
                arms.push(MatchArmCode {
                    ctor,
                    binder_base,
                    binders,
                    target,
                });
            }
            match_tables.push(MatchTable {
                arms,
                // Inline caches are process-local: always reset.
                ic: Cell::new(u32::MAX),
            });
        }
        let nf = self.d.len()?;
        let mut funcs = Vec::with_capacity(nf.min(1 << 16));
        for _ in 0..nf {
            funcs.push(self.func_code()?);
        }
        let parts = CodeParts {
            funcs,
            consts,
            field_lists,
            match_tables,
            globals,
            fusion,
        };
        check_code(&parts)?;
        let funcs: Vec<(FuncKind, usize)> = parts
            .funcs
            .iter()
            .map(|f| (f.kind, f.captures.len()))
            .collect();
        for (c, kind) in std::mem::take(&mut self.unchecked) {
            check_closure(&funcs, &c, kind)?;
        }
        self.funcs = Some(funcs);
        Ok(parts)
    }

    fn func_code(&mut self) -> Result<FuncCode, WireError> {
        let kind = match self.d.u8()? {
            0 => FuncKind::Lambda,
            1 => FuncKind::TyAbs,
            2 => FuncKind::FixBody,
            3 => FuncKind::Main,
            t => return err(format!("bad funckind tag {t}")),
        };
        let nslots = self.d.u16()?;
        let ncap = self.d.len()?;
        let mut captures = Vec::with_capacity(ncap.min(1 << 16));
        for _ in 0..ncap {
            captures.push(match self.d.u8()? {
                0 => CapSrc::Local(self.d.u16()?),
                1 => CapSrc::Capture(self.d.u16()?),
                2 => CapSrc::Rec,
                t => return err(format!("bad capsrc tag {t}")),
            });
        }
        let ni = self.d.len()?;
        let mut code = Vec::with_capacity(ni.min(1 << 16));
        for _ in 0..ni {
            code.push(self.instr()?);
        }
        Ok(FuncCode {
            kind,
            nslots,
            captures,
            code,
        })
    }

    /// Reads one instruction.
    #[allow(clippy::too_many_lines)]
    pub fn instr(&mut self) -> Result<Instr, WireError> {
        let d = &mut *self.d;
        Ok(match d.u8()? {
            12 => Instr::Jump(d.u32()?),
            37 => {
                let dst = d.u16()?;
                let konst = d.u32()?;
                Instr::RConst { dst, konst }
            }
            38 => {
                let dst = d.u16()?;
                let src = d.u16()?;
                Instr::RMove { dst, src }
            }
            39 => {
                let dst = d.u16()?;
                let idx = d.u16()?;
                Instr::RCapture { dst, idx }
            }
            40 => {
                let dst = d.u16()?;
                let idx = d.u32()?;
                Instr::RGlobal { dst, idx }
            }
            41 => Instr::RRec { dst: d.u16()? },
            42 => {
                let dst = d.u16()?;
                let func = d.u32()?;
                Instr::RClosure { dst, func }
            }
            43 => {
                let dst = d.u16()?;
                let func = d.u32()?;
                Instr::RTyClosure { dst, func }
            }
            44 => {
                let dst = d.u16()?;
                let func = d.u32()?;
                Instr::REnterFix { dst, func }
            }
            45 => {
                let dst = d.u16()?;
                let f = d.u16()?;
                let arg = d.u16()?;
                Instr::RCall { dst, f, arg }
            }
            46 => {
                let f = d.u16()?;
                let arg = d.u16()?;
                Instr::RTailCall { f, arg }
            }
            47 => {
                let dst = d.u16()?;
                let src = d.u16()?;
                Instr::RForce { dst, src }
            }
            48 => Instr::RRet { src: d.u16()? },
            49 => {
                let cond = d.u16()?;
                let target = d.u32()?;
                Instr::RJumpIfFalse { cond, target }
            }
            50 => {
                let op = d.binop()?;
                let dst = d.u16()?;
                let a = d.u16()?;
                let b = d.u16()?;
                Instr::RBin { op, dst, a, b }
            }
            51 => {
                let op = d.unop()?;
                let dst = d.u16()?;
                let src = d.u16()?;
                Instr::RUn { op, dst, src }
            }
            52 => {
                let dst = d.u16()?;
                let a = d.u16()?;
                let b = d.u16()?;
                Instr::RPair { dst, a, b }
            }
            53 => {
                let dst = d.u16()?;
                let src = d.u16()?;
                Instr::RFst { dst, src }
            }
            54 => {
                let dst = d.u16()?;
                let src = d.u16()?;
                Instr::RSnd { dst, src }
            }
            55 => {
                let dst = d.u16()?;
                let head = d.u16()?;
                let tail = d.u16()?;
                Instr::RCons { dst, head, tail }
            }
            56 => {
                let src = d.u16()?;
                let head = d.u16()?;
                let tail = d.u16()?;
                let nil_target = d.u32()?;
                Instr::RCaseList {
                    src,
                    head,
                    tail,
                    nil_target,
                }
            }
            57 => {
                let dst = d.u16()?;
                let base = d.u16()?;
                let name = d.sym()?;
                let fields = d.u32()?;
                Instr::RMakeRecord {
                    dst,
                    base,
                    name,
                    fields,
                }
            }
            58 => {
                let dst = d.u16()?;
                let src = d.u16()?;
                let field = d.sym()?;
                Instr::RProject { dst, src, field }
            }
            59 => {
                let dst = d.u16()?;
                let base = d.u16()?;
                let ctor = d.sym()?;
                let argc = d.u16()?;
                Instr::RInject {
                    dst,
                    base,
                    ctor,
                    argc,
                }
            }
            60 => {
                let src = d.u16()?;
                let tbl = d.u32()?;
                Instr::RMatch { src, tbl }
            }
            61 => {
                let op = d.binop()?;
                let a = d.u16()?;
                let b = d.u16()?;
                let target = d.u32()?;
                Instr::RBinJump { op, a, b, target }
            }
            62 => {
                let op = d.binop()?;
                let a = d.u16()?;
                let b = d.u16()?;
                Instr::RBinRet { op, a, b }
            }
            63 => {
                let op = d.binop()?;
                let f = d.u16()?;
                let a = d.u16()?;
                let b = d.u16()?;
                Instr::RBinTail { op, f, a, b }
            }
            64 => {
                let op = d.binop()?;
                let idx = d.u16()?;
                let a = d.u16()?;
                let b = d.u16()?;
                Instr::RCapBinTail { op, idx, a, b }
            }
            t => return err(format!("bad instr tag {t}")),
        })
    }
}

/// Checks that a compiled closure names a function of the kind its
/// value tag requires and carries exactly that function's captures —
/// the VM indexes a closure's captures by the function's operands.
fn check_closure(
    funcs: &[(FuncKind, usize)],
    c: &VmClosure,
    kind: FuncKind,
) -> Result<(), WireError> {
    match funcs.get(c.func as usize) {
        Some(&(k, n)) if k == kind && n == c.captures.len() => Ok(()),
        _ => err(format!(
            "vm closure of func {} with {} captures is not a {kind:?} closure",
            c.func,
            c.captures.len()
        )),
    }
}

/// Checks every index the VM takes from decoded code against the
/// table it indexes, so that code which passed the checksum but not
/// the compiler cannot make [`crate::vm::Vm::run`] index out of
/// bounds. Per function:
///
/// * register operands are below `nslots`, and register windows
///   (record fields, constructor arguments, match-arm binders) end
///   at or below it;
/// * constant, global, field-list and match-table indices are in
///   range, and every jump, nil and arm target is inside the code;
/// * the last instruction cannot fall through, so `ip` never runs
///   off the end;
/// * captures are read only where a closure is running — `RCapture`
///   and `RCapBinTail` indices are below the function's capture
///   count, and an entry function has none;
/// * `RRec` and `CapSrc::Rec` appear only in fix bodies, whose frames
///   always carry their recursive closure;
/// * `RClosure`, `RTyClosure` and `REnterFix` name a function of kind
///   `Lambda`, `TyAbs` and `FixBody` respectively, whose capture
///   directives read the creator's registers and captures in range;
/// * `RCapBinTail` has a scratch register to park its unfold in.
fn check_code(p: &CodeParts) -> Result<(), WireError> {
    for (fi, f) in p.funcs.iter().enumerate() {
        let nslots = usize::from(f.nslots);
        let len = f.code.len();
        let reg = |r: u16| usize::from(r) < nslots;
        let rk = |x: u16| {
            if x & RK_CONST != 0 {
                usize::from(x & RK_MASK) < p.consts.len()
            } else {
                reg(x)
            }
        };
        let window = |base: u16, n: usize| usize::from(base) + n <= nslots;
        let target = |t: u32| (t as usize) < len;
        let cap = |i: u16| usize::from(i) < f.captures.len();
        let creates = |func: u32, kind: FuncKind| {
            p.funcs.get(func as usize).is_some_and(|g| {
                g.kind == kind
                    && g.captures.iter().all(|c| match *c {
                        CapSrc::Local(s) => reg(s),
                        CapSrc::Capture(i) => cap(i),
                        CapSrc::Rec => f.kind == FuncKind::FixBody,
                    })
            })
        };
        if f.kind == FuncKind::Main && !f.captures.is_empty() {
            return err(format!("func {fi}: entry function with captures"));
        }
        if !matches!(
            f.code.last(),
            Some(
                Instr::RRet { .. }
                    | Instr::RTailCall { .. }
                    | Instr::Jump(_)
                    | Instr::RMatch { .. }
                    | Instr::RBinRet { .. }
                    | Instr::RBinTail { .. }
                    | Instr::RCapBinTail { .. }
            )
        ) {
            return err(format!("func {fi}: code can run off its end"));
        }
        for (ip, i) in f.code.iter().enumerate() {
            let ok = match *i {
                Instr::RConst { dst, konst } => reg(dst) && (konst as usize) < p.consts.len(),
                Instr::RMove { dst, src }
                | Instr::RForce { dst, src }
                | Instr::RFst { dst, src }
                | Instr::RSnd { dst, src }
                | Instr::RProject { dst, src, .. } => reg(dst) && reg(src),
                Instr::RCapture { dst, idx } => reg(dst) && cap(idx),
                Instr::RGlobal { dst, idx } => reg(dst) && (idx as usize) < p.globals.len(),
                Instr::RRec { dst } => reg(dst) && f.kind == FuncKind::FixBody,
                Instr::RClosure { dst, func } => reg(dst) && creates(func, FuncKind::Lambda),
                Instr::RTyClosure { dst, func } => reg(dst) && creates(func, FuncKind::TyAbs),
                Instr::REnterFix { dst, func } => reg(dst) && creates(func, FuncKind::FixBody),
                Instr::RCall { dst, f, arg } => reg(dst) && reg(f) && rk(arg),
                Instr::RTailCall { f, arg } => reg(f) && rk(arg),
                Instr::RRet { src } => rk(src),
                Instr::Jump(t) => target(t),
                Instr::RJumpIfFalse { cond, target: t } => rk(cond) && target(t),
                Instr::RBin { dst, a, b, .. }
                | Instr::RPair { dst, a, b }
                | Instr::RCons {
                    dst,
                    head: a,
                    tail: b,
                } => reg(dst) && rk(a) && rk(b),
                Instr::RUn { dst, src, .. } => reg(dst) && rk(src),
                Instr::RCaseList {
                    src,
                    head,
                    tail,
                    nil_target,
                } => rk(src) && reg(head) && reg(tail) && target(nil_target),
                Instr::RMakeRecord {
                    dst, base, fields, ..
                } => {
                    reg(dst)
                        && p.field_lists
                            .get(fields as usize)
                            .is_some_and(|fl| window(base, fl.len()))
                }
                Instr::RInject {
                    dst, base, argc, ..
                } => reg(dst) && window(base, usize::from(argc)),
                Instr::RMatch { src, tbl } => {
                    reg(src)
                        && p.match_tables.get(tbl as usize).is_some_and(|t| {
                            t.arms.iter().all(|a| {
                                window(a.binder_base, usize::from(a.binders)) && target(a.target)
                            })
                        })
                }
                Instr::RBinJump {
                    a, b, target: t, ..
                } => rk(a) && rk(b) && target(t),
                Instr::RBinRet { a, b, .. } => rk(a) && rk(b),
                Instr::RBinTail { f, a, b, .. } => reg(f) && rk(a) && rk(b),
                Instr::RCapBinTail { idx, a, b, .. } => cap(idx) && rk(a) && rk(b) && nslots > 0,
            };
            if !ok {
                return err(format!(
                    "func {fi} instr {ip}: operand out of range in {i:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Compiler;
    use crate::eval::Evaluator;
    use crate::vm::Vm;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn roundtrip_value(v: &Value) -> Value {
        let mut e = Enc::new();
        {
            let mut sf = SfEnc::new(&mut e);
            sf.value(v);
        }
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).expect("checksum");
        let mut sf = SfDec::new(&mut d);
        sf.value().expect("decode")
    }

    #[test]
    fn first_order_values_roundtrip() {
        let v = Value::Pair(
            Rc::new(Value::Int(42)),
            Rc::new(Value::List(
                [Value::Bool(true), Value::Str(Rc::from("hi")), Value::Unit]
                    .into_iter()
                    .collect(),
            )),
        );
        let back = roundtrip_value(&v);
        assert_eq!(v.try_eq(&back), Some(true));
    }

    #[test]
    fn values_and_environments_nested_past_the_bound_are_decode_errors() {
        // Decoding at the bound takes a few MiB of stack, as on the
        // threads that decode artifacts.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                use implicit_core::wire::MAX_DECODE_DEPTH;
                // A value `(0, (0, … (0, 0)))` and an environment whose `fix` binding
                // captures an environment whose `fix` binding captures …
                let pairs = |levels: usize| {
                    let mut e = Enc::new();
                    for _ in 0..levels {
                        e.u8(4);
                        e.u8(1);
                        e.u8(0);
                        e.i64(0);
                        e.u8(1);
                    }
                    e.u8(0);
                    e.i64(0);
                    e.finish()
                };
                let spines = |levels: usize| {
                    let mut e = Enc::new();
                    for _ in 0..levels {
                        e.len(1);
                        e.u8(0);
                        e.sym(sym("f"));
                        e.u8(1);
                        e.u8(1);
                        e.u8(3);
                    }
                    e.len(0);
                    e.u8(0);
                    e.finish()
                };
                let value =
                    |bytes: &[u8]| SfDec::new(&mut Dec::new(bytes).unwrap()).value().map(drop);
                let env = |bytes: &[u8]| SfDec::new(&mut Dec::new(bytes).unwrap()).env().map(drop);
                assert!(value(&pairs(MAX_DECODE_DEPTH / 2 - 1)).is_ok());
                assert!(env(&spines(MAX_DECODE_DEPTH / 2)).is_ok());
                for levels in [MAX_DECODE_DEPTH + 1, 200_000] {
                    assert!(value(&pairs(levels)).is_err(), "{levels} pairs");
                    assert!(env(&spines(levels)).is_err(), "{levels} spines");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn shared_values_stay_shared() {
        let shared = Rc::new(Value::Int(7));
        let v = Value::Pair(Rc::new(Value::Pair(shared.clone(), shared.clone())), shared);
        let back = roundtrip_value(&v);
        let Value::Pair(inner, c) = &back else {
            panic!("not a pair")
        };
        let Value::Pair(a, b) = &**inner else {
            panic!("not a pair")
        };
        assert!(Rc::ptr_eq(a, b), "sharing lost between siblings");
        assert!(Rc::ptr_eq(a, c), "sharing lost across levels");
    }

    #[test]
    fn closures_and_envs_roundtrip() {
        // let f = fix f. λn. if n < 1 then 0 else f (n - 2); serialize
        // the resulting closure (whose env holds a Rec binding) and
        // apply both sides.
        let f = sym("f");
        let n = sym("n");
        use implicit_core::syntax::BinOp;
        let body = FExpr::Lam(
            n,
            FType::Int,
            Rc::new(FExpr::If(
                Rc::new(FExpr::BinOp(
                    BinOp::Lt,
                    Rc::new(FExpr::Var(n)),
                    Rc::new(FExpr::Int(1)),
                )),
                Rc::new(FExpr::Int(0)),
                Rc::new(FExpr::App(
                    Rc::new(FExpr::Var(f)),
                    Rc::new(FExpr::BinOp(
                        BinOp::Sub,
                        Rc::new(FExpr::Var(n)),
                        Rc::new(FExpr::Int(2)),
                    )),
                )),
            )),
        );
        let fix = FExpr::Fix(f, FType::arrow(FType::Int, FType::Int), Rc::new(body));
        let mut ev = Evaluator::new();
        let clo = ev.eval(&fix).expect("eval");
        let back = roundtrip_value(&clo);
        let a = ev.apply(clo, Value::Int(9)).expect("apply original");
        let b = ev.apply(back, Value::Int(9)).expect("apply decoded");
        assert_eq!(a.try_eq(&b), Some(true));
    }

    /// `(λx. x * x) 12` — exercises funcs, consts and captures.
    fn square_of_twelve() -> FExpr {
        use implicit_core::syntax::BinOp;
        let x = sym("x");
        FExpr::App(
            Rc::new(FExpr::Lam(
                x,
                FType::Int,
                Rc::new(FExpr::BinOp(
                    BinOp::Mul,
                    Rc::new(FExpr::Var(x)),
                    Rc::new(FExpr::Var(x)),
                )),
            )),
            Rc::new(FExpr::Int(12)),
        )
    }

    #[test]
    fn compiled_code_roundtrips() {
        let mut c = Compiler::new();
        let main = c.compile(&square_of_twelve()).expect("compile");
        let snap = c.snapshot();
        let parts = c.export_parts(&snap);

        let mut e = Enc::new();
        {
            let mut sf = SfEnc::new(&mut e);
            sf.code_parts(&parts);
        }
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).expect("checksum");
        let mut sf = SfDec::new(&mut d);
        let parts2 = sf.code_parts().expect("decode");
        let c2 = Compiler::from_parts(parts2);

        let mut vm = Vm::new();
        let v1 = vm.run(c.code(), main, &[]).expect("run original");
        let v2 = vm.run(c2.code(), main, &[]).expect("run decoded");
        assert_eq!(v1.try_eq(&v2), Some(true));
        assert_eq!(format!("{v1:?}"), format!("{v2:?}"));
    }

    #[test]
    fn compiled_closures_must_match_their_function() {
        // Function 0 is the lambda, function 1 the entry.
        let mut c = Compiler::new();
        c.compile(&square_of_twelve()).expect("compile");
        let parts = c.export_parts(&c.snapshot());
        assert_eq!(parts.funcs[0].kind, FuncKind::Lambda);
        assert_eq!(parts.funcs[1].kind, FuncKind::Main);
        let decode_after_code = |v: &Value| {
            let mut e = Enc::new();
            {
                let mut sf = SfEnc::new(&mut e);
                sf.code_parts(&parts);
                sf.value(v);
            }
            let bytes = e.finish();
            let mut d = Dec::new(&bytes).expect("checksum");
            let mut sf = SfDec::new(&mut d);
            sf.code_parts().expect("code decodes");
            sf.value()
        };
        let clo = |func: u32, captures: Vec<Value>| Rc::new(VmClosure { func, captures });
        assert!(decode_after_code(&Value::CompiledClosure(clo(0, vec![]))).is_ok());
        for (what, v) in [
            ("out of range", Value::CompiledClosure(clo(5, vec![]))),
            ("entry function", Value::CompiledClosure(clo(1, vec![]))),
            (
                "extra capture",
                Value::CompiledClosure(clo(0, vec![Value::Unit])),
            ),
            (
                "thunk of a lambda",
                Value::CompiledTyClosure(clo(0, vec![])),
            ),
            (
                "fix sentinel of a lambda",
                Value::CompiledRec(clo(0, vec![])),
            ),
        ] {
            assert!(decode_after_code(&v).is_err(), "{what} accepted");
        }
    }

    #[test]
    fn removed_isa_and_instruction_tags_are_rejected() {
        // A hand-encoded code object: the isa byte, then one entry
        // function whose single instruction is `instr`.
        let code = |isa: u8, instr: &[u8]| {
            let mut e = Enc::new();
            e.u8(isa);
            e.bool(true);
            for _ in 0..4 {
                e.len(0); // globals, consts, field lists, match tables
            }
            e.len(1);
            e.u8(3); // FuncKind::Main
            e.u16(1);
            e.len(0);
            e.len(1);
            for b in instr {
                e.u8(*b);
            }
            let bytes = e.finish();
            let mut d = Dec::new(&bytes).expect("checksum");
            SfDec::new(&mut d).code_parts().map(drop)
        };
        let ret_r0 = [48, 0, 0];
        assert!(
            code(0, &ret_r0).is_ok(),
            "the well-formed object must decode"
        );
        assert!(code(1, &ret_r0).is_err(), "isa tag 1 accepted");
        for tag in (0..=11).chain(13..=36) {
            assert!(
                code(0, &[tag, 0, 0, 0, 0, 0, 0]).is_err(),
                "tag {tag} accepted"
            );
        }
    }

    /// `(a, Two b [])`: lists share one back-reference index space
    /// with data fields.
    fn list_value(a: &List<Value>, b: &List<Value>) -> Value {
        Value::Pair(
            Rc::new(Value::List(a.clone())),
            Rc::new(Value::Data {
                ctor: sym("Two"),
                fields: Rc::new(vec![Value::List(b.clone()), Value::List(List::new())]),
            }),
        )
    }

    fn one_two() -> List<Value> {
        [Value::Int(1), Value::Int(2)].into_iter().collect()
    }

    fn encoded(v: &Value) -> Vec<u8> {
        let mut e = Enc::new();
        SfEnc::new(&mut e).value(v);
        e.finish()
    }

    #[test]
    fn a_list_held_twice_is_encoded_once() {
        let xs = one_two();
        let shared = list_value(&xs, &xs);
        // Two equal but separate lists are both written in full.
        let separate = list_value(&xs, &one_two());
        assert!(encoded(&shared).len() < encoded(&separate).len());

        let back = roundtrip_value(&shared);
        assert_eq!(shared.try_eq(&back), Some(true));
        let Value::Pair(list, data) = &back else {
            panic!("not a pair")
        };
        let (Value::List(a), Value::Data { fields, .. }) = (&**list, &**data) else {
            panic!("not a list and a data value")
        };
        let Value::List(b) = &fields[0] else {
            panic!("not a list")
        };
        assert_eq!(a.first_addr(), b.first_addr(), "sharing lost");
    }

    #[test]
    fn a_list_value_encodes_to_pinned_bytes() {
        // Tag 5 and the value-vector memo encoding: `1`, length,
        // elements in full, `0`, index for a back-reference; the empty
        // list is written in full.
        let xs = one_two();
        let hex: String = encoded(&list_value(&xs, &xs))
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "0401050102000000000000000001000000000000000002000000000000000109010300000054776f\
             010200000000000000050000000000050100000000000000007f43d211e60033c0"
        );
    }
}
