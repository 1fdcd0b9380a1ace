//! Artifact serialization for operational-semantics runtime state.
//!
//! Mirrors [`systemf::wire`]'s design for the opsem leg: runtime
//! [`Value`] graphs (function and rule closures with their captured
//! [`VarEnv`] spines and [`ImplStack`]s) are encoded with
//! pointer-identity memo tables so the decoder rebuilds the exact
//! sharing structure. Rebuilding sharing is not merely a size
//! optimization here: the runtime memo keys resolutions by frame
//! *pointer identity*, so closures rehydrated from an artifact must
//! share their `Rc` frames with the rehydrated prelude stack for
//! imported memo entries to ever hit.
//!
//! Rule types and expressions ride on the core wire format
//! ([`implicit_core::wire`]), with an extra pointer memo for shared
//! `Rc<Expr>` bodies.

use std::collections::HashMap;
use std::rc::Rc;

use implicit_core::list::List;
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{Expr, RuleType};
use implicit_core::wire::{Dec, Enc, WireError};

use crate::value::{Closure, ImplStack, RuleClosure, Value, VarBinding, VarEnv, VarNode};

fn err<T>(msg: String) -> Result<T, WireError> {
    Err(WireError(msg))
}

/// Encoder context for opsem runtime state.
pub struct OpEnc<'a> {
    /// The underlying byte encoder (shared symbol/type memo).
    pub e: &'a mut Enc,
    venvs: HashMap<usize, u32>,
    vals: HashMap<usize, u32>,
    valvecs: HashMap<usize, u32>,
    /// Value vectors written in full so far (an empty list is
    /// written in full every time, with no entry in `valvecs`).
    valvec_count: usize,
    recfields: HashMap<usize, u32>,
    exprs: HashMap<usize, u32>,
    closures: HashMap<usize, u32>,
    rules: HashMap<usize, u32>,
    frames: HashMap<usize, u32>,
}

impl<'a> OpEnc<'a> {
    /// Wraps `e` with fresh memo tables.
    pub fn new(e: &'a mut Enc) -> OpEnc<'a> {
        OpEnc {
            e,
            venvs: HashMap::new(),
            vals: HashMap::new(),
            valvecs: HashMap::new(),
            valvec_count: 0,
            recfields: HashMap::new(),
            exprs: HashMap::new(),
            closures: HashMap::new(),
            rules: HashMap::new(),
            frames: HashMap::new(),
        }
    }

    /// Writes a shared expression body, memoized by pointer.
    pub fn expr_rc(&mut self, r: &Rc<Expr>) {
        let key = Rc::as_ptr(r) as usize;
        if let Some(&ix) = self.exprs.get(&key) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.e.expr(r);
        let ix = u32::try_from(self.exprs.len()).expect("expr memo overflow");
        self.exprs.insert(key, ix);
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
            Value::Closure(c) => {
                self.e.u8(6);
                self.closure(c);
            }
            Value::Rule(rc) => {
                self.e.u8(7);
                self.rule_closure(rc);
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
        }
    }

    fn val_rc(&mut self, r: &Rc<Value>) {
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

    fn closure(&mut self, c: &Rc<Closure>) {
        let key = Rc::as_ptr(c) as usize;
        if let Some(&ix) = self.closures.get(&key) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.e.sym(c.param);
        self.expr_rc(&c.body);
        self.varenv(&c.venv);
        self.implstack(&c.ienv);
        let ix = u32::try_from(self.closures.len()).expect("closure memo overflow");
        self.closures.insert(key, ix);
    }

    fn rule_closure(&mut self, c: &Rc<RuleClosure>) {
        let key = Rc::as_ptr(c) as usize;
        if let Some(&ix) = self.rules.get(&key) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.e.rule(&c.rty);
        self.expr_rc(&c.body);
        self.varenv(&c.venv);
        self.implstack(&c.ienv);
        self.e.len(c.partial.len());
        for (r, v) in &c.partial {
            self.e.rule(r);
            self.value(v);
        }
        let ix = u32::try_from(self.rules.len()).expect("rule-closure memo overflow");
        self.rules.insert(key, ix);
    }

    /// Writes a term-environment spine (iteratively, outermost new
    /// node first — see `systemf::wire` for the discipline).
    pub fn varenv(&mut self, env: &VarEnv) {
        let mut fresh: Vec<Rc<VarNode>> = Vec::new();
        let mut tail: Option<u32> = None;
        for n in env.nodes() {
            let key = Rc::as_ptr(n) as usize;
            if let Some(&ix) = self.venvs.get(&key) {
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
                VarBinding::Done(v) => {
                    self.e.u8(0);
                    self.value(v);
                }
                VarBinding::Rec {
                    body,
                    ienv,
                    next_is_env,
                } => {
                    self.e.u8(1);
                    self.expr_rc(body);
                    self.implstack(ienv);
                    self.varenv(next_is_env);
                }
            }
            let key = Rc::as_ptr(n) as usize;
            let ix = u32::try_from(self.venvs.len()).expect("varenv memo overflow");
            self.venvs.insert(key, ix);
        }
    }

    /// Writes an implicit-environment stack (frames outermost first,
    /// each memoized by pointer so prefixes shared between the
    /// prelude stack and captured closures stay shared).
    pub fn implstack(&mut self, s: &ImplStack) {
        self.e.len(s.frames.len());
        for f in &s.frames {
            self.frame(f);
        }
    }

    fn frame(&mut self, f: &Rc<Vec<(RuleType, Value)>>) {
        let key = Rc::as_ptr(f) as usize;
        if let Some(&ix) = self.frames.get(&key) {
            self.e.u8(0);
            self.e.u32(ix);
            return;
        }
        self.e.u8(1);
        self.e.len(f.len());
        for (r, v) in f.iter() {
            self.e.rule(r);
            self.value(v);
        }
        let ix = u32::try_from(self.frames.len()).expect("frame memo overflow");
        self.frames.insert(key, ix);
    }
}

/// A decoded value vector: data fields and lists share one
/// back-reference index space.
enum ValVec {
    Fields(Rc<Vec<Value>>),
    List(List<Value>),
}

/// Decoder context mirroring [`OpEnc`].
pub struct OpDec<'a, 'b> {
    /// The underlying byte decoder.
    pub d: &'b mut Dec<'a>,
    venvs: Vec<Rc<VarNode>>,
    vals: Vec<Rc<Value>>,
    valvecs: Vec<ValVec>,
    recfields: Vec<Rc<Vec<(Symbol, Value)>>>,
    exprs: Vec<Rc<Expr>>,
    closures: Vec<Rc<Closure>>,
    rules: Vec<Rc<RuleClosure>>,
    frames: Vec<Rc<Vec<(RuleType, Value)>>>,
}

impl<'a, 'b> OpDec<'a, 'b> {
    /// Wraps `d` with fresh memo tables.
    pub fn new(d: &'b mut Dec<'a>) -> OpDec<'a, 'b> {
        OpDec {
            d,
            venvs: Vec::new(),
            vals: Vec::new(),
            valvecs: Vec::new(),
            recfields: Vec::new(),
            exprs: Vec::new(),
            closures: Vec::new(),
            rules: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Reads a shared expression body.
    pub fn expr_rc(&mut self) -> Result<Rc<Expr>, WireError> {
        match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                self.exprs
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("expr backref {ix} out of range")))
            }
            1 => {
                let x = Rc::new(self.d.expr()?);
                self.exprs.push(x.clone());
                Ok(x)
            }
            t => err(format!("bad expr memo tag {t}")),
        }
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
            6 => Value::Closure(self.closure()?),
            7 => Value::Rule(self.rule_closure()?),
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
            t => return err(format!("bad opsem value tag {t}")),
        })
    }

    fn val_rc(&mut self) -> Result<Rc<Value>, WireError> {
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

    fn closure(&mut self) -> Result<Rc<Closure>, WireError> {
        match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                self.closures
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("closure backref {ix} out of range")))
            }
            1 => {
                let param = self.d.sym()?;
                let body = self.expr_rc()?;
                let venv = self.varenv()?;
                let ienv = self.implstack()?;
                let rc = Rc::new(Closure {
                    param,
                    body,
                    venv,
                    ienv,
                });
                self.closures.push(rc.clone());
                Ok(rc)
            }
            t => err(format!("bad closure memo tag {t}")),
        }
    }

    fn rule_closure(&mut self) -> Result<Rc<RuleClosure>, WireError> {
        match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                self.rules
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("rule-closure backref {ix} out of range")))
            }
            1 => {
                let rty = self.d.rule()?;
                let body = self.expr_rc()?;
                let venv = self.varenv()?;
                let ienv = self.implstack()?;
                let n = self.d.len()?;
                let mut partial = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let r = self.d.rule()?;
                    partial.push((r, self.value()?));
                }
                let rc = Rc::new(RuleClosure {
                    rty,
                    body,
                    venv,
                    ienv,
                    partial,
                });
                self.rules.push(rc.clone());
                Ok(rc)
            }
            t => err(format!("bad rule-closure memo tag {t}")),
        }
    }

    /// Reads a term-environment spine.
    pub fn varenv(&mut self) -> Result<VarEnv, WireError> {
        let n = self.d.len()?;
        let mut env = match self.d.u8()? {
            0 => VarEnv::new(),
            1 => {
                let ix = self.d.u32()? as usize;
                let node = self
                    .venvs
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("varenv backref {ix} out of range")))?;
                VarEnv { node: Some(node) }
            }
            t => return err(format!("bad varenv tail tag {t}")),
        };
        for _ in 0..n {
            let name = self.d.sym()?;
            let value = match self.d.u8()? {
                0 => VarBinding::Done(self.value()?),
                1 => {
                    let body = self.expr_rc()?;
                    let ienv = self.implstack()?;
                    self.d.enter()?;
                    let next_is_env = self.varenv();
                    self.d.leave();
                    VarBinding::Rec {
                        body,
                        ienv,
                        next_is_env: next_is_env?,
                    }
                }
                t => return err(format!("bad varbinding tag {t}")),
            };
            let node = Rc::new(VarNode {
                name,
                value,
                next: env,
            });
            self.venvs.push(node.clone());
            env = VarEnv { node: Some(node) };
        }
        Ok(env)
    }

    /// Reads an implicit-environment stack.
    pub fn implstack(&mut self) -> Result<ImplStack, WireError> {
        let n = self.d.len()?;
        let mut frames = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            frames.push(self.frame()?);
        }
        Ok(ImplStack { frames })
    }

    fn frame(&mut self) -> Result<Rc<Vec<(RuleType, Value)>>, WireError> {
        match self.d.u8()? {
            0 => {
                let ix = self.d.u32()? as usize;
                self.frames
                    .get(ix)
                    .cloned()
                    .ok_or_else(|| WireError(format!("frame backref {ix} out of range")))
            }
            1 => {
                let n = self.d.len()?;
                let mut entries = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let r = self.d.rule()?;
                    entries.push((r, self.value()?));
                }
                let rc = Rc::new(entries);
                self.frames.push(rc.clone());
                Ok(rc)
            }
            t => err(format!("bad frame memo tag {t}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use implicit_core::syntax::Type;

    fn roundtrip(v: &Value) -> Value {
        let mut e = Enc::new();
        {
            let mut op = OpEnc::new(&mut e);
            op.value(v);
        }
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).expect("checksum");
        let mut op = OpDec::new(&mut d);
        op.value().expect("decode")
    }

    #[test]
    fn first_order_values_roundtrip() {
        let v = Value::Pair(
            Rc::new(Value::Int(-3)),
            Rc::new(Value::Data {
                ctor: Symbol::intern("Some"),
                fields: Rc::new(vec![Value::Str(Rc::from("x"))]),
            }),
        );
        assert_eq!(v.try_eq(&roundtrip(&v)), Some(true));
    }

    #[test]
    fn values_and_environments_nested_past_the_bound_are_decode_errors() {
        // Decoding at the bound takes a few MiB of stack, as on the
        // threads that decode artifacts.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                use implicit_core::wire::MAX_DECODE_DEPTH;
                // A value `(0, (0, … (0, 0)))` and a term environment whose recursive
                // binding's environment holds a recursive binding whose …
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
                        e.sym(Symbol::intern("f"));
                        e.u8(1);
                        e.u8(1);
                        e.u8(3);
                        e.len(0);
                    }
                    e.len(0);
                    e.u8(0);
                    e.finish()
                };
                let value =
                    |bytes: &[u8]| OpDec::new(&mut Dec::new(bytes).unwrap()).value().map(drop);
                let env =
                    |bytes: &[u8]| OpDec::new(&mut Dec::new(bytes).unwrap()).varenv().map(drop);
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
    fn shared_istack_frames_stay_shared() {
        // Two closures capturing the same stack must share frames
        // after decoding — memo keys depend on frame pointer identity.
        let base = ImplStack::new().pushed(vec![(Type::Int.promote(), Value::Int(1))]);
        let mk = |ienv: &ImplStack| {
            Value::Closure(Rc::new(Closure {
                param: Symbol::intern("x"),
                body: Rc::new(Expr::var("x")),
                venv: VarEnv::new(),
                ienv: ienv.clone(),
            }))
        };
        let v = Value::Pair(Rc::new(mk(&base)), Rc::new(mk(&base)));
        let back = roundtrip(&v);
        let Value::Pair(a, b) = &back else {
            panic!("not a pair")
        };
        let (Value::Closure(ca), Value::Closure(cb)) = (&**a, &**b) else {
            panic!("not closures")
        };
        assert!(
            Rc::ptr_eq(&ca.ienv.frames[0], &cb.ienv.frames[0]),
            "frame sharing lost"
        );
    }

    #[test]
    fn rec_bindings_roundtrip() {
        let f = Symbol::intern("f");
        let env = VarEnv::new()
            .bind(Symbol::intern("k"), Value::Int(10))
            .bind_rec(f, Rc::new(Expr::var("f")), ImplStack::new());
        let v = Value::Closure(Rc::new(Closure {
            param: Symbol::intern("x"),
            body: Rc::new(Expr::var("x")),
            venv: env,
            ienv: ImplStack::new(),
        }));
        let back = roundtrip(&v);
        let Value::Closure(c) = &back else {
            panic!("not a closure")
        };
        match c.venv.get(f) {
            Some(crate::value::Lookup::Rec { .. }) => {}
            _ => panic!("rec binding lost"),
        }
        match c.venv.get(Symbol::intern("k")) {
            Some(crate::value::Lookup::Done(Value::Int(10))) => {}
            _ => panic!("done binding lost"),
        }
    }

    /// `(a, Two b [])`: lists share one back-reference index space
    /// with data fields.
    fn list_value(a: &List<Value>, b: &List<Value>) -> Value {
        Value::Pair(
            Rc::new(Value::List(a.clone())),
            Rc::new(Value::Data {
                ctor: Symbol::intern("Two"),
                fields: Rc::new(vec![Value::List(b.clone()), Value::List(List::new())]),
            }),
        )
    }

    fn one_two() -> List<Value> {
        [Value::Int(1), Value::Int(2)].into_iter().collect()
    }

    fn encoded(v: &Value) -> Vec<u8> {
        let mut e = Enc::new();
        OpEnc::new(&mut e).value(v);
        e.finish()
    }

    #[test]
    fn a_list_held_twice_is_encoded_once() {
        let xs = one_two();
        let shared = list_value(&xs, &xs);
        // Two equal but separate lists are both written in full.
        let separate = list_value(&xs, &one_two());
        assert!(encoded(&shared).len() < encoded(&separate).len());

        let back = roundtrip(&shared);
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
