//! A bytecode virtual machine for compiled System F (see
//! [`crate::compile`]).
//!
//! The VM executes the flat instruction stream produced by
//! [`Compiler`] with heap-allocated register/frame stacks and a
//! single dispatch loop — no host-stack recursion, so arbitrarily
//! deep programs run in constant host stack (the tree-walking
//! [`crate::eval::Evaluator`] needs the 64 MB worker stacks of
//! `implicit_pipeline::driver` for the same programs).
//!
//! The dispatch loop is stackless: every frame is one flat window of
//! registers holding parameters, binders, and temporaries, results
//! are written straight to the caller's destination register on
//! return, and there is no operand stack at all. Tail calls reuse the
//! frame window, `fix` unfoldings are cached, and `RMatch` sites
//! carry inline caches.
//!
//! ## Value representation
//!
//! The hot loop does not traffic in [`Value`] at all. Operands are
//! tagged words ([`Word`]): a `Copy` scalar that carries ints, bools,
//! unit, and the empty list inline and represents every compound
//! value as an index into a per-run bump arena ([`Heap`]). Register
//! reads and writes are plain 16-byte copies — no refcount traffic,
//! no `Drop` glue, no per-node boxes. Pairs, cons cells, closures,
//! records, and data values are appended to the arena and never freed
//! mid-run (the language is pure and the run is fuel-bounded); the
//! arena is dropped wholesale when the run finishes. The public
//! boundary is unchanged: [`Vm::run`] takes `&[Value]` globals and
//! returns a [`Value`], importing and exporting at the edges.
//!
//! ## Semantics
//!
//! Semantics mirror the tree-walker exactly: call-by-value, eager
//! (non-short-circuit) `&&`/`||`, unfold-one-step `fix`, and the same
//! [`EvalError`] kinds and messages, so a differential oracle can
//! compare the two backends verbatim. Fuel is decremented once per
//! *frame entry* (call, force, fix unfold) rather than per node;
//! since every frame entry corresponds to at least one tree-walker
//! node visit, a program that finishes under the tree-walker's budget
//! always finishes under the same VM budget. Inline caches and
//! superinstructions only ever *skip* work — they never charge or
//! save fuel — so the comparability invariant is untouched.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use implicit_core::list::List;
use implicit_core::symbol::Symbol;

use crate::compile::{
    mnemonic, CapSrc, CodeObject, CompileError, Compiler, Instr, RK_CONST, RK_MASK,
};
use crate::eval::{EvalError, Value};
use crate::syntax::{BinOp, FExpr, UnOp};

/// A flat compiled closure at the [`Value`] boundary: a function
/// index plus the captured values, materialized at creation time.
/// Inside a run the VM uses arena-resident [`HClosure`]s instead;
/// this type only appears when a closure crosses the boundary (a
/// session global, or a program whose result is a function).
#[derive(Debug)]
pub struct VmClosure {
    /// Index into [`CodeObject::funcs`].
    pub func: u32,
    /// Captured values, parallel to the function's capture
    /// directives. A `fix` self-reference is stored as the
    /// [`Value::CompiledRec`] sentinel.
    pub captures: Vec<Value>,
}

impl VmClosure {
    fn new(func: u32, captures: Vec<Value>) -> VmClosure {
        VmClosure { func, captures }
    }
}

/// The tagged-word operand representation. `Copy`, 16 bytes:
/// scalars are carried inline, compound values are indices into the
/// run's [`Heap`] arena.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Word {
    /// Integer, inline.
    Int(i64),
    /// Boolean, inline.
    Bool(bool),
    /// Unit, inline.
    Unit,
    /// The empty list, inline.
    Nil,
    /// String: index into [`Heap::strs`].
    Str(u32),
    /// Pair: index into [`Heap::pairs`].
    Pair(u32),
    /// Non-empty list: index of a cons cell in [`Heap::conses`].
    Cons(u32),
    /// Function closure: index into [`Heap::clos`].
    Clo(u32),
    /// Type-abstraction thunk: index into [`Heap::clos`].
    TyClo(u32),
    /// `fix` self-reference sentinel: index into [`Heap::clos`].
    /// Loading it from a capture unfolds the recursion one step.
    Rec(u32),
    /// Record: index into [`Heap::records`].
    Record(u32),
    /// Data (constructor application): index into [`Heap::datas`].
    Data(u32),
    /// An opaque boundary value the word representation cannot carry
    /// (a tree-walker closure passed in as a global): index into
    /// [`Heap::exts`]. Only ever observed by error paths and
    /// equality, exactly like the tree-walker would.
    Ext(u32),
}

/// An arena-resident closure.
struct HClosure {
    func: u32,
    captures: Vec<Word>,
    /// One-step unfolding cache, used only when this closure is a
    /// `fix` body: the language is pure, so re-running the body
    /// always yields the same value, and a recursive loop would
    /// otherwise re-enter it (and re-allocate its result closure) on
    /// every iteration. Caching only ever *reduces* fuel charged, so
    /// the tree-walker-comparability invariant is preserved.
    unfolded: Cell<Option<Word>>,
}

/// An arena-resident record.
struct HRecord {
    name: Symbol,
    fields: Rc<[Symbol]>,
    vals: Vec<Word>,
}

/// An arena-resident data value.
struct HData {
    ctor: Symbol,
    fields: Vec<Word>,
}

/// The per-run bump arena. Every compound value a run creates lives
/// here, addressed by the `u32` payload of its [`Word`]; nothing is
/// freed until the whole arena drops at the end of the run.
#[derive(Default)]
struct Heap {
    pairs: Vec<(Word, Word)>,
    /// Cons cells `(head, tail)`; `tail` is `Nil` or `Cons`. O(1)
    /// cons, structure sharing for tails — the same shape the
    /// tree-walker gets from `Rc` sharing, without the refcounts.
    conses: Vec<(Word, Word)>,
    strs: Vec<Rc<str>>,
    clos: Vec<HClosure>,
    records: Vec<HRecord>,
    datas: Vec<HData>,
    exts: Vec<Value>,
}

impl Heap {
    fn alloc_clo(&mut self, func: u32, captures: Vec<Word>) -> u32 {
        let i = self.clos.len() as u32;
        self.clos.push(HClosure {
            func,
            captures,
            unfolded: Cell::new(None),
        });
        i
    }
}

/// Imports a boundary [`Value`] into the arena.
fn import(v: &Value, heap: &mut Heap) -> Word {
    match v {
        Value::Int(n) => Word::Int(*n),
        Value::Bool(b) => Word::Bool(*b),
        Value::Unit => Word::Unit,
        Value::Str(s) => {
            heap.strs.push(s.clone());
            Word::Str((heap.strs.len() - 1) as u32)
        }
        Value::Pair(a, b) => {
            let wa = import(a, heap);
            let wb = import(b, heap);
            heap.pairs.push((wa, wb));
            Word::Pair((heap.pairs.len() - 1) as u32)
        }
        Value::List(xs) => {
            let items: Vec<&Value> = xs.iter().collect();
            let mut acc = Word::Nil;
            for x in items.into_iter().rev() {
                let h = import(x, heap);
                heap.conses.push((h, acc));
                acc = Word::Cons((heap.conses.len() - 1) as u32);
            }
            acc
        }
        Value::Record { name, fields } => {
            let syms: Rc<[Symbol]> = fields.iter().map(|(u, _)| *u).collect();
            let vals: Vec<Word> = fields.iter().map(|(_, v)| import(v, heap)).collect();
            heap.records.push(HRecord {
                name: *name,
                fields: syms,
                vals,
            });
            Word::Record((heap.records.len() - 1) as u32)
        }
        Value::Data { ctor, fields } => {
            let vals: Vec<Word> = fields.iter().map(|v| import(v, heap)).collect();
            heap.datas.push(HData {
                ctor: *ctor,
                fields: vals,
            });
            Word::Data((heap.datas.len() - 1) as u32)
        }
        Value::CompiledClosure(rc) => {
            let caps: Vec<Word> = rc.captures.iter().map(|c| import(c, heap)).collect();
            Word::Clo(heap.alloc_clo(rc.func, caps))
        }
        Value::CompiledTyClosure(rc) => {
            let caps: Vec<Word> = rc.captures.iter().map(|c| import(c, heap)).collect();
            Word::TyClo(heap.alloc_clo(rc.func, caps))
        }
        Value::CompiledRec(rc) => {
            let caps: Vec<Word> = rc.captures.iter().map(|c| import(c, heap)).collect();
            Word::Rec(heap.alloc_clo(rc.func, caps))
        }
        // Tree-walker closures have no compiled code to point at;
        // carry them opaquely (they can only be observed by error
        // messages and closure-equality errors, same as the
        // tree-walker).
        Value::Closure { .. } | Value::TyClosure { .. } => {
            heap.exts.push(v.clone());
            Word::Ext((heap.exts.len() - 1) as u32)
        }
    }
}

/// Exports an arena word back to a boundary [`Value`].
fn export(w: Word, heap: &Heap) -> Value {
    match w {
        Word::Int(n) => Value::Int(n),
        Word::Bool(b) => Value::Bool(b),
        Word::Unit => Value::Unit,
        Word::Nil => Value::List(List::new()),
        Word::Str(i) => Value::Str(heap.strs[i as usize].clone()),
        Word::Pair(i) => {
            let (a, b) = heap.pairs[i as usize];
            Value::Pair(Rc::new(export(a, heap)), Rc::new(export(b, heap)))
        }
        Word::Cons(_) => {
            let mut xs = Vec::new();
            let mut cur = w;
            while let Word::Cons(i) = cur {
                let (h, t) = heap.conses[i as usize];
                xs.push(export(h, heap));
                cur = t;
            }
            Value::List(List::from_vec(xs))
        }
        Word::Record(i) => {
            let r = &heap.records[i as usize];
            let fields: Vec<(Symbol, Value)> = r
                .fields
                .iter()
                .copied()
                .zip(r.vals.iter().map(|v| export(*v, heap)))
                .collect();
            Value::Record {
                name: r.name,
                fields: Rc::new(fields),
            }
        }
        Word::Data(i) => {
            let d = &heap.datas[i as usize];
            Value::Data {
                ctor: d.ctor,
                fields: Rc::new(d.fields.iter().map(|v| export(*v, heap)).collect()),
            }
        }
        Word::Clo(i) => {
            let c = &heap.clos[i as usize];
            Value::CompiledClosure(Rc::new(VmClosure::new(
                c.func,
                c.captures.iter().map(|w| export(*w, heap)).collect(),
            )))
        }
        Word::TyClo(i) => {
            let c = &heap.clos[i as usize];
            Value::CompiledTyClosure(Rc::new(VmClosure::new(
                c.func,
                c.captures.iter().map(|w| export(*w, heap)).collect(),
            )))
        }
        Word::Rec(i) => {
            let c = &heap.clos[i as usize];
            Value::CompiledRec(Rc::new(VmClosure::new(
                c.func,
                c.captures.iter().map(|w| export(*w, heap)).collect(),
            )))
        }
        Word::Ext(i) => heap.exts[i as usize].clone(),
    }
}

/// Renders a word the way the tree-walker renders the equivalent
/// [`Value`] — error paths only.
fn show(w: Word, heap: &Heap) -> String {
    export(w, heap).to_string()
}

/// Structural equality on first-order words (`None` when a closure is
/// involved), mirroring [`Value::try_eq`] decision-for-decision —
/// including its length-before-elements short-circuiting, so the two
/// backends stick (or don't) on exactly the same comparisons.
fn word_eq(a: Word, b: Word, heap: &Heap) -> Option<bool> {
    match (a, b) {
        (Word::Int(x), Word::Int(y)) => Some(x == y),
        (Word::Bool(x), Word::Bool(y)) => Some(x == y),
        (Word::Unit, Word::Unit) => Some(true),
        (Word::Str(x), Word::Str(y)) => Some(heap.strs[x as usize] == heap.strs[y as usize]),
        (Word::Pair(p), Word::Pair(q)) => {
            let (a1, b1) = heap.pairs[p as usize];
            let (a2, b2) = heap.pairs[q as usize];
            if !word_eq(a1, a2, heap)? {
                return Some(false);
            }
            word_eq(b1, b2, heap)
        }
        (Word::Nil, Word::Nil) => Some(true),
        (Word::Nil, Word::Cons(_)) | (Word::Cons(_), Word::Nil) => Some(false),
        (Word::Cons(_), Word::Cons(_)) => {
            if list_len(a, heap) != list_len(b, heap) {
                return Some(false);
            }
            let (mut x, mut y) = (a, b);
            while let (Word::Cons(i), Word::Cons(j)) = (x, y) {
                let (hx, tx) = heap.conses[i as usize];
                let (hy, ty) = heap.conses[j as usize];
                if !word_eq(hx, hy, heap)? {
                    return Some(false);
                }
                x = tx;
                y = ty;
            }
            Some(true)
        }
        (Word::Data(x), Word::Data(y)) => {
            let dx = &heap.datas[x as usize];
            let dy = &heap.datas[y as usize];
            if dx.ctor != dy.ctor || dx.fields.len() != dy.fields.len() {
                return Some(false);
            }
            for (u, v) in dx.fields.iter().zip(dy.fields.iter()) {
                if !word_eq(*u, *v, heap)? {
                    return Some(false);
                }
            }
            Some(true)
        }
        (Word::Record(x), Word::Record(y)) => {
            let rx = &heap.records[x as usize];
            let ry = &heap.records[y as usize];
            if rx.name != ry.name || rx.fields.len() != ry.fields.len() {
                return Some(false);
            }
            for (i, (u1, u2)) in rx.fields.iter().zip(ry.fields.iter()).enumerate() {
                if u1 != u2 {
                    return Some(false);
                }
                if !word_eq(rx.vals[i], ry.vals[i], heap)? {
                    return Some(false);
                }
            }
            Some(true)
        }
        _ => None,
    }
}

fn list_len(mut w: Word, heap: &Heap) -> usize {
    let mut n = 0;
    while let Word::Cons(i) = w {
        n += 1;
        w = heap.conses[i as usize].1;
    }
    n
}

/// Word-level primitive application, byte-identical in results and
/// error messages to [`crate::eval`]'s `binop`.
#[inline]
fn binop_w(op: BinOp, a: Word, b: Word, heap: &mut Heap) -> Result<Word, EvalError> {
    use BinOp::*;
    match (op, a, b) {
        (Add, Word::Int(x), Word::Int(y)) => Ok(Word::Int(x.wrapping_add(y))),
        (Sub, Word::Int(x), Word::Int(y)) => Ok(Word::Int(x.wrapping_sub(y))),
        (Mul, Word::Int(x), Word::Int(y)) => Ok(Word::Int(x.wrapping_mul(y))),
        (Div, Word::Int(_), Word::Int(0)) | (Mod, Word::Int(_), Word::Int(0)) => {
            Err(EvalError::DivisionByZero)
        }
        (Div, Word::Int(x), Word::Int(y)) => Ok(Word::Int(x.wrapping_div(y))),
        (Mod, Word::Int(x), Word::Int(y)) => Ok(Word::Int(x.wrapping_rem(y))),
        (Lt, Word::Int(x), Word::Int(y)) => Ok(Word::Bool(x < y)),
        (Le, Word::Int(x), Word::Int(y)) => Ok(Word::Bool(x <= y)),
        (And, Word::Bool(x), Word::Bool(y)) => Ok(Word::Bool(x && y)),
        (Or, Word::Bool(x), Word::Bool(y)) => Ok(Word::Bool(x || y)),
        (Concat, Word::Str(x), Word::Str(y)) => {
            let s = format!("{}{}", heap.strs[x as usize], heap.strs[y as usize]);
            heap.strs.push(Rc::from(s.as_str()));
            Ok(Word::Str((heap.strs.len() - 1) as u32))
        }
        (Eq, a, b) => word_eq(a, b, heap)
            .map(Word::Bool)
            .ok_or_else(|| EvalError::Stuck("equality on closures".into())),
        (op, a, b) => Err(EvalError::Stuck(format!(
            "{op:?} on {} and {}",
            show(a, heap),
            show(b, heap)
        ))),
    }
}

/// Frame sentinel for "no closure / not a fix body".
const NONE: u32 = u32::MAX;

/// One activation record. The frame's register window is
/// `regs[base..base + nslots]`; `clo` and `rec` are arena closure
/// indices (or [`NONE`]); `ret_dst` is the absolute index (inside the
/// *caller's* window) that receives this frame's result.
struct RFrame {
    func: u32,
    ip: usize,
    base: usize,
    clo: u32,
    rec: u32,
    ret_dst: usize,
}

/// The virtual machine, carrying the same kind of step budget as the
/// tree-walker (counted per frame entry).
pub struct Vm {
    fuel: u64,
    initial_fuel: u64,
    tail_calls: u64,
    fix_unfolds: u64,
    match_ic_hits: u64,
    match_ic_misses: u64,
    profile: bool,
    dispatch_counts: HashMap<&'static str, u64>,
}

/// Execution counters of one [`Vm`], cumulative over its lifetime
/// (feeds the `vm_run` trace event and the metrics registry).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct VmStats {
    /// Fuel charged (frame pushes + tail calls).
    pub fuel_used: u64,
    /// Tail calls that reused the running frame.
    pub tail_calls: u64,
    /// `fix` unfolds answered by the per-closure unfold cache.
    pub fix_unfolds: u64,
    /// Match dispatches answered by the match-site inline cache
    /// (last-arm probe succeeded).
    pub match_ic_hits: u64,
    /// Match dispatches that fell back to the linear arm scan (and
    /// refilled the cache).
    pub match_ic_misses: u64,
}

impl Default for Vm {
    fn default() -> Vm {
        Vm::with_fuel(10_000_000)
    }
}

impl Vm {
    /// A VM with the default budget (matching
    /// [`crate::eval::Evaluator`]'s).
    pub fn new() -> Vm {
        Vm::default()
    }

    /// A VM with a custom budget.
    pub fn with_fuel(fuel: u64) -> Vm {
        Vm {
            fuel,
            initial_fuel: fuel,
            tail_calls: 0,
            fix_unfolds: 0,
            match_ic_hits: 0,
            match_ic_misses: 0,
            profile: false,
            dispatch_counts: HashMap::new(),
        }
    }

    /// Enables per-opcode dispatch profiling: every executed
    /// instruction is counted by mnemonic. Off by
    /// default — profiling selects a separately monomorphized
    /// dispatch loop, so the unprofiled hot path pays nothing.
    pub fn set_profile(&mut self, on: bool) {
        self.profile = on;
    }

    /// The per-opcode dispatch histogram accumulated while profiling
    /// was enabled, most-executed first (ties broken
    /// lexicographically for determinism).
    pub fn dispatch_histogram(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.dispatch_counts.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// The cumulative execution counters.
    pub fn stats(&self) -> VmStats {
        VmStats {
            fuel_used: self.initial_fuel - self.fuel,
            tail_calls: self.tail_calls,
            fix_unfolds: self.fix_unfolds,
            match_ic_hits: self.match_ic_hits,
            match_ic_misses: self.match_ic_misses,
        }
    }

    /// Runs function `main` of `code` to completion. `globals` must
    /// be parallel to the owning [`Compiler`]'s global table.
    ///
    /// Creates a fresh bump arena for the run, imports the constant
    /// pool and globals into it, executes the word-level dispatch
    /// loop, and exports the result.
    ///
    /// # Errors
    ///
    /// The same conditions as [`crate::eval::Evaluator::eval`]:
    /// primitive failures, fuel exhaustion, and — for code compiled
    /// from ill-typed terms only — stuck states.
    pub fn run(
        &mut self,
        code: &CodeObject,
        main: u32,
        globals: &[Value],
    ) -> Result<Value, EvalError> {
        let mut heap = Heap::default();
        let wconsts: Vec<Word> = code.consts.iter().map(|v| import(v, &mut heap)).collect();
        let wglobals: Vec<Word> = globals.iter().map(|v| import(v, &mut heap)).collect();
        if self.profile {
            self.run_regs::<true>(code, main, &wconsts, &wglobals, &mut heap)
        } else {
            self.run_regs::<false>(code, main, &wconsts, &wglobals, &mut heap)
        }
    }

    /// The stackless dispatch loop. One flat `regs` vector holds every
    /// live frame's register window; results travel through each
    /// frame's `ret_dst` instead of an operand stack. `PROFILE`
    /// selects the dispatch-histogram instrumentation at
    /// monomorphization time, so the unprofiled loop carries no check
    /// at all.
    #[allow(clippy::too_many_lines)]
    fn run_regs<const PROFILE: bool>(
        &mut self,
        code: &CodeObject,
        main: u32,
        wconsts: &[Word],
        wglobals: &[Word],
        heap: &mut Heap,
    ) -> Result<Value, EvalError> {
        let mut regs: Vec<Word> = Vec::new();
        let mut frames: Vec<RFrame> = Vec::new();
        self.enter_regs(code, &mut frames, &mut regs, main, None, NONE, NONE, 0)?;
        // Dispatch registers: the hot loop reads these instead of
        // chasing `frames.last()` and double-indexing `code.funcs` on
        // every instruction. The mutable ones are written back to the
        // `RFrame` on a call (so a return can resume the caller) and
        // all are reloaded on every frame push/pop; in between —
        // notably across the tail calls of a compiled loop — the
        // `RFrame` may be stale and the registers are authoritative.
        let mut ip: usize = 0;
        let mut base: usize = 0;
        let mut cur_func: u32 = main;
        let mut cur_clo: u32 = NONE;
        let mut cur_rec: u32 = NONE;
        let mut fcode: &[Instr] = &code.funcs[main as usize].code;
        macro_rules! reload {
            () => {{
                let fr = frames.last().expect("active frame");
                ip = fr.ip;
                base = fr.base;
                cur_func = fr.func;
                cur_clo = fr.clo;
                cur_rec = fr.rec;
                fcode = &code.funcs[fr.func as usize].code;
            }};
        }
        macro_rules! save_frame {
            () => {{
                let fr = frames.last_mut().expect("active frame");
                fr.ip = ip;
                fr.func = cur_func;
                fr.clo = cur_clo;
                fr.rec = cur_rec;
            }};
        }
        /// Reads an RK operand: register when bit 15 is clear,
        /// constant-pool entry otherwise.
        macro_rules! rk {
            ($x:expr) => {{
                let x: u16 = $x;
                if x & RK_CONST != 0 {
                    wconsts[(x & RK_MASK) as usize]
                } else {
                    regs[base + x as usize]
                }
            }};
        }
        /// Unfolds a `fix` self-reference into register `$dst`:
        /// write the cached one-step result, or re-enter the fix
        /// body with `$dst` as its return destination.
        macro_rules! unfold {
            ($ix:expr, $dst:expr) => {{
                let ix = $ix;
                match heap.clos[ix as usize].unfolded.get() {
                    Some(v) => {
                        self.fix_unfolds += 1;
                        regs[base + $dst as usize] = v;
                    }
                    None => {
                        save_frame!();
                        let func = heap.clos[ix as usize].func;
                        let ret_dst = base + $dst as usize;
                        self.enter_regs(code, &mut frames, &mut regs, func, None, ix, ix, ret_dst)?;
                        reload!();
                    }
                }
            }};
        }
        /// Pops the current frame with `$result`, writing the fix
        /// unfold cache and the caller's destination register (or
        /// returning the exported result when the last frame pops).
        macro_rules! do_ret {
            ($result:expr) => {{
                let result: Word = $result;
                let fr = frames.pop().expect("returning frame");
                if cur_rec != NONE {
                    heap.clos[cur_rec as usize].unfolded.set(Some(result));
                }
                if frames.is_empty() {
                    return Ok(export(result, heap));
                }
                regs.truncate(fr.base);
                regs[fr.ret_dst] = result;
                reload!();
            }};
        }
        /// Replaces the current frame in place with a call to
        /// `$callee` on `$arg`, charged like a call. A *self* tail
        /// call reuses the window as-is, rewriting only the argument
        /// register.
        macro_rules! do_tailcall {
            ($callee:expr, $arg:expr) => {{
                let arg: Word = $arg;
                match $callee {
                    Word::Clo(ix) => {
                        if self.fuel == 0 {
                            return Err(EvalError::OutOfFuel);
                        }
                        self.fuel -= 1;
                        self.tail_calls += 1;
                        if ix == cur_clo {
                            // Self tail call on the *same closure* —
                            // the shape of every compiled loop's
                            // steady state. Function, window and
                            // closure registers are already right;
                            // only the argument changes.
                            regs[base] = arg;
                        } else {
                            let func = heap.clos[ix as usize].func;
                            if func == cur_func {
                                regs[base] = arg;
                            } else {
                                regs.truncate(base);
                                let nslots = code.funcs[func as usize].nslots;
                                regs.push(arg);
                                for _ in 1..nslots {
                                    regs.push(Word::Unit);
                                }
                                cur_func = func;
                                fcode = &code.funcs[func as usize].code;
                            }
                            cur_clo = ix;
                        }
                        cur_rec = NONE;
                        ip = 0;
                    }
                    other => return Err(EvalError::NotAFunction(show(other, heap))),
                }
            }};
        }
        // Monomorphic callee cache for `RCapBinTail`: a compiled
        // loop's back edge resolves the same capture of the same
        // closure every iteration, so remember the last
        // (closure, capture index) → callee resolution and skip the
        // two dependent heap chases. Sound because captures are
        // immutable and a fix's unfold cache is write-once
        // deterministic (the language is pure). Only the
        // unfolded-`Rec` path is cached, so `fix_unfolds`
        // accounting stays exact; `cur_clo` is never `NONE` at an
        // `RCapBinTail` (the fusion requires a capture load), so
        // the `NONE` seed cannot produce a false hit.
        let mut captail_clo: u32 = NONE;
        let mut captail_idx: u16 = 0;
        let mut captail_callee: Word = Word::Unit;
        loop {
            let instr = fcode[ip];
            ip += 1;
            if PROFILE {
                *self.dispatch_counts.entry(mnemonic(&instr)).or_insert(0) += 1;
            }
            match instr {
                Instr::RConst { dst, konst } => {
                    regs[base + dst as usize] = wconsts[konst as usize];
                }
                Instr::RMove { dst, src } => {
                    regs[base + dst as usize] = regs[base + src as usize];
                }
                Instr::RCapture { dst, idx } => {
                    debug_assert_ne!(cur_clo, NONE, "capture load in captureless frame");
                    let cap = heap.clos[cur_clo as usize].captures[idx as usize];
                    match cap {
                        Word::Rec(ix) => unfold!(ix, dst),
                        v => regs[base + dst as usize] = v,
                    }
                }
                Instr::RGlobal { dst, idx } => {
                    regs[base + dst as usize] = wglobals[idx as usize];
                }
                Instr::RRec { dst } => {
                    debug_assert_ne!(cur_rec, NONE, "rec load outside fix body");
                    unfold!(cur_rec, dst);
                }
                Instr::RClosure { dst, func } => {
                    let captures =
                        materialize_captures(code, func, base, cur_clo, cur_rec, &regs, heap);
                    let ix = heap.alloc_clo(func, captures);
                    regs[base + dst as usize] = Word::Clo(ix);
                }
                Instr::RTyClosure { dst, func } => {
                    let captures =
                        materialize_captures(code, func, base, cur_clo, cur_rec, &regs, heap);
                    let ix = heap.alloc_clo(func, captures);
                    regs[base + dst as usize] = Word::TyClo(ix);
                }
                Instr::REnterFix { dst, func } => {
                    let captures =
                        materialize_captures(code, func, base, cur_clo, cur_rec, &regs, heap);
                    let ix = heap.alloc_clo(func, captures);
                    save_frame!();
                    let ret_dst = base + dst as usize;
                    self.enter_regs(code, &mut frames, &mut regs, func, None, ix, ix, ret_dst)?;
                    reload!();
                }
                Instr::RCall { dst, f, arg } => {
                    let callee = regs[base + f as usize];
                    let a = rk!(arg);
                    match callee {
                        Word::Clo(ix) => {
                            save_frame!();
                            let func = heap.clos[ix as usize].func;
                            let ret_dst = base + dst as usize;
                            self.enter_regs(
                                code,
                                &mut frames,
                                &mut regs,
                                func,
                                Some(a),
                                ix,
                                NONE,
                                ret_dst,
                            )?;
                            reload!();
                        }
                        other => return Err(EvalError::NotAFunction(show(other, heap))),
                    }
                }
                Instr::RTailCall { f, arg } => {
                    let callee = regs[base + f as usize];
                    let a = rk!(arg);
                    do_tailcall!(callee, a);
                }
                Instr::RForce { dst, src } => match regs[base + src as usize] {
                    Word::TyClo(ix) => {
                        save_frame!();
                        let func = heap.clos[ix as usize].func;
                        let ret_dst = base + dst as usize;
                        self.enter_regs(
                            code,
                            &mut frames,
                            &mut regs,
                            func,
                            None,
                            ix,
                            NONE,
                            ret_dst,
                        )?;
                        reload!();
                    }
                    other => {
                        return Err(EvalError::Stuck(format!(
                            "type application of non-type-abstraction {}",
                            show(other, heap)
                        )))
                    }
                },
                Instr::RRet { src } => {
                    let result = rk!(src);
                    do_ret!(result);
                }
                Instr::Jump(t) => ip = t as usize,
                Instr::RJumpIfFalse { cond, target } => match rk!(cond) {
                    Word::Bool(true) => {}
                    Word::Bool(false) => ip = target as usize,
                    other => {
                        return Err(EvalError::Stuck(format!(
                            "if on non-boolean {}",
                            show(other, heap)
                        )))
                    }
                },
                Instr::RBin { op, dst, a, b } => {
                    let x = rk!(a);
                    let y = rk!(b);
                    regs[base + dst as usize] = binop_w(op, x, y, heap)?;
                }
                Instr::RUn { op, dst, src } => {
                    let v = rk!(src);
                    regs[base + dst as usize] = match (op, v) {
                        (UnOp::Not, Word::Bool(b)) => Word::Bool(!b),
                        (UnOp::Neg, Word::Int(n)) => Word::Int(-n),
                        (UnOp::IntToStr, Word::Int(n)) => {
                            heap.strs.push(Rc::from(n.to_string()));
                            Word::Str((heap.strs.len() - 1) as u32)
                        }
                        (op, v) => {
                            return Err(EvalError::Stuck(format!("{op:?} on {}", show(v, heap))))
                        }
                    };
                }
                Instr::RPair { dst, a, b } => {
                    let x = rk!(a);
                    let y = rk!(b);
                    heap.pairs.push((x, y));
                    regs[base + dst as usize] = Word::Pair((heap.pairs.len() - 1) as u32);
                }
                Instr::RFst { dst, src } => match regs[base + src as usize] {
                    Word::Pair(p) => regs[base + dst as usize] = heap.pairs[p as usize].0,
                    other => return Err(EvalError::Stuck(format!("fst on {}", show(other, heap)))),
                },
                Instr::RSnd { dst, src } => match regs[base + src as usize] {
                    Word::Pair(p) => regs[base + dst as usize] = heap.pairs[p as usize].1,
                    other => return Err(EvalError::Stuck(format!("snd on {}", show(other, heap)))),
                },
                Instr::RCons { dst, head, tail } => {
                    let h = rk!(head);
                    let t = rk!(tail);
                    match t {
                        Word::Nil | Word::Cons(_) => {
                            heap.conses.push((h, t));
                            regs[base + dst as usize] = Word::Cons((heap.conses.len() - 1) as u32);
                        }
                        other => {
                            return Err(EvalError::Stuck(format!(
                                "cons onto {}",
                                show(other, heap)
                            )))
                        }
                    }
                }
                Instr::RCaseList {
                    src,
                    head,
                    tail,
                    nil_target,
                } => match rk!(src) {
                    Word::Nil => ip = nil_target as usize,
                    Word::Cons(c) => {
                        let (hv, tv) = heap.conses[c as usize];
                        regs[base + head as usize] = hv;
                        regs[base + tail as usize] = tv;
                    }
                    other => {
                        return Err(EvalError::Stuck(format!("case on {}", show(other, heap))))
                    }
                },
                Instr::RMakeRecord {
                    dst,
                    base: rbase,
                    name,
                    fields,
                } => {
                    let syms = &code.field_lists[fields as usize];
                    let lo = base + rbase as usize;
                    let vals = regs[lo..lo + syms.len()].to_vec();
                    heap.records.push(HRecord {
                        name,
                        fields: syms.clone(),
                        vals,
                    });
                    regs[base + dst as usize] = Word::Record((heap.records.len() - 1) as u32);
                }
                Instr::RProject { dst, src, field } => match regs[base + src as usize] {
                    Word::Record(r) => {
                        let rec = &heap.records[r as usize];
                        let Some(pos) = rec.fields.iter().position(|u| *u == field) else {
                            return Err(EvalError::Stuck(format!(
                                "record {} has no field {field}",
                                rec.name
                            )));
                        };
                        regs[base + dst as usize] = rec.vals[pos];
                    }
                    other => {
                        return Err(EvalError::Stuck(format!(
                            "projection on {}",
                            show(other, heap)
                        )))
                    }
                },
                Instr::RInject {
                    dst,
                    base: rbase,
                    ctor,
                    argc,
                } => {
                    let lo = base + rbase as usize;
                    let vals = regs[lo..lo + argc as usize].to_vec();
                    heap.datas.push(HData { ctor, fields: vals });
                    regs[base + dst as usize] = Word::Data((heap.datas.len() - 1) as u32);
                }
                Instr::RMatch { src, tbl } => match regs[base + src as usize] {
                    Word::Data(d) => {
                        let ctor = heap.datas[d as usize].ctor;
                        let table = &code.match_tables[tbl as usize];
                        let cached = table.ic.get();
                        let pos = if cached != u32::MAX
                            && table
                                .arms
                                .get(cached as usize)
                                .is_some_and(|a| a.ctor == ctor)
                        {
                            self.match_ic_hits += 1;
                            cached as usize
                        } else {
                            let Some(pos) = table.arms.iter().position(|a| a.ctor == ctor) else {
                                return Err(EvalError::Stuck(format!("no arm for `{ctor}`")));
                            };
                            self.match_ic_misses += 1;
                            table.ic.set(pos as u32);
                            pos
                        };
                        let arm = &table.arms[pos];
                        let nfields = heap.datas[d as usize].fields.len();
                        if arm.binders as usize != nfields {
                            return Err(EvalError::Stuck(format!(
                                "arm `{ctor}` binder count mismatch"
                            )));
                        }
                        let lo = base + arm.binder_base as usize;
                        regs[lo..lo + nfields].copy_from_slice(&heap.datas[d as usize].fields);
                        ip = arm.target as usize;
                    }
                    other => {
                        return Err(EvalError::Stuck(format!("match on {}", show(other, heap))))
                    }
                },
                // --- Register superinstructions (see
                // `compile::fuse_regs`). Each is exactly its
                // constituents back to back with the intermediate
                // register writes elided.
                Instr::RBinJump { op, a, b, target } => {
                    let x = rk!(a);
                    let y = rk!(b);
                    match binop_w(op, x, y, heap)? {
                        Word::Bool(true) => {}
                        Word::Bool(false) => ip = target as usize,
                        other => {
                            return Err(EvalError::Stuck(format!(
                                "if on non-boolean {}",
                                show(other, heap)
                            )))
                        }
                    }
                }
                Instr::RBinRet { op, a, b } => {
                    let x = rk!(a);
                    let y = rk!(b);
                    let result = binop_w(op, x, y, heap)?;
                    do_ret!(result);
                }
                Instr::RBinTail { op, f, a, b } => {
                    let callee = regs[base + f as usize];
                    let x = rk!(a);
                    let y = rk!(b);
                    let arg = binop_w(op, x, y, heap)?;
                    do_tailcall!(callee, arg);
                }
                Instr::RCapBinTail { op, idx, a, b } => {
                    debug_assert_ne!(cur_clo, NONE, "capture load in captureless frame");
                    if cur_clo == captail_clo && idx == captail_idx {
                        self.fix_unfolds += 1;
                        let x = rk!(a);
                        let y = rk!(b);
                        let arg = binop_w(op, x, y, heap)?;
                        do_tailcall!(captail_callee, arg);
                        continue;
                    }
                    match heap.clos[cur_clo as usize].captures[idx as usize] {
                        Word::Rec(ix) => match heap.clos[ix as usize].unfolded.get() {
                            Some(callee) => {
                                self.fix_unfolds += 1;
                                captail_clo = cur_clo;
                                captail_idx = idx;
                                captail_callee = callee;
                                let x = rk!(a);
                                let y = rk!(b);
                                let arg = binop_w(op, x, y, heap)?;
                                do_tailcall!(callee, arg);
                            }
                            None => {
                                // First unfold of this fix: run the
                                // body into the frame's reserved
                                // scratch register, then re-execute
                                // this instruction against the filled
                                // cache. Entering the body charges
                                // the same one fuel unit the unfused
                                // `RCapture` miss charges; the
                                // re-execution charges none.
                                ip -= 1;
                                save_frame!();
                                let func = heap.clos[ix as usize].func;
                                let scratch =
                                    base + code.funcs[cur_func as usize].nslots as usize - 1;
                                self.enter_regs(
                                    code,
                                    &mut frames,
                                    &mut regs,
                                    func,
                                    None,
                                    ix,
                                    ix,
                                    scratch,
                                )?;
                                reload!();
                            }
                        },
                        callee => {
                            let x = rk!(a);
                            let y = rk!(b);
                            let arg = binop_w(op, x, y, heap)?;
                            do_tailcall!(callee, arg);
                        }
                    }
                }
            }
        }
    }

    /// Pushes an activation record, charging one fuel unit.
    #[allow(clippy::too_many_arguments)]
    fn enter_regs(
        &mut self,
        code: &CodeObject,
        frames: &mut Vec<RFrame>,
        regs: &mut Vec<Word>,
        func: u32,
        arg: Option<Word>,
        clo: u32,
        rec: u32,
        ret_dst: usize,
    ) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        self.fuel -= 1;
        let f = &code.funcs[func as usize];
        let base = regs.len();
        let mut filled = 0;
        if let Some(a) = arg {
            regs.push(a);
            filled = 1;
        }
        for _ in filled..f.nslots {
            regs.push(Word::Unit);
        }
        frames.push(RFrame {
            func,
            ip: 0,
            base,
            clo,
            rec,
            ret_dst,
        });
        Ok(())
    }
}

/// Executes a function's capture directives against the creating
/// frame's register state (see [`CapSrc`]). `Rec` sentinels are
/// propagated raw — they unfold only on operand loads.
fn materialize_captures(
    code: &CodeObject,
    func: u32,
    base: usize,
    clo: u32,
    rec: u32,
    regs: &[Word],
    heap: &Heap,
) -> Vec<Word> {
    code.funcs[func as usize]
        .captures
        .iter()
        .map(|src| match src {
            CapSrc::Local(s) => regs[base + *s as usize],
            CapSrc::Capture(i) => {
                debug_assert_ne!(clo, NONE, "transitive capture");
                heap.clos[clo as usize].captures[*i as usize]
            }
            CapSrc::Rec => {
                debug_assert_ne!(rec, NONE, "rec capture outside fix");
                Word::Rec(rec)
            }
        })
        .collect()
}

/// Convenience: compiles a closed term and runs it with the default
/// budget (the compiled-backend analogue of [`crate::eval::eval`]).
///
/// # Errors
///
/// An unbound variable surfaces as [`EvalError::UnboundVar`] (the
/// tree-walker reports the same term the same way, just later);
/// otherwise see [`Vm::run`].
pub fn compile_and_run(e: &FExpr) -> Result<Value, EvalError> {
    let mut compiler = Compiler::new();
    let main = compiler.compile(e).map_err(|err| match err {
        CompileError::Unbound(x) => EvalError::UnboundVar(x),
    })?;
    Vm::new().run(compiler.code(), main, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Evaluator};
    use crate::syntax::{BinOp, FMatchArm, FType};

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// Both backends must agree on the printed result.
    fn agree(e: &FExpr) -> String {
        let tree = eval(e).expect("tree-walk");
        let vm = compile_and_run(e).expect("vm");
        assert_eq!(tree.to_string(), vm.to_string(), "backends disagree on {e}");
        vm.to_string()
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
        assert_eq!(agree(&e), "42");
    }

    #[test]
    fn beta_reduction_and_shadowing() {
        let inner = FExpr::app(FExpr::lam("x", FType::Int, FExpr::var("x")), FExpr::Int(2));
        let e = FExpr::app(FExpr::lam("x", FType::Int, inner), FExpr::Int(1));
        assert_eq!(agree(&e), "2");
    }

    #[test]
    fn closures_capture_transitively() {
        // (\x. (\y. (\z. x + (y + z)) 3) 2) 1 — z's function captures
        // x and y through two levels.
        let body = FExpr::BinOp(
            BinOp::Add,
            Rc::new(FExpr::var("x")),
            Rc::new(FExpr::BinOp(
                BinOp::Add,
                Rc::new(FExpr::var("y")),
                Rc::new(FExpr::var("z")),
            )),
        );
        let e = FExpr::app(
            FExpr::lam(
                "x",
                FType::Int,
                FExpr::app(
                    FExpr::lam(
                        "y",
                        FType::Int,
                        FExpr::app(FExpr::lam("z", FType::Int, body), FExpr::Int(3)),
                    ),
                    FExpr::Int(2),
                ),
            ),
            FExpr::Int(1),
        );
        assert_eq!(agree(&e), "6");
    }

    #[test]
    fn type_application_forces_body() {
        let a = v("a");
        let id = FExpr::ty_abs([a], FExpr::lam("x", FType::Var(a), FExpr::var("x")));
        let e = FExpr::app(FExpr::TyApp(Rc::new(id), FType::Int), FExpr::Int(7));
        assert_eq!(agree(&e), "7");
    }

    #[test]
    fn tyabs_is_a_value_with_matching_rendering() {
        let a = v("a");
        let e = FExpr::ty_abs([a], FExpr::Int(1));
        assert_eq!(agree(&e), "<type-closure>");
        let lam = FExpr::lam("x", FType::Int, FExpr::var("x"));
        assert_eq!(agree(&lam), "<closure>");
    }

    fn fac_expr() -> FExpr {
        FExpr::Fix(
            v("fac"),
            FType::arrow(FType::Int, FType::Int),
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
        )
    }

    #[test]
    fn factorial_via_fix() {
        let e = FExpr::app(fac_expr(), FExpr::Int(6));
        assert_eq!(agree(&e), "720");
    }

    #[test]
    fn fix_self_reference_survives_closure_capture() {
        // fix go: Int -> Int. \n. if n <= 0 then 0
        //   else (\unused. go (n - 1)) () — the recursive call sits
        // inside a nested lambda, so `go` travels as a `Rec` word
        // capture and unfolds on load.
        let call = FExpr::app(
            FExpr::var("go"),
            FExpr::BinOp(BinOp::Sub, Rc::new(FExpr::var("n")), Rc::new(FExpr::Int(1))),
        );
        let wrapped = FExpr::app(FExpr::lam("unused", FType::Unit, call), FExpr::Unit);
        let e = FExpr::app(
            FExpr::Fix(
                v("go"),
                FType::arrow(FType::Int, FType::Int),
                Rc::new(FExpr::lam(
                    "n",
                    FType::Int,
                    FExpr::If(
                        Rc::new(FExpr::BinOp(
                            BinOp::Le,
                            Rc::new(FExpr::var("n")),
                            Rc::new(FExpr::Int(0)),
                        )),
                        Rc::new(FExpr::Int(0)),
                        Rc::new(wrapped),
                    ),
                )),
            ),
            FExpr::Int(25),
        );
        assert_eq!(agree(&e), "0");
    }

    #[test]
    fn divergence_runs_out_of_fuel() {
        let looping = FExpr::Fix(
            v("loop"),
            FType::arrow(FType::Int, FType::Int),
            Rc::new(FExpr::lam(
                "n",
                FType::Int,
                FExpr::app(FExpr::var("loop"), FExpr::var("n")),
            )),
        );
        let e = FExpr::app(looping, FExpr::Int(0));
        let mut compiler = Compiler::new();
        let main = compiler.compile(&e).unwrap();
        let err = Vm::with_fuel(500)
            .run(compiler.code(), main, &[])
            .unwrap_err();
        assert_eq!(err, EvalError::OutOfFuel);
    }

    #[test]
    fn vm_fuel_never_exceeds_tree_fuel() {
        // The comparability invariant: on a call-heavy program the VM
        // charges no more fuel than the tree-walker, so a shared
        // budget cannot fail only on the VM side.
        let e = FExpr::app(fac_expr(), FExpr::Int(12));
        let mut tree_fuel = None;
        for budget in 0..10_000 {
            if Evaluator::with_fuel(budget).eval(&e).is_ok() {
                tree_fuel = Some(budget);
                break;
            }
        }
        let tree_fuel = tree_fuel.expect("tree-walk terminates");
        let mut compiler = Compiler::new();
        let main = compiler.compile(&e).unwrap();
        assert!(
            Vm::with_fuel(tree_fuel)
                .run(compiler.code(), main, &[])
                .is_ok(),
            "VM needs more fuel than the tree-walker"
        );
    }

    #[test]
    fn division_by_zero_matches() {
        let e = FExpr::BinOp(BinOp::Div, Rc::new(FExpr::Int(1)), Rc::new(FExpr::Int(0)));
        assert_eq!(compile_and_run(&e).unwrap_err(), EvalError::DivisionByZero);
        assert_eq!(eval(&e).unwrap_err(), EvalError::DivisionByZero);
    }

    #[test]
    fn lists_case_and_strings() {
        let xs = FExpr::Cons(
            Rc::new(FExpr::Int(1)),
            Rc::new(FExpr::Cons(
                Rc::new(FExpr::Int(2)),
                Rc::new(FExpr::Nil(FType::Int)),
            )),
        );
        let e = FExpr::ListCase {
            scrut: Rc::new(xs.clone()),
            nil: Rc::new(FExpr::Int(0)),
            head: v("h"),
            tail: v("t"),
            cons: Rc::new(FExpr::BinOp(
                BinOp::Add,
                Rc::new(FExpr::var("h")),
                Rc::new(FExpr::ListCase {
                    scrut: Rc::new(FExpr::var("t")),
                    nil: Rc::new(FExpr::Int(100)),
                    head: v("h"),
                    tail: v("t"),
                    cons: Rc::new(FExpr::var("h")),
                }),
            )),
        };
        assert_eq!(agree(&e), "3");
        assert_eq!(agree(&xs), "[1, 2]");
        let s = FExpr::BinOp(
            BinOp::Concat,
            Rc::new(FExpr::Str("1,".into())),
            Rc::new(FExpr::UnOp(UnOp::IntToStr, Rc::new(FExpr::Int(23)))),
        );
        assert_eq!(agree(&s), "\"1,23\"");
    }

    #[test]
    fn list_equality_matches_tree_semantics() {
        // Length mismatch decides before elements (mirroring
        // `Value::try_eq`), element mismatch short-circuits, and
        // nested pairs compare structurally.
        let list = |ns: &[i64]| {
            ns.iter().rev().fold(FExpr::Nil(FType::Int), |acc, n| {
                FExpr::Cons(Rc::new(FExpr::Int(*n)), Rc::new(acc))
            })
        };
        let eq = |a: FExpr, b: FExpr| FExpr::BinOp(BinOp::Eq, Rc::new(a), Rc::new(b));
        assert_eq!(agree(&eq(list(&[1, 2]), list(&[1, 2]))), "true");
        assert_eq!(agree(&eq(list(&[1, 2]), list(&[1]))), "false");
        assert_eq!(agree(&eq(list(&[1, 2]), list(&[1, 3]))), "false");
        assert_eq!(agree(&eq(list(&[]), list(&[]))), "true");
        let pair = |a: i64, b: i64| FExpr::Pair(Rc::new(FExpr::Int(a)), Rc::new(FExpr::Int(b)));
        assert_eq!(agree(&eq(pair(1, 2), pair(1, 2))), "true");
        assert_eq!(agree(&eq(pair(1, 2), pair(2, 2))), "false");
    }

    #[test]
    fn closure_equality_sticks_like_the_tree_walker() {
        let lam = || FExpr::lam("x", FType::Int, FExpr::var("x"));
        let e = FExpr::BinOp(BinOp::Eq, Rc::new(lam()), Rc::new(lam()));
        assert_eq!(
            compile_and_run(&e).unwrap_err(),
            EvalError::Stuck("equality on closures".into())
        );
        assert_eq!(
            eval(&e).unwrap_err(),
            EvalError::Stuck("equality on closures".into())
        );
    }

    #[test]
    fn records_and_data() {
        let lit = FExpr::Make(
            v("P"),
            vec![],
            vec![(v("x"), FExpr::Int(3)), (v("y"), FExpr::Int(4))],
        );
        assert_eq!(agree(&FExpr::Proj(Rc::new(lit.clone()), v("y"))), "4");
        assert_eq!(agree(&lit), "P { x = 3, y = 4 }");

        let scrut = FExpr::Inject(v("Cons2"), vec![], vec![FExpr::Int(7), FExpr::Int(8)]);
        let m = FExpr::Match(
            Rc::new(scrut),
            vec![
                FMatchArm {
                    ctor: v("Nil2"),
                    binders: vec![],
                    body: FExpr::Int(0),
                },
                FMatchArm {
                    ctor: v("Cons2"),
                    binders: vec![v("a"), v("b")],
                    body: FExpr::BinOp(
                        BinOp::Mul,
                        Rc::new(FExpr::var("a")),
                        Rc::new(FExpr::var("b")),
                    ),
                },
            ],
        );
        assert_eq!(agree(&m), "56");
    }

    #[test]
    fn globals_resolve_and_roll_back() {
        let mut compiler = Compiler::new();
        let g = v("forty");
        compiler.add_global(g);
        let snap = compiler.snapshot();
        let e = FExpr::BinOp(BinOp::Add, Rc::new(FExpr::Var(g)), Rc::new(FExpr::Int(2)));
        let main = compiler.compile(&e).unwrap();
        let out = Vm::new()
            .run(compiler.code(), main, &[Value::Int(40)])
            .unwrap();
        assert_eq!(out.to_string(), "42");
        compiler.rollback(&snap);
        assert!(compiler.code().funcs.is_empty());
        // Recompiling after rollback reuses the same indices, and the
        // constant pool repopulates without drift — the fusion pass
        // is deterministic, so the code bytes match too.
        let main2 = compiler.compile(&e).unwrap();
        assert_eq!(main2, main);
        let out2 = Vm::new()
            .run(compiler.code(), main2, &[Value::Int(40)])
            .unwrap();
        assert_eq!(out2.to_string(), "42");
    }

    #[test]
    fn unbound_variables_error_like_the_tree_walker() {
        let e = FExpr::var("nope");
        assert_eq!(
            compile_and_run(&e).unwrap_err(),
            EvalError::UnboundVar(v("nope"))
        );
        assert_eq!(eval(&e).unwrap_err(), EvalError::UnboundVar(v("nope")));
    }

    #[test]
    fn deep_recursion_runs_in_constant_host_stack() {
        // 50k non-tail-recursive calls: the tree-walker would need a
        // large host stack for this; the VM must not. Run it on a
        // deliberately small 512 KB thread to prove the point
        // (`FExpr` is `Rc`-based and not `Send`, so the program is
        // built inside the thread).
        let handle = std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(|| {
                let sum = FExpr::Fix(
                    v("sum"),
                    FType::arrow(FType::Int, FType::Int),
                    Rc::new(FExpr::lam(
                        "n",
                        FType::Int,
                        FExpr::If(
                            Rc::new(FExpr::BinOp(
                                BinOp::Le,
                                Rc::new(FExpr::var("n")),
                                Rc::new(FExpr::Int(0)),
                            )),
                            Rc::new(FExpr::Int(0)),
                            Rc::new(FExpr::BinOp(
                                BinOp::Add,
                                Rc::new(FExpr::var("n")),
                                Rc::new(FExpr::app(
                                    FExpr::var("sum"),
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
                let e = FExpr::app(sum, FExpr::Int(50_000));
                compile_and_run(&e).map(|value| value.to_string())
            })
            .expect("spawn");
        let out = handle.join().expect("no stack overflow");
        assert_eq!(out.unwrap(), (50_000i64 * 50_001 / 2).to_string());
    }

    #[test]
    fn fusion_emits_superinstructions_and_preserves_results() {
        // The factorial loop contains the canonical fusable shapes (a
        // compare feeding a branch, an arithmetic op feeding the
        // recursive tail call); fusion must shorten the code without
        // changing the result or the fuel charged.
        let e = FExpr::app(fac_expr(), FExpr::Int(10));
        let mut fused = Compiler::new();
        let mut plain = Compiler::new();
        plain.set_fusion(false);
        let mf = fused.compile(&e).unwrap();
        let mp = plain.compile(&e).unwrap();
        let mut vm_f = Vm::new();
        let mut vm_p = Vm::new();
        let out_f = vm_f.run(fused.code(), mf, &[]).unwrap();
        let out_p = vm_p.run(plain.code(), mp, &[]).unwrap();
        assert_eq!(out_f.to_string(), out_p.to_string());
        assert_eq!(vm_f.stats().fuel_used, vm_p.stats().fuel_used);
        assert!(
            fused.fusion_stats().fused > 0,
            "no superinstructions emitted"
        );
        assert_eq!(plain.fusion_stats().fused, 0);
        let total_fused: usize = fused.code().funcs.iter().map(|f| f.code.len()).sum();
        let total_plain: usize = plain.code().funcs.iter().map(|f| f.code.len()).sum();
        assert!(
            total_fused < total_plain,
            "fused stream not shorter: {total_fused} vs {total_plain}"
        );
    }

    #[test]
    fn values_errors_and_fuel_are_pinned() {
        // Values, errors and fuel bills (one unit per frame entry and
        // per tail call). The pinned numbers are the ones a second,
        // independent ISA also produced for these programs.
        let cases = vec![
            (FExpr::app(fac_expr(), FExpr::Int(12)), Ok("479001600"), 15),
            (
                FExpr::Pair(
                    Rc::new(FExpr::BinOp(
                        BinOp::Add,
                        Rc::new(FExpr::Int(2)),
                        Rc::new(FExpr::Int(3)),
                    )),
                    Rc::new(FExpr::Str(String::from("hi"))),
                ),
                Ok("(5, \"hi\")"),
                1,
            ),
            (
                FExpr::Cons(
                    Rc::new(FExpr::Int(1)),
                    Rc::new(FExpr::Cons(
                        Rc::new(FExpr::Int(2)),
                        Rc::new(FExpr::Nil(FType::Int)),
                    )),
                ),
                Ok("[1, 2]"),
                1,
            ),
            (
                FExpr::app(FExpr::Int(1), FExpr::Int(2)),
                Err("cannot apply non-function value 1"),
                1,
            ),
        ];
        for (e, want, fuel) in cases {
            let mut compiler = Compiler::new();
            let main = compiler.compile(&e).unwrap();
            let mut vm = Vm::new();
            let out = vm
                .run(compiler.code(), main, &[])
                .map(|value| value.to_string())
                .map_err(|err| err.to_string());
            assert_eq!(
                out.as_deref(),
                want.map_err(str::to_owned).as_deref(),
                "on {e}"
            );
            assert_eq!(vm.stats().fuel_used, fuel, "fuel on {e}");
        }
    }

    #[test]
    fn dispatch_histogram_profiles_register_loop() {
        // A tail-recursive countdown: the canonical hot-loop shape
        // whose back edge the fused triple covers.
        let e = FExpr::app(
            FExpr::Fix(
                v("go"),
                FType::arrow(FType::Int, FType::Int),
                Rc::new(FExpr::lam(
                    "n",
                    FType::Int,
                    FExpr::If(
                        Rc::new(FExpr::BinOp(
                            BinOp::Le,
                            Rc::new(FExpr::var("n")),
                            Rc::new(FExpr::Int(0)),
                        )),
                        Rc::new(FExpr::Int(0)),
                        Rc::new(FExpr::app(
                            FExpr::var("go"),
                            FExpr::BinOp(
                                BinOp::Sub,
                                Rc::new(FExpr::var("n")),
                                Rc::new(FExpr::Int(1)),
                            ),
                        )),
                    ),
                )),
            ),
            FExpr::Int(10),
        );
        let mut compiler = Compiler::new();
        let main = compiler.compile(&e).unwrap();
        let mut vm = Vm::new();
        vm.set_profile(true);
        vm.run(compiler.code(), main, &[]).unwrap();
        let hist = vm.dispatch_histogram();
        assert!(!hist.is_empty(), "profiling recorded nothing");
        let total: u64 = hist.iter().map(|(_, n)| n).sum();
        assert!(total > 10, "suspiciously few dispatches: {total}");
        // Sorted by count descending.
        assert!(hist.windows(2).all(|w| w[0].1 >= w[1].1));
        // The countdown's back edge is the fused triple.
        assert!(
            hist.iter().any(|(m, _)| *m == "r.capture+bin+tailcall"),
            "hot loop not running on the fused back edge: {hist:?}"
        );
    }

    #[test]
    fn match_inline_cache_counts_hits() {
        // A loop that matches the same constructor repeatedly: the
        // first dispatch misses, the rest hit the cached arm.
        let scrut = || FExpr::Inject(v("S"), vec![], vec![FExpr::Int(1)]);
        let arm_match = |e: FExpr| {
            FExpr::Match(
                Rc::new(e),
                vec![
                    FMatchArm {
                        ctor: v("Z"),
                        binders: vec![],
                        body: FExpr::Int(0),
                    },
                    FMatchArm {
                        ctor: v("S"),
                        binders: vec![v("k")],
                        body: FExpr::var("k"),
                    },
                ],
            )
        };
        // go n = if n <= 0 then 0 else match S(1) { Z -> 0; S k -> k } + go (n - 1) - 1
        let body = FExpr::If(
            Rc::new(FExpr::BinOp(
                BinOp::Le,
                Rc::new(FExpr::var("n")),
                Rc::new(FExpr::Int(0)),
            )),
            Rc::new(FExpr::Int(0)),
            Rc::new(FExpr::BinOp(
                BinOp::Add,
                Rc::new(arm_match(scrut())),
                Rc::new(FExpr::BinOp(
                    BinOp::Sub,
                    Rc::new(FExpr::app(
                        FExpr::var("go"),
                        FExpr::BinOp(BinOp::Sub, Rc::new(FExpr::var("n")), Rc::new(FExpr::Int(1))),
                    )),
                    Rc::new(FExpr::Int(1)),
                )),
            )),
        );
        let e = FExpr::app(
            FExpr::Fix(
                v("go"),
                FType::arrow(FType::Int, FType::Int),
                Rc::new(FExpr::lam("n", FType::Int, body)),
            ),
            FExpr::Int(20),
        );
        let mut compiler = Compiler::new();
        let main = compiler.compile(&e).unwrap();
        let mut vm = Vm::new();
        let out = vm.run(compiler.code(), main, &[]).unwrap();
        assert_eq!(out.to_string(), "0");
        let stats = vm.stats();
        assert_eq!(
            stats.match_ic_misses, 1,
            "exactly the first dispatch misses"
        );
        assert_eq!(stats.match_ic_hits, 19, "every later dispatch hits");
    }

    #[test]
    fn match_inline_cache_recovers_from_polymorphic_sites() {
        // Alternate constructors at one site: the IC keeps
        // re-priming, and results stay correct.
        let mk = |c: &str, args: Vec<FExpr>| FExpr::Inject(v(c), vec![], args);
        let arm_match = |e: FExpr| {
            FExpr::Match(
                Rc::new(e),
                vec![
                    FMatchArm {
                        ctor: v("A"),
                        binders: vec![],
                        body: FExpr::Int(1),
                    },
                    FMatchArm {
                        ctor: v("B"),
                        binders: vec![],
                        body: FExpr::Int(2),
                    },
                ],
            )
        };
        // match A {} + match B {} + match A {} — the shared compile
        // has one table per match site, so each site is monomorphic
        // here; run the same compiled site against both ctors via a
        // lambda instead.
        let f = FExpr::lam(
            "x",
            FType::Int,
            arm_match(FExpr::If(
                Rc::new(FExpr::BinOp(
                    BinOp::Le,
                    Rc::new(FExpr::var("x")),
                    Rc::new(FExpr::Int(0)),
                )),
                Rc::new(mk("A", vec![])),
                Rc::new(mk("B", vec![])),
            )),
        );
        let e = FExpr::BinOp(
            BinOp::Add,
            Rc::new(FExpr::app(f.clone(), FExpr::Int(0))),
            Rc::new(FExpr::BinOp(
                BinOp::Add,
                Rc::new(FExpr::app(f.clone(), FExpr::Int(1))),
                Rc::new(FExpr::app(f, FExpr::Int(0))),
            )),
        );
        assert_eq!(agree(&e), "4");
    }

    #[test]
    fn globals_of_every_shape_roundtrip_through_the_arena() {
        // Compound globals (pairs, lists, records, data, strings) are
        // imported into the arena at run start and must project and
        // print exactly as the tree-walker would.
        let mut compiler = Compiler::new();
        let g = v("dict");
        compiler.add_global(g);
        let global = Value::Pair(
            Rc::new(Value::List(
                [Value::Int(1), Value::Int(2)].into_iter().collect(),
            )),
            Rc::new(Value::Record {
                name: v("Show"),
                fields: Rc::new(vec![(v("s"), Value::Str(Rc::from("x")))]),
            }),
        );
        let e = FExpr::Var(g);
        let main = compiler.compile(&e).unwrap();
        let out = Vm::new()
            .run(compiler.code(), main, std::slice::from_ref(&global))
            .unwrap();
        assert_eq!(out.to_string(), global.to_string());
        let snd = FExpr::Proj(Rc::new(FExpr::Snd(Rc::new(FExpr::Var(g)))), v("s"));
        let main2 = compiler.compile(&snd).unwrap();
        let out2 = Vm::new().run(compiler.code(), main2, &[global]).unwrap();
        assert_eq!(out2.to_string(), "\"x\"");
    }
}
