//! Closure conversion and bytecode compilation for elaborated
//! System F terms.
//!
//! After the type checker has accepted a term, its types are dead
//! weight at runtime: the compiler erases them, resolves every
//! variable to a frame slot, a capture index, or a global, and
//! flattens the tree into a linear instruction stream executed by
//! [`crate::vm::Vm`] in constant host stack.
//!
//! The compiler targets one instruction set, the **register ISA**:
//! three-address instructions over frame slots with RK-encoded
//! small-constant operands, compiled directly from the AST with a
//! stack-discipline virtual-register allocator and move coalescing (a
//! variable reference is its binder's register; no shuffle is
//! emitted). Every compiled run is checked against the tree-walking
//! [`crate::eval`] reference. Type abstraction is *not* fully erased —
//! `Λα.E` must remain a value (the tree-walker prints it as
//! `<type-closure>` and type application delays evaluation of `E`), so
//! it compiles to a nullary closure forced by [`Instr::RForce`].
//!
//! Closures are *flat*: each function lists, as [`CapSrc`]
//! directives, how its creator materializes the captured values at
//! closure-creation time. Recursion (`fix x:T. E`) mirrors the
//! tree-walker's unfold-one-step semantics: the recursive
//! self-reference is a [`crate::eval::Value::CompiledRec`] sentinel
//! that re-enters the fix body when loaded, so no reference cycles or
//! interior mutability are needed.
//!
//! The compiler is incremental: [`Compiler::snapshot`] /
//! [`Compiler::rollback`] let a warm session compile its prelude
//! once, then compile each batch program as an extension that is
//! discarded afterwards — the same watermark discipline the
//! hash-consing interner uses.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use implicit_core::list::List;
use implicit_core::symbol::Symbol;

use crate::eval::Value;
use crate::syntax::{BinOp, FExpr, UnOp};

/// How the *creating* frame materializes one captured value when it
/// executes a [`Instr::RClosure`] / [`Instr::RTyClosure`] /
/// [`Instr::REnterFix`] instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapSrc {
    /// Copy the creator's local slot.
    Local(u16),
    /// Copy the creator's own capture (raw — a `CompiledRec`
    /// sentinel is propagated, not unfolded).
    Capture(u16),
    /// The creator's recursive self-reference, stored as a
    /// `CompiledRec` sentinel.
    Rec,
}

/// The instruction set compiled code targets. There is one; the type
/// remains because artifact content keys and the artifact format
/// record it (as tag 0), and callers still name it when they build
/// those keys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Isa {
    /// Three-address register code: operands and results live in the
    /// frame's flat register window, there is no operand stack, and
    /// small constants ride inline as RK operands.
    #[default]
    Register,
}

/// RK operand encoding (register ISA): a `u16` operand with bit 15
/// clear names a frame register; with bit 15 set, the low 15 bits
/// index the constant pool. Pool entries beyond [`RK_MASK`] are
/// materialized through [`Instr::RConst`] instead.
pub const RK_CONST: u16 = 0x8000;
/// Payload mask of an RK operand.
pub const RK_MASK: u16 = 0x7FFF;

/// What kind of source binder a compiled function came from (for
/// diagnostics and tests; the VM treats all kinds uniformly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuncKind {
    /// `λ(x:T).E` — one parameter in slot 0.
    Lambda,
    /// `Λα.E` erased to a nullary thunk.
    TyAbs,
    /// The body of `fix x:T. E`; entering it unfolds the recursion
    /// one step.
    FixBody,
    /// A top-level expression compiled by [`Compiler::compile`].
    Main,
}

/// One compiled function.
#[derive(Clone, Debug)]
pub struct FuncCode {
    /// Source binder kind.
    pub kind: FuncKind,
    /// Frame size: the high-water mark of local slots (parameter,
    /// `case`/`match` binders).
    pub nslots: u16,
    /// Capture directives, executed by the creator in order.
    pub captures: Vec<CapSrc>,
    /// The instruction stream; every path ends in a return or a tail
    /// call ([`Instr::RRet`], [`Instr::RTailCall`] or a fused form).
    pub code: Vec<Instr>,
}

/// A bytecode instruction. Jump targets are absolute indices into
/// the owning function's `code`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    // `dst`/`src`/`f` name frame registers; operands documented as
    // *rk* are RK-encoded (see [`RK_CONST`]): bit 15 clear =
    // register, bit 15 set = constant-pool index.
    /// Load a constant-pool entry into `dst` (pool indices too large
    /// for RK encoding).
    RConst {
        /// Destination register.
        dst: u16,
        /// Constant-pool index.
        konst: u32,
    },
    /// Copy `src` into `dst`. Rare: direct binder references are
    /// coalesced away; this only survives where a branch join needs a
    /// value in a specific register.
    RMove {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// Load a capture into `dst`; a `Rec` sentinel unfolds into `dst`
    /// (entering the fix body unless the unfold cache is filled).
    RCapture {
        /// Destination register.
        dst: u16,
        /// Capture index.
        idx: u16,
    },
    /// Load a session global into `dst`.
    RGlobal {
        /// Destination register.
        dst: u16,
        /// Global slot.
        idx: u32,
    },
    /// Unfold the current frame's recursive self-reference into
    /// `dst`.
    RRec {
        /// Destination register.
        dst: u16,
    },
    /// Build a function closure into `dst`.
    RClosure {
        /// Destination register.
        dst: u16,
        /// Function index.
        func: u32,
    },
    /// Build a nullary type-abstraction thunk into `dst`.
    RTyClosure {
        /// Destination register.
        dst: u16,
        /// Function index.
        func: u32,
    },
    /// Build the closure for a fix body and immediately enter it; the
    /// body's result lands in `dst`.
    REnterFix {
        /// Destination register.
        dst: u16,
        /// Function index of the fix body.
        func: u32,
    },
    /// Call the closure in register `f` on *rk* operand `arg`; the
    /// callee's result lands in `dst`.
    RCall {
        /// Destination register.
        dst: u16,
        /// Register holding the callee.
        f: u16,
        /// Argument (*rk*).
        arg: u16,
    },
    /// Tail-call the closure in register `f` on *rk* operand `arg`,
    /// replacing the current frame.
    RTailCall {
        /// Register holding the callee.
        f: u16,
        /// Argument (*rk*).
        arg: u16,
    },
    /// Force the type-abstraction thunk in `src`; its body's result
    /// lands in `dst`.
    RForce {
        /// Destination register.
        dst: u16,
        /// Register holding the thunk.
        src: u16,
    },
    /// Return the *rk* operand, discarding the frame.
    RRet {
        /// Result (*rk*).
        src: u16,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Jump when the *rk* operand is `false`.
    RJumpIfFalse {
        /// Condition (*rk*).
        cond: u16,
        /// Branch target for a `false` condition.
        target: u32,
    },
    /// `dst = a op b` over *rk* operands.
    RBin {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: u16,
        /// Left operand (*rk*).
        a: u16,
        /// Right operand (*rk*).
        b: u16,
    },
    /// `dst = op src` over an *rk* operand.
    RUn {
        /// The operator.
        op: UnOp,
        /// Destination register.
        dst: u16,
        /// Operand (*rk*).
        src: u16,
    },
    /// Build a pair of *rk* operands into `dst`.
    RPair {
        /// Destination register.
        dst: u16,
        /// First component (*rk*).
        a: u16,
        /// Second component (*rk*).
        b: u16,
    },
    /// First component of the pair in `src`.
    RFst {
        /// Destination register.
        dst: u16,
        /// Register holding the pair.
        src: u16,
    },
    /// Second component of the pair in `src`.
    RSnd {
        /// Destination register.
        dst: u16,
        /// Register holding the pair.
        src: u16,
    },
    /// Extend list *rk* `tail` with *rk* `head` into `dst`.
    RCons {
        /// Destination register.
        dst: u16,
        /// Head (*rk*).
        head: u16,
        /// Tail list (*rk*).
        tail: u16,
    },
    /// List case on *rk* `src`. Empty: jump to `nil_target`.
    /// Non-empty: store head and tail into the named registers (the
    /// scrutinee is read before either write, so `src` may alias
    /// them) and fall through.
    RCaseList {
        /// Scrutinee (*rk*).
        src: u16,
        /// Register receiving the head.
        head: u16,
        /// Register receiving the tail list.
        tail: u16,
        /// Branch target for the empty list.
        nil_target: u32,
    },
    /// Build a record from consecutive registers starting at `base`
    /// (one per field, in declaration order).
    RMakeRecord {
        /// Destination register.
        dst: u16,
        /// First field register.
        base: u16,
        /// Interface name.
        name: Symbol,
        /// Index into the field-name pool.
        fields: u32,
    },
    /// Project a field of the record in `src`.
    RProject {
        /// Destination register.
        dst: u16,
        /// Register holding the record.
        src: u16,
        /// Field name.
        field: Symbol,
    },
    /// Build a data value from `argc` consecutive registers starting
    /// at `base`.
    RInject {
        /// Destination register.
        dst: u16,
        /// First argument register.
        base: u16,
        /// Constructor name.
        ctor: Symbol,
        /// Argument count.
        argc: u16,
    },
    /// Dispatch on the data value in `src` through the indexed
    /// [`MatchTable`]; the selected arm's fields land in its
    /// consecutive binder registers.
    RMatch {
        /// Register holding the scrutinee.
        src: u16,
        /// Match-table index.
        tbl: u32,
    },
    // --- Superinstructions; see `Compiler::fuse_regs`.
    /// Fused `RBin; RJumpIfFalse` over the bin result — the guard of
    /// every compiled counting loop.
    RBinJump {
        /// The operator.
        op: BinOp,
        /// Left operand (*rk*).
        a: u16,
        /// Right operand (*rk*).
        b: u16,
        /// Branch target for a `false` result.
        target: u32,
    },
    /// Fused `RBin; RRet` — compute-and-return.
    RBinRet {
        /// The operator.
        op: BinOp,
        /// Left operand (*rk*).
        a: u16,
        /// Right operand (*rk*).
        b: u16,
    },
    /// Fused `RBin; RTailCall` — the argument update plus back-edge
    /// of a compiled loop.
    RBinTail {
        /// The operator.
        op: BinOp,
        /// Register holding the callee.
        f: u16,
        /// Left operand (*rk*).
        a: u16,
        /// Right operand (*rk*).
        b: u16,
    },
    /// Fused `RCapture; RBin; RTailCall` — the whole back-edge of a
    /// self-recursive loop (the self-reference reaches the loop
    /// lambda as a capture, threaded through the enclosing `fix`
    /// body): load the captured callee (unfolding a recursive
    /// reference), compute the new argument, tail-call. On an
    /// unfold-cache miss the fix body runs first (into the frame's
    /// reserved scratch register) and the instruction re-executes
    /// against the filled cache, so the cache discipline and the
    /// fuel charged match unfused code exactly.
    RCapBinTail {
        /// The operator.
        op: BinOp,
        /// Capture index of the callee.
        idx: u16,
        /// Left operand (*rk*).
        a: u16,
        /// Right operand (*rk*).
        b: u16,
    },
}

/// The dispatch table of one `match` expression.
#[derive(Clone, Debug)]
pub struct MatchTable {
    /// Arms in source order (first match by constructor wins, as in
    /// the tree-walker).
    pub arms: Vec<MatchArmCode>,
    /// Monomorphic inline cache: the index of the arm this table
    /// selected last (`u32::MAX` until the first dispatch). Match
    /// sites are overwhelmingly monomorphic, so the VM probes this
    /// arm before falling back to the linear scan. The cell lives in
    /// `CodeSnapshot`-governed storage: every table belongs to
    /// exactly one `RMatch` instruction of one function, and session
    /// rollback truncates `match_tables`, so a stale cache can never
    /// survive the code it describes.
    pub ic: Cell<u32>,
}

impl Default for MatchTable {
    fn default() -> MatchTable {
        MatchTable {
            arms: Vec::new(),
            ic: Cell::new(u32::MAX),
        }
    }
}

/// One compiled `match` arm.
#[derive(Clone, Debug)]
pub struct MatchArmCode {
    /// Constructor name.
    pub ctor: Symbol,
    /// First local slot of the arm's binders (consecutive).
    pub binder_base: u16,
    /// Binder count (must equal the scrutinee's field count).
    pub binders: u16,
    /// Jump target of the arm body.
    pub target: u32,
}

/// A compiled program: functions plus the pools they reference.
#[derive(Clone, Debug, Default)]
pub struct CodeObject {
    /// Compiled functions, indexed by [`Instr::RClosure`] etc.
    pub funcs: Vec<FuncCode>,
    /// Constant pool (ints, strings, booleans, unit — deduplicated).
    pub consts: Vec<Value>,
    /// Field-name lists for [`Instr::RMakeRecord`].
    pub field_lists: Vec<Rc<[Symbol]>>,
    /// Dispatch tables for [`Instr::RMatch`].
    pub match_tables: Vec<MatchTable>,
}

/// A compile-time error. Well-typed closed terms (optionally closed
/// up to registered globals) never produce one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A variable is neither bound, captured, recursive, nor a
    /// registered global.
    Unbound(Symbol),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unbound(x) => write!(f, "unbound variable `{x}` at compile time"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Watermarks for rolling a [`Compiler`] back to a previous state
/// (see [`Compiler::snapshot`]).
#[derive(Clone, Copy, Debug)]
pub struct CodeSnapshot {
    funcs: usize,
    consts: usize,
    field_lists: usize,
    match_tables: usize,
    globals: usize,
}

/// One function mid-compilation.
struct FnCtx {
    kind: FuncKind,
    /// Binders currently in scope, innermost last.
    scope: Vec<(Symbol, u16)>,
    /// For fix bodies: the fix's own name.
    rec_name: Option<Symbol>,
    cap_names: Vec<Symbol>,
    cap_srcs: Vec<CapSrc>,
    next_slot: u16,
    nslots: u16,
    code: Vec<Instr>,
}

impl FnCtx {
    fn new(kind: FuncKind, param: Option<Symbol>, rec_name: Option<Symbol>) -> FnCtx {
        let mut ctx = FnCtx {
            kind,
            scope: Vec::new(),
            rec_name,
            cap_names: Vec::new(),
            cap_srcs: Vec::new(),
            next_slot: 0,
            nslots: 0,
            code: Vec::new(),
        };
        if let Some(p) = param {
            let slot = ctx.alloc_slot();
            ctx.scope.push((p, slot));
        }
        ctx
    }

    fn alloc_slot(&mut self) -> u16 {
        let s = self.next_slot;
        assert!(s < RK_MASK, "frame register file overflow");
        self.next_slot += 1;
        self.nslots = self.nslots.max(self.next_slot);
        s
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump(t)
            | Instr::RJumpIfFalse { target: t, .. }
            | Instr::RCaseList { nil_target: t, .. } => {
                *t = target;
            }
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }
}

/// Cumulative superinstruction statistics of one [`Compiler`]: what
/// the fusion pass emitted. Counters survive [`Compiler::rollback`] —
/// they describe the whole session, not one program.
#[derive(Clone, Debug, Default)]
pub struct FusionStats {
    /// Instructions scanned (pre-fusion stream length).
    pub instrs_scanned: u64,
    /// Instructions eliminated by fusion (a pair adds 1, a triple 2).
    pub fused: u64,
    /// Emitted superinstructions by mnemonic.
    pub fused_by_kind: HashMap<&'static str, u64>,
}

impl FusionStats {
    /// Accumulates another compiler's counters into this one (used to
    /// aggregate per-worker stats in batch mode).
    pub fn merge(&mut self, other: &FusionStats) {
        self.instrs_scanned += other.instrs_scanned;
        self.fused += other.fused;
        for (k, v) in &other.fused_by_kind {
            *self.fused_by_kind.entry(k).or_insert(0) += v;
        }
    }
}

/// A short mnemonic for an instruction's opcode (payload-blind), as
/// used by the dispatch histogram and the fusion counters.
pub fn mnemonic(i: &Instr) -> &'static str {
    match i {
        Instr::Jump(_) => "jump",
        Instr::RConst { .. } => "r.const",
        Instr::RMove { .. } => "r.move",
        Instr::RCapture { .. } => "r.capture",
        Instr::RGlobal { .. } => "r.global",
        Instr::RRec { .. } => "r.rec",
        Instr::RClosure { .. } => "r.closure",
        Instr::RTyClosure { .. } => "r.tyclosure",
        Instr::REnterFix { .. } => "r.enterfix",
        Instr::RCall { .. } => "r.call",
        Instr::RTailCall { .. } => "r.tailcall",
        Instr::RForce { .. } => "r.force",
        Instr::RRet { .. } => "r.ret",
        Instr::RJumpIfFalse { .. } => "r.jumpiffalse",
        Instr::RBin { .. } => "r.bin",
        Instr::RUn { .. } => "r.un",
        Instr::RPair { .. } => "r.pair",
        Instr::RFst { .. } => "r.fst",
        Instr::RSnd { .. } => "r.snd",
        Instr::RCons { .. } => "r.cons",
        Instr::RCaseList { .. } => "r.caselist",
        Instr::RMakeRecord { .. } => "r.makerecord",
        Instr::RProject { .. } => "r.project",
        Instr::RInject { .. } => "r.inject",
        Instr::RMatch { .. } => "r.match",
        Instr::RBinJump { .. } => "r.bin+jumpiffalse",
        Instr::RBinRet { .. } => "r.bin+ret",
        Instr::RBinTail { .. } => "r.bin+tailcall",
        Instr::RCapBinTail { .. } => "r.capture+bin+tailcall",
    }
}

/// Fuses one adjacent register-instruction triple, or `None`.
///
/// `RCapture; RBin; RTailCall` — the back-edge of a self-recursive
/// loop, whose callee arrives as a capture of the loop lambda —
/// fuses only when the tail call consumes exactly the two freshly
/// written registers and neither `RBin` operand reads the callee
/// destination (whose write the fusion elides).
fn fuse_rtriple(x: Instr, y: Instr, z: Instr) -> Option<Instr> {
    match (x, y, z) {
        (
            Instr::RCapture { dst: r, idx },
            Instr::RBin { op, dst: t, a, b },
            Instr::RTailCall { f, arg },
        ) if f == r && arg == t && t != r && a != r && b != r => {
            Some(Instr::RCapBinTail { op, idx, a, b })
        }
        _ => None,
    }
}

/// Fuses one adjacent register-instruction pair, or `None`.
///
/// Each pattern requires the consumer to read exactly the register
/// the producer writes. That register is always a compiler temporary
/// (binder registers are never `RBin` destinations), and temporaries
/// are dead past their consuming instruction under the
/// stack-discipline allocator, so eliding the write is sound.
fn fuse_rpair(x: Instr, y: Instr) -> Option<Instr> {
    Some(match (x, y) {
        // A register destination is always < `RK_MASK`, so an equal
        // rk operand is necessarily a register reference to it.
        (Instr::RBin { op, dst, a, b }, Instr::RJumpIfFalse { cond, target }) if cond == dst => {
            Instr::RBinJump { op, a, b, target }
        }
        (Instr::RBin { op, dst, a, b }, Instr::RRet { src }) if src == dst => {
            Instr::RBinRet { op, a, b }
        }
        (Instr::RBin { op, dst, a, b }, Instr::RTailCall { f, arg }) if arg == dst && f != dst => {
            Instr::RBinTail { op, f, a, b }
        }
        _ => return None,
    })
}

/// The incremental bytecode compiler.
///
/// A session-scoped instance accumulates functions, pools, and
/// globals across many [`Compiler::compile`] calls; the produced
/// [`CodeObject`] is shared by all of them, so a warm session's
/// prelude functions stay compiled while per-program extensions are
/// rolled back via [`Compiler::rollback`].
pub struct Compiler {
    code: CodeObject,
    int_pool: HashMap<i64, u32>,
    str_pool: HashMap<String, u32>,
    misc_pool: HashMap<u8, u32>,
    globals: Vec<Symbol>,
    global_map: HashMap<Symbol, u32>,
    fusion: bool,
    stats: FusionStats,
}

impl Default for Compiler {
    fn default() -> Compiler {
        Compiler {
            code: CodeObject::default(),
            int_pool: HashMap::new(),
            str_pool: HashMap::new(),
            misc_pool: HashMap::new(),
            globals: Vec::new(),
            global_map: HashMap::new(),
            fusion: true,
            stats: FusionStats::default(),
        }
    }
}

/// Plain decomposition of a compiler's state up to a snapshot —
/// everything a fresh process needs to rebuild the compiler without
/// recompiling (see [`Compiler::export_parts`] /
/// [`Compiler::from_parts`]).
#[derive(Clone, Debug)]
pub struct CodeParts {
    /// Compiled functions.
    pub funcs: Vec<FuncCode>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Record field-name lists.
    pub field_lists: Vec<Rc<[Symbol]>>,
    /// Match dispatch tables.
    pub match_tables: Vec<MatchTable>,
    /// Global names in slot order.
    pub globals: Vec<Symbol>,
    /// Whether superinstruction fusion was enabled.
    pub fusion: bool,
}

/// Global slots read by `func` — the per-compiled-function read-set
/// the artifact store records for incremental invalidation. Globals
/// are only ever loaded by [`Instr::RGlobal`], so a scan over that
/// opcode is exact.
pub fn func_global_reads(func: &FuncCode) -> Vec<u32> {
    let mut out: Vec<u32> = func
        .code
        .iter()
        .filter_map(|i| match i {
            Instr::RGlobal { idx, .. } => Some(*idx),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl Compiler {
    /// An empty compiler.
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// The accumulated code object.
    pub fn code(&self) -> &CodeObject {
        &self.code
    }

    /// The registered global names, in slot order (the VM's `globals`
    /// argument must be parallel to this).
    pub fn globals(&self) -> &[Symbol] {
        &self.globals
    }

    /// Registers `name` as a global, returning its slot. Idempotent.
    pub fn add_global(&mut self, name: Symbol) -> u32 {
        if let Some(&i) = self.global_map.get(&name) {
            return i;
        }
        let i = self.globals.len() as u32;
        self.globals.push(name);
        self.global_map.insert(name, i);
        i
    }

    /// Captures the current pool/function/global watermarks.
    pub fn snapshot(&self) -> CodeSnapshot {
        CodeSnapshot {
            funcs: self.code.funcs.len(),
            consts: self.code.consts.len(),
            field_lists: self.code.field_lists.len(),
            match_tables: self.code.match_tables.len(),
            globals: self.globals.len(),
        }
    }

    /// Decomposes the prefix of this compiler covered by `snap` into
    /// plain parts for the artifact serializer. The derived pools and
    /// the global map are not exported; [`Compiler::from_parts`]
    /// rebuilds them.
    pub fn export_parts(&self, snap: &CodeSnapshot) -> CodeParts {
        CodeParts {
            funcs: self.code.funcs[..snap.funcs].to_vec(),
            consts: self.code.consts[..snap.consts].to_vec(),
            field_lists: self.code.field_lists[..snap.field_lists].to_vec(),
            match_tables: self.code.match_tables[..snap.match_tables].to_vec(),
            globals: self.globals[..snap.globals].to_vec(),
            fusion: self.fusion,
        }
    }

    /// Rebuilds a compiler from decoded parts: the literal pools are
    /// re-derived by scanning the constant table (first occurrence
    /// wins, matching how [`Compiler::rollback`] leaves live pools)
    /// and the global map from the slot order.
    pub fn from_parts(parts: CodeParts) -> Compiler {
        let mut int_pool = HashMap::new();
        let mut str_pool = HashMap::new();
        let mut misc_pool = HashMap::new();
        for (i, v) in parts.consts.iter().enumerate() {
            let i = i as u32;
            match v {
                Value::Int(n) => {
                    int_pool.entry(*n).or_insert(i);
                }
                Value::Str(s) => {
                    str_pool.entry(s.to_string()).or_insert(i);
                }
                Value::Bool(b) => {
                    misc_pool.entry(u8::from(*b)).or_insert(i);
                }
                Value::Unit => {
                    misc_pool.entry(2).or_insert(i);
                }
                Value::List(xs) if xs.is_empty() => {
                    misc_pool.entry(3).or_insert(i);
                }
                _ => {}
            }
        }
        let global_map = parts
            .globals
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, i as u32))
            .collect();
        Compiler {
            code: CodeObject {
                funcs: parts.funcs,
                consts: parts.consts,
                field_lists: parts.field_lists,
                match_tables: parts.match_tables,
            },
            int_pool,
            str_pool,
            misc_pool,
            globals: parts.globals,
            global_map,
            fusion: parts.fusion,
            stats: FusionStats::default(),
        }
    }

    /// Rolls back to `snap`, discarding everything compiled since.
    pub fn rollback(&mut self, snap: &CodeSnapshot) {
        self.code.funcs.truncate(snap.funcs);
        self.code.consts.truncate(snap.consts);
        self.code.field_lists.truncate(snap.field_lists);
        self.code.match_tables.truncate(snap.match_tables);
        let consts = snap.consts as u32;
        self.int_pool.retain(|_, i| *i < consts);
        self.str_pool.retain(|_, i| *i < consts);
        self.misc_pool.retain(|_, i| *i < consts);
        let globals = snap.globals as u32;
        self.globals.truncate(snap.globals);
        self.global_map.retain(|_, i| *i < globals);
    }

    /// Compiles a term (closed up to the registered globals) into a
    /// new entry-point function and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unbound`] when a free variable is not
    /// a registered global — for elaborated, typechecked input this
    /// indicates an elaboration bug.
    pub fn compile(&mut self, e: &FExpr) -> Result<u32, CompileError> {
        let mut fns = vec![FnCtx::new(FuncKind::Main, None, None)];
        self.rc_tail(&mut fns, e)?;
        let ctx = fns.pop().expect("main context");
        debug_assert!(fns.is_empty(), "unbalanced function contexts");
        debug_assert!(ctx.cap_srcs.is_empty(), "main function cannot capture");
        Ok(self.finish(ctx))
    }

    /// Enables or disables superinstruction fusion for functions
    /// compiled *from now on* (default: enabled). Already-compiled
    /// functions are unaffected, so a session that wants a fusion-off
    /// leg must set this before compiling its prelude.
    pub fn set_fusion(&mut self, on: bool) {
        self.fusion = on;
    }

    /// Whether superinstruction fusion is enabled.
    pub fn fusion_enabled(&self) -> bool {
        self.fusion
    }

    /// Cumulative fusion counters.
    pub fn fusion_stats(&self) -> &FusionStats {
        &self.stats
    }

    fn finish(&mut self, ctx: FnCtx) -> u32 {
        self.stats.instrs_scanned += ctx.code.len() as u64;
        let (code, needs_scratch) = if self.fusion {
            self.fuse_regs(ctx.code)
        } else {
            (ctx.code, false)
        };
        let idx = self.code.funcs.len() as u32;
        self.code.funcs.push(FuncCode {
            kind: ctx.kind,
            nslots: ctx.nslots + u16::from(needs_scratch),
            captures: ctx.cap_srcs,
            code,
        });
        idx
    }

    /// The peephole superinstruction pass: greedily fuses adjacent
    /// triples ([`fuse_rtriple`]), then pairs ([`fuse_rpair`]), never
    /// across a *leader* — an instruction some jump lands on — and
    /// remaps every jump target, `RCaseList` nil target, and
    /// match-table arm target through the old→new index map.
    /// Deterministic, so recompiling the same term after a rollback
    /// reproduces identical code. Returns the fused stream and
    /// whether a scratch register must be reserved
    /// ([`Instr::RCapBinTail`] parks its cache-miss unfold result
    /// there).
    fn fuse_regs(&mut self, code: Vec<Instr>) -> (Vec<Instr>, bool) {
        let n = code.len();
        let mut leader = vec![false; n + 1];
        for instr in &code {
            match instr {
                Instr::Jump(t)
                | Instr::RJumpIfFalse { target: t, .. }
                | Instr::RCaseList { nil_target: t, .. } => leader[*t as usize] = true,
                Instr::RMatch { tbl, .. } => {
                    for arm in &self.code.match_tables[*tbl as usize].arms {
                        leader[arm.target as usize] = true;
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::with_capacity(n);
        let mut map = vec![0u32; n + 1];
        let mut needs_scratch = false;
        let mut i = 0;
        while i < n {
            map[i] = out.len() as u32;
            if i + 2 < n && !leader[i + 1] && !leader[i + 2] {
                if let Some(f) = fuse_rtriple(code[i], code[i + 1], code[i + 2]) {
                    map[i + 1] = out.len() as u32;
                    map[i + 2] = out.len() as u32;
                    *self.stats.fused_by_kind.entry(mnemonic(&f)).or_insert(0) += 1;
                    self.stats.fused += 2;
                    needs_scratch = true;
                    out.push(f);
                    i += 3;
                    continue;
                }
            }
            if i + 1 < n && !leader[i + 1] {
                if let Some(f) = fuse_rpair(code[i], code[i + 1]) {
                    map[i + 1] = out.len() as u32;
                    *self.stats.fused_by_kind.entry(mnemonic(&f)).or_insert(0) += 1;
                    self.stats.fused += 1;
                    out.push(f);
                    i += 2;
                    continue;
                }
            }
            out.push(code[i]);
            i += 1;
        }
        map[n] = out.len() as u32;
        for instr in &mut out {
            match instr {
                Instr::Jump(t)
                | Instr::RJumpIfFalse { target: t, .. }
                | Instr::RCaseList { nil_target: t, .. }
                | Instr::RBinJump { target: t, .. } => *t = map[*t as usize],
                Instr::RMatch { tbl, .. } => {
                    let tbl = *tbl as usize;
                    for arm in &mut self.code.match_tables[tbl].arms {
                        arm.target = map[arm.target as usize];
                    }
                }
                _ => {}
            }
        }
        (out, needs_scratch)
    }

    fn pool_const(&mut self, v: Value, key: PoolKey) -> u32 {
        let consts = &mut self.code.consts;
        let mut insert = |v: Value| {
            let i = consts.len() as u32;
            consts.push(v);
            i
        };
        match key {
            PoolKey::Int(n) => *self.int_pool.entry(n).or_insert_with(|| insert(v)),
            PoolKey::Str(s) => *self.str_pool.entry(s).or_insert_with(|| insert(v)),
            PoolKey::Misc(k) => *self.misc_pool.entry(k).or_insert_with(|| insert(v)),
        }
    }

    /// Compiles one expression in *tail*
    /// position: every control path it emits ends in [`Instr::RRet`]
    /// or [`Instr::RTailCall`], so branch joins need no jump and the
    /// frame is never resumed.
    fn rc_tail(&mut self, fns: &mut Vec<FnCtx>, e: &FExpr) -> Result<(), CompileError> {
        match e {
            FExpr::App(f, a) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let fr = self.rc_reg(fns, f)?;
                let arg = self.rc_operand(fns, a)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RTailCall { f: fr, arg });
                ctx.next_slot = mark;
            }
            FExpr::If(c, t, el) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let cond = self.rc_operand(fns, c)?;
                let ctx = fns.last_mut().expect("fn ctx");
                let to_else = ctx.emit(Instr::RJumpIfFalse { cond, target: 0 });
                ctx.next_slot = mark;
                self.rc_tail(fns, t)?;
                let ctx = fns.last_mut().expect("fn ctx");
                let else_at = ctx.here();
                ctx.patch(to_else, else_at);
                self.rc_tail(fns, el)?;
            }
            FExpr::ListCase {
                scrut,
                nil,
                head,
                tail: tail_name,
                cons,
            } => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_operand(fns, scrut)?;
                let ctx = fns.last_mut().expect("fn ctx");
                // The scrutinee temp is released before the binder
                // registers are carved out; `RCaseList` reads it
                // before writing, so aliasing is harmless.
                ctx.next_slot = mark;
                let saved_scope = ctx.scope.len();
                let hslot = ctx.alloc_slot();
                let tslot = ctx.alloc_slot();
                let case_at = ctx.emit(Instr::RCaseList {
                    src,
                    head: hslot,
                    tail: tslot,
                    nil_target: 0,
                });
                ctx.scope.push((*head, hslot));
                ctx.scope.push((*tail_name, tslot));
                self.rc_tail(fns, cons)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.scope.truncate(saved_scope);
                ctx.next_slot = mark;
                let nil_at = ctx.here();
                ctx.patch(case_at, nil_at);
                self.rc_tail(fns, nil)?;
            }
            FExpr::Match(scrut, arms) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_reg(fns, scrut)?;
                let tbl = self.code.match_tables.len() as u32;
                self.code.match_tables.push(MatchTable::default());
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RMatch { src, tbl });
                ctx.next_slot = mark;
                let mut compiled_arms = Vec::with_capacity(arms.len());
                for arm in arms {
                    let ctx = fns.last_mut().expect("fn ctx");
                    let target = ctx.here();
                    let saved_scope = ctx.scope.len();
                    let binder_base = ctx.next_slot;
                    for b in &arm.binders {
                        let s = ctx.alloc_slot();
                        ctx.scope.push((*b, s));
                    }
                    self.rc_tail(fns, &arm.body)?;
                    let ctx = fns.last_mut().expect("fn ctx");
                    ctx.scope.truncate(saved_scope);
                    ctx.next_slot = mark;
                    compiled_arms.push(MatchArmCode {
                        ctor: arm.ctor,
                        binder_base,
                        binders: arm.binders.len() as u16,
                        target,
                    });
                }
                self.code.match_tables[tbl as usize].arms = compiled_arms;
            }
            _ => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_operand(fns, e)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RRet { src });
                ctx.next_slot = mark;
            }
        }
        Ok(())
    }

    /// Compiles one expression, leaving its value in register `dst`
    /// (non-tail position).
    #[allow(clippy::too_many_lines)]
    fn rc_into(&mut self, fns: &mut Vec<FnCtx>, e: &FExpr, dst: u16) -> Result<(), CompileError> {
        match e {
            FExpr::Int(_) | FExpr::Bool(_) | FExpr::Str(_) | FExpr::Unit | FExpr::Nil(_) => {
                let konst = self.pool_literal(e);
                fns.last_mut()
                    .expect("fn ctx")
                    .emit(Instr::RConst { dst, konst });
            }
            FExpr::Var(x) => {
                let load = match resolve_var(fns, *x) {
                    Some(CapSrc::Local(s)) if s == dst => return Ok(()),
                    Some(CapSrc::Local(s)) => Instr::RMove { dst, src: s },
                    Some(CapSrc::Capture(i)) => Instr::RCapture { dst, idx: i },
                    Some(CapSrc::Rec) => Instr::RRec { dst },
                    None => match self.global_map.get(x) {
                        Some(&g) => Instr::RGlobal { dst, idx: g },
                        None => return Err(CompileError::Unbound(*x)),
                    },
                };
                fns.last_mut().expect("fn ctx").emit(load);
            }
            FExpr::Lam(x, _, b) => {
                fns.push(FnCtx::new(FuncKind::Lambda, Some(*x), None));
                self.rc_tail(fns, b)?;
                let ctx = fns.pop().expect("lambda context");
                let func = self.finish(ctx);
                fns.last_mut()
                    .expect("fn ctx")
                    .emit(Instr::RClosure { dst, func });
            }
            FExpr::App(f, a) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let fr = self.rc_reg(fns, f)?;
                let arg = self.rc_operand(fns, a)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RCall { dst, f: fr, arg });
                ctx.next_slot = mark;
            }
            FExpr::TyAbs(_, b) => {
                fns.push(FnCtx::new(FuncKind::TyAbs, None, None));
                self.rc_tail(fns, b)?;
                let ctx = fns.pop().expect("tyabs context");
                let func = self.finish(ctx);
                fns.last_mut()
                    .expect("fn ctx")
                    .emit(Instr::RTyClosure { dst, func });
            }
            FExpr::TyApp(f, _) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_reg(fns, f)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RForce { dst, src });
                ctx.next_slot = mark;
            }
            FExpr::If(c, t, el) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let cond = self.rc_operand(fns, c)?;
                let ctx = fns.last_mut().expect("fn ctx");
                let to_else = ctx.emit(Instr::RJumpIfFalse { cond, target: 0 });
                ctx.next_slot = mark;
                self.rc_into(fns, t, dst)?;
                let ctx = fns.last_mut().expect("fn ctx");
                let to_end = ctx.emit(Instr::Jump(0));
                let else_at = ctx.here();
                ctx.patch(to_else, else_at);
                self.rc_into(fns, el, dst)?;
                let ctx = fns.last_mut().expect("fn ctx");
                let end = ctx.here();
                ctx.patch(to_end, end);
            }
            FExpr::BinOp(op, a, b) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let ra = self.rc_operand(fns, a)?;
                let rb = self.rc_operand(fns, b)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RBin {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
                ctx.next_slot = mark;
            }
            FExpr::UnOp(op, a) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_operand(fns, a)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RUn { op: *op, dst, src });
                ctx.next_slot = mark;
            }
            FExpr::Pair(a, b) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let ra = self.rc_operand(fns, a)?;
                let rb = self.rc_operand(fns, b)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RPair { dst, a: ra, b: rb });
                ctx.next_slot = mark;
            }
            FExpr::Fst(a) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_reg(fns, a)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RFst { dst, src });
                ctx.next_slot = mark;
            }
            FExpr::Snd(a) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_reg(fns, a)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RSnd { dst, src });
                ctx.next_slot = mark;
            }
            FExpr::Cons(h, t) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let head = self.rc_operand(fns, h)?;
                let tail = self.rc_operand(fns, t)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RCons { dst, head, tail });
                ctx.next_slot = mark;
            }
            FExpr::ListCase {
                scrut,
                nil,
                head,
                tail: tail_name,
                cons,
            } => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_operand(fns, scrut)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.next_slot = mark;
                let saved_scope = ctx.scope.len();
                let hslot = ctx.alloc_slot();
                let tslot = ctx.alloc_slot();
                let case_at = ctx.emit(Instr::RCaseList {
                    src,
                    head: hslot,
                    tail: tslot,
                    nil_target: 0,
                });
                ctx.scope.push((*head, hslot));
                ctx.scope.push((*tail_name, tslot));
                self.rc_into(fns, cons, dst)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.scope.truncate(saved_scope);
                ctx.next_slot = mark;
                let to_end = ctx.emit(Instr::Jump(0));
                let nil_at = ctx.here();
                ctx.patch(case_at, nil_at);
                self.rc_into(fns, nil, dst)?;
                let ctx = fns.last_mut().expect("fn ctx");
                let end = ctx.here();
                ctx.patch(to_end, end);
            }
            FExpr::Fix(x, _, b) => {
                // The fix body never tail-calls: its `RRet` must run
                // so the VM can cache the one-step unfolding.
                fns.push(FnCtx::new(FuncKind::FixBody, None, Some(*x)));
                let src = self.rc_operand(fns, b)?;
                fns.last_mut()
                    .expect("fix context")
                    .emit(Instr::RRet { src });
                let ctx = fns.pop().expect("fix context");
                let func = self.finish(ctx);
                fns.last_mut()
                    .expect("fn ctx")
                    .emit(Instr::REnterFix { dst, func });
            }
            FExpr::Make(name, _, fields) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let base = mark;
                for (_, fe) in fields {
                    let t = fns.last_mut().expect("fn ctx").alloc_slot();
                    self.rc_into(fns, fe, t)?;
                }
                let syms: Rc<[Symbol]> = fields.iter().map(|(u, _)| *u).collect();
                let fl = self.code.field_lists.len() as u32;
                self.code.field_lists.push(syms);
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RMakeRecord {
                    dst,
                    base,
                    name: *name,
                    fields: fl,
                });
                ctx.next_slot = mark;
            }
            FExpr::Proj(rec, field) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_reg(fns, rec)?;
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RProject {
                    dst,
                    src,
                    field: *field,
                });
                ctx.next_slot = mark;
            }
            FExpr::Inject(ctor, _, args) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let base = mark;
                for a in args {
                    let t = fns.last_mut().expect("fn ctx").alloc_slot();
                    self.rc_into(fns, a, t)?;
                }
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RInject {
                    dst,
                    base,
                    ctor: *ctor,
                    argc: args.len() as u16,
                });
                ctx.next_slot = mark;
            }
            FExpr::Match(scrut, arms) => {
                let mark = fns.last().expect("fn ctx").next_slot;
                let src = self.rc_reg(fns, scrut)?;
                let tbl = self.code.match_tables.len() as u32;
                self.code.match_tables.push(MatchTable::default());
                let ctx = fns.last_mut().expect("fn ctx");
                ctx.emit(Instr::RMatch { src, tbl });
                ctx.next_slot = mark;
                let mut compiled_arms = Vec::with_capacity(arms.len());
                let mut end_jumps = Vec::with_capacity(arms.len());
                for arm in arms {
                    let ctx = fns.last_mut().expect("fn ctx");
                    let target = ctx.here();
                    let saved_scope = ctx.scope.len();
                    let binder_base = ctx.next_slot;
                    for b in &arm.binders {
                        let s = ctx.alloc_slot();
                        ctx.scope.push((*b, s));
                    }
                    self.rc_into(fns, &arm.body, dst)?;
                    let ctx = fns.last_mut().expect("fn ctx");
                    ctx.scope.truncate(saved_scope);
                    ctx.next_slot = mark;
                    end_jumps.push(ctx.emit(Instr::Jump(0)));
                    compiled_arms.push(MatchArmCode {
                        ctor: arm.ctor,
                        binder_base,
                        binders: arm.binders.len() as u16,
                        target,
                    });
                }
                let ctx = fns.last_mut().expect("fn ctx");
                let end = ctx.here();
                for j in end_jumps {
                    ctx.patch(j, end);
                }
                self.code.match_tables[tbl as usize].arms = compiled_arms;
            }
        }
        Ok(())
    }

    /// Pools a literal expression's constant, returning its index.
    fn pool_literal(&mut self, e: &FExpr) -> u32 {
        match e {
            FExpr::Int(n) => self.pool_const(Value::Int(*n), PoolKey::Int(*n)),
            FExpr::Bool(b) => self.pool_const(Value::Bool(*b), PoolKey::Misc(u8::from(*b))),
            FExpr::Str(s) => {
                self.pool_const(Value::Str(Rc::from(s.as_str())), PoolKey::Str(s.clone()))
            }
            FExpr::Unit => self.pool_const(Value::Unit, PoolKey::Misc(2)),
            FExpr::Nil(_) => self.pool_const(Value::List(List::new()), PoolKey::Misc(3)),
            other => unreachable!("pooling non-literal {other}"),
        }
    }

    /// Compiles an expression to an RK operand: literals become
    /// inline constant references (no instruction at all), a variable
    /// bound to a register *is* that register (move coalescing), and
    /// everything else lands in a fresh temporary. Capture, `rec`,
    /// and global loads keep their instruction — a capture load can
    /// unfold recursion, so it must hold its place in the stream.
    fn rc_operand(&mut self, fns: &mut Vec<FnCtx>, e: &FExpr) -> Result<u16, CompileError> {
        match e {
            FExpr::Int(_) | FExpr::Bool(_) | FExpr::Str(_) | FExpr::Unit | FExpr::Nil(_) => {
                let konst = self.pool_literal(e);
                if konst <= u32::from(RK_MASK) {
                    return Ok(konst as u16 | RK_CONST);
                }
            }
            FExpr::Var(x) => {
                if let Some(CapSrc::Local(s)) = resolve_var(fns, *x) {
                    return Ok(s);
                }
            }
            _ => {}
        }
        let t = fns.last_mut().expect("fn ctx").alloc_slot();
        self.rc_into(fns, e, t)?;
        Ok(t)
    }

    /// Compiles an expression to a plain register (for operands that
    /// must not be RK constants: callees, scrutinees, pairs being
    /// projected).
    fn rc_reg(&mut self, fns: &mut Vec<FnCtx>, e: &FExpr) -> Result<u16, CompileError> {
        if let FExpr::Var(x) = e {
            if let Some(CapSrc::Local(s)) = resolve_var(fns, *x) {
                return Ok(s);
            }
        }
        let t = fns.last_mut().expect("fn ctx").alloc_slot();
        self.rc_into(fns, e, t)?;
        Ok(t)
    }
}

/// Keys for constant-pool deduplication.
enum PoolKey {
    Int(i64),
    Str(String),
    /// `0`/`1` for the booleans, `2` for unit, `3` for the empty
    /// list.
    Misc(u8),
}

/// Resolves a variable against the in-progress function stack,
/// threading captures through intermediate functions. Returns how
/// the *innermost* function loads the value, or `None` for a free
/// variable (candidate global).
fn resolve_var(fns: &mut [FnCtx], name: Symbol) -> Option<CapSrc> {
    fn go(fns: &mut [FnCtx], level: usize, name: Symbol) -> Option<CapSrc> {
        let ctx = &fns[level];
        if let Some((_, slot)) = ctx.scope.iter().rev().find(|(n, _)| *n == name) {
            return Some(CapSrc::Local(*slot));
        }
        if ctx.rec_name == Some(name) {
            return Some(CapSrc::Rec);
        }
        if let Some(i) = ctx.cap_names.iter().position(|n| *n == name) {
            return Some(CapSrc::Capture(i as u16));
        }
        if level == 0 {
            return None;
        }
        // The parent's scope is frozen while this function compiles,
        // so capture-by-name deduplication is sound.
        let parent_src = go(fns, level - 1, name)?;
        let ctx = &mut fns[level];
        ctx.cap_names.push(name);
        ctx.cap_srcs.push(parent_src);
        Some(CapSrc::Capture((ctx.cap_names.len() - 1) as u16))
    }
    go(fns, fns.len() - 1, name)
}
