//! Versioned on-disk session artifacts.
//!
//! A warm [`Session`] is a pure function of `(declarations, prelude
//! source, policy, knobs)` — resolution is deterministic and
//! coherent, so the prelude's elaborated evidence, compiled bytecode,
//! derivation cache, and runtime-memo roots can be serialized once and
//! rehydrated by a later process without re-running any pipeline
//! phase. This module is that serialization layer:
//!
//! * [`Session::to_artifact`] encodes the whole base-state session —
//!   interned prelude types ride along structurally, the compiled
//!   prelude rides as [`CodeParts`], evidence values as the System F
//!   value graph (sharing preserved), the opsem leg as its
//!   environment/stack/memo-roots — into one checksummed byte vector
//!   keyed by a content hash of the inputs;
//! * [`Session::from_artifact`] rehydrates it, validating the magic,
//!   format version, checksum, and content key, so a stale or
//!   corrupted artifact is an `Err` (never a panic, never stale code);
//! * [`rebuild_incremental`] diffs an old artifact against an edited
//!   prelude and re-runs *only* the dependency cone of the edited
//!   bindings, reusing every surviving value, compiled global, cache
//!   entry, and memo root;
//! * [`ArtifactStore`] is the content-addressed directory layout
//!   (`<key>.iart`, a `<config>.head` pointer for incremental lookup
//!   on exact-miss, and `<source>.src` pointers from prelude texts to
//!   the artifacts they built) with atomic writes, and
//!   [`load_or_build`] is the exact → incremental → cold loading
//!   ladder. [`load_or_build_source`] puts one rung in front of it for
//!   callers that hold the prelude's text: a text the store has seen
//!   loads its artifact without being parsed or keyed. Every decode or
//!   validation failure on the way down, and every pointer that does
//!   not read as a key, is counted and reported via
//!   [`Session::note_artifact_fallbacks`];
//! * [`Session::persist`] writes a session back to its store only
//!   when the state its artifact holds changed since the store last
//!   matched it, so an exact hit that learns nothing writes nothing.
//!
//! The dependency metadata behind the incremental path is
//! [`BindingMeta`]: for each prelude binding (lets first, then
//! implicits — the same order as the compiler's global slots) the
//! indices of earlier bindings its elaborated evidence reads, from
//! both the free term variables of the elaborated System F term and
//! the global slots its compiled functions load.

use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use implicit_core::env::CacheExport;
use implicit_core::intern;
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::symbol::{ensure_fresh_at_least, Symbol};
use implicit_core::syntax::{Declarations, RuleType, Type};
use implicit_core::wire::{fnv64, fnv64_more, Dec, Enc, WireError};
use implicit_elab::{translate_rule_type, translate_type};
use implicit_opsem::interp::MemoExport;
use implicit_opsem::wire::{OpDec, OpEnc};
use implicit_opsem::{ImplStack, VarEnv};
use systemf::compile::{func_global_reads, CodeObject, CodeParts};
use systemf::eval::Env as FEnv;
use systemf::wire::{isa_from_tag, isa_tag, SfDec, SfEnc};
use systemf::{Compiler, FExpr, FType, Isa};

use crate::{Prelude, Session, SessionError};

/// Artifact file magic.
const MAGIC: [u8; 4] = *b"IART";

/// On-disk format version; bumped on any wire-layout change so older
/// processes reject newer artifacts (and vice versa) instead of
/// misreading them. Version 2 writes the derivation cache as one table
/// of shared, level-indexed derivation nodes.
pub const FORMAT_VERSION: u32 = 2;

/// An artifact failed to decode, validate, or rebuild. Always a
/// recoverable condition: callers fall back to a cold build.
#[derive(Debug)]
pub struct ArtifactError(pub String);

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "artifact: {}", self.0)
    }
}

impl std::error::Error for ArtifactError {}

impl From<WireError> for ArtifactError {
    fn from(e: WireError) -> ArtifactError {
        ArtifactError(format!("wire: {e}"))
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, ArtifactError> {
    Err(ArtifactError(msg.into()))
}

/// Per-binding dependency metadata: indices (into the unified
/// lets-then-implicits binding order) of the earlier bindings this
/// binding's evidence reads. Sorted, deduplicated; reads always point
/// strictly earlier, so invalidation is a single forward pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BindingMeta {
    /// Indices of earlier bindings read by this one.
    pub reads: Vec<u32>,
}

/// Free term variables of an elaborated System F term, in first-use
/// order (scope-tracked; binders shadow).
fn free_term_vars(e: &FExpr) -> Vec<Symbol> {
    fn go(e: &FExpr, scope: &mut Vec<Symbol>, out: &mut Vec<Symbol>) {
        match e {
            FExpr::Int(_) | FExpr::Bool(_) | FExpr::Str(_) | FExpr::Unit | FExpr::Nil(_) => {}
            FExpr::Var(x) => {
                if !scope.contains(x) && !out.contains(x) {
                    out.push(*x);
                }
            }
            FExpr::Lam(x, _, b) | FExpr::Fix(x, _, b) => {
                scope.push(*x);
                go(b, scope, out);
                scope.pop();
            }
            FExpr::App(f, a) | FExpr::Pair(f, a) | FExpr::Cons(f, a) => {
                go(f, scope, out);
                go(a, scope, out);
            }
            FExpr::BinOp(_, l, r) => {
                go(l, scope, out);
                go(r, scope, out);
            }
            FExpr::TyAbs(_, b)
            | FExpr::TyApp(b, _)
            | FExpr::UnOp(_, b)
            | FExpr::Fst(b)
            | FExpr::Snd(b)
            | FExpr::Proj(b, _) => go(b, scope, out),
            FExpr::If(c, t, f) => {
                go(c, scope, out);
                go(t, scope, out);
                go(f, scope, out);
            }
            FExpr::ListCase {
                scrut,
                nil,
                head,
                tail,
                cons,
            } => {
                go(scrut, scope, out);
                go(nil, scope, out);
                scope.push(*head);
                scope.push(*tail);
                go(cons, scope, out);
                scope.pop();
                scope.pop();
            }
            FExpr::Make(_, _, fields) => {
                for (_, f) in fields {
                    go(f, scope, out);
                }
            }
            FExpr::Inject(_, _, args) => {
                for a in args {
                    go(a, scope, out);
                }
            }
            FExpr::Match(scrut, arms) => {
                go(scrut, scope, out);
                for arm in arms {
                    let n = arm.binders.len();
                    scope.extend(arm.binders.iter().copied());
                    go(&arm.body, scope, out);
                    scope.truncate(scope.len() - n);
                }
            }
        }
    }
    let mut out = Vec::new();
    go(e, &mut Vec::new(), &mut out);
    out
}

/// Computes a binding's read-set from its elaborated term and the
/// functions compiled for it. `earlier` is the preservation context
/// built so far: the earlier bindings in index order (which is also
/// global-slot order). `funcs` is the function range this binding's
/// compilation appended.
pub(crate) fn binding_reads(
    earlier: &[(Symbol, FType)],
    fe: &FExpr,
    code: &CodeObject,
    funcs: std::ops::Range<usize>,
) -> BindingMeta {
    let mut reads: Vec<u32> = free_term_vars(fe)
        .into_iter()
        .filter_map(|x| earlier.iter().position(|(n, _)| *n == x).map(|i| i as u32))
        .collect();
    for f in &code.funcs[funcs] {
        for g in func_global_reads(f) {
            if (g as usize) < earlier.len() {
                reads.push(g);
            }
        }
    }
    reads.sort_unstable();
    reads.dedup();
    BindingMeta { reads }
}

fn enc_decls(e: &mut Enc, decls: &Declarations) {
    let interfaces: Vec<_> = decls.iter().collect();
    e.len(interfaces.len());
    for d in interfaces {
        e.sym(d.name);
        e.len(d.vars.len());
        for v in &d.vars {
            e.sym(*v);
        }
        e.len(d.fields.len());
        for (f, t) in &d.fields {
            e.sym(*f);
            e.ty(t);
        }
    }
    let datas: Vec<_> = decls.iter_datas().collect();
    e.len(datas.len());
    for d in datas {
        e.sym(d.name);
        e.len(d.params.len());
        for (p, k) in &d.params {
            e.sym(*p);
            e.len(*k);
        }
        e.len(d.ctors.len());
        for (c, args) in &d.ctors {
            e.sym(*c);
            e.len(args.len());
            for t in args {
                e.ty(t);
            }
        }
    }
}

fn enc_prelude(e: &mut Enc, p: &Prelude) {
    e.len(p.lets.len());
    for (x, ty, b) in &p.lets {
        e.sym(*x);
        e.ty(ty);
        e.expr(b);
    }
    e.len(p.implicits.len());
    for (a, r) in &p.implicits {
        e.expr(a);
        e.rule(r);
    }
}

fn dec_prelude(d: &mut Dec<'_>) -> Result<Prelude, ArtifactError> {
    let n = d.len()?;
    let mut lets = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let x = d.sym()?;
        let ty = d.ty()?;
        let b = d.expr()?;
        lets.push((x, ty, b));
    }
    let n = d.len()?;
    let mut implicits = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let a = d.expr()?;
        let r = d.rule()?;
        implicits.push((a, r));
    }
    Ok(Prelude { lets, implicits })
}

/// The content-address of the artifact a given session configuration
/// would produce: a 64-bit FNV hash over the format version, the
/// declarations, the full prelude source, the resolution policy, the
/// ISA's wire tag, and the optimization knobs. Two processes with
/// identical inputs compute identical keys. There is one ISA, so
/// `isa` is always [`Isa::Register`]; the parameter stays because the
/// benchmark package (`perfbench/`) passes it.
pub fn artifact_key(
    decls: &Declarations,
    prelude: &Prelude,
    policy: &ResolutionPolicy,
    fusion: bool,
    dict_ic: bool,
    isa: Isa,
) -> u64 {
    let mut e = Enc::new();
    e.u32(FORMAT_VERSION);
    enc_decls(&mut e, decls);
    enc_prelude(&mut e, prelude);
    e.policy(policy);
    e.u8(isa_tag(isa));
    e.bool(fusion);
    e.bool(dict_ic);
    fnv64(e.buf())
}

/// Like [`artifact_key`] but *without* the prelude: the address of
/// the configuration family an artifact belongs to. The store's
/// `.head` pointer files are keyed by this, so an exact-key miss can
/// still find the previous artifact for the same configuration and
/// rebuild incrementally from it.
pub fn config_key(
    decls: &Declarations,
    policy: &ResolutionPolicy,
    fusion: bool,
    dict_ic: bool,
    isa: Isa,
) -> u64 {
    fnv64(config_enc(decls, policy, fusion, dict_ic, isa).buf())
}

/// The inputs [`config_key`] hashes, encoded.
fn config_enc(
    decls: &Declarations,
    policy: &ResolutionPolicy,
    fusion: bool,
    dict_ic: bool,
    isa: Isa,
) -> Enc {
    let mut e = Enc::new();
    e.u32(FORMAT_VERSION);
    enc_decls(&mut e, decls);
    e.policy(policy);
    e.u8(isa_tag(isa));
    e.bool(fusion);
    e.bool(dict_ic);
    e
}

/// The address of a prelude *text* under one configuration: a 64-bit
/// FNV hash over the [`config_key`] inputs and the text's raw bytes.
/// The store's `<source>.src` pointer names the content key of the
/// artifact that text built, so a later run over the same bytes finds
/// the artifact without parsing the text (see
/// [`load_or_build_source`]). Layout and comments count: a text that
/// differs only in them has its own source key and, once parsed, the
/// same content key.
pub fn source_key(
    decls: &Declarations,
    text: &str,
    policy: &ResolutionPolicy,
    fusion: bool,
    dict_ic: bool,
) -> u64 {
    let mut e = config_enc(decls, policy, fusion, dict_ic, Isa::Register);
    e.len(text.len());
    // Hashes the text where it lies, without copying it into `e`.
    fnv64_more(fnv64(e.buf()), text.as_bytes())
}

/// A fully decoded artifact, ready for [`assemble`] (exact rehydrate)
/// or [`rebuild_incremental`] (diff against an edited prelude).
pub struct DecodedArtifact {
    /// The content key the producer computed (validated against the
    /// consumer's recomputation on load).
    pub key: u64,
    /// Resolution policy the session was built with.
    pub policy: ResolutionPolicy,
    /// Superinstruction-fusion knob.
    pub fusion: bool,
    /// Dictionary-inline-cache knob.
    pub dict_ic: bool,
    /// Fresh-symbol watermark at encode time; the loader raises the
    /// process counter past it so later `fresh` names cannot collide
    /// with serialized ones.
    pub fresh_watermark: u64,
    /// The prelude source the artifact was built from.
    pub prelude: Prelude,
    /// Prelude `let` binders.
    pub gamma: Vec<(Symbol, Type)>,
    /// Prelude implicit context, canonical order.
    pub context: Vec<RuleType>,
    /// Evidence variable frames parallel to `context`.
    pub evidence: Vec<Vec<Symbol>>,
    /// Per-binding dependency read-sets.
    pub binding_meta: Vec<BindingMeta>,
    /// Compiled prelude code, pools, and globals.
    pub code_parts: CodeParts,
    /// Evaluated global values, parallel to `code_parts.globals`.
    pub vm_globals: Vec<systemf::Value>,
    /// Tree-walker environment binding lets and evidence.
    pub fenv: FEnv,
    /// Preservation binders for promoted dictionary globals.
    pub dict_binders: Vec<(Symbol, FType)>,
    /// Promoted dictionary entries (query → global name).
    pub dict_entries: Vec<(RuleType, Symbol)>,
    /// Warm derivation-cache entries.
    pub cache_entries: Vec<CacheExport>,
    /// Opsem term environment (lets).
    pub venv: VarEnv,
    /// Opsem implicit stack (one frame per implicit binding).
    pub istack: ImplStack,
    /// Prelude-rooted runtime-memo entries.
    pub memo_roots: Vec<MemoExport>,
}

/// The store directory a session's artifact is known to sit in, and
/// the [`Session::state_version`] it was written or loaded at.
pub(crate) struct Stored {
    dir: PathBuf,
    version: [u64; 3],
}

impl<'d> Session<'d> {
    /// The content key of this session's artifact: [`artifact_key`]
    /// over its declarations, prelude, policy and knobs. A session
    /// built through the store already knows it; any other computes
    /// it on first use.
    pub fn content_key(&mut self) -> u64 {
        if let Some(key) = self.key {
            return key;
        }
        let key = artifact_key(
            self.decls,
            &self.prelude,
            &self.policy,
            self.compiler.fusion_enabled(),
            self.dict_ic,
            Isa::Register,
        );
        self.key = Some(key);
        key
    }

    /// Versions of the parts of the artifact that running programs
    /// can change: the derivation cache, the runtime memo, and the
    /// dictionary cache (whose every insert also promotes a global).
    /// The rest is fixed at construction, or changes with a knob that
    /// forgets the key and the stored marker.
    fn state_version(&self) -> [u64; 3] {
        [
            self.env.cache_version(),
            self.interp.memo_version(),
            self.dict.borrow().version(),
        ]
    }

    /// Drops the cached content key and the stored marker, after a
    /// change to a knob the artifact records.
    pub(crate) fn forget_artifact(&mut self) {
        self.key = None;
        self.stored = None;
    }

    /// Restores the base state (environment depth, code watermark)
    /// that every `run*` call already leaves the session in.
    fn restore_base(&mut self) {
        let env_base = self.env_base;
        self.env.restore(&env_base);
        let code_base = self.code_base;
        self.compiler.rollback(&code_base);
    }

    /// Writes this session's artifact to `store`, unless the store
    /// already holds it: nothing the artifact serializes changed
    /// since the session was exact-loaded from `store` or last
    /// written to it. What programs add to an artifact is the warmth
    /// they learned — derivation-cache entries, promoted dictionaries
    /// and runtime-memo roots, each carrying a version that every
    /// insert, eviction, invalidation, trim and import bumps (the
    /// derivation cache's as seen from the base depth, the runtime
    /// memo's for entries rooted in the prelude stack, so a program's
    /// scopes leave both alone). Inline
    /// caches and superinstruction choices never ride along: decoding
    /// resets every Match IC, and fusion is decided at compile time.
    ///
    /// Returns whether it wrote.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (callers treat saving as
    /// best-effort). A failed write leaves the stored marker as it
    /// was, so the next call tries again.
    pub fn persist(&mut self, store: &ArtifactStore) -> io::Result<bool> {
        self.restore_base();
        let version = self.state_version();
        if let Some(s) = &self.stored {
            if s.version == version && s.dir == store.dir() {
                return Ok(false);
            }
        }
        let bytes = self.to_artifact();
        let key = self.content_key();
        let config = config_key(
            self.decls,
            &self.policy,
            self.compiler.fusion_enabled(),
            self.dict_ic,
            Isa::Register,
        );
        store.save(key, config, &bytes)?;
        self.stored = Some(Stored {
            dir: store.dir().to_path_buf(),
            version,
        });
        Ok(true)
    }

    /// Serializes this session's base state into one checksummed,
    /// content-keyed artifact. The session is first restored to its
    /// base state (environment depth, code watermark) — the same
    /// state every `run*` call already leaves it in — so serializing
    /// mid-batch is safe.
    pub fn to_artifact(&mut self) -> Vec<u8> {
        self.restore_base();
        let code_base = self.code_base;
        // Exports are filtered against a *current* arena snapshot, not
        // the prelude watermark: entries learned while running
        // programs are still prelude-pure (the exporters reject
        // anything that depended on program-local frames), and they
        // are exactly the warmth a restarted batch wants back.
        let snap = intern::snapshot();

        let key = self.content_key();
        let mut e = Enc::new();
        for b in MAGIC {
            e.u8(b);
        }
        e.u32(FORMAT_VERSION);
        e.u64(key);
        e.policy(&self.policy);
        e.u8(isa_tag(Isa::Register));
        e.bool(self.compiler.fusion_enabled());
        e.bool(self.dict_ic);
        e.u64(self.fresh_base);
        enc_prelude(&mut e, &self.prelude);
        e.len(self.gamma.len());
        for (x, t) in &self.gamma {
            e.sym(*x);
            e.ty(t);
        }
        e.len(self.context.len());
        for r in &self.context {
            e.rule(r);
        }
        e.len(self.evidence.len());
        for frame in &self.evidence {
            e.len(frame.len());
            for s in frame {
                e.sym(*s);
            }
        }
        e.len(self.binding_meta.len());
        for m in &self.binding_meta {
            e.len(m.reads.len());
            for r in &m.reads {
                e.u32(*r);
            }
        }
        // System F section: code first, so the decoder knows the
        // function count before any compiled closure references one.
        {
            let parts = self.compiler.export_parts(&code_base);
            let mut sf = SfEnc::new(&mut e);
            sf.code_parts(&parts);
            sf.e.len(self.vm_globals.len());
            for v in &self.vm_globals {
                sf.value(v);
            }
            sf.env(&self.fenv);
            // Promoted dictionary binders follow the prelude's one
            // binder per let and per (singleton) evidence frame.
            let dict_binders = &self.fcontext[self.gamma.len() + self.context.len()..];
            sf.e.len(dict_binders.len());
            for (s, t) in dict_binders {
                sf.e.sym(*s);
                sf.ftype(t);
            }
        }
        let dict_entries = self.dict.borrow().export_entries(&snap);
        e.len(dict_entries.len());
        for (r, g) in &dict_entries {
            e.rule(r);
            e.sym(*g);
        }
        // The cache's derivations share their nodes: one table holds
        // each node once, and every entry names its root in it.
        let cache = self.env.export_cache(&snap);
        let roots = e.derivations(cache.iter().map(|c| &c.resolution));
        e.len(cache.len());
        for (c, root) in cache.iter().zip(roots) {
            e.overlap(c.overlap);
            e.u32(root);
        }
        // Opsem section: environment and stack first so memo-root
        // values can backreference shared frames.
        {
            let roots = self.interp.export_memo_roots(&self.istack);
            let mut op = OpEnc::new(&mut e);
            op.varenv(&self.venv);
            op.implstack(&self.istack);
            op.e.len(roots.len());
            for r in &roots {
                op.e.len(r.depth);
                op.e.rule(&r.query);
                op.value(&r.value);
            }
        }
        e.finish()
    }

    /// Rehydrates a session from artifact bytes, validating that the
    /// artifact was produced by exactly this `(declarations, prelude,
    /// policy, knobs)` configuration — the stored content key must
    /// equal the recomputed one.
    ///
    /// # Errors
    ///
    /// Any corruption (checksum, truncation, bad tags), version skew,
    /// or key mismatch is an [`ArtifactError`]; callers fall back to
    /// a cold build.
    pub fn from_artifact(
        decls: &'d Declarations,
        policy: &ResolutionPolicy,
        prelude: &Prelude,
        fusion: bool,
        dict_ic: bool,
        bytes: &[u8],
    ) -> Result<Session<'d>, ArtifactError> {
        let a = decode(bytes)?;
        let key = artifact_key(decls, prelude, policy, fusion, dict_ic, Isa::Register);
        check_header(&a, key, policy, fusion, dict_ic)?;
        let mut s = assemble(decls, a)?;
        s.key = Some(key);
        Ok(s)
    }
}

/// Checks that a decoded artifact was produced by exactly the
/// configuration whose content key is `key`.
fn check_header(
    a: &DecodedArtifact,
    key: u64,
    policy: &ResolutionPolicy,
    fusion: bool,
    dict_ic: bool,
) -> Result<(), ArtifactError> {
    if a.key != key {
        return err(format!(
            "content key mismatch: artifact {:016x}, configuration {:016x}",
            a.key, key
        ));
    }
    if a.policy != *policy || a.fusion != fusion || a.dict_ic != dict_ic {
        return err("configuration fields disagree with content key");
    }
    Ok(())
}

/// Decodes artifact bytes into their plain parts. Checksum, magic,
/// version, and structural tags are all validated here; semantic
/// cross-checks happen in [`assemble`].
///
/// # Errors
///
/// See [`Session::from_artifact`].
pub fn decode(bytes: &[u8]) -> Result<DecodedArtifact, ArtifactError> {
    let mut d = Dec::new(bytes)?;
    for b in MAGIC {
        if d.u8()? != b {
            return err("bad magic");
        }
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return err(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let key = d.u64()?;
    let policy = d.policy()?;
    isa_from_tag(d.u8()?)?;
    let fusion = d.bool()?;
    let dict_ic = d.bool()?;
    let fresh_wm = d.u64()?;
    let prelude = dec_prelude(&mut d)?;
    let n = d.len()?;
    let mut gamma = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let x = d.sym()?;
        let t = d.ty()?;
        gamma.push((x, t));
    }
    let n = d.len()?;
    let mut context = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        context.push(d.rule()?);
    }
    let n = d.len()?;
    let mut evidence = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let k = d.len()?;
        let mut frame = Vec::with_capacity(k.min(1 << 16));
        for _ in 0..k {
            frame.push(d.sym()?);
        }
        evidence.push(frame);
    }
    let n = d.len()?;
    let mut binding_meta = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let k = d.len()?;
        let mut reads = Vec::with_capacity(k.min(1 << 16));
        for _ in 0..k {
            reads.push(d.u32()?);
        }
        binding_meta.push(BindingMeta { reads });
    }
    let (code_parts, vm_globals, fenv, dict_binders) = {
        let mut sf = SfDec::new(&mut d);
        let parts = sf.code_parts()?;
        let n = sf.d.len()?;
        let mut globals = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            globals.push(sf.value()?);
        }
        let fenv = sf.env()?;
        let n = sf.d.len()?;
        let mut binders = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let s = sf.d.sym()?;
            let t = sf.ftype()?;
            binders.push((s, t));
        }
        (parts, globals, fenv, binders)
    };
    let n = d.len()?;
    let mut dict_entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let r = d.rule()?;
        let g = d.sym()?;
        dict_entries.push((r, g));
    }
    d.derivations(context.len())?;
    let n = d.len()?;
    let mut cache_entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let overlap = d.overlap()?;
        let root = d.u32()?;
        let resolution = d.derivation(root)?;
        cache_entries.push(CacheExport {
            overlap,
            resolution,
        });
    }
    let (venv, istack, memo_roots) = {
        let mut op = OpDec::new(&mut d);
        let venv = op.varenv()?;
        let istack = op.implstack()?;
        let n = op.d.len()?;
        let mut roots = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let depth = op.d.len()?;
            let query = op.d.rule()?;
            let value = op.value()?;
            roots.push(MemoExport {
                depth,
                query,
                value,
            });
        }
        (venv, istack, roots)
    };
    if !d.at_end() {
        return err("trailing bytes after artifact payload");
    }
    Ok(DecodedArtifact {
        key,
        policy,
        fusion,
        dict_ic,
        fresh_watermark: fresh_wm,
        prelude,
        gamma,
        context,
        evidence,
        binding_meta,
        code_parts,
        vm_globals,
        fenv,
        dict_binders,
        dict_entries,
        cache_entries,
        venv,
        istack,
        memo_roots,
    })
}

/// Cross-checks a decoded artifact's invariants: parallel structures
/// must agree in length, and the code object must cover its globals.
fn validate(a: &DecodedArtifact) -> Result<(), ArtifactError> {
    if a.context.len() != a.evidence.len() {
        return err("context/evidence length mismatch");
    }
    if a.evidence.iter().any(|frame| frame.len() != 1) {
        return err("implicit evidence frame is not a singleton");
    }
    if a.istack.depth() != a.context.len() {
        return err("implicit stack depth disagrees with context");
    }
    if a.gamma.len() != a.prelude.lets.len() || a.context.len() != a.prelude.implicits.len() {
        return err("binder counts disagree with prelude source");
    }
    if a.binding_meta.len() != a.gamma.len() + a.context.len() {
        return err("binding metadata count mismatch");
    }
    if a.code_parts.globals.len() != a.vm_globals.len() {
        return err("global table / global values length mismatch");
    }
    if a.vm_globals.len() != a.gamma.len() + a.context.len() + a.dict_binders.len() {
        return err("global count disagrees with binders");
    }
    for (i, m) in a.binding_meta.iter().enumerate() {
        if m.reads.iter().any(|r| *r as usize >= i) {
            return err("binding read-set points at itself or a later binding");
        }
    }
    Ok(())
}

/// Assembles a warm [`Session`] from decoded parts without re-running
/// any pipeline phase: the compiler is rebuilt from its parts, the
/// implicit environment by re-pushing the context frames and
/// importing the derivation cache, the interpreter by re-keying the
/// memo roots against the rehydrated stack.
///
/// # Errors
///
/// Structural cross-check failures (see [`Session::from_artifact`]).
pub fn assemble<'d>(
    decls: &'d Declarations,
    a: DecodedArtifact,
) -> Result<Session<'d>, ArtifactError> {
    validate(&a)?;
    ensure_fresh_at_least(a.fresh_watermark);
    let compiler = Compiler::from_parts(a.code_parts);
    let mut s = Session::empty(decls, a.policy, compiler, a.vm_globals, a.dict_ic);
    for r in &a.context {
        s.env.push(vec![r.clone()]);
    }
    s.env.import_cache(a.cache_entries);
    s.interp.import_memo_roots(&a.istack, a.memo_roots);
    // The preservation context is not serialized: translate it once
    // here, as a cold build does, then append the dictionary binders.
    s.fcontext = a
        .gamma
        .iter()
        .map(|(x, ty)| (*x, translate_type(ty)))
        .chain(
            a.evidence
                .iter()
                .flatten()
                .copied()
                .zip(a.context.iter().map(translate_rule_type)),
        )
        .chain(a.dict_binders)
        .collect();
    s.evidence = a.evidence;
    s.gamma = a.gamma;
    s.context = a.context;
    s.fenv = a.fenv;
    s.venv = a.venv;
    s.istack = a.istack;
    s.prelude = a.prelude;
    s.binding_meta = a.binding_meta;
    s.fresh_base = a.fresh_watermark;
    s.seal(a.dict_entries);
    Ok(s)
}

/// What an incremental rebuild reused versus recomputed.
#[derive(Clone, Copy, Debug, Default)]
pub struct RebuildStats {
    /// Total prelude bindings (lets + implicits).
    pub bindings_total: usize,
    /// Bindings whose evidence/value/code were reused unchanged.
    pub bindings_reused: usize,
    /// Derivation-cache entries carried over.
    pub cache_entries_retained: usize,
    /// Runtime-memo roots carried over.
    pub memo_roots_retained: usize,
}

/// What a rebuild takes from the old artifact for
/// [`Session::bind_prelude`]: which bindings the edit dirtied, and the
/// saved results of every binding (lets, then implicits).
pub(crate) struct Reuse {
    /// Per binding: whether it must run again.
    pub(crate) dirty: Vec<bool>,
    /// Per binding: its tree-walker value.
    pub(crate) values: Vec<systemf::Value>,
    /// Per `let`: its opsem value.
    pub(crate) let_values: Vec<implicit_opsem::Value>,
    /// Per implicit: its opsem frame.
    pub(crate) frames: Vec<Rc<Vec<(RuleType, implicit_opsem::Value)>>>,
    /// Per implicit: its evidence name, which also names its global.
    pub(crate) evidence: Vec<Symbol>,
    /// Per binding: its read-set.
    pub(crate) reads: Vec<BindingMeta>,
}

/// Rebuilds a session for `prelude` from an old artifact of the same
/// *shape* (same let names/types, same implicit rule types, same
/// counts) whose binding expressions may have been edited: only the
/// dependency cone of the edited bindings — the bindings themselves
/// plus everything whose [`BindingMeta::reads`] reach one,
/// transitively — is re-elaborated, re-evaluated, and re-compiled, by
/// the builder a cold build runs. Everything else reuses the decoded
/// values, compiled globals, derivation-cache entries, and (up to the
/// first dirty implicit frame) runtime-memo roots.
///
/// Promoted dictionary entries are always dropped (their values may
/// embed dirty evidence); their globals and binders are kept as dead
/// weight so compiled code and slot indices stay valid, and queries
/// re-promote on demand.
///
/// # Errors
///
/// Shape changes, decode-level inconsistencies, and any pipeline
/// failure while recomputing a dirty binding (carrying the cold
/// build's message); callers fall back to a cold build.
pub fn rebuild_incremental<'d>(
    decls: &'d Declarations,
    old: DecodedArtifact,
    prelude: &Prelude,
) -> Result<(Session<'d>, RebuildStats), ArtifactError> {
    validate(&old)?;
    let nlets = prelude.lets.len();
    let nimp = prelude.implicits.len();
    let total = nlets + nimp;
    if old.prelude.lets.len() != nlets || old.prelude.implicits.len() != nimp {
        return err("prelude shape changed (binding counts)");
    }
    for ((ox, oty, _), (nx, nty, _)) in old.prelude.lets.iter().zip(&prelude.lets) {
        if ox != nx || oty != nty {
            return err("prelude shape changed (let binder)");
        }
    }
    for ((_, orho), (_, nrho)) in old.prelude.implicits.iter().zip(&prelude.implicits) {
        if orho != nrho {
            return err("prelude shape changed (implicit rule type)");
        }
    }
    // Dirty seed: bindings whose expression changed. Closure: one
    // forward pass suffices because reads point strictly earlier.
    let mut dirty = vec![false; total];
    for (i, ((_, _, ob), (_, _, nb))) in old.prelude.lets.iter().zip(&prelude.lets).enumerate() {
        dirty[i] = ob != nb;
    }
    for (j, ((oa, _), (na, _))) in old
        .prelude
        .implicits
        .iter()
        .zip(&prelude.implicits)
        .enumerate()
    {
        dirty[nlets + j] = oa != na;
    }
    for i in 0..total {
        if !dirty[i] && old.binding_meta[i].reads.iter().any(|r| dirty[*r as usize]) {
            dirty[i] = true;
        }
    }

    ensure_fresh_at_least(old.fresh_watermark);
    let values: Vec<systemf::Value> = old
        .fenv
        .bindings_outermost_first()
        .into_iter()
        .map(|(_, v)| v)
        .collect::<Option<_>>()
        .ok_or_else(|| ArtifactError("recursive top-level binding".into()))?;
    if values.len() != total {
        return err("tree environment does not cover the prelude bindings");
    }
    let let_values: Vec<implicit_opsem::Value> = old
        .venv
        .bindings_outermost_first()
        .into_iter()
        .map(|(_, v)| v)
        .collect::<Option<_>>()
        .ok_or_else(|| ArtifactError("recursive top-level opsem binding".into()))?;
    if let_values.len() != nlets {
        return err("opsem environment does not cover the prelude lets");
    }
    let mut frames: Vec<_> = old.istack.frames_innermost_first().cloned().collect();
    frames.reverse(); // outermost first, parallel to implicits

    // Runtime-memo values may embed evidence, so a root is only safe
    // when every binding it can reach is clean: any dirty let poisons
    // all roots (lets feed every frame), a dirty implicit poisons
    // roots that pinned its frame or a deeper one.
    let memo_cut = if dirty[..nlets].iter().any(|d| *d) {
        0
    } else {
        dirty[nlets..].iter().position(|d| *d).unwrap_or(nimp)
    };
    let reuse = Reuse {
        dirty,
        values,
        let_values,
        frames,
        evidence: old.evidence.iter().map(|frame| frame[0]).collect(),
        reads: old.binding_meta,
    };
    let compiler = Compiler::from_parts(old.code_parts);
    let mut s = Session::empty(decls, old.policy, compiler, old.vm_globals, old.dict_ic);
    let reused = s
        .bind_prelude(prelude, Some(&reuse))
        .map_err(|e| ArtifactError(format!("incremental rebuild: {e}")))?;

    // Derivation-cache entries are type-level — a resolution depends
    // only on the context rule types, which shape-equality fixed — so
    // every exported entry stays valid under expression-only edits.
    let cache_entries_retained = old.cache_entries.len();
    s.env.import_cache(old.cache_entries);
    let roots: Vec<MemoExport> = old
        .memo_roots
        .into_iter()
        .filter(|r| r.depth <= memo_cut)
        .collect();
    let memo_roots_retained = roots.len();
    s.interp.import_memo_roots(&s.istack, roots);
    // Dropped dictionary entries keep their binders, as their globals.
    s.fcontext.extend(old.dict_binders);
    s.seal(Vec::new());
    let stats = RebuildStats {
        bindings_total: total,
        bindings_reused: reused,
        cache_entries_retained,
        memo_roots_retained,
    };
    Ok((s, stats))
}

/// A content-addressed artifact directory: `<key>.iart` content files,
/// `<config>.head` pointers naming the most recent artifact key per
/// configuration family (the incremental-rebuild anchor on an
/// exact-key miss), and `<source>.src` pointers naming the artifact
/// key each prelude text built (see [`source_key`]). All writes are
/// atomic (temp file + rename), so a crashed writer never leaves a
/// torn artifact behind.
pub struct ArtifactStore {
    dir: PathBuf,
}

/// What a store pointer file (`.head` or `.src`) holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pointer {
    /// There is no such file.
    Missing,
    /// A file that does not read as a key; a load counts it as a
    /// fallback.
    Bad,
    /// The artifact key the file names.
    Key(u64),
}

impl ArtifactStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the content file for `key`.
    pub fn content_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.iart"))
    }

    fn head_path(&self, config: u64) -> PathBuf {
        self.dir.join(format!("{config:016x}.head"))
    }

    /// Path of the pointer file for the prelude text whose
    /// [`source_key`] is `source`.
    pub fn source_path(&self, source: u64) -> PathBuf {
        self.dir.join(format!("{source:016x}.src"))
    }

    /// Reads the artifact stored under `key`, if any.
    pub fn load(&self, key: u64) -> Option<Vec<u8>> {
        std::fs::read(self.content_path(key)).ok()
    }

    /// The most recent artifact key recorded for `config`, if any (a
    /// head that does not read as a key counts as none).
    pub fn head(&self, config: u64) -> Option<u64> {
        match self.pointer(&self.head_path(config)) {
            Pointer::Key(key) => Some(key),
            Pointer::Missing | Pointer::Bad => None,
        }
    }

    fn pointer(&self, path: &Path) -> Pointer {
        match std::fs::read_to_string(path) {
            Ok(s) => u64::from_str_radix(s.trim(), 16).map_or(Pointer::Bad, Pointer::Key),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Pointer::Missing,
            Err(_) => Pointer::Bad,
        }
    }

    /// Atomically writes `bytes` under `key` and points `config`'s
    /// head at it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (callers treat saving as
    /// best-effort: a failed save never fails the build).
    pub fn save(&self, key: u64, config: u64, bytes: &[u8]) -> io::Result<()> {
        atomic_write(&self.content_path(key), bytes)?;
        self.point_head(config, key)
    }

    /// Atomically points `config`'s head at `key`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn point_head(&self, config: u64, key: u64) -> io::Result<()> {
        atomic_write(&self.head_path(config), format!("{key:016x}\n").as_bytes())
    }

    /// Atomically points the prelude text `source` at `key`.
    fn point_source(&self, source: u64, key: u64) -> io::Result<()> {
        atomic_write(
            &self.source_path(source),
            format!("{key:016x}\n").as_bytes(),
        )
    }
}

fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // The temp name carries a process-wide counter on top of the pid:
    // concurrent saves of the same key from different threads (the
    // conformance runner shares one store across workers) must not
    // share a temp file, or interleaved writes could rename a torn
    // artifact into place.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp{}.{seq}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// How [`load_or_build`] obtained its session.
#[derive(Clone, Debug)]
pub enum LoadOutcome {
    /// Rehydrated from an exact-key artifact; no phase re-ran.
    Exact,
    /// Rebuilt incrementally from the configuration's previous
    /// artifact; only the edited bindings' cones re-ran.
    Incremental(RebuildStats),
    /// Built cold (no usable artifact).
    Cold,
}

/// Loads a warm session from `store` if it can, building (and
/// saving) otherwise: exact content-key hit → incremental rebuild
/// from the configuration head → cold build. Every decode or
/// validation failure along the way falls through to the next rung
/// and is counted on the returned session's metrics as an
/// `artifact_fallback` — a corrupt store degrades to exactly the
/// no-store behavior, never a panic and never stale code. A head that
/// exists but does not read as a key counts too.
///
/// The content key is computed once, here, and kept by the session.
/// An exact hit only reads: the store already holds its bytes, and
/// the configuration head is re-pointed only when it names another
/// key (an edit, then a revert). A rebuilt session is saved through
/// [`Session::persist`], so a later `persist` writes only what the
/// session learns after this call.
///
/// # Errors
///
/// Only a failed *cold build* errors (same conditions as
/// [`Session::new_configured`]).
pub fn load_or_build<'d>(
    store: &ArtifactStore,
    decls: &'d Declarations,
    policy: &ResolutionPolicy,
    prelude: &Prelude,
    fusion: bool,
    dict_ic: bool,
) -> Result<(Session<'d>, LoadOutcome), SessionError> {
    ladder(store, decls, policy, prelude, fusion, dict_ic, None, 0)
}

/// Why [`load_or_build_source`] returned no session.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // cold path, as `SessionError`
pub enum SourceLoadError<E> {
    /// The text gave no prelude: the caller's parse failed.
    Parse(E),
    /// The cold build failed, as in [`load_or_build`].
    Build(SessionError),
}

/// [`load_or_build`] for a caller that holds the prelude's text, with
/// one rung in front of the ladder, keyed by that text
/// ([`source_key`]). When the text's `.src` pointer names an artifact
/// that decodes and was built under this configuration, the session
/// is assembled from it as an exact hit: the text is not parsed and
/// no content key is computed. `decls` are the text's own
/// declarations, for which [`implicit_core::parse::parse_declarations`]
/// reads only its header.
///
/// Otherwise `parse` turns the text into its prelude, and the ladder
/// of [`load_or_build`] runs as it always does, except that it does
/// not read again an artifact this rung failed to load. A pointer that
/// names a missing or unreadable artifact, or does not read as a key,
/// is counted as a fallback; a missing one is not. The ladder then points
/// the text at the content key it built or found, unless the pointer
/// already named it, so the next run over the same bytes hits this
/// rung. A hit writes nothing but a stale configuration head.
///
/// The rung trusts that equal text under equal declarations, policy
/// and knobs gives an equal prelude, hence the same artifact: a change
/// to what a text parses to must bump [`FORMAT_VERSION`], which every
/// source key hashes.
///
/// # Errors
///
/// `parse`'s error, or a failed cold build.
pub fn load_or_build_source<'d, E>(
    store: &ArtifactStore,
    decls: &'d Declarations,
    policy: &ResolutionPolicy,
    text: &str,
    fusion: bool,
    dict_ic: bool,
    parse: impl FnOnce() -> Result<Prelude, E>,
) -> Result<(Session<'d>, LoadOutcome), SourceLoadError<E>> {
    let source = source_key(decls, text, policy, fusion, dict_ic);
    let named = store.pointer(&store.source_path(source));
    let mut fallbacks = 0;
    match named {
        Pointer::Key(key) => match load_exact(store, decls, key, policy, fusion, dict_ic) {
            Some(Ok(s)) => {
                let config = config_key(decls, policy, fusion, dict_ic, Isa::Register);
                return Ok((exact_hit(store, s, key, config, 0), LoadOutcome::Exact));
            }
            Some(Err(_)) | None => fallbacks += 1,
        },
        Pointer::Bad => fallbacks += 1,
        Pointer::Missing => {}
    }
    let prelude = parse().map_err(SourceLoadError::Parse)?;
    let source = SourceRef { key: source, named };
    ladder(
        store,
        decls,
        policy,
        &prelude,
        fusion,
        dict_ic,
        Some(source),
        fallbacks,
    )
    .map_err(SourceLoadError::Build)
}

/// A prelude text that [`load_or_build_source`] sends down the
/// ladder: its source key, and what the key's pointer held.
#[derive(Clone, Copy)]
struct SourceRef {
    key: u64,
    named: Pointer,
}

/// Reads, decodes and assembles the artifact stored under `key`,
/// checking that this configuration built it. `None` when there is
/// no such file.
fn load_exact<'d>(
    store: &ArtifactStore,
    decls: &'d Declarations,
    key: u64,
    policy: &ResolutionPolicy,
    fusion: bool,
    dict_ic: bool,
) -> Option<Result<Session<'d>, ArtifactError>> {
    let bytes = store.load(key)?;
    Some(decode(&bytes).and_then(|a| {
        check_header(&a, key, policy, fusion, dict_ic)?;
        assemble(decls, a)
    }))
}

/// Finishes an exact hit on `key`, with `fallbacks` counted on the
/// way: the session keeps its key, the configuration head is
/// re-pointed when it names another key (an edit, then a revert) or
/// does not read as one (one more fallback), and the store is marked
/// as holding the session's state.
fn exact_hit<'d>(
    store: &ArtifactStore,
    mut s: Session<'d>,
    key: u64,
    config: u64,
    mut fallbacks: u64,
) -> Session<'d> {
    let head = store.pointer(&store.head_path(config));
    if head != Pointer::Key(key) {
        fallbacks += u64::from(head == Pointer::Bad);
        let _ = store.point_head(config, key);
    }
    s.note_artifact_fallbacks(fallbacks);
    s.key = Some(key);
    s.stored = Some(Stored {
        dir: store.dir().to_path_buf(),
        version: s.state_version(),
    });
    s
}

/// The exact → incremental → cold ladder behind [`load_or_build`],
/// with `fallbacks` already counted. For a `source` text it also
/// points the text at the key it reaches.
#[allow(clippy::too_many_arguments)]
fn ladder<'d>(
    store: &ArtifactStore,
    decls: &'d Declarations,
    policy: &ResolutionPolicy,
    prelude: &Prelude,
    fusion: bool,
    dict_ic: bool,
    source: Option<SourceRef>,
    mut fallbacks: u64,
) -> Result<(Session<'d>, LoadOutcome), SessionError> {
    let key = artifact_key(decls, prelude, policy, fusion, dict_ic, Isa::Register);
    let config = config_key(decls, policy, fusion, dict_ic, Isa::Register);
    // When the text's pointer already names this key, the source rung
    // has failed to load it and counted that.
    let named = source.is_some_and(|src| src.named == Pointer::Key(key));
    let point_source = || {
        if let (Some(src), false) = (source, named) {
            let _ = store.point_source(src.key, key);
        }
    };
    let loaded = if named {
        None
    } else {
        load_exact(store, decls, key, policy, fusion, dict_ic)
    };
    match loaded {
        Some(Ok(s)) => {
            point_source();
            return Ok((
                exact_hit(store, s, key, config, fallbacks),
                LoadOutcome::Exact,
            ));
        }
        Some(Err(_)) => fallbacks += 1,
        None => {}
    }
    match store.pointer(&store.head_path(config)) {
        Pointer::Key(old_key) if old_key != key => match store.load(old_key) {
            Some(bytes) => {
                let rebuilt = decode(&bytes).and_then(|a| {
                    // The head must really belong to this
                    // configuration: its own key must recompute
                    // under our declarations/policy/knobs.
                    let k = artifact_key(decls, &a.prelude, policy, fusion, dict_ic, Isa::Register);
                    if k != a.key {
                        return err("head artifact belongs to a different configuration");
                    }
                    rebuild_incremental(decls, a, prelude)
                });
                match rebuilt {
                    Ok((mut s, stats)) => {
                        s.note_artifact_fallbacks(fallbacks);
                        s.key = Some(key);
                        if s.persist(store).is_ok() {
                            point_source();
                        }
                        return Ok((s, LoadOutcome::Incremental(stats)));
                    }
                    Err(_) => fallbacks += 1,
                }
            }
            None => fallbacks += 1,
        },
        Pointer::Bad => fallbacks += 1,
        Pointer::Key(_) | Pointer::Missing => {}
    }
    let mut s = Session::new_configured(decls, policy.clone(), prelude, fusion, dict_ic)?;
    s.note_artifact_fallbacks(fallbacks);
    s.key = Some(key);
    if s.persist(store).is_ok() {
        point_source();
    }
    Ok((s, LoadOutcome::Cold))
}
