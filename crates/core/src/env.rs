//! Implicit environments Δ and type-directed lookup `Δ⟨τ⟩`.
//!
//! An implicit environment is a *stack of contexts* (rule sets). Each
//! rule abstraction traversed pushes one frame, so the stack mirrors
//! the lexical nesting of `implicit` scopes. Lookup respects that
//! nesting: the innermost frame is searched first and, per the paper's
//! lookup judgment, only if a frame has *no* matching rule does lookup
//! descend to the next frame. Within a frame, the `no_overlap`
//! condition requires at most one matching rule — unless the
//! *most-specific* overlap policy from the companion note on
//! overlapping rules is selected, in which case a unique most specific
//! match is chosen.
//!
//! # Fast paths
//!
//! Lookup is the inner loop of resolution, so frames carry a
//! *head-constructor index* ([`crate::intern::HeadKey`]): rules are
//! bucketed by the outermost constructor of their head when the frame
//! is pushed, and a lookup consults only the bucket matching the
//! target's head plus the bucket of variable-headed (wildcard) rules.
//! Matching itself short-circuits for quantifier-free rules with
//! ground heads via the hash-consing arena ([`crate::intern`]).
//!
//! The environment additionally owns a **memoized derivation cache**
//! for full resolutions (consulted by [`crate::resolve`] when
//! [`crate::resolve::ResolutionPolicy::cache`] is on). It follows the
//! scopes: pushing a frame *shelves* exactly the entries whose
//! derivations looked up a head the new frame could shadow (they
//! leave the reach of lookups but are kept, owned by that frame), and
//! popping drops exactly the entries whose derivations used a rule
//! from the popped frame, then puts that frame's shelf back. Once a
//! local scope closes, what was derived before it opened is live
//! again. Live and shelved entries share one FIFO capacity.
//!
//! Entries hold their derivations as shared `Rc` nodes that name
//! rules by frame level, so a hit at any depth is one `Rc` clone, and
//! an entry is the premise node of every cached derivation that
//! resolved its query on the way.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::intern::{self, GroundCheck, HeadKey, RuleId};
use crate::resolve::{FactsMemo, Resolution};
use crate::subst::{freshen_rule, TySubst};
use crate::syntax::{RuleType, Type};
use crate::unify;

/// How lookup treats several matching rules within one frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OverlapPolicy {
    /// The paper's `no_overlap` condition: more than one match within
    /// a frame is an error (default).
    #[default]
    Forbid,
    /// The companion note's discipline: pick the unique most specific
    /// match; error only when no most specific match exists.
    MostSpecific,
}

/// A successful lookup `Δ⟨τ⟩ = θπ′ ⇒ τ`.
#[derive(Clone, Debug)]
pub struct LookupHit {
    /// Frame index, counted from the innermost (0 = nearest scope).
    pub frame: usize,
    /// Position of the rule within its frame.
    pub index: usize,
    /// The stored rule `∀β̄. π′ ⇒ τ′` as it appears in the frame.
    pub rule: RuleType,
    /// The matching substitution θ applied to the *freshened* copy of
    /// the rule, expressed as the instantiation of the rule's
    /// quantifiers in binder order (the `|τ̄|` of evidence `x |τ̄|`).
    pub type_args: Vec<Type>,
    /// The instantiated context `θπ′`, in the rule's stored premise
    /// order (this order matches the λ-binder order of the rule's
    /// elaboration, so evidence lines up positionally).
    pub context: Vec<RuleType>,
}

/// Lookup failure.
#[derive(Clone, Debug, PartialEq)]
pub enum LookupError {
    /// No frame contains a matching rule.
    NoMatch(Type),
    /// A frame contains several matching rules (violating
    /// `no_overlap`), or — under [`OverlapPolicy::MostSpecific`] — no
    /// unique most specific one.
    Overlap {
        /// The queried type.
        target: Type,
        /// The competing rules.
        candidates: Vec<RuleType>,
    },
    /// Matching left a quantified variable of the winning rule
    /// undetermined (an *ambiguous instantiation*, e.g. looking up
    /// `Int` against `∀α.{α → α} ⇒ Int`).
    AmbiguousInstantiation {
        /// The offending rule.
        rule: RuleType,
    },
}

impl fmt::Display for LookupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LookupError::NoMatch(t) => write!(f, "no rule matches type `{t}`"),
            LookupError::Overlap { target, candidates } => write!(
                f,
                "overlapping rules for `{target}`: {}",
                candidates
                    .iter()
                    .map(|r| format!("`{r}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LookupError::AmbiguousInstantiation { rule } => {
                write!(f, "ambiguous instantiation of rule `{rule}`")
            }
        }
    }
}

impl std::error::Error for LookupError {}

/// One environment frame: the stored rules plus a head-constructor
/// index built when the frame is pushed.
///
/// `buckets[k]` holds the (ascending) indices of rules whose head has
/// the non-wildcard key `k`; `wildcard` holds the indices of
/// variable-headed rules, which can match any target.
#[derive(Clone, Debug)]
struct Frame {
    rules: Vec<RuleType>,
    buckets: HashMap<HeadKey, Vec<usize>>,
    wildcard: Vec<usize>,
}

impl Frame {
    fn new(rules: Vec<RuleType>) -> Frame {
        let mut buckets: HashMap<HeadKey, Vec<usize>> = HashMap::new();
        let mut wildcard = Vec::new();
        for (ix, rule) in rules.iter().enumerate() {
            match intern::head_key(rule.head()) {
                HeadKey::Wildcard => wildcard.push(ix),
                key => buckets.entry(key).or_default().push(ix),
            }
        }
        Frame {
            rules,
            buckets,
            wildcard,
        }
    }

    fn specific(&self, target_key: HeadKey) -> &[usize] {
        if target_key == HeadKey::Wildcard {
            // A variable-headed target is matched only by
            // variable-headed rules.
            &[]
        } else {
            self.buckets
                .get(&target_key)
                .map(Vec::as_slice)
                .unwrap_or(&[])
        }
    }

    /// Indices of the rules whose head could match a target with the
    /// given key, in frame order.
    fn candidate_indices(&self, target_key: HeadKey) -> Vec<usize> {
        merge_sorted(self.specific(target_key), &self.wildcard)
    }

    /// How many rules the index admits for the given target key (the
    /// per-frame work a lookup performs).
    fn candidate_count(&self, target_key: HeadKey) -> usize {
        self.specific(target_key).len() + self.wildcard.len()
    }
}

/// Merges two ascending index lists into one ascending list.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Default bound on the number of memoized derivations, live and
/// shelved together (FIFO eviction past it).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Cumulative derivation-cache counters for one environment.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CacheCounters {
    /// Successful cache consultations.
    pub hits: u64,
    /// Consultations that found no entry.
    pub misses: u64,
    /// Entries dropped to make room (not invalidations).
    pub evictions: u64,
}

/// A cache key: the interned query and the overlap policy it was
/// resolved under.
type CacheKey = (RuleId, OverlapPolicy);

/// One memoized derivation plus the facts its invalidation needs.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// The derivation, shared with every derivation that used it as a
    /// premise.
    resolution: Rc<Resolution>,
    /// Head keys of every type the derivation looked up (dedup'd): a
    /// pushed frame shelves the entry iff it contains a rule that
    /// could match one of these.
    target_keys: Vec<HeadKey>,
    /// Deepest frame level (0 = outermost) of any rule the derivation
    /// used: popping to a depth ≤ this level removes a used rule,
    /// invalidating the entry.
    max_abs_frame: usize,
    /// The entry's slot in the FIFO order, kept while it is shelved.
    slot: u64,
}

/// An entry a push moved aside, back in play when that frame pops.
#[derive(Clone, Debug)]
struct Shelved {
    /// Absolute position of the frame whose push shelved the entry.
    frame: usize,
    key: CacheKey,
    entry: CacheEntry,
}

/// Change counts per visibility level: entry `l` counts the changes
/// visible at depth `l` and every depth above it.
#[derive(Clone, Debug, Default)]
struct Versions(Vec<u64>);

impl Versions {
    fn bump(&mut self, level: usize) {
        if self.0.len() <= level {
            self.0.resize(level + 1, 0);
        }
        self.0[level] += 1;
    }

    /// The changes visible at `depth`.
    fn at(&self, depth: usize) -> u64 {
        self.0.iter().take(depth + 1).sum()
    }
}

#[derive(Clone, Debug)]
struct DerivationCache {
    /// The entries a lookup can hit.
    entries: HashMap<CacheKey, CacheEntry>,
    /// Entries the pushes of open frames moved aside, by ascending
    /// frame: each is what a search below its frame derives.
    shelf: Vec<Shelved>,
    /// FIFO order, ascending slots: exactly one per live or shelved
    /// entry.
    order: VecDeque<(u64, CacheKey)>,
    next_slot: u64,
    capacity: usize,
    /// See [`ImplicitEnv::cache_version`].
    versions: Versions,
    counters: CacheCounters,
}

impl Default for DerivationCache {
    fn default() -> DerivationCache {
        DerivationCache {
            entries: HashMap::new(),
            shelf: Vec::new(),
            order: VecDeque::new(),
            next_slot: 0,
            capacity: DEFAULT_CACHE_CAPACITY,
            versions: Versions::default(),
            counters: CacheCounters::default(),
        }
    }
}

/// Removes `slot` from the FIFO order (sorted, so a binary search
/// finds it; the slots dropped are mostly the newest or the oldest,
/// so the removal shifts little).
fn drop_slot(order: &mut VecDeque<(u64, CacheKey)>, slot: u64) {
    let at = order
        .binary_search_by_key(&slot, |(s, _)| *s)
        .expect("every live or shelved entry holds its slot");
    order.remove(at);
}

/// The level from which a change to the live entry for `key` is
/// visible: above the deepest frame the derivation used, and above
/// every frame that shelved an entry for the same key (that entry
/// takes the key back when its frame pops).
fn live_level(shelf: &[Shelved], key: &CacheKey, max_abs_frame: usize) -> usize {
    let shelved = shelf
        .iter()
        .rev()
        .find(|s| s.key == *key)
        .map_or(0, |s| s.frame);
    max_abs_frame.max(shelved) + 1
}

impl DerivationCache {
    /// Files `entry` as the live derivation of `key`: a key already
    /// live keeps its FIFO slot, a new one takes the newest after
    /// FIFO eviction makes room. The caller checks `capacity > 0`.
    fn insert(&mut self, key: CacheKey, mut entry: CacheEntry) {
        match self.entries.get(&key) {
            Some(old) => {
                entry.slot = old.slot;
                let level = live_level(&self.shelf, &key, old.max_abs_frame);
                self.versions.bump(level);
            }
            None => {
                self.evict_to(self.capacity - 1);
                entry.slot = self.next_slot;
                self.next_slot += 1;
                self.order.push_back((entry.slot, key));
            }
        }
        self.versions
            .bump(live_level(&self.shelf, &key, entry.max_abs_frame));
        self.entries.insert(key, entry);
    }

    /// Evicts FIFO-oldest entries, live or shelved, until at most
    /// `room_for` remain.
    fn evict_to(&mut self, room_for: usize) {
        while self.entries.len() + self.shelf.len() > room_for {
            let Some((slot, key)) = self.order.pop_front() else {
                break;
            };
            let level = match self.entries.get(&key) {
                Some(e) if e.slot == slot => {
                    let level = live_level(&self.shelf, &key, e.max_abs_frame);
                    self.entries.remove(&key);
                    level
                }
                _ => {
                    let at = self
                        .shelf
                        .iter()
                        .position(|s| s.entry.slot == slot)
                        .expect("every slot names a live or shelved entry");
                    self.shelf.remove(at).entry.max_abs_frame + 1
                }
            };
            self.counters.evictions += 1;
            self.versions.bump(level);
        }
    }

    /// Moves the live entries `frame` could shadow onto the shelf,
    /// under the frame's absolute position `at`.
    fn shelve(&mut self, at: usize, frame: &Frame) {
        if self.entries.is_empty() {
            return;
        }
        // A variable-headed rule can match any target.
        let any = !frame.wildcard.is_empty();
        let heads: Vec<HeadKey> = frame.buckets.keys().copied().collect();
        let before = self.shelf.len();
        let shadowed = |e: &CacheEntry| any || e.target_keys.iter().any(|t| heads.contains(t));
        for (key, entry) in self.entries.extract_if(|_, e| shadowed(e)) {
            self.shelf.push(Shelved {
                frame: at,
                key,
                entry,
            });
        }
        if self.shelf.len() != before {
            self.versions.bump(at + 1);
        }
    }

    /// After the frame at absolute position `at` popped: drops the
    /// live entries that used it, then puts back what its push
    /// shelved. A key re-derived inside the scope without the popped
    /// frame is the same derivation as its shelved entry (resolution
    /// is deterministic); the shelved one stays, with its older slot.
    fn unshelve(&mut self, at: usize) {
        let mut changed = false;
        for (_, e) in self.entries.extract_if(|_, e| e.max_abs_frame >= at) {
            drop_slot(&mut self.order, e.slot);
            changed = true;
        }
        let from = self.shelf.partition_point(|s| s.frame < at);
        for s in self.shelf.drain(from..) {
            if let Some(dup) = self.entries.insert(s.key, s.entry) {
                drop_slot(&mut self.order, dup.slot);
            }
            changed = true;
        }
        if changed {
            self.versions.bump(at + 1);
        }
    }

    /// Drops the shelved entries of the frames below absolute position
    /// `depth`.
    fn forget_shelves_below(&mut self, depth: usize) {
        let to = self.shelf.partition_point(|s| s.frame < depth);
        for s in self.shelf.drain(..to) {
            drop_slot(&mut self.order, s.entry.slot);
            self.versions.bump(s.entry.max_abs_frame + 1);
        }
    }

    /// Keeps the live and shelved entries whose query id satisfies
    /// `keep`.
    fn retain(&mut self, keep: impl Fn(RuleId) -> bool) {
        for (key, e) in self.entries.extract_if(|(id, _), _| !keep(*id)) {
            self.versions
                .bump(live_level(&self.shelf, &key, e.max_abs_frame));
        }
        let versions = &mut self.versions;
        self.shelf.retain(|s| {
            let kept = keep(s.key.0);
            if !kept {
                versions.bump(s.entry.max_abs_frame + 1);
            }
            kept
        });
        self.order.retain(|(_, (id, _))| keep(*id));
    }
}

/// The implicit environment Δ: a stack of contexts.
///
/// # Examples
///
/// ```
/// use implicit_core::env::ImplicitEnv;
/// use implicit_core::syntax::Type;
///
/// let mut env = ImplicitEnv::new();
/// env.push(vec![Type::Int.promote()]);
/// let hit = env.lookup(&Type::Int, Default::default()).unwrap();
/// assert_eq!(hit.frame, 0);
/// ```
#[derive(Clone, Default, Debug)]
pub struct ImplicitEnv {
    /// Outermost first; `frames.last()` is the nearest scope.
    frames: Vec<Frame>,
    /// Memoized derivations (interior mutability: resolution works on
    /// `&ImplicitEnv`).
    cache: RefCell<DerivationCache>,
}

impl ImplicitEnv {
    /// An empty environment.
    pub fn new() -> ImplicitEnv {
        ImplicitEnv::default()
    }

    /// An environment with a single frame.
    pub fn with_frame(frame: Vec<RuleType>) -> ImplicitEnv {
        let mut e = ImplicitEnv::new();
        e.push(frame);
        e
    }

    /// Pushes a context as the new nearest frame.
    ///
    /// Cached derivations that looked up a head the new frame could
    /// shadow move onto a shelf owned by the frame, out of reach of
    /// lookups until it pops; the rest stay live (the new frame
    /// cannot change what they resolved).
    pub fn push(&mut self, frame: Vec<RuleType>) {
        let frame = Frame::new(frame);
        self.cache.get_mut().shelve(self.frames.len(), &frame);
        self.frames.push(frame);
    }

    /// Pops the nearest frame.
    ///
    /// Cached derivations that used a rule from the popped frame are
    /// invalidated; then the derivations its push shelved are put
    /// back, each with its original FIFO slot, so what was cached
    /// before the scope opened is live again once it closes.
    pub fn pop(&mut self) -> Option<Vec<RuleType>> {
        let frame = self.frames.pop()?;
        self.cache.get_mut().unshelve(self.frames.len());
        Some(frame.rules)
    }

    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Iterates frames from the *innermost* outwards, paired with
    /// their innermost-first index (the numbering scopes are printed
    /// in; derivations name frames by level, outermost first).
    pub fn frames_innermost_first(&self) -> impl Iterator<Item = (usize, &Vec<RuleType>)> {
        self.frames
            .iter()
            .rev()
            .enumerate()
            .map(|(i, f)| (i, &f.rules))
    }

    /// Free type variables of every rule in the environment.
    pub fn ftv(&self) -> std::collections::BTreeSet<crate::syntax::TyVar> {
        let mut acc = std::collections::BTreeSet::new();
        for f in &self.frames {
            for r in &f.rules {
                r.ftv_into(&mut acc);
            }
        }
        acc
    }

    /// The lookup judgment `Δ⟨τ⟩`.
    ///
    /// Searches frames innermost-first; the first frame with at least
    /// one match decides. Within that frame the match must be unique
    /// (or uniquely most specific under
    /// [`OverlapPolicy::MostSpecific`]). Each frame consults only the
    /// rules its head index admits for the target.
    ///
    /// # Errors
    ///
    /// * [`LookupError::NoMatch`] if no frame matches.
    /// * [`LookupError::Overlap`] on ambiguous matches.
    /// * [`LookupError::AmbiguousInstantiation`] if matching leaves a
    ///   rule quantifier undetermined.
    pub fn lookup(&self, target: &Type, policy: OverlapPolicy) -> Result<LookupHit, LookupError> {
        let target_key = intern::head_key(target);
        for (frame_ix, frame) in self.frames.iter().rev().enumerate() {
            let candidates = frame.candidate_indices(target_key);
            match lookup_among(&frame.rules, &candidates, target, policy)? {
                Some((index, hit_rule, type_args, context)) => {
                    return Ok(LookupHit {
                        frame: frame_ix,
                        index,
                        rule: hit_rule,
                        type_args,
                        context,
                    });
                }
                None => continue,
            }
        }
        Err(LookupError::NoMatch(target.clone()))
    }

    /// How many rules the head index admits for `target` in the frame
    /// at level `level` (0 when out of range). This is the number of
    /// match attempts a lookup reaching that frame performs there.
    pub fn frame_candidate_count(&self, level: usize, target: &Type) -> usize {
        let key = intern::head_key(target);
        self.frames
            .get(level)
            .map(|f| f.candidate_count(key))
            .unwrap_or(0)
    }

    /// The rule positions the head index admits for `target` in the
    /// frame at level `level`, in frame order — exactly the
    /// candidates a lookup reaching that frame match-tests. Empty when
    /// out of range. Used to reconstruct deterministic candidate trace
    /// events (see [`crate::trace`]).
    pub fn frame_candidate_indices(&self, level: usize, target: &Type) -> Vec<usize> {
        let key = intern::head_key(target);
        self.frames
            .get(level)
            .map(|f| f.candidate_indices(key))
            .unwrap_or_default()
    }

    /// The stored rule at position `index` of the frame at level
    /// `level` (`None` when out of range).
    pub fn frame_rule(&self, level: usize, index: usize) -> Option<&RuleType> {
        self.frames.get(level).and_then(|f| f.rules.get(index))
    }

    /// Consults the derivation cache for `query` under `policy`. A hit
    /// is the memoized derivation itself: its rules are named by
    /// level, so it means the same at every depth it can be hit from.
    pub(crate) fn cache_lookup(
        &self,
        query: &RuleType,
        policy: OverlapPolicy,
    ) -> Option<Rc<Resolution>> {
        let key = (intern::rule_id(query), policy);
        let mut cache = self.cache.borrow_mut();
        let hit = cache.entries.get(&key).map(|e| Rc::clone(&e.resolution));
        match hit {
            Some(_) => cache.counters.hits += 1,
            None => cache.counters.misses += 1,
        }
        hit
    }

    /// Memoizes a successful derivation of `query`. Skipped (silently)
    /// for derivations that reference assumption-extension frames,
    /// whose coordinates are not environment-stable.
    pub(crate) fn cache_insert(
        &self,
        query: &RuleType,
        policy: OverlapPolicy,
        res: &Rc<Resolution>,
    ) {
        let depth = self.frames.len();
        let Some((target_keys, max_abs_frame)) = crate::resolve::derivation_cache_facts(res, depth)
        else {
            return;
        };
        let key = (intern::rule_id(query), policy);
        let mut cache = self.cache.borrow_mut();
        if cache.capacity == 0 {
            return;
        }
        cache.insert(
            key,
            CacheEntry {
                resolution: Rc::clone(res),
                target_keys,
                max_abs_frame,
                slot: 0,
            },
        );
    }

    /// Cumulative hit/miss/eviction counters of the derivation cache.
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.borrow().counters
    }

    /// Number of memoized derivations a lookup can hit now. Entries
    /// shelved by open frames are not counted (they still count
    /// against the capacity).
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().entries.len()
    }

    /// Version stamp of the memoized entries, as seen from the
    /// current depth. Every change is counted at the depth from which
    /// it is visible: an insert, eviction, [`ImplicitEnv::retain_cache`]
    /// removal or [`ImplicitEnv::import_cache`] of an entry from just
    /// above the deepest frame its derivation used (and above any
    /// frame that shelved the same query, whose entry takes the key
    /// back when it pops); a push that shelves entries, or a pop that
    /// drops or puts back entries, from just above that frame. The
    /// stamp sums the changes counted at or below the current depth.
    ///
    /// So two observations with the same stamp, taken at the same
    /// depth, see the same [`ImplicitEnv::export_cache`]; and scopes
    /// opened above that depth — their shelving, their restoring, and
    /// the entries that live and die inside them — leave its stamp
    /// alone. Hits move no stamp.
    pub fn cache_version(&self) -> u64 {
        self.cache.borrow().versions.at(self.frames.len())
    }

    /// Rebounds the derivation cache (default
    /// [`DEFAULT_CACHE_CAPACITY`]), evicting FIFO-oldest entries, live
    /// or shelved, if the new capacity is smaller than the current
    /// population. Capacity 0 disables memoization for this
    /// environment.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        let cache = self.cache.get_mut();
        cache.capacity = capacity;
        cache.evict_to(capacity);
    }

    /// Keeps only the memoized derivations, live or shelved, whose
    /// query id satisfies `keep`. Not an invalidation — counters are
    /// untouched; the version moves if an entry went.
    ///
    /// This is the hook a session uses before rolling the interning
    /// arena back to an [`crate::intern::InternSnapshot`]: entries
    /// keyed by an id the truncation would orphan must go first (pass
    /// `|id| snap.covers_rule(id)`).
    pub fn retain_cache(&self, keep: impl Fn(RuleId) -> bool) {
        self.cache.borrow_mut().retain(keep);
    }

    /// Exports the derivation cache for the artifact store, oldest
    /// entry first (so an import replays the FIFO order).
    ///
    /// Only live entries that are stable under the given intern
    /// watermark *and* whose derivation uses no frame at or beyond the
    /// current depth are exported: those are exactly the entries that
    /// remain valid for a rehydrated session sitting at this depth.
    pub fn export_cache(&self, snap: &crate::intern::InternSnapshot) -> Vec<CacheExport> {
        let cache = self.cache.borrow();
        let depth = self.frames.len();
        let mut out = Vec::new();
        for (slot, key) in &cache.order {
            // Shelved entries are not in reach at this depth.
            let Some(e) = cache.entries.get(key).filter(|e| e.slot == *slot) else {
                continue;
            };
            if !snap.covers_rule(key.0) || e.max_abs_frame >= depth {
                continue;
            }
            out.push(CacheExport {
                overlap: key.1,
                resolution: Rc::clone(&e.resolution),
            });
        }
        out
    }

    /// Imports derivation-cache entries exported by
    /// [`ImplicitEnv::export_cache`], preserving their insertion order
    /// and the sharing among their derivations. Invalidation facts are
    /// recomputed once per distinct derivation node. Entries whose
    /// facts cannot be recomputed, or that use a level at or beyond
    /// the current depth, are skipped — the cache only ever
    /// under-approximates. Counters are untouched; each imported entry
    /// moves the version.
    pub fn import_cache(&self, entries: Vec<CacheExport>) {
        let mut memo = FactsMemo::new(self.frames.len());
        let mut cache = self.cache.borrow_mut();
        if cache.capacity == 0 {
            return;
        }
        // `entries` keeps every node alive while the memo is keyed by
        // node addresses.
        for ce in &entries {
            let Some((target_keys, max_abs_frame)) = memo.facts(&ce.resolution) else {
                continue;
            };
            let key = (intern::rule_id(&ce.resolution.query), ce.overlap);
            cache.insert(
                key,
                CacheEntry {
                    resolution: Rc::clone(&ce.resolution),
                    target_keys,
                    max_abs_frame,
                    slot: 0,
                },
            );
        }
    }

    /// Takes a watermark of the frame stack (see
    /// [`ImplicitEnv::restore`]).
    pub fn snapshot(&self) -> EnvSnapshot {
        EnvSnapshot {
            depth: self.frames.len(),
        }
    }

    /// Pops frames until the stack is back at `snap`'s depth, running
    /// the usual scope-aware cache invalidation per pop, then drops
    /// what the pushes of the frames under the watermark shelved: a
    /// caller that restores to a watermark keeps those frames, so
    /// their shelves would only pin entries. A snapshot deeper than
    /// the current stack is a no-op (the frames it described are
    /// already gone).
    ///
    /// Balanced callers (every push matched by a pop, as in
    /// elaboration) never need this to pop; it is the safety net a
    /// long-lived session runs between programs so one misbehaving
    /// program cannot skew every later one.
    pub fn restore(&mut self, snap: &EnvSnapshot) {
        if self.frames.len() < snap.depth {
            return;
        }
        while self.frames.len() > snap.depth {
            self.pop();
        }
        self.cache.get_mut().forget_shelves_below(snap.depth);
    }
}

/// One derivation-cache entry in artifact form: the derivation, still
/// shared with the other entries' derivations, and the overlap policy
/// it was built under. The derivation's own query is the entry's key
/// (intern ids are process local; an import re-interns it). Produced
/// by [`ImplicitEnv::export_cache`], consumed by
/// [`ImplicitEnv::import_cache`].
#[derive(Clone, Debug)]
pub struct CacheExport {
    /// Overlap policy the derivation was built under (part of the
    /// cache key: the same query can resolve differently per policy).
    pub overlap: OverlapPolicy,
    /// The memoized derivation; its query is the cache key.
    pub resolution: Rc<Resolution>,
}

/// A frame-stack watermark, taken with [`ImplicitEnv::snapshot`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnvSnapshot {
    depth: usize,
}

type FrameHit = (usize, RuleType, Vec<Type>, Vec<RuleType>);

/// Lookup within a single context (the `π⟨τ⟩` judgment).
///
/// Returns `Ok(None)` when the frame has no match (so the caller
/// descends), `Ok(Some(hit))` on a unique (or uniquely most specific)
/// match. Used for contexts that have no prebuilt index (assumption
/// frames of the env-extension variant); candidates are pre-filtered
/// by head key here instead.
pub(crate) fn lookup_in_frame(
    frame: &[RuleType],
    target: &Type,
    policy: OverlapPolicy,
) -> Result<Option<FrameHit>, LookupError> {
    let target_key = intern::head_key(target);
    let candidates: Vec<usize> = frame
        .iter()
        .enumerate()
        .filter(|(_, rule)| intern::head_key(rule.head()).admits(target_key))
        .map(|(ix, _)| ix)
        .collect();
    lookup_among(frame, &candidates, target, policy)
}

/// The shared match-and-choose core of lookup: tries only the given
/// candidate rules, freshening lazily (quantifier-free rules need no
/// freshening and an empty θ; ground heads are decided by the
/// interning arena without walking) and cloning rules only for the
/// winner or an error report.
fn lookup_among(
    rules: &[RuleType],
    candidates: &[usize],
    target: &Type,
    policy: OverlapPolicy,
) -> Result<Option<FrameHit>, LookupError> {
    // (index, freshened copy + θ); `None` for quantifier-free rules.
    let mut matches: Vec<(usize, Option<(RuleType, TySubst)>)> = Vec::new();
    for &ix in candidates {
        let rule = &rules[ix];
        if rule.vars().is_empty() {
            // No quantifiers: freshening is the identity and θ = ∅.
            let hit = match intern::ground_head_check(rule.head(), target) {
                GroundCheck::Match => true,
                GroundCheck::NoMatch if intern::is_ground(rule.head()) => false,
                _ => unify::head_matches(rule, target).is_some(),
            };
            if hit {
                matches.push((ix, None));
            }
        } else {
            // Rename quantifiers apart so they cannot clash with
            // variables of the target (the paper's footnote).
            let (fresh, _) = freshen_rule(rule);
            if let Some(theta) = unify::head_matches(&fresh, target) {
                matches.push((ix, Some((fresh, theta))));
            }
        }
    }
    let (index, instance) = match matches.len() {
        0 => return Ok(None),
        1 => matches.pop().expect("len checked"),
        _ => match policy {
            OverlapPolicy::Forbid => return Err(overlap_error(rules, &matches, target)),
            OverlapPolicy::MostSpecific => match pick_most_specific(rules, &matches) {
                Some(winner_pos) => matches.swap_remove(winner_pos),
                None => return Err(overlap_error(rules, &matches, target)),
            },
        },
    };
    match instance {
        None => {
            let rule = &rules[index];
            Ok(Some((
                index,
                rule.clone(),
                Vec::new(),
                rule.context().to_vec(),
            )))
        }
        Some((fresh, theta)) => {
            // Every quantifier must be determined by the match,
            // otherwise the instantiation is ambiguous.
            let mut type_args = Vec::with_capacity(fresh.vars().len());
            for v in fresh.vars() {
                match theta.get(*v) {
                    Some(t) => type_args.push(t.clone()),
                    None => {
                        return Err(LookupError::AmbiguousInstantiation {
                            rule: rules[index].clone(),
                        })
                    }
                }
            }
            let context = theta.apply_context(fresh.context());
            Ok(Some((index, rules[index].clone(), type_args, context)))
        }
    }
}

/// Builds the overlap error, cloning the competing rules only now
/// that the error is certain.
fn overlap_error(
    rules: &[RuleType],
    matches: &[(usize, Option<(RuleType, TySubst)>)],
    target: &Type,
) -> LookupError {
    LookupError::Overlap {
        target: target.clone(),
        candidates: matches.iter().map(|(ix, _)| rules[*ix].clone()).collect(),
    }
}

/// `ρ₁` is at least as specific as `ρ₂` when `ρ₂`'s head matches
/// `ρ₁`'s head (i.e. `ρ₁`'s head is an instance of `ρ₂`'s).
fn at_least_as_specific(r1: &RuleType, r2: &RuleType) -> bool {
    let (f1, _) = freshen_rule(r1);
    let (f2, _) = freshen_rule(r2);
    unify::match_type(f2.head(), f1.head(), f2.vars()).is_some()
}

/// Position (within `matches`) of the unique most specific rule, if
/// any. Specificity is judged on the stored rules (it is invariant
/// under freshening).
fn pick_most_specific(
    rules: &[RuleType],
    matches: &[(usize, Option<(RuleType, TySubst)>)],
) -> Option<usize> {
    'outer: for (i, (ixi, _)) in matches.iter().enumerate() {
        let ri = &rules[*ixi];
        for (j, (ixj, _)) in matches.iter().enumerate() {
            if i != j && !at_least_as_specific(ri, &rules[*ixj]) {
                continue 'outer;
            }
        }
        // ri is as specific as everything; require strictness over at
        // least the distinct ones to be *the* most specific: it must
        // not be tied with a non-α-equivalent rival that is also as
        // specific as everything.
        for (j, (ixj, _)) in matches.iter().enumerate() {
            let rj = &rules[*ixj];
            if i != j && at_least_as_specific(rj, ri) && !crate::alpha::alpha_eq(ri, rj) {
                return None; // tie between genuinely different rules
            }
        }
        return Some(i);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tv(s: &str) -> Type {
        Type::var(v(s))
    }

    fn int_pair() -> Type {
        Type::prod(Type::Int, Type::Int)
    }

    #[test]
    fn innermost_frame_wins() {
        // §2 "locally and lexically scoped rules": the nearer rule
        // providing Int shadows the outer Int value.
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        env.push(vec![
            Type::Bool.promote(),
            RuleType::mono(vec![Type::Bool.promote()], Type::Int),
        ]);
        let hit = env.lookup(&Type::Int, OverlapPolicy::Forbid).unwrap();
        assert_eq!(hit.frame, 0, "nearest frame must win");
        assert_eq!(hit.context, vec![Type::Bool.promote()]);
    }

    #[test]
    fn lookup_descends_when_frame_has_no_match() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        env.push(vec![Type::Bool.promote()]);
        let hit = env.lookup(&Type::Int, OverlapPolicy::Forbid).unwrap();
        assert_eq!(hit.frame, 1);
    }

    #[test]
    fn polymorphic_rules_match_with_instantiation() {
        // ∀a.{a} ⇒ a × a looked up at Int × Int.
        let rule = RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let env = ImplicitEnv::with_frame(vec![Type::Int.promote(), rule]);
        let hit = env.lookup(&int_pair(), OverlapPolicy::Forbid).unwrap();
        assert_eq!(hit.type_args, vec![Type::Int]);
        assert_eq!(hit.context, vec![Type::Int.promote()]);
    }

    #[test]
    fn overlap_within_frame_is_an_error() {
        // Two rules that can produce Int → Int (ext. report §errors).
        let r1 = RuleType::new(vec![v("a")], vec![], Type::arrow(tv("a"), Type::Int));
        let r2 = RuleType::new(vec![v("a")], vec![], Type::arrow(Type::Int, tv("a")));
        let env = ImplicitEnv::with_frame(vec![r1, r2]);
        let err = env
            .lookup(&Type::arrow(Type::Int, Type::Int), OverlapPolicy::Forbid)
            .unwrap_err();
        assert!(matches!(err, LookupError::Overlap { .. }));
    }

    #[test]
    fn overlap_across_frames_is_fine() {
        // Companion note: stack priority disambiguates across frames.
        let r1 = RuleType::new(vec![v("a")], vec![], Type::arrow(tv("a"), Type::Int));
        let r2 = RuleType::new(vec![v("a")], vec![], Type::arrow(Type::Int, tv("a")));
        let mut env = ImplicitEnv::new();
        env.push(vec![r1]);
        env.push(vec![r2.clone()]);
        let hit = env
            .lookup(&Type::arrow(Type::Int, Type::Int), OverlapPolicy::Forbid)
            .unwrap();
        assert_eq!(hit.frame, 0);
        assert!(crate::alpha::alpha_eq(&hit.rule, &r2));
    }

    #[test]
    fn most_specific_policy_picks_the_instance() {
        // Companion note: within one set, the most specific matching
        // rule (the one whose head is an instance of the others) wins.
        let generic = RuleType::new(vec![v("a")], vec![], Type::arrow(tv("a"), tv("a")));
        let specific = Type::arrow(Type::Int, Type::Int).promote();
        let env = ImplicitEnv::with_frame(vec![generic.clone(), specific.clone()]);
        let hit = env
            .lookup(
                &Type::arrow(Type::Int, Type::Int),
                OverlapPolicy::MostSpecific,
            )
            .unwrap();
        assert!(crate::alpha::alpha_eq(&hit.rule, &specific));
        // A query only the generic rule matches still resolves to it.
        let hit2 = env
            .lookup(
                &Type::arrow(Type::Bool, Type::Bool),
                OverlapPolicy::MostSpecific,
            )
            .unwrap();
        assert!(crate::alpha::alpha_eq(&hit2.rule, &generic));
        // Under the paper policy the overlapping query is an error.
        assert!(env
            .lookup(&Type::arrow(Type::Int, Type::Int), OverlapPolicy::Forbid)
            .is_err());
    }

    #[test]
    fn most_specific_policy_still_fails_on_incomparable_rules() {
        // {∀a. a → Int, ∀a. Int → a}: neither is most specific.
        let r1 = RuleType::new(vec![v("a")], vec![], Type::arrow(tv("a"), Type::Int));
        let r2 = RuleType::new(vec![v("a")], vec![], Type::arrow(Type::Int, tv("a")));
        let env = ImplicitEnv::with_frame(vec![r1, r2]);
        let err = env
            .lookup(
                &Type::arrow(Type::Int, Type::Int),
                OverlapPolicy::MostSpecific,
            )
            .unwrap_err();
        assert!(matches!(err, LookupError::Overlap { .. }));
    }

    #[test]
    fn ambiguous_instantiation_is_detected() {
        // ext. report: ∀a. {a → a} ⇒ Int queried at Int leaves a
        // undetermined.
        let rule = RuleType::new(
            vec![v("a")],
            vec![Type::arrow(tv("a"), tv("a")).promote()],
            Type::Int,
        );
        let env = ImplicitEnv::with_frame(vec![rule]);
        let err = env.lookup(&Type::Int, OverlapPolicy::Forbid).unwrap_err();
        assert!(matches!(err, LookupError::AmbiguousInstantiation { .. }));
    }

    #[test]
    fn no_match_reports_the_type() {
        let env = ImplicitEnv::with_frame(vec![Type::Bool.promote()]);
        assert_eq!(
            env.lookup(&Type::Int, OverlapPolicy::Forbid).unwrap_err(),
            LookupError::NoMatch(Type::Int)
        );
    }

    #[test]
    fn duplicate_monomorphic_rules_overlap() {
        // ext. report: {Int:1, Int:2} ⊢ ?Int is ambiguous. At the
        // type level both entries collapse to one in a *canonical*
        // context, so model them in separate sets of one frame is not
        // possible — instead two α-equal entries in one frame come
        // from distinct `with` arguments; keep them as given.
        let frame = vec![Type::Int.promote(), Type::Int.promote()];
        let err = lookup_in_frame(&frame, &Type::Int, OverlapPolicy::Forbid).unwrap_err();
        assert!(matches!(err, LookupError::Overlap { .. }));
    }

    #[test]
    fn rule_typed_heads_can_be_looked_up() {
        // A rule *producing* a rule: {Bool} ⇒ ({Int} ⇒ Int × Int).
        // Looking up the rule-typed head must match under binders.
        let produced = Type::rule(RuleType::mono(
            vec![Type::Int.promote()],
            Type::prod(Type::Int, Type::Int),
        ));
        let producer = RuleType::mono(vec![Type::Bool.promote()], produced.clone());
        let env = ImplicitEnv::with_frame(vec![producer]);
        let hit = env.lookup(&produced, OverlapPolicy::Forbid).unwrap();
        assert_eq!(hit.context, vec![Type::Bool.promote()]);
    }

    #[test]
    fn head_index_admits_only_matching_candidates() {
        // A frame of list-headed rules plus one wildcard rule: a Prod
        // target must try only the wildcard; a List target tries all
        // list rules plus the wildcard.
        let wild = RuleType::new(vec![v("a")], vec![], tv("a"));
        let frame = vec![
            Type::list(Type::Int).promote(),
            Type::list(Type::Bool).promote(),
            wild,
        ];
        let env = ImplicitEnv::with_frame(frame);
        assert_eq!(env.frame_candidate_count(0, &int_pair()), 1);
        assert_eq!(env.frame_candidate_count(0, &Type::list(Type::Int)), 3);
        assert_eq!(env.frame_candidate_count(0, &tv("zq")), 1);
        // Out-of-range frames admit nothing.
        assert_eq!(env.frame_candidate_count(7, &Type::Int), 0);
    }

    #[test]
    fn retain_cache_purges_by_query_id() {
        use crate::resolve::{resolve, ResolutionPolicy};

        let mut env = ImplicitEnv::new();
        env.push(vec![
            Type::Int.promote(),
            RuleType::mono(vec![Type::Int.promote()], int_pair()),
        ]);
        let policy = ResolutionPolicy::paper();
        resolve(&env, &Type::Int.promote(), &policy).unwrap();
        resolve(&env, &int_pair().promote(), &policy).unwrap();
        assert_eq!(env.cache_len(), 2);

        let keep = intern::rule_id(&Type::Int.promote());
        env.retain_cache(|id| id == keep);
        assert_eq!(env.cache_len(), 1);
        let before = env.cache_counters();
        resolve(&env, &Type::Int.promote(), &policy).unwrap();
        assert_eq!(env.cache_counters().hits, before.hits + 1);

        env.retain_cache(|_| false);
        assert_eq!(env.cache_len(), 0);
    }

    #[test]
    fn restore_pops_back_to_the_snapshot_depth() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        let snap = env.snapshot();
        env.push(vec![Type::Bool.promote()]);
        env.push(vec![Type::Str.promote()]);
        env.restore(&snap);
        assert_eq!(env.depth(), 1);
        assert_eq!(
            env.lookup(&Type::Int, OverlapPolicy::Forbid).unwrap().frame,
            0
        );
        assert!(env.lookup(&Type::Bool, OverlapPolicy::Forbid).is_err());
        // Restoring to a deeper-than-current snapshot is a no-op.
        let deep = snap;
        env.pop();
        env.restore(&deep);
        assert_eq!(env.depth(), 0);
    }

    /// The cache's bookkeeping: (live entries, shelved entries, FIFO
    /// slots).
    fn footprint(env: &ImplicitEnv) -> (usize, usize, usize) {
        let cache = env.cache.borrow();
        (cache.entries.len(), cache.shelf.len(), cache.order.len())
    }

    #[test]
    fn order_holds_one_slot_per_live_or_shelved_entry() {
        use crate::resolve::{resolve, ResolutionPolicy};

        // A live entry at the front of the FIFO order, then scopes
        // whose own entries die at their pops: no slot may outlive
        // its entry.
        let policy = ResolutionPolicy::paper();
        let mut env = ImplicitEnv::with_frame(vec![Type::Bool.promote()]);
        resolve(&env, &Type::Bool.promote(), &policy).unwrap();
        for cycle in 0..100_000 {
            env.push(vec![Type::Int.promote()]);
            resolve(&env, &Type::Int.promote(), &policy).unwrap();
            env.pop();
            let (live, shelved, slots) = footprint(&env);
            assert!(
                slots <= live + shelved,
                "cycle {cycle}: {slots} slots for {live} live and {shelved} shelved entries"
            );
        }
        assert_eq!(footprint(&env), (1, 0, 1));
    }

    #[test]
    fn nested_shadowing_scopes_stay_within_capacity() {
        use crate::resolve::{resolve, ResolutionPolicy};

        // Each scope provides `Int` and a rule for a type of its own,
        // resolves both, and so shelves the previous scope's two
        // entries: 1,200 entries in all, past the capacity.
        let policy = ResolutionPolicy::paper();
        let mut env = ImplicitEnv::new();
        let scopes = 600;
        for i in 0..scopes {
            let own = Type::Con(Symbol::intern(&format!("EnvBound{i}")), vec![]);
            env.push(vec![
                Type::Int.promote(),
                RuleType::mono(vec![Type::Int.promote()], own.clone()),
            ]);
            resolve(&env, &own.promote(), &policy).unwrap();
            let (live, shelved, slots) = footprint(&env);
            assert!(live + shelved <= DEFAULT_CACHE_CAPACITY, "scope {i}");
            assert_eq!(slots, live + shelved, "scope {i}");
        }
        assert!(env.cache_counters().evictions > 0, "FIFO reached the shelf");
        for _ in 0..scopes {
            env.pop();
            let (live, shelved, slots) = footprint(&env);
            assert!(live + shelved <= DEFAULT_CACHE_CAPACITY);
            assert_eq!(slots, live + shelved);
        }
        assert_eq!(footprint(&env), (0, 0, 0));
    }

    #[test]
    fn a_scope_puts_back_what_it_shelved() {
        use crate::resolve::{resolve, ResolutionPolicy};

        let policy = ResolutionPolicy::paper();
        let mut env = ImplicitEnv::with_frame(vec![
            Type::Int.promote(),
            RuleType::mono(vec![Type::Int.promote()], int_pair()),
        ]);
        resolve(&env, &int_pair().promote(), &policy).unwrap();
        assert_eq!(env.cache_len(), 2);
        // A local `Int` shadows both derivations: they are shelved,
        // and re-derived inside the scope through the local rule.
        env.push(vec![Type::Int.promote()]);
        assert_eq!(footprint(&env), (0, 2, 2));
        resolve(&env, &int_pair().promote(), &policy).unwrap();
        assert_eq!(footprint(&env), (2, 2, 4));
        // The pop drops the local derivations and puts the shelf back.
        env.pop();
        assert_eq!(footprint(&env), (2, 0, 2));
        let misses = env.cache_counters().misses;
        let res = resolve(&env, &int_pair().promote(), &policy).unwrap();
        assert_eq!(env.cache_counters().misses, misses, "a hit");
        assert_eq!(
            res.rule,
            crate::resolve::RuleRef::Env { level: 0, index: 1 }
        );
    }

    #[test]
    fn a_key_rederived_inside_the_scope_keeps_its_original_slot() {
        use crate::resolve::{resolve, ResolutionPolicy};

        // `[Bool]` shares the `List` head of the chain's types, so it
        // shelves their derivations without matching any lookup: the
        // re-derivation inside the scope uses only the outer frame.
        let policy = ResolutionPolicy::paper();
        let list_int = Type::list(Type::Int);
        let mut env = ImplicitEnv::with_frame(vec![
            Type::Int.promote(),
            RuleType::mono(vec![Type::Int.promote()], list_int.clone()),
        ]);
        resolve(&env, &list_int.promote(), &policy).unwrap();
        let snap = crate::intern::snapshot();
        let exported = format!("{:?}", env.export_cache(&snap));
        let version = env.cache_version();
        env.push(vec![Type::list(Type::Bool).promote()]);
        assert_eq!(footprint(&env), (1, 1, 2), "`?Int` stays live");
        resolve(&env, &list_int.promote(), &policy).unwrap();
        assert_eq!(footprint(&env), (2, 1, 3));
        env.pop();
        assert_eq!(footprint(&env), (2, 0, 2));
        assert_eq!(format!("{:?}", env.export_cache(&snap)), exported);
        assert_eq!(env.cache_version(), version, "nothing changed at depth 1");
    }

    #[test]
    fn the_version_counts_only_what_is_visible_at_the_current_depth() {
        use crate::resolve::{resolve, ResolutionPolicy};

        let policy = ResolutionPolicy::paper();
        let mut env = ImplicitEnv::with_frame(vec![
            Type::Int.promote(),
            Type::Bool.promote(),
            RuleType::mono(vec![Type::Int.promote()], int_pair()),
        ]);
        resolve(&env, &int_pair().promote(), &policy).unwrap();
        let base = env.cache_version();
        // A scope that shadows nothing sees the outer entries; one
        // that shadows them sees them shelved.
        env.push(vec![Type::Str.promote()]);
        let unshadowed = env.cache_version();
        env.pop();
        env.push(vec![Type::Int.promote()]);
        let inside = env.cache_version();
        assert_ne!(inside, unshadowed, "the shelving shows at depth 2");
        resolve(&env, &int_pair().promote(), &policy).unwrap();
        assert_ne!(env.cache_version(), inside);
        // Shelving, restoring and the local derivations are invisible
        // from depth 1...
        env.pop();
        assert_eq!(env.cache_version(), base);
        // ...but an entry derived inside the scope from the outer
        // frame alone survives the pop, and is counted at depth 1.
        env.push(vec![Type::Int.promote()]);
        resolve(&env, &Type::Bool.promote(), &policy).unwrap();
        env.pop();
        assert_ne!(env.cache_version(), base);
        // A watermark forgets the shelves under it: what they held
        // does not come back when those frames pop.
        let before = env.cache_version();
        env.push(vec![Type::Int.promote()]);
        let snap = env.snapshot();
        env.restore(&snap);
        assert_eq!(footprint(&env), (1, 0, 1));
        env.pop();
        assert_eq!(env.cache_len(), 1);
        assert_ne!(env.cache_version(), before);
    }

    #[test]
    fn changes_to_shelves_and_closed_scopes_are_counted() {
        use crate::resolve::{resolve, ResolutionPolicy};

        let policy = ResolutionPolicy::paper();
        let mut env = ImplicitEnv::with_frame(vec![
            Type::Int.promote(),
            RuleType::mono(vec![Type::Int.promote()], int_pair()),
        ]);
        // A pop that drops a local entry shows at its depth once a
        // scope opens there again.
        env.push(vec![Type::Bool.promote()]);
        resolve(&env, &Type::Bool.promote(), &policy).unwrap();
        let local = env.cache_version();
        env.pop();
        env.push(vec![Type::Str.promote()]);
        assert_ne!(env.cache_version(), local, "the local entry is gone");
        env.pop();

        // A trimmed shelved entry shows below its shelf.
        resolve(&env, &int_pair().promote(), &policy).unwrap();
        let base = env.cache_version();
        env.push(vec![Type::Int.promote()]);
        let pair = intern::rule_id(&int_pair().promote());
        env.retain_cache(|id| id != pair);
        env.pop();
        assert_eq!(env.cache_len(), 1);
        assert_ne!(env.cache_version(), base);

        // So does an evicted one.
        resolve(&env, &int_pair().promote(), &policy).unwrap();
        env.set_cache_capacity(2);
        let base = env.cache_version();
        env.push(vec![Type::Int.promote()]);
        resolve(&env, &Type::Int.promote(), &policy).unwrap();
        env.pop();
        assert_eq!(env.cache_len(), 1);
        assert_ne!(env.cache_version(), base);
    }

    #[test]
    fn indexed_lookup_agrees_with_slice_lookup() {
        let rules = vec![
            Type::list(Type::Int).promote(),
            RuleType::new(vec![v("a")], vec![], Type::prod(tv("a"), tv("a"))),
            Type::Bool.promote(),
        ];
        let env = ImplicitEnv::with_frame(rules.clone());
        for target in [
            Type::list(Type::Int),
            Type::prod(Type::Str, Type::Str),
            Type::Bool,
            Type::Int,
        ] {
            let via_env = env.lookup(&target, OverlapPolicy::Forbid);
            let via_slice = lookup_in_frame(&rules, &target, OverlapPolicy::Forbid);
            match (via_env, via_slice) {
                (Ok(hit), Ok(Some((index, rule, type_args, context)))) => {
                    assert_eq!(hit.index, index);
                    assert_eq!(hit.rule, rule);
                    assert_eq!(hit.type_args, type_args);
                    assert_eq!(hit.context, context);
                }
                (Err(LookupError::NoMatch(_)), Ok(None)) => {}
                (e, s) => panic!("disagreement on {target}: {e:?} vs {s:?}"),
            }
        }
    }
}
