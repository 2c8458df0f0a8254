//! Containment and matching for linear path patterns.
//!
//! `covers(general, specific)` decides *language inclusion*: does every
//! rooted label path matched by `specific` also match `general`? This is the
//! data-independent relation the optimizer's index matching uses ("index
//! with pattern P can answer a query pattern Q iff P covers Q"), and the
//! coverage-bitmap heuristic of the greedy search relies on it too.
//!
//! Linear patterns denote regular word languages over the (unbounded)
//! alphabet of element labels. Inclusion is decided by restricting to the
//! finite alphabet of labels mentioned in either pattern plus one fresh
//! "other" letter: wildcard and `Σ*` transitions are the only ones that
//! accept unmentioned labels, and they treat all unmentioned labels
//! identically, so any counterexample word can be relabeled onto the
//! restricted alphabet. The decision is exact when both patterns have
//! fewer than 63 steps and mention at most 64 distinct names between them.
//! Any other pair falls back to equality: sound (it never invents a match)
//! but incomplete (`//*` does not cover a 70-step path there). The parser
//! accepts paths of up to [`crate::MAX_PATH_STEPS`] steps, so such pairs
//! can be asked.
//!
//! **The kernel** (`covers_full`) is a bit-parallel NFA product search
//! whose tables all live on the stack. A pattern of `k` steps has states
//! `0..=k` ("the first `i` steps matched"), one bit each, and compiles to
//! a self-loop mask (bit `i` when step `i + 1` is `//`), one accept mask
//! per letter (bit `i` when step `i + 1` accepts it) and the bit of its
//! accepting state. One step of a state set `S` on letter `l` is then
//! `(S & loops) | ((S & accepts[l]) << 1)`. The search walks the
//! reachable `(A-set, B-set)` pairs looking for a word `specific`
//! accepts and `general` does not; the pairs live in a fixed-capacity
//! list on the stack that is queue and seen set at once. Only a search
//! that outgrows it (64 pairs; a TPoX candidate pool needs at most 16)
//! spills to the heap, so a call normally allocates nothing.
//!
//! Three guards sit in front of the kernel, all decided in one place:
//!
//! * **identity** — `L ⊆ L` always holds, so equal patterns (an integer
//!   compare over interned steps) accept immediately;
//! * **length** — a pattern of 63 steps or more takes the equality
//!   fallback above;
//! * **name-mask reject** — every concrete name test in `general` must be
//!   consumed by every word of `L(general)`, while `specific` always has a
//!   witness word avoiding any name it does not mention. So if `general`
//!   mentions a name `specific` does not, containment is impossible. The
//!   bloom-style [`LinearPath::name_mask`] over-approximates the mention
//!   sets: `general.mask & !specific.mask != 0` proves such a name exists
//!   (bit collisions can only *hide* a reject, never invent one).
//!
//! **The memo.** An advise run asks the same few hundred `(general,
//! specific)` questions thousands of times — index matching in every
//! what-if call, maintenance costing, generalization's safety check,
//! relevance rows, the searches' coverage checks — so a pair that passes
//! the guards is decided once per thread and remembered in a small
//! fixed-capacity table (`Memo`), keyed by a one-pass hash of the two
//! paths' steps and confirmed by comparing the steps themselves. A pair
//! whose key another pair already holds (a hash collision) is decided
//! directly and never answered from the other pair's verdict. The table
//! lives in thread-local storage and is cleared whole when it fills, so it
//! never allocates; what-if workers each keep their own. Verdicts are
//! pure, so the memo changes no answer — only how often the product
//! search runs ([`covers_unmemoized`] is the same decision without it).

use crate::intern::Sym;
use crate::linear::{Axis, LinearPath, LinearStep, NameTest};
use crate::statement::ValueKind;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use xia_xml::{PathId, Symbol, Vocabulary};

/// Patterns of this many steps or more take the equality fallback.
const KERNEL_STEPS: usize = 63;

/// Named letters of the restricted alphabet; the "other" letter comes
/// after them.
const NAMES: usize = 64;

/// Product pairs the kernel keeps on the stack before it spills to the
/// heap.
const INLINE_PAIRS: usize = 64;

/// The named letters of the restricted alphabet: symbol ids in order of
/// first mention.
struct Alphabet {
    ids: [u32; NAMES],
    len: usize,
}

impl Alphabet {
    /// The letter of `sym`, added on first mention; `None` when it would
    /// be the 65th distinct name.
    fn letter(&mut self, sym: Sym) -> Option<usize> {
        let id = sym.id();
        if let Some(letter) = self.ids[..self.len].iter().position(|&known| known == id) {
            return Some(letter);
        }
        if self.len == NAMES {
            return None;
        }
        self.ids[self.len] = id;
        self.len += 1;
        Some(self.len - 1)
    }
}

/// A pattern's NFA as state masks: bit `i` is state `i`, "the first `i`
/// steps matched".
struct Automaton {
    /// Per letter (the last index is "other"): bit `i` set iff step
    /// `i + 1` accepts the letter.
    accepts: [u64; NAMES + 1],
    /// Bit `i` set iff step `i + 1` is a wildcard; folded into every
    /// letter of `accepts` once the alphabet is complete.
    wild: u64,
    /// Bit `i` set iff state `i` has a Σ* self-loop (step `i + 1` is `//`).
    loops: u64,
    /// The accepting state's bit.
    accept: u64,
}

impl Automaton {
    /// The automaton of a pattern of `steps` steps (fewer than
    /// [`KERNEL_STEPS`]), before its steps are added.
    fn new(steps: usize) -> Self {
        Self {
            accepts: [0; NAMES + 1],
            wild: 0,
            loops: 0,
            accept: 1 << steps,
        }
    }

    /// Adds the steps of `path`, and its names to `alphabet`; `false` when
    /// the alphabet overflows. Filled in place: the struct is half a
    /// kilobyte, and moving it out of a constructor costs more than the
    /// search of a short pattern.
    fn compile(&mut self, path: &LinearPath, alphabet: &mut Alphabet) -> bool {
        for (i, step) in path.steps.iter().enumerate() {
            let bit = 1u64 << i;
            if step.axis == Axis::Descendant {
                self.loops |= bit;
            }
            match step.test {
                NameTest::Wildcard => self.wild |= bit,
                NameTest::Name(sym) => match alphabet.letter(sym) {
                    Some(letter) => self.accepts[letter] |= bit,
                    None => return false,
                },
            }
        }
        true
    }

    /// Lets the wildcard steps accept each of the first `letters` letters.
    fn finish(&mut self, letters: usize) {
        for accepts in &mut self.accepts[..letters] {
            *accepts |= self.wild;
        }
    }

    /// Steps a state set on one letter.
    fn step(&self, set: u64, letter: usize) -> u64 {
        (set & self.loops) | ((set & self.accepts[letter]) << 1)
    }
}

/// The product search's `(A-set, B-set)` pairs in discovery order: queue
/// and seen set at once, since a pair is queued exactly when first seen.
/// The first [`INLINE_PAIRS`] sit on the stack and are scanned; later ones
/// spill to a `Vec` and a hash set, so a pattern whose subset construction
/// blows up is not searched in quadratic time.
struct PairList {
    inline: [(u64, u64); INLINE_PAIRS],
    inline_len: usize,
    spill: Vec<(u64, u64)>,
    spilled: HashSet<(u64, u64)>,
}

impl PairList {
    fn new(first: (u64, u64)) -> Self {
        let mut inline = [(0, 0); INLINE_PAIRS];
        inline[0] = first;
        Self {
            inline,
            inline_len: 1,
            spill: Vec::new(),
            spilled: HashSet::new(),
        }
    }

    fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    fn get(&self, i: usize) -> (u64, u64) {
        match i.checked_sub(INLINE_PAIRS) {
            None => self.inline[i],
            Some(spilled) => self.spill[spilled],
        }
    }

    /// Appends `pair` unless it was seen before.
    fn insert(&mut self, pair: (u64, u64)) {
        if self.inline[..self.inline_len].contains(&pair) {
            return;
        }
        if self.inline_len < INLINE_PAIRS {
            self.inline[self.inline_len] = pair;
            self.inline_len += 1;
        } else if self.spilled.insert(pair) {
            self.spill.push(pair);
        }
    }
}

/// The one containment decision behind [`covers`] and
/// [`covers_unmemoized`]: identity, the length fallback and the name-mask
/// reject, then `kernel` for a pair none of them decides.
fn decide(
    general: &LinearPath,
    specific: &LinearPath,
    kernel: impl FnOnce(&LinearPath, &LinearPath) -> bool,
) -> bool {
    if general == specific {
        return true; // identity: L ⊆ L
    }
    if general.len() >= KERNEL_STEPS || specific.len() >= KERNEL_STEPS {
        return false; // equality fallback, and they differ
    }
    if general.name_mask() & !specific.name_mask() != 0 {
        return false;
    }
    kernel(general, specific)
}

/// Returns `true` iff every rooted label path matched by `specific` is also
/// matched by `general` (language inclusion `L(specific) ⊆ L(general)`).
/// A pair the guards do not decide is answered from this thread's memo,
/// or searched once and remembered there.
pub fn covers(general: &LinearPath, specific: &LinearPath) -> bool {
    decide(general, specific, |general, specific| {
        match pair_key(general, specific) {
            Some(key) => MEMO.with(|memo| memo.borrow_mut().verdict(key, general, specific)),
            None => covers_full(general, specific),
        }
    })
}

/// [`covers`] without the memo: the guards, then the product search,
/// every time. The reference the memo is checked against.
pub fn covers_unmemoized(general: &LinearPath, specific: &LinearPath) -> bool {
    decide(general, specific, covers_full)
}

/// Slots of the verdict memo; a power of two.
const MEMO_SLOTS: usize = 1024;

/// Verdicts the memo holds before it is cleared: three quarters of its
/// slots, so a probe always ends at an empty slot.
pub const MEMO_ENTRIES: usize = MEMO_SLOTS / 4 * 3;

/// Step codes the memo's arena holds; a pair whose steps do not fit clears
/// the memo too.
const MEMO_STEPS: usize = 8192;

/// A slot's verdict byte: empty, or the remembered answer.
const EMPTY: u8 = 0;
const REFUTED: u8 = 1;
const COVERED: u8 = 2;

/// One remembered pair: its key, where its step codes sit in the arena
/// (`general`'s, then `specific`'s) and its verdict.
#[derive(Clone, Copy)]
struct MemoSlot {
    key: u64,
    at: u16,
    general_len: u8,
    specific_len: u8,
    verdict: u8,
}

impl MemoSlot {
    const EMPTY: Self = Self {
        key: 0,
        at: 0,
        general_len: 0,
        specific_len: 0,
        verdict: EMPTY,
    };
}

/// The verdict memo: an open-addressing table of [`MEMO_SLOTS`] slots
/// (linear probing) over an arena of step codes, all inline, so a thread's
/// memo is one zeroed block of thread-local storage and never allocates.
/// A step's code is its symbol id and axis ([`step_code`]); two pairs are
/// the same pair iff their keys and codes are equal.
struct Memo {
    slots: [MemoSlot; MEMO_SLOTS],
    steps: [u32; MEMO_STEPS],
    /// Arena codes in use.
    used: usize,
    /// Slots in use.
    entries: usize,
    /// Times the memo has filled and been cleared.
    clears: u64,
}

thread_local! {
    /// This thread's verdict memo.
    static MEMO: RefCell<Memo> = const { RefCell::new(Memo::EMPTY) };
}

/// A step's arena code: the wildcard's codes are 0 and 1, a name's are
/// past them. `None` for a symbol id too large to code (the pair is then
/// decided without the memo).
fn step_code(step: &LinearStep) -> Option<u32> {
    let axis = u32::from(step.axis == Axis::Descendant);
    let test = match step.test {
        NameTest::Wildcard => 0,
        NameTest::Name(sym) => sym.id().checked_add(1)?,
    };
    test.checked_mul(2).map(|code| code | axis)
}

/// A pair's memo key: a polynomial hash of both paths' step codes (one
/// multiply-add per step), seeded with `general`'s length so the split
/// between the two paths counts. `None` when a step has no code.
fn pair_key(general: &LinearPath, specific: &LinearPath) -> Option<u64> {
    let mut key = general.len() as u64 + 1;
    for step in general.steps.iter().chain(&specific.steps) {
        let code = u64::from(step_code(step)?) + 1;
        key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(code);
    }
    Some(key)
}

impl Memo {
    const EMPTY: Self = Self {
        slots: [MemoSlot::EMPTY; MEMO_SLOTS],
        steps: [0; MEMO_STEPS],
        used: 0,
        entries: 0,
        clears: 0,
    };

    /// The slot a probe for `key` starts at.
    fn home(key: u64) -> usize {
        let mixed = (key ^ (key >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (mixed >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// Whether `slot` holds exactly the pair `(general, specific)`.
    fn holds(&self, slot: &MemoSlot, general: &LinearPath, specific: &LinearPath) -> bool {
        if usize::from(slot.general_len) != general.len()
            || usize::from(slot.specific_len) != specific.len()
        {
            return false;
        }
        let codes = &self.steps[usize::from(slot.at)..];
        (general.steps.iter().chain(&specific.steps))
            .zip(codes)
            .all(|(step, &code)| step_code(step) == Some(code))
    }

    /// The verdict on `(general, specific)`, filed under `key`: the
    /// remembered one, or the product search's, remembered. A pair whose
    /// key holds another pair is searched and not remembered. Both paths
    /// have fewer than [`KERNEL_STEPS`] steps.
    fn verdict(&mut self, key: u64, general: &LinearPath, specific: &LinearPath) -> bool {
        let mut at = Self::home(key);
        loop {
            let slot = self.slots[at];
            if slot.verdict == EMPTY {
                break;
            }
            if slot.key == key {
                return if self.holds(&slot, general, specific) {
                    slot.verdict == COVERED
                } else {
                    covers_full(general, specific)
                };
            }
            at = (at + 1) % MEMO_SLOTS;
        }
        let covered = covers_full(general, specific);
        self.remember(at, key, general, specific, covered);
        covered
    }

    /// Files a decided pair at the empty slot `at`, clearing the memo
    /// first when it is full or its arena has no room for the steps.
    fn remember(
        &mut self,
        mut at: usize,
        key: u64,
        general: &LinearPath,
        specific: &LinearPath,
        covered: bool,
    ) {
        let len = general.len() + specific.len();
        if self.entries == MEMO_ENTRIES || self.used + len > MEMO_STEPS {
            self.slots = [MemoSlot::EMPTY; MEMO_SLOTS];
            self.used = 0;
            self.entries = 0;
            self.clears += 1;
            at = Self::home(key);
        }
        let steps = general.steps.iter().chain(&specific.steps);
        for (code, step) in self.steps[self.used..self.used + len].iter_mut().zip(steps) {
            // Every step has a code: the pair has a key.
            *code = step_code(step).unwrap_or_default();
        }
        self.slots[at] = MemoSlot {
            key,
            at: self.used as u16,
            general_len: general.len() as u8,
            specific_len: specific.len() as u8,
            verdict: if covered { COVERED } else { REFUTED },
        };
        self.used += len;
        self.entries += 1;
    }
}

/// The product search, without the identity/mask guards. Both patterns
/// must have fewer than [`KERNEL_STEPS`] steps; more than 64 distinct
/// names between them fall back to equality.
fn covers_full(general: &LinearPath, specific: &LinearPath) -> bool {
    let mut alphabet = Alphabet {
        ids: [0; NAMES],
        len: 0,
    };
    let mut a = Automaton::new(specific.len()); // must be ⊆
    let mut b = Automaton::new(general.len()); // must be ⊇
    if !b.compile(general, &mut alphabet) || !a.compile(specific, &mut alphabet) {
        return general == specific;
    }
    let letters = alphabet.len + 1; // the named letters, then "other"
    a.finish(letters);
    b.finish(letters);

    // Search the reachable pairs of A's and B's state sets for a word
    // accepted by A but not by B.
    let mut pairs = PairList::new((1, 1));
    let mut next = 0;
    while next < pairs.len() {
        let (sa, sb) = pairs.get(next);
        next += 1;
        if sa & a.accept != 0 && sb & b.accept == 0 {
            return false; // counterexample word exists
        }
        for letter in 0..letters {
            let na = a.step(sa, letter);
            if na != 0 {
                // A word that died in A cannot be a counterexample.
                pairs.insert((na, b.step(sb, letter)));
            }
        }
    }
    true
}

/// Whether two patterns match exactly the same label paths.
pub fn equivalent(a: &LinearPath, b: &LinearPath) -> bool {
    covers(a, b) && covers(b, a)
}

/// The access-pattern surface of one workload statement, as seen by index
/// matching: the collection it touches and the indexable linear patterns it
/// probes, each with the comparison's value kind (`None` for existence
/// probes, which any index kind can answer).
///
/// This is everything the optimizer's `index_matches` consults about a
/// statement, so a candidate index that matches *no* target here provably
/// cannot appear in any plan for the statement — the soundness basis of
/// relevance pruning.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StatementSignature {
    /// Collection the statement runs against.
    pub collection: String,
    /// Indexable access patterns: `(linear pattern, comparison kind)`.
    /// Empty for statements whose plans never consult the catalog
    /// (inserts).
    pub targets: Vec<(LinearPath, Option<ValueKind>)>,
}

impl StatementSignature {
    /// Whether an index with this `(collection, pattern, kind)` could match
    /// any access pattern of the statement (mirrors the optimizer's
    /// `index_matches`: kind compatibility plus pattern containment).
    pub fn admits(&self, collection: &str, pattern: &LinearPath, kind: ValueKind) -> bool {
        self.collection == collection
            && self
                .targets
                .iter()
                .any(|(q, kq)| kq.is_none_or(|k| k == kind) && covers(pattern, q))
    }
}

/// Precomputed statement-relevance matrix: for each candidate index
/// pattern, the set of workload statements whose plans could possibly use
/// it. Built once per advise run from the statements' signatures — deriving
/// a candidate's row costs only containment checks, never optimizer calls.
///
/// Statements with equal signatures admit exactly the same indexes, and a
/// workload of thousands of templates has a few hundred distinct
/// signatures (templates that differ in a range literal or a return path
/// probe the same patterns). The matrix therefore keeps each distinct
/// signature once, asks it once per candidate, and fans the verdict out to
/// its member statements. Distinct signatures still share most of their
/// targets, so those are kept once too: a row decides each distinct
/// `(pattern, kind)` target at most once, and a signature is admitted iff
/// it is on the row's collection and one of its targets is.
#[derive(Debug, Default)]
pub struct RelevanceMatrix {
    /// The distinct signatures, in first-occurrence order: each one's
    /// collection and its targets' indexes in `targets`.
    distinct: Vec<(String, Vec<u32>)>,
    /// Each distinct signature's index in `distinct`.
    index: HashMap<StatementSignature, usize>,
    /// The distinct targets of all signatures, in first-occurrence order.
    targets: Vec<(LinearPath, Option<ValueKind>)>,
    /// Each distinct target's index in `targets`.
    target_index: HashMap<(LinearPath, Option<ValueKind>), u32>,
    /// Per statement, in workload order: its signature's index in
    /// `distinct`.
    group_of: Vec<usize>,
}

impl RelevanceMatrix {
    /// Builds a matrix over a workload's statement signatures (one entry
    /// per statement, in workload order).
    pub fn new(signatures: Vec<StatementSignature>) -> Self {
        let mut matrix = Self::default();
        for sig in signatures {
            matrix.push(sig);
        }
        matrix
    }

    /// Appends the next statement's signature: the matrix grows with an
    /// append-only workload, and rows asked `from` the old length cover
    /// exactly the statements added since.
    pub fn push(&mut self, sig: StatementSignature) {
        let group = match self.index.get(&sig) {
            Some(&group) => group,
            None => {
                let ids = (sig.targets.iter())
                    .map(|target| {
                        let next = self.targets.len() as u32;
                        *(self.target_index.entry(target.clone())).or_insert_with(|| {
                            self.targets.push(target.clone());
                            next
                        })
                    })
                    .collect();
                self.distinct.push((sig.collection.clone(), ids));
                self.index.insert(sig, self.distinct.len() - 1);
                self.distinct.len() - 1
            }
        };
        self.group_of.push(group);
    }

    /// Appends the next statement with the signature of statement
    /// `earlier`, which it is known to share: no signature is built or
    /// hashed.
    pub fn push_like(&mut self, earlier: usize) {
        self.group_of.push(self.group_of[earlier]);
    }

    /// Number of statements covered.
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// Whether the matrix covers no statements.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// The statements `from..` (ascending indexes) whose signature group
    /// `admits`. Each distinct signature among them is asked once, in
    /// first-occurrence order, before any statement is collected.
    fn members_from(&self, from: usize, mut admits: impl FnMut(usize) -> bool) -> Vec<usize> {
        let groups = &self.group_of[from.min(self.group_of.len())..];
        let mut admitted: Vec<Option<bool>> = vec![None; self.distinct.len()];
        for &group in groups {
            if admitted[group].is_none() {
                admitted[group] = Some(admits(group));
            }
        }
        let held = |&group: &usize| admitted[group] == Some(true);
        let mut members = Vec::with_capacity(groups.iter().filter(|g| held(g)).count());
        members.extend(
            (from..)
                .zip(groups)
                .filter(|(_, g)| held(g))
                .map(|(si, _)| si),
        );
        members
    }

    /// The statements (ascending indexes) a candidate index with this
    /// `(collection, pattern, kind)` is relevant to.
    pub fn relevant_statements(
        &self,
        collection: &str,
        pattern: &LinearPath,
        kind: ValueKind,
    ) -> Vec<usize> {
        self.relevant_from(0, collection, pattern, kind)
    }

    /// The row restricted to statements `from..`: what an existing
    /// candidate's row gains when the workload grows.
    pub fn relevant_from(
        &self,
        from: usize,
        collection: &str,
        pattern: &LinearPath,
        kind: ValueKind,
    ) -> Vec<usize> {
        // Per distinct target: not decided yet, or its verdict.
        let mut matched: Vec<Option<bool>> = vec![None; self.targets.len()];
        self.members_from(from, |group| {
            let (group_collection, target_ids) = &self.distinct[group];
            group_collection == collection
                && target_ids.iter().any(|&t| {
                    *matched[t as usize].get_or_insert_with(|| {
                        let (target, target_kind) = &self.targets[t as usize];
                        target_kind.is_none_or(|k| k == kind) && covers(pattern, target)
                    })
                })
        })
    }
}

/// A pattern compiled against a concrete [`Vocabulary`] for fast matching of
/// interned rooted paths. Used by partial-index builds, RUNSTATS, and the
/// executor.
pub struct PathMatcher {
    /// Per step: resolved symbol (None = wildcard or unknown name), axis,
    /// and whether an unknown name makes the step unsatisfiable.
    steps: Vec<CompiledStep>,
}

struct CompiledStep {
    axis: Axis,
    /// `Ok(sym)` concrete resolved name; `Err(true)` wildcard; `Err(false)`
    /// name not present in the vocabulary (never matches).
    test: Result<Symbol, bool>,
}

impl PathMatcher {
    /// Compiles `pattern` against `vocab`.
    pub fn new(pattern: &LinearPath, vocab: &Vocabulary) -> Self {
        let steps = pattern
            .steps
            .iter()
            .map(|s| CompiledStep {
                axis: s.axis,
                test: match s.test {
                    NameTest::Wildcard => Err(true),
                    NameTest::Name(n) => match vocab.lookup_name(n.as_str()) {
                        Some(sym) => Ok(sym),
                        None => Err(false),
                    },
                },
            })
            .collect();
        Self { steps }
    }

    fn step_accepts(step: &CompiledStep, label: Symbol) -> bool {
        match step.test {
            Ok(sym) => sym == label,
            Err(wild) => wild,
        }
    }

    /// Matches an interned label sequence (same DP as
    /// [`LinearPath::matches_labels`], over symbols). Allocation-free for
    /// every path the dictionary is likely to hold.
    pub fn matches(&self, labels: &[Symbol]) -> bool {
        crate::linear::match_steps(
            &self.steps,
            labels.len(),
            |s| s.axis,
            |s, j| Self::step_accepts(s, labels[j]),
        )
    }

    /// The straightforward two-row DP: the reference `matches` is
    /// checked against.
    #[cfg(test)]
    fn matches_reference(&self, labels: &[Symbol]) -> bool {
        let n = labels.len();
        let mut cur = vec![false; n + 1];
        cur[0] = true;
        let mut next = vec![false; n + 1];
        for step in &self.steps {
            next.iter_mut().for_each(|b| *b = false);
            match step.axis {
                Axis::Child => {
                    for j in 1..=n {
                        next[j] = cur[j - 1] && Self::step_accepts(step, labels[j - 1]);
                    }
                }
                Axis::Descendant => {
                    let mut reach = false;
                    for j in 1..=n {
                        reach |= cur[j - 1];
                        next[j] = reach && Self::step_accepts(step, labels[j - 1]);
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur[n]
    }

    /// Scans the vocabulary's path dictionary and returns all matching path
    /// ids, in id order.
    pub fn matching_path_ids(&self, vocab: &Vocabulary) -> Vec<PathId> {
        vocab
            .paths
            .iter()
            .filter(|(_, labels)| self.matches(labels))
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_linear_path;
    use xia_xml::DocBuilder;

    fn lp(s: &str) -> LinearPath {
        parse_linear_path(s).expect("parse")
    }

    /// The name-mask reject of `decide`, on its own.
    fn mask_rejects(general: &LinearPath, specific: &LinearPath) -> bool {
        general.name_mask() & !specific.name_mask() != 0
    }

    /// Letter of the reference search's restricted alphabet: index into
    /// the mentioned-names list, or `Other` for any unmentioned label.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Letter {
        Named(usize),
        Other,
    }

    /// The reference NFA. State `i` = "first `i` steps matched"; a
    /// descendant-axis step adds a self-loop (Σ*) on its source state.
    struct Nfa {
        /// `accepts[i]`: which letters step `i+1` accepts (bitmask over
        /// named letters; bool for Other).
        accepts: Vec<(u64, bool)>,
        /// Whether state `i` has a Σ* self-loop (step `i+1` is descendant-axis).
        self_loop: Vec<bool>,
        states: usize,
    }

    fn build_nfa(path: &LinearPath, names: &[Sym]) -> Nfa {
        assert!(
            names.len() <= 64,
            "containment alphabet limited to 64 names"
        );
        let mut accepts = Vec::with_capacity(path.len());
        let mut self_loop = Vec::with_capacity(path.len());
        for step in &path.steps {
            let (mask, other) = match step.test {
                NameTest::Wildcard => (u64::MAX >> (64 - names.len().max(1)), true),
                NameTest::Name(n) => {
                    let mut mask = 0u64;
                    if let Some(i) = names.iter().position(|x| *x == n) {
                        mask |= 1 << i;
                    }
                    (mask, false)
                }
            };
            accepts.push((mask, other));
            self_loop.push(step.axis == Axis::Descendant);
        }
        Nfa {
            accepts,
            self_loop,
            states: path.len() + 1,
        }
    }

    impl Nfa {
        /// Steps a state *set* (bitmask over states) on one letter, one
        /// state at a time.
        fn step_set(&self, set: u64, letter: Letter) -> u64 {
            let mut next = 0u64;
            for i in 0..self.states - 1 {
                if set & (1 << i) == 0 {
                    continue;
                }
                if self.self_loop[i] {
                    next |= 1 << i;
                }
                let (mask, other) = self.accepts[i];
                let ok = match letter {
                    Letter::Named(n) => mask & (1 << n) != 0,
                    Letter::Other => other,
                };
                if ok {
                    next |= 1 << (i + 1);
                }
            }
            next
        }

        fn accepting(&self, set: u64) -> bool {
            set & (1 << (self.states - 1)) != 0
        }
    }

    /// The product search the kernel replaced: a name list, two `Vec`
    /// NFAs stepped state by state, and a breadth-first search with a
    /// hashed seen set. The oracle the kernel is held to.
    fn covers_reference(general: &LinearPath, specific: &LinearPath) -> bool {
        let mut names: Vec<Sym> = Vec::new();
        for n in general.syms().chain(specific.syms()) {
            if !names.contains(&n) {
                names.push(n);
            }
        }
        if names.len() > 64 {
            return general == specific;
        }
        let a = build_nfa(specific, &names); // must be ⊆
        let b = build_nfa(general, &names); // must be ⊇
        let mut letters: Vec<Letter> = (0..names.len()).map(Letter::Named).collect();
        letters.push(Letter::Other);

        let start = (1u64, 1u64);
        let mut seen = HashSet::new();
        seen.insert(start);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        while let Some((sa, sb)) = queue.pop_front() {
            if a.accepting(sa) && !b.accepting(sb) {
                return false;
            }
            for &l in &letters {
                let na = a.step_set(sa, l);
                if na == 0 {
                    continue;
                }
                let nb = b.step_set(sb, l);
                if seen.insert((na, nb)) {
                    queue.push_back((na, nb));
                }
            }
        }
        true
    }

    /// A deterministic splitmix64 stream.
    fn splitmix(mut state: u64) -> impl FnMut() -> usize {
        move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        }
    }

    /// A random path of `len` steps over `names`: one axis in `one_in` is
    /// `//` and one test in `one_in + 1` is `*` (all of them when `names`
    /// is empty).
    fn random_path(
        next: &mut impl FnMut() -> usize,
        names: &[&str],
        len: usize,
        one_in: usize,
    ) -> LinearPath {
        let steps = (0..len)
            .map(|_| {
                let axis = if next().is_multiple_of(one_in) {
                    Axis::Descendant
                } else {
                    Axis::Child
                };
                let test = if names.is_empty() || next().is_multiple_of(one_in + 1) {
                    NameTest::Wildcard
                } else {
                    NameTest::name_of(names[next() % names.len()])
                };
                crate::linear::LinearStep { axis, test }
            })
            .collect();
        LinearPath::new(steps)
    }

    /// Differential oracle: the bit-parallel kernel and `covers` give the
    /// reference search's verdict on every ordered pair of a seeded pool —
    /// short paths over four names (so names repeat), all-wildcard paths
    /// (the empty named alphabet), paths at the 62-step edge of the kernel
    /// and past it, and wide paths whose pairs mention more than 64
    /// distinct names (the equality fallback). Long paths are mostly
    /// child steps: a long pattern dense in `//` and `*` makes both
    /// searches walk an exponential number of state sets.
    #[test]
    fn kernel_matches_reference_nfa() {
        let mut next = splitmix(0xC0E5);
        let four = ["a", "b", "c", "d"];
        let wide: Vec<String> = (0..200).map(|i| format!("kernel_w{i}")).collect();
        let wide: Vec<&str> = wide.iter().map(String::as_str).collect();
        let mut pool = Vec::new();
        for _ in 0..340 {
            let len = 1 + next() % 7;
            pool.push(random_path(&mut next, &four, len, 3));
        }
        for len in 1..=6 {
            pool.push(random_path(&mut next, &[], len, 3));
        }
        for len in [40, 62] {
            pool.push(random_path(&mut next, &four, len, 12));
            pool.push(random_path(&mut next, &four[..1], len, 12));
        }
        for len in [63, 64] {
            pool.push(random_path(&mut next, &four, len, 12));
        }
        for len in [30, 36] {
            pool.push(random_path(&mut next, &wide, len, 12));
        }
        // 62-step child paths at the kernel's edge: 62 names with their
        // `//*` extension (the kernel), 65 with the shifted one (the
        // equality fallback).
        let wide_62 = LinearPath::from_labels(wide[..62].iter().copied());
        pool.push(wide_62.clone());
        pool.push(wide_62.join(&[crate::linear::LinearStep::descendant_wild()]));
        pool.push(LinearPath::from_labels(wide[3..65].iter().copied()));

        let mut pairs = 0;
        let mut held = 0;
        let mut fallbacks = 0;
        for g in &pool {
            for s in &pool {
                let reference = if g.len() >= KERNEL_STEPS || s.len() >= KERNEL_STEPS {
                    g == s
                } else {
                    let mut names: Vec<Sym> = g.syms().chain(s.syms()).collect();
                    names.sort_by_key(|n| n.id());
                    names.dedup();
                    fallbacks += usize::from(names.len() > NAMES);
                    let reference = covers_reference(g, s);
                    assert_eq!(covers_full(g, s), reference, "kernel on ({g}, {s})");
                    reference
                };
                assert_eq!(covers(g, s), reference, "covers on ({g}, {s})");
                pairs += 1;
                held += usize::from(reference);
            }
        }
        assert!(pairs >= 100_000, "{pairs} pairs");
        assert!(held > pairs / 50, "{held} of {pairs} pairs contained");
        assert!(fallbacks > 0, "no pair overflowed the alphabet");
    }

    #[test]
    fn universal_covers_everything() {
        let u = LinearPath::universal();
        for s in [
            "/Security/Symbol",
            "/Security/SecInfo/*/Sector",
            "//Yield",
            "/a//b/*",
        ] {
            assert!(covers(&u, &lp(s)), "//* should cover {s}");
            assert!(!covers(&lp(s), &u), "{s} should not cover //*");
        }
    }

    #[test]
    fn paper_table1_coverage() {
        // C4 = /Security//* covers C1 and C2 but also C3.
        let c4 = lp("/Security//*");
        assert!(covers(&c4, &lp("/Security/Symbol")));
        assert!(covers(&c4, &lp("/Security/SecInfo/*/Sector")));
        assert!(covers(&c4, &lp("/Security/Yield")));
        assert!(!covers(&c4, &lp("/Order/Price")));
    }

    #[test]
    fn self_coverage_is_reflexive() {
        for s in ["/a/b", "/a//b", "/a/*/b", "//*"] {
            let p = lp(s);
            assert!(covers(&p, &p), "{s} must cover itself");
        }
    }

    #[test]
    fn wildcard_vs_descendant_distinction() {
        // /a/* matches exactly depth-2 paths under a; /a//* matches any depth.
        assert!(covers(&lp("/a//*"), &lp("/a/*")));
        assert!(!covers(&lp("/a/*"), &lp("/a//*")));
        assert!(!covers(&lp("/a/*"), &lp("/a/b/c")));
        assert!(covers(&lp("/a//*"), &lp("/a/b/c")));
    }

    #[test]
    fn descendant_name_coverage() {
        assert!(covers(&lp("//Sector"), &lp("/Security/SecInfo/*/Sector")));
        assert!(!covers(&lp("/Security/Sector"), &lp("//Sector")));
        // /a//d covers /a/b/d and /a/d
        assert!(covers(&lp("/a//d"), &lp("/a/b/d")));
        assert!(covers(&lp("/a//d"), &lp("/a/d")));
        assert!(!covers(&lp("/a//d"), &lp("/b/d")));
    }

    #[test]
    fn equivalence_of_rule0_rewrites() {
        // /a/*/b is strictly contained in /a//b (not equivalent).
        assert!(covers(&lp("/a//b"), &lp("/a/*/b")));
        assert!(!covers(&lp("/a/*/b"), &lp("/a//b")));
        assert!(equivalent(&lp("/a//b"), &lp("/a//b")));
    }

    #[test]
    fn incomparable_patterns() {
        assert!(!covers(&lp("/a/b"), &lp("/a/c")));
        assert!(!covers(&lp("/a/c"), &lp("/a/b")));
        // /a/*/c vs /a/b//c overlap but neither contains the other.
        assert!(!covers(&lp("/a/*/c"), &lp("/a/b//c")));
        assert!(!covers(&lp("/a/b//c"), &lp("/a/*/c")));
    }

    #[test]
    fn fresh_label_soundness() {
        // //x ⊆ //* even though * mentions no names.
        assert!(covers(&lp("//*"), &lp("//x")));
        // /a/* does NOT cover /a/b/c (length mismatch via fresh letters).
        assert!(!covers(&lp("/a/*"), &lp("/a//c")));
    }

    /// The pattern pool the fast-path property tests range over: mixes
    /// child/descendant axes, wildcards, shared and disjoint names.
    const POOL: [&str; 14] = [
        "/a/b/d", "/a//d", "/a/*", "/a//*", "//d", "/a/d", "/a/b//c", "/a/*/c", "//*", "/a/b",
        "//c", "/x/y", "/a/b/c/d", "//a//b",
    ];

    /// Property (tentpole fast path): the mask-based reject is sound — it
    /// never fires on a pair the full NFA search would accept. Together
    /// with the identity fast path (reflexivity, pinned above) this gives
    /// `covers ≡ covers_full` on every pair in the pool.
    #[test]
    fn mask_reject_never_rejects_true_containment() {
        for g in &POOL {
            for s in &POOL {
                let (gp, sp) = (lp(g), lp(s));
                let full = covers_full(&gp, &sp);
                if mask_rejects(&gp, &sp) {
                    assert!(!full, "mask rejected {g} ⊇ {s}, but containment holds");
                }
                assert_eq!(
                    covers(&gp, &sp),
                    full,
                    "fast covers diverged from covers_full on ({g}, {s})"
                );
            }
        }
    }

    /// The pairs of [`POOL`] that reach the memo: the ones no guard
    /// decides.
    fn kernel_pairs() -> Vec<(LinearPath, LinearPath)> {
        let mut pairs = Vec::new();
        for g in &POOL {
            for s in &POOL {
                let (gp, sp) = (lp(g), lp(s));
                if gp != sp && !mask_rejects(&gp, &sp) {
                    pairs.push((gp, sp));
                }
            }
        }
        pairs
    }

    fn key(general: &LinearPath, specific: &LinearPath) -> u64 {
        pair_key(general, specific).expect("every step has a code")
    }

    /// The memo gives the product search's verdict on every pair, files
    /// each pair once, and answers a second pass from what it filed.
    #[test]
    fn memo_matches_the_unmemoized_search_and_files_each_pair_once() {
        let mut memo = Box::new(Memo::EMPTY);
        let pairs = kernel_pairs();
        assert!(pairs.len() > 50, "{} pairs reach the kernel", pairs.len());
        for (g, s) in &pairs {
            assert_eq!(
                memo.verdict(key(g, s), g, s),
                covers_full(g, s),
                "({g}, {s})"
            );
            assert_eq!(covers(g, s), covers_unmemoized(g, s), "({g}, {s})");
        }
        assert_eq!(memo.entries, pairs.len());
        let used = memo.used;
        for (g, s) in &pairs {
            assert_eq!(
                memo.verdict(key(g, s), g, s),
                covers_full(g, s),
                "({g}, {s})"
            );
        }
        assert_eq!(
            (memo.entries, memo.used, memo.clears),
            (pairs.len(), used, 0)
        );
    }

    /// Paths at or above the 63-step guard take the equality fallback
    /// without reaching the memo.
    #[test]
    fn memo_handles_long_path_guard() {
        let long = LinearPath::from_labels((0..70).map(|_| "n").collect::<Vec<_>>());
        let short = lp("/n");
        let before = MEMO.with(|memo| memo.borrow().entries);
        assert!(covers(&long, &long));
        assert!(!covers(&long, &short));
        assert!(!covers(&short, &long));
        for (g, s) in [(&long, &long), (&long, &short), (&short, &long)] {
            assert_eq!(covers(g, s), covers_unmemoized(g, s));
        }
        assert_eq!(MEMO.with(|memo| memo.borrow().entries), before);
    }

    /// Two distinct pairs forced onto one key: each is decided on its own,
    /// the one filed first keeps its slot, and the other is never answered
    /// from it.
    #[test]
    fn pairs_sharing_a_key_are_each_decided_on_their_own() {
        let (held, refuted) = ((lp("/a//*"), lp("/a/b/c")), (lp("/a/*"), lp("/a/b/c")));
        assert!(covers_full(&held.0, &held.1) && !covers_full(&refuted.0, &refuted.1));
        for (first, second) in [(&held, &refuted), (&refuted, &held)] {
            let mut memo = Box::new(Memo::EMPTY);
            let shared = key(&first.0, &first.1);
            let want = |pair: &(LinearPath, LinearPath)| covers_full(&pair.0, &pair.1);
            for _ in 0..3 {
                assert_eq!(memo.verdict(shared, &first.0, &first.1), want(first));
                assert_eq!(memo.verdict(shared, &second.0, &second.1), want(second));
            }
            assert_eq!(memo.entries, 1, "the second pair is not filed");
        }
    }

    /// A memo filled past [`MEMO_ENTRIES`] verdicts, or past its arena,
    /// clears and goes on answering as the product search does.
    #[test]
    fn a_full_memo_clears_and_answers_alike() {
        let mut memo = Box::new(Memo::EMPTY);
        let universal = LinearPath::universal();
        let names: Vec<String> = (0..MEMO_ENTRIES + 10)
            .map(|i| format!("memo_f{i}"))
            .collect();
        for round in 1..=2 {
            for name in &names {
                let specific = lp(&format!("/a/{name}"));
                let k = key(&universal, &specific);
                assert!(memo.verdict(k, &universal, &specific));
                assert!(memo.entries <= MEMO_ENTRIES);
            }
            assert_eq!(memo.clears, round, "{} pairs per round", names.len());
        }
        // Long pairs fill the arena before the slots.
        let mut memo = Box::new(Memo::EMPTY);
        let deep =
            |i: usize| LinearPath::from_labels((0..60).map(|d| if d == i { "x" } else { "y" }));
        for general in [lp("//x"), lp("//x//*"), lp("//*//x")] {
            for i in 0..60 {
                let specific = deep(i);
                let k = key(&general, &specific);
                let want = covers_full(&general, &specific);
                assert_eq!(memo.verdict(k, &general, &specific), want);
            }
        }
        assert!(memo.clears >= 1 && memo.entries < MEMO_ENTRIES);
        assert!(memo.used <= MEMO_STEPS);
    }

    #[test]
    fn matcher_agrees_with_pattern_on_document_paths() {
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "Security");
        b.leaf("Symbol", "IBM");
        b.begin("SecInfo");
        b.begin("StockInfo");
        b.leaf("Sector", "Tech");
        b.end();
        b.end();
        b.leaf("Yield", "4.5");
        let _doc = b.finish();

        let pattern = lp("/Security/SecInfo/*/Sector");
        let m = PathMatcher::new(&pattern, &vocab);
        let ids = m.matching_path_ids(&vocab);
        assert_eq!(ids.len(), 1);
        assert_eq!(
            vocab.path_string(ids[0]),
            "/Security/SecInfo/StockInfo/Sector"
        );

        let all = PathMatcher::new(&LinearPath::universal(), &vocab).matching_path_ids(&vocab);
        assert_eq!(all.len(), vocab.paths.len());
    }

    /// Property (soundness of relevance pruning at the containment layer):
    /// over a generated workload, `covers(g, s)` implies the relevance
    /// bitset of `g` is a superset of `s`'s — anything a specific pattern
    /// can serve, its generalization can serve too. Follows from
    /// transitivity of language inclusion; this pins it end-to-end through
    /// [`RelevanceMatrix`].
    #[test]
    fn relevance_of_general_pattern_is_superset_of_specific() {
        // Deterministic splitmix64 so the "generated workload" is stable.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        };
        let pool = [
            "/a/b/d", "/a//d", "/a/*", "/a//*", "//d", "/a/d", "/a/b//c", "/a/*/c", "//*", "/a/b",
            "//c", "/x/y",
        ];
        let kinds = [Some(ValueKind::Str), Some(ValueKind::Num), None];
        let colls = ["C1", "C2"];
        // 40 random statements, 1–3 targets each.
        let mut sigs = Vec::new();
        for _ in 0..40 {
            let collection = colls[next() % colls.len()].to_string();
            let n = 1 + next() % 3;
            let targets = (0..n)
                .map(|_| (lp(pool[next() % pool.len()]), kinds[next() % kinds.len()]))
                .collect();
            sigs.push(StatementSignature {
                collection,
                targets,
            });
        }
        let m = RelevanceMatrix::new(sigs);
        assert_eq!(m.len(), 40);
        for g in &pool {
            for s in &pool {
                let (gp, sp) = (lp(g), lp(s));
                if !covers(&gp, &sp) {
                    continue;
                }
                for coll in &colls {
                    for kind in [ValueKind::Str, ValueKind::Num] {
                        let rg: std::collections::HashSet<usize> =
                            m.relevant_statements(coll, &gp, kind).into_iter().collect();
                        for si in m.relevant_statements(coll, &sp, kind) {
                            assert!(
                                rg.contains(&si),
                                "{g} covers {s} but relevance({g}) misses statement {si}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A matrix grown one statement at a time answers like one built whole,
    /// and a row asked `from` an old length is exactly what the full row
    /// gained since — what lets an append-only workload extend candidate
    /// rows instead of rebuilding them.
    #[test]
    fn grown_rows_are_the_tail_of_full_rows() {
        let mut state = 0x6A0Eu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        };
        let kinds = [Some(ValueKind::Str), Some(ValueKind::Num), None];
        let sigs: Vec<StatementSignature> = (0..30)
            .map(|_| StatementSignature {
                collection: ["C1", "C2"][next() % 2].to_string(),
                targets: (0..1 + next() % 3)
                    .map(|_| (lp(POOL[next() % POOL.len()]), kinds[next() % kinds.len()]))
                    .collect(),
            })
            .collect();
        let whole = RelevanceMatrix::new(sigs.clone());
        let mut grown = RelevanceMatrix::default();
        for (at, sig) in sigs.iter().enumerate() {
            if at % 3 == 2 && sigs[..at].contains(sig) {
                let earlier = sigs.iter().position(|s| s == sig).expect("seen");
                grown.push_like(earlier);
            } else {
                grown.push(sig.clone());
            }
            for p in &POOL {
                let pat = lp(p);
                let full = whole.relevant_statements("C1", &pat, ValueKind::Str);
                let upto: Vec<usize> = full.iter().copied().filter(|&si| si <= at).collect();
                assert_eq!(grown.relevant_statements("C1", &pat, ValueKind::Str), upto);
                let tail: Vec<usize> = upto.iter().copied().filter(|&si| si == at).collect();
                assert_eq!(
                    grown.relevant_from(at, "C1", &pat, ValueKind::Str),
                    tail,
                    "{p} from {at}"
                );
            }
        }
    }

    /// Grouping statements by signature changes no row: for every probe
    /// the matrix returns exactly the
    /// statements whose own signature admits the candidate, ascending —
    /// what one `admits` call per statement returned before signatures
    /// were shared.
    #[test]
    fn rows_fanned_out_from_distinct_signatures_equal_per_statement_rows() {
        let mut state = 0x51C5u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        };
        let kinds = [Some(ValueKind::Str), Some(ValueKind::Num), None];
        let colls = ["C1", "C2"];
        // A template-shaped workload: 400 statements over 14 signatures,
        // one of them an insert's (no targets).
        let mut shapes = vec![StatementSignature {
            collection: "C1".to_string(),
            targets: Vec::new(),
        }];
        while shapes.len() < 14 {
            let collection = colls[next() % colls.len()].to_string();
            let targets = (0..1 + next() % 3)
                .map(|_| (lp(POOL[next() % POOL.len()]), kinds[next() % kinds.len()]))
                .collect();
            shapes.push(StatementSignature {
                collection,
                targets,
            });
        }
        let sigs: Vec<StatementSignature> = (0..400)
            .map(|_| shapes[next() % shapes.len()].clone())
            .collect();
        let m = RelevanceMatrix::new(sigs.clone());
        assert_eq!(m.len(), 400);
        let mut admitted = 0;
        for p in &POOL {
            let pat = lp(p);
            for coll in &colls {
                for kind in [ValueKind::Str, ValueKind::Num] {
                    let want: Vec<usize> = sigs
                        .iter()
                        .enumerate()
                        .filter(|(_, sig)| sig.admits(coll, &pat, kind))
                        .map(|(si, _)| si)
                        .collect();
                    assert_eq!(m.relevant_statements(coll, &pat, kind), want, "{p}");
                    // One row asks each distinct signature once, however
                    // many statements carry it.
                    let mut asked = 0;
                    let row = m.members_from(0, |group| {
                        asked += 1;
                        let sig = m.index.iter().find(|(_, &g)| g == group).expect("filed").0;
                        sig.admits(coll, &pat, kind)
                    });
                    assert_eq!(row, want, "{p}");
                    assert!(asked <= shapes.len(), "{p}: {asked}");
                    admitted += want.len();
                }
            }
        }
        assert!(admitted > 400, "the probes must admit statements");
    }

    #[test]
    fn signature_admits_respects_kind_and_collection() {
        let sig = StatementSignature {
            collection: "SDOC".to_string(),
            targets: vec![
                (lp("/Security/Symbol"), Some(ValueKind::Str)),
                (lp("/Security/Names"), None), // existence probe: any kind
            ],
        };
        // Kind must match for comparison targets.
        assert!(sig.admits("SDOC", &lp("/Security/Symbol"), ValueKind::Str));
        assert!(!sig.admits("SDOC", &lp("/Security/Symbol"), ValueKind::Num));
        // Existence targets admit both kinds.
        assert!(sig.admits("SDOC", &lp("/Security/Names"), ValueKind::Str));
        assert!(sig.admits("SDOC", &lp("/Security/Names"), ValueKind::Num));
        // A general pattern covering a target is relevant.
        assert!(sig.admits("SDOC", &lp("/Security//*"), ValueKind::Str));
        // Wrong collection or unrelated pattern is not.
        assert!(!sig.admits("ODOC", &lp("/Security/Symbol"), ValueKind::Str));
        assert!(!sig.admits("SDOC", &lp("/Order/Price"), ValueKind::Str));
        // Insert-style empty signature admits nothing.
        let insert = StatementSignature {
            collection: "SDOC".to_string(),
            targets: Vec::new(),
        };
        assert!(!insert.admits("SDOC", &lp("//*"), ValueKind::Str));
    }

    #[test]
    fn matcher_with_unknown_name_matches_nothing() {
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "a");
        b.leaf("b", "1");
        let _ = b.finish();
        let m = PathMatcher::new(&lp("/a/zzz"), &vocab);
        assert!(m.matching_path_ids(&vocab).is_empty());
    }

    /// Seeded property: the in-place DP of `PathMatcher::matches` gives
    /// the two-row reference's verdict and `matches_labels`'s on random
    /// patterns and label sequences of 0–70 labels, across the row's
    /// inline limit. Half the patterns are derived from their sequence
    /// (labels kept, widened to `*`, collapsed into `//`), so long
    /// sequences match too.
    #[test]
    fn matcher_dp_matches_reference_dp() {
        let mut next = splitmix(0xD9);
        let mut vocab = Vocabulary::new();
        let names = ["a", "b", "c", "d"];
        let syms: Vec<Symbol> = names.iter().map(|n| vocab.names.intern(n)).collect();
        let (mut held, mut long_held) = (0, 0);
        for round in 0..4_000 {
            let n = next() % 71;
            let picks: Vec<usize> = (0..n).map(|_| next() % names.len()).collect();
            let labels: Vec<Symbol> = picks.iter().map(|&i| syms[i]).collect();
            let texts: Vec<&str> = picks.iter().map(|&i| names[i]).collect();
            let pattern = if round % 2 == 0 {
                // `e` is never interned: the step can never match.
                let len = next() % 9;
                random_path(&mut next, &["a", "b", "c", "d", "e"], len, 3)
            } else {
                let mut steps = Vec::new();
                let mut descend = false;
                for &i in &picks {
                    if next().is_multiple_of(5) {
                        descend = true;
                        continue;
                    }
                    let test = if next().is_multiple_of(4) {
                        NameTest::Wildcard
                    } else {
                        NameTest::name_of(names[i])
                    };
                    let axis = if descend {
                        Axis::Descendant
                    } else {
                        Axis::Child
                    };
                    steps.push(crate::linear::LinearStep { axis, test });
                    descend = false;
                }
                LinearPath::new(steps)
            };
            let matcher = PathMatcher::new(&pattern, &vocab);
            let verdict = matcher.matches(&labels);
            assert_eq!(
                verdict,
                matcher.matches_reference(&labels),
                "{pattern} on {texts:?}"
            );
            assert_eq!(
                verdict,
                pattern.matches_labels(&texts),
                "{pattern} on {texts:?}"
            );
            held += usize::from(verdict);
            long_held += usize::from(verdict && n >= 64);
        }
        assert!(held > 400, "{held} sequences matched");
        assert!(long_held > 0, "no sequence past the inline row matched");
    }

    #[test]
    fn coverage_implies_matching_superset_on_vocab() {
        // Semantic check: if covers(g, s) then every path id matched by s is
        // matched by g in a concrete vocabulary.
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "a");
        b.begin("b");
        b.leaf("d", "1");
        b.end();
        b.begin("d");
        b.leaf("b", "2");
        b.end();
        b.leaf("d", "3");
        let _ = b.finish();
        let pats = ["/a/b/d", "/a//d", "/a/*", "/a//*", "//d", "/a/d"];
        for g in &pats {
            for s in &pats {
                let (gp, sp) = (lp(g), lp(s));
                if covers(&gp, &sp) {
                    let gm: std::collections::HashSet<_> = PathMatcher::new(&gp, &vocab)
                        .matching_path_ids(&vocab)
                        .into_iter()
                        .collect();
                    for id in PathMatcher::new(&sp, &vocab).matching_path_ids(&vocab) {
                        assert!(
                            gm.contains(&id),
                            "{g} covers {s} but misses {:?}",
                            vocab.path_string(id)
                        );
                    }
                }
            }
        }
    }
}
