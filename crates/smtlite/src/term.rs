//! Hash-consed first-order terms with interned function symbols.
//!
//! Terms are interned in a [`TermArena`]: structurally equal terms always
//! receive the same [`TermId`], so syntactic equality is an integer compare
//! and ids can serve as array indices.  Function symbols are likewise
//! interned to [`SymbolId`]s in a per-arena string table, so the rewriter
//! compares heads as `u32`s instead of hashing and comparing `String`s at
//! every term node.  The symbols an arena held when it was cloned are shared
//! with the clone, not copied.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::fingerprint::{Fingerprint, FingerprintBuilder};

/// Identifier of an interned term inside a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TermId(pub usize);

/// Identifier of an interned function symbol inside a [`TermArena`].
///
/// Symbols are interned once per arena (see [`TermArena::intern_symbol`]);
/// every structure that needs to compare heads — the rewriter's head index,
/// compiled patterns — stores the `u32` id and compares ids, never strings.  The printable name is recovered with
/// [`TermArena::symbol_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SymbolId(pub u32);

/// The shape of a term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TermData {
    /// A free constant (e.g. a symbolic qubit `q0`).
    Symbol(String),
    /// An integer literal.
    Int(i64),
    /// An application of an interned function symbol to argument terms.
    App(SymbolId, Vec<TermId>),
}

/// Function-symbol names by id, and ids by name.
#[derive(Debug, Clone, Default)]
struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, SymbolId>,
}

/// An interning arena for terms and function symbols.
///
/// Symbol ids are dense and in interning order.  The first ones live in a
/// table shared with the arena's clones: a symbol is appended to it in
/// place while no clone shares it, and to a private table afterwards, so
/// cloning an arena built once (a solver template with its rule library
/// compiled) copies none of its symbols.
#[derive(Debug, Clone, Default)]
pub struct TermArena {
    terms: Vec<TermData>,
    /// The latest term id with each [`term_hash`]; `chain[id]` is the term
    /// before `id` with the same hash.  A term is stored once, in `terms`.
    index: HashMap<u64, usize, BuildHasherDefault<PreHashed>>,
    chain: Vec<Option<usize>>,
    /// Symbols `0..shared.names.len()`.
    shared: Arc<SymbolTable>,
    /// The symbols after those, interned while `shared` was shared.
    local: SymbolTable,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TermArena::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a function symbol, returning the existing id when the name is
    /// already present.
    pub fn intern_symbol(&mut self, name: &str) -> SymbolId {
        if let Some(id) = self.find_symbol(name) {
            return id;
        }
        let id = SymbolId(u32::try_from(self.num_symbols()).expect("symbol table overflow"));
        // Appending to the shared table keeps ids dense only while nothing
        // follows it, and is invisible to others only while nobody shares it.
        let table = match Arc::get_mut(&mut self.shared) {
            Some(shared) if self.local.names.is_empty() => shared,
            _ => &mut self.local,
        };
        table.names.push(name.to_string());
        table.index.insert(name.to_string(), id);
        id
    }

    /// Looks up a function symbol without interning it.
    pub fn find_symbol(&self, name: &str) -> Option<SymbolId> {
        self.shared.index.get(name).or_else(|| self.local.index.get(name)).copied()
    }

    /// The printable name of an interned function symbol.
    ///
    /// # Panics
    ///
    /// Panics when the id comes from a different arena.
    pub fn symbol_name(&self, symbol: SymbolId) -> &str {
        let id = symbol.0 as usize;
        match self.shared.names.get(id) {
            Some(name) => name,
            None => &self.local.names[id - self.shared.names.len()],
        }
    }

    /// Number of distinct function symbols interned so far.
    pub fn num_symbols(&self) -> usize {
        self.shared.names.len() + self.local.names.len()
    }

    /// Interns a term, returning the existing id when the term is already
    /// present.
    pub fn intern(&mut self, data: TermData) -> TermId {
        let id = self.terms.len();
        let head = self.index.entry(term_hash(&data)).or_insert(id);
        let previous = (*head != id).then_some(*head);
        let mut cursor = previous;
        while let Some(known) = cursor {
            if self.terms[known] == data {
                return TermId(known);
            }
            cursor = self.chain[known];
        }
        *head = id;
        self.chain.push(previous);
        self.terms.push(data);
        TermId(id)
    }

    /// Interns a free constant symbol.
    pub fn symbol(&mut self, name: &str) -> TermId {
        self.intern(TermData::Symbol(name.to_string()))
    }

    /// Interns an integer literal.
    pub fn int(&mut self, value: i64) -> TermId {
        self.intern(TermData::Int(value))
    }

    /// Interns a function application, interning the function name first.
    pub fn app(&mut self, func: &str, args: Vec<TermId>) -> TermId {
        let symbol = self.intern_symbol(func);
        self.intern(TermData::App(symbol, args))
    }

    /// Interns a function application of an already-interned symbol (the
    /// allocation-free fast path used by the rewriter).
    pub fn app_sym(&mut self, func: SymbolId, args: Vec<TermId>) -> TermId {
        self.intern(TermData::App(func, args))
    }

    /// Looks up the data of an interned term.
    ///
    /// # Panics
    ///
    /// Panics when the id comes from a different arena.
    pub fn data(&self, id: TermId) -> &TermData {
        &self.terms[id.0]
    }

    /// The head symbol of a term when it is a function application.
    pub fn head_symbol(&self, id: TermId) -> Option<SymbolId> {
        match self.data(id) {
            TermData::App(f, _) => Some(*f),
            _ => None,
        }
    }

    /// Returns the integer value of a term when it is a literal.
    pub fn as_int(&self, id: TermId) -> Option<i64> {
        match self.data(id) {
            TermData::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Pretty-prints a term (for diagnostics and counterexamples).
    ///
    /// The rendering expands the hash-consed DAG into its tree form, which
    /// is exponentially larger than the arena representation for terms with
    /// heavy sharing (e.g. the output wires of deep entangling circuits).
    /// Callers printing terms of unbounded provenance must use
    /// [`TermArena::display_clamped`] instead.
    pub fn display(&self, id: TermId) -> String {
        self.display_clamped(id, usize::MAX)
    }

    /// Pretty-prints a term, rendering at most `max_nodes` tree nodes and
    /// eliding every subterm beyond the budget as `…`.  Terms smaller than
    /// the budget render byte-identically to [`TermArena::display`]; the
    /// clamp bounds both the output size and the rendering time, which are
    /// otherwise exponential in the sharing depth of the term DAG.
    pub fn display_clamped(&self, id: TermId, max_nodes: usize) -> String {
        fn go(arena: &TermArena, id: TermId, budget: &mut usize, out: &mut String) {
            if *budget == 0 {
                out.push('…');
                return;
            }
            *budget -= 1;
            match arena.data(id) {
                TermData::Symbol(s) => out.push_str(s),
                TermData::Int(v) => {
                    out.push_str(&v.to_string());
                }
                TermData::App(f, args) => {
                    out.push_str(arena.symbol_name(*f));
                    if !args.is_empty() {
                        out.push('(');
                        for (i, &arg) in args.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            go(arena, arg, budget, out);
                        }
                        out.push(')');
                    }
                }
            }
        }
        let mut out = String::new();
        let mut budget = max_nodes;
        go(self, id, &mut budget, &mut out);
        out
    }

    /// The size (number of nodes) of a term.
    pub fn size(&self, id: TermId) -> usize {
        match self.data(id) {
            TermData::Symbol(_) | TermData::Int(_) => 1,
            TermData::App(_, args) => 1 + args.iter().map(|&a| self.size(a)).sum::<usize>(),
        }
    }

    /// A stable structural fingerprint of a term: a function of symbol
    /// names, integer values, and application structure alone, so two
    /// structurally identical terms fingerprint identically even across
    /// arenas and processes.  Memoised over the hash-consed DAG — linear in
    /// the number of *distinct* sub-terms, where fingerprinting
    /// [`TermArena::display`] output would expand the sharing into an
    /// exponentially large tree.
    ///
    /// The memo lives for this one call.  Callers fingerprinting many roots
    /// that share sub-terms (every output wire of a routed circuit shares
    /// most of its DAG with the others) use [`TermArena::fingerprints`],
    /// which walks each shared sub-term once for the whole set.
    pub fn fingerprint(&self, id: TermId) -> Fingerprint {
        fn go(
            arena: &TermArena,
            id: TermId,
            memo: &mut HashMap<TermId, Fingerprint>,
        ) -> Fingerprint {
            if let Some(&known) = memo.get(&id) {
                return known;
            }
            let fingerprint = arena.node_fingerprint(id, |arg| go(arena, arg, memo));
            memo.insert(id, fingerprint);
            fingerprint
        }
        go(self, id, &mut HashMap::new())
    }

    /// The [`TermArena::fingerprint`] of every root, in order, computed
    /// through **one** memo shared by all of them: a sub-term reachable from
    /// several roots is hashed once, so the cost is linear in the number of
    /// distinct sub-terms of the whole set rather than of each root.
    ///
    /// No recursion: a term is always interned after its arguments, so every
    /// argument id is smaller than its parent's.  One descending sweep marks
    /// the sub-terms reachable from the roots, and one ascending sweep
    /// fingerprints them into a dense table indexed by [`TermId`].
    ///
    /// # Panics
    ///
    /// Panics when a root or argument id was not interned in this arena
    /// before the term that refers to it.
    pub fn fingerprints(&self, roots: &[TermId]) -> Vec<Fingerprint> {
        let Some(top) = roots.iter().map(|root| root.0).max() else {
            return Vec::new();
        };
        let mut reachable = vec![false; top + 1];
        for root in roots {
            reachable[root.0] = true;
        }
        for id in (0..=top).rev() {
            if let (true, TermData::App(_, args)) = (reachable[id], &self.terms[id]) {
                for arg in args {
                    assert!(arg.0 < id, "argument {arg:?} interned after its parent {id}");
                    reachable[arg.0] = true;
                }
            }
        }
        let mut memo = vec![Fingerprint(0); top + 1];
        for id in (0..=top).filter(|&id| reachable[id]) {
            memo[id] = self.node_fingerprint(TermId(id), |arg| memo[arg.0]);
        }
        roots.iter().map(|root| memo[root.0]).collect()
    }

    /// Hashes one term node, taking each argument's fingerprint from
    /// `argument` — the single definition both memo strategies share.
    fn node_fingerprint(
        &self,
        id: TermId,
        mut argument: impl FnMut(TermId) -> Fingerprint,
    ) -> Fingerprint {
        let mut builder = FingerprintBuilder::new();
        match self.data(id) {
            TermData::Symbol(s) => {
                builder.write_str("sym").write_str(s);
            }
            TermData::Int(v) => {
                builder.write_str("int").write_u64(*v as u64);
            }
            TermData::App(f, args) => {
                builder.write_str("app").write_str(self.symbol_name(*f));
                for &arg in args {
                    builder.write_u64(argument(arg).0);
                }
            }
        }
        builder.finish()
    }

    /// All term ids interned so far, in creation order.
    pub fn ids(&self) -> impl Iterator<Item = TermId> {
        (0..self.terms.len()).map(TermId)
    }
}

/// A multiplicative hash of a term's shape (the interning key; never
/// persisted, unlike [`TermArena::fingerprint`]).
fn term_hash(data: &TermData) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(K);
    let hash = match data {
        TermData::Symbol(name) => {
            name.as_bytes().chunks(8).fold(mix(1, name.len() as u64), |h, chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                mix(h, u64::from_le_bytes(word))
            })
        }
        TermData::Int(value) => mix(2, *value as u64),
        TermData::App(f, args) => {
            args.iter().fold(mix(3, u64::from(f.0)), |h, arg| mix(h, arg.0 as u64))
        }
    };
    // The product's high bits are its best mixed; fold them into the low
    // bits the table indexes by.
    hash ^ (hash >> 32)
}

/// A hasher that passes a precomputed [`term_hash`] through.
#[derive(Debug, Clone, Copy, Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 hashes are keyed")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl fmt::Display for TermArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "arena with {} terms over {} symbols", self.terms.len(), self.num_symbols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut arena = TermArena::new();
        let a = arena.symbol("a");
        let b = arena.symbol("a");
        assert_eq!(a, b);
        let f1 = arena.app("f", vec![a]);
        let f2 = arena.app("f", vec![b]);
        assert_eq!(f1, f2);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn different_terms_get_different_ids() {
        let mut arena = TermArena::new();
        let a = arena.symbol("a");
        let b = arena.symbol("b");
        assert_ne!(a, b);
        let fa = arena.app("f", vec![a]);
        let fb = arena.app("f", vec![b]);
        assert_ne!(fa, fb);
        let ga = arena.app("g", vec![a]);
        assert_ne!(fa, ga);
    }

    #[test]
    fn symbols_are_interned_once() {
        let mut arena = TermArena::new();
        let f = arena.intern_symbol("f");
        assert_eq!(arena.intern_symbol("f"), f);
        assert_eq!(arena.find_symbol("f"), Some(f));
        assert_eq!(arena.find_symbol("g"), None);
        assert_eq!(arena.symbol_name(f), "f");
        let a = arena.symbol("a");
        let via_str = arena.app("f", vec![a]);
        let via_sym = arena.app_sym(f, vec![a]);
        assert_eq!(via_str, via_sym);
        assert_eq!(arena.num_symbols(), 1);
        assert_eq!(arena.head_symbol(via_sym), Some(f));
        assert_eq!(arena.head_symbol(a), None);
    }

    #[test]
    fn clones_share_symbols_and_intern_new_ones_apart() {
        let mut template = TermArena::new();
        let f = template.intern_symbol("f");
        let mut a = template.clone();
        let mut b = template.clone();
        let g_a = a.intern_symbol("g");
        let h_b = b.intern_symbol("h");
        // Ids stay dense per arena, so both clones hand out the next id.
        assert_eq!((g_a, h_b), (SymbolId(1), SymbolId(1)));
        assert_eq!((a.symbol_name(g_a), b.symbol_name(h_b)), ("g", "h"));
        assert_eq!((a.find_symbol("h"), b.find_symbol("g")), (None, None));
        assert_eq!(a.intern_symbol("f"), f);
        // The template saw neither; a later clone numbers from it too.
        drop(b);
        assert_eq!(template.num_symbols(), 1);
        let mut c = template.clone();
        drop(template);
        assert_eq!(c.intern_symbol("k"), SymbolId(1));
        // `a` is the table's last owner but already numbers symbols past
        // it, so a new symbol must follow its own.
        drop(c);
        assert_eq!(a.intern_symbol("k"), SymbolId(2));
        assert_eq!((a.symbol_name(SymbolId(1)), a.symbol_name(SymbolId(2))), ("g", "k"));
        assert_eq!(a.num_symbols(), 3);
    }

    #[test]
    fn ids_are_dense_in_interning_order_and_stable_on_reinterning() {
        let mut arena = TermArena::new();
        let f = arena.intern_symbol("f");
        let mut ids = Vec::new();
        for i in 0..5_000i64 {
            let leaf = if i % 2 == 0 { arena.int(i) } else { arena.symbol(&format!("s{i}")) };
            ids.push(leaf);
            ids.push(arena.app_sym(f, vec![leaf, leaf]));
        }
        assert_eq!(ids, (0..10_000).map(TermId).collect::<Vec<_>>());
        for i in 0..5_000usize {
            let leaf =
                if i % 2 == 0 { arena.int(i as i64) } else { arena.symbol(&format!("s{i}")) };
            assert_eq!(leaf, ids[2 * i]);
            assert_eq!(arena.app_sym(f, vec![leaf, leaf]), ids[2 * i + 1]);
        }
        assert_eq!(arena.len(), 10_000);
    }

    #[test]
    fn ints_and_display() {
        let mut arena = TermArena::new();
        let one = arena.int(1);
        assert_eq!(arena.as_int(one), Some(1));
        let a = arena.symbol("a");
        assert_eq!(arena.as_int(a), None);
        let t = arena.app("plus", vec![a, one]);
        assert_eq!(arena.display(t), "plus(a, 1)");
        assert_eq!(arena.size(t), 3);
    }

    #[test]
    #[should_panic(expected = "interned after its parent")]
    fn batched_fingerprints_refuse_forward_argument_ids() {
        let mut arena = TermArena::new();
        let f = arena.intern_symbol("f");
        // An application whose argument id is only interned afterwards.
        let parent = arena.app_sym(f, vec![TermId(1)]);
        arena.symbol("a");
        arena.fingerprints(&[parent]);
    }

    #[test]
    fn nullary_app_displays_as_name() {
        let mut arena = TermArena::new();
        let cx = arena.app("CX", vec![]);
        assert_eq!(arena.display(cx), "CX");
    }
}
