//! Directed rewriting with pattern variables.
//!
//! Giallar's quantum-circuit rewrite rules (Figure 7 of the paper) are
//! universally quantified equalities over the symbolic functions
//! `app1q`/`app2q`.  They are only ever needed in one direction — to reduce
//! a term towards a normal form — so this module implements them as directed
//! rewrite rules applied bottom-up until a fixpoint (with a step budget to
//! guarantee termination even for badly oriented rule sets).
//!
//! # Hot-path architecture
//!
//! [`Pattern`] and [`RewriteRule`] are the authoring and serialization
//! surface: named variables, string function heads, stable canonical forms
//! for the incremental verification cache.  They are **not** what the
//! rewriter executes.  At [`Rewriter::add_rule`] time every rule is compiled
//! once into a slot-indexed form (`CompiledPattern`): variables become dense
//! `u16` slots, function heads become arena-interned [`SymbolId`]s, and the
//! rule is filed in a head-symbol index.  [`Rewriter::normalize`] then
//!
//! * consults only the rules whose left-hand head symbol matches the current
//!   node (instead of scanning the whole library),
//! * binds match results into one reusable slot buffer (no per-candidate
//!   `HashMap` or `Vec` allocation), and
//! * memoizes normal forms **across calls**: the arena is append-only and
//!   the rule set is fixed after construction, so a computed normal form
//!   never goes stale ([`Rewriter::add_rule`] clears the memo).
//!
//! The compiled library (rules, compiled forms, head index) is immutable
//! once built and lives behind an [`Arc`]: cloning a `Rewriter` shares it
//! and copies only the per-context state (memo, slot buffer, application
//! count), and [`Rewriter::add_rule`] copies the library on write when
//! another rewriter still shares it.
//!
//! Compiling against the arena's symbol table binds a `Rewriter` to one
//! [`TermArena`] and to its clones; using it with terms from an unrelated
//! arena is a logic error.  [`reference_normalize`] keeps the original
//! string-compared linear-scan algorithm as an executable specification:
//! the differential property tests (and the solver microbenchmarks) check
//! the compiled path against it on random rule sets and terms.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::term::{SymbolId, TermArena, TermData, TermId};

/// A pattern: a term with named holes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// A pattern variable that matches any term.
    Var(String),
    /// An integer literal that matches only itself.
    Int(i64),
    /// A function application whose arguments are matched recursively.
    App(String, Vec<Pattern>),
}

impl Pattern {
    /// A pattern variable.
    pub fn var(name: &str) -> Pattern {
        Pattern::Var(name.to_string())
    }

    /// An integer literal pattern.
    pub fn int(value: i64) -> Pattern {
        Pattern::Int(value)
    }

    /// A function application pattern.
    pub fn app(func: &str, args: Vec<Pattern>) -> Pattern {
        Pattern::App(func.to_string(), args)
    }

    /// A nullary function application (a named constant).
    pub fn constant(func: &str) -> Pattern {
        Pattern::App(func.to_string(), Vec::new())
    }

    /// Attempts to match the pattern against a term, extending `bindings`
    /// (the reference path; the hot path matches [`CompiledPattern`]s).
    fn matches(
        &self,
        term: TermId,
        arena: &TermArena,
        bindings: &mut HashMap<String, TermId>,
    ) -> bool {
        match self {
            Pattern::Var(name) => match bindings.get(name) {
                Some(&bound) => bound == term,
                None => {
                    bindings.insert(name.clone(), term);
                    true
                }
            },
            Pattern::Int(v) => arena.as_int(term) == Some(*v),
            Pattern::App(func, args) => match arena.data(term) {
                TermData::App(f, term_args)
                    if arena.symbol_name(*f) == func && term_args.len() == args.len() =>
                {
                    args.iter().zip(term_args).all(|(p, &t)| p.matches(t, arena, bindings))
                }
                _ => false,
            },
        }
    }

    /// Instantiates the pattern under a set of bindings.
    ///
    /// # Panics
    ///
    /// Panics when the pattern contains a variable missing from `bindings`
    /// (rewrite rules must not invent variables on the right-hand side).
    fn instantiate(&self, arena: &mut TermArena, bindings: &HashMap<String, TermId>) -> TermId {
        match self {
            Pattern::Var(name) => {
                *bindings.get(name).unwrap_or_else(|| panic!("unbound pattern variable `{name}`"))
            }
            Pattern::Int(v) => arena.int(*v),
            Pattern::App(func, args) => {
                let ids: Vec<TermId> =
                    args.iter().map(|p| p.instantiate(arena, bindings)).collect();
                arena.app(func, ids)
            }
        }
    }

    /// A canonical textual form of the pattern, stable across releases.
    ///
    /// This is the serialization the incremental verification cache
    /// fingerprints: two patterns render identically if and only if they
    /// match and instantiate identically, so any change to the rule library
    /// changes the fingerprint and invalidates cached verdicts.
    pub fn canonical_form(&self) -> String {
        match self {
            Pattern::Var(name) => format!("?{name}"),
            Pattern::Int(v) => format!("#{v}"),
            Pattern::App(func, args) => {
                let rendered: Vec<String> = args.iter().map(Pattern::canonical_form).collect();
                format!("{func}({})", rendered.join(","))
            }
        }
    }

    /// The variables appearing in the pattern.
    pub fn variables(&self) -> Vec<String> {
        match self {
            Pattern::Var(name) => vec![name.clone()],
            Pattern::Int(_) => vec![],
            Pattern::App(_, args) => {
                let mut out = Vec::new();
                for arg in args {
                    out.extend(arg.variables());
                }
                out.sort();
                out.dedup();
                out
            }
        }
    }
}

/// A named, directed rewrite rule `lhs → rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RewriteRule {
    /// Human-readable rule name (reported in verification traces).
    pub name: String,
    /// The pattern to match.
    pub lhs: Pattern,
    /// The replacement.
    pub rhs: Pattern,
}

impl RewriteRule {
    /// Creates a rule, checking that the right-hand side introduces no fresh
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics when `rhs` mentions a variable not bound by `lhs`.
    pub fn new(name: &str, lhs: Pattern, rhs: Pattern) -> Self {
        let lhs_vars = lhs.variables();
        for v in rhs.variables() {
            assert!(
                lhs_vars.contains(&v),
                "rewrite rule `{name}` uses unbound variable `{v}` on the right-hand side"
            );
        }
        RewriteRule { name: name.to_string(), lhs, rhs }
    }

    /// A canonical textual form of the rule (`name: lhs -> rhs`), used by
    /// the rule-library fingerprint of the incremental verification cache.
    pub fn canonical_form(&self) -> String {
        format!("{}: {} -> {}", self.name, self.lhs.canonical_form(), self.rhs.canonical_form())
    }
}

/// A pattern compiled for matching: named variables are replaced by dense
/// slot indices (first-occurrence order over the rule's left-hand side) and
/// string heads by arena-interned [`SymbolId`]s, so matching binds into a
/// flat slot buffer and compares heads as integers.
#[derive(Debug, Clone)]
enum CompiledPattern {
    /// A pattern variable, identified by its slot.
    Slot(u16),
    /// An integer literal that matches only itself.
    Int(i64),
    /// A function application over compiled argument patterns.
    App(SymbolId, Vec<CompiledPattern>),
}

impl CompiledPattern {
    fn compile(pattern: &Pattern, arena: &mut TermArena, slots: &mut Vec<String>) -> Self {
        match pattern {
            Pattern::Var(name) => {
                let slot = match slots.iter().position(|s| s == name) {
                    Some(slot) => slot,
                    None => {
                        slots.push(name.clone());
                        slots.len() - 1
                    }
                };
                CompiledPattern::Slot(u16::try_from(slot).expect("more than 65536 pattern vars"))
            }
            Pattern::Int(v) => CompiledPattern::Int(*v),
            Pattern::App(func, args) => {
                let head = arena.intern_symbol(func);
                let compiled =
                    args.iter().map(|a| Self::compile(a, arena, slots)).collect::<Vec<_>>();
                CompiledPattern::App(head, compiled)
            }
        }
    }

    /// Matches against `term`, binding variables into `slots`.  `slots` must
    /// be pre-sized to the rule's slot count and reset to `None`.
    fn matches(&self, term: TermId, arena: &TermArena, slots: &mut [Option<TermId>]) -> bool {
        match self {
            CompiledPattern::Slot(slot) => match slots[*slot as usize] {
                Some(bound) => bound == term,
                None => {
                    slots[*slot as usize] = Some(term);
                    true
                }
            },
            CompiledPattern::Int(v) => arena.as_int(term) == Some(*v),
            CompiledPattern::App(head, args) => match arena.data(term) {
                TermData::App(f, term_args) if f == head && term_args.len() == args.len() => {
                    // Both borrows of `arena` are immutable, so the argument
                    // list is matched in place — no per-candidate clone.
                    args.iter().zip(term_args).all(|(p, &t)| p.matches(t, arena, slots))
                }
                _ => false,
            },
        }
    }

    /// Instantiates under the bindings produced by [`Self::matches`].
    fn instantiate(&self, arena: &mut TermArena, slots: &[Option<TermId>]) -> TermId {
        match self {
            CompiledPattern::Slot(slot) => {
                slots[*slot as usize].expect("rhs slot unbound by lhs match")
            }
            CompiledPattern::Int(v) => arena.int(*v),
            CompiledPattern::App(head, args) => {
                let ids: Vec<TermId> = args.iter().map(|p| p.instantiate(arena, slots)).collect();
                arena.app_sym(*head, ids)
            }
        }
    }
}

/// A rule compiled at [`Rewriter::add_rule`] time.
#[derive(Debug, Clone)]
struct CompiledRule {
    lhs: CompiledPattern,
    rhs: CompiledPattern,
    /// Number of distinct variables (slot-buffer size for this rule).
    num_slots: u16,
}

/// The compiled rule library: every installed rule, its compiled form, and
/// the head-symbol index.  Immutable once shared; see [`Rewriter`].
#[derive(Debug, Clone, Default)]
struct Library {
    rules: Vec<RewriteRule>,
    compiled: Vec<CompiledRule>,
    /// Rule indices filed under the `SymbolId` of their left-hand head, in
    /// insertion order (indexed by `SymbolId::0`).
    by_head: Vec<Vec<u32>>,
    /// Rules whose left-hand side is not a function application (a bare
    /// variable or integer pattern) — tried at every node, in order.
    unindexed: Vec<u32>,
}

/// Applies a set of rewrite rules bottom-up until a fixpoint.
///
/// Rules are compiled and head-indexed as they are added (see the module
/// docs), which binds the rewriter to the arena whose symbol table the rules
/// were compiled against.  The compiled library is shared by every clone of
/// the rewriter, so a clone costs its per-context state (an empty memo for
/// a fresh template), not the library; [`Rewriter::add_rule`] copies the
/// library first if a clone still shares it.  Normal forms are memoized
/// across [`Rewriter::normalize`] calls: the arena is append-only and
/// [`Rewriter::add_rule`] clears the memo, so entries never go stale.
#[derive(Debug, Clone, Default)]
pub struct Rewriter {
    library: Arc<Library>,
    /// Persistent normal-form memo (keyed by term id, valid for the arena
    /// the rules were compiled against).
    memo: HashMap<TermId, TermId>,
    /// Reusable per-candidate slot buffer (no allocation during matching).
    slot_buf: Vec<Option<TermId>>,
    /// Total number of rule applications performed (for reporting).
    applications: usize,
}

/// Budget on rewriting steps per normalisation call; generous compared to
/// any term produced by the verifier, but keeps pathological rule sets from
/// looping forever.
const MAX_STEPS: usize = 100_000;

impl Rewriter {
    /// Creates a rewriter with no rules.
    pub fn new() -> Self {
        Rewriter::default()
    }

    /// Adds a rule, compiling it against `arena`'s symbol table and filing
    /// it under its left-hand head symbol.  A library still shared with a
    /// clone is copied first, so the clone keeps its rule set.
    ///
    /// Adding a rule invalidates the normal-form memo (already-computed
    /// normal forms may no longer be normal under the larger rule set).
    ///
    /// # Panics
    ///
    /// Panics when the right-hand side mentions a variable the left-hand
    /// side does not bind.
    pub fn add_rule(&mut self, arena: &mut TermArena, rule: RewriteRule) {
        let mut slots = Vec::new();
        let lhs = CompiledPattern::compile(&rule.lhs, arena, &mut slots);
        let lhs_slots = slots.clone();
        let rhs = CompiledPattern::compile(&rule.rhs, arena, &mut slots);
        assert!(
            slots.len() == lhs_slots.len(),
            "rewrite rule `{}` uses unbound variable `{}` on the right-hand side",
            rule.name,
            slots[lhs_slots.len()]
        );
        let library = Arc::make_mut(&mut self.library);
        let index = u32::try_from(library.compiled.len()).expect("more than 4 billion rules");
        match &lhs {
            CompiledPattern::App(head, _) => {
                let head = head.0 as usize;
                if library.by_head.len() <= head {
                    library.by_head.resize_with(head + 1, Vec::new);
                }
                library.by_head[head].push(index);
            }
            _ => library.unindexed.push(index),
        }
        let num_slots = u16::try_from(lhs_slots.len()).expect("more than 65536 pattern vars");
        library.compiled.push(CompiledRule { lhs, rhs, num_slots });
        library.rules.push(rule);
        self.memo.clear();
    }

    /// The rules currently installed.
    pub fn rules(&self) -> &[RewriteRule] {
        &self.library.rules
    }

    /// Number of successful rule applications performed so far.
    pub fn applications(&self) -> usize {
        self.applications
    }

    /// Number of memoized normal forms currently held.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// The candidate rules for a node, in insertion order: the rules filed
    /// under the node's head symbol merged with the unindexed rules.  Calls
    /// `try_rule` for each until it returns `true`.
    fn for_each_candidate(
        by_head: &[Vec<u32>],
        unindexed: &[u32],
        head: Option<SymbolId>,
        mut try_rule: impl FnMut(usize) -> bool,
    ) {
        let indexed: &[u32] = match head {
            Some(symbol) => by_head.get(symbol.0 as usize).map_or(&[], Vec::as_slice),
            None => &[],
        };
        // Merge the two insertion-ordered lists so candidates are tried in
        // exactly the order the rules were added (the first matching rule
        // wins, as in the reference rewriter).
        let (mut i, mut j) = (0, 0);
        loop {
            let next = match (indexed.get(i), unindexed.get(j)) {
                (Some(&a), Some(&b)) => {
                    if a < b {
                        i += 1;
                        a
                    } else {
                        j += 1;
                        b
                    }
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => return,
            };
            if try_rule(next as usize) {
                return;
            }
        }
    }

    /// Normalises a term: rewrites innermost-first, repeatedly, until no rule
    /// applies anywhere or the step budget is exhausted.
    pub fn normalize(&mut self, arena: &mut TermArena, term: TermId) -> TermId {
        let mut steps = 0usize;
        self.normalize_inner(arena, term, &mut steps)
    }

    fn normalize_inner(
        &mut self,
        arena: &mut TermArena,
        term: TermId,
        steps: &mut usize,
    ) -> TermId {
        if let Some(&cached) = self.memo.get(&term) {
            return cached;
        }
        let mut current = term;
        loop {
            if *steps > MAX_STEPS {
                // Not a fixpoint — do not memoize partial results.
                return current;
            }
            // First normalise children.
            if let TermData::App(func, args) = arena.data(current) {
                let (func, args) = (*func, args.clone());
                let mut new_args = Vec::with_capacity(args.len());
                let mut changed = false;
                for &arg in &args {
                    let normal = self.normalize_inner(arena, arg, steps);
                    changed |= normal != arg;
                    new_args.push(normal);
                }
                if changed {
                    current = arena.app_sym(func, new_args);
                }
            }
            // Constant-fold built-in integer arithmetic.
            if let Some(folded) = fold_arithmetic(arena, current) {
                if folded != current {
                    current = folded;
                    *steps += 1;
                    continue;
                }
            }
            // Then try the head-indexed rules at the root.  A rule whose
            // match instantiates to the identical term is a no-op and must
            // fall through to later candidates, exactly like the reference
            // rewriter's linear scan.
            let mut rewritten = None;
            let head = arena.head_symbol(current);
            let (library, slot_buf) = (&*self.library, &mut self.slot_buf);
            let compiled = &library.compiled;
            Self::for_each_candidate(&library.by_head, &library.unindexed, head, |rule_idx| {
                let rule = &compiled[rule_idx];
                slot_buf.clear();
                slot_buf.resize(rule.num_slots as usize, None);
                if !rule.lhs.matches(current, arena, slot_buf) {
                    return false;
                }
                let next = rule.rhs.instantiate(arena, slot_buf);
                if next != current {
                    rewritten = Some(next);
                    true
                } else {
                    false
                }
            });
            let mut changed = false;
            if let Some(next) = rewritten {
                current = next;
                changed = true;
                self.applications += 1;
                *steps += 1;
            }
            if !changed {
                if *steps > MAX_STEPS {
                    // The budget ran out somewhere below this node: `current`
                    // may contain an unreduced child, so it must not enter
                    // the persistent memo (a later call gets a fresh budget
                    // and must be free to finish the job).
                    return current;
                }
                self.memo.insert(term, current);
                if current != term {
                    // A normal form is its own normal form; seed the memo so
                    // re-normalising results is a single lookup.
                    self.memo.insert(current, current);
                }
                return current;
            }
        }
    }
}

/// The reference rewriter: the original string-compared linear scan over the
/// whole rule library at every node, with a fresh per-call cache.
///
/// This is the executable specification of [`Rewriter::normalize`] — slower
/// but obviously faithful to rule order and innermost-first strategy.  The
/// differential property tests assert that the compiled, head-indexed
/// rewriter reaches exactly the same normal forms, and the solver
/// microbenchmarks report the speedup of the compiled path over this one.
pub fn reference_normalize(arena: &mut TermArena, rules: &[RewriteRule], term: TermId) -> TermId {
    let mut steps = 0usize;
    let mut cache: HashMap<TermId, TermId> = HashMap::new();
    reference_normalize_inner(arena, rules, term, &mut steps, &mut cache)
}

fn reference_normalize_inner(
    arena: &mut TermArena,
    rules: &[RewriteRule],
    term: TermId,
    steps: &mut usize,
    cache: &mut HashMap<TermId, TermId>,
) -> TermId {
    if let Some(&cached) = cache.get(&term) {
        return cached;
    }
    let mut current = term;
    loop {
        if *steps > MAX_STEPS {
            return current;
        }
        let rebuilt = match arena.data(current).clone() {
            TermData::App(func, args) => {
                let new_args: Vec<TermId> = args
                    .iter()
                    .map(|&a| reference_normalize_inner(arena, rules, a, steps, cache))
                    .collect();
                if new_args == args {
                    current
                } else {
                    arena.app_sym(func, new_args)
                }
            }
            _ => current,
        };
        current = rebuilt;
        if let Some(folded) = fold_arithmetic(arena, current) {
            if folded != current {
                current = folded;
                *steps += 1;
                continue;
            }
        }
        let mut changed = false;
        for rule in rules {
            let mut bindings = HashMap::new();
            if rule.lhs.matches(current, arena, &mut bindings) {
                let next = rule.rhs.instantiate(arena, &bindings);
                if next != current {
                    current = next;
                    changed = true;
                    *steps += 1;
                    break;
                }
            }
        }
        if !changed {
            cache.insert(term, current);
            return current;
        }
    }
}

/// Constant-folds the built-in integer functions `+`, `-`, `*` when both
/// arguments are literals.
fn fold_arithmetic(arena: &mut TermArena, term: TermId) -> Option<TermId> {
    let (func, a, b) = match arena.data(term) {
        TermData::App(f, args) if args.len() == 2 => {
            let a = arena.as_int(args[0])?;
            let b = arena.as_int(args[1])?;
            (*f, a, b)
        }
        _ => return None,
    };
    let value = match arena.symbol_name(func) {
        "+" => a.checked_add(b)?,
        "-" => a.checked_sub(b)?,
        "*" => a.checked_mul(b)?,
        _ => return None,
    };
    Some(arena.int(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_h_rule() -> RewriteRule {
        RewriteRule::new(
            "h_cancel",
            Pattern::app("h", vec![Pattern::app("h", vec![Pattern::var("q")])]),
            Pattern::var("q"),
        )
    }

    #[test]
    fn simple_cancellation() {
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        rw.add_rule(&mut arena, double_h_rule());
        let q = arena.symbol("q0");
        let h1 = arena.app("h", vec![q]);
        let h2 = arena.app("h", vec![h1]);
        assert_eq!(rw.normalize(&mut arena, h2), q);
        // A single h is already normal.
        assert_eq!(rw.normalize(&mut arena, h1), h1);
        assert!(rw.applications() >= 1);
    }

    #[test]
    fn nested_cancellation_requires_repeated_passes() {
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        rw.add_rule(&mut arena, double_h_rule());
        let q = arena.symbol("q0");
        // h(h(h(h(q)))) -> q
        let mut t = q;
        for _ in 0..4 {
            t = arena.app("h", vec![t]);
        }
        assert_eq!(rw.normalize(&mut arena, t), q);
    }

    #[test]
    fn rewriting_happens_under_other_functions() {
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        rw.add_rule(&mut arena, double_h_rule());
        let q = arena.symbol("q0");
        let hh = {
            let h1 = arena.app("h", vec![q]);
            arena.app("h", vec![h1])
        };
        let wrapped = arena.app("cx_ctl", vec![hh, q]);
        let expected = arena.app("cx_ctl", vec![q, q]);
        assert_eq!(rw.normalize(&mut arena, wrapped), expected);
    }

    #[test]
    fn linear_variable_patterns_bind_consistently() {
        // f(x, x) -> x must not match f(a, b).
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        rw.add_rule(
            &mut arena,
            RewriteRule::new(
                "idem",
                Pattern::app("f", vec![Pattern::var("x"), Pattern::var("x")]),
                Pattern::var("x"),
            ),
        );
        let a = arena.symbol("a");
        let b = arena.symbol("b");
        let faa = arena.app("f", vec![a, a]);
        let fab = arena.app("f", vec![a, b]);
        assert_eq!(rw.normalize(&mut arena, faa), a);
        assert_eq!(rw.normalize(&mut arena, fab), fab);
    }

    #[test]
    fn integer_folding() {
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        let one = arena.int(1);
        let two = arena.int(2);
        let sum = arena.app("+", vec![one, two]);
        let three = arena.int(3);
        assert_eq!(rw.normalize(&mut arena, sum), three);
        // Nested: (1 + 2) - 4 = -1
        let four = arena.int(4);
        let nested = arena.app("-", vec![sum, four]);
        let minus_one = arena.int(-1);
        assert_eq!(rw.normalize(&mut arena, nested), minus_one);
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn rhs_with_fresh_variable_is_rejected() {
        let _ = RewriteRule::new("bad", Pattern::var("x"), Pattern::var("y"));
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn compiling_a_raw_rule_with_fresh_rhs_variable_is_rejected() {
        // Bypassing RewriteRule::new (the fields are public) still cannot
        // smuggle an unbound rhs variable past compilation.
        let rule =
            RewriteRule { name: "bad".to_string(), lhs: Pattern::var("x"), rhs: Pattern::var("y") };
        let mut arena = TermArena::new();
        Rewriter::new().add_rule(&mut arena, rule);
    }

    #[test]
    fn int_patterns_match_literals_only() {
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        // swap_out(k=1, a, b) -> b ; swap_out(k=2, a, b) -> a
        rw.add_rule(
            &mut arena,
            RewriteRule::new(
                "swap1",
                Pattern::app(
                    "swap_out",
                    vec![Pattern::int(1), Pattern::var("a"), Pattern::var("b")],
                ),
                Pattern::var("b"),
            ),
        );
        rw.add_rule(
            &mut arena,
            RewriteRule::new(
                "swap2",
                Pattern::app(
                    "swap_out",
                    vec![Pattern::int(2), Pattern::var("a"), Pattern::var("b")],
                ),
                Pattern::var("a"),
            ),
        );
        let a = arena.symbol("a");
        let b = arena.symbol("b");
        let one = arena.int(1);
        let two = arena.int(2);
        let s1 = arena.app("swap_out", vec![one, a, b]);
        let s2 = arena.app("swap_out", vec![two, a, b]);
        assert_eq!(rw.normalize(&mut arena, s1), b);
        assert_eq!(rw.normalize(&mut arena, s2), a);
    }

    #[test]
    fn memo_persists_across_calls_and_clears_on_add_rule() {
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        rw.add_rule(&mut arena, double_h_rule());
        let q = arena.symbol("q0");
        let h1 = arena.app("h", vec![q]);
        let h2 = arena.app("h", vec![h1]);
        assert_eq!(rw.normalize(&mut arena, h2), q);
        let after_first = rw.applications();
        assert!(rw.memo_len() > 0);
        // The second normalisation answers from the memo: no new rule
        // applications.
        assert_eq!(rw.normalize(&mut arena, h2), q);
        assert_eq!(rw.applications(), after_first);
        // Installing a new rule invalidates the memo.
        rw.add_rule(
            &mut arena,
            RewriteRule::new("x_cancel", Pattern::app("x", vec![Pattern::var("q")]), v_q()),
        );
        assert_eq!(rw.memo_len(), 0);
        assert_eq!(rw.normalize(&mut arena, h2), q);
    }

    fn v_q() -> Pattern {
        Pattern::var("q")
    }

    #[test]
    fn clones_share_the_library_until_one_adds_a_rule() {
        let mut arena = TermArena::new();
        let mut template = Rewriter::new();
        template.add_rule(&mut arena, double_h_rule());
        let mut clone = template.clone();
        assert!(Arc::ptr_eq(&template.library, &clone.library));
        let x_rule = RewriteRule::new("x_cancel", Pattern::app("x", vec![v_q()]), v_q());
        clone.add_rule(&mut arena, x_rule);
        assert!(!Arc::ptr_eq(&template.library, &clone.library));
        assert_eq!((template.rules().len(), clone.rules().len()), (1, 2));
        let q = arena.symbol("q0");
        let xq = arena.app("x", vec![q]);
        assert_eq!(clone.normalize(&mut arena, xq), q);
        assert_eq!(template.normalize(&mut arena, xq), xq);
    }

    #[test]
    fn unindexed_rules_preserve_insertion_order() {
        // An Int-rooted rule (unindexed) added between two App-rooted rules
        // must still be tried in insertion order: the first matching rule
        // wins, exactly as in the reference rewriter.
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        rw.add_rule(
            &mut arena,
            RewriteRule::new(
                "f_to_g",
                Pattern::app("f", vec![v_q()]),
                Pattern::app("g", vec![v_q()]),
            ),
        );
        rw.add_rule(&mut arena, RewriteRule::new("seven", Pattern::int(7), Pattern::int(8)));
        rw.add_rule(
            &mut arena,
            RewriteRule::new(
                "f_to_h",
                Pattern::app("f", vec![v_q()]),
                Pattern::app("h", vec![v_q()]),
            ),
        );
        let a = arena.symbol("a");
        let fa = arena.app("f", vec![a]);
        let ga = arena.app("g", vec![a]);
        assert_eq!(rw.normalize(&mut arena, fa), ga);
        let seven = arena.int(7);
        let eight = arena.int(8);
        assert_eq!(rw.normalize(&mut arena, seven), eight);
        // The reference rewriter agrees on both.
        let rules = rw.rules().to_vec();
        assert_eq!(reference_normalize(&mut arena, &rules, fa), ga);
        assert_eq!(reference_normalize(&mut arena, &rules, seven), eight);
    }

    #[test]
    fn budget_truncated_results_are_not_memoized() {
        // A term wide enough to exhaust MAX_STEPS mid-way: the partial
        // result must not poison the persistent memo — later calls get a
        // fresh budget and must keep making progress (the reference
        // rewriter self-heals because its cache is per-call).
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        rw.add_rule(
            &mut arena,
            RewriteRule::new("d_unwrap", Pattern::app("d", vec![Pattern::var("x")]), v_q2()),
        );
        let width = MAX_STEPS + 100;
        let mut wrapped = Vec::with_capacity(width);
        let mut plain = Vec::with_capacity(width);
        for i in 0..width {
            let q = arena.symbol(&format!("q{i}"));
            plain.push(q);
            wrapped.push(arena.app("d", vec![q]));
        }
        let term = arena.app("z", wrapped);
        let normal = arena.app("z", plain);
        let first = rw.normalize(&mut arena, term);
        assert_ne!(first, normal, "the first call must run out of budget");
        // Each fresh call reduces at least MAX_STEPS more children; two more
        // calls are ample to finish — unless the partial form was memoized,
        // in which case no call ever progresses again.
        let second = rw.normalize(&mut arena, term);
        assert_ne!(second, first, "a fresh budget must make progress");
        let third = rw.normalize(&mut arena, term);
        assert_eq!(third, normal);
        // And the true normal form is stable.
        assert_eq!(rw.normalize(&mut arena, third), third);
    }

    fn v_q2() -> Pattern {
        Pattern::var("x")
    }

    #[test]
    fn no_op_matches_fall_through_to_later_rules() {
        // comm: h(x, y) -> h(y, x) matches h(a, a) but instantiates to the
        // identical term; the rewriter must fall through to collapse:
        // h(x, x) -> x, exactly like the reference linear scan.
        let rules = vec![
            RewriteRule::new(
                "comm",
                Pattern::app("h", vec![Pattern::var("x"), Pattern::var("y")]),
                Pattern::app("h", vec![Pattern::var("y"), Pattern::var("x")]),
            ),
            RewriteRule::new(
                "collapse",
                Pattern::app("h", vec![Pattern::var("x"), Pattern::var("x")]),
                Pattern::var("x"),
            ),
        ];
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        for rule in &rules {
            rw.add_rule(&mut arena, rule.clone());
        }
        let a = arena.symbol("a");
        let haa = arena.app("h", vec![a, a]);
        assert_eq!(rw.normalize(&mut arena, haa), a);
        assert_eq!(reference_normalize(&mut arena, &rules, haa), a);
    }

    #[test]
    fn compiled_matches_reference_on_the_circuit_library_shapes() {
        // A miniature differential check (the full randomized one lives in
        // tests/rewriter_differential.rs at the workspace root).
        let rules = vec![
            double_h_rule(),
            RewriteRule::new(
                "cx_cancel_1",
                Pattern::app(
                    "cx_1",
                    vec![
                        Pattern::app("cx_1", vec![Pattern::var("a"), Pattern::var("b")]),
                        Pattern::app("cx_2", vec![Pattern::var("a"), Pattern::var("b")]),
                    ],
                ),
                Pattern::var("a"),
            ),
        ];
        let mut arena = TermArena::new();
        let mut rw = Rewriter::new();
        for rule in &rules {
            rw.add_rule(&mut arena, rule.clone());
        }
        let a = arena.symbol("a");
        let b = arena.symbol("b");
        let c1 = arena.app("cx_1", vec![a, b]);
        let c2 = arena.app("cx_2", vec![a, b]);
        let nested = arena.app("cx_1", vec![c1, c2]);
        let h = arena.app("h", vec![nested]);
        let hh = arena.app("h", vec![h]);
        for &t in &[a, b, c1, c2, nested, h, hh] {
            let compiled = rw.normalize(&mut arena, t);
            let reference = reference_normalize(&mut arena, &rules, t);
            assert_eq!(compiled, reference, "{}", arena.display(t));
        }
    }
}
