//! Ground congruence closure over uninterpreted functions.
//!
//! Given a set of asserted equalities between interned terms, the closure
//! answers whether two terms are provably equal by reflexivity, symmetry,
//! transitivity, and congruence (`a = b  ⟹  f(a) = f(b)`).
//!
//! The closure is designed for the solver's incremental use: it persists
//! across queries inside a [`crate::Context`],
//! [`CongruenceClosure::propagate`] is a no-op unless new equalities were
//! asserted or new terms were interned since the last propagation, and
//! congruence signatures hash interned [`SymbolId`]s instead of cloning
//! function-name strings.

use std::collections::HashMap;

use crate::term::{SymbolId, TermArena, TermData, TermId};

/// A union-find based congruence closure.
#[derive(Debug, Clone, Default)]
pub struct CongruenceClosure {
    parent: Vec<usize>,
    rank: Vec<u32>,
    /// Asserted (not derived) equalities, kept for re-propagation.
    asserted: Vec<(TermId, TermId)>,
    /// Whether a merge happened since the last completed propagation.
    dirty: bool,
    /// Arena size at the last completed propagation; new terms can create
    /// new congruences, so growth forces a re-propagation.
    propagated_terms: usize,
}

impl CongruenceClosure {
    /// Creates an empty closure.
    pub fn new() -> Self {
        CongruenceClosure::default()
    }

    fn ensure(&mut self, id: TermId) {
        while self.parent.len() <= id.0 {
            self.parent.push(self.parent.len());
            self.rank.push(0);
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.rank[ra] < self.rank[rb] {
            self.parent[ra] = rb;
        } else if self.rank[ra] > self.rank[rb] {
            self.parent[rb] = ra;
        } else {
            self.parent[rb] = ra;
            self.rank[ra] += 1;
        }
        true
    }

    /// Asserts that two terms are equal.
    pub fn assert_eq(&mut self, a: TermId, b: TermId) {
        self.ensure(a);
        self.ensure(b);
        self.asserted.push((a, b));
        if self.union(a.0, b.0) {
            self.dirty = true;
        }
    }

    /// Propagates congruence over every term in the arena until a fixpoint:
    /// whenever two applications have the same function symbol and pairwise
    /// congruent arguments, their classes are merged.
    ///
    /// Incremental: when nothing changed since the last propagation — no
    /// merging assertion and no new interned term — this returns without
    /// scanning the arena, so back-to-back queries over a stable context pay
    /// for propagation once.
    pub fn propagate(&mut self, arena: &TermArena) {
        if !self.dirty && self.propagated_terms == arena.len() {
            return;
        }
        for id in arena.ids() {
            self.ensure(id);
        }
        loop {
            let mut changed = false;
            // Signature map: (func, class(args)) -> representative term.
            let mut signatures: HashMap<(SymbolId, Vec<usize>), usize> = HashMap::new();
            for id in arena.ids() {
                if let TermData::App(func, args) = arena.data(id) {
                    let func = *func;
                    let sig: Vec<usize> = args.iter().map(|&a| self.find(a.0)).collect();
                    match signatures.get(&(func, sig.clone())) {
                        Some(&other) => {
                            if self.find(other) != self.find(id.0) {
                                self.union(other, id.0);
                                changed = true;
                            }
                        }
                        None => {
                            signatures.insert((func, sig), id.0);
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.dirty = false;
        self.propagated_terms = arena.len();
    }

    /// Returns `true` when the two terms are in the same congruence class.
    /// Call [`CongruenceClosure::propagate`] first to take congruence (not
    /// just asserted equalities) into account.
    pub fn equal(&mut self, a: TermId, b: TermId) -> bool {
        self.ensure(a);
        self.ensure(b);
        self.find(a.0) == self.find(b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitivity() {
        let mut arena = TermArena::new();
        let mut cc = CongruenceClosure::new();
        let a = arena.symbol("a");
        let b = arena.symbol("b");
        let c = arena.symbol("c");
        cc.assert_eq(a, b);
        cc.assert_eq(b, c);
        assert!(cc.equal(a, c));
        let d = arena.symbol("d");
        assert!(!cc.equal(a, d));
    }

    #[test]
    fn congruence_over_functions() {
        let mut arena = TermArena::new();
        let mut cc = CongruenceClosure::new();
        let a = arena.symbol("a");
        let b = arena.symbol("b");
        let fa = arena.app("f", vec![a]);
        let fb = arena.app("f", vec![b]);
        cc.assert_eq(a, b);
        cc.propagate(&arena);
        assert!(cc.equal(fa, fb));
    }

    #[test]
    fn nested_congruence() {
        let mut arena = TermArena::new();
        let mut cc = CongruenceClosure::new();
        let a = arena.symbol("a");
        let b = arena.symbol("b");
        let fa = arena.app("f", vec![a]);
        let fb = arena.app("f", vec![b]);
        let gfa = arena.app("g", vec![fa, a]);
        let gfb = arena.app("g", vec![fb, b]);
        cc.assert_eq(a, b);
        cc.propagate(&arena);
        assert!(cc.equal(gfa, gfb));
    }

    #[test]
    fn different_functions_stay_distinct() {
        let mut arena = TermArena::new();
        let mut cc = CongruenceClosure::new();
        let a = arena.symbol("a");
        let fa = arena.app("f", vec![a]);
        let ga = arena.app("g", vec![a]);
        cc.propagate(&arena);
        assert!(!cc.equal(fa, ga));
        assert!(cc.equal(fa, fa));
    }

    #[test]
    fn classic_ackermann_example() {
        // a = f(f(f(a)))  and  a = f(f(f(f(f(a)))))  implies a = f(a).
        let mut arena = TermArena::new();
        let mut cc = CongruenceClosure::new();
        let a = arena.symbol("a");
        let f = |arena: &mut TermArena, t: TermId| arena.app("f", vec![t]);
        let f1 = f(&mut arena, a);
        let f2 = f(&mut arena, f1);
        let f3 = f(&mut arena, f2);
        let f4 = f(&mut arena, f3);
        let f5 = f(&mut arena, f4);
        cc.assert_eq(a, f3);
        cc.assert_eq(a, f5);
        cc.propagate(&arena);
        assert!(cc.equal(a, f1));
    }

    #[test]
    fn propagate_is_incremental() {
        let mut arena = TermArena::new();
        let mut cc = CongruenceClosure::new();
        let a = arena.symbol("a");
        let b = arena.symbol("b");
        let fa = arena.app("f", vec![a]);
        let fb = arena.app("f", vec![b]);
        cc.assert_eq(a, b);
        cc.propagate(&arena);
        assert!(cc.equal(fa, fb));
        // Stable state: another propagate call is a no-op (observable only
        // through timing, but it must stay correct).
        cc.propagate(&arena);
        assert!(cc.equal(fa, fb));
        // New terms re-enable propagation.
        let gfa = arena.app("g", vec![fa]);
        let gfb = arena.app("g", vec![fb]);
        cc.propagate(&arena);
        assert!(cc.equal(gfa, gfb));
        // A redundant assertion (already equal) does not dirty the closure,
        // a merging one does.
        cc.assert_eq(a, b);
        let c = arena.symbol("c");
        let fc = arena.app("f", vec![c]);
        cc.assert_eq(b, c);
        cc.propagate(&arena);
        assert!(cc.equal(fa, fc));
    }
}
