//! Property tests for batched term fingerprinting.
//!
//! `TermArena::fingerprints` hashes a whole set of roots through one memo
//! filled by a forward sweep over the arena; `TermArena::fingerprint` is the
//! recursive, one-memo-per-call definition.  On random term DAGs with heavy
//! sub-term sharing, and on arenas cloned and then extended (how a
//! symbolic executor clones its prewarmed template), the two must agree on
//! every root.

use proptest::prelude::*;
use smtlite::{TermArena, TermId};

/// Function vocabulary: name and arity.
const FUNCS: &[(&str, usize)] = &[("f", 1), ("g", 2), ("h", 3), ("c", 0)];
const LEAVES: &[&str] = &["q0", "q1", "q2"];

/// One term-building instruction: (kind, choice, argument picks).
type Op = (u32, u32, u32);

/// Interns one term per op, appending it to `terms`.  Applications take
/// their arguments from the 16 most recent terms, so the result is a deep
/// DAG whose sub-terms are shared by many parents.
fn grow(arena: &mut TermArena, terms: &mut Vec<TermId>, ops: &[Op]) {
    for &(kind, choice, picks) in ops {
        let term = match kind % 4 {
            0 => arena.symbol(LEAVES[choice as usize % LEAVES.len()]),
            1 => arena.int(i64::from(choice % 5) - 2),
            _ if terms.is_empty() => arena.symbol(LEAVES[0]),
            _ => {
                let (func, arity) = FUNCS[choice as usize % FUNCS.len()];
                let args = (0..arity)
                    .map(|i| {
                        let back = (picks >> (4 * i)) as usize & 0xf;
                        terms[terms.len() - 1 - back % terms.len()]
                    })
                    .collect();
                arena.app(func, args)
            }
        };
        terms.push(term);
    }
}

/// Resolves root picks against the terms built so far.
fn roots(terms: &[TermId], picks: &[u32]) -> Vec<TermId> {
    picks.iter().map(|&pick| terms[pick as usize % terms.len()]).collect()
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u32..1000, 0u32..1000, 0u32..0x1000), 1..120)
}

fn picks_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..10_000, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One shared memo yields exactly the per-root fingerprints, in root
    /// order, duplicates included.
    #[test]
    fn shared_memo_matches_per_root_fingerprints(
        ops in ops_strategy(),
        picks in picks_strategy(),
    ) {
        let mut arena = TermArena::new();
        let mut terms = Vec::new();
        grow(&mut arena, &mut terms, &ops);
        let roots = roots(&terms, &picks);
        let batched = arena.fingerprints(&roots);
        prop_assert_eq!(batched.len(), roots.len());
        for (&root, &fingerprint) in roots.iter().zip(&batched) {
            prop_assert_eq!(fingerprint, arena.fingerprint(root), "root {:?}", root);
        }
    }

    /// Terms interned into a clone of a populated arena, mixed with the
    /// inherited ones, fingerprint alike under both strategies — and an
    /// inherited term keeps the fingerprint it had in the original.
    #[test]
    fn cloned_arenas_agree_on_inherited_and_new_terms(
        template_ops in ops_strategy(),
        clone_ops in ops_strategy(),
        picks in picks_strategy(),
    ) {
        let mut template = TermArena::new();
        let mut terms = Vec::new();
        grow(&mut template, &mut terms, &template_ops);
        let inherited = terms.len();
        let mut clone = template.clone();
        grow(&mut clone, &mut terms, &clone_ops);
        let roots = roots(&terms, &picks);
        let batched = clone.fingerprints(&roots);
        for (&root, &fingerprint) in roots.iter().zip(&batched) {
            prop_assert_eq!(fingerprint, clone.fingerprint(root), "root {:?}", root);
        }
        for &root in &terms[..inherited] {
            prop_assert_eq!(clone.fingerprints(&[root])[0], template.fingerprint(root));
        }
    }
}

#[test]
fn no_roots_fingerprint_to_nothing() {
    let mut arena = TermArena::new();
    arena.symbol("q0");
    assert!(arena.fingerprints(&[]).is_empty());
}
