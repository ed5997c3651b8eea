//! Differential property tests for the solver hot path.
//!
//! The compiled, head-indexed rewriter (`smtlite::Rewriter`) must reach
//! exactly the same normal forms as the naive reference rewriter
//! (`smtlite::reference_normalize`, the original string-compared linear scan
//! kept as an executable specification) on random rule sets and random
//! terms.  Generated rule sets are strictly size-decreasing (the right-hand
//! side is a bound variable or an integer literal), so rewriting always
//! terminates and the step budget is never hit — any disagreement is a real
//! bug in pattern compilation, head indexing, slot binding, or the
//! persistent normal-form memo.

use giallar::smt::{
    reference_normalize, Context, Pattern, RewriteRule, Rewriter, TermArena, TermId,
};
use proptest::prelude::*;

/// Function vocabulary: name and arity.  Deliberately small so random rules
/// and random terms collide often (high match probability per node).
const FUNCS: &[(&str, usize)] = &[("f", 1), ("g", 1), ("h", 2), ("k", 2), ("m", 3), ("c", 0)];
const CONSTS: &[&str] = &["a", "b", "q0"];
const VARS: &[&str] = &["x", "y", "z"];

/// One instruction of the stack machine that builds a random term: pick a
/// leaf or apply a function to the top of the stack.
type Op = (u32, u32);

/// Builds a term from a deterministic op list (a tiny stack machine: leaves
/// push, applications pop their arity).
fn build_term(arena: &mut TermArena, ops: &[Op]) -> TermId {
    let mut stack: Vec<TermId> = Vec::new();
    for &(select, detail) in ops {
        match select % 3 {
            0 => {
                let name = CONSTS[detail as usize % CONSTS.len()];
                stack.push(arena.symbol(name));
            }
            1 => stack.push(arena.int(i64::from(detail % 5))),
            _ => {
                let (func, arity) = FUNCS[detail as usize % FUNCS.len()];
                if stack.len() >= arity {
                    let args = stack.split_off(stack.len() - arity);
                    stack.push(arena.app(func, args));
                } else {
                    stack.push(arena.symbol(CONSTS[0]));
                }
            }
        }
    }
    match stack.pop() {
        Some(top) => top,
        None => arena.symbol(CONSTS[0]),
    }
}

/// Builds a left-hand pattern from an op list: like [`build_term`] but
/// leaves may also be pattern variables, and the result is always wrapped in
/// a function application (rules must be App-rooted so they terminate and
/// exercise the head index).
fn build_lhs(ops: &[Op], root: u32) -> Pattern {
    let mut stack: Vec<Pattern> = Vec::new();
    for &(select, detail) in ops {
        match select % 4 {
            0 => stack.push(Pattern::var(VARS[detail as usize % VARS.len()])),
            1 => stack.push(Pattern::int(i64::from(detail % 5))),
            2 => stack.push(Pattern::constant(CONSTS[detail as usize % CONSTS.len()])),
            _ => {
                let (func, arity) = FUNCS[detail as usize % FUNCS.len()];
                if stack.len() >= arity {
                    let args = stack.split_off(stack.len() - arity);
                    stack.push(Pattern::app(func, args));
                } else {
                    stack.push(Pattern::var(VARS[0]));
                }
            }
        }
    }
    let (func, arity) = FUNCS[root as usize % FUNCS.len()];
    let mut args = Vec::new();
    for i in 0..arity {
        args.push(stack.pop().unwrap_or_else(|| Pattern::var(VARS[i % VARS.len()])));
    }
    Pattern::app(func, args)
}

/// Builds a strictly size-decreasing rule: the right-hand side is one of the
/// left-hand side's variables (a bound subterm) or an integer literal, so
/// every application shrinks the term and rewriting always terminates.
fn build_rule(index: usize, lhs_ops: &[Op], root: u32, rhs_pick: u32) -> RewriteRule {
    let lhs = build_lhs(lhs_ops, root);
    let vars = lhs.variables();
    let rhs = if vars.is_empty() || rhs_pick.is_multiple_of(3) {
        Pattern::int(i64::from(rhs_pick % 7))
    } else {
        Pattern::var(&vars[rhs_pick as usize % vars.len()])
    };
    RewriteRule::new(&format!("rule_{index}"), lhs, rhs)
}

/// Strategy for the op lists driving term/pattern construction.
fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u32..1000, 0u32..1000), 1..max_len)
}

/// Strategy for a random rule set.
fn rules_strategy() -> impl Strategy<Value = Vec<RewriteRule>> {
    prop::collection::vec((ops_strategy(8), 0u32..1000, 0u32..1000), 1..12).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(index, (ops, root, rhs_pick))| build_rule(index, &ops, root, rhs_pick))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The compiled, head-indexed rewriter and the naive reference reach
    /// the same normal form on random rule sets and terms — including with
    /// a warm persistent memo (one `Rewriter` across all terms of a case).
    #[test]
    fn compiled_rewriter_matches_reference(
        rules in rules_strategy(),
        term_ops in prop::collection::vec(ops_strategy(24), 1..6),
    ) {
        let mut arena = TermArena::new();
        let mut rewriter = Rewriter::new();
        for rule in &rules {
            rewriter.add_rule(&mut arena, rule.clone());
        }
        let terms: Vec<TermId> =
            term_ops.iter().map(|ops| build_term(&mut arena, ops)).collect();
        for &term in &terms {
            let compiled = rewriter.normalize(&mut arena, term);
            let reference = reference_normalize(&mut arena, &rules, term);
            prop_assert_eq!(
                compiled,
                reference,
                "term `{}`: compiled `{}` vs reference `{}`",
                arena.display(term),
                arena.display(compiled),
                arena.display(reference)
            );
            // Normal forms are fixpoints for both implementations.
            prop_assert_eq!(rewriter.normalize(&mut arena, compiled), compiled);
            prop_assert_eq!(reference_normalize(&mut arena, &rules, reference), reference);
        }
        // A second pass over the same terms answers from the persistent
        // memo and must agree with the first.
        for &term in &terms {
            let again = rewriter.normalize(&mut arena, term);
            prop_assert_eq!(again, reference_normalize(&mut arena, &rules, term));
        }
    }

    /// Equality checks through one reused `Context`, whose normal-form memo
    /// is warm from the earlier queries, agree with a fresh single-use
    /// context on random terms (the shape the verifier relied on before
    /// contexts were reused across goals).
    #[test]
    fn incremental_context_matches_fresh_contexts(
        rules in rules_strategy(),
        pairs in prop::collection::vec((ops_strategy(16), ops_strategy(16)), 1..5),
    ) {
        let mut shared = Context::new();
        for rule in &rules {
            shared.add_rule(rule.clone());
        }
        for (lhs_ops, rhs_ops) in &pairs {
            let a = build_term(shared.arena_mut(), lhs_ops);
            let b = build_term(shared.arena_mut(), rhs_ops);
            let incremental = shared.check_eq(a, b).is_ok();
            let mut fresh = Context::new();
            for rule in &rules {
                fresh.add_rule(rule.clone());
            }
            let fa = build_term(fresh.arena_mut(), lhs_ops);
            let fb = build_term(fresh.arena_mut(), rhs_ops);
            prop_assert_eq!(incremental, fresh.check_eq(fa, fb).is_ok());
        }
    }
}

/// The verifier's per-pass stats path: a full pass verification through the
/// reused-context discharger produces the same subgoal counts as the
/// one-shot discharge API.
#[test]
fn reused_context_discharger_matches_one_shot_discharge() {
    use giallar::core::registry::verified_passes;
    use giallar::core::verifier::Discharger;

    for pass in verified_passes().iter().take(8) {
        let obligations = (pass.obligations)();
        let mut discharger = Discharger::new();
        for obligation in &obligations {
            let shared = discharger.discharge(&obligation.goal);
            let one_shot = Discharger::new().discharge(&obligation.goal);
            assert_eq!(
                shared.is_proved(),
                one_shot.is_proved(),
                "{}: `{}` diverged between shared and one-shot discharge",
                pass.name,
                obligation.description
            );
        }
    }
}
