//! Goal-class routing: one concrete solver router with two selections.
//!
//! Giallar proves circuit equivalence with a single engine, symbolic
//! execution plus the directed rewrite-rule library (§5 of the paper).  What
//! varies is the goal class: following the CertiQ observation
//! (arXiv:1908.08963) that different proof-goal classes are best served by
//! different proof strategies, a [`BackendRegistry`] routes every [`Goal`]
//! by its [`GoalClass`] (see [`GoalClass::of`]) and then by the run's
//! [`BackendSelection`]:
//!
//! | class | goal kinds | `default` | `reference` |
//! |---|---|---|---|
//! | [`GoalClass::CircuitEquivalence`] | `Equivalence`, `EquivalenceUpToPermutation` | `rewrite-equiv`: compiled rewriting ([`EquivalenceChecker`]) | `reference`: naive normal forms ([`reference_normalize`]) |
//! | [`GoalClass::Arithmetic`] | `TerminationDecrease` | `smtlite-arith`: an offset comparison ([`Context::check_lt`]) | `reference`: the same |
//! | [`GoalClass::Trivial`] | `AlwaysTerminates`, `CircuitUnchanged` | `trivial`: proved inline | `reference`: the same |
//!
//! The ids are [`BackendSelection::backend_id_for`]: the name of the
//! strategy that discharged a goal.  `--backend reference` is the naive
//! oracle the default routing is differentially tested against; only its
//! equivalence arm differs.
//!
//! # The routing contract
//!
//! 1. **Totality** — [`BackendRegistry::discharge`] returns a [`Verdict`]
//!    (never panics) for every goal under either selection.
//! 2. **Determinism** — the same goal always produces the same verdict,
//!    explanation text and fault site included, because verdicts are cached
//!    per obligation (see [`crate::cache`]).
//!    [`BackendRegistry::discharge_with_evidence`] answers exactly the
//!    verdict [`BackendRegistry::discharge`] does.
//! 3. **Stable ids** — [`BackendSelection::backend_id_for`] is part of every
//!    cache key and certificate: changing a routing's semantics without
//!    changing its id serves stale verdicts.  Treat an id like a format
//!    version.  The mapping is a pure function of `(selection, class)`, so
//!    keys are computed without building a registry.
//! 4. **Reusability** — one registry discharges many goals in order;
//!    [`BackendRegistry::prewarm`] is called once per pass (or per
//!    [`crate::batch`] discharge group) with the widest equivalence register
//!    so the solver state is sized once, and a clone hands that warmed state
//!    to the batch scheduler's workers.  Solver contexts share the process's
//!    compiled rewrite-rule library, so a prewarm or a clone costs the
//!    register and its memo, not the library.

use std::sync::OnceLock;

use qc_symbolic::{EquivalenceChecker, SymCircuit, SymbolicExecutor, Verdict, WireEvidence};
use smtlite::{reference_normalize, Context, FaultSite, RewriteRule};

use crate::obligation::Goal;

/// The proof-goal classes the registry routes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoalClass {
    /// Circuit-equivalence goals (strict, or up to a routing permutation).
    CircuitEquivalence,
    /// Linear-arithmetic goals (termination measures).
    Arithmetic,
    /// Goals that hold by construction (range loops, analysis passes).
    Trivial,
}

impl GoalClass {
    /// Every goal class, in routing-table order.
    pub const ALL: [GoalClass; 3] =
        [GoalClass::CircuitEquivalence, GoalClass::Arithmetic, GoalClass::Trivial];

    /// The class a goal belongs to.  Total: every [`Goal`] kind has exactly
    /// one class.
    pub fn of(goal: &Goal) -> GoalClass {
        match goal {
            Goal::Equivalence { .. } | Goal::EquivalenceUpToPermutation { .. } => {
                GoalClass::CircuitEquivalence
            }
            Goal::TerminationDecrease { .. } => GoalClass::Arithmetic,
            Goal::AlwaysTerminates | Goal::CircuitUnchanged => GoalClass::Trivial,
        }
    }

    /// Stable lowercase name (used in reports and error messages).
    pub fn name(self) -> &'static str {
        match self {
            GoalClass::CircuitEquivalence => "circuit-equivalence",
            GoalClass::Arithmetic => "arithmetic",
            GoalClass::Trivial => "trivial",
        }
    }

    /// Dense index into per-class tables (the position in [`Self::ALL`]).
    pub(crate) fn index(self) -> usize {
        match self {
            GoalClass::CircuitEquivalence => 0,
            GoalClass::Arithmetic => 1,
            GoalClass::Trivial => 2,
        }
    }
}

/// Validates a routing wire map against the goal's **own** register — the
/// widest circuit it relates — independent of how wide the shared solver
/// state happens to be.
///
/// The underlying [`EquivalenceChecker`] accepts any wire map that fits its
/// register, and the registry grows that register monotonically across a
/// pass's goals ([`BackendRegistry::prewarm`]), so without this guard the
/// verdict of a malformed wire map would depend on which goals were
/// discharged before it — violating the determinism rule of the routing
/// contract (and, since verdicts are cached per obligation, potentially
/// replaying a `Proved` where a fresh discharge would refute).  `None` means
/// the map is well-formed for the goal.
fn validate_wire_map(lhs: &SymCircuit, rhs: &SymCircuit, wire_map: &[usize]) -> Option<Verdict> {
    let width = lhs.num_qubits().max(rhs.num_qubits());
    if wire_map.len() != width {
        return Some(Verdict::refuted_at(
            format!(
                "wire map covers {} qubits but the circuits span {width} \
                 and the register has {width}",
                wire_map.len(),
            ),
            FaultSite::WireMap { entry: None, len: wire_map.len() },
        ));
    }
    if let Some(&bad) = wire_map.iter().find(|&&w| w >= width) {
        return Some(Verdict::refuted_at(
            format!("wire map sends a qubit to wire {bad}, outside the {width}-qubit register"),
            FaultSite::WireMap { entry: Some(bad), len: wire_map.len() },
        ));
    }
    None
}

/// The circuit rewrite-rule library as the plain rule list
/// [`reference_normalize`] scans, collected once per process.
fn reference_rules() -> &'static [RewriteRule] {
    static RULES: OnceLock<Vec<RewriteRule>> = OnceLock::new();
    RULES.get_or_init(|| {
        qc_symbolic::circuit_rewrite_rules().iter().map(|c| c.rule.clone()).collect()
    })
}

/// Which routing a verification run discharges with.  Parsed from the CLI's
/// `--backend` flag and folded into every cached verdict's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendSelection {
    /// The production routing: compiled rewriting (`rewrite-equiv`) for
    /// equivalence, `smtlite-arith` for arithmetic, `trivial` for trivial
    /// goals.
    #[default]
    Default,
    /// The differential routing: naive reference normal forms for
    /// equivalence, every class under the one id `reference`.
    Reference,
}

impl BackendSelection {
    /// Every selectable routing (for CLI help and validation).
    pub const ALL: [BackendSelection; 2] = [BackendSelection::Default, BackendSelection::Reference];

    /// Parses a CLI `--backend` value.
    pub fn parse(name: &str) -> Option<BackendSelection> {
        match name {
            "default" => Some(BackendSelection::Default),
            "reference" => Some(BackendSelection::Reference),
            _ => None,
        }
    }

    /// The selection's stable name (the `--backend` spelling, surfaced in
    /// the JSON report).
    pub fn id(self) -> &'static str {
        match self {
            BackendSelection::Default => "default",
            BackendSelection::Reference => "reference",
        }
    }

    /// The id of the strategy this selection discharges `class` goals with.
    /// A pure function of `(selection, class)` so the obligation cache can
    /// compute keys without building a registry.
    pub fn backend_id_for(self, class: GoalClass) -> &'static str {
        match self {
            BackendSelection::Default => match class {
                GoalClass::CircuitEquivalence => "rewrite-equiv",
                GoalClass::Arithmetic => "smtlite-arith",
                GoalClass::Trivial => "trivial",
            },
            BackendSelection::Reference => "reference",
        }
    }
}

impl std::fmt::Display for BackendSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// The goal-class router: discharges every [`Goal`] under one
/// [`BackendSelection`] (see the module docs for the table and contract).
///
/// Solver state is built on first use and reused across goals: the default
/// equivalence checker and the reference executor each grow lazily to the
/// widest register seen (narrower circuits are checked over the full
/// register, where the extra wires are trivially equal), and one arithmetic
/// context serves every termination goal.  A clone carries the warmed state.
#[derive(Clone, Default)]
pub struct BackendRegistry {
    selection: BackendSelection,
    /// The default routing's equivalence checker.
    checker: Option<EquivalenceChecker>,
    /// The reference routing's executor and its register width.
    executor: Option<(SymbolicExecutor, usize)>,
    /// The arithmetic context of both routings.
    arith: Option<Context>,
}

impl BackendRegistry {
    /// Builds the router for a selection, with no solver state yet.
    pub fn new(selection: BackendSelection) -> Self {
        BackendRegistry { selection, ..BackendRegistry::default() }
    }

    /// The selection the registry was built from.
    pub fn selection(&self) -> BackendSelection {
        self.selection
    }

    /// The id of the strategy that discharges `class` goals
    /// ([`BackendSelection::backend_id_for`] of the registry's selection).
    pub fn backend_id_for(&self, class: GoalClass) -> &'static str {
        self.selection.backend_id_for(class)
    }

    /// Discharges one goal against the shared solver state.
    pub fn discharge(&mut self, goal: &Goal) -> Verdict {
        self.route(goal, false).0
    }

    /// Discharges a goal like [`BackendRegistry::discharge`] and also
    /// extracts the per-wire [`WireEvidence`] a translation-validation
    /// certificate embeds.  The evidence covers every register wire of an
    /// equivalence goal; malformed wire maps and the other goal classes
    /// come back with none.
    pub fn discharge_with_evidence(&mut self, goal: &Goal) -> (Verdict, Vec<WireEvidence>) {
        self.route(goal, true)
    }

    /// Sizes the selection's equivalence solver state for `max_qubits` up
    /// front, so a pass builds it once rather than regrowing it goal by
    /// goal.  Idempotent; never shrinks the state.
    pub fn prewarm(&mut self, max_qubits: usize) {
        if max_qubits == 0 {
            return;
        }
        match self.selection {
            BackendSelection::Default => {
                self.checker(max_qubits);
            }
            BackendSelection::Reference => {
                self.executor(max_qubits);
            }
        }
    }

    /// Routes `goal` by its class, then by the selection; `evidence` asks
    /// for the per-wire evidence of an equivalence goal.
    fn route(&mut self, goal: &Goal, evidence: bool) -> (Verdict, Vec<WireEvidence>) {
        match goal {
            Goal::Equivalence { lhs, rhs } => self.route_equivalence(lhs, rhs, None, evidence),
            Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => {
                match validate_wire_map(lhs, rhs, perm) {
                    Some(verdict) => (verdict, Vec::new()),
                    None => self.route_equivalence(lhs, rhs, Some(perm), evidence),
                }
            }
            Goal::TerminationDecrease { consumed, kept } => {
                (self.termination(*consumed as i64, *kept as i64), Vec::new())
            }
            Goal::AlwaysTerminates | Goal::CircuitUnchanged => (Verdict::Proved, Vec::new()),
        }
    }

    /// Discharges `lhs ≡ rhs` with its per-wire evidence, exactly as
    /// [`BackendRegistry::discharge_with_evidence`] discharges the
    /// [`Goal::Equivalence`] of the two circuits, but without moving them
    /// into a goal: a certificate compares its output with itself.
    pub fn equivalence_with_evidence(
        &mut self,
        lhs: &SymCircuit,
        rhs: &SymCircuit,
    ) -> (Verdict, Vec<WireEvidence>) {
        self.route_equivalence(lhs, rhs, None, true)
    }

    /// Routes an equivalence goal by the selection; no `perm` means the
    /// identity wire map.
    fn route_equivalence(
        &mut self,
        lhs: &SymCircuit,
        rhs: &SymCircuit,
        perm: Option<&[usize]>,
        evidence: bool,
    ) -> (Verdict, Vec<WireEvidence>) {
        let width = lhs.num_qubits().max(rhs.num_qubits());
        let identity: Vec<usize>;
        let wire_map = match perm {
            Some(perm) => perm,
            None => {
                identity = (0..width).collect();
                &identity
            }
        };
        match self.selection {
            BackendSelection::Default if evidence => {
                self.checker(width).check_with_evidence(lhs, rhs, wire_map)
            }
            BackendSelection::Default => {
                (self.checker(width).check_with_permutation(lhs, rhs, wire_map), Vec::new())
            }
            BackendSelection::Reference => self.reference_check(lhs, rhs, wire_map, evidence),
        }
    }

    /// `|remain_new| = |rest| + kept  <  |remain_old| = |rest| + consumed`
    /// over the shared arithmetic context.
    fn termination(&mut self, consumed: i64, kept: i64) -> Verdict {
        let ctx = self.arith.get_or_insert_with(Context::new);
        let rest = ctx.arena_mut().app("len_rest", vec![]);
        let kept_term = ctx.arena_mut().int(kept);
        let consumed_term = ctx.arena_mut().int(consumed);
        let new_len = ctx.arena_mut().app("+", vec![rest, kept_term]);
        let old_len = ctx.arena_mut().app("+", vec![rest, consumed_term]);
        ctx.check_lt(new_len, old_len).with_site(FaultSite::Termination { consumed, kept })
    }

    /// The default equivalence checker, grown to cover `num_qubits`.
    fn checker(&mut self, num_qubits: usize) -> &mut EquivalenceChecker {
        if self.checker.as_ref().is_none_or(|checker| checker.num_qubits() < num_qubits) {
            self.checker = Some(EquivalenceChecker::new(num_qubits));
        }
        self.checker.as_mut().expect("checker just ensured")
    }

    /// The reference executor, grown to cover `num_qubits`.
    fn executor(&mut self, num_qubits: usize) -> &mut SymbolicExecutor {
        if self.executor.as_ref().is_none_or(|&(_, width)| width < num_qubits) {
            self.executor = Some((SymbolicExecutor::new(num_qubits), num_qubits));
        }
        &mut self.executor.as_mut().expect("executor just ensured").0
    }

    /// The reference equivalence check: execute both circuits over the
    /// shared register, then compare the [`reference_normalize`] normal
    /// forms of each output wire and the wire it maps to (a map shorter
    /// than the register pads with the identity, like
    /// [`EquivalenceChecker`]).  Identical term ids are equal by
    /// hash-consing alone and are compared as they are: the naive normaliser
    /// is exponential on deep routed circuits.
    ///
    /// Without `evidence` the walk stops at the first differing wire; with
    /// it every wire is compared and recorded, the verdict still naming the
    /// first difference, and [`WireEvidence::from_comparisons`] fingerprints
    /// the recorded terms through one shared memo.
    fn reference_check(
        &mut self,
        lhs: &SymCircuit,
        rhs: &SymCircuit,
        wire_map: &[usize],
        evidence: bool,
    ) -> (Verdict, Vec<WireEvidence>) {
        let rules = reference_rules();
        let executor = self.executor(lhs.num_qubits().max(rhs.num_qubits()));
        let (out_lhs, out_rhs) = executor.execute_pair(lhs, rhs);
        let arena = executor.context_mut().arena_mut();
        let mut compared = Vec::new();
        let mut verdict = Verdict::Proved;
        for (logical, &a) in out_lhs.iter().enumerate() {
            let target = wire_map.get(logical).copied().unwrap_or(logical);
            let b = out_rhs[target];
            let (na, nb) = if a == b {
                (a, b)
            } else {
                (reference_normalize(arena, rules, a), reference_normalize(arena, rules, b))
            };
            if evidence {
                compared.push((target, na, nb, na == nb));
            }
            if na != nb && verdict.is_proved() {
                verdict = Verdict::refuted_at(
                    format!(
                        "qubit {logical} differs: terms have distinct normal forms: `{}` vs `{}`",
                        arena.display_clamped(na, smtlite::MAX_EXPLANATION_NODES),
                        arena.display_clamped(nb, smtlite::MAX_EXPLANATION_NODES)
                    ),
                    FaultSite::Wire { wire: logical },
                );
                if !evidence {
                    break;
                }
            }
        }
        (verdict, WireEvidence::from_comparisons(arena, &compared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::Circuit;

    fn equivalence_goal(proved: bool) -> Goal {
        let mut lhs = Circuit::new(2);
        lhs.cx(0, 1);
        if proved {
            lhs.cx(0, 1);
        }
        Goal::Equivalence {
            lhs: SymCircuit::from_circuit(&lhs),
            rhs: SymCircuit::from_circuit(&Circuit::new(2)),
        }
    }

    #[test]
    fn every_goal_kind_has_a_class_and_a_route() {
        let goals = [
            (equivalence_goal(true), GoalClass::CircuitEquivalence),
            (Goal::TerminationDecrease { consumed: 1, kept: 0 }, GoalClass::Arithmetic),
            (Goal::AlwaysTerminates, GoalClass::Trivial),
            (Goal::CircuitUnchanged, GoalClass::Trivial),
        ];
        for selection in BackendSelection::ALL {
            let mut registry = BackendRegistry::new(selection);
            for (goal, class) in &goals {
                assert_eq!(GoalClass::of(goal), *class);
                assert!(
                    registry.discharge(goal).is_proved(),
                    "{selection}: {} goal should be proved",
                    class.name()
                );
            }
        }
    }

    #[test]
    fn selections_agree_on_refuted_goals() {
        for selection in BackendSelection::ALL {
            let mut registry = BackendRegistry::new(selection);
            assert!(registry.discharge(&equivalence_goal(false)).is_refuted(), "{selection}");
            assert!(
                registry
                    .discharge(&Goal::TerminationDecrease { consumed: 1, kept: 1 })
                    .is_refuted(),
                "{selection}"
            );
        }
    }

    #[test]
    fn reference_backend_validates_wire_maps_like_the_checker() {
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).cx(0, 1);
        let mut original = Circuit::new(3);
        original.cx(0, 2);
        let lhs = SymCircuit::from_circuit(&original);
        let rhs = SymCircuit::from_circuit(&routed);
        for selection in BackendSelection::ALL {
            let mut registry = BackendRegistry::new(selection);
            let goal = |perm: Vec<usize>| Goal::EquivalenceUpToPermutation {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                perm,
            };
            assert!(registry.discharge(&goal(vec![0, 2, 1])).is_proved(), "{selection}");
            // Short, overlong, and out-of-range wire maps are refuted.
            assert!(registry.discharge(&goal(vec![0, 2])).is_refuted(), "{selection}");
            assert!(registry.discharge(&goal(vec![0, 2, 1, 3])).is_refuted(), "{selection}");
            assert!(registry.discharge(&goal(vec![0, 2, 3])).is_refuted(), "{selection}");
        }
    }

    #[test]
    fn evidence_records_each_side_on_its_own_side() {
        let idle = SymCircuit::from_circuit(&Circuit::new(1));
        let mut flip = Circuit::new(1);
        flip.x(0);
        let flip = SymCircuit::from_circuit(&flip);
        let equivalence = |lhs: &SymCircuit, rhs: &SymCircuit| Goal::Equivalence {
            lhs: lhs.clone(),
            rhs: rhs.clone(),
        };
        for selection in BackendSelection::ALL {
            let mut registry = BackendRegistry::new(selection);
            let (_, same) = registry.discharge_with_evidence(&equivalence(&idle, &idle));
            let idle_wire = same[0].lhs_normal;
            let (verdict, forward) = registry.discharge_with_evidence(&equivalence(&idle, &flip));
            assert!(verdict.is_refuted(), "{selection}");
            assert!(!forward[0].agreed, "{selection}");
            assert_eq!(forward[0].lhs_normal, idle_wire, "{selection}");
            assert_ne!(forward[0].rhs_normal, idle_wire, "{selection}");
            let (verdict, backward) = registry.discharge_with_evidence(&equivalence(&flip, &idle));
            assert_eq!(backward[0].lhs_normal, forward[0].rhs_normal, "{selection}");
            assert_eq!(backward[0].rhs_normal, idle_wire, "{selection}");
            // The borrowed entry point answers the owned goal exactly.
            let borrowed = registry.equivalence_with_evidence(&flip, &idle);
            assert_eq!(borrowed, (verdict, backward), "{selection}");
        }
    }

    #[test]
    fn evidence_routing_agrees_with_plain_discharge() {
        let mut routed = Circuit::new(3);
        routed.cx(0, 1).swap(1, 2).cx(0, 1);
        let mut original = Circuit::new(3);
        original.cx(0, 1).cx(0, 2);
        let goal = Goal::EquivalenceUpToPermutation {
            lhs: SymCircuit::from_circuit(&original),
            rhs: SymCircuit::from_circuit(&routed),
            perm: vec![0, 2, 1],
        };
        for selection in BackendSelection::ALL {
            let mut registry = BackendRegistry::new(selection);
            let (verdict, evidence) = registry.discharge_with_evidence(&goal);
            assert!(verdict.is_proved(), "{selection}");
            assert_eq!(evidence.len(), 3, "{selection}");
            assert!(evidence.iter().all(|e| e.agreed && e.lhs_normal == e.rhs_normal));
            assert_eq!(evidence[1].target, 2);
            // Malformed wire maps refute with empty evidence, like discharge.
            let malformed = Goal::EquivalenceUpToPermutation {
                lhs: SymCircuit::from_circuit(&original),
                rhs: SymCircuit::from_circuit(&routed),
                perm: vec![0, 2],
            };
            let (verdict, evidence) = registry.discharge_with_evidence(&malformed);
            assert!(verdict.is_refuted(), "{selection}");
            assert!(evidence.is_empty(), "{selection}");
            // Non-equivalence goals fall back to a plain discharge.
            let (verdict, evidence) = registry.discharge_with_evidence(&Goal::AlwaysTerminates);
            assert!(verdict.is_proved(), "{selection}");
            assert!(evidence.is_empty(), "{selection}");
        }
    }

    #[test]
    fn backend_ids_are_stable_and_cover_every_class() {
        for selection in BackendSelection::ALL {
            let registry = BackendRegistry::new(selection);
            for class in GoalClass::ALL {
                // The pure id mapping matches the instantiated registry.
                assert_eq!(selection.backend_id_for(class), registry.backend_id_for(class));
            }
        }
        assert_eq!(BackendSelection::parse("default"), Some(BackendSelection::Default));
        assert_eq!(BackendSelection::parse("reference"), Some(BackendSelection::Reference));
        assert_eq!(BackendSelection::parse("z3"), None);
    }

    #[test]
    fn clones_carry_prewarmed_state_and_agree_with_the_template() {
        for selection in BackendSelection::ALL {
            let mut template = BackendRegistry::new(selection);
            template.prewarm(3);
            let mut clone = template.clone();
            assert_eq!(clone.selection(), selection);
            for goal in [equivalence_goal(true), equivalence_goal(false), Goal::AlwaysTerminates] {
                let original = template.discharge(&goal);
                let cloned = clone.discharge(&goal);
                assert_eq!(
                    format!("{original:?}"),
                    format!("{cloned:?}"),
                    "{selection}: cloned verdict drifted from the template"
                );
            }
        }
    }

    #[test]
    fn prewarm_is_idempotent_and_sizes_the_equiv_state() {
        let mut registry = BackendRegistry::new(BackendSelection::Default);
        registry.prewarm(3);
        registry.prewarm(2);
        assert_eq!(registry.checker.as_ref().map(EquivalenceChecker::num_qubits), Some(3));
        assert!(registry.executor.is_none());
        assert!(registry.discharge(&equivalence_goal(true)).is_proved());
        let mut reference = BackendRegistry::new(BackendSelection::Reference);
        reference.prewarm(4);
        assert_eq!(reference.executor.as_ref().map(|&(_, width)| width), Some(4));
        assert!(reference.checker.is_none());
        assert!(reference.discharge(&equivalence_goal(true)).is_proved());
    }
}
