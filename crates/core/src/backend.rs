//! Solver backends and goal-class routing.
//!
//! PR 3 left `discharge()` as a single hard-wired pipeline: every goal went
//! through one `EquivalenceChecker` or one arithmetic `Context`.  This module
//! abstracts that seam, following the CertiQ observation (arXiv:1908.08963)
//! that different proof-goal classes are best served by different proof
//! strategies: a [`SolverBackend`] is one discharge strategy, a
//! [`BackendDescriptor`] advertises which [`GoalClass`]es it can handle, and
//! a [`BackendRegistry`] routes each [`Goal`] to the backend selected for its
//! class.
//!
//! # The goal-class routing contract
//!
//! Every [`Goal`] kind maps to exactly one [`GoalClass`] (see
//! [`GoalClass::of`]):
//!
//! | class | goal kinds | default backend |
//! |---|---|---|
//! | [`GoalClass::CircuitEquivalence`] | `Equivalence`, `EquivalenceUpToPermutation` | [`RewriteEquivBackend`] |
//! | [`GoalClass::Arithmetic`] | `TerminationDecrease` | [`ArithBackend`] |
//! | [`GoalClass::Trivial`] | `AlwaysTerminates`, `CircuitUnchanged` | [`TrivialBackend`] |
//!
//! `--backend reference` routes every class to [`ReferenceBackend`], the
//! naive oracle the default routing is differentially tested against.  One
//! prover per class is the whole design: Giallar proves circuit equivalence
//! with a single engine, symbolic execution plus the directed rewrite-rule
//! library (§5 of the paper).
//!
//! A registry is built from a [`BackendSelection`]; for each class it
//! installs a backend whose descriptor claims that class.  The contract a
//! backend must uphold:
//!
//! 1. **Totality on claimed classes** — `discharge` must return a
//!    [`Verdict`] (never panic) for every goal of a class listed in its
//!    descriptor.  Goals outside the claimed classes may be answered with
//!    [`Verdict::Unknown`]; the registry never routes them.
//! 2. **Determinism** — the same goal must always produce the same verdict
//!    (including the explanation text), because verdicts are cached per
//!    obligation keyed by the backend id (see [`crate::cache`]).
//! 3. **Stable id** — [`BackendDescriptor::id`] is part of the cache key:
//!    changing a backend's semantics without changing its id serves stale
//!    verdicts.  Treat the id like a format version.
//! 4. **Reusability** — one backend instance discharges many goals in
//!    order; [`SolverBackend::prewarm`] is called once per pass (or per
//!    [`crate::batch`] discharge group) with the widest equivalence register
//!    so the solver state is sized once, and [`SolverBackend::snapshot`]
//!    hands that warmed state to the batch scheduler's workers.  Solver
//!    contexts share the process's compiled rewrite-rule library, so a
//!    prewarm or a snapshot costs the register and its memo, not the
//!    library.
//!
//! # Adding a backend
//!
//! A future Z3-via-FFI backend (when the environment allows linking Z3)
//! would:
//!
//! 1. implement `SolverBackend` with a descriptor like
//!    `BackendDescriptor { id: "z3-ffi", goal_classes: &[GoalClass::CircuitEquivalence, GoalClass::Arithmetic], .. }`,
//! 2. add a [`BackendSelection`] variant naming it and extend
//!    [`BackendSelection::parse`] / [`BackendSelection::backend_id_for`]
//!    (the id mapping must stay a pure function so cache keys can be
//!    computed without instantiating the backend),
//! 3. extend [`BackendRegistry::new`] to install it for the classes the
//!    selection routes to it.
//!
//! The CLI (`giallar verify --backend <id>`), the cache keys, and the bench
//! harness all pick the new backend up through [`BackendSelection`] — no
//! other layer hard-codes a discharge strategy.

use std::sync::OnceLock;

use qc_symbolic::{EquivalenceChecker, SymCircuit, SymbolicExecutor, Verdict, WireEvidence};
use smtlite::{reference_normalize, Context, FaultSite, Formula, RewriteRule};

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

    /// Dense index into routing tables (the position in [`Self::ALL`]).
    pub(crate) fn index(self) -> usize {
        match self {
            GoalClass::CircuitEquivalence => 0,
            GoalClass::Arithmetic => 1,
            GoalClass::Trivial => 2,
        }
    }
}

/// Capability descriptor of a backend: its stable id and the goal classes it
/// can discharge.
#[derive(Debug, Clone, Copy)]
pub struct BackendDescriptor {
    /// Stable identifier — part of every cached verdict's key.
    pub id: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Goal classes the backend is total on.
    pub goal_classes: &'static [GoalClass],
}

impl BackendDescriptor {
    /// Whether the backend claims `class`.
    pub fn supports(&self, class: GoalClass) -> bool {
        self.goal_classes.contains(&class)
    }
}

/// One discharge strategy.  See the module docs for the contract.
pub trait SolverBackend: Send + Sync {
    /// The backend's capability descriptor.
    fn descriptor(&self) -> &'static BackendDescriptor;

    /// Discharges one goal.  Must not panic on goals of a claimed class;
    /// unclaimed goals may come back [`Verdict::Unknown`].
    fn discharge(&mut self, goal: &Goal) -> Verdict;

    /// Pass-level warm-up hook: called once before a pass's goals with the
    /// widest equivalence register among them, so the backend can size its
    /// solver state once.  Default: no-op.
    fn prewarm(&mut self, max_qubits: usize) {
        let _ = max_qubits;
    }

    /// Discharges an equivalence goal while extracting the per-wire
    /// [`WireEvidence`] a translation-validation certificate embeds.
    /// `None` (the default) means the backend cannot produce evidence for
    /// this goal; callers fall back to [`SolverBackend::discharge`] with
    /// empty evidence.  The verdict returned here must agree with what
    /// `discharge` would answer for the same goal (determinism rule).
    fn equivalence_evidence(&mut self, goal: &Goal) -> Option<(Verdict, Vec<WireEvidence>)> {
        let _ = goal;
        None
    }

    /// A fresh, independently mutable copy of this backend carrying its
    /// warmed state (register width, terms, memo; the compiled rule library
    /// is shared, not copied).  The batched discharge scheduler clones one
    /// prewarmed template per discharge group and fans the clones out
    /// across worker threads.  `None` (the default) keeps the backend's
    /// goals on the template instance.
    fn snapshot(&self) -> Option<Box<dyn SolverBackend>> {
        None
    }
}

/// Validates a routing wire map against the goal's **own** register — the
/// widest circuit it relates — independent of how wide the shared solver
/// state happens to be.
///
/// The underlying [`EquivalenceChecker`] accepts any wire map that fits its
/// register, and backends grow that register monotonically across a pass's
/// goals ([`SolverBackend::prewarm`]), so without this guard the verdict of
/// a malformed wire map would depend on which goals were discharged before
/// it — violating the determinism rule of the backend contract (and, since
/// verdicts are cached per obligation, potentially replaying a `Proved`
/// where a fresh discharge would refute).  `None` means the map is
/// well-formed for the goal.
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

const REWRITE_EQUIV_DESCRIPTOR: BackendDescriptor = BackendDescriptor {
    id: "rewrite-equiv",
    description: "compiled head-indexed rewriting over symbolic wire terms (qc-symbolic)",
    goal_classes: &[GoalClass::CircuitEquivalence],
};

/// The production equivalence backend: wraps
/// [`qc_symbolic::EquivalenceChecker`] (compiled rewriter, congruence
/// closure, normal-form memo), grown lazily to the widest register seen.
#[derive(Debug, Clone, Default)]
pub struct RewriteEquivBackend {
    checker: Option<EquivalenceChecker>,
}

impl RewriteEquivBackend {
    /// Creates a backend with no solver state; the checker is built on
    /// first use (or by [`SolverBackend::prewarm`]).
    pub fn new() -> Self {
        RewriteEquivBackend::default()
    }

    /// The shared equivalence checker, grown to cover `num_qubits`.
    fn checker(&mut self, num_qubits: usize) -> &mut EquivalenceChecker {
        let rebuild = match &self.checker {
            Some(checker) => checker.num_qubits() < num_qubits,
            None => true,
        };
        if rebuild {
            self.checker = Some(EquivalenceChecker::new(num_qubits));
        }
        self.checker.as_mut().expect("checker just ensured")
    }
}

impl SolverBackend for RewriteEquivBackend {
    fn descriptor(&self) -> &'static BackendDescriptor {
        &REWRITE_EQUIV_DESCRIPTOR
    }

    fn discharge(&mut self, goal: &Goal) -> Verdict {
        match goal {
            Goal::Equivalence { lhs, rhs } => {
                let n = lhs.num_qubits().max(rhs.num_qubits());
                self.checker(n).check(lhs, rhs)
            }
            Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => {
                if let Some(verdict) = validate_wire_map(lhs, rhs, perm) {
                    return verdict;
                }
                let n = lhs.num_qubits().max(rhs.num_qubits());
                self.checker(n).check_with_permutation(lhs, rhs, perm)
            }
            other => Verdict::Unknown {
                reason: format!(
                    "rewrite-equiv backend cannot discharge {} goals",
                    GoalClass::of(other).name()
                ),
            },
        }
    }

    fn prewarm(&mut self, max_qubits: usize) {
        if max_qubits > 0 {
            self.checker(max_qubits);
        }
    }

    fn equivalence_evidence(&mut self, goal: &Goal) -> Option<(Verdict, Vec<WireEvidence>)> {
        let (lhs, rhs, perm) = match goal {
            Goal::Equivalence { lhs, rhs } => (lhs, rhs, None),
            Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => (lhs, rhs, Some(perm)),
            _ => return None,
        };
        if let Some(perm) = perm {
            if let Some(verdict) = validate_wire_map(lhs, rhs, perm) {
                return Some((verdict, Vec::new()));
            }
        }
        let n = lhs.num_qubits().max(rhs.num_qubits());
        let wire_map = match perm {
            Some(perm) => perm.clone(),
            None => (0..n).collect(),
        };
        Some(self.checker(n).check_with_evidence(lhs, rhs, &wire_map))
    }

    fn snapshot(&self) -> Option<Box<dyn SolverBackend>> {
        Some(Box::new(self.clone()))
    }
}

const ARITH_DESCRIPTOR: BackendDescriptor = BackendDescriptor {
    id: "smtlite-arith",
    description: "linear integer facts over an smtlite context (termination measures)",
    goal_classes: &[GoalClass::Arithmetic],
};

/// The arithmetic backend: wraps an [`smtlite::Context`] shared across all
/// termination goals of a pass.
#[derive(Debug, Clone, Default)]
pub struct ArithBackend {
    ctx: Option<Context>,
}

impl ArithBackend {
    /// Creates a backend with no solver state; the context is built on
    /// first use.
    pub fn new() -> Self {
        ArithBackend::default()
    }
}

impl SolverBackend for ArithBackend {
    fn descriptor(&self) -> &'static BackendDescriptor {
        &ARITH_DESCRIPTOR
    }

    fn discharge(&mut self, goal: &Goal) -> Verdict {
        match goal {
            Goal::TerminationDecrease { consumed, kept } => {
                // |remain_new| = |rest| + kept  <  |remain_old| = |rest| + consumed
                let ctx = self.ctx.get_or_insert_with(Context::new);
                let rest = ctx.arena_mut().app("len_rest", vec![]);
                let kept_term = ctx.arena_mut().int(*kept as i64);
                let consumed_term = ctx.arena_mut().int(*consumed as i64);
                let new_len = ctx.arena_mut().app("+", vec![rest, kept_term]);
                let old_len = ctx.arena_mut().app("+", vec![rest, consumed_term]);
                ctx.check(&Formula::Lt(new_len, old_len)).with_site(FaultSite::Termination {
                    consumed: *consumed as i64,
                    kept: *kept as i64,
                })
            }
            other => Verdict::Unknown {
                reason: format!(
                    "smtlite-arith backend cannot discharge {} goals",
                    GoalClass::of(other).name()
                ),
            },
        }
    }

    fn snapshot(&self) -> Option<Box<dyn SolverBackend>> {
        Some(Box::new(self.clone()))
    }
}

const TRIVIAL_DESCRIPTOR: BackendDescriptor = BackendDescriptor {
    id: "trivial",
    description: "goals that hold by construction of the loop templates",
    goal_classes: &[GoalClass::Trivial],
};

/// The trivially-true backend: range-based loops terminate by construction
/// and analysis passes return the circuit unchanged by the template shape,
/// so these goals carry no solver work.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrivialBackend;

impl SolverBackend for TrivialBackend {
    fn descriptor(&self) -> &'static BackendDescriptor {
        &TRIVIAL_DESCRIPTOR
    }

    fn discharge(&mut self, goal: &Goal) -> Verdict {
        match goal {
            Goal::AlwaysTerminates | Goal::CircuitUnchanged => Verdict::Proved,
            other => Verdict::Unknown {
                reason: format!(
                    "trivial backend cannot discharge {} goals",
                    GoalClass::of(other).name()
                ),
            },
        }
    }

    fn snapshot(&self) -> Option<Box<dyn SolverBackend>> {
        Some(Box::new(*self))
    }
}

const REFERENCE_DESCRIPTOR: BackendDescriptor = BackendDescriptor {
    id: "reference",
    description: "naive reference normalizer (smtlite::reference_normalize) for differential runs",
    goal_classes: &[GoalClass::CircuitEquivalence, GoalClass::Arithmetic, GoalClass::Trivial],
};

/// The differential cross-checking backend, selected with
/// `giallar verify --backend reference`.
///
/// Equivalence goals are discharged by symbolically executing both circuits
/// and normalising every output wire with [`smtlite::reference_normalize`] —
/// the preserved naive implementation (string-free but uncompiled,
/// un-indexed, un-memoized linear scan) that PR 3's optimized rewriter is
/// differentially tested against.  A disagreement between this backend and
/// the default routing is a soundness bug in the solver hot path, which is
/// exactly what the CI differential run exists to catch.  Arithmetic and
/// trivial goals have no rewriting to cross-check and are discharged like
/// the default backends.
#[derive(Clone)]
pub struct ReferenceBackend {
    executor: Option<SymbolicExecutor>,
    num_qubits: usize,
    rules: &'static [RewriteRule],
    arith: ArithBackend,
}

/// The circuit rewrite-rule library as the plain rule list
/// [`reference_normalize`] scans, collected once per process.
fn reference_rules() -> &'static [RewriteRule] {
    static RULES: OnceLock<Vec<RewriteRule>> = OnceLock::new();
    RULES.get_or_init(|| {
        qc_symbolic::circuit_rewrite_rules_static().iter().map(|c| c.rule.clone()).collect()
    })
}

impl Default for ReferenceBackend {
    fn default() -> Self {
        ReferenceBackend::new()
    }
}

impl ReferenceBackend {
    /// Creates a backend; the executor is built on first use.
    pub fn new() -> Self {
        ReferenceBackend {
            executor: None,
            num_qubits: 0,
            rules: reference_rules(),
            arith: ArithBackend::new(),
        }
    }

    /// The shared executor, grown to cover `num_qubits`.
    fn executor(&mut self, num_qubits: usize) -> &mut SymbolicExecutor {
        if self.executor.is_none() || self.num_qubits < num_qubits {
            self.executor = Some(SymbolicExecutor::new(num_qubits));
            self.num_qubits = num_qubits;
        }
        self.executor.as_mut().expect("executor just ensured")
    }

    /// The reference equivalence check: execute both circuits over the
    /// shared register, then compare the reference normal form of every
    /// output wire.  The wire map must already be validated
    /// ([`validate_wire_map`]); a map shorter than the register pads with
    /// the identity on the untouched wires, like [`EquivalenceChecker`].
    fn check_wire_map(
        &mut self,
        lhs: &SymCircuit,
        rhs: &SymCircuit,
        wire_map: &[usize],
    ) -> Verdict {
        let circuit_width = lhs.num_qubits().max(rhs.num_qubits());
        let rules = self.rules;
        let executor = self.executor(circuit_width);
        let out_lhs = executor.execute(lhs);
        let out_rhs = executor.execute(rhs);
        let arena = executor.context_mut().arena_mut();
        for logical in 0..out_lhs.len() {
            let a = out_lhs[logical];
            let b = out_rhs[wire_map.get(logical).copied().unwrap_or(logical)];
            let na = reference_normalize(arena, rules, a);
            let nb = reference_normalize(arena, rules, b);
            if na != nb {
                return Verdict::refuted_at(
                    format!(
                        "qubit {logical} differs: terms have distinct normal forms: `{}` vs `{}`",
                        arena.display_clamped(na, smtlite::MAX_EXPLANATION_NODES),
                        arena.display_clamped(nb, smtlite::MAX_EXPLANATION_NODES)
                    ),
                    FaultSite::Wire { wire: logical },
                );
            }
        }
        Verdict::Proved
    }
}

impl SolverBackend for ReferenceBackend {
    fn descriptor(&self) -> &'static BackendDescriptor {
        &REFERENCE_DESCRIPTOR
    }

    fn discharge(&mut self, goal: &Goal) -> Verdict {
        match goal {
            Goal::Equivalence { lhs, rhs } => {
                // The empty map identity-pads every register wire.
                self.check_wire_map(lhs, rhs, &[])
            }
            Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => {
                if let Some(verdict) = validate_wire_map(lhs, rhs, perm) {
                    return verdict;
                }
                self.check_wire_map(lhs, rhs, perm)
            }
            Goal::TerminationDecrease { .. } => self.arith.discharge(goal),
            Goal::AlwaysTerminates | Goal::CircuitUnchanged => Verdict::Proved,
        }
    }

    fn prewarm(&mut self, max_qubits: usize) {
        if max_qubits > 0 {
            self.executor(max_qubits);
        }
    }

    /// Evidence over every wire, like
    /// [`EquivalenceChecker::check_with_evidence`]: the loop records each
    /// wire's compared normal forms, and [`WireEvidence::from_comparisons`]
    /// fingerprints them all through one shared memo.
    fn equivalence_evidence(&mut self, goal: &Goal) -> Option<(Verdict, Vec<WireEvidence>)> {
        let (lhs, rhs, perm) = match goal {
            Goal::Equivalence { lhs, rhs } => (lhs, rhs, None),
            Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => {
                (lhs, rhs, Some(perm.as_slice()))
            }
            _ => return None,
        };
        if let Some(perm) = perm {
            if let Some(verdict) = validate_wire_map(lhs, rhs, perm) {
                return Some((verdict, Vec::new()));
            }
        }
        let wire_map = perm.unwrap_or(&[]);
        let circuit_width = lhs.num_qubits().max(rhs.num_qubits());
        let rules = self.rules;
        let executor = self.executor(circuit_width);
        let out_lhs = executor.execute(lhs);
        let out_rhs = executor.execute(rhs);
        let arena = executor.context_mut().arena_mut();
        let mut compared = Vec::with_capacity(out_lhs.len());
        let mut verdict = Verdict::Proved;
        for (logical, &lhs_term) in out_lhs.iter().enumerate() {
            let target = wire_map.get(logical).copied().unwrap_or(logical);
            // Identical term ids are equal by hash-consing alone; fingerprint
            // the shared term as-is instead of normalising it (the naive
            // normaliser is exponential on deep routed circuits).
            let (na, nb) = if lhs_term == out_rhs[target] {
                (lhs_term, out_rhs[target])
            } else {
                (
                    reference_normalize(arena, rules, lhs_term),
                    reference_normalize(arena, rules, out_rhs[target]),
                )
            };
            compared.push((target, na, nb, na == nb));
            if verdict.is_proved() && na != nb {
                verdict = Verdict::refuted_at(
                    format!(
                        "qubit {logical} differs: terms have distinct normal forms: \
                         `{}` vs `{}`",
                        arena.display_clamped(na, smtlite::MAX_EXPLANATION_NODES),
                        arena.display_clamped(nb, smtlite::MAX_EXPLANATION_NODES)
                    ),
                    FaultSite::Wire { wire: logical },
                );
            }
        }
        Some((verdict, WireEvidence::from_comparisons(arena, &compared)))
    }

    fn snapshot(&self) -> Option<Box<dyn SolverBackend>> {
        Some(Box::new(self.clone()))
    }
}

/// Which backend family a verification run discharges with.  Parsed from the
/// CLI's `--backend` flag and folded into every cached verdict's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendSelection {
    /// The production routing: [`RewriteEquivBackend`] for equivalence,
    /// [`ArithBackend`] for arithmetic, [`TrivialBackend`] for trivial goals.
    #[default]
    Default,
    /// The differential routing: [`ReferenceBackend`] for every class.
    Reference,
}

impl BackendSelection {
    /// Every selectable backend family (for CLI help and validation).
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

    /// The id of the backend this selection routes `class` to.  A pure
    /// function of `(selection, class)` so the obligation cache can compute
    /// keys without instantiating backends.
    pub fn backend_id_for(self, class: GoalClass) -> &'static str {
        match self {
            BackendSelection::Default => match class {
                GoalClass::CircuitEquivalence => REWRITE_EQUIV_DESCRIPTOR.id,
                GoalClass::Arithmetic => ARITH_DESCRIPTOR.id,
                GoalClass::Trivial => TRIVIAL_DESCRIPTOR.id,
            },
            BackendSelection::Reference => REFERENCE_DESCRIPTOR.id,
        }
    }
}

impl std::fmt::Display for BackendSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// A goal-class router over a set of [`SolverBackend`]s.
///
/// The registry owns one backend instance per routed class (shared when one
/// backend claims several classes, as the reference backend does) and
/// dispatches [`BackendRegistry::discharge`] through [`GoalClass::of`].
pub struct BackendRegistry {
    selection: BackendSelection,
    backends: Vec<Box<dyn SolverBackend>>,
    /// `route[class.index()]` = index into `backends`.
    route: [usize; 3],
}

impl BackendRegistry {
    /// Builds the registry for a selection.
    pub fn new(selection: BackendSelection) -> Self {
        let (backends, route): (Vec<Box<dyn SolverBackend>>, [usize; 3]) = match selection {
            BackendSelection::Default => (
                vec![
                    Box::new(RewriteEquivBackend::new()),
                    Box::new(ArithBackend::new()),
                    Box::new(TrivialBackend),
                ],
                [0, 1, 2],
            ),
            BackendSelection::Reference => (vec![Box::new(ReferenceBackend::new())], [0, 0, 0]),
        };
        let registry = BackendRegistry { selection, backends, route };
        registry.check_routes();
        registry
    }

    /// A fresh registry whose backends are [`SolverBackend::snapshot`]
    /// clones of this one's, prewarmed state included.  `None` if any
    /// installed backend cannot snapshot; callers then keep the goals on
    /// this instance.
    pub fn snapshot(&self) -> Option<BackendRegistry> {
        let mut backends = Vec::with_capacity(self.backends.len());
        for backend in &self.backends {
            backends.push(backend.snapshot()?);
        }
        Some(BackendRegistry { selection: self.selection, backends, route: self.route })
    }

    /// Every routed backend must claim the class it serves — a routing
    /// table pointing a class at a backend that disclaims it would turn
    /// every goal of that class into `Unknown`.
    fn check_routes(&self) {
        for class in GoalClass::ALL {
            let backend = &self.backends[self.route[class.index()]];
            debug_assert!(
                backend.descriptor().supports(class),
                "backend `{}` routed {} goals it does not claim",
                backend.descriptor().id,
                class.name()
            );
        }
    }

    /// The selection the registry was built from.
    pub fn selection(&self) -> BackendSelection {
        self.selection
    }

    /// The id of the backend that discharges `class` goals.
    pub fn backend_id_for(&self, class: GoalClass) -> &'static str {
        self.backends[self.route[class.index()]].descriptor().id
    }

    /// Descriptors of the installed backends, in routing-table order,
    /// deduplicated.
    pub fn descriptors(&self) -> Vec<&'static BackendDescriptor> {
        let mut seen: Vec<&'static str> = Vec::new();
        let mut out = Vec::new();
        for backend in &self.backends {
            let descriptor = backend.descriptor();
            if !seen.contains(&descriptor.id) {
                seen.push(descriptor.id);
                out.push(descriptor);
            }
        }
        out
    }

    /// Routes a goal to the backend selected for its class.
    pub fn discharge(&mut self, goal: &Goal) -> Verdict {
        let class = GoalClass::of(goal);
        self.backends[self.route[class.index()]].discharge(goal)
    }

    /// Routes a goal like [`BackendRegistry::discharge`] but additionally
    /// extracts per-wire equivalence evidence when the routed backend
    /// supports it.  Non-equivalence goals (and backends without evidence
    /// support) fall back to a plain discharge with empty evidence.
    pub fn discharge_with_evidence(&mut self, goal: &Goal) -> (Verdict, Vec<WireEvidence>) {
        let class = GoalClass::of(goal);
        let backend = &mut self.backends[self.route[class.index()]];
        match backend.equivalence_evidence(goal) {
            Some(result) => result,
            None => (backend.discharge(goal), Vec::new()),
        }
    }

    /// Forwards the pass-level warm-up to every installed backend.
    pub fn prewarm(&mut self, max_qubits: usize) {
        for backend in &mut self.backends {
            backend.prewarm(max_qubits);
        }
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        BackendRegistry::new(BackendSelection::Default)
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
            let (_, backward) = registry.discharge_with_evidence(&equivalence(&flip, &idle));
            assert_eq!(backward[0].lhs_normal, forward[0].rhs_normal, "{selection}");
            assert_eq!(backward[0].rhs_normal, idle_wire, "{selection}");
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
    fn backends_disclaim_foreign_goals_with_unknown() {
        let termination = Goal::TerminationDecrease { consumed: 1, kept: 0 };
        assert!(matches!(
            RewriteEquivBackend::new().discharge(&termination),
            Verdict::Unknown { .. }
        ));
        assert!(matches!(
            ArithBackend::new().discharge(&Goal::AlwaysTerminates),
            Verdict::Unknown { .. }
        ));
        assert!(matches!(
            TrivialBackend.discharge(&equivalence_goal(true)),
            Verdict::Unknown { .. }
        ));
    }

    #[test]
    fn backend_ids_are_stable_and_cover_every_class() {
        for selection in BackendSelection::ALL {
            let registry = BackendRegistry::new(selection);
            for class in GoalClass::ALL {
                // The pure id mapping matches the instantiated registry.
                assert_eq!(selection.backend_id_for(class), registry.backend_id_for(class));
            }
            for descriptor in registry.descriptors() {
                assert!(!descriptor.goal_classes.is_empty());
            }
        }
        assert_eq!(BackendSelection::parse("default"), Some(BackendSelection::Default));
        assert_eq!(BackendSelection::parse("reference"), Some(BackendSelection::Reference));
        assert_eq!(BackendSelection::parse("z3"), None);
    }

    #[test]
    fn snapshots_carry_prewarmed_state_and_agree_with_the_template() {
        for selection in BackendSelection::ALL {
            let mut template = BackendRegistry::new(selection);
            template.prewarm(3);
            let mut snapshot = template.snapshot().expect("all built-in backends snapshot");
            assert_eq!(snapshot.selection(), selection);
            for goal in [equivalence_goal(true), equivalence_goal(false), Goal::AlwaysTerminates] {
                let original = template.discharge(&goal);
                let cloned = snapshot.discharge(&goal);
                assert_eq!(
                    format!("{original:?}"),
                    format!("{cloned:?}"),
                    "{selection}: snapshot verdict drifted from the template"
                );
            }
        }
    }

    #[test]
    fn prewarm_is_idempotent_and_sizes_the_equiv_state() {
        let mut backend = RewriteEquivBackend::new();
        backend.prewarm(3);
        backend.prewarm(2);
        assert_eq!(backend.checker.as_ref().map(EquivalenceChecker::num_qubits), Some(3));
        assert!(backend.discharge(&equivalence_goal(true)).is_proved());
        let mut reference = ReferenceBackend::new();
        reference.prewarm(4);
        assert_eq!(reference.num_qubits, 4);
        assert!(reference.discharge(&equivalence_goal(true)).is_proved());
    }
}
